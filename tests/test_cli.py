import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from awgauss import GaussianSpec, couplings, random_spd, verify
from awgauss.cli import main

REFLECTED = {
    "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 5.0]]},
    "nu": {"mean": [0.0, 0.0], "cov": [[1.0, -2.0], [-2.0, 5.0]]},
}
TIED = {
    "mu": {"mean": [0.0, 0.0], "chol": [[1.0, 0.0], [1.0, 1.0]]},
    "nu": {"mean": [0.0, 0.0], "chol": [[1.0, 0.0], [-1.0, 1.0]]},
}
IDENTICAL = {
    "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 5.0]]},
    "nu": {"mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 5.0]]},
}

# pivot ratio 1e-7 passes the 1e-12 gate, although its square would not
ILL_CONDITIONED = {
    "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1e-7]]},
    "nu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1e-7]]},
}


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestDist:
    def test_reflected_values(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        code, doc = _run(capsys, ["dist", path])
        assert code == 0
        assert doc["aw2"] == pytest.approx(2.0, abs=1e-12)
        assert doc["kr2"] == pytest.approx(4.0, abs=1e-12)
        assert doc["w2"] == pytest.approx(1.75, abs=0.01)
        assert doc["diag_LtM"] == [-3.0, 1.0]
        assert doc["kr_optimal"] is False
        assert doc["aw_unique"] is True
        assert doc["mean_term"] == 0.0

    @pytest.mark.parametrize("weights", [[2.0, 1.0], [1.0, 2.0, 3.0]])
    def test_weights_key_is_ignored(self, tmp_path, capsys, weights):
        # no command reads per-time weights from a problem file, whatever their length
        plain = _run(capsys, ["dist", _write(tmp_path, REFLECTED)])
        weighted = _run(capsys, ["dist", _write(tmp_path, {**REFLECTED, "weights": weights}, "w.json")])
        assert weighted == plain

    def test_identical_laws(self, tmp_path, capsys):
        path = _write(tmp_path, IDENTICAL)
        code, doc = _run(capsys, ["dist", path])
        assert code == 0
        assert doc["aw2"] == 0.0
        assert doc["kr2"] == 0.0
        assert doc["w2"] == 0.0
        assert doc["kr_optimal"] is True

    def test_identical_laws_at_large_scale(self, tmp_path, capsys):
        # the second law of the seeded sweep in test_distances, Tr A + Tr B ~ 1e7:
        # equal factors take Q = I, so no float noise is left to show
        rng = np.random.default_rng(0)
        cov = [1e6 * random_spd(4, rng) for _ in range(2)][1].tolist()
        law = {"mean": [0.0] * 4, "cov": cov}
        code, doc = _run(capsys, ["dist", _write(tmp_path, {"mu": law, "nu": law})])
        assert code == 0
        assert doc["w2"] == 0.0

    def test_tied_pair_flags_nonuniqueness(self, tmp_path, capsys):
        path = _write(tmp_path, TIED)
        code, doc = _run(capsys, ["dist", path])
        assert code == 0
        assert doc["diag_LtM"] == [0.0, 1.0]
        assert doc["kr_optimal"] is True
        assert doc["aw_unique"] is False
        assert doc["free_indices"] == [1]

    def test_round_trip_document(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        code, doc = _run(capsys, ["dist", path])
        assert code == 0
        again = _write(tmp_path, doc, name="echo.json")
        code2, doc2 = _run(capsys, ["dist", again])
        assert code2 == 0
        assert doc2 == doc


class TestCoupling:
    def test_adapted_map(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        code, doc = _run(capsys, ["coupling", path, "--map", "aw"])
        assert code == 0
        assert doc["map"]["kind"] == "adapted_wasserstein"
        np.testing.assert_allclose(doc["map"]["matrix"], [[-1.0, 0.0], [0.0, 1.0]], atol=1e-12)
        assert doc["sign"]["unique"] is True
        assert doc["cost"] == pytest.approx(4.0, abs=1e-12)

    def test_tied_pair_nonunique(self, tmp_path, capsys):
        path = _write(tmp_path, TIED)
        code, doc = _run(capsys, ["coupling", path, "--map", "aw"])
        assert code == 0
        assert doc["sign"]["unique"] is False
        assert doc["sign"]["free_indices"] == [1]

    def test_explicit_rho_cost(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        code, doc = _run(capsys, ["coupling", path, "--rho", "1,1"])
        assert code == 0
        assert doc["cost"] == pytest.approx(16.0, abs=1e-12)
        assert doc["rho_used"] == [1.0, 1.0]
        # synchronous coupling: cross block is L M^T
        np.testing.assert_allclose(
            np.array(doc["joint_cov"])[:2, 2:], [[1.0, -2.0], [2.0, -3.0]], atol=1e-12
        )

    @pytest.mark.parametrize(
        "aliases, map_kind, geodesic_kind",
        [
            (("w", "wasserstein", "brenier"), "brenier", "wasserstein"),
            (("kr", "knothe-rosenblatt", "knothe_rosenblatt"), "knothe_rosenblatt", "knothe_rosenblatt"),
            (("aw", "adapted", "adapted-wasserstein", "adapted_wasserstein"), "adapted_wasserstein", "adapted"),
        ],
    )
    def test_map_aliases_pin_kind(self, tmp_path, capsys, aliases, map_kind, geodesic_kind):
        path = _write(tmp_path, REFLECTED)
        for alias in aliases:
            code, doc = _run(capsys, ["coupling", path, "--map", alias])
            assert code == 0
            assert doc["map"]["kind"] == map_kind
            code, doc = _run(capsys, ["geodesic", path, "--kind", alias, "--t", "0.25"])
            assert code == 0
            assert doc["kind"] == geodesic_kind

    @pytest.mark.parametrize("command", [["coupling", "--map"], ["geodesic", "--t", "0.5", "--kind"]])
    @pytest.mark.parametrize("spelling", ["adapted-", "b", "w2", "brenier_map", ""])
    def test_unknown_map_spelling_exits_2(self, tmp_path, capsys, command, spelling):
        path = _write(tmp_path, REFLECTED)
        with pytest.raises(SystemExit) as info:
            main([command[0], path, *command[1:], spelling])
        assert info.value.code == 2
        assert f"unknown map/kind {spelling!r}" in capsys.readouterr().err

    def test_kr_and_w_maps(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        _, kr_doc = _run(capsys, ["coupling", path, "--map", "kr"])
        np.testing.assert_allclose(kr_doc["map"]["matrix"], [[1.0, 0.0], [-4.0, 1.0]], atol=1e-12)
        _, w_doc = _run(capsys, ["coupling", path, "--map", "w"])
        T = np.array(w_doc["map"]["matrix"])
        np.testing.assert_allclose(T, T.T, atol=1e-12)


class TestGeodesic:
    def test_adapted_midpoint_degenerates(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        code, doc = _run(capsys, ["geodesic", path, "--kind", "aw", "--t", "0.5"])
        assert code == 0
        point = doc["points"][0]
        assert point["degenerate"] is True
        np.testing.assert_allclose(point["cov"], [[0.0, 0.0], [0.0, 5.0]], atol=1e-12)

    def test_start_point_echoes_input(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        code, doc = _run(capsys, ["geodesic", path, "--kind", "aw", "--t", "0"])
        assert code == 0
        assert doc["points"][0]["cov"] == REFLECTED["mu"]["cov"]
        assert doc["points"][0]["mean"] == REFLECTED["mu"]["mean"]

    @pytest.mark.parametrize("frames", ["0", "-1"])
    def test_no_frames_is_parse_error(self, tmp_path, capsys, frames):
        # a bad command-line value: neither a numpy error nor a document with no points
        path = _write(tmp_path, REFLECTED)
        assert main(["geodesic", path, "--frames", frames]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--frames needs at least 1 frame" in captured.err

    def test_one_frame_is_the_start_point(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        code, doc = _run(capsys, ["geodesic", path, "--kind", "aw", "--frames", "1"])
        assert code == 0
        assert [pt["t"] for pt in doc["points"]] == [0.0]

    def test_kr_frames_interpolate_factors(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        code, doc = _run(capsys, ["geodesic", path, "--kind", "kr", "--frames", "5"])
        assert code == 0
        assert len(doc["points"]) == 5
        L0 = np.linalg.cholesky(np.array(REFLECTED["mu"]["cov"]))
        L1 = np.linalg.cholesky(np.array(REFLECTED["nu"]["cov"]))
        for point in doc["points"]:
            t = point["t"]
            expected = (1 - t) * L0 + t * L1
            np.testing.assert_allclose(
                np.linalg.cholesky(np.array(point["cov"])), expected, atol=1e-9
            )

    def test_optional_figure(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        fig = tmp_path / "strip.svg"
        code, doc = _run(
            capsys, ["geodesic", path, "--kind", "aw", "--frames", "3", "--figure", str(fig)]
        )
        assert code == 0
        assert fig.exists()
        assert (tmp_path / "strip.csv").exists()


class TestVerify:
    def test_fast_on_reflected(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        code, doc = _run(capsys, ["verify", path, "--level", "fast"])
        assert code == 0
        assert doc["passed"] is True
        assert doc["failures"] == []

    def test_full_runs_oracles(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        code, doc = _run(capsys, ["verify", path, "--level", "full", "--grid-m", "200"])
        assert code == 0
        oracle = [c for c in doc["checks"] if c["name"] == "oracle_dpp_agreement"]
        assert len(oracle) == 1
        assert oracle[0]["passed"] is True
        assert oracle[0]["observed"] <= 0.05 * (1.0 + 4.0)

    def test_random_pairs(self, tmp_path, capsys):
        code, doc = _run(capsys, ["--seed", "7", "verify", "--random", "20"])
        assert code == 0
        assert doc["num_pairs"] == 20
        assert doc["passed"] is True

    def test_coarse_oracle_grid_fails_honestly(self, tmp_path, capsys):
        # m = 2 nodes cannot resolve the value; the agreement check must fail
        path = _write(tmp_path, REFLECTED)
        code, doc = _run(capsys, ["verify", path, "--level", "full", "--grid-m", "2"])
        assert code == 1
        assert "oracle_dpp_agreement" in doc["failures"]

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        code = main(["verify"])
        assert code == 2

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_no_random_pairs_is_parse_error(self, capsys, count):
        # zero pairs would run zero checks and pass vacuously
        assert main(["--seed", "3", "verify", "--random", count, "--level", "full"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--random needs at least 1 pair" in captured.err

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_no_time_steps_is_parse_error(self, capsys, dim):
        # a bad command-line value, not a numpy error (-1) or an invariant violation (0)
        assert main(["--seed", "3", "verify", "--random", "1", "--dim", dim]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--dim needs at least 1 time step" in captured.err

    def test_tolerance_scale_is_unrecognized(self, capsys):
        # bounds come from each pair's own second moments; no flag widens them
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--random", "2", "--tolerance-scale", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tolerance-scale" in captured.err

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--mc-samples", "500", "--mc-samples needs at least 1000 samples"),
            ("--mc-samples", "0", "--mc-samples needs at least 1000 samples"),
            ("--grid-m", "1", "--grid-m needs at least 2 nodes per time step"),
            ("--grid-m", "0", "--grid-m needs at least 2 nodes per time step"),
            ("--grid-m", "-3", "--grid-m needs at least 2 nodes per time step"),
        ],
    )
    def test_oracle_sizes_below_the_oracle_floors_are_parse_errors(
        self, tmp_path, capsys, monkeypatch, option, value, message
    ):
        # refused before any check runs, not an invariant violation after the pair checks
        monkeypatch.setattr(verify, "_pair_checks", lambda *args: pytest.fail("a check ran"))
        for source in (["--random", "2"], [_write(tmp_path, REFLECTED)]):
            assert main(["verify", *source, "--level", "full", option, value]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err


# a covariance-built 3-d problem
THREE_D = {
    "mu": {"mean": [0.0, 1.0, -1.0], "cov": [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]},
    "nu": {"mean": [1.0, 0.0, 0.5], "cov": [[1.0, -0.5, 0.2], [-0.5, 2.0, 0.3], [0.2, 0.3, 1.5]]},
}


class TestOneGatePerLaw:
    @pytest.mark.parametrize("command", [["dist"], ["coupling"], ["verify", "--level", "full"]])
    def test_cached_factors_skip_the_factor_gate(self, tmp_path, capsys, monkeypatch, command):
        calls = []
        gate = couplings.as_cholesky_factor

        def counting(*args, **kwargs):
            calls.append(1)
            return gate(*args, **kwargs)

        monkeypatch.setattr(couplings, "as_cholesky_factor", counting)
        code, _ = _run(capsys, [command[0], _write(tmp_path, THREE_D), *command[1:]])
        assert code == 0
        assert calls == []
        # the counter is live: the public sign rule gates both factors
        mu = GaussianSpec(THREE_D["mu"]["mean"], THREE_D["mu"]["cov"])
        couplings.optimal_sign(mu.chol, mu.chol)
        assert len(calls) == 2


class TestIllConditionedLaw:
    @pytest.mark.parametrize(
        "command, options",
        [
            ("coupling", ["--map", "w"]),
            ("geodesic", ["--kind", "w", "--t", "0.5"]),
            ("verify", ["--level", "fast"]),
        ],
    )
    def test_wasserstein_geometry_runs(self, tmp_path, capsys, command, options):
        path = _write(tmp_path, ILL_CONDITIONED)
        code, doc = _run(capsys, [command, path, *options])
        assert code == 0
        if command == "coupling":
            np.testing.assert_allclose(doc["map"]["matrix"], np.eye(2), rtol=0, atol=1e-12)
        if command == "verify":
            assert doc["passed"] is True


class TestExitCodes:
    def test_asymmetric_covariance_is_invariant_violation(self, tmp_path, capsys):
        bad = {
            "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 2.0], [1.9, 5.0]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        }
        path = _write(tmp_path, bad)
        code = main(["dist", path])
        err = capsys.readouterr().err
        assert code == 3
        assert "NotSymmetric" in err

    def test_indefinite_covariance(self, tmp_path, capsys):
        bad = {
            "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 1.0]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        }
        path = _write(tmp_path, bad)
        code = main(["dist", path])
        assert code == 3
        assert "NotPositiveDefinite" in capsys.readouterr().err

    def test_invalid_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("this is not json")
        assert main(["dist", str(path)]) == 2

    @pytest.mark.parametrize(
        "command", [["dist"], ["coupling"], ["geodesic", "--t", "0.5"], ["verify"], ["figure"]]
    )
    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_unreadable_problem_file_is_parse_error(self, tmp_path, capsys, command, case):
        path = tmp_path / "problem.json"
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(b'{"mu": "\xff"}')
        code = main([command[0], str(path), *command[1:]])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"parse error: {path}: ")

    @pytest.mark.parametrize("to_file", [False, True])
    def test_overflowing_result_is_invariant_violation(self, tmp_path, to_file):
        # finite inputs whose distances overflow: JSON has no Infinity; a
        # subprocess, since the overflow warns and the suite makes warnings errors
        doc = {"mu": {"mean": [1e200, 0.0], "cov": np.eye(2).tolist()}, "nu": REFLECTED["nu"]}
        out = tmp_path / "out.json"
        argv = ["--output", str(out)] if to_file else []
        proc = subprocess.run(
            [sys.executable, "-m", "awgauss.cli", *argv, "dist", _write(tmp_path, doc)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert not out.exists()
        assert "invariant violation (NonFiniteValue): dist " in proc.stderr
        assert "problem.json: a result is not finite" in proc.stderr

    def test_missing_field_is_parse_error(self, tmp_path, capsys):
        path = _write(tmp_path, {"mu": {"mean": [0.0], "cov": [[1.0]]}})
        assert main(["dist", path]) == 2

    def test_ragged_matrix_is_parse_error(self, tmp_path, capsys):
        bad = {
            "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        }
        path = _write(tmp_path, bad)
        assert main(["dist", path]) == 2


class TestDemoIncompleteness:
    def test_distinct_angles(self, capsys):
        code, doc = _run(
            capsys,
            [
                "demo-incompleteness",
                "--theta", str(math.pi / 2),
                "--theta-prime", str(math.pi / 4),
                "--n-list", "10,100,1000",
            ],
        )
        assert code == 0
        assert doc["limit"] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
        by_n = {row["n"]: row["aw2_squared"] for row in doc["rows"]}
        assert by_n[1000] == pytest.approx(doc["limit"], abs=0.01)
        assert all(entry["within_bound"] for entry in doc["cauchy"])

    def test_equal_angles_vanish(self, capsys):
        code, doc = _run(
            capsys,
            [
                "demo-incompleteness",
                "--theta", str(math.pi / 4),
                "--theta-prime", str(math.pi / 4),
            ],
        )
        assert code == 0
        assert all(row["aw2_squared"] <= 1e-12 for row in doc["rows"])

    def test_member_below_the_pivot_gate_is_invariant_violation(self, capsys):
        # at n = 1e7 the factor's first pivot 1e-14 is below 1e-12 * max diag
        code = main(["demo-incompleteness", "--theta", "1", "--theta-prime", "0.5", "--n-list", "10000000"])
        assert code == 3
        assert "NotPositiveDefinite" in capsys.readouterr().err

    def test_angle_validation(self, capsys):
        code = main(["demo-incompleteness", "--theta", "0", "--theta-prime", "1"])
        assert code == 3

    @pytest.mark.parametrize("n_list", ["", ",", " , "])
    def test_empty_n_list_is_parse_error(self, capsys, n_list):
        with pytest.raises(SystemExit) as exc:
            main(["demo-incompleteness", "--theta", "1", "--theta-prime", "0.5", "--n-list", n_list])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected at least one integer" in captured.err


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestFigure:
    def test_transport_figure_semantics(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        out = tmp_path / "transport.svg"
        code, doc = _run(
            capsys, ["--output", str(out), "figure", path, "--kind", "contour_transport", "--map", "aw"]
        )
        assert code == 0
        assert out.exists()
        rows = _read_rows(tmp_path / "transport.csv")
        arrows = {
            r["label"]: (
                float(r["v2"]) - float(r["v0"]),
                float(r["v3"]) - float(r["v1"]),
            )
            for r in rows
            if r["record"] == "arrow_image"
        }
        # the adapted map reflects the first coordinate and keeps the second
        assert arrows["e1"][0] < 0.0
        assert abs(arrows["e1"][1]) <= 1e-9
        assert arrows["e2"][1] > 0.0
        assert abs(arrows["e2"][0]) <= 1e-9
        assert "<svg" in out.read_text()

    def test_identity_pair_ellipses_coincide(self, tmp_path, capsys):
        path = _write(tmp_path, IDENTICAL)
        out = tmp_path / "same.svg"
        code, _ = _run(capsys, ["--output", str(out), "figure", path, "--map", "kr"])
        assert code == 0
        rows = _read_rows(tmp_path / "same.csv")
        ellipses = {r["label"]: r for r in rows if r["record"] == "ellipse"}
        for level in ("1sigma", "2sigma"):
            src = ellipses[f"source_{level}"]
            tgt = ellipses[f"target_{level}"]
            for key in ("v0", "v1", "v2", "v3", "v4", "v5"):
                assert float(src[key]) == pytest.approx(float(tgt[key]), abs=1e-12)

    def test_filmstrip_adapted_midpoint_collapses(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        out = tmp_path / "strip.svg"
        code, _ = _run(
            capsys,
            ["--output", str(out), "figure", path, "--kind", "interpolation_filmstrip", "--frames", "5"],
        )
        assert code == 0
        rows = _read_rows(tmp_path / "strip.csv")
        adapted_mid = [
            r
            for r in rows
            if r["record"] == "frame" and r["label"] == "adapted" and float(r["v0"]) == 0.5
        ]
        assert len(adapted_mid) == 1
        row = adapted_mid[0]
        assert row["flag"] == "degenerate"
        assert float(row["v3"]) == pytest.approx(0.0, abs=1e-12)  # cov_xx
        assert float(row["v5"]) == pytest.approx(5.0, abs=1e-12)  # cov_yy

    def test_nonplanar_input_rejected(self, tmp_path, capsys):
        doc = {
            "mu": {"mean": [0.0, 0.0, 0.0], "cov": np.eye(3).tolist()},
            "nu": {"mean": [0.0, 0.0, 0.0], "cov": np.eye(3).tolist()},
        }
        path = _write(tmp_path, doc)
        assert main(["figure", path]) == 3


class TestDeterminismAndFormats:
    def test_dist_byte_identical(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--output", str(out1), "dist", path]) == 0
        assert main(["--output", str(out2), "dist", path]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--seed", "5", "--output", str(out1), "verify", "--random", "3"]) == 0
        assert main(["--seed", "5", "--output", str(out2), "verify", "--random", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_human_format(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        code = main(["--format", "human", "dist", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "aw2: 2" in out
        assert "kr2: 4" in out

    def test_console_entry_point(self, tmp_path):
        path = _write(tmp_path, REFLECTED)
        proc = subprocess.run(
            [sys.executable, "-m", "awgauss.cli", "dist", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["aw2"] == pytest.approx(2.0)


GOLDEN = Path(__file__).parent / "golden"


class TestHumanFormatBytes:
    """``--format human`` documents with nested lists and dicts, pinned byte for
    byte against stored copies (output paths the document echoes read ``<tmp>``).

    The problems are chosen so every printed value is exact or far from a
    4-digit rounding boundary."""

    def _human(self, capsys, tmp_path, argv):
        code = main(["--format", "human", *argv])
        assert code in (0, 1)
        return capsys.readouterr().out.replace(str(tmp_path), "<tmp>")

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("dist", ["dist", "{problem}"]),
            ("coupling", ["coupling", "{problem}", "--map", "aw"]),
            ("geodesic", ["geodesic", "{problem}", "--frames", "3", "--figure", "{tmp}/strip.svg"]),
            (
                "demo_incompleteness",
                ["demo-incompleteness", "--theta", "1", "--theta-prime", "0.5", "--n-list", "10,100,1000"],
            ),
        ],
    )
    def test_document_bytes(self, tmp_path, capsys, name, argv):
        path = _write(tmp_path, REFLECTED)
        argv = [a.format(problem=path, tmp=tmp_path) for a in argv]
        expected = (GOLDEN / f"{name}.txt").read_text()
        assert self._human(capsys, tmp_path, argv) == expected

    def test_verify_checks_and_failures_bytes(self, tmp_path, capsys, monkeypatch):
        # the residuals of a real run are rounding noise that differs across
        # LAPACK builds, so the suite's results are fixed here
        results = [
            verify.CheckResult("ordering_w2_le_aw2", 0, True, -0.9442719099991597, 1.2e-12),
            verify.CheckResult("abw_symmetry", 0, True, 0.0, 3.4641016151377546e-13),
            verify.CheckResult("oracle_dpp_agreement", 0, False, 2.1802539386497453, 0.25, "m=2"),
            verify.CheckResult("abw_triangle_inequality", -1, True, 2.220446049250313e-16, 1e-09),
        ]
        monkeypatch.setattr(verify, "run_verification", lambda pairs, **kwargs: results)
        out = self._human(capsys, tmp_path, ["verify", _write(tmp_path, REFLECTED), "--level", "full"])
        assert out == (GOLDEN / "verify.txt").read_text()


class TestListOptions:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["coupling", "{problem}", "--rho", "1,a"], "argument --rho: expected comma-separated numbers: '1,a'"),
            (
                ["demo-incompleteness", "--theta", "1", "--theta-prime", "0.5", "--n-list", "10,x"],
                "argument --n-list: expected comma-separated integers: '10,x'",
            ),
            (
                ["demo-incompleteness", "--theta", "1", "--theta-prime", "0.5", "--n-list", "10,2.5"],
                "argument --n-list: expected comma-separated integers: '10,2.5'",
            ),
        ],
    )
    def test_non_numeric_entry_is_usage_error(self, tmp_path, capsys, argv, message):
        path = _write(tmp_path, REFLECTED)
        with pytest.raises(SystemExit) as exc:
            main([a.format(problem=path) for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


    def test_leading_minus_takes_the_equals_form(self, tmp_path, capsys):
        path = _write(tmp_path, REFLECTED)
        code, doc = _run(capsys, ["coupling", path, "--rho=-1,1"])
        assert code == 0
        assert doc["rho_used"] == [-1.0, 1.0]
        assert doc["cost"] == pytest.approx(4.0, abs=1e-12)
        # written apart, argparse reads "-1,1" as an option string; the help says so
        with pytest.raises(SystemExit) as exc:
            main(["coupling", path, "--rho", "-1,1"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["coupling", "--help"])
        assert "--rho=-1,1" in " ".join(capsys.readouterr().out.split())


class TestProblemFileRho:
    def test_file_rho_is_used_without_the_option(self, tmp_path, capsys):
        path = _write(tmp_path, {**REFLECTED, "rho": [1, 1]})
        code, doc = _run(capsys, ["coupling", path])
        assert code == 0
        assert doc["rho_used"] == [1.0, 1.0]
        assert doc["cost"] == pytest.approx(16.0, abs=1e-12)  # synchronous, not the sign rule's 4
        assert doc["sign"]["rho"] == [-1.0, 1.0]

    def test_option_overrides_the_file(self, tmp_path, capsys):
        path = _write(tmp_path, {**REFLECTED, "rho": [1, 1]})
        # "--rho -1,1" would read "-1,1" as an option string
        code, doc = _run(capsys, ["coupling", path, "--rho=-1,1"])
        assert code == 0
        assert doc["rho_used"] == [-1.0, 1.0]
        assert doc["cost"] == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize(
        "command",
        [["dist"], ["coupling"], ["geodesic", "--t", "0.5"], ["verify"], ["figure"]],
    )
    def test_wrong_length_is_dimension_mismatch(self, tmp_path, capsys, command):
        path = _write(tmp_path, {**REFLECTED, "rho": [1, 1, 1]})
        assert main(["--output", str(tmp_path / "out.svg"), command[0], path, *command[1:]]) == 3
        err = capsys.readouterr().err
        assert "invariant violation (DimensionMismatch): rho has length 3, expected 2" in err
        assert not (tmp_path / "out.svg").exists()

    @pytest.mark.parametrize("rho", [["a", 1], [[1, 1]]])
    def test_malformed_rho_is_parse_error(self, tmp_path, capsys, rho):
        path = _write(tmp_path, {**REFLECTED, "rho": rho})
        assert main(["coupling", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "parse error: rho: expected" in captured.err
