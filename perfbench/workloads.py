"""The workloads and the CLI probe: seeded inputs, ops and correctness checks.

An op is one closed-loop request from a single client; the next op starts when
the previous one has returned.  Inputs come only from the seed; the library
receives only the generated arrays and problem files.  Every op is checked
against the benchmark's own reference (``reference.py``), never against
another output of the library.

Why each workload, and which layer it stresses or bypasses:

* ``pairwise_small`` -- many small dense problems per process: each law is
  reused in K-1 pairs, so interpreter overhead and the re-validation and
  re-factorization in ``linalg``/``distances`` dominate, and any spec-level
  cache pays off here.
* ``single_large`` -- fresh laws at N = 64..256 in every op, so LAPACK
  (``cholesky``, ``eigh``/``eigvalsh``) dominates and nothing is reused: L2
  eigendecomposition cuts show here, caching across pairs cannot help, and a
  gain bought with per-law set-up shows as a loss.
* ``verify_full`` -- the full check suite at the CLI defaults, so the oracles
  (L3) and ``verify`` (L4) do most of the work and import is excluded; at
  ``grid_m=100`` the discrete oracle silently skips N=3, which the traced run
  shows as ``oracle.dpp_solve_discrete.calls_per_op`` = 0.5.
* ``cli_commands`` (one ``python -m awgauss.cli`` child per op) is not a
  workload: a p90 needs 100 children of about half a second each, which the
  benchmark's time budget cannot repeat for every run.  Process start and
  import show in ``setup_s`` of every workload instead, and traced runs
  measure the CLI layer in-process (``CliProbe``: ``cli.main``,
  ``problems.load_problem``) and ``-X importtime``.

``figures`` is not measured: no workload the roadmap targets touches it, and
its SVG/CSV output is file I/O rather than transport numerics.
"""

from __future__ import annotations

import io
import itertools
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import awgauss as ag
from reference import (
    CheckFailed,
    Law,
    adapted_matrix,
    aw2_sq,
    expect,
    expect_close,
    expect_close_array,
    factor_diag,
    kr2_sq,
    weighted_value,
)


def random_law(rng, n: int) -> Law:
    """Well-conditioned law: covariance ``G G^T / n + I/2``."""
    G = rng.standard_normal((n, n))
    cov = G @ G.T / n + 0.5 * np.eye(n)
    return Law.from_cov(rng.standard_normal(n), (cov + cov.T) / 2.0)


def tie_factors(rng, n: int):
    """Integer Cholesky factors ``L, M`` with ``diag(L^T M)_t = 0`` exactly.

    Diagonals are 1 or 2 and off-diagonals small integers, so ``L L^T`` is an
    integer matrix whose floating-point Cholesky factor is ``L`` itself and the
    tie survives refactorization bit for bit.
    """
    t = int(rng.integers(0, n - 1))  # never the last time: diag_N = L_NN M_NN > 0

    def factor():
        F = np.tril(rng.integers(-2, 3, (n, n)).astype(float), -1)
        F[np.diag_indices(n)] = rng.choice([1.0, 2.0], n)
        return F

    L, M = factor(), factor()
    L[t + 1, t] = 1.0
    M[t + 1, t] = 0.0
    M[t + 1, t] = -float(L[:, t] @ M[:, t])
    for F in (L, M):
        if not np.array_equal(np.linalg.cholesky(F @ F.T), F):
            raise RuntimeError("tie factor does not survive refactorization exactly")
    if float(L[:, t] @ M[:, t]) != 0.0:
        raise RuntimeError("tie construction is not exact")
    return L, M, t


def pair_op(mu, nu, w) -> dict:
    """The closed-form set shared by ``pairwise_small`` and ``single_large``."""
    sign = ag.optimal_sign(mu.chol, nu.chol)
    return {
        "aw2": ag.aw2(mu, nu),
        "kr2": ag.kr2(mu, nu),
        "w2": ag.wasserstein2(mu, nu),
        "weighted": ag.weighted_bicausal_value(mu, nu, w),
        "sign": sign,
        "aw_map": ag.aw_map(mu, nu),
        "cost": ag.coupling_cost(mu, nu, sign.rho),
        "geodesic": ag.geodesic_point(mu, nu, 0.5, "adapted"),
    }


def pair_reference(x: Law, y: Law, w) -> dict:
    """Reference values for one pair, computed once and reused on every visit."""
    d = factor_diag(x, y)
    scale = float(np.linalg.norm(x.chol) * np.linalg.norm(y.chol))
    # sign rule with the documented convention: free directions take +1
    rho = np.where((d < 0.0) & (np.abs(d) > 1e-12 * scale), -1.0, 1.0)
    Tt = 0.5 * (np.eye(x.mean.shape[0]) + adapted_matrix(x, y, rho))
    return {
        "aw2_sq": aw2_sq(x, y),
        "kr2_sq": kr2_sq(x, y),
        "weighted": weighted_value(x, y, w),
        "firm": np.abs(d) > 1e-9 * scale,
        "rho": rho,
        "geodesic_mean": 0.5 * (x.mean + y.mean),
        "geodesic_cov": Tt @ x.cov @ Tt.T,
    }


def check_pair(ref: dict, y: Law, tie, mu, out: dict):
    """Check ``pair_op`` output against ``pair_reference`` of ``(x, y)``, ``x -> mu``."""
    expect_close("aw2^2 vs trace form", out["aw2"].squared_value, ref["aw2_sq"], 1e-9)
    expect_close("kr2^2", out["kr2"].squared_value, ref["kr2_sq"], 1e-9)
    w2, aw, kr = out["w2"].value, out["aw2"].value, out["kr2"].value
    slack = 1e-9 * (1.0 + kr)
    expect(f"ordering w2 <= aw2 <= kr2 ({w2!r}, {aw!r}, {kr!r})", w2 <= aw + slack and aw <= kr + slack)
    expect_close("weighted_bicausal_value", out["weighted"], ref["weighted"], 1e-9)

    sign = out["sign"]
    firm = ref["firm"]
    expect("optimal_sign signs", np.array_equal(sign.rho[firm], ref["rho"][firm]))
    if tie is not None:
        expect(f"exact tie at t={tie + 1} reported free", (tie + 1) in sign.free_indices)
    expect_close("coupling_cost(sign.rho) vs aw2^2", out["cost"], ref["aw2_sq"], 1e-9)

    pushed = out["aw_map"].map.push(mu)
    expect_close_array("aw_map push mean", pushed.mean, y.mean, 1e-8)
    expect_close_array("aw_map push cov", pushed.cov, y.cov, 1e-8)

    geo = out["geodesic"]
    expect_close_array("geodesic mean", geo.mean, ref["geodesic_mean"], 1e-12)
    expect_close_array("geodesic cov", geo.cov, ref["geodesic_cov"], 1e-8)


class Workload:
    """Base: seeded set-up in ``__init__``, then ``items``/``op``/``check``."""

    name = ""
    #: untimed ops before the timed window, so lazy set-up and caches settle
    warmup_ops = 2
    #: length of the cycle ``items`` repeats: any run of that many ops meets each input once
    cycle = 1

    def items(self):
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def check(self, item, out):
        raise NotImplementedError

    def report(self) -> dict:
        """Workload-specific figures: check counts and the oracle gap."""
        return {}


class PairwiseSmall(Workload):
    """K seeded laws per N in {2, 3, 4, 8}, built once; an op is one pair i<j."""

    name = "pairwise_small"
    DIMS = (2, 3, 4, 8)
    LAWS_PER_DIM = 16
    TIE_COUPLES = 4  # per dimension: 16 of the 480 pairs are exact ties

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.laws: list[Law] = []
        self.pairs = []  # (i, j, weights, tie time or None)
        for n in self.DIMS:
            base = len(self.laws)
            ties = {}
            for _ in range(self.TIE_COUPLES):
                L, M, t = tie_factors(rng, n)
                i = len(self.laws)
                ties[(i, i + 1)] = t
                self.laws += [Law.from_factor(rng.standard_normal(n), F) for F in (L, M)]
            while len(self.laws) < base + self.LAWS_PER_DIM:
                self.laws.append(random_law(rng, n))
            for i, j in itertools.combinations(range(base, len(self.laws)), 2):
                self.pairs.append((i, j, rng.uniform(0.5, 2.0, n), ties.get((i, j))))
        self.pairs = [self.pairs[k] for k in rng.permutation(len(self.pairs))]
        self.specs = [ag.GaussianSpec(law.mean, law.cov) for law in self.laws]
        self.refs: dict = {}
        self.warmup_ops = self.cycle = len(self.pairs)  # one pass fills every law's cached factor

    def items(self):
        return itertools.cycle(self.pairs)

    def op(self, item):
        i, j, w, _ = item
        return pair_op(self.specs[i], self.specs[j], w)

    def check(self, item, out):
        i, j, w, tie = item
        if (i, j) not in self.refs:
            self.refs[(i, j)] = pair_reference(self.laws[i], self.laws[j], w)
        check_pair(self.refs[(i, j)], self.laws[j], tie, self.specs[i], out)


class SingleLarge(Workload):
    """Fresh laws at N in {64, 128, 256} built inside every op, half from factors."""

    name = "single_large"
    DIMS = (64, 128, 256)
    PAIRS_PER_DIM = 4
    warmup_ops = 3
    cycle = len(DIMS) * PAIRS_PER_DIM * 2

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.pool = {
            n: [(random_law(rng, n), random_law(rng, n), rng.uniform(0.5, 2.0, n))
                for _ in range(self.PAIRS_PER_DIM)]
            for n in self.DIMS
        }
        self.refs: dict = {}

    def items(self):
        dims, per = len(self.DIMS), self.PAIRS_PER_DIM
        for k in itertools.count():
            yield self.DIMS[k % dims], (k // dims) % per, (k // (dims * per)) % 2

    def op(self, item):
        n, p, side = item
        x, y, w = self.pool[n][p]
        if side == 0:
            mu = ag.GaussianSpec(x.mean, x.cov)
            nu = ag.GaussianSpec.from_cholesky(y.mean, y.chol)
        else:
            mu = ag.GaussianSpec.from_cholesky(x.mean, x.chol)
            nu = ag.GaussianSpec(y.mean, y.cov)
        out = pair_op(mu, nu, w)
        out["brenier"] = ag.brenier_map(mu, nu)
        out["pi_p"] = ag.coupling_pi_p(mu, nu, out["sign"].rho)
        out["mu"] = mu
        return out

    def check(self, item, out):
        n, p, _ = item
        x, y, w = self.pool[n][p]
        if (n, p) not in self.refs:
            self.refs[(n, p)] = pair_reference(x, y, w)
        check_pair(self.refs[(n, p)], y, None, out["mu"], out)
        brenier = out["brenier"].matrix
        expect("brenier_map matrix symmetric", np.array_equal(brenier, brenier.T))
        pushed = out["brenier"].push(out["mu"])
        expect_close_array("brenier_map push mean", pushed.mean, y.mean, 1e-8)
        expect_close_array("brenier_map push cov", pushed.cov, y.cov, 1e-8)
        joint = out["pi_p"].cov
        expect_close_array("coupling_pi_p X block", joint[:n, :n], x.cov, 1e-12)
        expect_close_array("coupling_pi_p Y block", joint[n:, n:], y.cov, 1e-12)
        cross = (x.chol * out["sign"].rho[None, :]) @ y.chol.T
        expect_close_array("coupling_pi_p cross block", joint[:n, n:], cross, 1e-10)


class VerifyFull(Workload):
    """``verify.run_verification([pair], level="full")`` at the CLI defaults.

    The pool pairs and their verification seeds are fixed by the workload
    seed, so each op's pass/fail is deterministic.  The three Monte Carlo
    checks hold at four standard errors, so a seed whose pool draws a
    statistical false alarm (about 2e-4 per op) fails every run with it.
    """

    name = "verify_full"
    POOL = 8  # pairs, alternating N=2 and N=3
    cycle = POOL
    GRID_M = 100  # CLI default of --grid-m
    MC_SAMPLES = 100_000  # CLI default of --mc-samples

    def __init__(self, seed: int):
        from awgauss import verify

        self.verify = verify
        rng = np.random.default_rng([seed, 3])
        self.pool = []
        for k in range(self.POOL):
            n = 2 + k % 2
            x, y = random_law(rng, n), random_law(rng, n)
            specs = (ag.GaussianSpec(x.mean, x.cov), ag.GaussianSpec(y.mean, y.cov))
            self.pool.append((x, y, specs, int(rng.integers(2**31))))
        self.checks_by_dim: dict[int, int] = {}
        self.oracle_gap_max = 0.0

    def items(self):
        return itertools.cycle(self.pool)

    def op(self, item):
        _, _, pair, vseed = item
        return self.verify.run_verification(
            [pair], level="full", seed=vseed, grid_m=self.GRID_M, mc_samples=self.MC_SAMPLES
        )

    def check(self, item, out):
        x, y, _, _ = item
        failing = [r.name for r in out if not r.passed]
        expect(f"verify checks failed: {failing}", not failing)
        self.checks_by_dim[x.mean.shape[0]] = len(out)
        scale = 1.0 + aw2_sq(x, y)
        for r in out:
            if r.name == "oracle_dpp_agreement":
                self.oracle_gap_max = max(self.oracle_gap_max, r.observed / scale)

    def report(self) -> dict:
        return {
            "verify.checks_per_op_n2": float(self.checks_by_dim.get(2, 0)),
            "verify.checks_per_op_n3": float(self.checks_by_dim.get(3, 0)),
            "oracle_gap_max": self.oracle_gap_max,
        }


class CliProbe:
    """In-process ``cli.main(argv)`` over the ``cli_commands`` mix, stdout captured.

    Seeded problem files at N in {2, 3, 8}; an op is one command, round-robin
    over ``dist``, ``coupling --map aw``, ``geodesic --kind aw --t 0.5`` and
    ``verify --level fast``.  Traced runs of every workload use it to measure
    ``cli.main`` and ``problems.load_problem``.
    """

    COMMANDS = (
        ("dist",),
        ("coupling", "--map", "aw"),
        ("geodesic", "--kind", "aw", "--t", "0.5"),
        ("verify", "--level", "fast"),
    )
    DIMS = (2, 3, 8)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        self.tmp = tempfile.TemporaryDirectory(prefix="cli-probe-", dir=workdir)
        self.problems = []  # (path, x, y)
        for n in self.DIMS:
            x, y = random_law(rng, n), random_law(rng, n)
            path = Path(self.tmp.name) / f"problem-n{n}.json"
            doc = {law: {"mean": v.mean.tolist(), "cov": v.cov.tolist()} for law, v in (("mu", x), ("nu", y))}
            path.write_text(json.dumps(doc))
            self.problems.append((path, x, y))
        self.in_process_aw2: dict[int, float] = {}

    def items(self):
        commands, files = len(self.COMMANDS), len(self.problems)
        for k in itertools.count():
            yield self.COMMANDS[k % commands], k % files

    def op(self, item):
        from awgauss import cli

        cmd, f = item
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main([*cmd, str(self.problems[f][0])])
        return code, buf.getvalue()

    def check(self, item, out):
        cmd, f = item
        code, text = out
        expect(f"{' '.join(cmd)} exited {code}", code == 0)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{' '.join(cmd)}: output is not JSON: {exc}") from exc
        path, x, y = self.problems[f]
        ref = aw2_sq(x, y)
        if cmd[0] == "dist":
            if f not in self.in_process_aw2:
                problem = ag.load_problem(path)
                self.in_process_aw2[f] = ag.aw2(problem.mu, problem.nu).value
            expect_close("dist aw2 vs in-process aw2", doc["aw2"], self.in_process_aw2[f], 1e-12)
            expect_close("dist aw2^2 vs trace form", doc["aw2"] ** 2, ref, 1e-9)
        elif cmd[0] == "coupling":
            expect("coupling map kind", doc["map"]["kind"] == "adapted_wasserstein")
            expect_close("coupling cost vs aw2^2", doc["cost"], ref, 1e-9)
        elif cmd[0] == "geodesic":
            expect_close_array("geodesic midpoint mean", doc["points"][0]["mean"], 0.5 * (x.mean + y.mean), 1e-12)
        else:
            expect(f"verify fast failures: {doc.get('failures')}", doc["passed"] is True)

    def close(self):
        self.tmp.cleanup()


WORKLOADS = {cls.name: cls for cls in (PairwiseSmall, SingleLarge, VerifyFull)}
