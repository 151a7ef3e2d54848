"""The package surface: lazily loaded oracle names, and scipy off every path but the oracles'."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import ModuleType

import pytest

import awgauss
import awgauss.oracle

ORACLE_NAMES = [
    "MonteCarloEstimate",
    "RecursionCheckReport",
    "RhoGridResult",
    "ValueFunctionEval",
    "dpp_recursion_check",
    "dpp_solve_discrete",
    "monte_carlo_cost",
    "rho_grid_search",
    "value_function",
]


def test_all_lists_the_public_names_once():
    names = awgauss.__all__
    assert names == sorted(set(names))
    assert not [name for name in names if name.startswith("_")]
    assert set(ORACLE_NAMES) <= set(names)
    assert not [name for name in names if isinstance(vars(awgauss).get(name), ModuleType)]
    public = {
        name for name, value in vars(awgauss).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(names) == public | set(ORACLE_NAMES)


def _unused_private_imports(path: Path) -> list[str]:
    """``_``-prefixed names that the module at ``path`` imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name.startswith("_") and name not in read)


@pytest.mark.parametrize(
    "path", sorted(Path(awgauss.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_no_private_import_goes_unused(path):
    # a helper moved to another module leaves its old imports behind
    assert _unused_private_imports(path) == []


@pytest.mark.parametrize("name", awgauss.__all__)
def test_every_public_name_resolves(name):
    assert getattr(awgauss, name) is not None


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from awgauss import *", namespace)
    assert set(awgauss.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(awgauss, name) for name in awgauss.__all__)


def test_dir_lists_the_oracle_names():
    listing = dir(awgauss)
    assert set(ORACLE_NAMES) <= set(listing)
    assert set(awgauss.__all__) <= set(listing)
    assert listing == sorted(listing)


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'awgauss' has no attribute 'no_such_name'$"):
        awgauss.no_such_name  # noqa: B018


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_oracle_names_are_the_oracle_module_objects(name):
    assert name in awgauss.__all__
    assert getattr(awgauss, name) is getattr(awgauss.oracle, name)


def test_from_import_of_an_oracle_name():
    from awgauss import dpp_solve_discrete

    assert dpp_solve_discrete is awgauss.oracle.dpp_solve_discrete


_GUARD = textwrap.dedent(
    """
    import contextlib, io, json, sys

    import awgauss
    from awgauss import cli

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    problem, figure = sys.argv[1], sys.argv[2]
    loaded = awgauss.load_problem(problem)
    mu, nu = loaded.mu, loaded.nu
    awgauss.aw2(mu, nu), awgauss.kr2(mu, nu), awgauss.wasserstein2(mu, nu)
    awgauss.optimal_sign(mu.chol, nu.chol), awgauss.aw_map(mu, nu)
    for kind in awgauss.GEODESIC_KINDS:
        awgauss.geodesic_point(mu, nu, 0.5, kind)
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["dist", problem],
            ["coupling", problem],
            ["geodesic", problem, "--frames", "3"],
            ["figure", problem, "--output", figure],
            ["demo-incompleteness", "--theta", "0.3", "--theta-prime", "0.7"],
        ):
            codes[argv[0]] = cli.main(argv)
        # the fast level runs no oracle, so it needs no oracle floor either
        codes["verify-fast"] = cli.main(["verify", "--level", "fast", problem])
        before = scipy_modules()
        codes["verify"] = cli.main(["verify", "--level", "full", problem])
    print(json.dumps({"codes": codes, "before": before, "after": len(scipy_modules())}))
    """
)


def test_closed_form_commands_never_load_scipy(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "mu": {"mean": [0.0, 1.0], "cov": [[1.0, 2.0], [2.0, 5.0]]},
        "nu": {"mean": [1.0, 0.0], "cov": [[1.0, -2.0], [-2.0, 5.0]]},
    }))
    # run the package under test, wherever this process imported it from
    env = dict(os.environ, PYTHONPATH=str(Path(awgauss.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD, str(problem), str(tmp_path / "figure.svg")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["before"] == []
    assert report["codes"] == {
        "dist": 0, "coupling": 0, "geodesic": 0, "figure": 0, "demo-incompleteness": 0,
        "verify-fast": 0, "verify": 0,
    }
    # verify runs the oracles, which do load scipy
    assert report["after"] > 0
