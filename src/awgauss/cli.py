"""Command-line interface.

Subcommands: ``dist``, ``coupling``, ``geodesic``, ``verify``,
``demo-incompleteness``, ``figure``.  Problems are JSON files (see
``problems``); results are JSON documents (full precision, reusable as
problem inputs) or human-readable summaries (4 significant digits).

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 invariant violation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import figures, geodesics, verify
from .couplings import _sign_selection, coupling_cost, coupling_pi_p
from .distances import aw2, incompleteness_limit, incompleteness_member, kr2, wasserstein2
from .errors import AwGaussError
from .problems import ProblemFormatError, load_problem, problem_echo

_W, _KR, _AW = geodesics.WASSERSTEIN, geodesics.KNOTHE_ROSENBLATT, geodesics.ADAPTED
_MAP_ALIASES = {
    "w": _W, "wasserstein": _W, "brenier": _W,
    "kr": _KR, "knothe-rosenblatt": _KR, "knothe_rosenblatt": _KR,
    "aw": _AW, "adapted": _AW, "adapted-wasserstein": _AW,
}


def _map_kind(value: str) -> str:
    key = value.strip().lower()
    if key not in _MAP_ALIASES:
        raise argparse.ArgumentTypeError(f"unknown map/kind {value!r}")
    return _MAP_ALIASES[key]


def _float_list(value: str) -> list[float]:
    try:
        return [float(part) for part in value.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {value!r}") from exc


def _int_list(value: str) -> list[int]:
    try:
        return [int(part) for part in value.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {value!r}") from exc


def _add_global_flags(parser, *, suppress: bool):
    # the same flags are accepted before and after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber values already
    # parsed by the main parser
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--seed", type=int, default=default(0), help="seed for any randomized step"
    )
    parser.add_argument(
        "--tolerance-scale", type=float, default=default(1.0),
        help="multiply all verification tolerances by this factor",
    )
    parser.add_argument(
        "--output", type=Path, default=default(None),
        help="destination file (result document; for 'figure', the SVG path)",
    )
    parser.add_argument("--format", choices=("json", "human"), default=default("json"))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="awgauss",
        description="Adapted optimal transport between Gaussian laws: distances, "
        "couplings, geodesics, and verification against independent oracles.",
    )
    _add_global_flags(p, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)

    sub = p.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", parents=[common], help="all closed-form distances for a problem")
    dist.add_argument("problem", type=Path)

    coup = sub.add_parser("coupling", parents=[common], help="transport map, joint law, and cost")
    coup.add_argument("problem", type=Path)
    coup.add_argument("--map", type=_map_kind, default="aw", help="w | kr | aw")
    coup.add_argument(
        "--rho", type=_float_list, default=None,
        help="comma-separated correlations; default: the optimal sign rule",
    )

    geo = sub.add_parser("geodesic", parents=[common], help="interpolation curve points")
    geo.add_argument("problem", type=Path)
    geo.add_argument("--kind", type=_map_kind, default="aw", help="w | kr | aw")
    group = geo.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=float, default=None)
    group.add_argument("--frames", type=int, default=None)
    geo.add_argument("--figure", type=Path, default=None, help="also write a filmstrip SVG")

    ver = sub.add_parser("verify", parents=[common], help="run the invariant/oracle check suite")
    ver.add_argument("problem", type=Path, nargs="?", default=None)
    ver.add_argument("--random", type=int, default=None, metavar="N",
                     help="verify N seeded random pairs instead of a problem file")
    ver.add_argument("--dim", type=int, default=2, help="dimension for --random pairs")
    ver.add_argument("--level", choices=verify.LEVELS, default=verify.FAST)
    ver.add_argument("--grid-m", type=int, default=100, help="oracle grid resolution")
    ver.add_argument("--mc-samples", type=int, default=100_000)

    demo = sub.add_parser(
        "demo-incompleteness",
        parents=[common],
        help="table showing the adapted metric is incomplete on Gaussian laws",
    )
    demo.add_argument("--theta", type=float, required=True)
    demo.add_argument("--theta-prime", type=float, required=True)
    demo.add_argument("--n-list", type=_int_list, default=[10, 100, 1000])

    fig = sub.add_parser("figure", parents=[common], help="write an SVG figure plus CSV data sidecar")
    fig.add_argument("problem", type=Path)
    fig.add_argument("--kind", choices=figures.FIGURE_KINDS, default=figures.CONTOUR_TRANSPORT)
    fig.add_argument("--map", type=_map_kind, default="aw", help="transport for contour figures")
    fig.add_argument("--grid-lines", type=int, default=7)
    fig.add_argument("--frames", type=int, default=5)
    return p


def cmd_dist(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    mu, nu = problem.mu, problem.nu
    sign = _sign_selection(mu.chol, nu.chol)
    w2, k2, a2 = wasserstein2(mu, nu), kr2(mu, nu), aw2(mu, nu)
    doc = {
        "command": "dist",
        **problem_echo(mu, nu),
        "w2": w2.value,
        "kr2": k2.value,
        "aw2": a2.value,
        # the covariance terms are the matrix-level distances squared
        "bw": math.sqrt(w2.cov_term),
        "d_kr": math.sqrt(k2.cov_term),
        "d_abw": math.sqrt(a2.cov_term),
        "mean_term": a2.mean_term,
        "diag_LtM": sign.diag.tolist(),
        "kr_optimal": bool(np.all(sign.rho > 0)),
        "aw_unique": bool(sign.unique),
        "free_indices": list(sign.free_indices),
    }
    return doc, 0


def cmd_coupling(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    mu, nu = problem.mu, problem.nu
    transport = geodesics.transport_for_kind(mu, nu, args.map)
    sign = _sign_selection(mu.chol, nu.chol)
    rho = args.rho if args.rho is not None else problem.rho
    rho_used = np.asarray(rho, dtype=float) if rho is not None else sign.rho
    joint = coupling_pi_p(mu, nu, rho_used)
    doc = {
        "command": "coupling",
        **problem_echo(mu, nu),
        "map": {
            "kind": transport.kind,
            "offset": transport.offset.tolist(),
            "matrix": transport.matrix.tolist(),
        },
        "sign": {
            "rho": sign.rho.tolist(),
            "free_indices": list(sign.free_indices),
            "unique": bool(sign.unique),
            "diag_LtM": sign.diag.tolist(),
        },
        "rho_used": rho_used.tolist(),
        "joint_mean": joint.mean.tolist(),
        "joint_cov": joint.cov.tolist(),
        "cost": coupling_cost(mu, nu, rho_used),
    }
    return doc, 0


def cmd_geodesic(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    kind = args.kind
    if args.t is not None:
        ts = [args.t]
    else:
        ts = np.linspace(0.0, 1.0, args.frames).tolist()
    points = [geodesics.geodesic_point(problem.mu, problem.nu, t, kind) for t in ts]
    doc = {
        "command": "geodesic",
        **problem_echo(problem.mu, problem.nu),
        "kind": kind,
        "points": [
            {
                "t": pt.t,
                "mean": pt.mean.tolist(),
                "cov": pt.cov.tolist(),
                "degenerate": bool(pt.degenerate),
                "min_eigenvalue": pt.min_eigenvalue,
            }
            for pt in points
        ],
    }
    if args.figure is not None:
        svg, data = figures.filmstrip_figure(
            problem.mu, problem.nu, args.figure, kinds=(kind,), frames=max(len(ts), 2)
        )
        doc["figure"] = {"svg": str(svg), "data": str(data)}
    return doc, 0


def cmd_verify(args) -> tuple[dict, int]:
    if (args.problem is None) == (args.random is None):
        raise ProblemFormatError("verify needs exactly one of a problem file or --random N")
    if args.problem is not None:
        problem = load_problem(args.problem)
        pairs = [(problem.mu, problem.nu)]
    elif args.random < 1:
        # zero pairs would run zero checks and report a vacuous pass
        raise ProblemFormatError(f"--random needs at least 1 pair, got {args.random}")
    elif args.dim < 1:
        raise ProblemFormatError(f"--dim needs at least 1 time step, got {args.dim}")
    else:
        pairs = verify.random_pairs(args.random, args.seed, dim=args.dim)
    results = verify.run_verification(
        pairs,
        level=args.level,
        seed=args.seed,
        tolerance_scale=args.tolerance_scale,
        grid_m=args.grid_m,
        mc_samples=args.mc_samples,
    )
    passed = all(r.passed for r in results)
    doc = {
        "command": "verify",
        "level": args.level,
        "seed": args.seed,
        "num_pairs": len(pairs),
        "passed": passed,
        "num_checks": len(results),
        "failures": [r.name for r in results if not r.passed],
        "checks": [r.as_doc() for r in results],
    }
    return doc, 0 if passed else 1


def cmd_demo_incompleteness(args) -> tuple[dict, int]:
    rows = []
    for n in args.n_list:
        value = incompleteness_limit(args.theta, args.theta_prime, n)
        rows.append({"n": n, "aw2_squared": value.finite_n_value})
    limit = incompleteness_limit(args.theta, args.theta_prime, max(args.n_list)).limit_value
    cauchy = []
    for label, theta in (("theta", args.theta), ("theta_prime", args.theta_prime)):
        for n, m in itertools.combinations(sorted(args.n_list), 2):
            dist = aw2(
                incompleteness_member(theta, n), incompleteness_member(theta, m)
            ).value
            bound = math.sqrt(2.0) * abs(1.0 / n - 1.0 / m)
            cauchy.append(
                {
                    "sequence": label,
                    "n": n,
                    "m": m,
                    "aw2": dist,
                    "bound": bound,
                    "within_bound": bool(dist <= bound + 1e-9),
                }
            )
    doc = {
        "command": "demo-incompleteness",
        "theta": args.theta,
        "theta_prime": args.theta_prime,
        "rows": rows,
        "limit": limit,
        "cauchy": cauchy,
    }
    return doc, 0


def cmd_figure(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    out = args.output if args.output is not None else Path("figure.svg")
    if args.kind == figures.CONTOUR_TRANSPORT:
        transport = geodesics.transport_for_kind(problem.mu, problem.nu, args.map)
        svg, data = figures.contour_transport_figure(
            problem.mu, problem.nu, transport, out, grid_lines=args.grid_lines
        )
    else:
        svg, data = figures.filmstrip_figure(
            problem.mu, problem.nu, out, frames=args.frames
        )
    doc = {
        "command": "figure",
        "kind": args.kind,
        "svg": str(svg),
        "data": str(data),
    }
    return doc, 0


_HANDLERS = {
    "dist": cmd_dist,
    "coupling": cmd_coupling,
    "geodesic": cmd_geodesic,
    "verify": cmd_verify,
    "demo-incompleteness": cmd_demo_incompleteness,
    "figure": cmd_figure,
}


def _human_lines(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value and not _is_inline(value):
                lines.append(f"{pad}{key}:")
                lines.extend(_human_lines(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_human_scalar(value)}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)) and not _is_inline(item):
                lines.append(f"{pad}-")
                lines.extend(_human_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {_human_scalar(item)}")
    else:
        lines.append(f"{pad}{_human_scalar(obj)}")
    return lines


def _is_number_list(value):
    return isinstance(value, list) and all(isinstance(v, (int, float)) for v in value)


def _is_inline(value):
    """Vectors and matrices of numbers render on one line."""
    return _is_number_list(value) or (
        isinstance(value, list) and value and all(_is_number_list(v) for v in value)
    )


def _human_scalar(value):
    if isinstance(value, float):
        return f"{value:.4g}"
    if _is_number_list(value):
        return "[" + ", ".join(_human_scalar(v) for v in value) + "]"
    if isinstance(value, list) and all(_is_number_list(v) for v in value):
        return "[" + "; ".join(_human_scalar(v) for v in value) + "]"
    return str(value)


def emit(doc: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(doc, indent=2)
    else:
        text = "\n".join(_human_lines(doc))
    if args.output is not None and args.command != "figure":
        Path(args.output).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, code = _HANDLERS[args.command](args)
    except ProblemFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except AwGaussError as exc:
        print(f"invariant violation ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    emit(doc, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
