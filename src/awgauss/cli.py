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
from .couplings import _sign_selection, _transport, coupling_cost, coupling_pi_p
from .distances import _GEOMETRIES, _derived, aw2, incompleteness_limit, incompleteness_member, kr2, wasserstein2
from .errors import AwGaussError, NonFiniteValue
from .problems import ProblemFormatError, load_problem, problem_echo

#: every spelling of a geometry: its short name, its curve kind and the kind
#: of its transport map
_MAP_ALIASES = {
    name: kind
    for kind, (short, _, map_kind, _) in _GEOMETRIES.items()
    for name in (short, kind, map_kind)
}


def _map_kind(value: str) -> str:
    key = value.strip().lower().replace("-", "_")
    if key not in _MAP_ALIASES:
        raise argparse.ArgumentTypeError(f"unknown map/kind {value!r}")
    return _MAP_ALIASES[key]


def _comma_list(parse, noun: str, *, nonempty: bool = False):
    """An argparse type: comma-separated values, each read by ``parse``;
    ``noun`` names one value in the error messages."""

    def parse_list(value: str) -> list:
        try:
            items = [parse(part) for part in value.split(",") if part.strip() != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}s: {value!r}") from exc
        if nonempty and not items:
            raise argparse.ArgumentTypeError(f"expected at least one {noun}: {value!r}")
        return items

    return parse_list


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

    def command(name, handler, summary):
        parser = sub.add_parser(name, parents=[common], help=summary)
        parser.set_defaults(handler=handler)
        return parser

    dist = command("dist", cmd_dist, "all closed-form distances for a problem")
    dist.add_argument("problem", type=Path)

    coup = command("coupling", cmd_coupling, "transport map, joint law, and cost")
    coup.add_argument("problem", type=Path)
    coup.add_argument("--map", type=_map_kind, default="aw", help="w | kr | aw")
    coup.add_argument(
        "--rho", type=_comma_list(float, "number"), default=None,
        help=(
            "comma-separated correlations, given as --rho=-1,1 when the list starts "
            "with a minus; default: the optimal sign rule"
        ),
    )

    geo = command("geodesic", cmd_geodesic, "interpolation curve points")
    geo.add_argument("problem", type=Path)
    geo.add_argument("--kind", type=_map_kind, default="aw", help="w | kr | aw")
    group = geo.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=float, default=None)
    group.add_argument("--frames", type=int, default=None)
    geo.add_argument("--figure", type=Path, default=None, help="also write a filmstrip SVG")

    ver = command("verify", cmd_verify, "run the invariant/oracle check suite")
    ver.add_argument("problem", type=Path, nargs="?", default=None)
    ver.add_argument("--random", type=int, default=None, metavar="N",
                     help="verify N seeded random pairs instead of a problem file")
    ver.add_argument("--dim", type=int, default=2, help="dimension for --random pairs")
    ver.add_argument("--level", choices=verify.LEVELS, default=verify.FAST)
    ver.add_argument("--grid-m", type=int, default=100, help="oracle grid resolution")
    ver.add_argument("--mc-samples", type=int, default=100_000)

    demo = command(
        "demo-incompleteness",
        cmd_demo_incompleteness,
        "table showing the adapted metric is incomplete on Gaussian laws",
    )
    demo.add_argument("--theta", type=float, required=True)
    demo.add_argument("--theta-prime", type=float, required=True)
    demo.add_argument("--n-list", type=_comma_list(int, "integer", nonempty=True), default=[10, 100, 1000])

    fig = command("figure", cmd_figure, "write an SVG figure plus CSV data sidecar")
    fig.add_argument("problem", type=Path)
    fig.add_argument("--kind", choices=figures.FIGURE_KINDS, default=figures.CONTOUR_TRANSPORT)
    fig.add_argument("--map", type=_map_kind, default="aw", help="transport for contour figures")
    fig.add_argument("--grid-lines", type=int, default=7)
    fig.add_argument("--frames", type=int, default=5)
    return p


def cmd_dist(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    mu, nu = problem.mu, problem.nu
    sign = _derived(mu.chol, nu.chol, _sign_selection)
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
    transport = _transport(mu, nu, args.map)
    sign = _derived(mu.chol, nu.chol, _sign_selection)
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
    elif args.frames < 1:
        raise ProblemFormatError(f"--frames needs at least 1 frame, got {args.frames}")
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
    if args.seed < 0:
        raise ProblemFormatError(f"--seed needs a non-negative integer, got {args.seed}")
    if args.level == verify.FULL:
        # the oracles' own floors, refused before any check runs; the import
        # loads scipy, which only the full level's oracles need
        from .oracle import MIN_MC_SAMPLES, MIN_POINTS_PER_DIM

        if args.mc_samples < MIN_MC_SAMPLES:
            raise ProblemFormatError(
                f"--mc-samples needs at least {MIN_MC_SAMPLES} samples, got {args.mc_samples}"
            )
        if args.grid_m < MIN_POINTS_PER_DIM:
            raise ProblemFormatError(
                f"--grid-m needs at least {MIN_POINTS_PER_DIM} nodes per time step, "
                f"got {args.grid_m}"
            )
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
    values = [incompleteness_limit(args.theta, args.theta_prime, n) for n in args.n_list]
    rows = [{"n": n, "aw2_squared": v.finite_n_value} for n, v in zip(args.n_list, values)]
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
        "limit": values[0].limit_value,  # depends on the angles only
        "cauchy": cauchy,
    }
    return doc, 0


def cmd_figure(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    out = args.output if args.output is not None else Path("figure.svg")
    if args.kind == figures.CONTOUR_TRANSPORT:
        transport = _transport(problem.mu, problem.nu, args.map)
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


def _human_lines(doc, indent=0):
    """One line per entry of a dict (``key: value``) or a list (``- value``);
    a container that :func:`_one_line` cannot render nests one level deeper."""
    pad = "  " * indent
    if isinstance(doc, dict):
        entries = [(f"{key}:", value) for key, value in doc.items()]
    else:
        entries = [("-", item) for item in doc]
    lines = []
    for label, value in entries:
        text = _one_line(value)
        if text is None:
            lines.append(f"{pad}{label}")
            lines.extend(_human_lines(value, indent + 1))
        else:
            lines.append(f"{pad}{label} {text}")
    return lines


def _is_number_list(value):
    return isinstance(value, list) and all(isinstance(v, (int, float)) for v in value)


def _one_line(value):
    """Scalars, number vectors and number matrices on one line, floats to 4
    significant digits; ``None`` for any other nonempty dict or list."""
    if isinstance(value, float):
        return f"{value:.4g}"
    if _is_number_list(value):
        return "[" + ", ".join(map(_one_line, value)) + "]"
    if isinstance(value, list) and value and all(map(_is_number_list, value)):
        return "[" + "; ".join(map(_one_line, value)) + "]"
    if isinstance(value, (dict, list)) and value:
        return None
    return str(value)


def emit(doc: dict, args) -> None:
    if args.format == "json":
        try:
            text = json.dumps(doc, indent=2, allow_nan=False)
        except ValueError as exc:
            # finite inputs can still overflow a result; JSON has no inf or NaN
            source = f" {args.problem}" if getattr(args, "problem", None) else ""
            raise NonFiniteValue(f"{args.command}{source}: a result is not finite ({exc})") from exc
    else:
        text = "\n".join(_human_lines(doc))
    if args.output is not None and args.command != "figure":
        Path(args.output).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, code = args.handler(args)
        emit(doc, args)  # renders the whole document first: a refused one writes nothing
    except ProblemFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except AwGaussError as exc:
        print(f"invariant violation ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
