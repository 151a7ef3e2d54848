"""Benchmark of awgauss: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload pairwise_small --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout: the library is imported from the
checkout's ``src/``, never from an installed copy, and the command fails
without a result when that source is absent.  One process drives a closed loop
with a single client; BLAS threading is left at its default and recorded.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of several
fresh set-up processes), ``ops_per_s`` and ``latency_p50_ms`` (successful ops
per second of op time, and median per-op wall time, of the fastest full cycle
of the workload's inputs; see ``stats``), ``latency_p90_ms`` (pooled over all
ops; the timed window runs for ``--seconds`` of op time and at least until p90
has 10 samples beyond it and ``P50_CYCLES`` cycles are done) and
``peak_rss_mb``.  ``--trace 1`` runs the same ops untraced, then traced,
and prints the per-layer metrics: span counts and self times per layer,
kernel counts, ``trace.overhead_frac`` (1 - traced/untraced ops per second),
``-X importtime`` figures and an in-process ``cli.main`` probe.  Each op is
checked against the benchmark's own reference between ops, outside the clock.
The last stdout line is one JSON object.  Exit codes: 0 when every op passed,
1 when any op failed, 2 without a result when the library source or the
workload is missing, 3 without a result when the timed loops run out of their
wall-clock budget (``LOOP_BUDGET_S``) before their goals are met.  Workloads
and their rationale are in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import envinfo
import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
#: wall-clock budget for the timed loops, keeping a run well inside 180 s
LOOP_BUDGET_S = 140.0
SETUP_PROBES = 7
#: full input cycles the p50 and throughput choose from at the least
P50_CYCLES = 4
IMPORT_PROBES = 3
CLI_PROBE_ROUNDS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("calls_per_op"):
        return "calls/op"
    if name.endswith("ms_per_op"):
        return "ms/op"
    if name.endswith(".errors"):
        return "count"
    if name == "kernel.flops_per_op":
        return "computed-flop/op"
    if name.startswith("verify.checks_per_op"):
        return "checks/op"
    if name in ("trace.overhead_frac", "failed_frac"):
        return "fraction"
    if name == "oracle_gap_max":
        return "relative"
    return "ms"


class DeadlineExceeded(RuntimeError):
    """A timed loop ran past the run's wall-clock budget before its goal."""


class Outcome:
    """Attempted and failed op counts, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def judge(self, workload, item, out, error) -> bool:
        self.attempted += 1
        reason = None
        if error is not None:
            reason = f"op raised {type(error).__name__}: {error}"
        else:
            try:
                workload.check(item, out)
            except Exception as exc:  # any check error fails the op, never the run
                reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            self.reasons[reason[:200]] += 1
        return reason is None

    @property
    def failed_frac(self) -> float:
        return self.failed / max(self.attempted, 1)


def run_ops(workload, items, op, outcome, *, count=None, seconds=0.0, min_samples=0,
            deadline=float("inf"), tracer=None, enough=lambda: True):
    """Closed loop: one op at a time, checked after its clock stops.

    Runs ``count`` ops, or else until ``seconds`` of op time have passed, at
    least ``min_samples`` ops were timed and ``enough()`` holds; raises
    :class:`DeadlineExceeded` if the wall-clock ``deadline`` passes first.
    Returns (latencies in s, successful ops).
    """
    latencies = []
    ok = 0
    busy = 0.0
    while True:
        if count is not None:
            if len(latencies) >= count:
                break
        elif busy >= seconds and len(latencies) >= min_samples and enough():
            break
        elif time.monotonic() > deadline:
            raise DeadlineExceeded(
                f"wall-clock budget of {LOOP_BUDGET_S:g} s spent with {busy:.1f} of {seconds:g} s "
                f"of op time and {len(latencies)} of {min_samples} samples in this loop"
            )
        item = next(items)
        if tracer is not None:
            tracer.begin_op()
        error = None
        t0 = time.perf_counter()
        try:
            out = op(item)
        except Exception as exc:
            out, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        latencies.append(dt)
        busy += dt
        ok += outcome.judge(workload, item, out, error)
    return latencies, ok


def setup_time(name: str, seed: int) -> float:
    """Wall time from spawning a fresh set-up probe until it reports ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), name, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    line = proc.stdout.readline()
    dt = time.perf_counter() - t0
    _, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.decode()[-500:]}")
    return dt


def parse_importtime(text: str) -> dict[str, float]:
    """``-X importtime`` output -> total, scipy and awgauss import time in ms."""
    total = scipy_us = awgauss_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, module = (part.strip() for part in line[len("import time:"):].split("|"))
        top = module.split(".", 1)[0]
        if module == "awgauss":
            total = int(cumulative_us)
        if top == "scipy":
            scipy_us += int(self_us)
        elif top == "awgauss":
            awgauss_us += int(self_us)
    return {"import.total_ms": total / 1e3, "import.scipy_ms": scipy_us / 1e3, "import.awgauss_ms": awgauss_us / 1e3}


def import_times() -> dict[str, float]:
    """Median of ``IMPORT_PROBES`` fresh ``python -X importtime -c "import awgauss"``."""
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + old if old else ""))
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import awgauss"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
        samples.append(parse_importtime(proc.stderr))
    return {key: stats.median([s[key] for s in samples]) for key in samples[0]}


def cli_times(seed: int) -> tuple[dict[str, float], int]:
    """Traced in-process ``cli.main(argv)`` over the ``cli_commands`` mix.

    Gives ``cli.main`` and ``problems.load_problem`` time per call in every
    traced run, whichever workload it measures, and the number of probe ops
    that failed.  The probe's ops are judged apart from the workload's, so
    they never enter its ``attempted``, ``failed`` or ``failed_frac``.
    """
    import workloads

    probe = workloads.CliProbe(seed, WORKDIR)
    outcome = Outcome()
    tracer = tracing.Tracer()
    try:
        items = probe.items()
        run_ops(probe, items, probe.op, outcome, count=len(probe.COMMANDS))
        with tracing.installed(tracer):
            run_ops(probe, items, probe.op, outcome, count=CLI_PROBE_ROUNDS * len(probe.COMMANDS) * len(probe.DIMS),
                    tracer=tracer)
    finally:
        probe.close()
    for reason, n in outcome.reasons.most_common(5):
        print(f"  cli probe failed x{n}: {reason}")
    by_name = tracing.summarize(tracer.spans)
    metrics = {
        f"{name}.ms_per_op": by_name.get(name, tracing.SpanStats()).total_ns / 1e6 / tracer.ops
        for name in ("cli.main", "problems.load_problem")
    }
    return metrics, outcome.failed


def outcome_metrics(workload, outcome) -> dict[str, float]:
    """``failed_frac``, ``oracle_gap_max`` and check counts (0 where a workload has none).

    Every run prints them; traced runs also emit them as per-layer metrics.
    """
    m = {"verify.checks_per_op_n2": 0.0, "verify.checks_per_op_n3": 0.0, "oracle_gap_max": 0.0}
    m.update(workload.report())
    m["failed_frac"] = outcome.failed_frac
    return m


def plain_run(workload, seed, seconds, deadline, outcome):
    """End-to-end metrics.  The set-up probes are spread through the timed
    window, one after each slice of ops, so their median samples the same
    stretch of machine time as the ops do."""
    setup_time(workload.name, seed)  # discarded: writes byte-code caches
    items = workload.items()
    run_ops(workload, items, workload.op, outcome, count=workload.warmup_ops)
    latencies, ok, setup = [], 0, []
    for _ in range(SETUP_PROBES):
        lat, n_ok = run_ops(workload, items, workload.op, outcome, seconds=seconds / SETUP_PROBES, deadline=deadline)
        latencies += lat
        ok += n_ok
        setup.append(setup_time(workload.name, seed))
    lat, n_ok = run_ops(
        workload, items, workload.op, outcome,
        min_samples=max(stats.P90_SAMPLES, P50_CYCLES * workload.cycle) - len(latencies), deadline=deadline,
    )
    latencies += lat
    ok += n_ok
    cycles = stats.full_cycles(latencies, workload.cycle)
    metrics = {
        "setup_s": stats.median(setup),
        "ops_per_s": ok / len(latencies) * max(len(c) / sum(c) for c in cycles),
        "latency_p50_ms": min(stats.median(c) for c in cycles) * 1e3,
        "latency_p90_ms": stats.p90(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "samples": len(latencies),
        "cycles": len(cycles),
        "pooled_ops_per_s": ok / sum(latencies),
        "pooled_p50_ms": stats.median(latencies) * 1e3,
        "setup_probes": len(setup),
    }
    return metrics, notes


def traced_run(workload, seed, seconds, deadline, outcome):
    items = workload.items()
    op = workload.op
    run_ops(workload, items, op, outcome, count=workload.warmup_ops)
    plain, plain_ok = run_ops(workload, items, op, outcome, seconds=seconds / 2, deadline=deadline)
    tracer = tracing.Tracer()

    def enough():  # a p90 of aw_map spans, unless the op never calls aw_map
        calls = tracer.calls["couplings.aw_map"]
        return calls >= stats.P90_SAMPLES or (calls == 0 and tracer.ops >= 3)

    with tracing.installed(tracer):
        traced, traced_ok = run_ops(
            workload, items, op, outcome, seconds=seconds / 2, deadline=deadline,
            tracer=tracer, enough=enough,
        )
    tracer.write_csv(WORKDIR / f"spans-{workload.name}.csv")
    metrics = tracing.per_layer_metrics(tracer)
    metrics.update(import_times())
    cli, cli_failed = cli_times(seed)
    metrics.update(cli)
    metrics["cli.errors"] += cli_failed
    metrics["trace.overhead_frac"] = 1.0 - (traced_ok / sum(traced)) / (plain_ok / sum(plain))
    metrics.update(outcome_metrics(workload, outcome))
    notes = {"untraced_ops": len(plain), "traced_ops": len(traced), "spans": len(tracer.spans)}
    return metrics, notes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0, help="op time measured per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    package = ROOT / "src" / "awgauss"
    if not (package / "__init__.py").is_file():
        print(f"error: no library source at {package}; run inside a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import awgauss

    if Path(awgauss.__file__).resolve().parent != package.resolve():
        print(f"error: awgauss imported from {awgauss.__file__}, not {package}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    print("env " + json.dumps(envinfo.collect(ROOT)))
    cls = workloads.WORKLOADS[args.workload]
    print(f"workload {cls.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    deadline = started + LOOP_BUDGET_S
    outcome = Outcome()
    workload = cls(args.seed)
    try:
        if args.trace:
            metrics, notes = traced_run(workload, args.seed, args.seconds, deadline, outcome)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics, notes = plain_run(workload, args.seed, args.seconds, deadline, outcome)
            units = END_TO_END_UNITS
    except DeadlineExceeded as exc:
        print(f"error: {exc}; no result", file=sys.stderr)
        return 3

    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    if not args.trace:
        for name, value in outcome_metrics(workload, outcome).items():
            print(f"  {name:44s} {value:14.6g} {per_layer_unit(name)}  (per-layer in BENCHMARK.json)")
    for name, value in notes.items():
        print(f"  ({name} = {value})")
    for reason, n in outcome.reasons.most_common(5):
        print(f"  failed x{n}: {reason}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
