"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -t perfbench
    python3 -m pytest perfbench
"""

import itertools
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from reference import CheckFailed  # noqa: E402


class FakeClock:
    """Deterministic nanosecond clock advanced by the test."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def leaf():
            clock.now += 5

        def inner():
            clock.now += 10
            traced_leaf()
            clock.now += 1

        def outer():
            clock.now += 100
            traced_inner()
            traced_inner()
            clock.now += 7

        traced_leaf = tracer.wrap("linalg.leaf", leaf)
        traced_inner = tracer.wrap("distances.inner", inner)
        traced_outer = tracer.wrap("verify.outer", outer)

        tracer.begin_op()
        traced_outer()
        tracer.end_op()

        by_name = tracing.summarize(tracer.spans)
        # inner: 16 each (10 + 5 + 1), self 11 each; outer: 100 + 32 + 7
        self.assertEqual(by_name["linalg.leaf"].calls, 2)
        self.assertEqual(by_name["linalg.leaf"].self_ns, 10)
        self.assertEqual(by_name["distances.inner"].total_ns, 32)
        self.assertEqual(by_name["distances.inner"].self_ns, 22)
        self.assertEqual(by_name["verify.outer"].total_ns, 139)
        self.assertEqual(by_name["verify.outer"].self_ns, 107)
        total_self = sum(s.self_ns for s in by_name.values())
        self.assertEqual(total_self, by_name["verify.outer"].total_ns)

    def test_spans_only_inside_ops_and_errors_counted(self):
        tracer = tracing.Tracer(clock=FakeClock())

        def boom():
            raise ValueError("x")

        traced = tracer.wrap("oracle.boom", boom)
        with self.assertRaises(ValueError):
            traced()  # outside an op: passes through, no span
        self.assertEqual(tracer.spans, [])
        tracer.begin_op()
        with self.assertRaises(ValueError):
            traced()
        tracer.end_op()
        self.assertEqual(tracing.summarize(tracer.spans)["oracle.boom"].errors, 1)
        self.assertEqual(tracing.per_layer_metrics(tracer)["oracle.errors"], 1.0)


class PercentileRuleTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(stats.P90_SAMPLES, 100)
        with self.assertRaises(stats.InsufficientSamples):
            stats.p90(range(99))
        self.assertEqual(stats.p90(range(1, 101)), 90)
        self.assertEqual(stats.p90(range(1, 201)), 180)

    def test_aw_map_p90_refuses_too_few_spans(self):
        tracer = tracing.Tracer(clock=FakeClock())
        traced = tracer.wrap("couplings.aw_map", lambda: None)
        self.assertEqual(tracing.per_layer_metrics(tracer)["couplings.aw_map.p90_ms"], 0.0)  # never called
        tracer.begin_op()
        for _ in range(5):
            traced()
        tracer.end_op()
        with self.assertRaises(stats.InsufficientSamples):
            tracing.per_layer_metrics(tracer)

    def test_full_cycles_leave_out_the_partial_window(self):
        self.assertEqual(stats.full_cycles([1, 5, 9, 4, 3, 2, 0], 3), [[1, 5, 9], [4, 3, 2]])
        with self.assertRaises(stats.InsufficientSamples):
            stats.full_cycles([1, 2], 3)

    def test_nearest_rank(self):
        self.assertEqual(stats.rank(90, 100), 90)
        self.assertEqual(stats.rank(90, 101), 91)
        self.assertEqual(stats.rank(50, 1), 1)


class FlakyWorkload:
    """Op raises on item 3; the check rejects item 5; everything else passes."""

    def check(self, item, out):
        if item == 5:
            raise CheckFailed("wrong value")


def flaky_op(item):
    if item == 3:
        raise ArithmeticError("injected")
    return item


class FailedFracTest(unittest.TestCase):
    def test_raised_and_rejected_ops_count_as_failed(self):
        outcome = run.Outcome()
        latencies, ok = run.run_ops(
            FlakyWorkload(), itertools.cycle(range(10)), flaky_op, outcome, count=20
        )
        self.assertEqual(len(latencies), 20)
        self.assertEqual(outcome.attempted, 20)
        self.assertEqual(outcome.failed, 4)
        self.assertEqual(ok, 16)
        self.assertAlmostEqual(outcome.failed_frac, 0.2)
        self.assertEqual(sum(outcome.reasons.values()), 4)

    def test_timed_loop_reaches_min_samples(self):
        outcome = run.Outcome()
        latencies, _ = run.run_ops(
            FlakyWorkload(), itertools.cycle([0]), flaky_op, outcome, seconds=0.0, min_samples=100
        )
        self.assertEqual(len(latencies), 100)
        self.assertEqual(outcome.failed, 0)

    def test_deadline_raises_instead_of_reporting(self):
        with self.assertRaises(run.DeadlineExceeded):
            run.run_ops(FlakyWorkload(), itertools.cycle([0]), flaky_op, run.Outcome(),
                        seconds=1.0, min_samples=100, deadline=0.0)


class CliProbeTest(unittest.TestCase):
    def test_probe_passes_and_times_the_cli_layer(self):
        run.WORKDIR.mkdir(exist_ok=True)
        metrics, failed = run.cli_times(seed=1)
        self.assertEqual(failed, 0)
        self.assertGreater(metrics["cli.main.ms_per_op"], 0.0)
        self.assertGreater(metrics["problems.load_problem.ms_per_op"], 0.0)


class ImportTimeParseTest(unittest.TestCase):
    def test_parse(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   scipy._lib",
            "import time:       300 |        400 | scipy",
            "import time:        50 |         50 |   awgauss.errors",
            "import time:       200 |       1650 | awgauss",
        ])
        self.assertEqual(
            run.parse_importtime(text),
            {"import.total_ms": 1.65, "import.scipy_ms": 0.4, "import.awgauss_ms": 0.25},
        )


class InstalledTracingTest(unittest.TestCase):
    def test_layers_kernels_and_restore(self):
        import awgauss as ag

        original, original_cholesky = ag.aw2, np.linalg.cholesky
        mu = ag.GaussianSpec(np.zeros(2), np.array([[1.0, 2.0], [2.0, 5.0]]))
        nu = ag.GaussianSpec(np.zeros(2), np.array([[1.0, -2.0], [-2.0, 5.0]]))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            self.assertIsNot(ag.aw2, original)
            np.linalg.cholesky(np.eye(2))  # not under a library span
            tracer.begin_op()
            value = ag.aw2(mu, nu).squared_value
            tracer.end_op()
        self.assertIs(ag.aw2, original)
        self.assertIs(np.linalg.cholesky, original_cholesky)
        self.assertAlmostEqual(value, 4.0, places=12)  # aw2 = 2 for this pair (README)
        names = [s[tracing.NAME] for s in tracer.spans]
        self.assertEqual(names[0], "distances.aw2")
        self.assertIn("distances.abw_distance", names)
        self.assertEqual(names.count("linalg.cholesky"), 2)
        self.assertEqual(tracer.kernel_calls["cholesky"], 2)
        self.assertAlmostEqual(tracer.kernel_flops, 2 * 2**3 / 3.0)


class WorkloadInputTest(unittest.TestCase):
    def test_tie_factors_are_exact(self):
        import workloads

        for seed in range(50):
            rng = np.random.default_rng(seed)
            for n in (2, 3, 4, 8):
                L, M, t = workloads.tie_factors(rng, n)
                self.assertEqual(float(L[:, t] @ M[:, t]), 0.0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_the_runner(self):
        spec_path = ROOT / "BENCHMARK.json"
        if not spec_path.exists():
            self.skipTest("no BENCHMARK.json next to the benchmark")
        spec = json.loads(spec_path.read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END_UNITS)
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        emitted = set(tracing.per_layer_metrics(tracing.Tracer()))
        emitted |= {"import.total_ms", "import.scipy_ms", "import.awgauss_ms", "trace.overhead_frac",
                    "cli.main.ms_per_op", "problems.load_problem.ms_per_op",
                    "verify.checks_per_op_n2", "verify.checks_per_op_n3", "failed_frac", "oracle_gap_max"}
        self.assertEqual(set(per_layer), emitted)
        for name, unit in per_layer.items():
            self.assertEqual(unit, run.per_layer_unit(name), name)
        import workloads

        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
