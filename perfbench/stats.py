"""Order statistics used by the benchmark report.

Percentiles use the nearest-rank rule on the sorted samples.  A p90 is only
reported when at least ``P90_MIN_BEYOND`` samples lie strictly above its rank,
so it needs at least ``P90_SAMPLES`` (100) samples.

The reported p50 and throughput come from ``full_cycles``: the run's ops cut
into full cycles of a workload's inputs.  Each cycle meets every input once,
so it is one repetition of the whole workload.  The p50 is the lowest cycle
median and the throughput the highest cycle rate.  The shared host's speed
drifts by up to 1.7x for seconds to minutes at a time, which moves a median or
a mean over a whole run by up to a third from run to run; interference only
adds time, so, as with ``timeit``'s minimum over repeats, the fastest
repetition is the least disturbed measure of the program's own cost.  The p90
stays pooled over every op, so delays that come with contention still show.
"""

from __future__ import annotations

import statistics

#: samples that must lie beyond the p90's rank before a p90 is reported
P90_MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples for the requested percentile."""


def rank(pct: int, n: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile among ``n`` samples."""
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {pct}")
    if n < 1:
        raise InsufficientSamples("no samples")
    return max(1, -(-pct * n // 100))  # ceil(pct * n / 100) in integer arithmetic


def _p90_samples() -> int:
    n = 1
    while n - rank(90, n) < P90_MIN_BEYOND:
        n += 1
    return n


#: smallest sample count for which ``p90`` gives a value
P90_SAMPLES = _p90_samples()


def p90(samples) -> float:
    """Nearest-rank p90 with at least ``P90_MIN_BEYOND`` samples above it."""
    xs = sorted(samples)
    r = rank(90, len(xs))
    if len(xs) - r < P90_MIN_BEYOND:
        raise InsufficientSamples(
            f"p90 of {len(xs)} samples has {len(xs) - r} beyond it; "
            f"needs {P90_MIN_BEYOND} (at least {P90_SAMPLES} samples)"
        )
    return xs[r - 1]


def median(samples) -> float:
    return statistics.median(samples)


def full_cycles(samples, cycle: int) -> list:
    """Consecutive full windows of ``cycle`` samples.

    A trailing partial window is left out, so every window holds the same mix
    of inputs when the samples come from a cyclic input sequence.
    """
    windows = len(samples) // cycle
    if windows < 1:
        raise InsufficientSamples(f"{len(samples)} samples fill no window of {cycle}")
    return [samples[k * cycle:(k + 1) * cycle] for k in range(windows)]
