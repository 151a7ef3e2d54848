"""Span tracing of the library's layers, installed from outside the library.

The program's source is not edited.  :func:`installed` rebinds, for the
duration of a ``with`` block, every public function of each measured module in
every ``awgauss`` namespace that holds it (so ``verify.dpp_solve_discrete`` is
traced as ``oracle.dpp_solve_discrete``), plus the constructor hooks of
``GaussianSpec`` and ``AffineTransportMap.push``.  Each call under an open op
records a span: name, start, end, parent span and op index.  Spans are kept in
memory and written out when the run ends.

The ``kernel`` pseudo-layer counts LAPACK-backed calls
(``numpy.linalg.{cholesky,eigh,eigvalsh}`` and ``scipy.linalg.solve_triangular``)
made under a library span, together with their floating-point operation count
computed from the operand shapes.  Kernel calls are counted, not spanned, so a
layer's self time includes the LAPACK work it asks for.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import stats

#: the measured package modules, in layer order (L0 .. L4)
LAYERS = ("linalg", "distances", "couplings", "geodesics", "oracle", "verify", "problems", "cli")

NAME, START, END, PARENT, OP, ERROR = range(6)


def _batch(a) -> int:
    return math.prod(a.shape[:-2]) if a.ndim > 2 else 1


def _cholesky_flops(a, *_, **__) -> float:
    n = a.shape[-1]
    return _batch(a) * n**3 / 3.0


def _eigh_flops(a, *_, **__) -> float:
    # tridiagonal reduction plus eigenvector accumulation (Golub & Van Loan)
    n = a.shape[-1]
    return _batch(a) * 9.0 * n**3


def _eigvalsh_flops(a, *_, **__) -> float:
    n = a.shape[-1]
    return _batch(a) * 4.0 * n**3 / 3.0


def _solve_triangular_flops(a, b, *_, **__) -> float:
    n = a.shape[-1]
    rhs = b.shape[1] if getattr(b, "ndim", 1) == 2 else 1
    return float(n * n * rhs)


#: kernel name -> (owner module name, attribute, flop model)
KERNELS = {
    "cholesky": ("numpy.linalg", "cholesky", _cholesky_flops),
    "eigh": ("numpy.linalg", "eigh", _eigh_flops),
    "eigvalsh": ("numpy.linalg", "eigvalsh", _eigvalsh_flops),
    "solve_triangular": ("scipy.linalg", "solve_triangular", _solve_triangular_flops),
}


class Tracer:
    """Collects spans and kernel counts while an op is open."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.calls: Counter = Counter()  # spans opened, by name
        self.kernel_calls: Counter = Counter()
        self.kernel_flops = 0.0
        self.ops = 0
        self._op = -1
        self._stack: list[int] = []

    # op boundaries -------------------------------------------------------
    def begin_op(self):
        self._op = self.ops
        self.ops += 1

    def end_op(self):
        self._op = -1
        self._stack.clear()

    # spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.calls[name] += 1
        self.spans.append([name, self.clock(), 0, parent, self._op, False])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, *, error: bool = False):
        span = self.spans[idx]
        span[END] = self.clock()
        span[ERROR] = error
        self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each call made inside an op."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, error=True)
                raise
            self.close(idx)
            return result

        return traced

    def count(self, name: str, fn, flops):
        """``fn`` counted as kernel ``name`` when called under a library span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                self.kernel_calls[name] += 1
                self.kernel_flops += flops(*args, **kwargs)
            return fn(*args, **kwargs)

        return counted

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,op,error\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[OP]},{int(s[ERROR])}\n")


# installation ---------------------------------------------------------------

def _public_functions(module):
    for attr, obj in vars(module).items():
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr, obj


@contextmanager
def installed(tracer: Tracer):
    """Trace every layer of ``awgauss`` while the block runs; restore on exit."""
    layers = {layer: importlib.import_module(f"awgauss.{layer}") for layer in LAYERS}
    modules = [m for n, m in list(sys.modules.items()) if n == "awgauss" or n.startswith("awgauss.")]
    replacements = {}  # id(original) -> (original, wrapper)
    for layer, mod in layers.items():
        for attr, fn in _public_functions(mod):
            replacements[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn))
    undo = []  # (owner, attribute, original)
    for name, (owner_name, attr, flops) in KERNELS.items():
        owner = sys.modules[owner_name]
        fn = getattr(owner, attr)
        wrapper = tracer.count(name, fn, flops)
        replacements[id(fn)] = (fn, wrapper)
        if owner_name == "numpy.linalg":  # the library calls these as np.linalg.<name>
            undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((mod, attr, obj))
                setattr(mod, attr, hit[1])

    spec = layers["linalg"].GaussianSpec
    for cls, attr, name in (
        (spec, "__post_init__", "linalg.GaussianSpec"),
        (spec, "from_cholesky", "linalg.GaussianSpec.from_cholesky"),
        (layers["couplings"].AffineTransportMap, "push", "couplings.AffineTransportMap.push"),
    ):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(tracer.wrap(name, original.__func__))
        else:
            wrapped = tracer.wrap(name, original)
        undo.append((cls, attr, original))
        setattr(cls, attr, wrapped)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# aggregation ----------------------------------------------------------------

@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: int = 0


def summarize(spans) -> dict[str, SpanStats]:
    """Per-name call count, inclusive and self time, and errors.

    Self time is a span's duration minus the time covered by its direct
    children.  Spans of one thread never overlap their siblings, so the
    covered time is the sum of the children's durations.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    out: dict[str, SpanStats] = {}
    for i, s in enumerate(spans):
        st = out.setdefault(s[NAME], SpanStats())
        dur = s[END] - s[START]
        st.calls += 1
        st.total_ns += dur
        st.self_ns += dur - child_ns[i]
        st.errors += bool(s[ERROR])
    return out


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The traced run's per-layer metrics, normalised by the number of ops."""
    ops = max(tracer.ops, 1)
    by_name = summarize(tracer.spans)
    layer = {name: SpanStats() for name in LAYERS}
    for name, st in by_name.items():
        agg = layer[name.split(".", 1)[0]]
        agg.calls += st.calls
        agg.self_ns += st.self_ns
        agg.errors += st.errors

    def fn(name) -> SpanStats:
        return by_name.get(name, SpanStats())

    def ms(ns):
        return ns / 1e6 / ops

    aw_map = [s[END] - s[START] for s in tracer.spans if s[NAME] == "couplings.aw_map"]
    m = {
        "linalg.calls_per_op": layer["linalg"].calls / ops,
        "linalg.self_ms_per_op": ms(layer["linalg"].self_ns),
        "linalg.cholesky.calls_per_op": fn("linalg.cholesky").calls / ops,
        "linalg.as_spd.calls_per_op": fn("linalg.as_spd").calls / ops,
        "distances.self_ms_per_op": ms(layer["distances"].self_ns),
        "distances.aw2.self_ms_per_op": ms(fn("distances.aw2").self_ns),
        "distances.wasserstein2.self_ms_per_op": ms(fn("distances.wasserstein2").self_ns),
        "couplings.self_ms_per_op": ms(layer["couplings"].self_ns),
        "couplings.coupling_pi_p.self_ms_per_op": ms(fn("couplings.coupling_pi_p").self_ns),
        "couplings.brenier_map.self_ms_per_op": ms(fn("couplings.brenier_map").self_ns),
        # 0 when the workload never calls aw_map; too few calls for a p90 raise
        "couplings.aw_map.p90_ms": stats.p90(aw_map) / 1e6 if aw_map else 0.0,
        "geodesics.self_ms_per_op": ms(layer["geodesics"].self_ns),
        "kernel.eigh.calls_per_op": tracer.kernel_calls["eigh"] / ops,
        "kernel.eigvalsh.calls_per_op": tracer.kernel_calls["eigvalsh"] / ops,
        "kernel.cholesky.calls_per_op": tracer.kernel_calls["cholesky"] / ops,
        "kernel.solve_triangular.calls_per_op": tracer.kernel_calls["solve_triangular"] / ops,
        "kernel.flops_per_op": tracer.kernel_flops / ops,
        "oracle.self_ms_per_op": ms(layer["oracle"].self_ns),
        "oracle.monte_carlo_cost.self_ms_per_op": ms(fn("oracle.monte_carlo_cost").self_ns),
        "oracle.dpp_solve_discrete.calls_per_op": fn("oracle.dpp_solve_discrete").calls / ops,
        "oracle.dpp_solve_discrete.self_ms_per_op": ms(fn("oracle.dpp_solve_discrete").self_ns),
        "oracle.dpp_recursion_check.self_ms_per_op": ms(fn("oracle.dpp_recursion_check").self_ns),
        "verify.self_ms_per_op": ms(layer["verify"].self_ns),
    }
    for name in LAYERS:
        m[f"{name}.errors"] = float(layer[name].errors)
    return m
