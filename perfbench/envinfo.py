"""Record of the environment a run measured: cores, versions, BLAS and commit.

BLAS threading is recorded, never set: the workloads run with the threading a
user gets by default.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_threads(package) -> int | None:
    """Thread count of the OpenBLAS bundled with ``package`` (wheel layout)."""
    site = Path(package.__file__).resolve().parent.parent
    for lib_path in sorted(glob.glob(str(site / f"{package.__name__}.libs" / "*openblas*"))):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _blas(package) -> dict:
    info = {"vendor": "unknown", "version": None}
    try:
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"vendor": blas.get("name", "unknown"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    info["threads"] = _openblas_threads(package)
    return info


def _git_commit(root: Path) -> str:
    """HEAD commit read from ``root/.git`` only; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def collect(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "git_commit": _git_commit(root),
    }
