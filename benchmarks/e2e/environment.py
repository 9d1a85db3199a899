"""The environment block stored with every benchmark result.

A number is comparable only with numbers taken on the same machine set-up,
so each result file records the cores, the BLAS build and its thread count,
library versions, the commit and the process-global knobs of ``repro`` as
the benchmark found them (it overrides none of them).
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys

import numpy as np
import scipy

from . import ROOT

# Fields that must match before two result files may be compared.  Load
# average and the commit are recorded but expected to differ.
COMPARABLE_FIELDS = (
    "cpu_count", "affinity", "blas", "blas_threads", "blas_env", "python",
    "numpy", "scipy", "knobs",
)

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
    "openblas_get_num_threads", "MKL_Get_Max_Threads",
)


def _blas_threads() -> int | None:
    """Thread count of the BLAS NumPy loaded, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libraries = {
                line.split()[-1] for line in handle
                if "openblas" in line or "libmkl_rt" in line
            }
    except OSError:
        return None
    for path in sorted(libraries):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            function = getattr(library, symbol, None)
            if function is not None:
                return int(function())
    return None


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def knob_snapshot() -> dict:
    """The process-global ``repro`` settings a workload starts under."""
    from repro.graph import sparse
    from repro.serve.proc.engine import resolve_start_method
    from repro.tensor import (
        get_default_dtype, get_spmm_threads, get_traced_execution, program_cache_stats,
    )

    return {
        "default_dtype": str(get_default_dtype()),
        "traced_execution": get_traced_execution(),
        "spatial_mode": sparse.get_spatial_mode(),
        "density_threshold": sparse.get_density_threshold(),
        "fused_spmm": sparse.get_fused_spmm(),
        "spmm_threads": get_spmm_threads(),
        "program_cache_limit_bytes": program_cache_stats()["limit_bytes"],
        "proc_start_method": resolve_start_method(),
    }


def environment_block() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    status = _git("status", "--porcelain")
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "load_average": list(os.getloadavg()),
        "platform": platform.platform(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "blas_env": {
            name: os.environ[name]
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if name in os.environ
        },
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "knobs": knob_snapshot(),
    }
