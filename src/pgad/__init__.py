"""Periodic-graph anomaly detection for multivariate sensor series.

Forecast-based detector: learned per-phase-slot sensor graphs feed a
graph-attention spatial branch, fused with multi-scale dilated-conv
temporal features, trained to predict the next reading of every sensor.
Anomaly scores are robustly normalized forecast errors.
"""

import ctypes
import importlib
import os

__version__ = "0.1.0"

# A user who sets any of these keeps control of all three: OpenBLAS reads
# its own variable before OMP_NUM_THREADS.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_pin() -> dict[str, str]:
    """The variables that pin BLAS to one thread, all three set to "1",
    when this process's environment sets none of them; else none."""
    if any(var in os.environ for var in _BLAS_THREAD_VARS):
        return {}
    return dict.fromkeys(_BLAS_THREAD_VARS, "1")


# mallopt parameters and values: M_MMAP_THRESHOLD 32 MiB and M_TRIM_THRESHOLD
# 64 MiB, the most glibc's dynamic thresholds grow to on 64-bit
_MALLOC_PINS = ((-3, 32 << 20), (-1, 64 << 20))


def pin_malloc_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds at the values its own dynamic
    rule tops out at; returns whether it did. Without the pin, glibc
    raises them only after a large block is freed, and until then it maps
    and unmaps every predict chunk's arrays or trims the heap after each
    chunk, a page fault per page touched. Skipped on another libc and
    when the environment sets any MALLOC_* variable or GLIBC_TUNABLES.
    The CLI's `main` and every `training.pool_map` worker call it."""
    if "GLIBC_TUNABLES" in os.environ or any(var.startswith("MALLOC_") for var in os.environ):
        return False
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no handle on the running process's libc
        return False
    if not hasattr(libc, "gnu_get_libc_version"):
        return False
    mallopt = libc.mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return [mallopt(param, value) for param, value in _MALLOC_PINS] == [1, 1]


# exported name -> the submodule that defines it. The names resolve on
# first access, so `import pgad` alone loads no numpy: `pgad.cli` can pin
# the BLAS thread count before numpy starts.
_EXPORTS = {
    "Checkpoint": "checkpoint",
    "load_checkpoint": "checkpoint",
    "save_checkpoint": "checkpoint",
    "NormalizationStats": "data",
    "SeriesMatrix": "data",
    "WindowBatch": "data",
    "fit_normalizer": "data",
    "generate_synthetic": "data",
    "ingest_csv": "data",
    "make_windows": "data",
    "ConfigError": "errors",
    "DataError": "errors",
    "DivergenceError": "errors",
    "PgadError": "errors",
    "cosine_similarity": "graph",
    "topk_adjacency": "graph",
    "Model": "model",
    "ModelConfig": "model",
    "PeriodProfile": "period",
    "detect_period": "period",
    "MetricsReport": "scoring",
    "ScoreCalibration": "scoring",
    "ScoreTrace": "scoring",
    "best_f1_threshold": "scoring",
    "evaluate": "scoring",
    "score_series": "scoring",
    "TrainConfig": "training",
    "TrainReport": "training",
    "grid_search": "training",
    "train": "training",
}

__all__ = sorted([*_EXPORTS, "pin_malloc_thresholds"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
