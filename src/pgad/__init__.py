"""Periodic-graph anomaly detection for multivariate sensor series.

Forecast-based detector: learned per-phase-slot sensor graphs feed a
graph-attention spatial branch, fused with multi-scale dilated-conv
temporal features, trained to predict the next reading of every sensor.
Anomaly scores are robustly normalized forecast errors.
"""

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

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
