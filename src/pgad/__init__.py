"""Periodic-graph anomaly detection for multivariate sensor series.

Forecast-based detector: learned per-phase-slot sensor graphs feed a
graph-attention spatial branch, fused with multi-scale dilated-conv
temporal features, trained to predict the next reading of every sensor.
Anomaly scores are robustly normalized forecast errors.
"""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    NormalizationStats,
    SeriesMatrix,
    WindowBatch,
    fit_normalizer,
    generate_synthetic,
    ingest_csv,
    make_windows,
)
from .errors import ConfigError, DataError, DivergenceError, PgadError
from .graph import cosine_similarity, topk_adjacency
from .model import Model, ModelConfig
from .period import PeriodProfile, detect_period
from .scoring import (
    MetricsReport,
    ScoreCalibration,
    ScoreTrace,
    best_f1_threshold,
    evaluate,
    score_series,
)
from .training import TrainConfig, TrainReport, grid_search, train

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "ConfigError",
    "DataError",
    "DivergenceError",
    "MetricsReport",
    "Model",
    "ModelConfig",
    "NormalizationStats",
    "PeriodProfile",
    "PgadError",
    "ScoreCalibration",
    "ScoreTrace",
    "SeriesMatrix",
    "TrainConfig",
    "TrainReport",
    "WindowBatch",
    "best_f1_threshold",
    "cosine_similarity",
    "detect_period",
    "evaluate",
    "fit_normalizer",
    "generate_synthetic",
    "grid_search",
    "ingest_csv",
    "load_checkpoint",
    "make_windows",
    "save_checkpoint",
    "score_series",
    "topk_adjacency",
    "train",
]
