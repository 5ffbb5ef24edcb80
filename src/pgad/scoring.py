"""Anomaly scoring, thresholding, and detection metrics.

Per-sensor forecast errors are scaled by robust statistics (median and
interquartile range) taken from the training-time validation errors,
aggregated across sensors by max, and smoothed with a trailing moving
average. Labels come from one of three threshold policies; detection
quality is reported as precision, recall, and F1, optionally with
segment-level point adjustment.

The model predicts in float32, on `model.compute_params` copies of the
checkpoint's float64 parameters; the graphs are built from the float64
embeddings, and the errors, calibration, scores, thresholds and metrics
are float64.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .data import SeriesMatrix, make_windows
from .errors import ConfigError, DataError
from .graph import build_adjacencies, slot_ids_for_windows
from .model import Model, compute_params

IQR_EPS = 1e-6

# the fewest validation windows that calibrate; `training.train` keeps at least this many
MIN_VAL_WINDOWS = 4

THRESHOLD_MODES = ("max_validation", "fixed", "best_f1")


@dataclass(frozen=True)
class ScoreCalibration:
    """Per-sensor robust location and spread of clean forecast errors."""

    median: np.ndarray
    iqr: np.ndarray

    @classmethod
    def from_errors(cls, errors: np.ndarray) -> "ScoreCalibration":
        errors = np.asarray(errors, dtype=np.float64)
        if errors.ndim != 2:
            raise DataError(f"calibration errors must be 2-D, got shape {errors.shape}")
        if errors.shape[0] < MIN_VAL_WINDOWS:
            raise DataError(f"need at least {MIN_VAL_WINDOWS} validation windows "
                            f"to calibrate, got {errors.shape[0]}")
        q25, q50, q75 = quartiles(errors)
        return cls(median=q50, iqr=q75 - q25)


def quartiles(values: np.ndarray) -> np.ndarray:
    """np.quantile(values, [0.25, 0.5, 0.75], axis=0) with its default linear
    method, bit for bit: its arithmetic (numpy's `_lerp`) on the sorted
    columns. `np.quantile` would import numpy.ma on its first call, which
    costs more than the whole calibration."""
    ordered = np.sort(values, axis=0)
    virtual = (ordered.shape[0] - 1) * np.array([0.25, 0.5, 0.75])
    below = np.floor(virtual).astype(np.intp)
    above = np.minimum(below + 1, ordered.shape[0] - 1)
    t = (virtual - below).reshape((3,) + (1,) * (ordered.ndim - 1))
    a, b = ordered[below], ordered[above]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    np.copyto(out, ordered[-1], where=np.isnan(ordered[-1]))  # a NaN column's quartiles are NaN
    return out


def sensor_errors(predictions: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Absolute forecast error per time step and sensor."""
    return np.abs(np.asarray(actual, dtype=np.float64) - np.asarray(predictions))


def normalize_scores(errors: np.ndarray, calibration: ScoreCalibration) -> np.ndarray:
    return (errors - calibration.median) / (calibration.iqr + IQR_EPS)


def aggregate_scores(sensor_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Series-level score (max over sensors) and the arg-max sensor index."""
    return sensor_scores.max(axis=1), sensor_scores.argmax(axis=1)


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average; early positions average what exists so far."""
    if window < 1:
        raise ValueError("moving-average window must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    # each mean sums its own terms, so its rounding does not grow with the
    # series' running total as a difference of prefix sums would
    width = min(window, values.size)
    if width == 0:
        return values.copy()
    padded = np.concatenate([np.zeros(width - 1), values])
    sums = np.lib.stride_tricks.sliding_window_view(padded, width).sum(axis=-1)
    return sums / np.minimum(np.arange(1, values.size + 1), window)


# ---------------------------------------------------------------------------
# metrics

@dataclass
class MetricsReport:
    precision: float
    recall: float
    f1: float
    true_positives: int
    false_positives: int
    false_negatives: int
    point_adjust: bool
    threshold: float
    n_scored: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _anomaly_segments(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and stops of the half-open [start, stop) runs of 1s."""
    padded = np.concatenate([[False], np.asarray(labels).astype(bool), [False]])
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[0::2], edges[1::2]


def point_adjust_predictions(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Credit a whole true segment when any point inside it is flagged."""
    adjusted = np.asarray(predicted).astype(bool).copy()
    truth = np.asarray(truth).astype(bool)
    starts, stops = _anomaly_segments(truth)
    hits = np.concatenate([[0], np.cumsum(adjusted & truth)])
    credited = hits[stops] > hits[starts]
    # the truth positions, in order, are the segments laid end to end
    adjusted[truth] |= np.repeat(credited, stops - starts)
    return adjusted


def evaluate(
    predicted: np.ndarray,
    truth: np.ndarray,
    *,
    point_adjust: bool = False,
    threshold: float = float("nan"),
) -> MetricsReport:
    predicted = np.asarray(predicted).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if predicted.shape != truth.shape:
        raise DataError(
            f"prediction/label length mismatch: {predicted.shape} vs {truth.shape}"
        )
    if point_adjust:
        predicted = point_adjust_predictions(predicted, truth)
    tp = int(np.sum(predicted & truth))
    fp = int(np.sum(predicted & ~truth))
    fn = int(np.sum(~predicted & truth))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricsReport(
        precision=precision, recall=recall, f1=f1,
        true_positives=tp, false_positives=fp, false_negatives=fn,
        point_adjust=point_adjust, threshold=float(threshold),
        n_scored=int(truth.size),
    )


def _count_above(sorted_values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """How many of `sorted_values` lie strictly above each threshold."""
    return sorted_values.size - np.searchsorted(sorted_values, thresholds, "right")


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den != 0, else 0.0, as `evaluate` divides."""
    out = np.zeros(num.shape)
    np.divide(num, den, out=out, where=den != 0)
    return out


def best_f1_threshold(
    scores: np.ndarray,
    truth: np.ndarray,
    *,
    point_adjust: bool = False,
) -> tuple[float, MetricsReport]:
    """Score every distinct score as a candidate threshold (labels: score > t).

    One sorted pass counts the flags of every candidate at once, in
    O(n log n). Returns the lowest threshold attaining the best F1 and the
    `evaluate` report at that threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth).astype(bool)
    if scores.shape != truth.shape:
        raise DataError(f"score/label length mismatch: {scores.shape} vs {truth.shape}")
    if scores.size == 0:
        raise DataError("no scores to choose a threshold from")
    if not np.isfinite(scores).all():
        raise DataError(f"{int(np.sum(~np.isfinite(scores)))} scores are not finite")
    # the distinct scores, ascending, as `np.unique` finds them without
    # importing numpy.ma
    thresholds = np.sort(scores)
    distinct = np.empty(thresholds.size, dtype=bool)
    distinct[0] = True
    np.not_equal(thresholds[1:], thresholds[:-1], out=distinct[1:])
    thresholds = thresholds[distinct]

    fp = _count_above(np.sort(scores[~truth]), thresholds)
    if point_adjust:
        # a segment is credited iff its maximum score is above t
        starts, stops = _anomaly_segments(truth)
        maxima = np.maximum.reduceat(np.where(truth, scores, -np.inf), starts)
        order = np.argsort(maxima)
        covered = np.concatenate([[0], np.cumsum((stops - starts)[order])])
        tp = covered[-1] - covered[np.searchsorted(maxima[order], thresholds, "right")]
    else:
        tp = _count_above(np.sort(scores[truth]), thresholds)
    fn = int(truth.sum()) - tp

    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = _ratio(2 * precision * recall, precision + recall)
    thr = thresholds[int(np.argmax(f1))]
    return float(thr), evaluate(scores > thr, truth, point_adjust=point_adjust,
                                threshold=thr)


# ---------------------------------------------------------------------------
# end-to-end scoring

@dataclass
class ScoreTrace:
    """Scores for the test span t in [t0, T); index i maps to time t0 + i."""

    t0: int
    errors: np.ndarray         # (n, sensors) absolute errors, normalized space
    sensor_scores: np.ndarray  # (n, sensors) calibrated scores
    scores: np.ndarray         # (n,) max over sensors
    smoothed: np.ndarray       # (n,) moving average of scores
    top_sensor: np.ndarray     # (n,) arg-max sensor index
    threshold: float
    threshold_mode: str
    labels_pred: np.ndarray    # (n,) bool
    labels_true: np.ndarray | None = None


def validation_threshold(checkpoint: Checkpoint, ma_window: int) -> float:
    """Max of the smoothed, calibrated validation scores."""
    calibration = ScoreCalibration.from_errors(checkpoint.val_errors)
    val_scores, _ = aggregate_scores(normalize_scores(checkpoint.val_errors, calibration))
    return float(moving_average(val_scores, ma_window).max())


def score_series(
    checkpoint: Checkpoint,
    test: SeriesMatrix,
    *,
    ma_window: int = 3,
    threshold_mode: str = "max_validation",
    fixed_value: float | None = None,
    point_adjust: bool = False,
    workers: int = 1,
) -> tuple[ScoreTrace, MetricsReport | None]:
    """Score a test series that directly continues the training series.

    Window phase is tracked globally: a window starting at local index s
    sits at absolute time train_length + s for slot assignment. Scores
    exist for t >= window (no window crosses the train/test boundary).
    The test sensors are matched to the checkpoint's by name, so columns
    in another order score as if in the training order; a missing or
    unexpected name is a DataError. `workers` is `Model.predict`'s thread
    count; the scores do not depend on it.
    """
    if threshold_mode not in THRESHOLD_MODES:
        raise ConfigError(f"unknown threshold mode {threshold_mode!r}")
    if threshold_mode == "fixed" and fixed_value is None:
        raise ConfigError("threshold mode 'fixed' needs a threshold value")
    if threshold_mode == "best_f1" and test.labels is None:
        raise ConfigError("threshold mode 'best_f1' needs labeled test data")
    config = checkpoint.config
    if test.n_sensors != config.n_sensors:
        raise DataError(
            f"test series has {test.n_sensors} sensors, model expects {config.n_sensors}"
        )
    names = checkpoint.meta["sensor_names"]
    if test.sensor_names != names:
        missing = [name for name in names if name not in test.sensor_names]
        unexpected = [name for name in test.sensor_names if name not in names]
        if missing or unexpected:
            raise DataError(f"test sensors do not match the checkpoint's: missing {missing}, "
                            f"unexpected {unexpected}")
        order = [test.sensor_names.index(name) for name in names]
        test = SeriesMatrix(test.values[order], names, test.labels)

    stats = checkpoint.normalization
    normalized = SeriesMatrix(stats.apply(test.values), test.sensor_names)
    batch = make_windows(normalized, config.window, stride=1)
    global_starts = checkpoint.meta["train_length"] + batch.window_start_indices
    slots = slot_ids_for_windows(global_starts, checkpoint.meta["period"], config.slots)
    adjacencies = build_adjacencies(
        checkpoint.params, config.slots, checkpoint.meta["neighbors"]
    )
    model = Model(config)
    preds = model.predict(
        batch.window_start_indices, normalized.values, slots, adjacencies,
        compute_params(checkpoint.params), workers=workers,
    )

    errors = sensor_errors(preds, batch.targets)
    calibration = ScoreCalibration.from_errors(checkpoint.val_errors)
    sensor_scores = normalize_scores(errors, calibration)
    scores, top_sensor = aggregate_scores(sensor_scores)
    smoothed = moving_average(scores, ma_window)

    t0 = config.window
    truth = test.labels[t0:] if test.labels is not None else None

    report: MetricsReport | None = None
    if threshold_mode == "max_validation":
        threshold = validation_threshold(checkpoint, ma_window)
    elif threshold_mode == "fixed":
        threshold = float(fixed_value)
    else:
        threshold, report = best_f1_threshold(smoothed, truth, point_adjust=point_adjust)
    labels_pred = smoothed > threshold
    if truth is not None and report is None:
        report = evaluate(labels_pred, truth, point_adjust=point_adjust, threshold=threshold)

    trace = ScoreTrace(
        t0=t0,
        errors=errors,
        sensor_scores=sensor_scores,
        scores=scores,
        smoothed=smoothed,
        top_sensor=top_sensor,
        threshold=float(threshold),
        threshold_mode=threshold_mode,
        labels_pred=labels_pred,
        labels_true=truth,
    )
    return trace, report
