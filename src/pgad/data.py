"""CSV ingestion, normalization, sliding windows, and synthetic series.

The on-disk format is a plain UTF-8 CSV (a leading byte-order mark is
skipped): one header row with sensor names, one row per timestamp, `.` as
the decimal separator, and an optional ``label`` column holding {0,1}
anomaly marks. The synthetic generator writes the same format.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

LABEL_COLUMN = "label"

# Synthetic-series constants. Noise sigma is a fraction of each sensor's
# amplitude; injected deviations are multiples of that sigma so labeled
# points always clear the 3-sigma detectability floor. Length ranges are
# half-open (numpy integers semantics); level shifts run longer than
# noise bursts so a fixed anomaly budget yields few, well-separated
# events rather than many short boundary regions.
NOISE_FRACTION = 0.05
BURST_SIGMA_RANGE = (7.0, 12.0)
SHIFT_SIGMA_RANGE = (8.0, 13.0)
BURST_LENGTH_RANGE = (10, 21)
SHIFT_LENGTH_RANGE = (18, 37)
EVENT_MARGIN = 3


@dataclass
class SeriesMatrix:
    """An N x T multivariate series with optional per-timestamp labels."""

    values: np.ndarray
    sensor_names: list[str]
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError("series values must be 2-D (sensors x time)")
        n, t = self.values.shape
        if n < 1 or t < 2:
            raise DataError(f"series needs N >= 1 and T >= 2, got N={n}, T={t}")
        if not np.isfinite(self.values).all():
            raise DataError("series contains non-finite values")
        self.sensor_names = list(self.sensor_names)
        if len(self.sensor_names) != n:
            raise DataError(
                f"got {len(self.sensor_names)} sensor names for {n} sensors"
            )
        if len(set(self.sensor_names)) != n:
            repeated = sorted({name for name in self.sensor_names
                               if self.sensor_names.count(name) > 1})
            raise DataError(f"duplicate sensor names {repeated}")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (t,):
                raise DataError(
                    f"labels must have length T={t}, got shape {labels.shape}"
                )
            if not np.isin(labels, (0, 1)).all():
                raise DataError("labels must contain only 0 and 1")
            self.labels = labels.astype(np.int64)

    @property
    def n_sensors(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    def slice_time(self, start: int, stop: int) -> "SeriesMatrix":
        labels = None if self.labels is None else self.labels[start:stop]
        return SeriesMatrix(self.values[:, start:stop], self.sensor_names, labels)


def _csv_rows(reader, path):
    """The rows of the csv `reader`; a byte that is not UTF-8 or a cell the
    csv module rejects is a `DataError` naming `path`."""
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from None


def _numpy_cells(path, header_lines: int, n_columns: int) -> np.ndarray | None:
    """The (rows, n_columns) cell matrix of the CSV file below its first
    `header_lines` lines, parsed in one numpy call; None unless every cell
    parses and every row has n_columns cells. A line longer than the csv
    module's field limit is left to the csv parse, which rejects a field
    that long."""
    with open(path, "rb") as fh:
        if max(map(len, fh), default=0) > csv.field_size_limit():
            return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a file without data rows warns
        try:
            cells = np.loadtxt(path, delimiter=",", skiprows=header_lines, comments=None,
                               quotechar='"', ndmin=2, encoding="utf-8-sig")
        except ValueError:  # UnicodeDecodeError included
            return None
    return cells if cells.shape[0] and cells.shape[1] == n_columns else None


def _csv_cells(rows, header, label_idx) -> list[list[float]]:
    """The csv rows `rows` below the header parsed cell by cell; the first
    ragged row, non-numeric cell or label outside {0, 1} in a finite row is
    a `DataError` naming its row, 1-based among the data rows."""
    cells = []
    for r, row in enumerate(rows, start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"row {r} has {len(row)} cells, expected {len(header)}"
            )
        parsed = []
        for c, cell in enumerate(row, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataError(
                    f"non-numeric value {cell.strip()!r} at row {r}, "
                    f"column {c} ({header[c - 1]!r})"
                ) from None
        if label_idx is not None and all(map(math.isfinite, parsed)) \
                and parsed[label_idx] not in (0.0, 1.0):
            raise DataError(
                f"label at row {r} must be 0 or 1, got {parsed[label_idx]}"
            )
        cells.append(parsed)
    return cells


def _labels_valid(cells: np.ndarray, label_idx) -> bool:
    finite = np.isfinite(cells).all(axis=1)
    return label_idx is None or bool(np.isin(cells[finite, label_idx], (0.0, 1.0)).all())


def ingest_csv(path) -> SeriesMatrix:
    """Read a series CSV; the ``label`` column, when present, is taken as
    the label vector. A UTF-8 byte-order mark before the header is skipped.

    Rows containing NaN/Inf are dropped (counted in a warning). A cell
    that does not parse as a number is a hard error naming its row and
    column; row numbers count data rows, 1-based. A well-formed file's
    cells are parsed in one numpy call; any other file takes the cell by
    cell csv parse, which finds its first error.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = _csv_rows(reader, path)
        try:
            header = next(rows)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        header = [name.strip() for name in header]
        label_idx = header.index(LABEL_COLUMN) if LABEL_COLUMN in header else None
        sensor_names = [n for i, n in enumerate(header) if i != label_idx]

        cells = _numpy_cells(path, reader.line_num, len(header))
        if cells is None or not _labels_valid(cells, label_idx):
            parsed = _csv_cells(rows, header, label_idx)
            cells = np.array(parsed, dtype=np.float64).reshape(len(parsed), len(header))
    finite = np.isfinite(cells).all(axis=1)
    dropped = int(finite.size - finite.sum())
    if dropped:
        logger.warning("%s: dropped %d rows with non-finite values", path, dropped)
    if finite.sum() < 2:
        raise DataError(f"{path} has fewer than 2 usable rows")
    cells = cells[finite]
    label_vec = None
    if label_idx is not None:
        label_vec = cells[:, label_idx].astype(np.int64)
        cells = np.delete(cells, label_idx, axis=1)
    return SeriesMatrix(cells.T, sensor_names, label_vec)


def write_csv(series: SeriesMatrix, path) -> None:
    """Write a series in the same CSV format `ingest_csv` reads."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    header = list(series.sensor_names)
    rows = (",".join(map(repr, row)) for row in series.values.T.tolist())
    if series.labels is not None:
        header.append(LABEL_COLUMN)
        rows = (f"{row},{label}" for row, label in zip(rows, series.labels.tolist()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # csv quotes the names; a float's repr needs none, and "\r\n" is csv's line end
        csv.writer(fh).writerow(header)
        fh.writelines(row + "\r\n" for row in rows)


NORMALIZATION_MODES = ("minmax", "zscore")


@dataclass
class NormalizationStats:
    """Per-sensor affine normalization fitted on training data only.

    ``shift``/``scale`` are the per-sensor offset and span: min and
    (max - min) for minmax, mean and population std for zscore. A zero
    scale (constant sensor) maps to 0.
    """

    mode: str
    shift: np.ndarray
    scale: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        out = values - self.shift[:, None]
        safe = np.where(self.scale > 0, self.scale, 1.0)
        out = out / safe[:, None]
        out[self.scale == 0, :] = 0.0
        return out


def fit_normalizer(train: SeriesMatrix, mode: str = "minmax") -> NormalizationStats:
    """Fit minmax ([0,1] per sensor) or zscore (mean 0, population std 1)."""
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode: {mode!r}")
    if train.length < 2:
        raise DataError("need at least 2 timestamps to fit a normalizer")
    if mode == "minmax":
        lo = train.values.min(axis=1)
        hi = train.values.max(axis=1)
        return NormalizationStats(mode, lo, hi - lo)
    mean = train.values.mean(axis=1)
    std = train.values.std(axis=1)
    return NormalizationStats(mode, mean, std)


@dataclass
class WindowBatch:
    """Sliding windows paired with the value at the following timestamp.

    `windows` is a read-only strided view of the series values and
    `targets` a view of them too; neither is a copy.
    """

    windows: np.ndarray              # (B, N, w)
    targets: np.ndarray              # (B, N)
    window_start_indices: np.ndarray  # (B,)

    @property
    def n_windows(self) -> int:
        return self.windows.shape[0]


def make_windows(series: SeriesMatrix, window: int, stride: int = 1) -> WindowBatch:
    """Cut contiguous length-`window` slices, each targeting the next step."""
    if window < 1 or stride < 1:
        raise DataError("window and stride must be positive")
    if window + 1 > series.length:
        raise DataError(
            f"window {window} leaves no target in a series of length {series.length}"
        )
    values = series.values
    # the last view starts at T - window and has no target, so it is cut
    windows = np.lib.stride_tricks.sliding_window_view(values, window, axis=1)[:, :-1:stride]
    targets = values[:, window::stride].T
    starts = np.arange(targets.shape[0]) * stride
    return WindowBatch(windows.transpose(1, 0, 2), targets, starts)


def _find_event_start(rng, soft_blocked, hard_blocked, length, lo):
    """Pick a start index for an event; random placement with a margin
    first, then a scan that only avoids hard overlaps."""
    hi = len(hard_blocked) - length
    if hi < lo:
        return None
    for _ in range(200):
        start = int(rng.integers(lo, hi + 1))
        if not soft_blocked[start : start + length].any():
            return start
    offset = int(rng.integers(lo, hi + 1))
    for start in list(range(offset, hi + 1)) + list(range(lo, offset)):
        if not hard_blocked[start : start + length].any():
            return start
    return None


def generate_synthetic(
    n_sensors: int,
    length: int,
    period: int,
    anomaly_rate: float,
    seed: int,
) -> SeriesMatrix:
    """Deterministic labeled benchmark series.

    Sensors are phase-shifted periodic signals in two correlated groups
    (the second group carries a harmonic, so cross-group relations vary
    within a period) plus Gaussian noise. Anomalies are noise bursts and
    level shifts injected only into the second half of the series, so the
    first half can serve as clean training data; round(rate * length)
    timestamps get labeled, each deviating from the clean signal by well
    over 3 noise sigma on the affected sensors.
    """
    if n_sensors < 1:
        raise DataError("need at least one sensor")
    if period < 2:
        raise DataError(f"period must be >= 2, got {period}")
    if not 0.0 <= anomaly_rate <= 0.2:
        raise DataError(f"anomaly_rate must be in [0, 0.2], got {anomaly_rate}")
    if length < 4:
        raise DataError(f"length must be >= 4, got {length}")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")

    base_rng, anom_rng = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    ]
    phase = 2.0 * np.pi * np.arange(length) / period
    amps = base_rng.uniform(0.8, 1.2, n_sensors)
    jitter = base_rng.uniform(-0.05, 0.05, n_sensors) * 2.0 * np.pi
    group_a = (n_sensors + 1) // 2

    clean = np.empty((n_sensors, length))
    for i in range(n_sensors):
        ph = phase + jitter[i]
        if i < group_a:
            base = np.sin(ph)
        else:
            base = 0.7 * np.sin(ph + np.pi / 2) + 0.3 * np.sin(2.0 * ph)
        clean[i] = amps[i] * base

    sigma = NOISE_FRACTION * amps
    values = clean + base_rng.normal(0.0, 1.0, (n_sensors, length)) * sigma[:, None]
    labels = np.zeros(length, dtype=np.int64)

    budget = int(round(anomaly_rate * length))
    if budget > 0:
        half = length // 2
        hard = np.zeros(length, dtype=bool)
        soft = np.zeros(length, dtype=bool)
        max_affected = max(1, n_sensors // 4)
        remaining = budget
        while remaining > 0:
            is_burst = anom_rng.random() < 0.6
            length_range = BURST_LENGTH_RANGE if is_burst else SHIFT_LENGTH_RANGE
            ev_len = min(remaining, int(anom_rng.integers(*length_range)))
            start = None
            while ev_len >= 1:
                start = _find_event_start(anom_rng, soft, hard, ev_len, half)
                if start is not None:
                    break
                ev_len -= 1
            if start is None:
                # second half is full; with rate capped at 0.2 this does
                # not happen, but never loop forever
                break
            span = slice(start, start + ev_len)
            n_affected = int(anom_rng.integers(1, max_affected + 1))
            sensors = anom_rng.choice(n_sensors, size=n_affected, replace=False)
            for s in np.sort(sensors):
                sign = anom_rng.choice((-1.0, 1.0))
                if is_burst:
                    mag = anom_rng.uniform(*BURST_SIGMA_RANGE, ev_len)
                    flip = anom_rng.choice((-1.0, 1.0), ev_len)
                    delta = sign * flip * mag * sigma[s]
                else:
                    delta = sign * anom_rng.uniform(*SHIFT_SIGMA_RANGE) * sigma[s]
                # replace rather than add: the labeled deviation from the
                # clean signal is then exactly |delta|, never eroded by noise
                values[s, span] = clean[s, span] + delta
            labels[span] = 1
            hard[span] = True
            lo = max(0, start - EVENT_MARGIN)
            soft[lo : start + ev_len + EVENT_MARGIN] = True
            remaining -= ev_len

    names = [f"s{i}" for i in range(n_sensors)]
    return SeriesMatrix(values, names, labels)
