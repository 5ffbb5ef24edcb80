"""Ablations and hyperparameter sweeps over the full train-score pipeline.

Each cell trains from scratch on the clean series and scores the labeled
continuation; results are F1 values averaged over seeds. Cells are
independent, so they can optionally run in a process pool without
changing any result.

`ablation_f1s` and `sweep_f1s` raise `ConfigError` before any cell trains
for an empty `seeds`, an unlabeled test series, an unknown variant or
axis, an empty sweep, or a variant or swept value whose config is invalid.
"""

from __future__ import annotations

import dataclasses
import logging

from .checkpoint import checkpoint_from_result
from .data import SeriesMatrix
from .errors import ConfigError
from .scoring import score_series
from .training import TrainConfig, pool_map, train, validate_cells

log = logging.getLogger(__name__)

ABLATION_VARIANTS = ("full", "static_graph", "no_temporal")
NEIGHBOR_SWEEP_DEFAULT = (10, 15, 20, 25, 30, 35, 40)
FILTER_SWEEP_DEFAULT = (4, 8, 16, 32, 64, 128)


def variant_config(base: TrainConfig, variant: str) -> TrainConfig:
    """Ablation variants: drop per-phase graphs, or drop the temporal branch."""
    if variant == "full":
        return base
    if variant == "static_graph":
        return dataclasses.replace(base, slots=1)
    if variant == "no_temporal":
        return dataclasses.replace(base, use_temporal=False)
    raise ConfigError(f"unknown ablation variant {variant!r}")


def axis_config(base: TrainConfig, axis: str, value: int) -> TrainConfig:
    """Sweep axes: neighbor budget k, or feature width (conv channels
    and attention output together)."""
    if axis == "neighbors":
        return dataclasses.replace(base, neighbors=int(value))
    if axis == "filters":
        return dataclasses.replace(base, channels=int(value), spatial_dim=int(value))
    raise ConfigError(f"unknown sweep axis {axis!r}")


def _require_labels(test_series: SeriesMatrix) -> None:
    if test_series.labels is None:
        raise ConfigError("experiment scoring needs labeled test data")


def train_and_score(
    train_series: SeriesMatrix,
    test_series: SeriesMatrix,
    config: TrainConfig,
    *,
    ma_window: int = 3,
    threshold_mode: str = "best_f1",
    fixed_value: float | None = None,
    point_adjust: bool = False,
) -> dict:
    """One full pipeline run; returns the detection metrics as a dict."""
    _require_labels(test_series)
    result = train(train_series, config)
    ckpt = checkpoint_from_result(result, train_series.sensor_names)
    _, metrics = score_series(
        ckpt, test_series,
        ma_window=ma_window, threshold_mode=threshold_mode,
        fixed_value=fixed_value, point_adjust=point_adjust,
    )
    return {
        "f1": metrics.f1,
        "precision": metrics.precision,
        "recall": metrics.recall,
        "threshold": metrics.threshold,
        "seed": config.seed,
        "best_epoch": result.report.best_epoch,
        "best_val_loss": result.report.best_val_loss,
    }


def _run_cell(args):
    train_series, test_series, config, score_kwargs = args
    return train_and_score(train_series, test_series, config, **score_kwargs)


def _mean_f1s(train_series, test_series, cells, seeds, workers, score_kwargs):
    """(mean F1 over seeds, per-seed cells) for each (label, config) of
    `cells`, in order; all of them are checked before any cell trains."""
    if not seeds:
        raise ConfigError("experiments need at least one seed")
    _require_labels(test_series)
    validate_cells(cells)
    jobs = [
        (train_series, test_series, dataclasses.replace(config, seed=seed), score_kwargs)
        for _, config in cells
        for seed in seeds
    ]
    results = pool_map(_run_cell, jobs, workers)
    out = []
    for i in range(0, len(results), len(seeds)):
        per_seed = results[i : i + len(seeds)]
        out.append((sum(c["f1"] for c in per_seed) / len(per_seed), per_seed))
    return out


def ablation_f1s(
    train_series: SeriesMatrix,
    test_series: SeriesMatrix,
    base_config: TrainConfig,
    *,
    seeds: tuple[int, ...] = (0,),
    variants: tuple[str, ...] = ABLATION_VARIANTS,
    workers: int = 1,
    **score_kwargs,
) -> dict[str, dict]:
    """F1 per ablation variant, averaged over seeds."""
    cells = [(f"ablation {variant}", variant_config(base_config, variant))
             for variant in variants]
    table: dict[str, dict] = {}
    for variant, (mean_f1, per_seed) in zip(
        variants, _mean_f1s(train_series, test_series, cells, seeds, workers, score_kwargs)
    ):
        table[variant] = {"mean_f1": mean_f1, "per_seed": per_seed}
        log.info("ablation %s: mean F1 %.4f", variant, mean_f1)
    return table


def sweep_f1s(
    train_series: SeriesMatrix,
    test_series: SeriesMatrix,
    base_config: TrainConfig,
    axis: str,
    values: tuple[int, ...],
    *,
    seeds: tuple[int, ...] = (0,),
    workers: int = 1,
    **score_kwargs,
) -> list[dict]:
    """F1 per swept value, averaged over seeds; rows keep sweep order."""
    if not values:
        raise ConfigError("sweep needs at least one value")
    cells = [(f"sweep {axis}={value}", axis_config(base_config, axis, value))
             for value in values]
    rows = []
    for value, (mean_f1, per_seed) in zip(
        values, _mean_f1s(train_series, test_series, cells, seeds, workers, score_kwargs)
    ):
        rows.append({"value": int(value), "mean_f1": mean_f1, "per_seed": per_seed})
        log.info("sweep %s=%d: mean F1 %.4f", axis, value, mean_f1)
    return rows
