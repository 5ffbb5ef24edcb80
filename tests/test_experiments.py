"""Unit coverage for the ablation/sweep cell builders."""

import pytest

from pgad import experiments
from pgad.data import SeriesMatrix, generate_synthetic
from pgad.errors import ConfigError
from pgad.experiments import (
    ablation_f1s,
    axis_config,
    sweep_f1s,
    train_and_score,
    variant_config,
)
from pgad.training import TrainConfig, grid_search

TINY = TrainConfig(
    window=16, neighbors=2, slots=2, epochs=1, patience=1, batch_size=16,
    embed_dim=8, spatial_dim=8, channels=2, temporal_dim=8, hidden_dim=16,
)


@pytest.fixture(scope="module")
def tiny_splits():
    full = generate_synthetic(4, 360, 12, 0.04, seed=3)
    return full.slice_time(0, 180), full.slice_time(180, 360)


class TestVariantConfig:
    def test_full_is_identity(self):
        assert variant_config(TINY, "full") is TINY

    def test_static_graph_collapses_slots(self):
        assert variant_config(TINY, "static_graph").slots == 1

    def test_no_temporal_disables_branch(self):
        assert variant_config(TINY, "no_temporal").use_temporal is False

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            variant_config(TINY, "no_graph")


class TestAxisConfig:
    def test_neighbors_axis(self):
        assert axis_config(TINY, "neighbors", 5).neighbors == 5

    def test_filters_axis_sets_both_widths(self):
        cfg = axis_config(TINY, "filters", 4)
        assert cfg.channels == 4
        assert cfg.spatial_dim == 4

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            axis_config(TINY, "depth", 2)


class TestCells:
    def test_train_and_score_reports_metrics(self, tiny_splits):
        cell = train_and_score(*tiny_splits, TINY, threshold_mode="best_f1")
        assert 0.0 <= cell["f1"] <= 1.0
        assert cell["seed"] == TINY.seed

    def test_unlabeled_test_rejected(self, tiny_splits):
        train_series, test_series = tiny_splits
        unlabeled = SeriesMatrix(test_series.values, test_series.sensor_names)
        with pytest.raises(ConfigError):
            train_and_score(train_series, unlabeled, TINY)

    def test_ablation_table_is_deterministic(self, tiny_splits):
        first = ablation_f1s(*tiny_splits, TINY, threshold_mode="best_f1")
        second = ablation_f1s(*tiny_splits, TINY, threshold_mode="best_f1")
        assert set(first) == {"full", "static_graph", "no_temporal"}
        for variant in first:
            assert first[variant]["mean_f1"] == second[variant]["mean_f1"]

    def test_sweep_rows_keep_order(self, tiny_splits):
        rows = sweep_f1s(
            *tiny_splits, TINY, "neighbors", (1, 2), threshold_mode="best_f1"
        )
        assert [row["value"] for row in rows] == [1, 2]
        assert all(len(row["per_seed"]) == 1 for row in rows)

    def test_empty_sweep_rejected(self, tiny_splits):
        with pytest.raises(ConfigError):
            sweep_f1s(*tiny_splits, TINY, "neighbors", ())

    @pytest.mark.parametrize("axis, values, message", [
        ("filters", (4, 0), "filters=0: spatial_dim must be positive"),
        ("neighbors", (2, 0), "neighbors=0: neighbors must be >= 1"),
    ], ids=["filters", "neighbors"])
    def test_invalid_swept_value_rejected_before_any_cell(self, tiny_splits, monkeypatch,
                                                          axis, values, message):
        """A swept value that makes an invalid config is a ConfigError
        naming the axis and value, raised before any cell trains, the valid
        values before it included."""
        trained = []
        monkeypatch.setattr(experiments, "train", lambda *args: trained.append(args))
        with pytest.raises(ConfigError, match=message):
            sweep_f1s(*tiny_splits, TINY, axis, values)
        assert trained == []

    @pytest.mark.parametrize("run", [
        ablation_f1s,
        lambda *args, **kwargs: sweep_f1s(*args, "neighbors", (1, 2), **kwargs),
    ], ids=["ablation", "sweep"])
    @pytest.mark.parametrize("seeds, labeled, message", [
        ((), True, "experiments need at least one seed"),
        ((0,), False, "experiment scoring needs labeled test data"),
    ], ids=["no-seeds", "unlabeled"])
    def test_bad_cells_rejected_before_any_cell(self, tiny_splits, monkeypatch, run,
                                                seeds, labeled, message):
        """Empty seeds and an unlabeled test series are ConfigErrors raised
        before any cell trains."""
        train_series, test_series = tiny_splits
        if not labeled:
            test_series = SeriesMatrix(test_series.values, test_series.sensor_names)
        trained = []
        monkeypatch.setattr(experiments, "train", lambda *args: trained.append(args))
        with pytest.raises(ConfigError, match=message):
            run(train_series, test_series, TINY, seeds=seeds, threshold_mode="best_f1")
        assert trained == []

    def test_process_pool_matches_serial(self, tiny_splits):
        serial, pooled = (
            grid_search(tiny_splits[0], TINY, lrs=(0.005, 0.0025), workers=w) for w in (1, 2)
        )
        assert pooled.best_lr == serial.best_lr
        assert pooled.entries == serial.entries
        assert pooled.result.report.checksum == serial.result.report.checksum
        serial, pooled = (
            ablation_f1s(*tiny_splits, TINY, workers=w, threshold_mode="best_f1")
            for w in (1, 2)
        )
        assert pooled == serial
        serial, pooled = (
            sweep_f1s(*tiny_splits, TINY, "neighbors", (1, 2), workers=w,
                      threshold_mode="best_f1")
            for w in (1, 2)
        )
        assert pooled == serial
