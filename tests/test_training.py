"""Loss, optimizer, and the training loop on small synthetic series."""

import concurrent.futures
import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from pgad import _BLAS_THREAD_VARS, training
from pgad.data import generate_synthetic
from pgad.errors import ConfigError, DataError, DivergenceError
from pgad.graph import build_adjacencies, slot_ids_for_windows
from pgad import model as model_module
from pgad.model import (
    BATCH_ROWS,
    Model,
    ModelConfig,
    attention_backward,
    attention_coefficients,
    compute_params,
)
from pgad.training import (
    TrainConfig,
    TrainState,
    adam_step,
    batch_step,
    clip_gradients,
    grid_search,
    param_checksum,
    pool_map,
    train,
)

from helpers import (
    analytic_gradients,
    assign_slot,
    grad_rel_err,
    has_glibc,
    l2_loss,
    per_array_adam_step,
    random_instance,
    repeated_predict_faults,
    start_environ,
    tiny_model_config,
    trace_grads,
    traced_peak,
    whole_batch_step,
)

SMALL_CONFIG = TrainConfig(
    window=24, neighbors=3, slots=2, epochs=6, patience=6, batch_size=32,
    embed_dim=8, spatial_dim=8, channels=2, temporal_dim=8, hidden_dim=16,
)


def small_series(seed=1, n=4, length=480):
    return generate_synthetic(n, length, 24, 0.0, seed=seed)


class TestL2Loss:
    """The whole-batch loss of `helpers.l2_loss`, the oracle of `batch_step`."""

    def test_perfect_prediction_is_zero(self):
        loss, grad = l2_loss(np.ones((2, 3)), np.ones((2, 3)))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_uniform_offset_is_one(self):
        target = np.arange(6.0).reshape(2, 3)
        loss, _ = l2_loss(target + 1.0, target)
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_hand_fixture(self):
        loss, grad = l2_loss(np.array([[1.0, 2.0]]), np.array([[3.0, 2.0]]))
        assert loss == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(grad, [[-2.0, 0.0]], atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))
        _, grad = l2_loss(pred, target)
        step = 1e-6
        for i in range(3):
            for j in range(4):
                bumped = pred.copy()
                bumped[i, j] += step
                up, _ = l2_loss(bumped, target)
                bumped[i, j] -= 2 * step
                down, _ = l2_loss(bumped, target)
                fd = (up - down) / (2 * step)
                assert grad[i, j] == pytest.approx(fd, abs=1e-6)


class TestClipGradients:
    def test_large_gradients_scaled_to_cap(self):
        grads = {"a": np.array([3.0, 4.0])}
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(grads["a"], [0.6, 0.8], atol=1e-12)

    def test_small_gradients_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        clip_gradients(grads, 1.0)
        np.testing.assert_allclose(grads["a"], [0.3, 0.4], atol=1e-15)

    def test_zero_cap_disables_clipping(self):
        grads = {"a": np.array([30.0, 40.0])}
        norm = clip_gradients(grads, 0.0)
        assert norm == pytest.approx(50.0)
        np.testing.assert_array_equal(grads["a"], [30.0, 40.0])


class TestAdam:
    def test_zero_gradient_is_a_no_op(self):
        state = TrainState({"a": np.array([1.0, -2.0])})
        adam_step(state, lr=0.1)
        np.testing.assert_array_equal(state.params["a"], [1.0, -2.0])

    def test_first_step_closed_form(self):
        state = TrainState({"a": np.array(1.0)})
        state.grads["a"][...] = 1.0
        adam_step(state, lr=0.1)
        assert float(state.params["a"]) == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-12)

    def test_identical_params_stay_identical(self):
        rng = np.random.default_rng(1)
        start = rng.normal(size=4)
        state = TrainState({"a": start, "b": start})
        for _ in range(50):
            g = rng.normal(size=4)
            state.grads["a"][...] = g
            state.grads["b"][...] = g
            adam_step(state, lr=0.01)
        np.testing.assert_array_equal(state.params["a"], state.params["b"])

    def test_matches_the_per_array_update_bit_for_bit(self):
        rng = np.random.default_rng(2)
        params = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4), "c": np.array(0.5)}
        state = TrainState(params)
        m = {name: np.zeros_like(p) for name, p in params.items()}
        v = {name: np.zeros_like(p) for name, p in params.items()}
        for t in range(1, 31):
            grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=p.shape)
                     for name, p in params.items()}
            for name, g in grads.items():
                state.grads[name][...] = g
            adam_step(state, lr=0.01)
            per_array_adam_step(params, grads, m, v, t, lr=0.01)
        for name, p in params.items():
            np.testing.assert_array_equal(state.params[name], p)
        np.testing.assert_array_equal(state.m, np.concatenate([np.ravel(a) for a in m.values()]))
        np.testing.assert_array_equal(state.v, np.concatenate([np.ravel(a) for a in v.values()]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_update_names_the_parameter(self):
        state = TrainState({"fine": np.ones(3), "bad_one": np.array([1.0]), "later": np.ones(2)})
        state.grads["bad_one"][...] = np.inf
        with pytest.raises(DivergenceError, match="parameter bad_one "):
            adam_step(state, lr=0.1)


class TestTrainState:
    def test_views_hold_the_params_in_order(self):
        params = {"w": np.arange(6.0).reshape(2, 3), "b": np.array(7.0), "v": np.ones(2)}
        state = TrainState(params)
        np.testing.assert_array_equal(state.param_vec, [0, 1, 2, 3, 4, 5, 7, 1, 1])
        assert list(state.params) == list(state.grads) == list(params)
        for name, p in params.items():
            assert state.params[name].shape == state.grads[name].shape == p.shape
            np.testing.assert_array_equal(state.params[name], p)
            assert not np.shares_memory(state.params[name], p)
        np.testing.assert_array_equal(state.grad_vec, 0.0)

    def test_consecutive_steps_give_a_fresh_states_grads(self):
        """Each step zeroes the gradient vector before its backward adds
        into it, so a step's grads do not carry the last step's."""
        model, params, windows, slot_ids, adjacencies, targets = step_instance(8, 12)
        state = TrainState(params)
        batch_step(model, windows[:6], slot_ids[:6], targets[:6], adjacencies, state)
        clip_gradients(state.grads, 1.0)
        adam_step(state, lr=0.01)
        fresh = TrainState(state.params)
        for s in (state, fresh):
            batch_step(model, windows[6:], slot_ids[6:], targets[6:], adjacencies, s)
        assert np.abs(fresh.grad_vec).max() > 0.0
        np.testing.assert_array_equal(state.grad_vec, fresh.grad_vec)


class TestChecksum:
    def test_checksum_tracks_values_and_order(self):
        params = {"a": np.arange(3.0), "b": np.ones(2)}
        base = param_checksum(params, ["a", "b"])
        assert base == param_checksum(params, ["a", "b"])
        assert base != param_checksum(params, ["b", "a"])
        params["a"][0] += 1e-9
        assert base != param_checksum(params, ["a", "b"])


class TestSgdSmoothness:
    def test_small_step_never_increases_loss(self):
        for restart in range(20):
            config = tiny_model_config(slots=1 + restart % 2)
            inst = random_instance(100 + restart, config, batch=4)
            model, params, windows, slot_ids, adjacencies, targets = inst
            preds, _ = model.forward(windows, slot_ids, adjacencies, params)
            before, _ = l2_loss(preds, targets)
            grads = analytic_gradients(*inst)
            for name in params:
                params[name] -= 1e-4 * grads[name]
            preds, _ = model.forward(windows, slot_ids, adjacencies, params)
            after, _ = l2_loss(preds, targets)
            assert after <= before + 1e-12


class TestSlotRouting:
    def test_matches_scalar_assignment(self):
        starts = np.arange(0, 200, 7)
        ids = slot_ids_for_windows(starts, 24, 4)
        expected = [assign_slot(int(t), 24, 4) for t in starts]
        np.testing.assert_array_equal(ids, expected)

    def test_degenerate_embeddings_raise_divergence(self):
        params = {"emb_0": np.zeros((4, 3))}
        with pytest.raises(DivergenceError, match="slot 0"):
            build_adjacencies(params, 1, 2)


class TestTrainLoop:
    def test_validation_loss_halves_on_periodic_data(self):
        result = train(small_series(), SMALL_CONFIG)
        curve = result.report.epochs
        assert curve[0]["epoch"] == 0
        assert result.report.best_val_loss <= 0.5 * curve[0]["val_loss"]

    def test_best_val_loss_is_curve_minimum(self):
        result = train(small_series(), SMALL_CONFIG)
        vals = [row["val_loss"] for row in result.report.epochs]
        assert result.report.best_val_loss == min(vals)
        assert vals[result.report.best_epoch] == result.report.best_val_loss

    def test_stored_val_errors_reproduce_from_params(self):
        result = train(small_series(), SMALL_CONFIG)
        model = Model(result.model_config)
        adjacencies = build_adjacencies(
            result.params, result.model_config.slots, result.neighbors_effective
        )
        from pgad.data import SeriesMatrix, make_windows

        series = small_series()
        stats = result.normalization
        normalized = SeriesMatrix(stats.apply(series.values), series.sensor_names)
        batch = make_windows(normalized, SMALL_CONFIG.window)
        n_val = result.report.n_val
        slots = slot_ids_for_windows(
            batch.window_start_indices, result.report.period, SMALL_CONFIG.slots
        )
        preds = model.predict(
            batch.window_start_indices[-n_val:], normalized.values, slots[-n_val:],
            adjacencies, compute_params(result.params),
        )
        errors = np.abs(preds - batch.targets[-n_val:])
        np.testing.assert_array_equal(errors, result.val_errors)

    def test_same_seed_reproduces_checksum_and_curve(self):
        a = train(small_series(), SMALL_CONFIG)
        b = train(small_series(), SMALL_CONFIG)
        assert a.report.checksum == b.report.checksum
        assert [r["val_loss"] for r in a.report.epochs] == [
            r["val_loss"] for r in b.report.epochs
        ]

    def test_different_seed_changes_checksum(self):
        a = train(small_series(), SMALL_CONFIG)
        b = train(small_series(), dataclasses.replace(SMALL_CONFIG, seed=5))
        assert a.report.checksum != b.report.checksum

    def test_zero_epochs_returns_initial_params(self):
        config = dataclasses.replace(SMALL_CONFIG, epochs=0)
        result = train(small_series(), config)
        assert len(result.report.epochs) == 1
        assert result.report.best_epoch == 0
        model = Model(result.model_config)
        fresh = model.init_params(np.random.default_rng(config.seed))
        order = list(model.param_shapes())
        assert result.report.checksum == param_checksum(fresh, order)

    def test_early_stopping_flag(self):
        config = dataclasses.replace(SMALL_CONFIG, epochs=20, patience=2, lr=0.05)
        result = train(small_series(), config)
        if result.report.stopped_early:
            assert len(result.report.epochs) - 1 < 20
        else:
            assert len(result.report.epochs) - 1 == 20

    def test_early_stop_comes_patience_epochs_after_the_best(self):
        config = dataclasses.replace(SMALL_CONFIG, epochs=20, patience=2, lr=0.05)
        report = train(small_series(), config).report
        assert report.stopped_early
        assert len(report.epochs) - 1 == report.best_epoch + config.patience

    def test_epoch_zero_train_loss_is_predict_error_at_init(self):
        from pgad.data import SeriesMatrix, fit_normalizer, make_windows

        series = small_series()
        report = train(series, dataclasses.replace(SMALL_CONFIG, epochs=1, patience=1)).report
        stats = fit_normalizer(series, SMALL_CONFIG.normalization)
        normalized = SeriesMatrix(stats.apply(series.values), series.sensor_names)
        batch = make_windows(normalized, SMALL_CONFIG.window)
        n_fit = report.n_windows - report.n_val
        starts = batch.window_start_indices[:n_fit]
        model = Model(SMALL_CONFIG.model_config(series.n_sensors))
        params = model.init_params(np.random.default_rng(SMALL_CONFIG.seed))
        adjacencies = build_adjacencies(params, SMALL_CONFIG.slots, report.neighbors_effective)
        preds = model.predict(starts, normalized.values,
                              slot_ids_for_windows(starts, report.period, SMALL_CONFIG.slots),
                              adjacencies, compute_params(params))
        diff = preds - batch.targets[:n_fit]
        assert report.epochs[0]["train_loss"] == float(np.mean(diff * diff))

    def test_divergence_report_holds_every_epoch_before_the_failing_one(self, monkeypatch):
        """Validation predicts once per epoch after epoch 0's two calls, so
        the fourth call is epoch 2's."""
        calls = []
        real = Model.predict

        def failing_in_epoch_two(self, *args, **kwargs):
            calls.append(None)
            preds = real(self, *args, **kwargs)
            return preds * np.nan if len(calls) == 4 else preds

        monkeypatch.setattr(Model, "predict", failing_in_epoch_two)
        with pytest.raises(DivergenceError, match="non-finite in epoch 2") as err:
            train(small_series(), SMALL_CONFIG)
        report = err.value.report
        assert [row["epoch"] for row in report.epochs] == [0, 1]
        assert report.wall_clock_seconds > 0

    def test_val_split_size_and_error_rows(self):
        result = train(small_series(), SMALL_CONFIG)
        n_windows = 480 - 24
        expected_val = max(4, round(0.1 * n_windows))
        assert result.report.n_windows == n_windows
        assert result.report.n_val == expected_val
        assert result.val_errors.shape == (expected_val, 4)
        assert (result.val_errors >= 0.0).all()

    def test_neighbors_clamped_to_sensor_count(self):
        config = dataclasses.replace(SMALL_CONFIG, neighbors=15)
        result = train(small_series(), config)
        assert result.neighbors_effective == 3

    def test_too_few_windows_rejected(self):
        with pytest.raises(DataError):
            train(small_series(length=28), SMALL_CONFIG)

    def test_single_sensor_rejected(self):
        with pytest.raises(DataError):
            train(small_series(n=1), SMALL_CONFIG)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_carries_partial_report(self):
        # layer norm keeps moderately huge weights finite, so a truly
        # absurd step size is needed to overflow float64
        config = dataclasses.replace(
            SMALL_CONFIG, lr=1e100, grad_clip=0.0, epochs=3, patience=3
        )
        with pytest.raises(DivergenceError) as err:
            train(small_series(), config)
        assert err.value.report is not None
        assert err.value.report.epochs


def step_instance(n, batch, seed=0):
    config = tiny_model_config(n_sensors=n, window=16, embed_dim=8, spatial_dim=8,
                               temporal_dim=8, hidden_dim=16, slots=3)
    return random_instance(seed, config, batch=batch, k=5)


def recorded_forward_sizes(model):
    """Makes `model.forward` record the window count of every call."""
    sizes = []
    forward = model.forward

    def recording(windows, *args):
        sizes.append(len(windows))
        return forward(windows, *args)

    model.forward = recording
    return sizes


class TestBatchStep:
    @pytest.mark.parametrize("n, batch, sizes", [
        (8, 32, [32]),
        (8, 65, [33, 32]),
        (51, 10, [10]),
        (51, 11, [6, 5]),
        (51, 32, [8, 8, 8, 8]),
        (BATCH_ROWS + 1, 3, [1, 1, 1]),
    ])
    def test_micro_batches_are_cut_from_batch_and_sensor_count(self, n, batch, sizes):
        model, params, windows, slot_ids, adjacencies, targets = step_instance(n, batch)
        seen = recorded_forward_sizes(model)
        batch_step(model, windows, slot_ids, targets, adjacencies, TrainState(params))
        assert seen == sizes

    @pytest.mark.parametrize("n, batch", [(4, 3), (8, 32), (51, 10)])
    def test_one_micro_batch_is_the_whole_batch_step(self, n, batch):
        model, params, windows, slot_ids, adjacencies, targets = step_instance(n, batch)
        state = TrainState(params)
        loss = batch_step(model, windows, slot_ids, targets, adjacencies, state)
        grads = state.grads
        want_loss, want = whole_batch_step(model, params, windows, slot_ids, adjacencies,
                                           targets)
        assert loss == want_loss
        assert list(grads) == list(want)
        for name in want:
            np.testing.assert_array_equal(grads[name], want[name])

    @pytest.mark.parametrize("n, batch, count", [(51, 32, 4), (BATCH_ROWS + 1, 3, 3)])
    def test_grads_are_the_in_order_sum_of_micro_batches(self, n, batch, count):
        """The block grads are the in-order sums of each micro-batch's
        `Model.backward`; each slot's attention backward runs once, on the
        in-order sum of its micro-batches' d(loss)/d(alpha)."""
        model, params, windows, slot_ids, adjacencies, targets = step_instance(n, batch)
        state = TrainState(params)
        loss = batch_step(model, windows, slot_ids, targets, adjacencies, state)
        grads = state.grads
        diffs, summed, d_alphas, mix = [], {}, {}, np.zeros_like(params["att_w"])
        for part in np.array_split(np.arange(batch), count):
            preds, trace = model.forward(windows[part], slot_ids[part], adjacencies, params)
            diffs.append(preds - targets[part])
            d_pred = (2.0 / targets.size) * diffs[-1]
            for name, grad in trace_grads(model, trace, d_pred, params).items():
                summed[name] = grad if name not in summed else summed[name] + grad
            part_grads = {name: np.zeros_like(p) for name, p in params.items()}
            part_d_alphas = {g["slot"]: np.zeros_like(g["att"]["alpha"]) for g in trace.groups}
            _, trace = model.forward(windows[part], slot_ids[part], adjacencies, params)
            model.backward(trace, d_pred, params, part_grads, part_d_alphas)
            mix += part_grads["att_w"]
            for slot, d_alpha in part_d_alphas.items():
                d_alphas[slot] = d_alpha if slot not in d_alphas else d_alphas[slot] + d_alpha
        diff = np.concatenate(diffs)
        assert loss == float(np.mean(diff * diff))

        want = {name: np.zeros_like(p) for name, p in params.items()
                if name.startswith(("att_", "emb_"))}
        for slot in sorted(d_alphas):
            emb = f"emb_{slot}"
            att = attention_coefficients(params[emb], adjacencies[slot], params["att_w"],
                                         params["att_a"], model.config.leaky_slope)
            d_att_w, d_att_a, want[emb] = attention_backward(
                att, d_alphas[slot], params[emb], params["att_w"], params["att_a"],
                model.config.leaky_slope)
            want["att_w"] += d_att_w
            want["att_a"] += d_att_a
        want["att_w"] += mix
        assert list(grads) == list(params)
        for name in params:
            np.testing.assert_array_equal(grads[name], want.get(name, summed[name]))
            assert grad_rel_err(grads[name], summed[name]) <= 1e-12, name

        whole_loss, whole = whole_batch_step(model, params, windows, slot_ids, adjacencies,
                                             targets)
        assert abs(loss - whole_loss) <= 1e-12 * whole_loss
        for name in whole:
            assert grad_rel_err(grads[name], whole[name]) <= 1e-12, name

    def test_peak_holds_one_micro_batch_trace(self):
        """N=51, B=32 runs four micro-batches of 8 windows. A micro-batch's
        conv features t_flat are its largest array, and backward forms one
        grad of their size. Each trace is dropped after its backward, and
        backward releases t_flat before it forms that grad, so the step's
        peak stays below 2.5 times one micro-batch's t_flat."""
        config = ModelConfig(n_sensors=51)
        model, params, windows, slot_ids, adjacencies, targets = random_instance(
            0, config, batch=32, k=15)
        state = TrainState(params)
        batch_step(model, windows, slot_ids, targets, adjacencies, state)
        _, peak = traced_peak(batch_step, model, windows, slot_ids, targets, adjacencies, state)
        t_flat = 8 * 51 * config.temporal_flat_dim() * 8
        assert peak <= 2.5 * t_flat

    def test_attention_runs_once_per_slot_per_step(self, monkeypatch):
        model, params, windows, slot_ids, adjacencies, targets = step_instance(51, 32)
        calls = {"attention_coefficients": 0, "attention_backward": 0}
        for name in calls:
            original = getattr(model_module, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(model_module, name, counting)
        batch_step(model, windows, slot_ids, targets, adjacencies, TrainState(params))
        present = len(np.unique(slot_ids))
        assert calls == {"attention_coefficients": present, "attention_backward": present}


class TestMicroBatchedTraining:
    def test_train_steps_run_in_micro_batches(self, monkeypatch):
        # 51 sensors and batch 32 make four micro-batches of 8 windows per step
        config = dataclasses.replace(SMALL_CONFIG, epochs=1, patience=1)
        model_forward = Model.forward
        sizes = []

        def recording(self, windows, *args):
            sizes.append(len(windows))
            return model_forward(self, windows, *args)

        monkeypatch.setattr(Model, "forward", recording)
        train(small_series(n=51, length=240), config)
        assert sizes[:4] == [8, 8, 8, 8]
        assert max(sizes) == 8


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(window=1),
            dict(stride=0),
            dict(neighbors=0),
            dict(epochs=-1),
            dict(patience=0),
            dict(epochs=5, patience=6),
            dict(batch_size=0),
            dict(lr=0.0),
            dict(lr=float("nan")),
            dict(lr=float("inf")),
            dict(normalization="robust"),
            dict(grad_clip=-1.0),
            dict(grad_clip=float("nan")),
            dict(grad_clip=float("inf")),
            dict(val_fraction=0.8),
            dict(seed=-1),
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL_CONFIG, **overrides).validate()

    def test_default_config_is_valid(self):
        TrainConfig().validate()


class TestGridSearch:
    def test_single_point_grid_equals_train(self):
        grid = grid_search(small_series(), SMALL_CONFIG, lrs=(0.0025,))
        direct = train(small_series(), SMALL_CONFIG)
        assert grid.best_lr == 0.0025
        assert grid.result.report.checksum == direct.report.checksum
        assert len(grid.entries) == 1

    def test_picks_lowest_validation_loss(self):
        grid = grid_search(small_series(), SMALL_CONFIG, lrs=(0.0025, 0.005))
        assert len(grid.entries) == 2
        ok = [e for e in grid.entries if e["error"] is None]
        best = min(ok, key=lambda e: (e["val_loss"], e["lr"]))
        assert grid.best_lr == best["lr"]
        assert grid.result.report.best_val_loss == best["val_loss"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_cells_diverging_raises(self):
        config = dataclasses.replace(
            SMALL_CONFIG, grad_clip=0.0, epochs=2, patience=2
        )
        with pytest.raises(DivergenceError, match="no successful configuration"):
            grid_search(small_series(), config, lrs=(1e100, 1e120))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search(small_series(), SMALL_CONFIG, lrs=())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_rate_rejected_before_any_cell(self, monkeypatch, workers):
        """A rate that is not positive and finite is a ConfigError naming
        it, raised before any cell trains, the valid rate before it
        included."""
        trained, pooled = [], []
        monkeypatch.setattr(training, "train", lambda *args: trained.append(args))
        monkeypatch.setattr(training, "pool_map", lambda *args: pooled.append(args) or [])
        message = r"^learning-rate grid: lr must be positive and finite, got -1\.0$"
        with pytest.raises(ConfigError, match=message):
            grid_search(small_series(), SMALL_CONFIG, lrs=(0.01, -1.0), workers=workers)
        assert trained == [] and pooled == []


class TestPoolMap:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The max_workers of every ProcessPoolExecutor started."""
        sizes = []
        real = concurrent.futures.ProcessPoolExecutor

        class Recording(real):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        return sizes

    def test_pool_has_no_more_processes_than_jobs(self, pool_sizes):
        assert pool_map(abs, [-1, -2], workers=8) == [1, 2]
        assert pool_sizes == [2]

    @pytest.mark.skipif(not Path("/proc/self/environ").exists(),
                        reason="reads each worker's start-up environment from /proc")
    @pytest.mark.parametrize("caller, expected", [
        ({}, dict.fromkeys(_BLAS_THREAD_VARS, "1")),
        ({"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2",
                                    "MKL_NUM_THREADS": None}),
    ], ids=["unset", "caller-sets-one"])
    def test_workers_start_with_blas_pinned(self, monkeypatch, caller, expected):
        """Workers start with BLAS pinned to one thread unless the caller
        sets a thread count, even when numpy loaded before `pgad.cli`; the
        caller's environment is left as it was."""
        for var in _BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in caller.items():
            monkeypatch.setenv(var, value)
        before = dict(os.environ)
        jobs = [var for var in _BLAS_THREAD_VARS for _ in range(2)]
        seen = pool_map(start_environ, jobs, workers=2)
        assert seen == [expected[var] for var in jobs]
        assert dict(os.environ) == before

    @pytest.mark.skipif(not has_glibc(), reason="the pin is glibc's mallopt")
    def test_workers_pin_malloc_before_their_first_job(self, monkeypatch):
        """A worker never runs the CLI's `main`, so it pins malloc itself:
        without the pin, glibc trims the heap after each predict chunk,
        about 500 minor faults per chunk at N=8."""
        for var in list(os.environ):
            if var.startswith("MALLOC_") or var == "GLIBC_TUNABLES":
                monkeypatch.delenv(var)
        for chunks, faults in pool_map(repeated_predict_faults, [0, 1], workers=2):
            assert chunks == 10
            assert faults < 50 * chunks

    def test_one_job_runs_in_this_process(self, pool_sizes):
        # a lambda cannot be pickled, so it could not run in a pool
        assert pool_map(lambda _: os.getpid(), [0], workers=8) == [os.getpid()]
        assert pool_sizes == []
