"""Backward pass versus central finite differences on small instances."""

import numpy as np
import pytest

from pgad.data import fit_normalizer, generate_synthetic
from pgad.graph import build_adjacencies
from pgad.model import Model, ModelConfig, compute_params
from pgad.training import TrainState, batch_step, clip_gradients

from helpers import (
    analytic_gradients,
    grad_rel_err,
    l2_loss,
    random_instance,
    series_windows,
    tiny_model_config,
    trace_grads,
    worst_gradient_error,
)

# `batch_step` on `compute_params` copies against the float64 step at the
# same parameters, 32 windows of a minmax synth series, seeds 0-4 of each
# config below: the worst per-parameter relative L2 grad error was 3.5e-6
# (an embedding's), and the losses were within 1.3e-7 relative
FLOAT32_GRAD_BOUND = 1e-5
FLOAT32_LOSS_BOUND = 1e-6


class TestFiniteDifferences:
    @pytest.mark.parametrize("seed", range(6))
    def test_default_tiny_instances(self, seed):
        config = tiny_model_config(slots=1 + seed % 3)
        assert worst_gradient_error(seed, config) <= 1e-4

    def test_without_temporal_branch(self):
        config = tiny_model_config(use_temporal=False)
        assert worst_gradient_error(50, config) <= 1e-4

    def test_stacked_conv_layers(self):
        config = tiny_model_config(window=16, tcn_layers=2)
        assert worst_gradient_error(51, config) <= 1e-4

    def test_wider_dilation(self):
        config = tiny_model_config(window=16, dilation=2)
        assert worst_gradient_error(52, config) <= 1e-4

    def test_short_kernels_in_deeper_dilated_layer(self):
        # kernels shorter than the largest leave zero-padded tap columns
        config = tiny_model_config(window=16, tcn_layers=2, dilation=2, kernel_sizes=(1, 3))
        assert worst_gradient_error(54, config) <= 1e-4

    def test_single_window_batch(self):
        config = tiny_model_config()
        assert worst_gradient_error(53, config, batch=1) <= 1e-4


class TestGradientStructure:
    def test_zero_upstream_gradient_zeroes_everything(self):
        config = tiny_model_config()
        model, params, windows, slot_ids, adjacencies, _ = random_instance(60, config)
        _, trace = model.forward(windows, slot_ids, adjacencies, params)
        grads = trace_grads(model, trace, np.zeros((3, 4)), params)
        assert set(grads) == set(params)
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_relu_gate_blocks_hidden_weights(self):
        config = tiny_model_config()
        model, params, windows, slot_ids, adjacencies, targets = random_instance(
            61, config
        )
        # force every MLP hidden unit off: its outgoing weights see no signal
        params["mlp_b1"] = np.full_like(params["mlp_b1"], -1e6)
        preds, trace = model.forward(windows, slot_ids, adjacencies, params)
        _, dpred = l2_loss(preds, targets)
        grads = trace_grads(model, trace, dpred, params)
        np.testing.assert_array_equal(grads["mlp_w2"], 0.0)
        assert float(np.abs(grads["mlp_b2"]).max()) > 0.0

    def test_unused_slot_embeddings_get_zero_gradient(self):
        config = tiny_model_config(slots=3)
        model, params, windows, slot_ids, adjacencies, targets = random_instance(
            62, config
        )
        slot_ids = np.zeros_like(slot_ids)  # route every window to slot 0
        preds, trace = model.forward(windows, slot_ids, adjacencies, params)
        _, dpred = l2_loss(preds, targets)
        grads = trace_grads(model, trace, dpred, params)
        np.testing.assert_array_equal(grads["emb_1"], 0.0)
        np.testing.assert_array_equal(grads["emb_2"], 0.0)
        assert float(np.abs(grads["emb_0"]).max()) > 0.0

    def test_gradients_are_deterministic(self):
        config = tiny_model_config()
        inst = random_instance(63, config)
        a = analytic_gradients(*inst)
        b = analytic_gradients(*inst)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_clipping_reaches_every_grad_and_no_grad_shares_memory(self):
        config = tiny_model_config(window=16, tcn_layers=2, slots=3)
        model, params, windows, slot_ids, adjacencies, targets = random_instance(
            64, config, batch=5)
        state = TrainState(params)
        batch_step(model, windows, slot_ids, targets, adjacencies, state)
        grads = state.grads
        assert list(grads) == list(params)
        # the named grads tile the gradient vector, in parameter order
        np.testing.assert_array_equal(
            np.concatenate([g.ravel() for g in grads.values()]), state.grad_vec)
        before = state.grad_vec.copy()
        norm = float(np.sqrt(sum(np.sum(g * g) for g in grads.values())))
        assert clip_gradients(grads, norm / 4) == pytest.approx(norm, rel=1e-12)
        clipped = float(np.sqrt(sum(np.sum(g * g) for g in grads.values())))
        assert clipped == pytest.approx(norm / 4, rel=1e-12)
        assert grads["mlp_b2"] != 0.0
        np.testing.assert_allclose(state.grad_vec, before / 4, rtol=1e-12, atol=0)
        arrays = list(grads.items())
        for i, (name, g) in enumerate(arrays):
            assert np.shares_memory(g, state.grad_vec), name
            for other in (state.param_vec, state.m, state.v):
                assert not np.shares_memory(g, other), name
            for other, h in arrays[i + 1:]:
                assert not np.shares_memory(g, h), (name, other)


class TestFloat32Step:
    """`train`'s float32 step against the float64 step. The checks above,
    and criterion 1, stay float64."""

    @pytest.mark.parametrize("n, k, overrides", [
        (8, 7, {}), (51, 15, {}), (8, 7, {"tcn_layers": 2}), (8, 7, {"use_temporal": False}),
    ], ids=["default", "n51-k15", "tcn-layers-2", "no-temporal"])
    @pytest.mark.parametrize("seed", range(3))
    def test_loss_and_grads_match_float64(self, n, k, overrides, seed):
        config = ModelConfig(n_sensors=n, **overrides)
        model = Model(config)
        rng = np.random.default_rng(seed)
        params = model.init_params(rng)
        series = generate_synthetic(n, 600, 24, 0.0, seed=seed)
        values = fit_normalizer(series, "minmax").apply(series.values)
        starts = rng.choice(600 - config.window, 32, replace=False)
        windows = series_windows(values, starts, config.window)
        targets = values[:, starts + config.window].T
        slot_ids = (starts // 6) % config.slots
        adjacencies = build_adjacencies(params, config.slots, k)
        double, single = TrainState(params), TrainState(params)
        want = batch_step(model, windows, slot_ids, targets, adjacencies, double)
        loss = batch_step(model, windows, slot_ids, targets, adjacencies, single,
                          compute_params(params))
        assert abs(loss - want) <= FLOAT32_LOSS_BOUND * want
        assert loss != want  # the step did run in float32
        for name in params:
            assert grad_rel_err(single.grads[name], double.grads[name]) <= FLOAT32_GRAD_BOUND, name
