"""Forward-pass building blocks against hand-computed fixtures and oracles."""

import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from pgad import model as model_module
from pgad.graph import build_adjacencies, cosine_similarity, topk_adjacency
from pgad.model import (
    Model,
    ModelConfig,
    _alpha_order_mix,
    attention_backward,
    attention_coefficients,
    conv_stack,
    conv_stack_backward,
    correlate_span,
    fft_size,
    kernel_spectrum,
    mix_order,
    normalize_and_predict,
    normalize_and_predict_backward,
    predict_chunks,
    project_input,
    project_input_backward,
    spatial_aggregate,
    spatial_aggregate_backward,
    windows_per_batch,
    windows_per_chunk,
)
from pgad.training import TrainState, batch_step

from helpers import (
    central_difference,
    dense_ordered_mix,
    dilated_conv,
    einsum_conv_stack,
    gathered_temporal_reduction,
    grad_rel_err,
    layer_norm_mlp_reference,
    l2_loss,
    permutation_mismatches,
    random_instance,
    series_windows,
    tiny_model_config,
    trace_grads,
    traced_peak,
    value_sorted_mix,
)


def leaky(x, slope=0.2):
    return x if x > 0 else slope * x


def assert_matches_differences(analytic, loss, array):
    """A block backward's grad of `array` against central differences of
    `loss`, away from the activation kinks."""
    numeric = central_difference(loss, array)
    valid = np.isfinite(numeric)
    assert analytic.shape == numeric.shape
    assert valid.mean() >= 0.9
    assert grad_rel_err(analytic[valid], numeric[valid]) <= 1e-6


class TestProjectInput:
    def test_identity_projection_returns_window(self):
        rng = np.random.default_rng(0)
        window = rng.normal(size=(3, 6))
        out = project_input(window, np.eye(6), np.zeros(6))
        np.testing.assert_array_equal(out, window)

    def test_zero_window_zero_bias_gives_zero(self):
        out = project_input(np.zeros((4, 8)), np.ones((5, 8)), np.zeros(5))
        np.testing.assert_array_equal(out, 0.0)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        window = rng.normal(size=(3, 7))
        weight = rng.normal(size=(4, 7))
        bias = rng.normal(size=4)
        expected = np.zeros((3, 4))
        for i in range(3):
            for o in range(4):
                acc = bias[o]
                for j in range(7):
                    acc += weight[o, j] * window[i, j]
                expected[i, o] = acc
        np.testing.assert_allclose(
            project_input(window, weight, bias), expected, atol=1e-9
        )

    def test_backward_matches_central_differences(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(3, 4, 6))
        weight, bias = rng.normal(size=(5, 6)), rng.normal(size=5)
        upstream = rng.normal(size=(3, 4, 5))
        d_weight, d_bias, d_x = project_input_backward(x, weight, upstream)

        def loss():
            return float((project_input(x, weight, bias) * upstream).sum()), b""

        for analytic, array in ((d_weight, weight), (d_bias, bias), (d_x, x)):
            assert_matches_differences(analytic, loss, array)
        assert project_input_backward(x, weight, upstream, input_grad=False)[2] is None


class TestAttention:
    def test_isolated_node_attends_to_itself(self):
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(1, 3))
        alpha = attention_coefficients(
            emb, np.zeros((1, 1)), rng.normal(size=(2, 3)), rng.normal(size=4)
        )["alpha"]
        assert alpha[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_equal_logits_split_evenly(self):
        emb = np.tile([1.0, 2.0], (2, 1))
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        alpha = attention_coefficients(emb, adj, np.eye(2), np.ones(4))["alpha"]
        np.testing.assert_allclose(alpha, 0.5, atol=1e-12)

    def test_three_node_chain_hand_softmax(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        adj = np.zeros((3, 3))
        adj[1, 0] = adj[0, 1] = adj[2, 1] = adj[1, 2] = 1.0
        alpha = attention_coefficients(emb, adj, np.eye(2), np.ones(4))["alpha"]
        s = [1.0, 1.0, 2.0]  # row sums of emb = attention source/dest scores

        def softmax_row(i, members):
            exps = {j: math.exp(leaky(s[i] + s[j])) for j in members}
            z = sum(exps.values())
            return {j: v / z for j, v in exps.items()}

        expected = np.zeros((3, 3))
        for i, members in [(0, [0, 1]), (1, [0, 1, 2]), (2, [1, 2])]:
            for j, v in softmax_row(i, members).items():
                expected[i, j] = v
        np.testing.assert_allclose(alpha, expected, atol=1e-12)

    def test_negative_logits_use_leaky_slope(self):
        emb = np.array([[-1.0, 0.0], [0.0, -1.0]])
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        alpha = attention_coefficients(emb, adj, np.eye(2), np.ones(4))["alpha"]
        # all pair sums are -2, LeakyReLU gives -0.4 everywhere: still even
        np.testing.assert_allclose(alpha, 0.5, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            d = int(rng.integers(1, 5))
            emb = rng.normal(size=(n, d))
            adj = (rng.random((n, n)) < 0.4).astype(float)
            np.fill_diagonal(adj, 0.0)
            alpha = attention_coefficients(
                emb, adj, rng.normal(size=(d, d)), rng.normal(size=2 * d)
            )["alpha"]
            np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-6)
            outside = ~((adj.T > 0) | np.eye(n, dtype=bool))
            np.testing.assert_array_equal(alpha[outside], 0.0)

    def test_backward_matches_central_differences(self):
        rng = np.random.default_rng(21)
        emb = rng.normal(size=(6, 3))
        att_w, att_a = rng.normal(size=(4, 3)), rng.normal(size=8)
        adj = topk_adjacency(cosine_similarity(emb), 3)
        upstream = rng.normal(size=(6, 6))
        att = attention_coefficients(emb, adj, att_w, att_a, 0.3)
        d_att_w, d_att_a, d_emb = attention_backward(att, upstream, emb, att_w, att_a, 0.3)

        def loss():
            out = attention_coefficients(emb, adj, att_w, att_a, 0.3)
            return float((out["alpha"] * upstream).sum()), (out["raw"] > 0).tobytes()

        for analytic, array in ((d_att_w, att_w), (d_att_a, att_a), (d_emb, emb)):
            assert_matches_differences(analytic, loss, array)


def aggregate_one_window(x, alpha, w):
    """`spatial_aggregate` of one (N, d) window, alone in its phase slot."""
    return spatial_aggregate(x[None], [mix_order(alpha)], w, [np.arange(1)])["h_s"][0]


class TestGraphAttentionForward:
    def test_isolated_node_is_relu_of_projection(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 3))
        w = rng.normal(size=(2, 3))
        alpha = np.array([[1.0]])
        np.testing.assert_allclose(
            aggregate_one_window(x, alpha, w),
            np.maximum(x @ w.T, 0.0),
            atol=1e-12,
        )

    def test_identical_features_ignore_graph(self):
        rng = np.random.default_rng(5)
        x = np.tile(rng.normal(size=3), (4, 1))
        w = rng.normal(size=(3, 3))
        alpha = np.full((4, 4), 0.25)
        out = aggregate_one_window(x, alpha, w)
        np.testing.assert_allclose(out, np.tile(out[0], (4, 1)), atol=1e-12)

    def test_two_node_hand_mix(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        alpha = np.array([[0.25, 0.75], [0.5, 0.5]])
        out = aggregate_one_window(x, alpha, np.eye(2))
        np.testing.assert_allclose(out[0], [0.25, 0.75], atol=1e-12)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(3, 4))
        alpha = np.full((5, 5), 0.2)
        assert aggregate_one_window(x, alpha, w).min() >= 0.0

    def test_backward_matches_central_differences(self):
        rng = np.random.default_rng(22)
        x_proj, att_w = rng.normal(size=(6, 5, 4)), rng.normal(size=(3, 4))
        rows = [np.array([0, 2, 3]), np.array([1, 4, 5])]
        alphas = []
        for _ in rows:
            emb = rng.normal(size=(5, 3))
            alphas.append(attention_coefficients(
                emb, topk_adjacency(cosine_similarity(emb), 2), np.eye(3), rng.normal(size=6)
            )["alpha"])
        upstream = rng.normal(size=(6, 5, 3))

        def forward():
            return spatial_aggregate(x_proj, [mix_order(a) for a in alphas], att_w, rows)

        d_att_w, d_x_proj, d_alphas = spatial_aggregate_backward(
            forward(), x_proj, alphas, rows, att_w, upstream)

        def loss():
            out = forward()
            return float((out["h_s"] * upstream).sum()), out["s_mask"].tobytes()

        pairs = [(d_att_w, att_w), (d_x_proj, x_proj), *zip(d_alphas, alphas)]
        for analytic, array in pairs:
            assert_matches_differences(analytic, loss, array)


class TestDilatedConv:
    def test_box_filter_hand_fixture(self):
        out = dilated_conv([1, 2, 3, 4, 5], [1, 1, 1], 1)
        np.testing.assert_array_equal(out, [6.0, 9.0, 12.0])

    def test_dilation_two_hand_fixture(self):
        out = dilated_conv([1, 2, 3, 4, 5, 6, 7], [1, 1], 2)
        np.testing.assert_array_equal(out, [4.0, 6.0, 8.0, 10.0, 12.0])

    def test_identity_tap_truncates(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        np.testing.assert_array_equal(dilated_conv(x, [1, 0], 1), x[1:])

    def test_too_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            dilated_conv([1.0, 2.0], [1.0, 1.0, 1.0], 1)

    def test_causal_only_past_taps(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=12)
        filt = rng.normal(size=3)
        out = dilated_conv(x, filt, 2)
        # output index o sits at input time o + 4 and must not see later values
        bumped = x.copy()
        bumped[9] += 100.0
        out2 = dilated_conv(bumped, filt, 2)
        np.testing.assert_array_equal(out[:5], out2[:5])
        assert not np.array_equal(out[5:], out2[5:])


def averaging_filters(channels=1):
    return {
        c: np.tile(np.full((1, c), 1.0 / c), (channels, 1, 1)) for c in (2, 3, 5)
    }


class TestTemporalModule:
    def test_flat_dim_matches_shape_rule(self):
        rng = np.random.default_rng(8)
        filters = {c: rng.normal(size=(8, 1, c)) for c in (2, 3, 5)}
        out = conv_stack(rng.normal(size=(2, 64)), [filters], 1)["t_flat"]
        assert out.shape == (2, 24 * 60)

    def test_zero_window_gives_zero_features(self):
        rng = np.random.default_rng(9)
        filters = {c: rng.normal(size=(3, 1, c)) for c in (2, 3, 5)}
        out = conv_stack(np.zeros((4, 16)), [filters], 1)["t_flat"]
        np.testing.assert_array_equal(out, 0.0)

    def test_averaging_kernels_match_conv_oracle(self):
        rng = np.random.default_rng(10)
        x = np.abs(rng.normal(size=16)) + 1.0  # positive, so ReLU is identity
        out = conv_stack(x[None, :], [averaging_filters()], 1)["t_flat"]
        out = out.reshape(3, 12)  # three kernels, L_out = 16 - 4
        for row, c in zip(out, (2, 3, 5)):
            oracle = dilated_conv(x, np.full(c, 1.0 / c), 1)
            np.testing.assert_allclose(row, oracle[-12:], atol=1e-12)

    def test_causality_sensitivity_probe(self):
        rng = np.random.default_rng(11)
        filters = {c: rng.normal(size=(2, 1, c)) for c in (2, 3, 5)}
        x = rng.normal(size=(1, 20))
        base = conv_stack(x, [filters], 1)["t_flat"].reshape(6, 16)
        for u in (6, 11, 19):
            bumped = x.copy()
            bumped[0, u] += 5.0
            out = conv_stack(bumped, [filters], 1)["t_flat"].reshape(6, 16)
            # output position o reads input time o + 4; earlier times unaffected
            first_hit = max(u - 4, 0)
            np.testing.assert_array_equal(out[:, :first_hit], base[:, :first_hit])
            assert not np.array_equal(out[:, first_hit:], base[:, first_hit:])

    def test_stacked_layers_shrink_output(self):
        rng = np.random.default_rng(12)
        layer1 = {c: rng.normal(size=(2, 1, c)) for c in (2, 3, 5)}
        layer2 = {c: rng.normal(size=(2, 6, c)) for c in (2, 3, 5)}
        out = conv_stack(rng.normal(size=(3, 20)), [layer1, layer2], 1)["t_flat"]
        # 20 - 4 = 16 after layer one, minus 2*4 at dilation 2 leaves 8
        assert out.shape == (3, 6 * 8)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("kernels", [(1,), (3,), (1, 4), (2, 3, 5)])
    def test_matches_per_kernel_einsum_oracle(self, layers, dilation, kernels):
        rng = np.random.default_rng(100 * layers + 10 * dilation + len(kernels))
        channels = 2
        span = sum(dilation * (1 << l) * (max(kernels) - 1) for l in range(layers))
        w = span + 5
        filter_layers, in_ch = [], 1
        for _ in range(layers):
            filter_layers.append(
                {c: rng.normal(size=(channels, in_ch, c)) for c in kernels}
            )
            in_ch = channels * len(kernels)
        for shape in [(w,), (3, w), (2, 4, w)]:
            x = rng.normal(size=shape)
            out = conv_stack(x, filter_layers, dilation)
            oracle = einsum_conv_stack(x, filter_layers, dilation)
            assert out["t_flat"].shape == oracle["t_flat"].shape
            np.testing.assert_allclose(out["t_flat"], oracle["t_flat"], rtol=0, atol=1e-12)
            assert len(out["conv"]) == layers
            for got, want in zip(out["conv"], oracle["conv"]):
                np.testing.assert_array_equal(got["mask"], want["mask"])
                for key in ("dilation", "base", "out_len"):
                    assert got[key] == want[key]

    @pytest.mark.parametrize("layers, dilation, kernels", [
        (1, 1, (2, 3, 5)),
        (2, 2, (1, 3)),  # short kernels leave zero-padded tap columns
    ])
    def test_backward_matches_central_differences(self, layers, dilation, kernels):
        rng = np.random.default_rng(23)
        filter_layers, in_ch = [], 1
        for _ in range(layers):
            filter_layers.append({c: rng.normal(size=(2, in_ch, c)) for c in kernels})
            in_ch = 2 * len(kernels)
        span = sum(dilation * (1 << l) * (max(kernels) - 1) for l in range(layers))
        window = rng.normal(size=(2, 3, span + 4))
        out = conv_stack(window, filter_layers, dilation)
        upstream = rng.normal(size=out["t_flat"].shape)
        grads = conv_stack_backward(out["conv"], filter_layers, upstream.copy())

        def loss():
            out = conv_stack(window, filter_layers, dilation)
            regime = b"".join(layer["mask"].tobytes() for layer in out["conv"])
            return float((out["t_flat"] * upstream).sum()), regime

        assert [sorted(g) for g in grads] == [sorted(f) for f in filter_layers]
        for layer_grads, filters in zip(grads, filter_layers):
            for c, analytic in layer_grads.items():
                assert_matches_differences(analytic, loss, filters[c])


def predict_fused(h_s, h_t, params):
    """`normalize_and_predict`, keeping its activations, over a new
    [h_t || h_s] buffer: the fused features `forward` builds."""
    return normalize_and_predict(np.concatenate([h_t, h_s], -1), params)


class TestFuseAndPredict:
    """LayerNorm and the MLP over the fused features [h_t || h_s]."""

    def base_params(self, rng, fused_dim, hidden=4):
        return {
            "ln_gain": np.ones(fused_dim),
            "ln_bias": np.zeros(fused_dim),
            "mlp_w1": rng.normal(size=(hidden, fused_dim)),
            "mlp_b1": rng.normal(size=hidden),
            "mlp_w2": rng.normal(size=hidden),
            "mlp_b2": np.array(0.0),
        }

    def test_zero_mlp_predicts_zero(self):
        rng = np.random.default_rng(13)
        params = self.base_params(rng, 6)
        params["mlp_w1"] = np.zeros_like(params["mlp_w1"])
        params["mlp_b1"] = np.zeros_like(params["mlp_b1"])
        params["mlp_w2"] = np.zeros_like(params["mlp_w2"])
        h_s, h_t = rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
        pred = predict_fused(h_s, h_t, params)["pred"]
        np.testing.assert_array_equal(pred, 0.0)

    def test_constant_feature_leaves_only_bias_path(self):
        rng = np.random.default_rng(14)
        params = self.base_params(rng, 6)
        h_s = np.full((2, 6), 3.7)
        expected = np.maximum(params["mlp_b1"], 0.0) @ params["mlp_w2"]
        pred = predict_fused(h_s, np.empty((2, 0)), params)["pred"]
        np.testing.assert_allclose(pred, expected, atol=1e-9)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(15)
        params = self.base_params(rng, 7)
        params["ln_gain"] = rng.normal(size=7)
        params["ln_bias"] = rng.normal(size=7)
        h_s = rng.normal(size=(3, 4))
        h_t = rng.normal(size=(3, 3))
        fused = np.concatenate([h_t, h_s], axis=1)
        mu = fused.mean(axis=1, keepdims=True)
        var = fused.var(axis=1, keepdims=True)
        y = params["ln_gain"] * (fused - mu) / np.sqrt(var + 1e-5) + params["ln_bias"]
        z1 = np.maximum(y @ params["mlp_w1"].T + params["mlp_b1"], 0.0)
        expected = z1 @ params["mlp_w2"] + params["mlp_b2"]
        np.testing.assert_allclose(
            predict_fused(h_s, h_t, params)["pred"], expected, atol=1e-9
        )

    @pytest.mark.parametrize("hidden", [128, 40])
    @pytest.mark.parametrize("n", [2, 8, 51])
    def test_in_place_head_equals_the_kept_one(self, n, hidden):
        """`normalize_and_predict` on the same fused input: `forward`'s
        call, which keeps the activations, and `predict`'s, which runs in
        place, give the same bits as the `np.mean` / `np.var` oracle, with
        the hidden layer wider and narrower than the fused features."""
        rng = np.random.default_rng(700 + n + hidden)
        params = self.base_params(rng, 96, hidden=hidden)
        params["ln_gain"] = rng.normal(size=96)
        params["ln_bias"] = rng.normal(size=96)
        params["mlp_b2"] = np.array(0.3)
        fused = 3.0 + 5.0 * rng.normal(size=(20, n, 96))
        expected = layer_norm_mlp_reference(fused, params)
        kept = normalize_and_predict(fused.copy(), params)
        in_place = normalize_and_predict(fused.copy(), params, keep=False)
        assert set(kept) == set(expected) and set(in_place) == {"pred"}
        for name in expected:
            np.testing.assert_array_equal(kept[name], expected[name], err_msg=name)
        np.testing.assert_array_equal(in_place["pred"], expected["pred"])

    @pytest.mark.parametrize("t_dim", [3, 0])
    def test_backward_matches_central_differences(self, t_dim):
        rng = np.random.default_rng(24 + t_dim)
        params = self.base_params(rng, 4 + t_dim, hidden=6)
        params["ln_gain"] = rng.normal(size=4 + t_dim)
        params["ln_bias"] = rng.normal(size=4 + t_dim)
        params["mlp_b2"] = np.array(0.3)
        h_s = rng.normal(size=(3, 5, 4))
        h_t = rng.normal(size=(3, 5, t_dim))
        upstream = rng.normal(size=(3, 5))
        grads, d_h_s, d_h_t = normalize_and_predict_backward(
            predict_fused(h_s, h_t, params), upstream, params, t_dim)

        def loss():
            out = predict_fused(h_s, h_t, params)
            return float((out["pred"] * upstream).sum()), out["z1_mask"].tobytes()

        assert set(grads) == set(params)
        pairs = [(grads[name], params[name]) for name in params] + [(d_h_s, h_s)]
        if t_dim:
            pairs.append((d_h_t, h_t))
        else:
            assert d_h_t is None
        for analytic, array in pairs:
            assert_matches_differences(analytic, loss, array)


class TestModelForward:
    def test_prediction_shape_and_determinism(self):
        config = tiny_model_config()
        model, params, windows, slot_ids, adjacencies, _ = random_instance(16, config)
        a, _ = model.forward(windows, slot_ids, adjacencies, params)
        b, _ = model.forward(windows, slot_ids, adjacencies, params)
        assert a.shape == (3, 4)
        np.testing.assert_array_equal(a, b)

    def test_batched_equals_per_window(self):
        config = tiny_model_config()
        model, params, windows, slot_ids, adjacencies, _ = random_instance(17, config)
        batched, _ = model.forward(windows, slot_ids, adjacencies, params)
        for i in range(windows.shape[0]):
            single, _ = model.forward(
                windows[i:i + 1], slot_ids[i:i + 1], adjacencies, params
            )
            np.testing.assert_array_equal(single[0], batched[i])

    def test_predict_chunking_matches_forward(self, monkeypatch):
        """Consecutive windows: predict's FFT reduction agrees with forward's
        GEMM to rounding."""
        config = tiny_model_config()
        model, params, _, _, adjacencies, _ = random_instance(18, config)
        rng = np.random.default_rng(18)
        values = rng.normal(size=(config.n_sensors, 9 + config.window))
        starts = np.arange(9)
        slot_ids = rng.integers(0, config.slots, 9)
        windows = series_windows(values, starts, config.window)
        full, _ = model.forward(windows, slot_ids, adjacencies, params)
        monkeypatch.setattr(model_module, "PREDICT_ROWS", 4 * config.n_sensors)
        chunked = model.predict(starts, values, slot_ids, adjacencies, params)
        scale = max(1.0, float(np.abs(full).max()))
        np.testing.assert_allclose(chunked, full, rtol=0, atol=1e-12 * scale)

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(19)
        config = tiny_model_config(n_sensors=6)
        for trial in range(3):
            model, params, windows, slot_ids, adjacencies, _ = random_instance(
                20 + trial, config, batch=4, k=3
            )
            base, _ = model.forward(windows, slot_ids, adjacencies, params)
            perm = rng.permutation(6)
            p_params = dict(params)
            for s in range(config.slots):
                p_params[f"emb_{s}"] = params[f"emb_{s}"][perm]
            p_adj = [a[np.ix_(perm, perm)] for a in adjacencies]
            p_out, _ = model.forward(windows[:, perm, :], slot_ids, p_adj, p_params)
            np.testing.assert_array_equal(p_out, base[:, perm])

    @pytest.mark.parametrize("use_temporal", [True, False])
    @pytest.mark.parametrize("n", [2, 8, 51])
    def test_head_equals_reference_over_concatenated_branches(self, n, use_temporal):
        """`forward` builds [h_t || h_s] in one buffer: its predictions and
        its trace's `xhat` equal, bit for bit, the reference LayerNorm and
        MLP over the two branches' features computed apart and
        concatenated."""
        config = ModelConfig(n_sensors=n, use_temporal=use_temporal)
        model, params, windows, slot_ids, adjacencies, _ = random_instance(
            900 + n, config, batch=12, k=min(15, n - 1))
        preds, trace = model.forward(windows, slot_ids, adjacencies, params)
        attention = model.slot_attention(range(config.slots), adjacencies, params)
        present = sorted(set(slot_ids.tolist()))
        h_s = spatial_aggregate(
            project_input(windows, params["proj_w"], params["proj_b"]),
            [attention[slot]["order"] for slot in present], params["att_w"],
            [np.flatnonzero(slot_ids == slot) for slot in present])["h_s"]
        h_t = np.empty(h_s.shape[:-1] + (0,))
        if use_temporal:
            filters = [{c: params[f"conv{l}_k{c}"] for c in config.kernel_sizes}
                       for l in range(config.tcn_layers)]
            h_t = project_input(conv_stack(windows, filters, config.dilation)["t_flat"],
                                params["tred_w"], params["tred_b"])
        expected = layer_norm_mlp_reference(np.concatenate([h_t, h_s], -1), params)
        np.testing.assert_array_equal(preds, expected["pred"])
        np.testing.assert_array_equal(trace.batch["xhat"], expected["xhat"])

    def test_no_temporal_branch(self):
        config = tiny_model_config(use_temporal=False)
        model, params, windows, slot_ids, adjacencies, _ = random_instance(24, config)
        preds, _ = model.forward(windows, slot_ids, adjacencies, params)
        assert preds.shape == (3, 4)
        assert not any(name.startswith("conv") for name in params)

    def test_params_follow_declared_shapes(self):
        config = tiny_model_config(slots=3)
        model = Model(config)
        params = model.init_params(np.random.default_rng(25))
        shapes = model.param_shapes()
        assert set(params) == set(shapes)
        for name, shape in shapes.items():
            assert params[name].shape == tuple(shape)

    @pytest.mark.parametrize("overrides, fan_ins", [
        # dilations 2 and 4 with the largest kernel 5 leave 40 - 8 - 16 = 16
        # conv steps of 3 * 8 channels; the second layer reads all 24
        (dict(n_sensors=8, window=40, tcn_layers=2, dilation=2),
         {"proj_w": 40, "emb_0": 64, "emb_1": 64, "emb_2": 64, "emb_3": 64,
          "att_w": 64, "att_a": 128, "conv0_k2": 2, "conv0_k3": 3, "conv0_k5": 5,
          "conv1_k2": 48, "conv1_k3": 72, "conv1_k5": 120, "tred_w": 24 * 16,
          "mlp_w1": 64 + 32, "mlp_w2": 128}),
        (dict(n_sensors=3, slots=1, use_temporal=False),
         {"proj_w": 64, "emb_0": 64, "att_w": 64, "att_a": 128, "mlp_w1": 64,
          "mlp_w2": 128}),
    ], ids=["two-conv-layers", "no-temporal"])
    def test_init_bounds_follow_fan_in(self, overrides, fan_ins):
        """Each weight is drawn in `param_shapes` order from U(-b, b) with
        b = 1/sqrt(fan-in); biases start at 0 and the LayerNorm gain at 1."""
        model = Model(ModelConfig(**overrides))
        params = model.init_params(np.random.default_rng(3))
        shapes = model.param_shapes()
        assert set(fan_ins) <= set(shapes)
        rng = np.random.default_rng(3)
        for name, shape in shapes.items():
            if name in fan_ins:
                bound = 1.0 / np.sqrt(fan_ins[name])
                expected = rng.uniform(-bound, bound, shape)
            else:
                expected = np.full(shape, 1.0 if name == "ln_gain" else 0.0)
            np.testing.assert_array_equal(params[name], expected, err_msg=name)


PREDICT_SLOTS = 3


def predict_instance(seed, n, n_windows, stride, **overrides):
    """A model, its parameters and graphs, and a time-major series with
    `n_windows` window starts `stride` apart, each given a random slot."""
    config = tiny_model_config(
        n_sensors=n, window=32, embed_dim=16, spatial_dim=16, temporal_dim=8,
        hidden_dim=32, slots=PREDICT_SLOTS, **overrides,
    )
    model, params, _, _, adjacencies, _ = random_instance(seed, config, k=3)
    rng = np.random.default_rng(seed)
    starts = 5 + stride * np.arange(n_windows)
    # time-major, as ingested series are
    values = rng.normal(size=(starts[-1] + config.window + 7, n)).T
    slot_ids = rng.integers(0, PREDICT_SLOTS, n_windows)
    return model, params, adjacencies, starts, values, slot_ids


def predict_permutation_mismatches(n: int, workers: int) -> list[tuple]:
    """The (stride, dtype) cases in which permuting the sensors of a series
    does not permute `predict`'s output bit for bit: consecutive windows,
    which take the FFT chunks, and stride-3 ones, which run `forward`, each
    with float64 and float32 parameters and series."""
    failures = []
    for stride in (1, 3):
        model, params, adjacencies, starts, values, slot_ids = predict_instance(
            600 + n, n, 90, stride)
        perm = np.random.default_rng(n).permutation(n)
        p_adj = [a[np.ix_(perm, perm)] for a in adjacencies]
        for dtype in (np.float64, np.float32):
            typed = {name: value.astype(dtype) for name, value in params.items()}
            base = model.predict(starts, values.astype(dtype), slot_ids, adjacencies, typed,
                                 workers=workers)
            p_params = dict(typed)
            for s in range(PREDICT_SLOTS):
                p_params[f"emb_{s}"] = typed[f"emb_{s}"][perm]
            p_out = model.predict(starts, values[perm].astype(dtype), slot_ids, p_adj, p_params,
                                  workers=workers)
            if not np.array_equal(p_out, base[:, perm]):
                failures.append((stride, np.dtype(dtype).name))
    return failures


def chunk_runs(model, pooled: bool, failing: str | None = None):
    """Records (thread id, window starts) of each chunk `model.predict` runs,
    from each window's first value (the series holds its time index there),
    and the calling thread's id. With `pooled` set, a chunk on another
    thread waits until the calling thread has started one, and the calling
    thread waits until another thread has started one. A chunk on the
    `failing` thread ("calling" or "other") raises."""
    caller = threading.get_ident()
    started = {"calling": threading.Event(), "other": threading.Event()}
    runs, lock = [], threading.Lock()
    spatial = model._spatial_into_fused

    def recording(windows, *args):
        side = "calling" if threading.get_ident() == caller else "other"
        started[side].set()
        if pooled:
            started["other" if side == "calling" else "calling"].wait(10)
        with lock:
            runs.append((threading.get_ident(), [int(v) for v in windows[:, 0, 0]]))
        if side == failing:
            raise RuntimeError(f"chunk failed on the {side} thread")
        return spatial(windows, *args)

    model._spatial_into_fused = recording
    return runs, caller


class TestPredictOverSeries:
    """`predict` over a series against `forward` run on the windows of the
    same chunks, so that every matmul sees the same row count: OpenBLAS
    may round a GEMM of a few rows differently from a larger one."""

    @staticmethod
    def oracle(model, starts, values, slot_ids, adjacencies, params):
        cfg = model.config
        out = np.empty((len(starts), cfg.n_sensors))
        for lo, hi, _ in predict_chunks(starts, cfg.n_sensors, cfg.use_temporal):
            windows = series_windows(values, starts[lo:hi], cfg.window)
            out[lo:hi], _ = model.forward(windows, slot_ids[lo:hi], adjacencies, params)
        return out

    @staticmethod
    def chunk_width(n, stride):
        """The most windows in a chunk: a micro-batch's unless consecutive."""
        return windows_per_chunk(n) if stride == 1 else windows_per_batch(n)

    @classmethod
    def chunked_instance(cls, n, stride):
        """Two chunks' worth of windows and 7 more; the first chunk lacks slot 1."""
        per_chunk = cls.chunk_width(n, stride)
        instance = predict_instance(400 + n + stride, n, 2 * per_chunk + 7, stride)
        slot_ids = instance[-1]
        first = slot_ids[:per_chunk]
        first[first == 1] = 0
        assert (slot_ids == 1).any()
        return instance

    @pytest.mark.parametrize("n", [2, 8, 51])
    @pytest.mark.parametrize("stride", [1, 3, 35])
    def test_bits_equal_forward_on_its_chunks(self, n, stride):
        per_chunk = self.chunk_width(n, stride)
        model, params, adjacencies, starts, values, slot_ids = self.chunked_instance(n, stride)
        chunks = list(predict_chunks(starts, n, True))
        assert [lo for lo, _, _ in chunks] == [0] + [hi for _, hi, _ in chunks[:-1]]
        assert chunks[-1][1] == len(starts)
        assert [hi - lo for lo, hi, _ in chunks[:-1]] == [per_chunk] * (len(chunks) - 1)
        assert [fft for _, _, fft in chunks] == [stride == 1] * len(chunks)
        out = model.predict(starts, values, slot_ids, adjacencies, params)
        expected = self.oracle(model, starts, values, slot_ids, adjacencies, params)
        if stride == 1:
            # consecutive windows take the FFT reduction: equal to rounding
            scale = max(1.0, float(np.abs(expected).max()))
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * scale)
        else:
            np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("n", [8, 51])
    def test_only_consecutive_chunks_are_wide(self, n):
        """A run of consecutive windows, then windows 3 apart: a chunk holds
        up to `windows_per_chunk` windows only when they are consecutive,
        else at most a micro-batch's, as the `forward` trace they hold would
        double with the chunk."""
        wide, narrow = windows_per_chunk(n), windows_per_batch(n)
        starts = np.concatenate([np.arange(wide + narrow // 2),
                                 wide + narrow // 2 + 3 * np.arange(3 * narrow)])
        chunks = list(predict_chunks(starts, n, True))
        assert [lo for lo, _, _ in chunks] == [0] + [hi for _, hi, _ in chunks[:-1]]
        assert chunks[-1][1] == len(starts)
        widths = [hi - lo for lo, hi, _ in chunks]
        consecutive = [bool((np.diff(starts[lo:hi]) == 1).all()) for lo, hi, _ in chunks]
        assert [fft for _, _, fft in chunks] == consecutive
        assert widths[0] == wide and consecutive[0]
        assert max(widths[1:]) <= narrow
        assert not all(consecutive)

    @pytest.mark.parametrize("n", [8, 51])
    def test_without_temporal_branch_every_chunk_is_a_micro_batch(self, n):
        """Without the temporal branch, consecutive windows too run
        `forward`, so their chunks hold at most a micro-batch's windows."""
        starts = np.arange(3 * windows_per_chunk(n) + 5)
        chunks = list(predict_chunks(starts, n, False))
        assert [lo for lo, _, _ in chunks] == [0] + [hi for _, hi, _ in chunks[:-1]]
        assert chunks[-1][1] == len(starts)
        assert [hi - lo for lo, hi, _ in chunks[:-1]] == [windows_per_batch(n)] * (len(chunks) - 1)
        assert not any(fft for _, _, fft in chunks)

    @pytest.mark.parametrize("n", [2, 8, 51])
    @pytest.mark.parametrize("stride", [1, 3, 35])
    def test_bits_equal_at_any_worker_count(self, n, stride):
        model, params, adjacencies, starts, values, slot_ids = self.chunked_instance(n, stride)
        assert len(list(predict_chunks(starts, n, True))) >= 3
        one = model.predict(starts, values, slot_ids, adjacencies, params, workers=1)
        for workers in (2, 3):
            np.testing.assert_array_equal(
                model.predict(starts, values, slot_ids, adjacencies, params, workers=workers),
                one,
            )

    def test_chunk_error_propagates_and_threads_end(self, monkeypatch):
        model, params, adjacencies, starts, values, slot_ids = predict_instance(
            8, 8, 3 * windows_per_chunk(8) + 8, 1)
        lock = threading.Lock()
        calls = []

        def conv_failing_on_third_chunk(*args, **kwargs):
            with lock:
                calls.append(None)
                if len(calls) == 3:
                    raise RuntimeError("chunk failed")
            return conv_stack(*args, **kwargs)

        before = threading.active_count()
        model.predict(starts, values, slot_ids, adjacencies, params, workers=2)
        assert threading.active_count() == before
        monkeypatch.setattr(model_module, "conv_stack", conv_failing_on_third_chunk)
        with pytest.raises(RuntimeError, match="chunk failed"):
            model.predict(starts, values, slot_ids, adjacencies, params, workers=2)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers, n_windows", [
        (1, 150), (2, 150), (3, 150), (4, 150), (2, 70), (3, 70), (4, 70), (4, 1),
        (3, 3 * windows_per_chunk(8) + 1), (4, 3 * windows_per_chunk(8) + 1),
    ])
    def test_queue_runs_every_chunk_once(self, workers, n_windows):
        """The chunks run once each, on the calling thread and at most
        min(workers, chunks) - 1 others. The recording makes the other
        threads wait until the calling thread has started a chunk, and the
        calling thread wait until another thread has, so each takes part."""
        model, params, adjacencies, starts, values, slot_ids = predict_instance(
            8, 8, n_windows, 1)
        values[0] = np.arange(values.shape[1])  # a window's first value is its start
        chunks = list(predict_chunks(starts, 8, True))
        pooled = min(workers, len(chunks)) > 1
        runs, caller = chunk_runs(model, pooled)
        before = threading.active_count()
        model.predict(starts, values, slot_ids, adjacencies, params, workers=workers)
        assert threading.active_count() == before
        assert sorted(chunk for _, chunk in runs) == [list(starts[lo:hi]) for lo, hi, _ in chunks]
        threads = {thread for thread, _ in runs}
        assert caller in threads
        assert len(threads) == min(workers, len(chunks))

    @pytest.mark.parametrize("workers, failing", [
        (1, "calling"), (2, "calling"), (2, "other"), (3, "calling"), (3, "other"),
    ])
    def test_chunk_error_on_any_thread_propagates(self, workers, failing):
        model, params, adjacencies, starts, values, slot_ids = predict_instance(8, 8, 150, 1)
        chunk_runs(model, pooled=workers > 1, failing=failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"chunk failed on the {failing} thread"):
            model.predict(starts, values, slot_ids, adjacencies, params, workers=workers)
        assert threading.active_count() == before

    def test_failed_chunk_stops_the_other_threads(self):
        """The calling thread's first chunk raises while a pool thread runs
        its first of 10; the pool thread then takes no further chunk."""
        model, params, adjacencies, starts, values, slot_ids = predict_instance(
            8, 8, 10 * windows_per_chunk(8), 1)
        assert len(list(predict_chunks(starts, 8, True))) == 10
        caller = threading.get_ident()
        pool_started, raised = threading.Event(), threading.Event()
        runs = []
        spatial = model._spatial_into_fused

        def recording(windows, *args):
            runs.append(threading.get_ident())
            if threading.get_ident() == caller:
                assert pool_started.wait(10)
                raised.set()
                raise RuntimeError("chunk failed")
            pool_started.set()
            assert raised.wait(10)
            time.sleep(0.2)  # time for the calling thread to act on its failure
            return spatial(windows, *args)

        model._spatial_into_fused = recording
        with pytest.raises(RuntimeError, match="chunk failed"):
            model.predict(starts, values, slot_ids, adjacencies, params, workers=2)
        assert len(runs) == 2 and caller in runs

    @pytest.mark.parametrize("n_windows, stride, reduced", [
        # chunks of 128, 128 and 12 or 11 windows: the tail takes the FFT at
        # the first chunks' size too, however short
        pytest.param(2 * windows_per_chunk(8) + 12, 1, 3, id="tail-by-fft"),
        pytest.param(2 * windows_per_chunk(8) + 11, 1, 3, id="short-tail-by-fft"),
        pytest.param(5, 1, 1, id="one-short-chunk"),
        (150, 3, 0),  # windows 3 apart run forward
    ])
    def test_fft_reduction_runs_on_consecutive_chunks(self, monkeypatch, n_windows, stride,
                                                      reduced):
        """Every chunk of consecutive windows runs the FFT, at the size of
        the call's longest one, whose kernel spectrum is taken once."""
        model, params, adjacencies, starts, values, slot_ids = predict_instance(
            10, 8, n_windows, stride)
        assert model.config.conv_out_len() == 28
        calls, sizes = [], []

        def counting(feats, spectrum, size, count):
            calls.append(count)
            return correlate_span(feats, spectrum, size, count)

        def recording(tred_w, channels, size):
            sizes.append(size)
            return kernel_spectrum(tred_w, channels, size)

        monkeypatch.setattr(model_module, "correlate_span", counting)
        monkeypatch.setattr(model_module, "kernel_spectrum", recording)
        model.predict(starts, values, slot_ids, adjacencies, params)
        assert len(calls) == reduced
        chunks = list(predict_chunks(starts, 8, True))
        assert calls == [hi - lo for lo, hi, fft in chunks if fft]
        longest = min(n_windows, windows_per_chunk(8))
        assert sizes == ([fft_size(longest - 1 + 28)] if reduced else [])

    def test_no_temporal_branch_equals_forward(self):
        model, params, adjacencies, starts, values, slot_ids = predict_instance(
            9, 8, 100, 1, use_temporal=False
        )
        out = model.predict(starts, values, slot_ids, adjacencies, params)
        np.testing.assert_array_equal(
            out, self.oracle(model, starts, values, slot_ids, adjacencies, params)
        )

    @pytest.mark.parametrize("overrides", [
        dict(tcn_layers=2),
        dict(tcn_layers=2, dilation=2, kernel_sizes=(1, 3)),
    ])
    @pytest.mark.parametrize("n, stride", [(8, 1), (51, 3), (8, 35)])
    def test_deeper_conv_within_last_bits(self, overrides, n, stride):
        """Consecutive windows take the FFT: equal to rounding. Windows
        further apart run `forward` itself: equal bit for bit."""
        model, params, adjacencies, starts, values, slot_ids = predict_instance(
            500 + n + stride, n, 150, stride, **overrides
        )
        out = model.predict(starts, values, slot_ids, adjacencies, params)
        expected = self.oracle(model, starts, values, slot_ids, adjacencies, params)
        if stride > 1:
            np.testing.assert_array_equal(out, expected)
            return
        scale = max(1.0, float(np.abs(expected).max()))
        assert np.abs(out - expected).max() <= 1e-14 * scale

    @pytest.mark.parametrize("n", [8, 51])
    def test_sensor_permutation_permutes_output(self, n):
        assert predict_permutation_mismatches(n, workers=1) == []

    def test_bad_starts_raise(self):
        model, params, adjacencies, starts, values, slot_ids = predict_instance(7, 4, 20, 2)
        with pytest.raises(ValueError, match="ascend"):
            model.predict(starts[::-1], values, slot_ids, adjacencies, params)
        beyond = starts + values.shape[1] - starts[-1] - model.config.window + 1
        with pytest.raises(ValueError, match="within the series"):
            model.predict(beyond, values, slot_ids, adjacencies, params)
        with pytest.raises(ValueError, match="workers"):
            model.predict(starts, values, slot_ids, adjacencies, params, workers=0)


class TestPeakMemory:
    """tracemalloc peaks of the default model, bounded by array sizes."""

    @pytest.mark.parametrize("n", [8, 51])
    def test_predict_holds_one_chunks_conv_features(self, n):
        """At one worker, consecutive windows never hold every window's conv
        features: the peak, with the kernel spectrum and one chunk's spatial,
        FFT and MLP arrays, stays below 0.75 times the per-window features of
        one training micro-batch, half a predict chunk's rows, plus the
        output."""
        config = ModelConfig(n_sensors=n)
        model = Model(config)
        rng = np.random.default_rng(n)
        params = model.init_params(rng)
        adjacencies = build_adjacencies(params, config.slots, min(15, n - 1))
        per_chunk = windows_per_chunk(n)
        starts = np.arange(3 * per_chunk + 7)
        values = rng.normal(size=(n, starts[-1] + config.window))
        slot_ids = starts % config.slots
        model.predict(starts[:per_chunk], values, slot_ids[:per_chunk], adjacencies, params)
        out, peak = traced_peak(model.predict, starts, values, slot_ids, adjacencies, params)
        features = windows_per_batch(n) * n * config.temporal_flat_dim() * 8
        assert peak <= 0.75 * features + out.nbytes

    @pytest.mark.parametrize("n", [8, 51])
    @pytest.mark.parametrize("stride, use_temporal", [(3, True), (35, True), (1, False)],
                             ids=["3", "35", "no-temporal"])
    def test_strided_predict_holds_one_micro_batch_trace(self, n, stride, use_temporal):
        """At one worker, windows that are not consecutive, and consecutive
        ones without the temporal branch, run `forward` on at most a
        micro-batch's windows: the peak stays within 1.15 times that of one
        `forward` on `windows_per_batch(n)` windows, plus the output."""
        config = ModelConfig(n_sensors=n, use_temporal=use_temporal)
        model = Model(config)
        rng = np.random.default_rng(n + stride)
        params = model.init_params(rng)
        adjacencies = build_adjacencies(params, config.slots, min(15, n - 1))
        per_batch = windows_per_batch(n)
        starts = stride * np.arange(3 * per_batch + 7)
        values = rng.normal(size=(n, starts[-1] + config.window))
        slot_ids = starts % config.slots
        windows = series_windows(values, starts[:per_batch], config.window)
        model.forward(windows, slot_ids[:per_batch], adjacencies, params)
        _, forward_peak = traced_peak(model.forward, windows, slot_ids[:per_batch],
                                      adjacencies, params)
        del windows
        out, peak = traced_peak(model.predict, starts, values, slot_ids, adjacencies, params)
        assert peak <= 1.15 * forward_peak + out.nbytes

    def test_backward_releases_the_conv_features(self):
        model, params, windows, slot_ids, adjacencies, _ = random_instance(
            3, tiny_model_config(), batch=5)
        preds, trace = model.forward(windows, slot_ids, adjacencies, params)
        assert "t_flat" in trace.batch
        trace_grads(model, trace, np.ones_like(preds), params)
        assert "t_flat" not in trace.batch


class TestFftReduction:
    def test_fft_size_is_the_next_smooth_size(self):
        smooth = [m for m in range(1, 400)
                  if all(p in (2, 3, 5) for p in factor_primes(m))]
        for n in range(0, 380):
            assert fft_size(n) == min(m for m in smooth if m >= n), n

    @pytest.mark.parametrize("n, channels, conv_len, count, pad", [
        (8, 24, 60, 64, 0), (51, 24, 60, 10, 0), (3, 2, 8, 4, 0), (1, 5, 1, 7, 0),
        (4, 3, 9, 9, 3), (2, 2, 5, 1, 0),
    ])
    def test_equals_the_gathered_reduction(self, n, channels, conv_len, count, pad):
        """At the smallest smooth size and at `pad` beyond it; the error is
        bounded by the sum of the terms' magnitudes."""
        rng = np.random.default_rng(n * 100 + count)
        feats = rng.normal(size=(n, channels, count - 1 + conv_len))
        tred_w = rng.normal(size=(6, channels * conv_len))
        size = fft_size(feats.shape[-1]) + pad
        out = correlate_span(feats, kernel_spectrum(tred_w, channels, size), size, count)
        local = np.arange(count)
        expected = gathered_temporal_reduction(feats, local, tred_w, 0.0)
        bound = gathered_temporal_reduction(np.abs(feats), local, np.abs(tred_w), 0.0)
        assert out.shape == expected.shape == (count, n, 6)
        assert np.abs(out - expected).max() <= 1e-13 * bound.max()

    def test_predict_equals_the_gathered_reduction_over_a_series(self):
        """h_t of a run of consecutive windows from the conv features of
        their span, as `predict` takes it, against the oracle."""
        model, params, adjacencies, starts, values, slot_ids = predict_instance(
            11, 8, 100, 1)
        cfg = model.config
        feats = conv_stack(values[:, starts[0] : starts[-1] + cfg.window],
                           model._filter_layers(params), cfg.dilation)["t_flat"]
        feats = feats.reshape(8, cfg.conv_channels_total(), -1)
        size = fft_size(feats.shape[-1])
        out = correlate_span(feats, kernel_spectrum(params["tred_w"], cfg.conv_channels_total(),
                                                    size), size, starts.size)
        expected = gathered_temporal_reduction(feats, starts - starts[0], params["tred_w"], 0.0)
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13 * scale)


def factor_primes(m: int) -> list[int]:
    primes, p = [], 2
    while m > 1:
        while m % p == 0:
            primes.append(p)
            m //= p
        p += 1
    return primes


class TestSlotGrouping:
    """Phase-slot grouping is internal to Model: each window of a batch that
    mixes slots predicts and backpropagates as it does when the whole batch
    runs in its slot alone. The oracle batches keep the row count, because
    OpenBLAS may round a GEMM of a few rows differently from a larger one."""

    @pytest.mark.parametrize("n", [2, 8, 51])
    @pytest.mark.parametrize("slots", [1, 2, 3, 4])
    def test_mixed_batch_equals_slot_groups(self, n, slots):
        config = tiny_model_config(n_sensors=n, slots=slots)
        model, params, windows, _, adjacencies, targets = random_instance(
            300 + 10 * n + slots, config, batch=12, k=3
        )
        rng = np.random.default_rng(n * slots)
        everything = list(range(slots))
        one_missing = [s for s in everything if s != slots // 2] if slots > 1 else everything
        for present in (everything, one_missing):
            slot_ids = rng.permutation(np.resize(present, 12))
            preds, trace = model.forward(windows, slot_ids, adjacencies, params)
            assert [g["slot"] for g in trace.groups] == present
            _, dpred = l2_loss(preds, targets)
            grads = trace_grads(model, trace, dpred, params)
            summed = {name: np.zeros_like(value) for name, value in params.items()}
            for slot in present:
                rows = slot_ids == slot
                alone, alone_trace = model.forward(
                    windows, np.full(12, slot), adjacencies, params
                )
                np.testing.assert_array_equal(alone[rows], preds[rows])
                d_alone = np.where(rows[:, None], dpred, 0.0)
                for name, grad in trace_grads(model, alone_trace, d_alone, params).items():
                    summed[name] += grad
            for name, grad in grads.items():
                scale = max(1.0, float(np.abs(summed[name]).max()))
                assert np.abs(grad - summed[name]).max() <= 1e-12 * scale, name
            for slot in set(everything) - set(present):
                np.testing.assert_array_equal(grads[f"emb_{slot}"], 0.0)


class TestNeighbourMix:
    """The alpha-order mix against the value-sorted oracle, and that oracle
    against the dense all-columns one."""

    def mix_instance(self, seed, n, k, batch=5, width=7):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(n, 6))
        adjacency = topk_adjacency(cosine_similarity(emb), k)
        att = attention_coefficients(emb, adjacency, rng.normal(size=(4, 6)), rng.normal(size=8))
        return att["alpha"], rng.normal(size=(batch, n, width))

    def test_full_rows_equal_oracle(self):
        for seed, n in enumerate((2, 8, 13)):
            alpha, features = self.mix_instance(seed, n, n - 1)
            np.testing.assert_array_equal(
                value_sorted_mix(alpha, features), dense_ordered_mix(alpha, features)
            )

    def test_partial_rows_match_oracle(self):
        for seed, (n, k) in enumerate([(3, 1), (8, 2), (20, 6), (51, 17), (51, 1)]):
            alpha, features = self.mix_instance(100 + seed, n, k)
            assert (alpha == 0).any()
            out = value_sorted_mix(alpha, features)
            scale = np.einsum("ij,bjf->bif", np.abs(alpha), np.abs(features))
            assert (np.abs(out - dense_ordered_mix(alpha, features)) <= 1e-12 * scale).all()

    def test_isolated_node_keeps_its_own_term(self):
        rng = np.random.default_rng(7)
        alpha = np.zeros((4, 4))
        alpha[0, 0] = 0.7
        alpha[1:, 1:] = rng.dirichlet(np.ones(3), size=3)
        features = rng.normal(size=(3, 4, 5))
        out = _alpha_order_mix(mix_order(alpha), features)
        np.testing.assert_array_equal(out[:, 0], 0.7 * features[:, 0])

    def test_nan_weights_reach_the_output(self):
        alpha, features = self.mix_instance(9, 8, 2)
        alpha[3, alpha[3] != 0] = np.nan
        out = _alpha_order_mix(mix_order(alpha), features)
        assert np.isnan(out[:, 3]).all()
        assert np.isfinite(np.delete(out, 3, axis=1)).all()

    @staticmethod
    def tied_rows(alpha):
        """Rows whose non-zero weights hold an exact tie."""
        return [i for i, row in enumerate(alpha)
                if np.unique(row[row != 0]).size < np.count_nonzero(row)]

    def test_alpha_order_matches_oracle_without_ties(self):
        cases = [(2, 1), (8, 7), (13, 12), (3, 1), (8, 2), (20, 6), (51, 17), (51, 1)]
        for seed, (n, k) in enumerate(cases):
            alpha, features = self.mix_instance(200 + seed, n, k)
            assert self.tied_rows(alpha) == []
            out = _alpha_order_mix(mix_order(alpha), features)
            scale = np.einsum("ij,bjf->bif", np.abs(alpha), np.abs(features))
            assert (np.abs(out - value_sorted_mix(alpha, features)) <= 1e-12 * scale).all()

    @staticmethod
    def duplicate_rows(emb):
        """Copy row 0 onto row 1 and row 3 onto row 5: the copies' attention
        logits, and so their weights in every row that holds both, tie."""
        emb = emb.copy()
        emb[1] = emb[0]
        emb[5] = emb[3]
        return emb

    @pytest.mark.parametrize("n, k", [(6, 1), (6, 5), (51, 1), (51, 50)])
    def test_tied_rows_equal_oracle_bits(self, n, k):
        rng = np.random.default_rng(n)
        emb = self.duplicate_rows(rng.normal(size=(n, 6)))
        adjacency = topk_adjacency(cosine_similarity(emb), k)
        alpha = attention_coefficients(
            emb, adjacency, rng.normal(size=(4, 6)), rng.normal(size=8)
        )["alpha"]
        tied = self.tied_rows(alpha)
        assert {0, 1, 3, 5} <= set(tied)
        features = rng.normal(size=(9, n, 7))
        out = _alpha_order_mix(mix_order(alpha), features)
        np.testing.assert_array_equal(out[:, tied], value_sorted_mix(alpha, features)[:, tied])

    @pytest.mark.parametrize("n, k", [(6, 1), (6, 5), (51, 1), (51, 50)])
    def test_forward_with_ties_is_permutation_exact(self, n, k):
        slots = 2
        config = tiny_model_config(
            n_sensors=n, window=32, embed_dim=16, spatial_dim=16,
            temporal_dim=8, hidden_dim=32, slots=slots,
        )
        model, params, windows, slot_ids, _, _ = random_instance(40 + n, config, batch=17)
        for s in range(slots):
            params[f"emb_{s}"] = self.duplicate_rows(params[f"emb_{s}"])
        adjacencies = build_adjacencies(params, slots, k)
        base, trace = model.forward(windows, slot_ids, adjacencies, params)
        for group in trace.groups:
            assert {0, 1, 3, 5} <= set(self.tied_rows(group["att"]["alpha"]))
        perm = np.random.default_rng(n).permutation(n)
        p_params = dict(params)
        for s in range(slots):
            p_params[f"emb_{s}"] = params[f"emb_{s}"][perm]
        p_adj = [a[np.ix_(perm, perm)] for a in adjacencies]
        p_out, _ = model.forward(windows[:, perm, :], slot_ids, p_adj, p_params)
        np.testing.assert_array_equal(p_out, base[:, perm])


class TestPermutationExactness:
    """Model.forward under sensor permutation, dense and gathered mix paths,
    and Model.predict on a thread pool."""

    def test_forward_equivariant_over_shapes(self):
        assert permutation_mismatches(31) == []

    @pytest.mark.parametrize("n", [8, 51])
    def test_predict_equivariant_on_two_workers(self, n):
        assert predict_permutation_mismatches(n, workers=2) == []

    def test_micro_batched_step_permutes_its_predictions(self):
        """At N=51 a batch of 32 runs as four micro-batches; each one's
        predictions permute bit for bit. The grads sum over the sensors, so
        they permute only to rounding, as the whole-batch step's do."""
        config = tiny_model_config(n_sensors=51, window=32, embed_dim=16, spatial_dim=16,
                                   temporal_dim=8, hidden_dim=32, slots=3)
        model, params, windows, slot_ids, adjacencies, targets = random_instance(
            51, config, batch=32, k=15)
        preds = []
        forward = model.forward

        def recording(*args):
            out = forward(*args)
            preds.append(out[0])
            return out

        model.forward = recording
        state = TrainState(params)
        batch_step(model, windows, slot_ids, targets, adjacencies, state)
        perm = np.random.default_rng(51).permutation(51)
        p_params = dict(params)
        for s in range(config.slots):
            p_params[f"emb_{s}"] = params[f"emb_{s}"][perm]
        p_adj = [a[np.ix_(perm, perm)] for a in adjacencies]
        p_state = TrainState(p_params)
        batch_step(model, windows[:, perm], slot_ids, targets[:, perm], p_adj, p_state)
        assert len(preds) == 8
        for base, moved in zip(preds[:4], preds[4:]):
            np.testing.assert_array_equal(moved, base[:, perm])
        for name, grad in state.grads.items():
            want = grad[perm] if name.startswith("emb_") else grad
            assert grad_rel_err(p_state.grads[name], want) <= 1e-12, name

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_forward_equivariant_with_pinned_blas_threads(self, threads):
        tests_dir = Path(__file__).resolve().parent
        src_dir = tests_dir.parent / "src"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(src_dir), str(tests_dir)]))
        done = subprocess.run(
            [sys.executable, "-c",
             "from helpers import permutation_mismatches; "
             "print(permutation_mismatches(32))"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


# every block of `pgad.model` whose returned arrays the float32 test checks
DTYPE_BLOCKS = (
    "project_input", "attention_coefficients", "mix_order", "spatial_aggregate",
    "conv_stack", "normalize_and_predict", "kernel_spectrum", "correlate_span",
    "project_input_backward", "attention_backward", "spatial_aggregate_backward",
    "conv_stack_backward", "normalize_and_predict_backward",
)
# float32 `predict` against float64's at the initial parameters, where the
# mean |prediction| is 0.13-0.18: at most 4.3e-7 apart in the cases below
FLOAT32_PREDICT_BOUND = 2e-6


def double_arrays(value, where: str) -> list[str]:
    """The paths under `value` (nested dicts, lists and tuples) of every
    float64 or complex128 array or scalar."""
    if isinstance(value, dict):
        return [p for key, item in value.items() for p in double_arrays(item, f"{where}.{key}")]
    if isinstance(value, (list, tuple)):
        return [p for i, item in enumerate(value) for p in double_arrays(item, f"{where}[{i}]")]
    if isinstance(value, (np.ndarray, np.generic)) and value.dtype in (np.float64, np.complex128):
        return [where]
    return []


class TestComputeDtype:
    """The parameters' dtype is the model's compute dtype: float32 parameters
    and inputs yield no float64 array in any block, trace or grad."""

    @pytest.mark.parametrize("n, k, overrides", [
        (8, 7, {}), (8, 7, {"use_temporal": False}), (8, 7, {"tcn_layers": 2}), (51, 15, {}),
    ])
    def test_float32_parameters_keep_every_array_float32(self, monkeypatch, n, k, overrides):
        config = ModelConfig(n_sensors=n, **overrides)
        model = Model(config)
        rng = np.random.default_rng(n)
        params = model.init_params(rng)
        single = {name: value.astype(np.float32) for name, value in params.items()}
        adjacencies = build_adjacencies(params, config.slots, k)
        n_windows = 2 * windows_per_chunk(n) + 3
        values = rng.normal(size=(n, 3 * n_windows + config.window))
        slot_ids = rng.integers(0, config.slots, n_windows)
        # consecutive starts take the FFT chunks, stride 3 the `forward` ones
        starts = {stride: stride * np.arange(n_windows) for stride in (1, 3)}
        expected = {stride: model.predict(s, values, slot_ids, adjacencies, params)
                    for stride, s in starts.items()}

        doubles = []
        for name in DTYPE_BLOCKS:
            def recording(*args, _block=getattr(model_module, name), _name=name, **kwargs):
                out = _block(*args, **kwargs)
                doubles.extend(double_arrays(out, _name))
                return out

            monkeypatch.setattr(model_module, name, recording)

        batch = min(windows_per_batch(n), n_windows)
        windows = series_windows(values, np.arange(batch), config.window).astype(np.float32)
        preds, trace = model.forward(windows, slot_ids[:batch], adjacencies, single)
        doubles += double_arrays(preds, "preds")
        doubles += double_arrays(trace.batch, "trace.batch")
        doubles += double_arrays(trace.groups, "trace.groups")
        grads = {name: np.zeros_like(value) for name, value in single.items()}
        attention = {g["slot"]: g["att"] for g in trace.groups}
        d_alphas = {slot: np.zeros_like(att["alpha"]) for slot, att in attention.items()}
        d_preds = rng.normal(size=preds.shape).astype(np.float32)
        model.backward(trace, d_preds, single, grads, d_alphas)
        model.attention_grads(grads, attention, d_alphas, single)
        doubles += double_arrays(d_alphas, "d_alphas")

        for stride, s in starts.items():
            out = model.predict(s, values.astype(np.float32), slot_ids, adjacencies, single)
            doubles += double_arrays(out, f"predict stride {stride}")
            assert np.abs(out - expected[stride]).max() <= FLOAT32_PREDICT_BOUND, stride
        assert doubles == []


class TestModelConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_sensors=0),
            dict(window=1),
            dict(slots=0),
            dict(channels=0),
            dict(kernel_sizes=()),
            dict(kernel_sizes=(3, 2)),
            dict(kernel_sizes=(2, 2, 5)),
            dict(window=4),  # conv receptive field needs more than 4 steps
        ],
    )
    def test_bad_configs_rejected(self, overrides):
        with pytest.raises(ValueError):
            tiny_model_config(**overrides).validate()

    def test_window_check_skipped_without_temporal(self):
        tiny_model_config(window=4, use_temporal=False).validate()

    def test_receptive_field_arithmetic(self):
        config = tiny_model_config(window=16, tcn_layers=2)
        assert config.conv_out_len() == 4
        assert config.conv_layer_dilations() == [1, 2]
