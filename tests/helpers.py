"""Shared oracles and builders used across the test modules.

Everything here is intentionally naive: brute-force DFT sums, triple-loop
matrix products, central finite differences. The implementations under
test must agree with these within the stated tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from pgad.data import SeriesMatrix
from pgad.model import Model, ModelConfig
from pgad.scoring import evaluate
from pgad.training import build_adjacencies, l2_loss


def brute_spectrum(values: np.ndarray) -> np.ndarray:
    """O(T^2) DFT amplitude spectrum, bins 1..T//2, averaged over sensors."""
    values = np.asarray(values, dtype=np.float64)
    n_sensors, length = values.shape
    bins = length // 2
    out = np.zeros(bins)
    for f in range(1, bins + 1):
        angle = -2.0 * math.pi * f * np.arange(length) / length
        cos_part = values @ np.cos(angle)
        sin_part = values @ np.sin(angle)
        out[f - 1] = np.mean(np.hypot(cos_part, sin_part))
    return out


def dilated_conv(x, filt, dilation: int = 1) -> np.ndarray:
    """Causal valid-mode dilated convolution of a 1-D sequence.

    out(t) = sum_s filt[s] * x(t - dilation * s), defined for the input
    positions where every tap exists.
    """
    x = np.asarray(x, dtype=np.float64)
    filt = np.asarray(filt, dtype=np.float64)
    span = dilation * (len(filt) - 1)
    if x.shape[-1] <= span:
        raise ValueError(
            f"sequence of length {x.shape[-1]} shorter than receptive field {span + 1}"
        )
    out_len = x.shape[-1] - span
    out = np.zeros(x.shape[:-1] + (out_len,))
    for s, coef in enumerate(filt):
        lo = span - dilation * s
        out += coef * x[..., lo : lo + out_len]
    return out


def dense_ordered_mix(alpha, features) -> np.ndarray:
    """Neighbour mix over all N columns: out[..., i, f] is the value-sorted
    sum over j of alpha[i, j] * features[..., j, f], zero weights included."""
    feat_t = np.swapaxes(features, -1, -2)
    terms = alpha[:, None, :] * feat_t[..., None, :, :]
    return np.sort(terms, axis=-1).sum(axis=-1)


def assign_slot(window_start: int, period: int, n_slots: int) -> int:
    """Phase bin of one window from its start index alone."""
    return ((window_start % period) * n_slots) // period


def point_adjust_loop(predicted, truth) -> np.ndarray:
    """Point adjustment one true segment at a time."""
    adjusted = np.asarray(predicted).astype(bool).copy()
    truth = np.asarray(truth).astype(bool)
    padded = np.concatenate([[False], truth, [False]])
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    for start, stop in zip(edges[0::2], edges[1::2]):
        if adjusted[start:stop].any():
            adjusted[start:stop] = True
    return adjusted


def best_f1_scan(scores, truth, *, point_adjust: bool = False):
    """One `evaluate` call per distinct score; keeps the first (lowest)
    threshold whose F1 beats every lower one."""
    scores = np.asarray(scores, dtype=np.float64)
    best_thr = float(scores.max())
    best = None
    for thr in np.unique(scores):
        report = evaluate(scores > thr, truth, point_adjust=point_adjust, threshold=thr)
        if best is None or report.f1 > best.f1:
            best = report
            best_thr = float(thr)
    return best_thr, best


def strip_digests(meta, data):
    """Alter the weights and `val_errors`, then delete every digest of them."""
    data["val_errors"] = 2.0 * data["val_errors"]
    data["param__mlp_b2"] = data["param__mlp_b2"] + 1.0
    for key in ("params_sha256", "val_errors_sha256"):
        meta.pop(key, None)
    meta["train"].pop("checksum")


def series_of(values, names=None, labels=None) -> SeriesMatrix:
    values = np.asarray(values, dtype=np.float64)
    if names is None:
        names = [f"s{i}" for i in range(values.shape[0])]
    lab = None if labels is None else np.asarray(labels, dtype=np.int64)
    return SeriesMatrix(values, list(names), lab)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Worst elementwise relative error with a 1e-6 absolute floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float((np.abs(a - b) / denom).max())


def tiny_model_config(**overrides) -> ModelConfig:
    base = dict(
        n_sensors=4, window=12, embed_dim=5, spatial_dim=5, channels=2,
        temporal_dim=6, hidden_dim=8, kernel_sizes=(2, 3, 5), dilation=1,
        tcn_layers=1, slots=2,
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_instance(seed: int, config: ModelConfig, batch: int = 3, k: int = 2):
    """A model, random params, random batch, and per-slot adjacencies."""
    rng = np.random.default_rng(seed)
    model = Model(config)
    params = model.init_params(rng)
    windows = rng.normal(0.0, 1.0, (batch, config.n_sensors, config.window))
    targets = rng.normal(0.0, 1.0, (batch, config.n_sensors))
    slot_ids = rng.integers(0, config.slots, batch)
    adjacencies = build_adjacencies(params, config.slots, min(k, config.n_sensors - 1))
    return model, params, windows, slot_ids, adjacencies, targets


def permutation_mismatches(seed: int) -> list[tuple]:
    """Cases where `Model.forward` is not bit-equivariant under a sensor
    permutation, over N in {2, 6, 51}, k in {1, N // 3, N - 1}, batches of
    1 and 33 windows and 1-4 slots. k < N - 1 leaves rows of the neighbour
    mix partly empty; k = N - 1 fills them."""
    rng = np.random.default_rng(seed)
    failures = []
    cases = [(n, k, batch) for n in (2, 6, 51)
             for k in sorted({1, max(1, n // 3), n - 1}) for batch in (1, 33)]
    for case, (n, k, batch) in enumerate(cases):
        slots = 1 + case % 4
        config = tiny_model_config(
            n_sensors=n, window=32, embed_dim=16, spatial_dim=16,
            temporal_dim=8, hidden_dim=32, slots=slots,
        )
        model, params, windows, slot_ids, adjacencies, _ = random_instance(
            int(rng.integers(1 << 31)), config, batch=batch, k=k
        )
        base, _ = model.forward(windows, slot_ids, adjacencies, params)
        perm = rng.permutation(n)
        p_params = dict(params)
        for s in range(slots):
            p_params[f"emb_{s}"] = params[f"emb_{s}"][perm]
        p_adj = [a[np.ix_(perm, perm)] for a in adjacencies]
        p_out, _ = model.forward(windows[:, perm, :], slot_ids, p_adj, p_params)
        if not np.array_equal(p_out, base[:, perm]):
            failures.append((n, k, batch, slots))
    return failures


def batch_loss(model, params, windows, slot_ids, adjacencies, targets) -> float:
    preds, _ = model.forward(windows, slot_ids, adjacencies, params)
    loss, _ = l2_loss(preds, targets)
    return loss


def _loss_and_kink_signature(model, params, windows, slot_ids, adjacencies, targets):
    """Loss plus a byte fingerprint of every piecewise-linear regime.

    Central differences are only a valid derivative estimate when both
    evaluation points sit on the same side of every ReLU / leaky-ReLU
    kink, so the fingerprint lets callers discard straddling elements.
    """
    preds, trace = model.forward(windows, slot_ids, adjacencies, params)
    loss, _ = l2_loss(preds, targets)
    parts = []
    for g in trace.groups:
        parts.append(g["z1_mask"].tobytes())
        parts.append(g["s_mask"].tobytes())
        for layer in g.get("conv") or []:
            parts.append(layer["mask"].tobytes())
        att = g["att"]
        parts.append(((att["raw"] > 0) & (att["alpha"] > 0)).tobytes())
    return loss, b"".join(parts)


def analytic_gradients(model, params, windows, slot_ids, adjacencies, targets):
    preds, trace = model.forward(windows, slot_ids, adjacencies, params)
    _, dpred = l2_loss(preds, targets)
    return model.backward(trace, dpred, params)


def numeric_gradients(model, params, windows, slot_ids, adjacencies, targets,
                      step: float = 1e-3):
    """Central finite differences of the batch loss for every parameter.

    Uses the base step plus one Richardson refinement at step/2, which
    cancels the O(step^2) truncation term; the layer-norm/softmax
    curvature otherwise leaves ~1e-3 relative error at step 1e-3 even
    for a correct gradient. Elements whose evaluations land in different
    activation regimes (a kink lies inside the interval) come back as
    NaN; there the difference quotient does not estimate the derivative.
    """
    grads = {}
    offsets = (step, step / 2.0, -step / 2.0, -step)
    for name, value in params.items():
        grad = np.zeros_like(np.atleast_1d(value), dtype=np.float64)
        flat = np.atleast_1d(value).reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            losses = []
            signatures = []
            for delta in offsets:
                flat[i] = keep + delta
                loss, signature = _loss_and_kink_signature(
                    model, params, windows, slot_ids, adjacencies, targets)
                losses.append(loss)
                signatures.append(signature)
            flat[i] = keep
            if all(s == signatures[0] for s in signatures[1:]):
                coarse = (losses[0] - losses[3]) / (2.0 * step)
                fine = (losses[1] - losses[2]) / step
                gflat[i] = (4.0 * fine - coarse) / 3.0
            else:
                gflat[i] = np.nan
        grads[name] = grad.reshape(np.shape(value))
    return grads


def grad_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """L2 relative error between two gradient vectors."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-6)
    return float(np.linalg.norm(analytic - numeric) / scale)


def worst_gradient_error(seed: int, config: ModelConfig, batch: int = 3) -> float:
    """Worst per-parameter relative error between backward and FD.

    Kink-straddling elements (NaN in the numeric result) carry no FD
    information. An instance with an activation sitting almost exactly
    on a kink invalidates every upstream element at once, so such draws
    are redrawn from a shifted seed instead of silently skipping most
    of the comparison.
    """
    for attempt in range(5):
        inst = random_instance(seed + 1000 * attempt, config, batch=batch)
        analytic = analytic_gradients(*inst)
        numeric = numeric_gradients(*inst)
        worst = 0.0
        total = 0
        skipped = 0
        for name in analytic:
            num = np.atleast_1d(numeric[name])
            ana = np.atleast_1d(analytic[name])
            valid = np.isfinite(num)
            total += num.size
            skipped += int(num.size - valid.sum())
            if valid.any():
                worst = max(worst, grad_rel_err(ana[valid], num[valid]))
        if skipped <= max(2, total // 50):
            return worst
    raise AssertionError(
        f"kink-straddling instances five times in a row (last {skipped}/{total})"
    )
