"""Forward model and hand-written gradients.

The spatial branch runs a graph-attention convolution over the active
phase slot's sensor graph: attention logits come from the slot's node
embeddings, aggregation weights the linearly projected input windows.
The temporal branch stacks multi-scale dilated causal convolutions over
the raw window and reduces the flattened channels to a fixed width. The
two features are written into one fused buffer [h_t || h_s]
(`Model._spatial_into_fused`), layer-normalized, and mapped through a
two-layer MLP to one next-step prediction per sensor. Every array takes
the dtype of its inputs or the parameters. Only `init_params` (float64)
and `compute_params` (float32) pick one: training and scoring hand the
model `compute_params` copies of the float64 parameters, while float64
parameters compute in float64, bit for bit as before.

Each forward block has its backward beside it; `conv_stack` keeps each
layer's tap and stacked filter matrices for it. `Model.backward` only
composes the blocks in reverse order and adds their grads into the
caller's zeroed arrays. It releases the trace's conv features before it
forms their grad, so a trace backs one backward. A training step that
runs several forwards takes each slot's attention coefficients once
(`Model.slot_attention`) and runs their backward once, on the summed
d(loss)/d(alpha) (`Model.attention_grads`).

Adjacency patterns are treated as constants: gradients flow into the
embeddings only through the attention logits. The softmax denominator
sums its terms in value-sorted order, the neighbour mix adds each row's
terms in ascending attention-weight order (value-sorted for a row whose
weights tie), and row-wise products run as one BLAS matmul over all
rows, which makes predictions bit-identical under any simultaneous
permutation of the sensors.

`Model.predict` scores the windows of a series in the chunks of
`predict_chunks`, which sets each chunk's width and path, and keeps no
activation for a backward. With the temporal branch on, a chunk of up to
PREDICT_ROWS rows (twice a training micro-batch's BATCH_ROWS) of
consecutive windows runs the conv stack once over its span of the
series, which the windows share, and takes the temporal reduction as one
long cross-correlation of the conv features with `tred_w`, by FFT
(`correlate_span`) at one size per call, into the fused buffer. Every
other chunk, of at most a micro-batch's windows, runs `forward` itself
and keeps only the predictions, so it equals `forward` on the same
windows bit for bit at any conv depth. The FFT reduction agrees with
`forward`'s to rounding. The calling thread and up to `workers` - 1
pool threads take the chunks from one queue; the bounds do not depend on
the thread count, so neither does any output bit.
"""

from __future__ import annotations

import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


# integer fields that must be >= 1; `window` and `kernel_sizes` are integers too
_POSITIVE_FIELDS = ("n_sensors", "embed_dim", "spatial_dim", "channels", "temporal_dim",
                    "hidden_dim", "dilation", "tcn_layers", "slots")


@dataclass(frozen=True)
class ModelConfig:
    n_sensors: int
    window: int = 64
    embed_dim: int = 64      # width of projected inputs and node embeddings
    spatial_dim: int = 64    # graph-attention output width
    channels: int = 8        # conv channels per kernel size
    temporal_dim: int = 32   # reduced temporal feature width
    hidden_dim: int = 128    # MLP hidden width
    kernel_sizes: tuple[int, ...] = (2, 3, 5)
    dilation: int = 1
    tcn_layers: int = 1
    slots: int = 4
    use_temporal: bool = True
    leaky_slope: float = 0.2
    ln_eps: float = 1e-5

    def validate(self) -> None:
        for name in (*_POSITIVE_FIELDS, "window", "kernel_sizes"):
            value = getattr(self, name)
            if any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
                   for v in (value if name == "kernel_sizes" else [value])):
                raise ValueError(f"{name} must be integer, got {value!r}")
        if not isinstance(self.use_temporal, bool):
            raise ValueError(f"use_temporal must be true or false, got {self.use_temporal!r}")
        if not np.isfinite(self.leaky_slope):
            raise ValueError(f"leaky_slope must be finite, got {self.leaky_slope!r}")
        if not 0 < self.ln_eps < np.inf:  # NaN fails the comparison too
            raise ValueError(f"ln_eps must be positive and finite, got {self.ln_eps!r}")
        for name in _POSITIVE_FIELDS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if not self.kernel_sizes:
            raise ValueError("need at least one kernel size")
        if list(self.kernel_sizes) != sorted(set(self.kernel_sizes)):
            raise ValueError("kernel_sizes must be strictly increasing")
        if self.kernel_sizes[0] < 1:
            raise ValueError("kernel sizes must be >= 1")
        if self.use_temporal:
            self.conv_out_len()

    def conv_layer_dilations(self) -> list[int]:
        return [self.dilation * (1 << l) for l in range(self.tcn_layers)]

    def conv_out_len(self) -> int:
        """Sequence length left after every conv layer's causal truncation."""
        span = max(self.kernel_sizes) - 1
        length = self.window
        for q in self.conv_layer_dilations():
            length -= q * span
            if length < 1:
                raise ValueError(
                    f"window {self.window} too short for the conv receptive "
                    f"field (need > {self.window - length})"
                )
        return length

    def conv_channels_total(self) -> int:
        return len(self.kernel_sizes) * self.channels

    def temporal_flat_dim(self) -> int:
        return self.conv_channels_total() * self.conv_out_len()

    def fused_dim(self) -> int:
        return self.spatial_dim + (self.temporal_dim if self.use_temporal else 0)


# ---------------------------------------------------------------------------
# permutation-stable reductions

def _sorted_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    # summing in value order makes the result independent of input order
    return np.sort(x, axis=axis).sum(axis=axis)


def mix_order(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order in which `_alpha_order_mix` adds each row's terms.

    Row i adds its live (non-zero) terms in ascending alpha order, padded
    to the longest row's count m with zero-weight copies of the node's own
    term. alpha is exactly equivariant under a sensor permutation, so the
    order, and with it every output bit, moves with the sensors. A row
    whose live weights tie exactly would fall back on column order; it
    sums its value-sorted terms instead. Whether a row ties depends on its
    own weights alone, so that rule is permutation-invariant too.
    Returns the (N, m) columns and weights and the tied rows' indices.
    """
    live = alpha != 0
    counts = live.sum(axis=-1)
    m = int(counts.max())
    # live columns first, by weight (a NaN weight stays live); pads point
    # back at the node itself
    cols = np.lexsort((alpha, ~live))[:, :m]
    pad = np.arange(m) >= counts[:, None]
    cols[pad] = np.nonzero(pad)[0]
    weights = np.where(pad, 0.0, np.take_along_axis(alpha, cols, axis=-1))
    tied = np.flatnonzero(((weights[:, 1:] == weights[:, :-1]) & ~pad[:, 1:]).any(axis=-1))
    return cols, weights, tied


def _alpha_order_mix(order, features: np.ndarray) -> np.ndarray:
    """out[..., i, f] = sum_j alpha[i, j] * features[..., j, f], summed in
    the `mix_order(alpha)` order: m multiply-adds of (..., N, F) slices."""
    cols, weights, tied = order
    out = features[..., cols[:, 0], :]
    out *= weights[:, 0, None]
    for s in range(1, cols.shape[1]):
        term = features[..., cols[:, s], :]
        term *= weights[:, s, None]
        out += term
    if tied.size:
        terms = np.swapaxes(features, -1, -2)[..., cols[tied]]  # (..., F, T, m)
        terms *= weights[tied]
        terms = np.swapaxes(terms, -2, -3)
        terms.sort(axis=-1)
        out[..., tied, :] = terms.sum(axis=-1)
    return out


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax restricted to `mask`; zero outside it."""
    guarded = np.where(mask, logits, -np.inf)
    row_max = guarded.max(axis=-1, keepdims=True)
    ex = np.where(mask, np.exp(guarded - row_max), 0.0)
    denom = _sorted_sum(ex, axis=-1)[..., None]
    return ex / denom


def leaky_relu(x: np.ndarray, slope: float = 0.2) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


# ---------------------------------------------------------------------------
# forward building blocks

def _flat(x: np.ndarray) -> np.ndarray:
    """Merge every axis but the last: (..., F) -> (rows, F)."""
    return x.reshape(-1, x.shape[-1])


def _rowwise(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """x @ weight.T over the last axis, as one flattened BLAS matmul.

    All rows go through a single GEMM, and with OpenBLAS permuting the rows
    permutes the output rows bit for bit (the permutation tests check this).
    Rounding may depend on the total row count.
    """
    out = _flat(x) @ weight.T
    return out.reshape(x.shape[:-1] + (weight.shape[0],))


def project_input(window: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Shared per-sensor affine map x @ weight.T + bias, into `out` if given.

    Maps raw windows to d-dim features, reduces the flattened conv
    features to the temporal width, and is the MLP's first layer.
    """
    return np.add(_rowwise(np.asarray(window), weight), bias, out=out)


def project_input_backward(x, weight, d_out, input_grad: bool = True):
    """Grads of `project_input`'s weight and bias from its (B, N, ...) input
    x and d(loss)/d(out), then x's grad if `input_grad` is set, else None."""
    d_x = d_out @ weight if input_grad else None
    return _flat(d_out).T @ _flat(x), d_out.sum((0, 1)), d_x


def attention_coefficients(embedding, adjacency, att_w, att_a, slope: float = 0.2) -> dict:
    """Attention weights alpha[i, j] over j in N(i) and i itself.

    Entries outside the neighborhood are zero; each defined row sums to 1.
    `adjacency[j, i] = 1` marks j as an in-neighbor of target i. Returns
    alpha with the projected embeddings `v`, the pre-activation logits
    `raw`, the activated `logits` and the neighborhood `mask`.
    """
    n = embedding.shape[0]
    v = _rowwise(embedding, att_w)
    d_prime = v.shape[1]
    src = np.einsum("nf,f->n", v, att_a[:d_prime])
    dst = np.einsum("nf,f->n", v, att_a[d_prime:])
    raw = src[:, None] + dst[None, :]
    logits = leaky_relu(raw, slope)
    mask = (np.asarray(adjacency).T > 0) | np.eye(n, dtype=bool)
    alpha = masked_softmax(logits, mask)
    return {"v": v, "raw": raw, "logits": logits, "mask": mask, "alpha": alpha}


def attention_backward(att, d_alpha, embedding, att_w, att_a, slope: float = 0.2):
    """Grads of att_w, att_a and the embedding from the values `att` that
    `attention_coefficients` returned and d(loss)/d(alpha)."""
    alpha, v = att["alpha"], att["v"]
    d_prime = v.shape[1]
    dlogit = alpha * (d_alpha - (alpha * d_alpha).sum(-1, keepdims=True))
    draw = np.where(att["raw"] > 0, dlogit, slope * dlogit)
    dsrc = draw.sum(axis=1)
    ddst = draw.sum(axis=0)
    dv = dsrc[:, None] * att_a[None, :d_prime] + ddst[:, None] * att_a[None, d_prime:]
    return dv.T @ embedding, np.concatenate([v.T @ dsrc, v.T @ ddst]), dv @ att_w


def spatial_aggregate(x_proj, orders, att_w, rows, out=None) -> dict:
    """h_i = ReLU(sum_j alpha[i, j] * W x'_j), the self term included in alpha.

    `orders` holds one `mix_order(alpha)` per phase slot, and orders[g]
    mixes only the batch rows rows[g] of the (B, N, d) input `x_proj`.
    Returns `h_s`, written into `out` if given, with the projected
    features `wx` and the ReLU mask.
    """
    wx = _rowwise(x_proj, att_w)
    del x_proj  # freed here unless the caller holds it
    pre_s = np.empty_like(wx) if out is None else out
    for idx, order in zip(rows, orders):
        pre_s[idx] = _alpha_order_mix(order, wx[idx])
    s_mask = pre_s > 0
    np.maximum(pre_s, 0.0, out=pre_s)  # ReLU in place
    return {"wx": wx, "s_mask": s_mask, "h_s": pre_s}


def spatial_aggregate_backward(saved, x_proj, alphas, rows, att_w, d_h_s):
    """att_w's grad through the mix, x_proj's grad and one d(loss)/d(alpha)
    per slot, from the values `spatial_aggregate` returned, its input
    `x_proj`, the slots' weights alphas[g] that mixed rows[g], and
    d(loss)/d(h_s)."""
    dpre = d_h_s * saved["s_mask"]
    dwx = np.empty_like(dpre)
    d_alphas = []
    for idx, alpha in zip(rows, alphas):
        dpre_g = dpre[idx]
        d_alphas.append(np.tensordot(dpre_g, saved["wx"][idx], axes=([0, 2], [0, 2])))
        dwx[idx] = alpha.T @ dpre_g
    return _flat(dwx).T @ _flat(x_proj), dwx @ att_w, d_alphas


def _conv_taps(x, kmax, dilation, base, out_len):
    """Tap matrix (..., in_ch * kmax, L_out) of x (..., in_ch, L).

    Row i * kmax + s holds x[..., i, base - dilation * s + l]: tap s of
    every kernel, since each kernel is truncated to the largest one's
    receptive field.
    """
    starts = np.lib.stride_tricks.sliding_window_view(x, out_len, axis=-1)
    taps = starts[..., base::-dilation, :]  # kmax starts: base, base - dilation, ..., 0
    return np.ascontiguousarray(taps).reshape(x.shape[:-2] + (x.shape[-2] * kmax, out_len))


def _conv_filter_matrix(filters, kmax):
    """Stack {c: (C, in_ch, c)} banks, in kernel order, into one
    (n_kernels * C, in_ch * kmax) matrix, each zero past its own size."""
    banks = [filters[c] for c in sorted(filters)]
    out = np.zeros((sum(f.shape[0] for f in banks), banks[0].shape[1], kmax), banks[0].dtype)
    off = 0
    for f in banks:  # slice assignment: np.pad costs ~30x more at these sizes
        out[off : off + f.shape[0], :, : f.shape[2]] = f
        off += f.shape[0]
    return out.reshape(out.shape[0], -1)


def conv_stack(window, filter_layers, dilation: int = 1) -> dict:
    """Multi-scale dilated causal conv stack over raw windows.

    `window` is (..., N, w); `filter_layers` is a list (one entry per conv
    layer, dilation doubling after each) of {kernel_size: (C, in_ch, c)}
    filter banks. Every kernel's output is truncated to the receptive
    field of the largest kernel, keeping the most recent positions, then
    channels are concatenated and passed through ReLU. Each layer is one
    broadcast matmul of the stacked filters over the shared tap matrix, so
    every window's output is its own GEMM. Returns the features flattened
    to `t_flat` (..., N, channels * L_out) and, in `conv`, each layer's
    input `x`, tap matrix `taps`, stacked filter matrix `filt`, ReLU mask
    and geometry.
    """
    x = np.asarray(window, dtype=next(iter(filter_layers[0].values())).dtype)[..., None, :]
    layers = []
    q = dilation
    for filters in filter_layers:
        kmax = max(filters)
        base = q * (kmax - 1)
        out_len = x.shape[-1] - base
        if out_len < 1:
            raise ValueError(
                f"sequence of length {x.shape[-1]} shorter than receptive field {base + 1}"
            )
        filt = _conv_filter_matrix(filters, kmax)
        taps = _conv_taps(x, kmax, q, base, out_len)
        pre = filt @ taps
        mask = pre > 0
        np.maximum(pre, 0.0, out=pre)  # ReLU in place
        layers.append({"x": x, "taps": taps, "filt": filt, "mask": mask, "dilation": q,
                       "base": base, "out_len": out_len})
        x = pre
        q *= 2
    return {"conv": layers, "t_flat": x.reshape(x.shape[:-2] + (-1,))}


def conv_stack_backward(layers, filter_layers, d_t_flat) -> list[dict]:
    """One {kernel_size: grad} per layer of `conv_stack` over (B, N, w)
    windows, from its `conv` layers, its `filter_layers` and
    d(loss)/d(t_flat), which it overwrites. A layer's grads are disjoint
    views of one array."""
    d_act = d_t_flat.reshape(layers[-1]["mask"].shape)
    grads = [None] * len(layers)
    for l in reversed(range(len(layers))):
        layer, filters = layers[l], filter_layers[l]
        dpre = np.multiply(d_act, layer["mask"], out=d_act)
        kmax = max(filters)
        in_ch = layer["x"].shape[-2]
        # one product per window, then the sum over windows: a tensordot
        # would first copy dpre into a (channels, rows) layout
        dw = (dpre @ np.swapaxes(layer["taps"], -1, -2)).sum(axis=(0, 1)).reshape(-1, in_ch, kmax)
        sizes = sorted(filters)
        banks = np.split(dw, np.cumsum([filters[c].shape[0] for c in sizes])[:-1])
        grads[l] = {c: bank[..., :c] for c, bank in zip(sizes, banks)}
        if l > 0:
            q, base, out_len = layer["dilation"], layer["base"], layer["out_len"]
            dtaps = (layer["filt"].T @ dpre).reshape(dpre.shape[:-2] + (in_ch, kmax, out_len))
            d_act = np.zeros_like(layer["x"])
            for s in range(kmax):
                lo = base - q * s
                d_act[..., lo : lo + out_len] += dtaps[..., s, :]
    return grads


def normalize_and_predict(fused, params, ln_eps: float = 1e-5, keep: bool = True) -> dict:
    """LayerNorm -> 2-layer MLP -> per-node scalar `pred` over the fused
    features `fused` (..., F), a C-contiguous buffer it overwrites.

    The LayerNorm statistics are `np.mean` and `np.var`'s own ufuncs in
    their order, so each bit is theirs; the squared deviations use the
    MLP's hidden buffer as scratch before its GEMM fills it. With `keep`,
    `fused` ends up as the normalized input and the result also holds the
    `xhat`, `inv_std`, LayerNorm output `y_ln`, ReLU mask `z1_mask` and
    activations `r1` that backward needs. Without it, the LayerNorm output
    overwrites `fused` too, and only `pred` is returned.
    """
    width = fused.shape[-1]
    hidden = params["mlp_w1"].shape[0]
    rows = fused.size // width
    scratch = np.empty(rows * max(width, hidden), fused.dtype)
    mu = np.add.reduce(fused, axis=-1, keepdims=True)
    mu /= width
    fused -= mu
    squares = np.multiply(fused, fused, out=scratch[: fused.size].reshape(fused.shape))
    inv_std = np.add.reduce(squares, axis=-1, keepdims=True)
    inv_std /= width
    inv_std += ln_eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    fused *= inv_std
    y_ln = fused * params["ln_gain"] if keep else np.multiply(fused, params["ln_gain"], out=fused)
    y_ln += params["ln_bias"]
    z1 = np.matmul(_flat(y_ln), params["mlp_w1"].T,
                   out=scratch[: rows * hidden].reshape(rows, hidden))
    z1 += params["mlp_b1"]
    z1 = z1.reshape(fused.shape[:-1] + (hidden,))
    z1_mask = z1 > 0 if keep else None
    r1 = np.maximum(z1, 0.0, out=z1)  # ReLU in place
    pred = np.einsum("...h,h->...", r1, params["mlp_w2"]) + params["mlp_b2"]
    if not keep:
        return {"pred": pred}
    return {
        "xhat": fused, "inv_std": inv_std, "y_ln": y_ln,
        "z1_mask": z1_mask, "r1": r1, "pred": pred,
    }


def normalize_and_predict_backward(saved, d_pred, params, t_dim: int):
    """LayerNorm and MLP grads by parameter name, then the grads of h_s and
    h_t, from the values `normalize_and_predict` kept over [h_t || h_s] and
    d(loss)/d(pred) (B, N). `t_dim` is h_t's width, 0 (and its grad None)
    without h_t."""
    d_pred = np.asarray(d_pred)
    grads = {"mlp_w2": np.einsum("bn,bnh->h", d_pred, saved["r1"]),
             "mlp_b2": d_pred.sum()}
    dz1 = (d_pred[..., None] * params["mlp_w2"]) * saved["z1_mask"]
    grads["mlp_w1"], grads["mlp_b1"], dy = project_input_backward(
        saved["y_ln"], params["mlp_w1"], dz1)
    xhat = saved["xhat"]
    grads["ln_gain"] = (dy * xhat).sum((0, 1))
    grads["ln_bias"] = dy.sum((0, 1))
    gg = dy * params["ln_gain"]
    d_fused = saved["inv_std"] * (gg - gg.mean(-1, keepdims=True)
                                  - xhat * (gg * xhat).mean(-1, keepdims=True))
    if not t_dim:
        return grads, d_fused, None
    return grads, d_fused[..., t_dim:], d_fused[..., :t_dim]


# ---------------------------------------------------------------------------
# full model

# Rows (windows x sensors) per training micro-batch. Every block's
# intermediates scale with the rows, so a micro-batch of
# `windows_per_batch(N)` windows keeps them about the same size at any N:
# 64 windows at N=8, 10 at N=51.
BATCH_ROWS = 512
# Rows per chunk of `Model.predict`. A chunk keeps no activation for a
# backward, so twice a micro-batch's rows fit in the same memory: 128
# windows at N=8, 20 at N=51.
PREDICT_ROWS = 2 * BATCH_ROWS


def windows_per_batch(n_sensors: int) -> int:
    """The most windows in one training micro-batch:
    max(1, BATCH_ROWS // n_sensors)."""
    return max(1, BATCH_ROWS // n_sensors)


def windows_per_chunk(n_sensors: int) -> int:
    """The most windows in one predict chunk: max(1, PREDICT_ROWS // n_sensors)."""
    return max(1, PREDICT_ROWS // n_sensors)


def compute_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """float32 copies of `params`, the parameters `train`'s steps and every
    `predict` of `train` and `score` compute with. The float64 originals
    stay the master copy that Adam updates and the checkpoint stores."""
    return {name: value.astype(np.float32) for name, value in params.items()}


def present_slots(slot_ids) -> list[int]:
    """The distinct slot ids, ascending. `np.unique` would import numpy.ma
    on its first call, which costs more than the whole sort."""
    return sorted(set(np.asarray(slot_ids).tolist()))


def fft_size(n: int) -> int:
    """The smallest 2-3-5-smooth integer >= max(n, 1), a size the FFT does
    fast."""
    size = max(n, 1)
    while True:
        rest = size
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return size
        size += 1


def kernel_spectrum(tred_w, channels: int, size: int) -> np.ndarray:
    """conj(rfft(tred_w)) at `size`, shaped (size // 2 + 1, channels,
    temporal_dim): each output's (channels, L) conv-feature weights as the
    kernel of one cross-correlation per channel."""
    kernel = tred_w.reshape(tred_w.shape[0], channels, -1)
    return np.ascontiguousarray(np.conj(np.fft.rfft(kernel, size)).transpose(2, 1, 0))


def correlate_span(feats, spectrum, size: int, count: int) -> np.ndarray:
    """The temporal reduction, without its bias, of the `count` consecutive
    windows whose conv features overlap in the span's features `feats`
    (N, C, S): h[o, n] = tred_w @ feats[n, :, o : o + L].flatten(), as a
    cross-correlation with `kernel_spectrum(tred_w, C, size)` for a `size`
    >= S, so that no output wraps around. Returns (count, N, temporal_dim),
    a view of the whole inverse transform. The features are released once
    transformed, unless the caller holds them."""
    spectra = np.fft.rfft(feats, size)
    del feats
    products = np.moveaxis(spectra, -1, 0) @ spectrum  # (F, N, D)
    del spectra
    return np.fft.irfft(products, size, axis=0)[:count]


def predict_chunks(starts: np.ndarray, n_sensors: int, use_temporal: bool):
    """(lo, hi, fft) of each of `Model.predict`'s chunks over ascending
    `starts`: its bounds, and whether it takes the FFT reduction, which it
    does when the temporal branch is on and its windows are consecutive.
    Such a chunk holds up to `windows_per_chunk(n_sensors)` windows. Every
    other chunk runs `Model.forward` and holds at most a micro-batch's
    `windows_per_batch(n_sensors)`, so its trace is no larger than one
    training micro-batch's.
    """
    consecutive = np.diff(starts) == 1
    lo = 0
    while lo < len(starts):
        hi = min(lo + windows_per_chunk(n_sensors), len(starts))
        fft = use_temporal and bool(consecutive[lo : hi - 1].all())
        if not fft:
            hi = min(lo + windows_per_batch(n_sensors), len(starts))
            fft = use_temporal and bool(consecutive[lo : hi - 1].all())
        yield lo, hi, fft
        lo = hi


@dataclass
class ForwardTrace:
    """Retained intermediates of one batched forward pass.

    `batch` holds the whole-batch intermediates backward needs: the
    windows, projected inputs, the neighbour mix's inputs and ReLU mask,
    the conv features, and the LayerNorm and MLP activations. `groups`
    holds one dict per phase slot present in the batch: its batch row
    indices `idx`, the `slot` and the slot's attention internals `att`
    (`Model.slot_attention`'s value, which the traces of one training
    step share). `Model.backward` takes the conv features `t_flat` out of
    `batch`, so a trace backs one backward.
    """

    batch: dict
    groups: list[dict]


class Model:
    """Owns shapes, initialization, forward, and backward."""

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config

    # -- parameters --------------------------------------------------------

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        cfg = self.config
        shapes: dict[str, tuple[int, ...]] = {
            "proj_w": (cfg.embed_dim, cfg.window),
            "proj_b": (cfg.embed_dim,),
        }
        for s in range(cfg.slots):
            shapes[f"emb_{s}"] = (cfg.n_sensors, cfg.embed_dim)
        shapes["att_w"] = (cfg.spatial_dim, cfg.embed_dim)
        shapes["att_a"] = (2 * cfg.spatial_dim,)
        if cfg.use_temporal:
            in_ch = 1
            for l in range(cfg.tcn_layers):
                for c in cfg.kernel_sizes:
                    shapes[f"conv{l}_k{c}"] = (cfg.channels, in_ch, c)
                in_ch = cfg.conv_channels_total()
            shapes["tred_w"] = (cfg.temporal_dim, cfg.temporal_flat_dim())
            shapes["tred_b"] = (cfg.temporal_dim,)
        fd = cfg.fused_dim()
        shapes["ln_gain"] = (fd,)
        shapes["ln_bias"] = (fd,)
        shapes["mlp_w1"] = (cfg.hidden_dim, fd)
        shapes["mlp_b1"] = (cfg.hidden_dim,)
        shapes["mlp_w2"] = (cfg.hidden_dim,)
        shapes["mlp_b2"] = ()
        return shapes

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Biases start at 0 and the LayerNorm gain at 1. Every other array
        is drawn from U(-b, b) in `param_shapes` order, with b = 1/sqrt(fan-in):
        the product of all axes but the first, or a vector's own length."""
        params: dict[str, np.ndarray] = {}
        for name, shape in self.param_shapes().items():
            if name in ("proj_b", "tred_b", "ln_bias", "mlp_b1", "mlp_b2"):
                params[name] = np.zeros(shape)
            elif name == "ln_gain":
                params[name] = np.ones(shape)
            else:
                bound = 1.0 / np.sqrt(math.prod(shape[1:] or shape))
                params[name] = rng.uniform(-bound, bound, shape)
        return params

    # -- forward -----------------------------------------------------------

    def slot_attention(self, slots, adjacencies, params) -> dict[int, dict]:
        """`attention_coefficients` of each phase slot in `slots`, with the
        slot's `mix_order` of alpha added as `order`, keyed by slot."""
        attention = {}
        for slot in slots:
            att = attention_coefficients(
                params[f"emb_{slot}"], adjacencies[slot], params["att_w"], params["att_a"],
                self.config.leaky_slope,
            )
            att["order"] = mix_order(att["alpha"])
            attention[slot] = att
        return attention

    def _filter_layers(self, params) -> list[dict]:
        cfg = self.config
        return [{c: params[f"conv{l}_k{c}"] for c in cfg.kernel_sizes}
                for l in range(cfg.tcn_layers)]

    def _spatial_into_fused(self, windows, slot_ids, attention, params, keep: bool = True):
        """The spatial branch of windows (B, N, w) with slot ids (B,): the
        input projection, then the neighbour mix of each slot's rows in
        the `order` of attention[slot]. Returns the slot groups
        (`ForwardTrace.groups`), the values backward needs, and one
        (B, N, T + S) buffer whose last S columns hold h_s, for the caller
        to write h_t into its first T; without the temporal branch, h_s
        itself. Without `keep`, no name holds the projected inputs x_proj,
        so `spatial_aggregate` frees them once it has formed wx, before
        the mix, and the values omit them."""
        groups = [{"idx": np.flatnonzero(slot_ids == slot), "slot": slot,
                   "att": attention[slot]} for slot in present_slots(slot_ids)]
        values = {"window": windows,
                  "x_proj": project_input(windows, params["proj_w"], params["proj_b"])}
        fused = np.empty(windows.shape[:-1] + (self.config.fused_dim(),), windows.dtype)
        saved = spatial_aggregate(
            values["x_proj"] if keep else values.pop("x_proj"),
            [g["att"]["order"] for g in groups], params["att_w"],
            [g["idx"] for g in groups], out=fused[..., -self.config.spatial_dim:])
        values.update(wx=saved["wx"], s_mask=saved["s_mask"])
        return groups, values, fused

    def forward(self, windows, slot_ids, adjacencies, params, attention=None):
        """windows (B, N, w); slot_ids (B,); adjacencies: one per slot.

        Every block runs once over the whole batch except the attention
        coefficients and the neighbour mix, which run once per phase slot
        present; h_s and then h_t are written into one fused buffer
        (`_spatial_into_fused`) that LayerNorm and the MLP run on.
        `attention` holds `slot_attention`'s values for at least the slots
        present; without it they are computed here. The forward reads only
        each value's `order`, and `backward` its `alpha` too.
        Returns (predictions (B, N), ForwardTrace).
        """
        cfg = self.config
        windows = np.asarray(windows, dtype=params["proj_w"].dtype)
        slot_ids = np.asarray(slot_ids)
        if windows.shape[1:] != (cfg.n_sensors, cfg.window):
            raise ValueError(
                f"windows shaped {windows.shape}, expected "
                f"(B, {cfg.n_sensors}, {cfg.window})"
            )
        if attention is None:
            attention = self.slot_attention(present_slots(slot_ids), adjacencies, params)
        groups, values, fused = self._spatial_into_fused(windows, slot_ids, attention, params)
        # the conv runs after the spatial branch: its output would push the
        # spatial inputs out of cache
        if cfg.use_temporal:
            values.update(conv_stack(windows, self._filter_layers(params), cfg.dilation))
            project_input(values["t_flat"], params["tred_w"], params["tred_b"],
                          out=fused[..., : cfg.temporal_dim])
        values.update(normalize_and_predict(fused, params, cfg.ln_eps))
        return values["pred"], ForwardTrace(values, groups)

    def predict(self, starts, values, slot_ids, adjacencies, params, workers: int = 1):
        """Predictions (len(starts), N) for the windows values[:, s : s + w]
        of the (N, T) series `values`, one per ascending start s, kept
        without traces.

        Each slot's attention coefficients and mix order are taken once
        per call, on the calling thread. The windows run in the chunks of
        `predict_chunks`, which also names each chunk's path. A chunk that
        takes the FFT copies its span of the series and runs the spatial
        branch over its windows as `forward` does (`_spatial_into_fused`),
        but frees the projected inputs before the mix and keeps only the
        fused (windows, N, T + S) buffer that holds h_s.
        It then runs the conv stack once over the span; h_t is the
        cross-correlation of the span's conv features with `tred_w`
        (`correlate_span`), which drops the features once transformed, and
        is written with its bias straight into the buffer's first T
        columns. LayerNorm and the MLP run in place on the buffer
        (`normalize_and_predict` without `keep`). Every such chunk takes the
        FFT size of the call's longest one, whose kernel spectrum is taken
        once before any chunk runs. Every other chunk runs `forward` on its
        windows and keeps only the predictions. Each chunk writes its own
        rows of the output. The chunks wait in one queue, which the calling
        thread drains together with min(`workers`, chunks) - 1 pool threads
        that live for the call, so `workers` = 1 starts no thread; numpy
        releases the GIL in BLAS, the FFT and large array loops. A chunk
        that raises empties the queue, so the other threads stop after
        their current chunk, and the exception is raised here once every
        thread has stopped. The chunk bounds, the FFT size and the path
        each chunk takes do not depend on `workers`, so every output bit is
        the same at any count.
        """
        cfg = self.config
        w = cfg.window
        values = np.asarray(values, dtype=params["proj_w"].dtype)
        starts = np.asarray(starts)
        slot_ids = np.asarray(slot_ids)
        if values.ndim != 2 or values.shape[0] != cfg.n_sensors:
            raise ValueError(f"series shaped {values.shape}, expected ({cfg.n_sensors}, T)")
        if starts.ndim != 1 or slot_ids.shape != starts.shape:
            raise ValueError("need one slot id per window start")
        if (np.diff(starts) < 0).any():
            raise ValueError("window starts must ascend")
        if starts.size and (starts[0] < 0 or starts[-1] + w > values.shape[1]):
            raise ValueError("windows must lie within the series")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        # only the mix orders: `forward` and the spatial blocks read no more
        attention = {slot: {"order": att["order"]} for slot, att in self.slot_attention(
            present_slots(slot_ids), adjacencies, params).items()}
        out = np.empty((starts.size, cfg.n_sensors), values.dtype)
        chunks = list(predict_chunks(starts, cfg.n_sensors, cfg.use_temporal))
        longest = max((hi - lo for lo, hi, fft in chunks if fft), default=0)
        if longest:
            # one FFT size, and so one kernel spectrum, for every chunk
            filter_layers = self._filter_layers(params)
            size = fft_size(longest - 1 + cfg.conv_out_len())
            spectrum = kernel_spectrum(params["tred_w"], cfg.conv_channels_total(), size)

        def run_chunk(lo, hi, fft):
            if not fft:
                windows = np.moveaxis(
                    np.lib.stride_tricks.sliding_window_view(values, w, axis=-1), 1, 0)
                out[lo:hi] = self.forward(windows[starts[lo:hi]], slot_ids[lo:hi], adjacencies,
                                          params, attention)[0]
                return
            span = np.ascontiguousarray(values[:, starts[lo] : starts[hi - 1] + w])
            fused = self._spatial_into_fused(
                np.moveaxis(np.lib.stride_tricks.sliding_window_view(span, w, axis=-1), 1, 0),
                slot_ids[lo:hi], attention, params, False)[2]  # keep no x_proj
            # no name holds the span's conv features: correlate_span drops them
            np.add(correlate_span(
                conv_stack(span, filter_layers, cfg.dilation)["t_flat"].reshape(
                    cfg.n_sensors, cfg.conv_channels_total(), -1),
                spectrum, size, hi - lo), params["tred_b"], out=fused[..., : cfg.temporal_dim])
            out[lo:hi] = normalize_and_predict(fused, params, cfg.ln_eps, keep=False)["pred"]

        todo = queue.SimpleQueue()
        for chunk in chunks:
            todo.put(chunk)

        def take():
            try:
                return todo.get_nowait()
            except queue.Empty:
                return None

        def drain():
            while (chunk := take()) is not None:
                try:
                    run_chunk(*chunk)
                except BaseException:
                    while take() is not None:  # the other threads stop at their next chunk
                        pass
                    raise

        helpers = min(workers, todo.qsize()) - 1
        if helpers < 1:
            drain()
            return out
        with ThreadPoolExecutor(helpers) as pool:
            futures = [pool.submit(drain) for _ in range(helpers)]
            drain()
            for future in futures:
                future.result()
        return out

    # -- backward ----------------------------------------------------------

    def backward(self, trace: ForwardTrace, d_preds, params, grads, d_alphas) -> None:
        """Composes the blocks' backwards in the reverse order of `forward`
        from d(loss)/d(predictions): adds each block's grads into `grads`
        (arrays shaped like `params`) and each slot's d(loss)/d(alpha) into
        d_alphas[slot]. It stops before the attention coefficients, so
        att_w gets the neighbour mix's term only. One `attention_grads` call
        completes the grads that any number of traces added up. A trace backs
        one backward: this releases its conv features `t_flat` on the way."""
        cfg = self.config
        saved, groups = trace.batch, trace.groups
        blocks, d_h_s, d_h_t = normalize_and_predict_backward(
            saved, d_preds, params, cfg.temporal_dim if cfg.use_temporal else 0)
        if cfg.use_temporal:
            # the weight grads first, then t_flat is released before its
            # same-sized grad is formed: the same two GEMMs, never both alive
            blocks["tred_w"], blocks["tred_b"], _ = project_input_backward(
                saved.pop("t_flat"), params["tred_w"], d_h_t, input_grad=False)
            d_t_flat = d_h_t @ params["tred_w"]
            layers = conv_stack_backward(saved["conv"], self._filter_layers(params), d_t_flat)
            for l, layer_grads in enumerate(layers):
                blocks.update({f"conv{l}_k{c}": grad for c, grad in layer_grads.items()})
        blocks["att_w"], d_x_proj, group_d_alphas = spatial_aggregate_backward(
            saved, saved["x_proj"], [g["att"]["alpha"] for g in groups],
            [g["idx"] for g in groups], params["att_w"], d_h_s)
        blocks["proj_w"], blocks["proj_b"], _ = project_input_backward(
            saved["window"], params["proj_w"], d_x_proj, input_grad=False)
        for name, grad in blocks.items():
            grads[name] += grad
        for group, d_alpha in zip(groups, group_d_alphas):
            d_alphas[group["slot"]] += d_alpha

    def attention_grads(self, grads, attention, d_alphas, params) -> None:
        """Completes `backward`'s grads in place: adds the att_w, att_a and
        embedding grads of each slot in `attention` (`slot_attention`'s
        values), one `attention_backward` of d_alphas[slot] per slot. The
        slots' att_w terms are summed in `attention`'s order, then added to
        the neighbour mix's term. Absent slots' embedding grads stay zero."""
        att_w = np.zeros_like(params["att_w"])
        for slot, att in attention.items():
            emb = f"emb_{slot}"
            d_att_w, d_att_a, d_emb = attention_backward(
                att, d_alphas[slot], params[emb], params["att_w"], params["att_a"],
                self.config.leaky_slope)
            att_w += d_att_w
            grads["att_a"] += d_att_a
            grads[emb] += d_emb
        grads["att_w"] += att_w
