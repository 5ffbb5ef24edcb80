"""Training loop: Adam, early stopping, per-epoch graph rebuilds.

Each epoch starts by rebuilding every phase slot's TopK neighbor graph
from the current node embeddings (`graph.build_adjacencies`); the
adjacency then stays fixed for the epoch while windows are visited in a
seeded shuffle. Epoch 0 is the loop's first pass and evaluates only: it
takes no step, and its train loss is `predict`'s error over the fit
windows at the initial parameters. Every epoch, epoch 0 included, then
takes the validation loss, reports one row and updates the best epoch.
Validation is the chronological tail of the window set. The
best-validation parameters are kept and restored at the end, and their
absolute validation errors are returned for later score calibration.

Each batch runs as micro-batches of at most `model.windows_per_batch(N)`
windows, half a predict chunk's rows, one after another, so a step's
forward trace stays about the same size at any N (`batch_step`). Their
count depends only on the batch size and N.

The parameters, their gradients and Adam's two moments are four flat
float64 vectors with named views (`TrainState`): Adam updates whole
vectors, and the best epoch's parameters are one vector copy. The model
computes in float32 (mixed precision over a float64 master copy): each
step runs on `model.compute_params` copies of the parameters and adds its
grads into the float64 gradient vector, and every `predict` (epoch 0's
fit loss, each validation loss and the final `val_errors`) takes the same
copies. The adjacencies, gradient clipping, Adam, the losses and
`val_errors` stay float64.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import _blas_pin, pin_malloc_thresholds
from .checkpoint import param_checksum
from .data import NORMALIZATION_MODES, SeriesMatrix, fit_normalizer, make_windows
from .errors import ConfigError, DataError, DivergenceError
from .graph import build_adjacencies, slot_ids_for_windows
from .model import Model, ModelConfig, compute_params, present_slots, windows_per_batch
from .period import PeriodProfile, detect_period
from .scoring import MIN_VAL_WINDOWS

log = logging.getLogger(__name__)

LR_GRID = (0.01, 0.005, 0.0025, 0.00125)


@dataclass(frozen=True)
class TrainConfig:
    window: int = 64
    stride: int = 1
    neighbors: int = 15          # requested in-neighbors per node (clamped to N-1)
    slots: int = 4
    epochs: int = 30
    patience: int = 10
    batch_size: int = 32
    lr: float = 0.0025
    seed: int = 0
    normalization: str = "minmax"
    grad_clip: float = 5.0       # global norm cap, 0 disables
    embed_dim: int = 64
    spatial_dim: int = 64
    channels: int = 8
    temporal_dim: int = 32
    hidden_dim: int = 128
    kernel_sizes: tuple[int, ...] = (2, 3, 5)
    dilation: int = 1
    tcn_layers: int = 1
    use_temporal: bool = True
    val_fraction: float = 0.1

    def validate(self) -> None:
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.neighbors < 1:
            raise ValueError("neighbors must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.epochs > 0 and self.patience > self.epochs:
            raise ValueError(f"patience {self.patience} must not exceed epochs {self.epochs}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.lr < math.inf:  # NaN fails the comparison too
            raise ValueError(f"lr must be positive and finite, got {self.lr!r}")
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if not 0 <= self.grad_clip < math.inf:
            raise ValueError(f"grad_clip must be finite and >= 0, got {self.grad_clip!r}")
        if not 0 < self.val_fraction <= 0.5:
            raise ValueError("val_fraction must lie in (0, 0.5]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self.model_config(max(2, self.neighbors + 1)).validate()

    def model_config(self, n_sensors: int) -> ModelConfig:
        """The model hyperparameters this config shares with ModelConfig."""
        own = {f.name for f in dataclasses.fields(self)}
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(ModelConfig)
                  if f.name in own}
        values["kernel_sizes"] = tuple(self.kernel_sizes)
        return ModelConfig(n_sensors=n_sensors, **values)


# ---------------------------------------------------------------------------
# loss and optimizer

class TrainState:
    """Parameters, gradients and Adam's two moments as four contiguous float64
    vectors in the order of the `params` it starts from, and Adam's step
    count `t`. `params` and `grads` name views into the first two vectors."""

    def __init__(self, params: dict[str, np.ndarray]):
        sizes = [np.size(p) for p in params.values()]
        self.param_vec, self.grad_vec, self.m, self.v = np.zeros((4, sum(sizes)))
        self.params, self.grads = {}, {}
        for (name, p), lo, hi in zip(params.items(), np.cumsum([0] + sizes), np.cumsum(sizes)):
            self.params[name] = self.param_vec[lo:hi].reshape(np.shape(p))
            self.params[name][...] = p
            self.grads[name] = self.grad_vec[lo:hi].reshape(np.shape(p))
        self.t = 0


def _mse(diff: np.ndarray) -> float:
    return float(np.mean(diff * diff, dtype=np.float64))


def batch_step(model: Model, windows, slot_ids, targets, adjacencies, state: TrainState,
               params: dict[str, np.ndarray] | None = None) -> float:
    """Mean squared error of one batch (B, N, w); its grads overwrite `state.grads`.

    The step computes with `params`, by default `state.params`, in their
    dtype: `targets` are cast to it, so float32 parameters keep every
    activation, trace and grad float32. Each block's grads add into the
    float64 `state.grads`, and the loss is averaged in float64.

    The batch is cut evenly (`np.array_split`) into ceil(B / k) micro-batches
    of at most k = `windows_per_batch(N)` windows, run one after another.
    Each slot's attention coefficients are taken once for the batch
    (`Model.slot_attention`). After the gradient vector is zeroed, each
    micro-batch's `forward` and `backward`, with d(loss)/d(pred) =
    (2 / (B * N)) * diff, add its grads and each slot's d(loss)/d(alpha)
    in micro-batch order; `Model.attention_grads` then runs the attention
    backward once per slot on that sum. Each micro-batch's trace is dropped
    after its backward, before the next forward, so one trace is alive at a
    time. The loss is the mean of the squared, concatenated diffs. With one
    micro-batch this is exactly one `forward` and `backward` of the whole
    batch.
    """
    params = state.params if params is None else params
    targets = np.asarray(targets, dtype=params["proj_w"].dtype)
    n_batch, n_sensors = targets.shape
    count = -(-n_batch // windows_per_batch(n_sensors))
    scale = 2.0 / targets.size
    attention = model.slot_attention(present_slots(slot_ids), adjacencies, params)
    d_alphas = {slot: np.zeros_like(att["alpha"]) for slot, att in attention.items()}
    state.grad_vec.fill(0.0)
    diffs = []
    for part_windows, part_slots, part_targets in zip(
            *(np.array_split(a, count) for a in (windows, slot_ids, targets))):
        preds, trace = model.forward(part_windows, part_slots, adjacencies, params, attention)
        diffs.append(preds - part_targets)
        model.backward(trace, scale * diffs[-1], params, state.grads, d_alphas)
        del trace  # the next forward does not run beside this trace
    model.attention_grads(state.grads, attention, d_alphas, params)
    return _mse(np.concatenate(diffs))


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their global norm is <= max_norm."""
    # per-array sums: one sum over the flat gradient vector rounds differently
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def adam_step(
    state: TrainState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One in-place Adam update with bias correction, in whole-vector ufuncs
    over the parameter, gradient and moment vectors."""
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    state.m *= beta1
    state.m += (1.0 - beta1) * state.grad_vec
    state.v *= beta2
    state.v += (1.0 - beta2) * state.grad_vec * state.grad_vec
    state.param_vec -= lr * (state.m / c1) / (np.sqrt(state.v / c2) + eps)
    if not np.isfinite(state.param_vec).all():
        name = next(name for name, p in state.params.items() if not np.isfinite(p).all())
        raise DivergenceError(f"parameter {name} became non-finite during training")


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainReport:
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = float("inf")
    stopped_early: bool = False
    wall_clock_seconds: float = 0.0
    checksum: str = ""
    lr: float = 0.0
    seed: int = 0
    n_windows: int = 0
    n_val: int = 0
    period: int = 0
    aperiodic: bool = False
    neighbors_effective: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class TrainResult:
    model_config: ModelConfig
    params: dict[str, np.ndarray]
    val_errors: np.ndarray
    normalization: object
    period_profile: PeriodProfile
    train_length: int
    neighbors_effective: int
    report: TrainReport


def train(series: SeriesMatrix, config: TrainConfig) -> TrainResult:
    """Fit the model on one clean series; returns params plus diagnostics."""
    config.validate()
    if series.n_sensors < 2:
        raise DataError("training needs at least 2 sensors")
    started = time.perf_counter()

    stats = fit_normalizer(series, config.normalization)
    normalized = SeriesMatrix(stats.apply(series.values), series.sensor_names)
    profile = detect_period(normalized)
    if profile.aperiodic:
        log.info("no dominant period found; using full length %d", profile.period)

    batch = make_windows(normalized, config.window, config.stride)
    n_windows = batch.windows.shape[0]
    n_val = max(MIN_VAL_WINDOWS, round(config.val_fraction * n_windows))
    if n_val >= n_windows:
        raise DataError(
            f"only {n_windows} windows available, need more than {n_val} "
            "to reserve a validation split"
        )
    n_train = n_windows - n_val
    fit, val = slice(None, n_train), slice(n_train, None)
    starts = batch.window_start_indices
    slots = slot_ids_for_windows(starts, profile.period, config.slots)

    model_cfg = config.model_config(series.n_sensors)
    model = Model(model_cfg)
    rng = np.random.default_rng(config.seed)
    state = TrainState(model.init_params(rng))
    params = state.params
    k_eff = min(config.neighbors, series.n_sensors - 1)
    if k_eff != config.neighbors:
        log.info("clamping neighbors from %d to %d for %d sensors",
                 config.neighbors, k_eff, series.n_sensors)

    report = TrainReport(
        lr=config.lr, seed=config.seed, n_windows=n_windows, n_val=n_val,
        period=profile.period, aperiodic=profile.aperiodic,
        neighbors_effective=k_eff,
    )

    def residuals(part: slice, adjacencies) -> np.ndarray:
        """float32 `predict` over the windows in `part` minus their float64
        targets, in float64."""
        preds = model.predict(starts[part], normalized.values, slots[part], adjacencies,
                              compute_params(params))
        return preds - batch.targets[part]

    best = state.param_vec.copy()
    bad_epochs = 0
    try:
        for epoch in range(config.epochs + 1):
            epoch_start = time.perf_counter()
            adjacencies = build_adjacencies(params, config.slots, k_eff)
            if epoch == 0:  # evaluation only: the initial parameters
                train_loss = _mse(residuals(fit, adjacencies))
            else:
                order = rng.permutation(n_train)
                loss_sum = 0.0
                for lo in range(0, n_train, config.batch_size):
                    sel = order[lo : lo + config.batch_size]
                    loss = batch_step(model, batch.windows[sel], slots[sel], batch.targets[sel],
                                      adjacencies, state, compute_params(params))
                    if not np.isfinite(loss):
                        raise DivergenceError(f"loss became non-finite in epoch {epoch}")
                    loss_sum += loss * sel.size
                    clip_gradients(state.grads, config.grad_clip)
                    adam_step(state, config.lr)
                train_loss = loss_sum / n_train
            val_loss = _mse(residuals(val, adjacencies))
            if not np.isfinite(val_loss):
                raise DivergenceError(f"validation loss became non-finite in epoch {epoch}")
            report.epochs.append({
                "epoch": epoch, "train_loss": train_loss, "val_loss": val_loss,
                "seconds": time.perf_counter() - epoch_start,
            })
            log.info("epoch %d: train %.6f val %.6f", epoch, train_loss, val_loss)
            if val_loss < report.best_val_loss:
                report.best_val_loss = val_loss
                report.best_epoch = epoch
                best[:] = state.param_vec
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= config.patience:
                    report.stopped_early = True
                    log.info("early stop after epoch %d (best %d)", epoch, report.best_epoch)
                    break
    except DivergenceError as exc:
        report.wall_clock_seconds = time.perf_counter() - started
        exc.report = report
        raise

    state.param_vec[:] = best
    val_errors = np.abs(residuals(val, build_adjacencies(params, config.slots, k_eff)))

    report.wall_clock_seconds = time.perf_counter() - started
    report.checksum = param_checksum(params, list(model.param_shapes()))
    return TrainResult(
        model_config=model_cfg,
        params=params,
        val_errors=val_errors,
        normalization=stats,
        period_profile=profile,
        train_length=series.length,
        neighbors_effective=k_eff,
        report=report,
    )


# ---------------------------------------------------------------------------
# learning-rate grid

def pool_map(fn, jobs: list, workers: int) -> list:
    """`fn` over `jobs` in order; in a pool of min(`workers`, len(`jobs`))
    processes when that is > 1. The pool starts all its processes at once,
    so it never has more than there are jobs.

    The processes are spawned with BLAS pinned to one thread, as in every
    CLI process: when this process's environment sets none of
    OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS, all three
    are set to 1 while the processes start, then removed again. A caller
    who sets any of them keeps control of all three. A forked process
    would keep this process's BLAS threads: from a process with two, two
    workers on two CPUs ran criterion 7's cells 2.2 times slower than one
    process. A spawned process first imports the calling script's main
    module, so a script that calls this with `workers` > 1 needs an
    `if __name__ == "__main__":` guard. Each process pins glibc's malloc
    thresholds before its first job (`pgad.pin_malloc_thresholds`), as
    the CLI's `main` does, under the same rules: a spawned process never
    runs `main`. As two jobs on 2 CPUs, a default-config 2-epoch `train`
    on 8 sensors took 174 000 minor page faults and 1.41-1.95 s unpinned,
    against 2 750 and 0.96-1.37 s pinned.
    """
    workers = min(workers, len(jobs))
    if workers > 1:
        # imported here: they load multiprocessing, which a serial run never needs
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pin = _blas_pin()
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=pin_malloc_thresholds) as pool:
            # a spawned process starts with this environment, and each job
            # submitted starts one until the pool is full
            os.environ.update(pin)
            try:
                results = pool.map(fn, jobs)
            finally:
                for var in pin:
                    del os.environ[var]
            return list(results)
    return [fn(job) for job in jobs]


def validate_cells(cells) -> None:
    """`validate` each (label, config) of `cells` before any cell trains; an
    invalid one raises a ConfigError that starts with its label."""
    for label, config in cells:
        try:
            config.validate()
        except ValueError as exc:
            raise ConfigError(f"{label}: {exc}") from exc


@dataclass
class GridResult:
    entries: list[dict]
    best_lr: float
    result: TrainResult


def _grid_cell(args: tuple[SeriesMatrix, TrainConfig, float]):
    series, config, lr = args
    try:
        result = train(series, dataclasses.replace(config, lr=lr))
        return lr, result, None
    except DivergenceError as exc:
        return lr, None, str(exc)


def grid_search(
    series: SeriesMatrix,
    config: TrainConfig,
    lrs: tuple[float, ...] = LR_GRID,
    workers: int = 1,
) -> GridResult:
    """Train once per learning rate; keep the best validation loss.

    Ties prefer the smaller learning rate. Diverged cells are recorded
    and skipped; if every cell diverges the search itself fails. Before
    any cell trains, an empty grid raises ValueError, and a rate that is
    not positive and finite raises a ConfigError that names it.
    """
    if not lrs:
        raise ValueError("learning-rate grid is empty")
    validate_cells(("learning-rate grid", dataclasses.replace(config, lr=lr)) for lr in lrs)
    cells = pool_map(_grid_cell, [(series, config, lr) for lr in lrs], workers)

    entries = []
    best: tuple[float, float] | None = None  # (val_loss, lr)
    best_result = None
    for lr, result, error in cells:
        if error is not None:
            entries.append({"lr": lr, "val_loss": None, "error": error})
            log.info("lr %g diverged: %s", lr, error)
            continue
        val = result.report.best_val_loss
        entries.append({"lr": lr, "val_loss": val, "error": None,
                        "best_epoch": result.report.best_epoch})
        if best is None or (val, lr) < best:
            best = (val, lr)
            best_result = result
    if best_result is None:
        raise DivergenceError("no successful configuration in the learning-rate grid")
    return GridResult(entries=entries, best_lr=best[1], result=best_result)
