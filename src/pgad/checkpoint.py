"""Model checkpoints: one .npz holding parameters plus a JSON meta record.

The archive layout is flat: `meta` (a JSON string) describes the model
configuration, normalization, period/slot bookkeeping, and sha256 digests
of the configuration, of the parameters and of `val_errors`; `param__<name>`
entries hold the weights; `val_errors` holds the per-window absolute
validation errors that later calibrate anomaly scores. Both data digests
are mandatory: a file without them does not load.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import NormalizationStats
from .errors import DataError
from .model import Model, ModelConfig

CHECKPOINT_VERSION = 2


def config_digest(config: ModelConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def param_checksum(params: dict[str, np.ndarray], order: list[str]) -> str:
    digest = hashlib.sha256()
    for name in order:
        digest.update(np.ascontiguousarray(params[name]).tobytes())
    return digest.hexdigest()


def _val_errors_checksum(val_errors: np.ndarray) -> str:
    values = np.ascontiguousarray(val_errors, dtype=np.float64)
    return hashlib.sha256(values.tobytes()).hexdigest()


def _check_meta_int(path, meta: dict, key: str, lo: int, hi: float = float("inf")) -> None:
    value = meta.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        raise DataError(
            f"checkpoint {path} meta {key}={value!r} is not an integer in [{lo}, {hi}]"
        )


def _check_digest(path, meta: dict, key: str, actual: str, what: str) -> None:
    if key not in meta:
        raise DataError(f"checkpoint {path} {what} have no checksum ({key} missing)")
    if meta[key] != actual:
        raise DataError(f"checkpoint {path} {what} do not match their checksum")


def _check_meta_length(path, value, key: str, n: int) -> None:
    if not isinstance(value, list) or len(value) != n:
        found = len(value) if isinstance(value, list) else repr(value)
        raise DataError(f"checkpoint {path} meta {key} has {found} entries, expected {n}")


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    val_errors: np.ndarray  # (n_val_windows, n_sensors), absolute errors
    meta: dict

    @property
    def normalization(self) -> NormalizationStats:
        norm = self.meta["normalization"]
        return NormalizationStats(
            mode=norm["mode"],
            shift=np.asarray(norm["shift"], dtype=np.float64),
            scale=np.asarray(norm["scale"], dtype=np.float64),
        )


def make_checkpoint(
    config: ModelConfig,
    params: dict[str, np.ndarray],
    val_errors: np.ndarray,
    *,
    normalization: NormalizationStats,
    period: int,
    dominant_frequency: int,
    aperiodic: bool,
    period_per_window: bool,
    neighbors: int,
    train_length: int,
    sensor_names: list[str],
    extra: dict | None = None,
) -> Checkpoint:
    meta = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_digest(config),
        "model": asdict(config),
        "normalization": {
            "mode": normalization.mode,
            "shift": normalization.shift.tolist(),
            "scale": normalization.scale.tolist(),
        },
        "period": int(period),
        "dominant_frequency": int(dominant_frequency),
        "aperiodic": bool(aperiodic),
        "period_per_window": bool(period_per_window),
        "neighbors": int(neighbors),
        "train_length": int(train_length),
        "sensor_names": list(sensor_names),
        "params_sha256": param_checksum(params, list(Model(config).param_shapes())),
        "val_errors_sha256": _val_errors_checksum(val_errors),
    }
    if extra:
        meta.update(extra)
    return Checkpoint(
        config=config,
        params=params,
        val_errors=np.asarray(val_errors, dtype=np.float64),
        meta=meta,
    )


def checkpoint_from_result(result, sensor_names, *, extra: dict | None = None) -> Checkpoint:
    """Assemble an in-memory checkpoint from a finished training run."""
    merged = {"train": result.report.to_dict()}
    if extra:
        merged.update(extra)
    return make_checkpoint(
        result.model_config,
        result.params,
        result.val_errors,
        normalization=result.normalization,
        period=result.period_profile.period,
        dominant_frequency=result.period_profile.dominant_frequency,
        aperiodic=result.period_profile.aperiodic,
        period_per_window=result.period_per_window,
        neighbors=result.neighbors_effective,
        train_length=result.train_length,
        sensor_names=sensor_names,
        extra=merged,
    )


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    arrays = {
        "meta": np.array(json.dumps(ckpt.meta)),
        "val_errors": np.asarray(ckpt.val_errors),
    }
    for name, value in ckpt.params.items():
        arrays[f"param__{name}"] = np.asarray(value)
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if "meta" not in arrays:
        raise DataError(f"checkpoint {path} has no meta record")
    try:
        meta = json.loads(str(arrays["meta"][()]))
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path} meta is not valid JSON: {exc}") from exc
    if meta.get("version") != CHECKPOINT_VERSION:
        raise DataError(
            f"checkpoint version {meta.get('version')!r} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    model_meta = meta.get("model", {})
    try:
        config = ModelConfig(**{k: tuple(v) if k == "kernel_sizes" else v
                                for k, v in model_meta.items()})
        config.validate()
    except (TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {path} has an invalid model config: {exc}") from exc
    if meta.get("config_hash") != config_digest(config):
        raise DataError(f"checkpoint {path} config hash mismatch")

    expected = Model(config).param_shapes()
    params: dict[str, np.ndarray] = {}
    for name, shape in expected.items():
        key = f"param__{name}"
        if key not in arrays:
            raise DataError(f"checkpoint {path} missing parameter {name}")
        value = arrays[key]
        if value.shape != shape:
            raise DataError(
                f"checkpoint {path} parameter {name} shaped {value.shape}, "
                f"expected {shape}"
            )
        params[name] = value.astype(np.float64)
    stray = [k for k in arrays if k.startswith("param__") and k[len("param__"):] not in expected]
    if stray:
        raise DataError(f"checkpoint {path} has unknown parameters: {sorted(stray)}")
    _check_digest(path, meta, "params_sha256", param_checksum(params, list(expected)),
                  "parameters")
    _check_meta_int(path, meta, "period", 1)
    _check_meta_int(path, meta, "neighbors", 1, config.n_sensors - 1)
    _check_meta_int(path, meta, "train_length", 0)
    norm = meta.get("normalization")
    norm = norm if isinstance(norm, dict) else {}
    _check_meta_length(path, meta.get("sensor_names"), "sensor_names", config.n_sensors)
    for key in ("shift", "scale"):
        _check_meta_length(path, norm.get(key), f"normalization.{key}", config.n_sensors)
    if "val_errors" not in arrays:
        raise DataError(f"checkpoint {path} missing validation errors")
    val_errors = arrays["val_errors"].astype(np.float64)
    if val_errors.ndim != 2 or val_errors.shape[1] != config.n_sensors:
        raise DataError(
            f"checkpoint {path} validation errors shaped {val_errors.shape}, "
            f"expected (n, {config.n_sensors})"
        )
    _check_digest(path, meta, "val_errors_sha256", _val_errors_checksum(val_errors),
                  "validation errors")
    return Checkpoint(config=config, params=params, val_errors=val_errors, meta=meta)
