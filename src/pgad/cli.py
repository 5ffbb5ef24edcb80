"""Command-line interface wiring the pipeline into subcommands.

Settings resolve in three layers: CLI flag, then JSON config file, then
built-in default. The config file is a flat object whose keys are listed
by `pgad config show`. Exit codes: 0 success, 1 configuration problem,
2 data problem, 3 numerical divergence.

Importing this module pins BLAS and OpenMP to one thread per process
unless the environment sets any of their thread counts: pgad spends its
`threads` on predict threads or cell processes instead. It must
therefore be imported before numpy is. `main` pins glibc's malloc
thresholds (`pgad.pin_malloc_thresholds`).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import _blas_pin, pin_malloc_thresholds

# before numpy loads its BLAS
os.environ.update(_blas_pin())

import numpy as np

from .checkpoint import checkpoint_from_result, load_checkpoint, save_checkpoint
from .data import (
    NORMALIZATION_MODES,
    SeriesMatrix,
    fit_normalizer,
    generate_synthetic,
    ingest_csv,
    write_csv,
)
from .errors import ConfigError, DivergenceError, PgadError
from .experiments import (
    ABLATION_VARIANTS,
    FILTER_SWEEP_DEFAULT,
    NEIGHBOR_SWEEP_DEFAULT,
    ablation_f1s,
    sweep_f1s,
    variant_config,
)
from .graph import cosine_similarity
from .period import bin_period, detect_period
from .scoring import score_series
from .training import LR_GRID, TrainConfig, build_adjacencies, grid_search, train

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors map to exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).split(",") if part.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from exc


def _cast_bool(value, key: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")


def _cast_int(value, key: str) -> int:
    # int() would take true as 1 and cut 2.7 to 2
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return int(value)


def _cast_float(value, key: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _cast_str(value, key: str) -> str:
    return str(value)


def _cast_kernel_sizes(value, key: str) -> tuple[int, ...]:
    if isinstance(value, str):
        return _parse_int_list(value)
    if isinstance(value, (list, tuple)):
        return tuple(_cast_int(v, key) for v in value)
    raise ConfigError(f"config key {key!r} must be a list of integers")


_TRAIN_DEFAULTS = TrainConfig()

# `threads` 0 uses at most this many CPUs: speed and peak RSS were measured
# up to two threads only, and the affinity mask ignores cgroup CPU quotas
DEFAULT_THREADS_CAP = 2

# flat config-file schema: key -> (caster, default)
CONFIG_SCHEMA: dict[str, tuple] = {}
_CASTERS = {bool: _cast_bool, int: _cast_int, float: _cast_float, str: _cast_str}
for _field in dataclasses.fields(TrainConfig):
    _default = getattr(_TRAIN_DEFAULTS, _field.name)
    _caster = _cast_kernel_sizes if _field.name == "kernel_sizes" else _CASTERS[type(_default)]
    CONFIG_SCHEMA[_field.name] = (_caster, _default)
CONFIG_SCHEMA.update({
    "ma_window": (_cast_int, 3),
    "threshold": (_cast_str, "max_validation"),
    "point_adjust": (_cast_bool, False),
    "sensors": (_cast_int, 8),
    "length": (_cast_int, 4800),
    "period": (_cast_int, 24),
    "anomaly_rate": (_cast_float, 0.03),
    "threads": (_cast_int, 0),  # 0: one per available CPU, at most DEFAULT_THREADS_CAP
})


def load_config_file(path: str) -> dict:
    file_path = Path(path)
    if not file_path.exists():
        raise ConfigError(f"config file not found: {file_path}")
    try:
        raw = json.loads(file_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {file_path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {file_path} must hold a JSON object")
    resolved = {}
    for key, value in raw.items():
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r} in {file_path}")
        try:
            resolved[key] = CONFIG_SCHEMA[key][0](value, key)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for config key {key!r}: {exc}") from exc
    return resolved


def _resolve(args, file_cfg: dict, key: str, default=None):
    """CLI flag beats config file beats built-in default."""
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    if key in file_cfg:
        return file_cfg[key]
    if default is not None:
        return default
    return CONFIG_SCHEMA[key][1]


# ablation variants as the --ablate and --skip flags spell them
_FLAG_TO_VARIANT = {v.replace("_", "-"): v for v in ABLATION_VARIANTS if v != "full"}


def build_train_config(args, file_cfg: dict) -> TrainConfig:
    config = TrainConfig(**{field.name: _resolve(args, file_cfg, field.name)
                            for field in dataclasses.fields(TrainConfig)})
    ablate = getattr(args, "ablate", None)
    if ablate is not None:
        explicit = getattr(args, "slots", None) is not None or "slots" in file_cfg
        if ablate == "static-graph" and explicit and config.slots != 1:
            raise ConfigError(
                "--ablate static-graph forces slots=1; drop the conflicting slots setting"
            )
        config = variant_config(config, _FLAG_TO_VARIANT[ablate])
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def parse_threshold(text: str) -> tuple[str, float | None]:
    mode, colon, value = str(text).partition(":")
    mode = mode.replace("-", "_")
    if mode in ("max_validation", "best_f1") and not colon:
        return mode, None
    if mode == "fixed" and colon:
        try:
            fixed = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad fixed threshold in {text!r}") from exc
        if not math.isfinite(fixed):
            raise ConfigError(f"fixed threshold must be finite, got {text!r}")
        return "fixed", fixed
    raise ConfigError(
        f"unknown threshold {text!r}; use max_validation, best_f1, or fixed:<value>"
    )


def _score_settings(args, file_cfg) -> dict:
    mode, fixed = parse_threshold(_resolve(args, file_cfg, "threshold"))
    ma_window = int(_resolve(args, file_cfg, "ma_window"))
    if ma_window < 1:
        raise ConfigError(f"ma_window must be >= 1, got {ma_window}")
    return {
        "ma_window": ma_window,
        "threshold_mode": mode,
        "fixed_value": fixed,
        "point_adjust": bool(_resolve(args, file_cfg, "point_adjust")),
    }


def _threads(args, file_cfg) -> int:
    """The `threads` setting, with 0 resolved to the CPUs this process may
    run on, capped at DEFAULT_THREADS_CAP. An explicit count is not capped."""
    threads = int(_resolve(args, file_cfg, "threads"))
    if threads < 0:
        raise ConfigError(f"threads must be >= 0 (0: one per available CPU), got {threads}")
    if threads == 0:
        try:
            available = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            available = os.cpu_count() or 1
        return min(available, DEFAULT_THREADS_CAP)
    return threads


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args, file_cfg) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    length = int(_resolve(args, file_cfg, "length"))
    series = generate_synthetic(
        n_sensors=int(_resolve(args, file_cfg, "sensors")),
        length=length,
        period=int(_resolve(args, file_cfg, "period")),
        anomaly_rate=float(_resolve(args, file_cfg, "anomaly_rate")),
        seed=int(_resolve(args, file_cfg, "seed", default=7)),
    )
    split = length // 2
    train_part = series.slice_time(0, split)
    train_part.labels = None  # the first half is anomaly-free by construction
    test_part = series.slice_time(split, length)
    train_path = out_dir / "train.csv"
    test_path = out_dir / "test.csv"
    write_csv(train_part, train_path)
    write_csv(test_part, test_path)
    n_anomalies = int(series.labels.sum()) if series.labels is not None else 0
    print(f"wrote {train_path} ({split} rows) and {test_path} ({length - split} rows)")
    print(f"anomalous timestamps: {n_anomalies} (all within the test half)")
    return 0


def cmd_period(args, file_cfg) -> int:
    series = ingest_csv(args.data)
    profile = detect_period(series)
    print(f"series: {series.n_sensors} sensors x {series.length} steps")
    print(f"dominant frequency bin: {profile.dominant_frequency}")
    print(f"period: {profile.period}")
    print(f"aperiodic fallback: {'yes' if profile.aperiodic else 'no'}")
    print()
    print(f"{'rank':>4}  {'bin':>5}  {'period':>6}  {'amplitude':>12}")
    for rank, (bin_index, amplitude) in enumerate(profile.top_bins(5), start=1):
        period = bin_period(series.length, bin_index)
        print(f"{rank:>4}  {bin_index:>5}  {period:>6}  {amplitude:>12.6f}")
    if args.spectrum:
        with open(args.spectrum, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["bin", "amplitude"])
            for i, amp in enumerate(profile.amplitudes, start=1):
                writer.writerow([i, _fmt(amp)])
        print(f"\nspectrum written to {args.spectrum}")
    return 0


def cmd_graph(args, file_cfg) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = ckpt.meta["sensor_names"]
    adjacencies = build_adjacencies(ckpt.params, ckpt.config.slots, ckpt.meta["neighbors"])
    for slot, adjacency in enumerate(adjacencies):
        similarity = cosine_similarity(ckpt.params[f"emb_{slot}"])
        path = out_dir / f"slot_{slot}_edges.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["source", "target", "similarity"])
            for target in range(ckpt.config.n_sensors):
                for source in np.flatnonzero(adjacency[:, target]):
                    writer.writerow([names[source], names[target],
                                     _fmt(similarity[source, target])])
        print(f"slot {slot}: {int(adjacency.sum())} edges -> {path}")
    return 0


def _write_loss_curve(path, epochs: list[dict]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for row in epochs:
            writer.writerow([row["epoch"], _fmt(row["train_loss"]), _fmt(row["val_loss"])])


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def cmd_train(args, file_cfg) -> int:
    if args.grid_lrs is not None and not args.grid:
        raise ConfigError("--grid-lrs needs --grid")
    series = ingest_csv(args.data)
    config = build_train_config(args, file_cfg)
    threads = _threads(args, file_cfg)
    try:
        if args.grid:
            if args.grid_lrs is not None:
                try:
                    lrs = tuple(float(x) for x in args.grid_lrs.split(",") if x.strip())
                except ValueError as exc:
                    raise ConfigError(f"bad --grid-lrs value {args.grid_lrs!r}") from exc
                if not lrs:
                    raise ConfigError("--grid-lrs must name at least one rate")
            else:
                lrs = LR_GRID
            grid = grid_search(series, config, lrs, workers=threads)
            result = grid.result
            grid_entries = grid.entries
            print(f"grid winner: lr={grid.best_lr:g}")
        else:
            result = train(series, config)
            grid_entries = None
    except DivergenceError as exc:
        if exc.report is not None:
            _write_json(args.report, {"error": str(exc), "train": exc.report.to_dict()})
            _write_loss_curve(args.loss_curve, exc.report.epochs)
        raise
    ckpt = checkpoint_from_result(result, series.sensor_names)
    save_checkpoint(args.checkpoint, ckpt)
    payload = {"checkpoint": str(args.checkpoint), "train": result.report.to_dict()}
    if grid_entries is not None:
        payload["grid"] = grid_entries
    _write_json(args.report, payload)
    _write_loss_curve(args.loss_curve, result.report.epochs)
    report = result.report
    print(f"period: {report.period}" + (" (aperiodic fallback)" if report.aperiodic else ""))
    print(f"best epoch: {report.best_epoch} (val loss {report.best_val_loss:.6f})")
    print(f"checkpoint written to {args.checkpoint}")
    return 0


def cmd_score(args, file_cfg) -> int:
    settings = _score_settings(args, file_cfg)
    threads = _threads(args, file_cfg)
    ckpt = load_checkpoint(args.checkpoint)
    series = ingest_csv(args.data)
    trace, metrics = score_series(ckpt, series, workers=threads, **settings)
    names = ckpt.meta["sensor_names"]
    labels_true = trace.labels_true
    columns = ["t", "score", "smoothed", "label_pred"]
    if labels_true is not None:
        columns.append("label_true")
    threshold = _fmt(trace.threshold)

    # one set of columns feeds both files: the plot line inserts the
    # threshold column and leaves out the sensor name
    cells = [list(map(str, range(trace.t0, trace.t0 + trace.scores.size))),
             list(map(_fmt, trace.scores.tolist())), list(map(_fmt, trace.smoothed.tolist())),
             list(map(str, trace.labels_pred.astype(int).tolist()))]
    if labels_true is not None:
        cells.append(list(map(str, labels_true.astype(int).tolist())))
    with open(args.scores, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns + ["top_sensor"])
        writer.writerows(zip(*cells, [names[i] for i in trace.top_sensor.tolist()]))
    if args.plot:
        with open(args.plot, "w") as plot:
            plot.write("# " + " ".join(columns[:3] + ["threshold"] + columns[3:]) + "\n")
            plot.writelines(" ".join(row) + "\n" for row in
                            zip(*cells[:3], itertools.repeat(threshold), *cells[3:]))

    payload = {
        "threshold": trace.threshold,
        "threshold_mode": trace.threshold_mode,
        "ma_window": settings["ma_window"],
        "n_scored": int(trace.scores.size),
        "n_flagged": int(trace.labels_pred.sum()),
        "first_scored_t": trace.t0,
    }
    if metrics is not None:
        payload["metrics"] = metrics.to_dict()
    _write_json(args.metrics, payload)

    print(f"scored {trace.scores.size} timestamps from t={trace.t0}")
    print(f"threshold ({trace.threshold_mode}): {trace.threshold:.6f}; "
          f"flagged {int(trace.labels_pred.sum())}")
    if metrics is not None:
        print(f"precision {metrics.precision:.4f}  recall {metrics.recall:.4f}  "
              f"f1 {metrics.f1:.4f}" + ("  (point-adjusted)" if metrics.point_adjust else ""))
    print(f"scores written to {args.scores}; metrics to {args.metrics}")
    return 0


def _experiment_setup(args, file_cfg) -> tuple:
    """`ablate` and `sweep`'s train and test series, config, and the seeds,
    workers and score settings their library call takes as keywords."""
    return (ingest_csv(args.train_data), ingest_csv(args.test_data),
            build_train_config(args, file_cfg),
            dict(_score_settings(args, file_cfg), seeds=_parse_int_list(args.seeds),
                 workers=_threads(args, file_cfg)))


def cmd_ablate(args, file_cfg) -> int:
    train_series, test_series, config, options = _experiment_setup(args, file_cfg)

    stats = fit_normalizer(train_series, config.normalization)
    normalized = SeriesMatrix(stats.apply(train_series.values), train_series.sensor_names)
    if detect_period(normalized).aperiodic:
        log.warning("period detection hit the aperiodic fallback; "
                    "phase slots will span the whole series")

    skipped = {_FLAG_TO_VARIANT[s] for s in (args.skip or [])}
    variants = tuple(v for v in ABLATION_VARIANTS if v not in skipped)
    table = ablation_f1s(train_series, test_series, config, variants=variants, **options)

    print(f"{'variant':<14}  {'F1':>8}")
    for variant in variants:
        print(f"{variant.replace('_', '-'):<14}  {table[variant]['mean_f1']:>8.4f}")
    _write_json(args.out, {"seeds": list(options["seeds"]), "variants": table})
    print(f"\nreport written to {args.out}")
    return 0


def cmd_sweep(args, file_cfg) -> int:
    if (args.sweep_neighbors is None) == (args.sweep_filters is None):
        raise ConfigError("choose exactly one sweep axis: --neighbors or --filters")
    if args.sweep_neighbors is not None:
        axis = "neighbors"
        values = NEIGHBOR_SWEEP_DEFAULT if args.sweep_neighbors == "" \
            else _parse_int_list(args.sweep_neighbors)
    else:
        axis = "filters"
        values = FILTER_SWEEP_DEFAULT if args.sweep_filters == "" \
            else _parse_int_list(args.sweep_filters)

    train_series, test_series, config, options = _experiment_setup(args, file_cfg)
    rows = sweep_f1s(train_series, test_series, config, axis, values, **options)

    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([axis, "f1_mean"] + [f"f1_seed{s}" for s in options["seeds"]])
        for row in rows:
            writer.writerow([row["value"], _fmt(row["mean_f1"])]
                            + [_fmt(cell["f1"]) for cell in row["per_seed"]])
    print(f"{axis:<10}  {'F1':>8}")
    for row in rows:
        print(f"{row['value']:<10}  {row['mean_f1']:>8.4f}")
    print(f"\nsweep written to {args.out}")
    return 0


def cmd_config(args, file_cfg) -> int:
    if args.action != "show":
        raise ConfigError(f"unknown config action {args.action!r}")
    effective = {key: file_cfg.get(key, default) for key, (_, default) in CONFIG_SCHEMA.items()}
    for key, value in effective.items():
        if isinstance(value, tuple):
            effective[key] = list(value)
    print(json.dumps(effective, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _add_train_flags(parser: argparse.ArgumentParser, exclude: tuple[str, ...] = ()) -> None:
    group = parser.add_argument_group("training settings")

    def add(*flags, **kwargs):
        if flags[0] not in exclude:
            group.add_argument(*flags, **kwargs)

    add("--window", type=int, help="input window length")
    add("--stride", type=int, help="window stride")
    add("--neighbors", type=int, help="in-neighbors per node (k)")
    add("--slots", type=int, help="phase slots per period (G)")
    add("--epochs", type=int, help="max training epochs")
    add("--patience", type=int, help="early-stopping patience")
    add("--batch-size", dest="batch_size", type=int)
    add("--lr", type=float, help="learning rate")
    add("--seed", type=int, help="RNG seed")
    add("--normalization", choices=NORMALIZATION_MODES)
    add("--grad-clip", dest="grad_clip", type=float,
        help="global gradient-norm cap (0 disables)")
    add("--embed-dim", dest="embed_dim", type=int)
    add("--spatial-dim", dest="spatial_dim", type=int)
    add("--channels", type=int, help="conv channels per kernel size")
    add("--temporal-dim", dest="temporal_dim", type=int)
    add("--hidden-dim", dest="hidden_dim", type=int)
    add("--kernel-sizes", dest="kernel_sizes", type=_parse_int_list,
        help="comma list, e.g. 2,3,5")
    add("--dilation", type=int)
    add("--tcn-layers", dest="tcn_layers", type=int)
    add("--val-fraction", dest="val_fraction", type=float)
    add("--ablate", choices=list(_FLAG_TO_VARIANT),
        help="train an ablated variant")


def _add_score_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("scoring settings")
    group.add_argument("--ma-window", dest="ma_window", type=int,
                       help="moving-average window for scores")
    group.add_argument("--threshold",
                       help="max_validation, best_f1, or fixed:<value>")
    group.add_argument("--point-adjust", dest="point_adjust",
                       action="store_const", const=True,
                       help="credit whole true segments once hit")


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file (flat schema)")
    common.add_argument("-v", "--verbose", action="count", default=0)
    common.add_argument(
        "--threads", type=int,
        help="CPU threads: cell processes for --grid, ablate and sweep, predict threads "
             "for score (default 0: one per available CPU, at most 2)")

    parser = _Parser(prog="pgad",
                     description="Periodic-graph anomaly detection for sensor series")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic train/test pair")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--sensors", type=int, help="number of sensors")
    p.add_argument("--length", type=int, help="total series length")
    p.add_argument("--period", type=int, help="base period")
    p.add_argument("--anomaly-rate", dest="anomaly_rate", type=float,
                   help="fraction of anomalous timestamps")
    p.add_argument("--seed", type=int, help="generator seed (default 7)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("period", parents=[common],
                       help="report the dominant period of a CSV series")
    p.add_argument("data", help="input CSV")
    p.add_argument("--spectrum", help="also dump the amplitude spectrum CSV here")
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("graph", parents=[common],
                       help="dump each slot's learned edges from a checkpoint")
    p.add_argument("checkpoint", help="checkpoint .npz")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("train", parents=[common], help="train a model on a clean CSV")
    p.add_argument("data", help="training CSV")
    p.add_argument("--checkpoint", default="checkpoint.npz")
    p.add_argument("--report", default="train_report.json")
    p.add_argument("--loss-curve", dest="loss_curve", default="loss_curve.csv")
    p.add_argument("--grid", action="store_true",
                   help="search the learning-rate grid instead of one lr")
    p.add_argument("--grid-lrs", dest="grid_lrs",
                   help="comma list of learning rates for --grid")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", parents=[common], help="score a test CSV")
    p.add_argument("checkpoint", help="checkpoint .npz")
    p.add_argument("data", help="test CSV (label column optional)")
    p.add_argument("--scores", default="scores.csv")
    p.add_argument("--metrics", default="metrics.json")
    p.add_argument("--plot", help="write a gnuplot-compatible data file here")
    _add_score_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("ablate", parents=[common],
                       help="compare the full model against ablated variants")
    p.add_argument("train_data", help="training CSV")
    p.add_argument("test_data", help="labeled test CSV")
    p.add_argument("--seeds", default="0", help="comma list of seeds")
    p.add_argument("--skip", action="append", choices=sorted(_FLAG_TO_VARIANT),
                   help="drop a variant from the table")
    p.add_argument("--out", default="ablation.json")
    _add_train_flags(p, exclude=("--ablate",))
    _add_score_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", parents=[common], help="sweep one hyperparameter axis")
    p.add_argument("train_data", help="training CSV")
    p.add_argument("test_data", help="labeled test CSV")
    p.add_argument("--neighbors", dest="sweep_neighbors", nargs="?", const="",
                   default=None, help="sweep k over a comma list (default 10,15,...,40)")
    p.add_argument("--filters", dest="sweep_filters", nargs="?", const="", default=None,
                   help="sweep feature width over a comma list (default 4,8,...,128)")
    p.add_argument("--seeds", default="0", help="comma list of seeds")
    p.add_argument("--out", default="sweep.csv")
    _add_train_flags(p, exclude=("--neighbors", "--ablate"))
    _add_score_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("config", parents=[common], help="inspect effective settings")
    p.add_argument("action", nargs="?", default="show", help="only 'show' is defined")
    p.set_defaults(func=cmd_config)

    return parser


def main(argv=None) -> int:
    pin_malloc_thresholds()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        level = logging.WARNING - 10 * min(args.verbose, 2)
        logging.basicConfig(level=level, stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s")
        file_cfg = load_config_file(args.config) if args.config else {}
        return int(args.func(args, file_cfg) or 0)
    except PgadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
