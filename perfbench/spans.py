"""In-process spans around the public functions of each pgad layer.

A traced child runs the pgad CLI in this process after `instrument`
has replaced each named function with a wrapper that opens a span. Spans
stay in memory and are written once, when the command ends:

    python3 perfbench/spans.py SPANS.json train data.csv --epochs 2 ...

The runner reads the span files of one traced iteration and turns them
into the per-layer metrics with `layer_metrics`. A span's self time is
its duration minus the part of that interval its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects spans (name, start, end, parent) and plain counters."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = self._clock()
        try:
            yield record
        finally:
            record["end"] = self._clock()
            self._open.pop()

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def annotate(spans: list[dict]) -> list[dict]:
    """Copies of `spans` with `self` seconds and the `parent_name` added."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered = _covered(children.get(s["id"], []), s["start"], s["end"])
        parent = by_id.get(s["parent"])
        out.append({**s, "self": s["end"] - s["start"] - covered,
                    "parent_name": parent["name"] if parent else None})
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

# Each per-layer metric: its unit, which direction is better, and the
# end-to-end metric it is expected to move, on which workloads.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "model.forward_ms_per_batch": ("ms", "lower",
                                   "train_s, train_windows_per_s on graph51 and ref8"),
    "model.backward_ms_per_batch": ("ms", "lower",
                                    "train_s, train_windows_per_s on graph51 and ref8"),
    "model.slot_groups_per_batch": ("count", "lower",
                                    "train_s, train_windows_per_s on graph51 and ref8"),
    "model.forward_calls": ("count", "lower",
                            "train_s, train_windows_per_s on graph51 and ref8"),
    "model.predict_s": ("s", "lower",
                        "score_s on score-long and graph51; peak_rss_mb on graph51"),
    "model.predict_windows_per_s": ("1/s", "higher",
                                    "score_s on score-long and graph51; peak_rss_mb on graph51"),
    "training.adam_ms_per_step": ("ms", "lower", "train_s on ref8"),
    "training.clip_ms_per_step": ("ms", "lower", "train_s on ref8"),
    "training.steps": ("count", "lower", "train_s on ref8"),
    "training.epochs_run": ("count", "lower", "train_s on ref8"),
    "training.val_predict_s": ("s", "lower", "train_s on graph51"),
    "training.self_s": ("s", "lower", "train_s on ref8"),
    "scoring.score_series_s": ("s", "lower", "score_s on score-long"),
    "scoring.best_f1_s": ("s", "lower",
                          "score_s on score-long; under 1% of score_s on graph51, none on ref8"),
    "scoring.thresholds_scanned": ("count", "lower",
                                   "score_s on score-long; under 1% of score_s on graph51"),
    "scoring.self_s": ("s", "lower", "score_s on score-long"),
    "graph.build_adjacencies_s": ("s", "lower", "none: the flat control"),
    "graph.build_adjacencies_calls": ("count", "lower", "none: the flat control"),
    "data.ingest_csv_s": ("s", "lower", "score_s on score-long, train_s on ref8"),
    "data.rows_ingested": ("count", "lower", "score_s on score-long, train_s on ref8"),
    "data.make_windows_s": ("s", "lower", "score_s on score-long, train_s on ref8"),
    "period.detect_period_s": ("s", "lower", "train_s on ref8 and graph51"),
    "checkpoint.save_s": ("s", "lower", "train_s on ref8"),
    "checkpoint.load_s": ("s", "lower", "score_s on score-long"),
    "checkpoint.bytes": ("bytes", "lower", "train_s on ref8, score_s on score-long"),
    "cli.train_self_s": ("s", "lower", "train_s on ref8"),
    "cli.score_self_s": ("s", "lower", "score_s on score-long"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall-clock"),
}


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[dict], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration from annotated spans.

    Metrics named after a function (`*_s`) are inclusive seconds; the
    `self_s` ones exclude the wrapped calls made inside them.
    """
    def named(name, parent=None):
        return [s for s in spans if s["name"] == name
                and (parent is None or s["parent_name"] == parent)]

    def total(items, key="self"):
        return sum(s["end"] - s["start"] if key == "inclusive" else s[key] for s in items)

    batches = named("model.forward", parent="training.train")
    predicts = named("model.predict")
    predict_s = total(predicts, "inclusive")
    return {
        "model.forward_ms_per_batch": 1e3 * _mean([s["self"] for s in batches]),
        "model.backward_ms_per_batch": 1e3 * _mean([s["self"] for s in named("model.backward")]),
        "model.slot_groups_per_batch": _mean([s["groups"] for s in batches]),
        "model.forward_calls": len(named("model.forward")),
        "model.predict_s": predict_s,
        "model.predict_windows_per_s":
            sum(s["windows"] for s in predicts) / predict_s if predict_s else 0.0,
        "training.adam_ms_per_step": 1e3 * _mean([s["self"] for s in named("training.adam_step")]),
        "training.clip_ms_per_step":
            1e3 * _mean([s["self"] for s in named("training.clip_gradients")]),
        "training.steps": len(named("training.adam_step")),
        "training.epochs_run": sum(s["epochs"] for s in named("training.train")),
        "training.val_predict_s":
            total(named("model.predict", parent="training.train"), "inclusive"),
        "training.self_s": total(named("training.train")),
        "scoring.score_series_s": total(named("scoring.score_series"), "inclusive"),
        "scoring.best_f1_s": total(named("scoring.best_f1_threshold"), "inclusive"),
        "scoring.thresholds_scanned": counts.get("scoring.evaluate", 0),
        "scoring.self_s": total(named("scoring.score_series")),
        "graph.build_adjacencies_s": total(named("graph.build_adjacencies"), "inclusive"),
        "graph.build_adjacencies_calls": len(named("graph.build_adjacencies")),
        "data.ingest_csv_s": total(named("data.ingest_csv"), "inclusive"),
        "data.rows_ingested": sum(s["rows"] for s in named("data.ingest_csv")),
        "data.make_windows_s": total(named("data.make_windows"), "inclusive"),
        "period.detect_period_s": total(named("period.detect_period"), "inclusive"),
        "checkpoint.save_s": total(named("checkpoint.save_checkpoint"), "inclusive"),
        "checkpoint.load_s": total(named("checkpoint.load_checkpoint"), "inclusive"),
        "checkpoint.bytes": sum(s["bytes"] for s in named("checkpoint.save_checkpoint")
                                + named("checkpoint.load_checkpoint")),
        "cli.train_self_s": total(named("cli.cmd_train")),
        "cli.score_self_s": total(named("cli.cmd_score")),
    }


# ---------------------------------------------------------------------------
# instrumentation

def _npz_size(path) -> int:
    path = str(path)
    return os.path.getsize(path if path.endswith(".npz") else path + ".npz")


# span name -> (module, attribute, hook(span, args, result) adding counts)
FUNCTIONS = {
    "cli.cmd_train": ("pgad.cli", "cmd_train", None),
    "cli.cmd_score": ("pgad.cli", "cmd_score", None),
    "data.ingest_csv": ("pgad.data", "ingest_csv",
                        lambda s, a, r: s.update(rows=r.length)),
    "data.make_windows": ("pgad.data", "make_windows", None),
    "period.detect_period": ("pgad.period", "detect_period", None),
    "graph.build_adjacencies": ("pgad.training", "build_adjacencies", None),
    "training.train": ("pgad.training", "train",
                       lambda s, a, r: s.update(epochs=len(r.report.epochs) - 1)),
    "training.clip_gradients": ("pgad.training", "clip_gradients", None),
    "training.adam_step": ("pgad.training", "adam_step", None),
    "scoring.score_series": ("pgad.scoring", "score_series", None),
    "scoring.best_f1_threshold": ("pgad.scoring", "best_f1_threshold", None),
    "checkpoint.save_checkpoint": ("pgad.checkpoint", "save_checkpoint",
                                   lambda s, a, r: s.update(bytes=_npz_size(a[0]))),
    "checkpoint.load_checkpoint": ("pgad.checkpoint", "load_checkpoint",
                                   lambda s, a, r: s.update(bytes=_npz_size(a[0]))),
    "model.forward": ("pgad.model", "Model.forward",
                      lambda s, a, r: s.update(groups=len(r[1].groups))),
    "model.backward": ("pgad.model", "Model.backward", None),
    "model.predict": ("pgad.model", "Model.predict",
                      lambda s, a, r: s.update(windows=len(a[1]))),
}
COUNTERS = {"scoring.evaluate": ("pgad.scoring", "evaluate")}


def _span_wrapper(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(record, args, result)
        return result
    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


def _rebind(original, wrapper) -> None:
    """Point every pgad module global bound to `original` at `wrapper`,
    which covers names imported with `from .module import name`."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "pgad" or mod_name.startswith("pgad."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def instrument(tracer: Tracer) -> None:
    """Wrap the named pgad functions so each call records into `tracer`."""
    importlib.import_module("pgad.cli")
    for name, (module, attr, hook) in FUNCTIONS.items():
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, _span_wrapper(tracer, name, getattr(cls, method), hook))
        else:
            original = getattr(owner, attr)
            _rebind(original, _span_wrapper(tracer, name, original, hook))
    for name, (module, attr) in COUNTERS.items():
        original = getattr(importlib.import_module(module), attr)
        _rebind(original, _count_wrapper(tracer, name, original))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: spans.py SPANS.json <pgad arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    instrument(tracer)
    from pgad import cli

    code = cli.main(argv[1:])
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
