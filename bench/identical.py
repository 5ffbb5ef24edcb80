"""Check that a parent revision and this tree write byte-identical outputs.

    python3 bench/identical.py PARENT --seeds 7,13

PARENT is any git revision. Its committed files are exported with
`pairs.export_revision` into `.bench_build/` (deleted at exit); the
other side is the working tree this script lives in. For every workload
that `perfbench/run.py` defines, and for ref8 trained with `--stride 3`
(whose validation windows are not consecutive, so `predict` runs
`forward` on them), and every seed, each tree runs the benchmark's own
steps once, with BLAS pinned to one thread: `synth`, then `train` (on
the training tail for a score-only workload) and `score`. The outputs
are then compared: the synth CSVs (`train.csv` and `test.csv`), every
checkpoint array, the checkpoint meta without the wall-clock fields
(`wall_clock_seconds` and each epoch's `seconds`), the loss curve, the
scores CSV and the metrics JSON. Prints one verdict per workload and
seed: "identical", or "DIFFERENT" and then one line per difference. A
checkpoint lists every meta field that differs and every array that
differs (each parameter by name, and `val_errors`) with its max |Δ| and
each side's best epoch. A text output names its first differing line, or
its line endings; for the scores CSV the line also says how far the
scores moved: max |Δscore|, max |Δsmoothed|, the number of `label_pred`
values that differ, and F1 and the flagged count on each side. Runs
every workload and seed, then exits 1 if any differed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from pairs import BUILD_DIR, ROOT, export_revision

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import run as perfbench  # noqa: E402  (perfbench/run.py)

DEFAULT_SEEDS = "7,13"
WORKLOADS = {
    **perfbench.WORKLOADS,
    "ref8-stride3": dataclasses.replace(
        perfbench.WORKLOADS["ref8"],
        model_flags=perfbench.WORKLOADS["ref8"].model_flags + ("--stride", "3")),
}


def run_steps(root: Path, work: Path, workload, seed: int) -> dict[str, Path]:
    """The benchmark's set-up and timed steps once in `root`'s tree; the
    output files to compare, by name."""
    work.mkdir(parents=True)
    bench = perfbench.Bench(root, work, workload, seed)
    bench.setup(0)
    synth = trained = work / "setup0"
    out = work / "out"
    out.mkdir()
    if not workload.train_tail:
        trained = out
        bench.train("train", synth / "train.csv", out)
    bench.score("score", trained / "model.npz", out)
    if bench.failures:
        raise RuntimeError(f"benchmark steps failed in {root}: {bench.failures[0]}")
    return {"train.csv": synth / "train.csv", "test.csv": synth / "test.csv",
            "checkpoint": trained / "model.npz", "loss curve": trained / "curve.csv",
            "scores.csv": out / "scores.csv", "metrics.json": out / "metrics.json"}


def untimed_meta(archive) -> dict:
    meta = json.loads(str(archive["meta"][()]))
    train = meta.get("train", {})
    train.pop("wall_clock_seconds", None)
    for epoch in train.get("epochs", []):
        epoch.pop("seconds", None)
    return meta


def checkpoint_differences(parent: Path, change: Path) -> list[str]:
    with np.load(parent) as a, np.load(change) as b:
        if sorted(a.files) != sorted(b.files):
            return [f"array names {sorted(set(a.files) ^ set(b.files))}"]
        meta = untimed_meta(a), untimed_meta(b)
        found = [f"meta[{field!r}]" for field in sorted(set(meta[0]) | set(meta[1]))
                 if json.dumps(meta[0].get(field), sort_keys=True)
                 != json.dumps(meta[1].get(field), sort_keys=True)]
        best = " vs ".join(str(m.get("train", {}).get("best_epoch")) for m in meta)
        for key in sorted(a.files):
            x, y = a[key], b[key]
            if key == "meta" or (x.dtype == y.dtype and x.shape == y.shape
                                 and x.tobytes() == y.tobytes()):
                continue
            if x.shape != y.shape:
                found.append(f"array {key}: shape {x.shape} vs {y.shape}")
                continue
            delta = np.abs(x.astype(np.float64) - y.astype(np.float64)).max(initial=0.0)
            found.append(f"array {key}: max |Δ| {delta:.3g}, best epoch {best}")
    return found


def text_difference(parent: Path, change: Path) -> str | None:
    a, b = parent.read_bytes(), change.read_bytes()
    if a == b:
        return None
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (line_a, line_b) in enumerate(zip(lines_a, lines_b), start=1):
        if line_a != line_b:
            return f"line {i}"
    if len(lines_a) == len(lines_b):
        return "line endings"
    return f"length ({len(lines_a)} vs {len(lines_b)} lines)"


def score_drift(parent: dict[str, Path], change: dict[str, Path]) -> str:
    """How far the change's scores CSV and metrics moved from the parent's."""
    columns = []
    for side in (parent, change):
        with open(side["scores.csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        columns.append({key: np.array([float(row[key]) for row in rows])
                        for key in ("score", "smoothed", "label_pred")})
    a, b = columns
    if a["score"].size != b["score"].size:
        return f"{a['score'].size} vs {b['score'].size} rows"
    metrics = [json.loads(side["metrics.json"].read_text()) for side in (parent, change)]
    f1 = [m.get("metrics", {}).get("f1") for m in metrics]
    flagged = [m["n_flagged"] for m in metrics]
    return (f"max |Δscore| {np.abs(a['score'] - b['score']).max():.3g}, "
            f"max |Δsmoothed| {np.abs(a['smoothed'] - b['smoothed']).max():.3g}, "
            f"label_pred differs in {int((a['label_pred'] != b['label_pred']).sum())} "
            f"of {a['score'].size} rows; f1 {f1[0]} -> {f1[1]}, "
            f"flagged {flagged[0]} -> {flagged[1]}")


def differences(parent: dict[str, Path], change: dict[str, Path]) -> list[str]:
    """One line per difference between the two sides' outputs."""
    found = []
    for name, path in parent.items():
        if name == "checkpoint":
            found += [f"{name}: {where}" for where in checkpoint_differences(path, change[name])]
            continue
        where = text_difference(path, change[name])
        if where is not None:
            if name == "scores.csv":
                where += "; " + score_drift(parent, change)
            found.append(f"{name}: {where}")
    return found


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("--seeds", default=DEFAULT_SEEDS,
                        help=f"comma-separated synth seeds (default {DEFAULT_SEEDS})")
    args = parser.parse_args(argv)
    try:
        args.seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if not args.seeds:
        parser.error("--seeds must name at least one seed")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    work = BUILD_DIR / f"identical-{os.getpid()}"
    try:
        sha = export_revision(args.parent, work / "parent-tree")
        print(f"parent {sha[:12]} vs the working tree")
        runs = differing = 0
        for name, workload in WORKLOADS.items():
            for seed in args.seeds:
                outputs = {side: run_steps(root, work / f"{name}-{seed}" / side, workload, seed)
                           for side, root in (("parent", work / "parent-tree"),
                                              ("change", ROOT))}
                runs += 1
                found = differences(outputs["parent"], outputs["change"])
                if not found:
                    print(f"{name} seed {seed}: identical ({', '.join(outputs['parent'])})",
                          flush=True)
                    continue
                differing += 1
                print(f"{name} seed {seed}: DIFFERENT", *found, sep="\n  ", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            BUILD_DIR.rmdir()
        except OSError:
            pass
    if differing:
        print(f"{differing} of {runs} workload and seed runs differ")
        return 1
    print("no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
