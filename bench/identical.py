"""Check that a parent revision and this tree write byte-identical outputs.

    python3 bench/identical.py PARENT --seeds 7,13

PARENT is any git revision. Its committed files are exported with
`pairs.export_revision` into `.bench_build/` (deleted at exit); the other
side is the working tree this script lives in. For every workload that
`perfbench/run.py` defines and every seed, each tree runs the benchmark's
own steps once, with BLAS pinned to one thread: `synth`, then `train` (on
the training tail for a score-only workload) and `score`. The outputs are
then compared: every checkpoint array, the checkpoint meta without the
wall-clock fields (`wall_clock_seconds` and each epoch's `seconds`), the
loss curve, the scores CSV and the metrics JSON. Prints one verdict per
workload and seed: "identical", or the first output that differs and,
when the scores CSV differs, how far: max |Δscore|, max |Δsmoothed|, the
number of `label_pred` values that differ, and F1 and the flagged count
on each side. Runs every workload and seed, then exits 1 if any differed.
"""

from __future__ import annotations

import argparse
import csv
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


def run_steps(root: Path, work: Path, workload, seed: int) -> dict[str, Path]:
    """The benchmark's set-up and timed steps once in `root`'s tree; the
    output files to compare, by name."""
    work.mkdir(parents=True)
    bench = perfbench.Bench(root, work, workload, seed)
    bench.setup(0)
    trained = work / "setup0"
    out = work / "out"
    out.mkdir()
    if not workload.train_tail:
        trained = out
        bench.train("train", work / "setup0" / "train.csv", out)
    bench.score("score", trained / "model.npz", out)
    if bench.failures:
        raise RuntimeError(f"benchmark steps failed in {root}: {bench.failures[0]}")
    return {"checkpoint": trained / "model.npz", "loss curve": trained / "curve.csv",
            "scores.csv": out / "scores.csv", "metrics.json": out / "metrics.json"}


def untimed_meta(archive) -> dict:
    meta = json.loads(str(archive["meta"][()]))
    train = meta.get("train", {})
    train.pop("wall_clock_seconds", None)
    for epoch in train.get("epochs", []):
        epoch.pop("seconds", None)
    return meta


def checkpoint_difference(parent: Path, change: Path) -> str | None:
    with np.load(parent) as a, np.load(change) as b:
        if sorted(a.files) != sorted(b.files):
            return f"array names {sorted(set(a.files) ^ set(b.files))}"
        for key in sorted(a.files):
            if key == "meta":
                meta_a, meta_b = untimed_meta(a), untimed_meta(b)
                for field in sorted(set(meta_a) | set(meta_b)):
                    if json.dumps(meta_a.get(field), sort_keys=True) != \
                            json.dumps(meta_b.get(field), sort_keys=True):
                        return f"meta[{field!r}]"
            elif a[key].dtype != b[key].dtype or a[key].shape != b[key].shape \
                    or a[key].tobytes() != b[key].tobytes():
                return f"array {key}"
    return None


def text_difference(parent: Path, change: Path) -> str | None:
    a, b = parent.read_bytes(), change.read_bytes()
    if a == b:
        return None
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (line_a, line_b) in enumerate(zip(lines_a, lines_b), start=1):
        if line_a != line_b:
            return f"line {i}"
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


def first_difference(parent: dict[str, Path], change: dict[str, Path]) -> str | None:
    for name, path in parent.items():
        compare = checkpoint_difference if name == "checkpoint" else text_difference
        where = compare(path, change[name])
        if where is not None:
            return f"{name}: {where}"
    return None


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
        for name, workload in perfbench.WORKLOADS.items():
            for seed in args.seeds:
                outputs = {side: run_steps(root, work / f"{name}-{seed}" / side, workload, seed)
                           for side, root in (("parent", work / "parent-tree"),
                                              ("change", ROOT))}
                runs += 1
                where = first_difference(outputs["parent"], outputs["change"])
                if where is None:
                    print(f"{name} seed {seed}: identical ({', '.join(outputs['parent'])})",
                          flush=True)
                    continue
                differing += 1
                verdict = f"{name} seed {seed}: DIFFERENT at {where}"
                if text_difference(outputs["parent"]["scores.csv"],
                                   outputs["change"]["scores.csv"]) is not None:
                    verdict += "; scores.csv: " + score_drift(outputs["parent"],
                                                              outputs["change"])
                print(verdict, flush=True)
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
