"""Alternating parent/change pairs of the pgad benchmark, written as BENCH_<n>.json.

    python3 bench/pairs.py PARENT --workload score-long --seed 7 --pairs 10 --out BENCH_5.json
    python3 bench/pairs.py PARENT --workload ref8 --pairs 5 --trace --out BENCH_5.json

PARENT is any git revision. Its committed files are exported with
`git archive` into `.bench_build/` (deleted at exit); the change side is
the working tree this script lives in. Each pair runs

    python3 perfbench/run.py --workload W --seed S --trace 0

once on each side, one run at a time, and the side that runs first
alternates from pair to pair. With `--trace`, each pair then runs
`--trace 1` once on each side, in the same order. Per workload and metric
the output holds each side's median and quartiles (linear percentiles)
over the runs, the number of pairs the change won, the share of the
parent's median the change moved by, and each side's attempted and failed
operation counts and `env:` line: under `end_to_end` for the untraced
runs and under `per_layer` for the traced ones. Each entry's `code`
records which code each side ran: the parent's sha, the change side's
HEAD sha, whether its tree had uncommitted or untracked files, and the
sha256 of its `git diff HEAD`. perfbench's own `env.commit` cannot tell
(it reads "unknown" in the exported tree and HEAD in the working tree),
so it is replaced by the parent's sha and the change's HEAD sha, with
"-dirty" appended for a dirty tree. Entries are merged into `--out`,
keyed by the workload name, with `-seed<S>` appended for any seed but 7.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
DEFAULT_SEED = 7
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          check=True).stdout


def export_revision(revision: str, dest: Path) -> str:
    """Write the files committed at `revision` to `dest`; return its full sha."""
    sha = git("rev-parse", "--verify", revision + "^{commit}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest, filter="data")
    return sha


def change_code() -> dict:
    """The change side's HEAD sha, whether its tree is dirty, and the sha256
    of `git diff HEAD`."""
    return {
        "change_head": git("rev-parse", "HEAD").decode().strip(),
        "change_dirty": bool(git("status", "--porcelain").strip()),
        "change_diff_sha256": hashlib.sha256(git("diff", "HEAD")).hexdigest(),
    }


def label_code(entry: dict, code: dict) -> dict:
    """`entry` with its `code` record, and each side's `env.commit` set to
    the code that side ran."""
    entry["code"] = code
    commits = {"parent": code["parent"],
               "change": code["change_head"] + ("-dirty" if code["change_dirty"] else "")}
    for side, env in entry["env"].items():
        if env is not None:
            env["commit"] = commits[side]
    return entry


def run_once(root: Path, workload: str, seed: int, trace: bool) -> dict:
    """One perfbench invocation; its metrics, counts and env line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "1" if trace else "0"],
        cwd=root, capture_output=True, text=True, env={**os.environ, **PINNED},
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {root} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[len("env: "):]) for line in lines if line.startswith("env: ")),
               None)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "env": env,
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6)}


def summarise(workload: str, seed: int, runs: dict, better: dict) -> dict:
    """Medians, quartiles and wins per metric over paired runs."""
    metrics = {}
    for name in runs["parent"][0]["metrics"]:
        sides = {side: [r["metrics"][name] for r in runs[side]] for side in runs}
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        parent_median = float(np.median(sides["parent"]))
        entry = {side: quartiles(values) for side, values in sides.items()}
        entry["change_wins"] = int(wins)
        if parent_median:
            entry["change_vs_parent"] = round(
                float(np.median(sides["change"])) / parent_median - 1.0, 4)
        metrics[name] = entry
    return {
        "workload": workload,
        "seed": seed,
        "pairs": len(runs["parent"]),
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "metrics": metrics,
        "env": {side: runs[side][0]["env"] for side in runs},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", action="store_true",
                        help="also run one traced run per side in every pair and record "
                             "the layer metrics")
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON file to merge the results into")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent_root = BUILD_DIR / f"parent-{os.getpid()}"
    code = change_code()
    try:
        code = {"parent": export_revision(args.parent, parent_root), **code}
        roots = {"parent": parent_root, "change": ROOT}
        modes = (False, True) if args.trace else (False,)
        runs = {traced: {"parent": [], "change": []} for traced in modes}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for traced in modes:
                for side in order:
                    runs[traced][side].append(
                        run_once(roots[side], args.workload, args.seed, traced))
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} {runs[False][side][-1]['metrics'].get('score_s', float('nan')):.3f} s "
                "score" for side in order), file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)
        try:
            BUILD_DIR.rmdir()
        except OSError:
            pass

    key = args.workload if args.seed == DEFAULT_SEED else f"{args.workload}-seed{args.seed}"
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out["parent_commit"] = code["parent"]
    out.setdefault("end_to_end", {})[key] = label_code(
        summarise(args.workload, args.seed, runs[False], better), code)
    if args.trace:
        out.setdefault("per_layer", {})[key] = label_code(
            summarise(args.workload, args.seed, runs[True], better), code)
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
