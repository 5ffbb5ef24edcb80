"""Run the benchmark once per seed on each workload and summarise the spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every end-to-end metric this reports the median of the runs and the
distance between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound. A
spread above a third of the bound is marked `wide`, one above the bound
`OVER`. `--compare` adds the change of each median against an earlier
summary. The JSON written with `--out` keeps every run's values and the
environment they were measured in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",") if x.strip()]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str, float]:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    env = next((line[5:] for line in lines if line.startswith("env: ")), "{}")
    return json.loads(lines[-1]), env, elapsed


def summarise(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    flag = "OVER" if spread > bound else "wide" if spread > bound / 3 else "ok"
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "flag": flag,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=run.RUN_SECONDS)
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--compare", help="an earlier summary JSON to compare medians with")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    earlier = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}

    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, env, elapsed = run_once(workload, seed, args.seconds)
            runs.append(result)
            summary["environment"] = json.loads(env)
            print(f"{workload} seed {seed}: {elapsed:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name, (unit, better, bound) in run.END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": unit, "bound": bound, **summarise(values, bound)}
            line = (f"  {name:<22} median {metrics[name]['median']:>12.6g} {unit:<6} "
                    f"spread {metrics[name]['spread']:7.2%} of bound {bound:.0%} "
                    f"[{metrics[name]['flag']}]")
            if name in earlier.get(workload, {}).get("metrics", {}):
                before = earlier[workload]["metrics"][name]["median"]
                line += f"  median change {(metrics[name]['median'] - before) / before:+.2%}"
            print(line, flush=True)
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
