"""pgad benchmark: wall-clock of the shipped CLI on seeded synthetic workloads.

    python3 perfbench/run.py --workload ref8 --seed 7 --seconds 30 --trace 0

Each run generates its inputs with `pgad synth` from `--seed`, then runs
the CLI (`python -m pgad.cli train|score`) as child processes, one job at
a time: a closed loop with one client, the way pgad is used as a batch
tool. Every child has its BLAS and OpenMP pools pinned to one thread.
Set-up is repeated SETUP_REPEATS times and the timed steps are repeated
while `--seconds` allow; the metrics are medians. Every output is
checked, and every failed exit code or check counts in `failed`.

With `--trace 0` the last line of stdout holds the end-to-end metrics.
With `--trace 1` untraced and traced iterations alternate; traced
children run the CLI under `spans.py`, and the last line holds the
per-layer metrics plus the tracing overhead (traced minus untraced
wall-clock of the timed steps). Traced numbers never enter the
end-to-end metrics.

`--write-benchmark-json` rewrites BENCHMARK.json from the definitions
below, which are the only copy of the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import LAYER_METRICS, annotate, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"

SETUP_REPEATS = 3
RUN_DEADLINE_S = 165.0    # children still running then are killed and count as failed
PERIOD = 24
ANOMALY_RATE = 0.03
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
CRITERION_6_SEED = 7
CRITERION_6_F1 = 0.75
TINY_MODEL = ("--neighbors", "2", "--slots", "2", "--batch-size", "16",
              "--embed-dim", "8", "--spatial-dim", "8", "--channels", "2",
              "--temporal-dim", "8", "--hidden-dim", "16")


@dataclass(frozen=True)
class Workload:
    """One seeded input set. `length` is the synth length; its first half
    is train.csv and its second half the labeled test.csv.

    With `train_tail` set, set-up trains the checkpoint on the last
    `train_tail` rows of train.csv (a multiple of PERIOD, so the test
    half keeps its phase) and the timed step is `score` alone;
    otherwise each timed iteration runs `train` and then `score`.
    Every training run has patience == epochs, so early stopping never
    cuts the epoch count.
    """

    why: str
    sensors: int
    length: int
    epochs: int
    score_flags: tuple[str, ...]
    train_tail: int = 0
    window: int = 64
    model_flags: tuple[str, ...] = ()

    def train_flags(self) -> list[str]:
        return ["--window", str(self.window), "--epochs", str(self.epochs),
                "--patience", str(self.epochs), *self.model_flags]

    def smoke(self) -> "Workload":
        """A tiny version of the same steps, for the benchmark's tests."""
        return dataclasses.replace(
            self, sensors=min(self.sensors, 6), length=960 if self.train_tail else 480,
            epochs=1, train_tail=240 if self.train_tail else 0, window=16,
            model_flags=TINY_MODEL,
        )


# Epoch budgets are fixed so that train_s does not follow the early-stop
# epoch of each seed's data, and so that several iterations fit one run.
# graph51 scores with best-F1: its calibrated F1 after two epochs was 0 on
# some seeds, while the best-F1 scan over its 296 windows is under 1% of
# score_s.
WORKLOADS = {
    "ref8": Workload(
        why="ROADMAP reference shape (N=8, 2400-step train half, default model, calibrated "
            "threshold): training dominates, set by numpy call overhead and the dense blocks",
        sensors=8, length=4800, epochs=2,
        score_flags=("--threshold", "max-validation"),
    ),
    "graph51": Workload(
        why="SWaT-sized graph (N=51): the dense (B,F,N,N) neighbour mix dominates forward, "
            "backward and predict, and predict chunks set peak RSS",
        sensors=51, length=720, epochs=2,
        score_flags=("--threshold", "best-f1", "--point-adjust"),
    ),
    "score-long": Workload(
        why="inference only: 11936 windows scored with best-F1 and point-adjust, so predict, "
            "the O(n^2) threshold scan, CSV ingest and the row writer do the work",
        sensors=8, length=24000, epochs=1, train_tail=1200,
        score_flags=("--threshold", "best-f1", "--point-adjust"),
    ),
}

# name -> (unit, better, bound as a share of the parent's median). On a
# shared 2-core VM the wall-clock of one job drifts by 10-20% over minutes
# (CPU time drifts with it), so ten seeded runs spread 4-13% between their
# quartiles; the timing bounds leave room for that. peak_rss_mb repeats to
# 2%, and f1 spreads up to 9% because it varies with the seed's data.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "train_s": ("s", "lower", 0.25),
    "train_windows_per_s": ("1/s", "higher", 0.25),
    "score_s": ("s", "lower", 0.25),
    "score_windows_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "f1": ("ratio", "higher", 0.2),
}
RUN_SECONDS = 30


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why} for name, w in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better, _) in LAYER_METRICS.items()],
    }


# ---------------------------------------------------------------------------
# environment

def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(root),
        "threads": dict(PINNED_THREADS),
    }


# ---------------------------------------------------------------------------
# output checks

class CheckFailed(Exception):
    pass


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path.name} is not readable JSON: {exc}") from exc


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_synth(out_dir: Path, workload: Workload) -> str:
    """Both CSVs hold length/2 rows; test.csv carries labels. Returns a digest."""
    digest = hashlib.sha256()
    for name, labeled in (("train.csv", False), ("test.csv", True)):
        path = out_dir / name
        if not path.is_file():
            raise CheckFailed(f"synth wrote no {name}")
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        if len(rows) != workload.length // 2 + 1:
            raise CheckFailed(f"{name} has {len(rows) - 1} rows, expected {workload.length // 2}")
        if ("label" in rows[0]) != labeled or len(rows[0]) != workload.sensors + labeled:
            raise CheckFailed(f"{name} header {rows[0][:3]}... does not fit the workload")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_report(path: Path, epochs: int) -> int:
    """Returns the training windows stepped: (n_windows - n_val) * epochs run."""
    report = _read_json(path)
    train = report.get("train")
    if not isinstance(train, dict) or "checkpoint" not in report:
        raise CheckFailed(f"{path.name} lacks the checkpoint or train fields")
    for key in ("epochs", "n_windows", "n_val", "checksum", "best_epoch", "period"):
        if key not in train:
            raise CheckFailed(f"{path.name} train report lacks {key!r}")
    epochs_run = len(train["epochs"]) - 1
    if epochs_run != epochs:
        raise CheckFailed(f"training ran {epochs_run} epochs, the budget is {epochs}")
    if train["period"] != PERIOD:
        raise CheckFailed(f"detected period {train['period']}, synth used {PERIOD}")
    return (train["n_windows"] - train["n_val"]) * epochs_run


def checkpoint_fingerprint(path: Path) -> str:
    """Loads the checkpoint with pgad itself; hashes everything but the
    wall-clock seconds the training report embeds in its meta record."""
    from pgad.checkpoint import load_checkpoint
    from pgad.errors import PgadError

    try:
        ckpt = load_checkpoint(path)
    except PgadError as exc:
        raise CheckFailed(f"checkpoint does not load: {exc}") from exc
    meta = json.loads(json.dumps(ckpt.meta))
    train = meta.get("train", {})
    train.pop("wall_clock_seconds", None)
    for epoch in train.get("epochs", []):
        epoch.pop("seconds", None)
    digest = hashlib.sha256(json.dumps(meta, sort_keys=True).encode())
    for name in sorted(ckpt.params):
        digest.update(name.encode())
        digest.update(ckpt.params[name].tobytes())
    digest.update(ckpt.val_errors.tobytes())
    return digest.hexdigest()


def check_scores(path: Path, rows_expected: int, window: int) -> None:
    if not path.is_file():
        raise CheckFailed("score wrote no scores CSV")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if header[:4] != ["t", "score", "smoothed", "label_pred"]:
            raise CheckFailed(f"scores CSV header is {header}")
        n = 0
        for n, row in enumerate(reader, start=1):
            if int(row[0]) != window + n - 1:
                raise CheckFailed(f"scores CSV row {n} has t={row[0]}")
            if not (math.isfinite(float(row[1])) and math.isfinite(float(row[2]))):
                raise CheckFailed(f"scores CSV row {n} has a non-finite score")
    if n != rows_expected:
        raise CheckFailed(f"scores CSV has {n} rows, expected {rows_expected}")


METRICS_FIELDS = ("threshold", "threshold_mode", "ma_window", "n_scored", "n_flagged",
                  "first_scored_t", "metrics")
DETECTION_FIELDS = ("precision", "recall", "f1", "true_positives", "false_positives",
                    "false_negatives", "point_adjust", "threshold", "n_scored")


def check_metrics(path: Path, rows_expected: int) -> float:
    """Returns the reported F1."""
    payload = _read_json(path)
    missing = [k for k in METRICS_FIELDS if k not in payload]
    missing += [f"metrics.{k}" for k in DETECTION_FIELDS if k not in payload.get("metrics", {})]
    if missing:
        raise CheckFailed(f"metrics JSON lacks {missing}")
    if payload["n_scored"] != rows_expected:
        raise CheckFailed(f"metrics JSON n_scored={payload['n_scored']}, expected {rows_expected}")
    f1 = payload["metrics"]["f1"]
    if not (isinstance(f1, (int, float)) and 0.0 <= f1 <= 1.0):
        raise CheckFailed(f"F1 {f1!r} is not in [0, 1]")
    return f1


# ---------------------------------------------------------------------------
# running

@dataclass
class Job:
    seconds: float
    rss_mb: float
    ok: bool
    cpu_s: float = 0.0
    stepped: int = 0          # training windows stepped, from the report
    rows: int = 0             # windows scored
    f1: float | None = None


class Bench:
    """One benchmark run: set-up, timed iterations, checks and counts."""

    def __init__(self, root: Path, work: Path, workload: Workload, seed: int):
        self.work = work
        self.workload = workload
        self.seed = seed
        self.env = {**os.environ, **PINNED_THREADS, "PYTHONPATH": str(root / "src"),
                    "PYTHONDONTWRITEBYTECODE": "1"}
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] = {}
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    # -- operations ------------------------------------------------------

    def child(self, label: str, argv: list[str], spans_path: Path | None = None) -> Job:
        """Run one CLI job; its exit code and rusage come from os.wait4."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "pgad.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "spans.py"), str(spans_path), *argv]
        self.attempted += 1
        with open(self.work / f"{label}.log", "wb") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (self.work / f"{label}.log").read_text(errors="replace")[-400:]
            self.failures.append(f"{label}: exit code {proc.returncode}: {tail.strip()}")
        return Job(seconds, usage.ru_maxrss / 1024.0, proc.returncode == 0,
                   usage.ru_utime + usage.ru_stime)

    def checked(self, job: Job, label: str, check) -> object:
        """Run `check` on a successful job's outputs; a failure counts once."""
        if not job.ok:
            return None
        try:
            return check()
        except (CheckFailed, OSError, ValueError, IndexError) as exc:
            job.ok = False
            self.failures.append(f"{label}: {exc}")
            return None

    def same_as_first(self, key: str, value: str) -> None:
        """Repeated runs within one set must write identical outputs."""
        first = self.reference.setdefault(key, value)
        if value != first:
            raise CheckFailed(f"{key} differs from the first run of this set")

    @property
    def failed(self) -> int:
        return len(self.failures)

    # -- steps -----------------------------------------------------------

    def setup(self, i: int) -> tuple[float, Job | None, int]:
        """synth, plus the checkpoint for a score-only workload.

        Returns (seconds, training job or None, training windows stepped).
        """
        w = self.workload
        out = self.work / f"setup{i}"
        started = time.perf_counter()
        synth = self.child(f"setup{i}-synth", [
            "synth", "--sensors", str(w.sensors), "--length", str(w.length),
            "--period", str(PERIOD), "--anomaly-rate", str(ANOMALY_RATE),
            "--seed", str(self.seed), "--out-dir", str(out),
        ])
        train, stepped = None, 0
        if synth.ok and w.train_tail:
            lines = (out / "train.csv").read_text().splitlines(keepends=True)
            (out / "train_tail.csv").write_text("".join(lines[:1] + lines[-w.train_tail:]))
            train = self.train(f"setup{i}-train", out / "train_tail.csv", out)
            stepped = train.stepped if train.ok else 0
        seconds = time.perf_counter() - started
        self.checked(synth, f"setup{i}-synth",
                     lambda: self.same_as_first("synth CSVs", check_synth(out, w)))
        return seconds, train, stepped

    def train(self, label: str, data: Path, out: Path, spans: Path | None = None) -> Job:
        w = self.workload
        job = self.child(label, [
            "train", str(data), *w.train_flags(), "--checkpoint", str(out / "model.npz"),
            "--report", str(out / "report.json"), "--loss-curve", str(out / "curve.csv"),
        ], spans)

        def check():
            stepped = check_report(out / "report.json", w.epochs)
            self.same_as_first("checkpoint", checkpoint_fingerprint(out / "model.npz"))
            return stepped

        job.stepped = self.checked(job, label, check) or 0
        return job

    def score(self, label: str, model: Path, out: Path, spans: Path | None = None) -> Job:
        w = self.workload
        rows = w.length // 2 - w.window
        job = self.child(label, [
            "score", str(model), str(self.work / "setup0" / "test.csv"), *w.score_flags,
            "--scores", str(out / "scores.csv"), "--metrics", str(out / "metrics.json"),
        ], spans)

        def check():
            check_scores(out / "scores.csv", rows, w.window)
            f1 = check_metrics(out / "metrics.json", rows)
            self.same_as_first("scores CSV", _digest(out / "scores.csv"))
            self.same_as_first("metrics JSON", _digest(out / "metrics.json"))
            return f1

        job.f1 = self.checked(job, label, check)
        job.rows = rows
        return job

    def iteration(self, k: int, traced: bool) -> dict:
        """The timed steps once: train then score, or score alone."""
        w = self.workload
        out = self.work / f"iter{k}"
        out.mkdir()
        spans = [out / "train.spans.json", out / "score.spans.json"] if traced else [None, None]
        jobs = {}
        if w.train_tail:
            model = self.work / "setup0" / "model.npz"
        else:
            model = out / "model.npz"
            jobs["train"] = self.train(f"iter{k}-train", self.work / "setup0" / "train.csv",
                                       out, spans[0])
            if not jobs["train"].ok:
                return {"ok": False}
        jobs["score"] = self.score(f"iter{k}-score", model, out, spans[1])
        result = {"ok": all(j.ok for j in jobs.values()), "traced": traced,
                  "seconds": sum(j.seconds for j in jobs.values()),
                  "rss_mb": max(j.rss_mb for j in jobs.values()),
                  "score_s": jobs["score"].seconds,
                  "score_rate": jobs["score"].rows / jobs["score"].seconds,
                  "f1": jobs["score"].f1}
        print(f"iteration {k}{' (traced)' if traced else ''}: "
              + ", ".join(f"{step} {job.seconds:.3f} s (cpu {job.cpu_s:.3f} s)"
                          for step, job in jobs.items()), flush=True)
        if "train" in jobs:
            result["train_s"] = jobs["train"].seconds
            result["train_rate"] = jobs["train"].stepped / jobs["train"].seconds
        if traced and result["ok"]:
            result["layers"] = traced_layers([p for p in spans if p.is_file()])
        return result

    def run(self, seconds: float, trace: bool) -> dict[str, float]:
        setups = [self.setup(i) for i in range(SETUP_REPEATS)]
        if any(train is not None and not train.ok for _, train, _ in setups) \
                or self.failed:
            return {}
        per_unit = 2 if trace else 1
        iterations: list[dict] = []
        started = time.perf_counter()
        while True:
            for _ in range(per_unit):
                iterations.append(self.iteration(len(iterations), trace and len(iterations) % 2 == 1))
            if not all(it["ok"] for it in iterations):
                return {}
            elapsed = time.perf_counter() - started
            if elapsed * (1 + per_unit / len(iterations)) > seconds:
                break
        if self.workload == WORKLOADS["ref8"] and self.seed == CRITERION_6_SEED \
                and iterations[0]["f1"] < CRITERION_6_F1:
            self.failures.append(
                f"criterion 6: calibrated F1 {iterations[0]['f1']:.4f} < {CRITERION_6_F1}")
        if trace:
            return traced_metrics(iterations)

        if self.workload.train_tail:
            train_s = [t.seconds for _, t, _ in setups]
            train_rate = [stepped / t.seconds for _, t, stepped in setups]
        else:
            train_s = [it["train_s"] for it in iterations]
            train_rate = [it["train_rate"] for it in iterations]
        return {
            "setup_s": statistics.median(s for s, _, _ in setups),
            "train_s": statistics.median(train_s),
            "train_windows_per_s": statistics.median(train_rate),
            "score_s": statistics.median(it["score_s"] for it in iterations),
            "score_windows_per_s": statistics.median(it["score_rate"] for it in iterations),
            "peak_rss_mb": max(it["rss_mb"] for it in iterations),
            "f1": iterations[0]["f1"],
        }


def traced_layers(paths: list[Path]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (one span file per child)."""
    spans, counts = [], {}
    for path in paths:
        payload = json.loads(path.read_text())
        spans += annotate(payload["spans"])
        for name, n in payload["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return layer_metrics(spans, counts)


def traced_metrics(iterations: list[dict]) -> dict[str, float]:
    traced = [it for it in iterations if it["traced"]]
    plain = [it for it in iterations if not it["traced"]]
    metrics = {name: statistics.median(it["layers"][name] for it in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = statistics.median(it["seconds"] for it in traced) \
        - statistics.median(it["seconds"] for it in plain)
    return metrics


# ---------------------------------------------------------------------------
# entry point

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="time budget of the timed iterations (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and model, for the benchmark's own tests")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="rewrite BENCHMARK.json from this file's definitions")
    args = parser.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "pgad" / "cli.py").is_file():
        print(f"error: no pgad sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()

    work = ROOT / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(ROOT, work, workload, args.seed)
        metrics = bench.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = {name: spec[0] for name, spec in {**END_TO_END, **LAYER_METRICS}.items()}
    wanted = LAYER_METRICS if args.trace else END_TO_END
    print("env: " + json.dumps(environment(ROOT), sort_keys=True))
    for failure in bench.failures:
        print(f"FAILED {failure}")
    for name in wanted:
        moves = f"  -> {LAYER_METRICS[name][2]}" if args.trace else ""
        print(f"{name:<32} {metrics.get(name, float('nan')):>14.6g} {units[name]:<6}{moves}")
    print(f"{'error_rate':<32} {bench.failed / max(bench.attempted, 1):>14.6g} "
          f"({bench.failed} of {bench.attempted} operations)")
    print(json.dumps({
        "correct": not bench.failures and set(metrics) >= set(wanted),
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
