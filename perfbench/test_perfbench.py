"""Tests of the benchmark itself: span arithmetic, names, and a tiny
end-to-end run of every workload in both modes.

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import LAYER_METRICS, Tracer, annotate, layer_metrics

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN_PY = Path(run.__file__).resolve()


def _fake_clock(*ticks):
    return iter(ticks).__next__


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer(clock=_fake_clock(0.0, 1.0, 2.0, 4.0, 5.0, 5.0, 7.0, 10.0))
    with tracer.span("outer"):              # 0 .. 10
        with tracer.span("a"):              # 1 .. 5
            with tracer.span("a.inner"):    # 2 .. 4
                pass
        with tracer.span("b"):              # 5 .. 7
            pass
    spans = {s["name"]: s for s in annotate(tracer.spans)}
    assert spans["outer"]["self"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert spans["a"]["self"] == pytest.approx(4.0 - 2.0)
    assert spans["a.inner"]["self"] == pytest.approx(2.0)
    assert spans["b"]["self"] == pytest.approx(2.0)
    assert spans["a.inner"]["parent_name"] == "a"
    assert spans["outer"]["parent_name"] is None


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"id": 0, "name": "p", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "c", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "c", "parent": 0, "start": 3.0, "end": 6.0},
        {"id": 3, "name": "c", "parent": 0, "start": 9.0, "end": 12.0},
    ]
    # children cover [1, 6] and [9, 10] inside the parent: 6 of its 10 s
    assert annotate(spans)[0]["self"] == pytest.approx(4.0)


def test_layer_metrics_split_training_batches_from_predict_chunks():
    tracer = Tracer(clock=_fake_clock(*[float(t) for t in range(20)]))
    with tracer.span("training.train") as train:
        with tracer.span("model.forward") as fwd:
            fwd["groups"] = 3
        with tracer.span("model.predict") as pred:
            pred["windows"] = 6
            with tracer.span("model.forward") as chunk:
                chunk["groups"] = 4
        train["epochs"] = 1
    metrics = layer_metrics(annotate(tracer.spans), {"scoring.evaluate": 5})
    assert metrics["model.forward_calls"] == 2
    assert metrics["model.forward_ms_per_batch"] == pytest.approx(1000.0)
    assert metrics["model.slot_groups_per_batch"] == 3
    assert metrics["model.predict_s"] == pytest.approx(3.0)
    assert metrics["model.predict_windows_per_s"] == pytest.approx(2.0)
    assert metrics["training.val_predict_s"] == pytest.approx(3.0)
    assert metrics["training.self_s"] == pytest.approx(7.0 - 1.0 - 3.0)
    assert metrics["scoring.thresholds_scanned"] == 5
    assert set(metrics) == set(LAYER_METRICS) - {"trace.overhead_s"}


def test_metric_and_workload_names_are_well_formed():
    names = [*run.WORKLOADS, *run.END_TO_END, *LAYER_METRICS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert run.END_TO_END["setup_s"][:2] == ("s", "lower")
    assert all(0 < bound <= 0.25 for _, _, bound in run.END_TO_END.values())
    assert max(b for _, _, b in run.END_TO_END.values()) == run.END_TO_END["setup_s"][2]
    for unit, better, _ in [*run.END_TO_END.values(), *LAYER_METRICS.values()]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit)
        assert better in ("lower", "higher")


def test_benchmark_json_matches_the_definitions():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.benchmark_json()
    assert all(len(w["why"]) <= 200 for w in on_disk["workloads"])


def _bench(*args):
    return subprocess.run([sys.executable, str(RUN_PY), *args], capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_of_every_workload(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 4
    wanted = LAYER_METRICS if trace else run.END_TO_END
    assert list(result["metrics"]) == list(wanted)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == wanted[name][0]
    if trace:
        assert result["metrics"]["model.predict_s"]["value"] > 0
        assert result["metrics"]["checkpoint.bytes"]["value"] > 0
        trains = workload != "score-long"
        assert (result["metrics"]["training.steps"]["value"] > 0) == trains
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(RUN_PY.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ref8",
                           "--seconds", "1", "--trace", "0"], capture_output=True,
                          text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
