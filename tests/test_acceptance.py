"""Acceptance gate: nine numbered checks, one printed line each.

Run `pytest -v tests/test_acceptance.py` to see the lines inline. The
heavier checks (6 through 8) train real models on one core and together
take a few minutes; everything else is seconds.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from pgad import cli
from pgad.checkpoint import checkpoint_from_result
from pgad.data import generate_synthetic
from pgad.experiments import ablation_f1s, sweep_f1s
from pgad.graph import cosine_similarity, slot_ids_for_windows, topk_adjacency
from pgad.model import attention_coefficients
from pgad.period import detect_period
from pgad.scoring import (
    ScoreCalibration,
    evaluate,
    moving_average,
    normalize_scores,
    point_adjust_predictions,
    score_series,
)
from pgad.training import TrainConfig, train

from helpers import (
    brute_spectrum,
    random_instance,
    series_of,
    tiny_model_config,
    worst_gradient_error,
)


@contextmanager
def criterion(capsys, number, description):
    """Print one pass/fail line per criterion, visible through capture."""
    note = {}
    started = time.monotonic()
    try:
        yield note
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {number}] FAIL  {description}")
        raise
    elapsed = time.monotonic() - started
    detail = f" ({note['detail']})" if "detail" in note else ""
    with capsys.disabled():
        print(f"[criterion {number}] PASS  {description}{detail}  [{elapsed:.1f}s]")


@pytest.fixture(scope="module")
def benchmark_splits():
    """The reference synthetic set: clean first half, labeled second half."""
    full = generate_synthetic(8, 4800, 24, 0.03, seed=7)
    return full.slice_time(0, 2400), full.slice_time(2400, 4800)


def test_criterion_1_gradients(capsys):
    with criterion(
        capsys, 1, "analytic gradients match central differences (rel err <= 1e-4)"
    ) as note:
        started = time.monotonic()
        worst = 0.0
        for seed in range(20):
            config = tiny_model_config(
                slots=1 + seed % 3,
                dilation=1 + seed % 2,
                use_temporal=seed % 5 != 4,
            )
            worst = max(worst, worst_gradient_error(seed, config, batch=2))
        elapsed = time.monotonic() - started
        assert worst <= 1e-4
        assert elapsed < 30.0
        note["detail"] = f"20 instances, worst rel err {worst:.2e}"


def test_criterion_2_spectrum(capsys):
    with criterion(
        capsys, 2, "spectrum matches the brute-force DFT and recovers known periods"
    ) as note:
        started = time.monotonic()
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            length = int(rng.integers(16, 257))
            n_sensors = int(rng.integers(1, 4))
            values = rng.normal(size=(n_sensors, length))
            profile = detect_period(series_of(values))
            worst = max(
                worst, float(np.abs(profile.amplitudes - brute_spectrum(values)).max())
            )
        assert worst <= 1e-9
        for period in (7, 12, 24, 60):
            t = np.arange(840)
            values = np.stack(
                [np.sin(2.0 * np.pi * t / period + 0.3 * i) for i in range(3)]
            )
            profile = detect_period(series_of(values))
            assert profile.period == period
            assert profile.dominant_frequency == 840 // period
            assert not profile.aperiodic
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        note["detail"] = f"100 series, worst abs err {worst:.2e}"


def test_criterion_3_adjacency(capsys):
    with criterion(
        capsys, 3, "top-k adjacency invariants hold on 200 random embeddings"
    ):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            dim = int(rng.integers(2, 7))
            embedding = rng.normal(size=(n, dim))
            similarity = cosine_similarity(embedding)
            # the pipeline clamps the requested budget to n - 1 sources
            k = int(rng.integers(1, n + 2))
            expected = min(k, n - 1)
            adjacency = topk_adjacency(similarity, expected)

            assert set(np.unique(adjacency)) <= {0.0, 1.0}
            assert np.array_equal(np.diag(adjacency), np.zeros(n))
            assert np.array_equal(
                adjacency.sum(axis=0), np.full(n, float(expected))
            )
            if expected + 1 <= n - 1:
                wider = topk_adjacency(similarity, expected + 1)
                assert np.all(wider[adjacency == 1.0] == 1.0)
            with pytest.raises(ValueError):
                topk_adjacency(similarity, n)

            scales = rng.uniform(0.5, 3.0, size=(n, 1))
            rescaled = topk_adjacency(
                cosine_similarity(embedding * scales), expected
            )
            assert np.array_equal(rescaled, adjacency)

            period = int(rng.integers(2, 100))
            slots = int(rng.integers(1, 9))
            t = int(rng.integers(0, 5000))
            here, later = slot_ids_for_windows(np.array([t, t + period]), period, slots)
            assert here == later
            assert 0 <= here < slots


def test_criterion_4_attention(capsys):
    with criterion(
        capsys, 4, "attention rows are stochastic and predictions permute exactly"
    ):
        config = tiny_model_config()
        for seed in range(5):
            model, params, windows, slot_ids, adjacencies, _ = random_instance(
                seed, config
            )
            for s, adjacency in enumerate(adjacencies):
                alpha = attention_coefficients(
                    params[f"emb_{s}"], adjacency, params["att_w"], params["att_a"]
                )["alpha"]
                assert np.abs(alpha.sum(axis=1) - 1.0).max() <= 1e-6

            isolated = attention_coefficients(
                params["emb_0"],
                np.zeros((config.n_sensors, config.n_sensors)),
                params["att_w"],
                params["att_a"],
            )["alpha"]
            assert np.array_equal(isolated, np.eye(config.n_sensors))

            perm = np.random.default_rng(seed).permutation(config.n_sensors)
            permuted_params = dict(params)
            for s in range(config.slots):
                permuted_params[f"emb_{s}"] = params[f"emb_{s}"][perm]
            permuted_adj = [a[np.ix_(perm, perm)] for a in adjacencies]
            base, _ = model.forward(windows, slot_ids, adjacencies, params)
            moved, _ = model.forward(
                windows[:, perm, :], slot_ids, permuted_adj, permuted_params
            )
            assert np.array_equal(moved, base[:, perm])


def test_criterion_5_scoring(capsys):
    with criterion(
        capsys, 5, "scoring fixtures exact; point-adjust dominates point-wise"
    ):
        cal = ScoreCalibration.from_errors(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
        assert cal.median[0] == 3.0 and cal.iqr[0] == 2.0
        cal = ScoreCalibration.from_errors(np.array([[0.0], [0.0], [0.0], [10.0]]))
        assert cal.median[0] == 0.0 and cal.iqr[0] == 2.5

        smoothed = moving_average(np.array([0.0, 0.0, 3.0, 0.0, 0.0]), 3)
        assert np.array_equal(smoothed, np.array([0.0, 0.0, 1.0, 1.0, 1.0]))

        report = evaluate(np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0]))
        assert report.precision == 0.5 and report.recall == 0.5

        adjusted = point_adjust_predictions(
            np.array([0, 0, 1, 0, 0]), np.array([0, 1, 1, 1, 0])
        )
        assert np.array_equal(adjusted, np.array([0, 1, 1, 1, 0], dtype=bool))

        rng = np.random.default_rng(2)
        scores = rng.normal(size=400)
        truth = rng.random(400) < 0.2
        last_recall = -1.0
        for threshold in np.linspace(2.0, -2.0, 9):
            recall = evaluate(scores > threshold, truth).recall
            assert recall >= last_recall
            last_recall = recall

        for trial in range(100):
            trial_rng = np.random.default_rng(trial)
            truth = (trial_rng.random(200) < 0.15).astype(int)
            predicted = (trial_rng.random(200) < 0.2).astype(int)
            plain = evaluate(predicted, truth)
            adjusted = evaluate(predicted, truth, point_adjust=True)
            assert adjusted.recall >= plain.recall
            assert adjusted.f1 >= plain.f1


def test_criterion_6_benchmark_f1(benchmark_splits, capsys):
    train_series, test_series = benchmark_splits
    with criterion(
        capsys, 6, "reference benchmark F1 >= 0.85 (best) and >= 0.75 (calibrated)"
    ) as note:
        started = time.monotonic()
        result = train(train_series, TrainConfig())
        checkpoint = checkpoint_from_result(result, train_series.sensor_names)
        _, best = score_series(checkpoint, test_series, threshold_mode="best_f1")
        _, calibrated = score_series(
            checkpoint, test_series, threshold_mode="max_validation"
        )
        elapsed = time.monotonic() - started
        assert best is not None and calibrated is not None
        assert best.f1 >= 0.85
        assert calibrated.f1 >= 0.75
        assert elapsed < 300.0
        note["detail"] = f"best {best.f1:.4f}, calibrated {calibrated.f1:.4f}"


def test_criterion_7_ablation(benchmark_splits, capsys):
    train_series, test_series = benchmark_splits
    with criterion(
        capsys, 7, "full model F1 >= each ablated variant over three seeds"
    ) as note:
        base = TrainConfig(epochs=8, patience=4)
        table = ablation_f1s(
            train_series,
            test_series,
            base,
            seeds=(0, 1, 2),
            workers=2,
            threshold_mode="best_f1",
        )
        full = table["full"]["mean_f1"]
        static = table["static_graph"]["mean_f1"]
        no_temporal = table["no_temporal"]["mean_f1"]
        assert full >= static
        assert full >= no_temporal
        note["detail"] = (
            f"full {full:.4f}, margins +{full - static:.4f} vs static-graph, "
            f"+{full - no_temporal:.4f} vs no-temporal"
        )


def test_criterion_8_neighbor_sweep(benchmark_splits, capsys):
    train_series, test_series = benchmark_splits
    with criterion(
        capsys, 8, "neighbor sweep peaks strictly below the largest k"
    ) as note:
        base = TrainConfig(epochs=8, patience=4)
        values = (1, 2, 3, 4, 5, 6, 7)
        rows = sweep_f1s(
            train_series,
            test_series,
            base,
            "neighbors",
            values,
            seeds=(0, 1, 2),
            workers=2,
            threshold_mode="best_f1",
        )
        means = [row["mean_f1"] for row in rows]
        best_k = values[int(np.argmax(means))]
        assert best_k != values[-1]
        note["detail"] = f"best k={best_k} (F1 {max(means):.4f})"


def test_criterion_9_reproducibility(tmp_path, capsys):
    with criterion(
        capsys, 9, "fixed-seed reruns produce byte-identical score files"
    ) as note:
        artifacts = []
        for run in ("one", "two"):
            root = tmp_path / run
            root.mkdir()
            assert cli.main([
                "synth", "--sensors", "4", "--length", "600", "--period", "24",
                "--anomaly-rate", "0.05", "--seed", "11", "--out-dir", str(root),
            ]) == 0
            assert cli.main([
                "train", str(root / "train.csv"),
                "--window", "24", "--neighbors", "2", "--slots", "2",
                "--epochs", "3", "--patience", "3",
                "--embed-dim", "8", "--spatial-dim", "8", "--channels", "2",
                "--temporal-dim", "8", "--hidden-dim", "16", "--seed", "0",
                "--checkpoint", str(root / "model.npz"),
                "--report", str(root / "report.json"),
                "--loss-curve", str(root / "curve.csv"),
            ]) == 0
            assert cli.main([
                "score", str(root / "model.npz"), str(root / "test.csv"),
                "--scores", str(root / "scores.csv"),
                "--metrics", str(root / "metrics.json"),
            ]) == 0
            artifacts.append(
                (
                    (root / "scores.csv").read_bytes(),
                    (root / "metrics.json").read_bytes(),
                )
            )
        assert artifacts[0][0] == artifacts[1][0]
        assert artifacts[0][1] == artifacts[1][1]
        note["detail"] = f"{len(artifacts[0][0])} bytes per score file"
