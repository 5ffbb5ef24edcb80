"""Score calibration, smoothing, thresholds, and detection metrics."""

import numpy as np
import pytest

from pgad.checkpoint import checkpoint_from_result
from pgad.data import generate_synthetic
from pgad.errors import ConfigError, DataError
from pgad.scoring import (
    IQR_EPS,
    ScoreCalibration,
    aggregate_scores,
    best_f1_threshold,
    evaluate,
    moving_average,
    normalize_scores,
    point_adjust_predictions,
    score_series,
    sensor_errors,
    validation_threshold,
)
from pgad.training import TrainConfig, train

from helpers import best_f1_scan, point_adjust_loop


class TestSensorErrors:
    def test_perfect_prediction(self):
        np.testing.assert_array_equal(
            sensor_errors(np.ones((3, 2)), np.ones((3, 2))), 0.0
        )

    def test_absolute_difference(self):
        out = sensor_errors(np.array([[3.0, 2.0]]), np.array([[5.0, -1.0]]))
        np.testing.assert_array_equal(out, [[2.0, 3.0]])


class TestCalibration:
    def test_hand_quantiles(self):
        calib = ScoreCalibration.from_errors(np.arange(1.0, 6.0)[:, None])
        assert calib.median[0] == pytest.approx(3.0, abs=1e-12)
        assert calib.iqr[0] == pytest.approx(2.0, abs=1e-12)

    def test_spike_robustness(self):
        calib = ScoreCalibration.from_errors(np.array([0.0, 0.0, 0.0, 10.0])[:, None])
        assert calib.median[0] == pytest.approx(0.0, abs=1e-12)
        assert calib.iqr[0] == pytest.approx(2.5, abs=1e-12)

    def test_constant_errors_zero_iqr(self):
        calib = ScoreCalibration.from_errors(np.full((6, 2), 1.5))
        np.testing.assert_allclose(calib.iqr, 0.0, atol=1e-12)

    def test_per_sensor_columns(self):
        errors = np.column_stack([np.arange(1.0, 6.0), np.arange(10.0, 60.0, 10.0)])
        calib = ScoreCalibration.from_errors(errors)
        np.testing.assert_allclose(calib.median, [3.0, 30.0], atol=1e-12)
        np.testing.assert_allclose(calib.iqr, [2.0, 20.0], atol=1e-12)

    def test_too_few_rows_rejected(self):
        with pytest.raises(DataError):
            ScoreCalibration.from_errors(np.ones((3, 2)))

    def test_wrong_rank_rejected(self):
        with pytest.raises(DataError):
            ScoreCalibration.from_errors(np.ones(8))


class TestNormalizeScores:
    def calib(self, median, iqr):
        return ScoreCalibration(
            median=np.asarray(median, dtype=np.float64),
            iqr=np.asarray(iqr, dtype=np.float64),
        )

    def test_error_at_median_scores_zero(self):
        out = normalize_scores(np.array([[3.0]]), self.calib([3.0], [2.0]))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_one_iqr_above_median(self):
        out = normalize_scores(np.array([[5.0]]), self.calib([3.0], [2.0]))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-5)

    def test_zero_iqr_guard(self):
        out = normalize_scores(np.array([[4.0]]), self.calib([3.0], [0.0]))
        assert out[0, 0] == pytest.approx(1.0 / IQR_EPS, rel=1e-12)

    def test_scale_equivariance_with_recalibration(self):
        rng = np.random.default_rng(0)
        val = rng.uniform(0.5, 2.0, size=(50, 3))
        test = rng.uniform(0.5, 2.0, size=(20, 3))
        base = normalize_scores(test, ScoreCalibration.from_errors(val))
        c = 7.3
        scaled = normalize_scores(c * test, ScoreCalibration.from_errors(c * val))
        # equivariance is approximate: the IQR stabilizer does not scale
        np.testing.assert_allclose(scaled, base, atol=1e-5)


class TestAggregationAndSmoothing:
    def test_max_and_argmax(self):
        scores, top = aggregate_scores(np.array([[0.5, 2.0, 1.0]]))
        assert scores[0] == 2.0
        assert top[0] == 1

    def test_dominance_over_every_sensor(self):
        rng = np.random.default_rng(1)
        sensor_scores = rng.normal(size=(40, 5))
        scores, _ = aggregate_scores(sensor_scores)
        assert (scores[:, None] >= sensor_scores).all()

    def test_identity_window(self):
        x = np.array([3.0, 1.0, 4.0])
        np.testing.assert_array_equal(moving_average(x, 1), x)

    def test_hand_fixture_exact(self):
        out = moving_average(np.array([0.0, 0.0, 3.0, 0.0, 0.0]), 3)
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 1.0, 1.0])

    def test_prefix_averages_what_exists(self):
        out = moving_average(np.array([2.0, 4.0, 6.0, 8.0]), 4)
        np.testing.assert_allclose(out, [2.0, 3.0, 4.0, 5.0], atol=1e-12)

    def test_bounded_by_input_range(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=100)
        for w in (1, 3, 7):
            sm = moving_average(x, w)
            assert sm.min() >= x.min() - 1e-12
            assert sm.max() <= x.max() + 1e-12

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            moving_average(np.ones(5), 0)


class TestEvaluate:
    def test_confusion_hand_count(self):
        report = evaluate([1, 1, 0, 0], [1, 0, 1, 0])
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(0.5)
        assert report.f1 == pytest.approx(0.5)
        assert (report.true_positives, report.false_positives,
                report.false_negatives) == (1, 1, 1)

    def test_perfect_prediction(self):
        report = evaluate([0, 1, 1, 0], [0, 1, 1, 0])
        assert report.f1 == 1.0

    def test_empty_predictions_zero_not_nan(self):
        report = evaluate([0, 0, 0], [0, 1, 0])
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            evaluate([1, 0], [1, 0, 1])

    def test_threshold_monotonicity_of_recall(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=300)
        truth = rng.random(300) < 0.2
        last_recall = 1.1
        last_negatives = -1
        for thr in np.linspace(scores.min() - 1, scores.max() + 1, 25):
            pred = scores > thr
            report = evaluate(pred, truth)
            assert report.recall <= last_recall + 1e-12
            negatives = int((~pred).sum())
            assert negatives >= last_negatives
            last_recall = report.recall
            last_negatives = negatives


def random_traces(seed: int, count: int):
    """Seeded (scores, truth) pairs for exactness checks. Scores are rounded
    to 0-2 decimals so thresholds tie; truth cycles through all-negative,
    all-positive and random segments, some touching either end; n = 1 is
    drawn too."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = 1 if case % 7 == 0 else int(rng.integers(2, 200))
        scores = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
        if case % 5 == 0:
            truth = np.zeros(n, dtype=int)
        elif case % 5 == 1:
            truth = np.ones(n, dtype=int)
        else:
            # runs: the label flips at each step with a per-case probability
            flips = rng.random(n) < rng.uniform(0.05, 0.5)
            truth = (np.cumsum(flips) + int(rng.integers(2))) % 2
            if case % 5 == 3:
                truth[0] = truth[-1] = 1
        yield scores, truth


class TestPointAdjust:
    def test_segment_credited_by_single_hit(self):
        truth = np.array([0, 1, 1, 1, 0])
        pred = np.array([0, 0, 1, 0, 0])
        adjusted = point_adjust_predictions(pred, truth)
        np.testing.assert_array_equal(adjusted, [0, 1, 1, 1, 0])
        report = evaluate(pred, truth, point_adjust=True)
        assert report.recall == 1.0

    def test_missed_segment_stays_missed(self):
        truth = np.array([1, 1, 0, 1, 1])
        pred = np.array([1, 0, 0, 0, 0])
        adjusted = point_adjust_predictions(pred, truth)
        np.testing.assert_array_equal(adjusted, [1, 1, 0, 0, 0])

    def test_false_positives_unchanged(self):
        truth = np.zeros(6, dtype=int)
        pred = np.array([0, 1, 0, 0, 1, 0])
        np.testing.assert_array_equal(point_adjust_predictions(pred, truth), pred)

    def test_dominance_on_random_traces(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(10, 80))
            truth = (rng.random(n) < 0.25).astype(int)
            pred = (rng.random(n) < 0.3).astype(int)
            plain = evaluate(pred, truth)
            adjusted = evaluate(pred, truth, point_adjust=True)
            assert adjusted.f1 >= plain.f1 - 1e-12

    def test_matches_segment_loop(self):
        for scores, truth in random_traces(6, 300):
            pred = scores > np.median(scores)
            np.testing.assert_array_equal(
                point_adjust_predictions(pred, truth), point_adjust_loop(pred, truth)
            )


class TestBestF1Threshold:
    def test_toy_trace_hand_enumeration(self):
        scores = np.array([0.1, 0.9, 0.8, 0.2, 0.7, 0.3])
        truth = np.array([0, 1, 1, 0, 1, 0])
        thr, report = best_f1_threshold(scores, truth)
        # labels are score > thr, so thr in [0.3, 0.7) flags exactly the three
        assert thr == pytest.approx(0.3)
        assert report.f1 == 1.0

    def test_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=40)
        truth = (rng.random(40) < 0.3).astype(int)
        thr, report = best_f1_threshold(scores, truth)
        best = max(
            evaluate(scores > t, truth).f1 for t in np.unique(scores)
        )
        assert report.f1 == pytest.approx(best)

    def test_tie_takes_lowest_threshold(self):
        scores = np.array([0.0, 1.0, 2.0, 3.0])
        truth = np.array([0, 0, 0, 1])
        thr, report = best_f1_threshold(scores, truth)
        assert report.f1 == 1.0
        assert thr == pytest.approx(2.0)

    @pytest.mark.parametrize("point_adjust", [False, True])
    def test_equals_the_evaluate_loop(self, point_adjust):
        for scores, truth in random_traces(7 + point_adjust, 300):
            expected = best_f1_scan(scores, truth, point_adjust=point_adjust)
            assert best_f1_threshold(scores, truth, point_adjust=point_adjust) == expected

    @pytest.mark.parametrize("point_adjust", [False, True])
    def test_length_mismatch_rejected(self, point_adjust):
        with pytest.raises(DataError, match="length"):
            best_f1_threshold(np.arange(5.0), np.array([0, 1, 1]),
                              point_adjust=point_adjust)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        scores = np.array([0.1, 0.9, bad, 0.2])
        with pytest.raises(DataError, match="finite"):
            best_f1_threshold(scores, np.array([0, 1, 1, 0]))


@pytest.fixture(scope="module")
def pipeline():
    series = generate_synthetic(4, 600, 24, 0.05, seed=11)
    train_part = series.slice_time(0, 300)
    train_part.labels = None
    test_part = series.slice_time(300, 600)
    config = TrainConfig(
        window=24, neighbors=2, slots=2, epochs=3, patience=3, batch_size=32,
        embed_dim=8, spatial_dim=8, channels=2, temporal_dim=8, hidden_dim=16,
    )
    result = train(train_part, config)
    ckpt = checkpoint_from_result(result, series.sensor_names)
    return ckpt, test_part


class TestScoreSeries:
    def test_trace_shapes_and_span(self, pipeline):
        ckpt, test_part = pipeline
        trace, report = score_series(ckpt, test_part)
        n = test_part.length - ckpt.config.window
        assert trace.t0 == ckpt.config.window
        assert trace.scores.shape == (n,)
        assert trace.smoothed.shape == (n,)
        assert trace.labels_pred.shape == (n,)
        assert trace.labels_true.shape == (n,)
        assert report is not None

    def test_scores_are_max_over_sensors(self, pipeline):
        ckpt, test_part = pipeline
        trace, _ = score_series(ckpt, test_part)
        np.testing.assert_array_equal(trace.scores, trace.sensor_scores.max(axis=1))
        np.testing.assert_array_equal(
            trace.top_sensor, trace.sensor_scores.argmax(axis=1)
        )

    def test_labels_follow_threshold_strictly(self, pipeline):
        ckpt, test_part = pipeline
        trace, _ = score_series(ckpt, test_part, threshold_mode="fixed", fixed_value=1.0)
        np.testing.assert_array_equal(trace.labels_pred, trace.smoothed > 1.0)

    def test_max_validation_threshold_source(self, pipeline):
        ckpt, test_part = pipeline
        trace, _ = score_series(ckpt, test_part, ma_window=3)
        assert trace.threshold == validation_threshold(ckpt, 3)

    def test_fixed_mode_needs_value(self, pipeline):
        ckpt, test_part = pipeline
        with pytest.raises(ConfigError):
            score_series(ckpt, test_part, threshold_mode="fixed")

    def test_unknown_mode_rejected(self, pipeline):
        ckpt, test_part = pipeline
        with pytest.raises(ConfigError):
            score_series(ckpt, test_part, threshold_mode="quantile")

    def test_best_f1_needs_labels(self, pipeline):
        ckpt, test_part = pipeline
        unlabeled = test_part.slice_time(0, test_part.length)
        unlabeled.labels = None
        with pytest.raises(ConfigError):
            score_series(ckpt, unlabeled, threshold_mode="best_f1")

    def test_sensor_count_mismatch_rejected(self, pipeline):
        ckpt, test_part = pipeline
        smaller = generate_synthetic(3, 200, 24, 0.0, seed=0)
        with pytest.raises(DataError):
            score_series(ckpt, smaller)

    def test_best_f1_beats_other_modes(self, pipeline):
        ckpt, test_part = pipeline
        _, best = score_series(ckpt, test_part, threshold_mode="best_f1")
        _, maxval = score_series(ckpt, test_part, threshold_mode="max_validation")
        assert best.f1 >= maxval.f1 - 1e-12

    def test_point_adjust_reported(self, pipeline):
        ckpt, test_part = pipeline
        _, plain = score_series(ckpt, test_part)
        _, adjusted = score_series(ckpt, test_part, point_adjust=True)
        assert adjusted.point_adjust
        assert adjusted.f1 >= plain.f1 - 1e-12
