"""Dominant-period detection against a brute-force DFT oracle."""

import numpy as np
import pytest

from pgad.errors import DataError
from pgad.period import bin_period, detect_period

from helpers import brute_spectrum, series_of


def sinusoid(period: float, length: int, amp: float = 1.0, phase: float = 0.0):
    t = np.arange(length)
    return amp * np.sin(2.0 * np.pi * t / period + phase)


class TestAmplitudeSpectrum:
    def test_matches_brute_force_dft(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            length = int(rng.integers(8, 200))
            series = series_of(rng.normal(size=(n, length)))
            fast = detect_period(series).amplitudes
            slow = brute_spectrum(series.values)
            assert fast.shape == slow.shape
            np.testing.assert_allclose(fast, slow, atol=1e-9)

    def test_pure_tone_peaks_at_its_bin(self):
        series = series_of(sinusoid(24, 240)[None, :])
        spec = detect_period(series).amplitudes
        peak_bin = int(np.argmax(spec)) + 1
        assert peak_bin == 10
        others = np.delete(spec, peak_bin - 1)
        assert others.max() <= 1e-9 * spec[peak_bin - 1]

    def test_constant_series_is_flat_zero(self):
        series = series_of(np.full((2, 64), 3.5))
        spec = detect_period(series).amplitudes
        np.testing.assert_allclose(spec, 0.0, atol=1e-9)

    def test_amplitudes_average_not_signals(self):
        base = sinusoid(24, 240)
        series = series_of(np.vstack([base, -base]))
        spec = detect_period(series).amplitudes
        assert int(np.argmax(spec)) + 1 == 10
        assert spec[9] > 1.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(2, 96))
        shifted = np.roll(values, 17, axis=1)
        a = detect_period(series_of(values)).amplitudes
        b = detect_period(series_of(shifted)).amplitudes
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            detect_period(series_of(np.zeros((1, 3))))


class TestDetectPeriod:
    def test_pure_tone_period(self):
        profile = detect_period(series_of(sinusoid(24, 240)[None, :]))
        assert profile.dominant_frequency == 10
        assert profile.period == 24
        assert not profile.aperiodic

    def test_larger_amplitude_component_wins(self):
        mix = 0.3 * sinusoid(60, 240) + 1.0 * sinusoid(12, 240)
        profile = detect_period(series_of(mix[None, :]))
        assert profile.dominant_frequency == 20
        assert profile.period == 12

    def test_constant_series_flagged_aperiodic(self):
        profile = detect_period(series_of(np.full((1, 48), 2.0)))
        assert profile.aperiodic
        assert profile.period == 48
        assert profile.dominant_frequency == 1

    @pytest.mark.parametrize("period", [7, 12, 24, 60])
    def test_exact_recovery_of_common_periods(self, period):
        length = 840
        profile = detect_period(series_of(sinusoid(period, length)[None, :]))
        assert profile.period == period
        assert profile.dominant_frequency == length // period

    def test_ceiling_arithmetic(self):
        profile = detect_period(series_of(sinusoid(24, 240)[None, :]))
        f = profile.dominant_frequency
        assert profile.period == -(-240 // f) == bin_period(240, f)
        assert bin_period(2405, 100) == 25

    def test_top_bins_ordered_by_amplitude(self):
        mix = 1.0 * sinusoid(12, 240) + 0.5 * sinusoid(24, 240)
        profile = detect_period(series_of(mix[None, :]))
        top = profile.top_bins(2)
        assert [b for b, _ in top] == [20, 10]
        amps = [a for _, a in top]
        assert amps[0] >= amps[1]

    def test_period_bounded_by_length(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            length = int(rng.integers(8, 128))
            series = series_of(rng.normal(size=(1, length)))
            profile = detect_period(series)
            assert 1 <= profile.period <= length
