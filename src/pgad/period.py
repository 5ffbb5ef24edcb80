"""Dominant-period detection from the averaged DFT amplitude spectrum."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SeriesMatrix
from .errors import DataError

# Spectrum maxima at or below this are treated as "no periodic content".
APERIODIC_EPS = 1e-12


@dataclass(frozen=True)
class PeriodProfile:
    """Averaged amplitude spectrum plus the dominant frequency bin.

    ``amplitudes[i]`` is the magnitude at frequency bin i + 1; the DC bin
    is excluded. ``period`` is ceil(T / dominant_frequency).
    """

    amplitudes: np.ndarray
    dominant_frequency: int
    period: int
    aperiodic: bool = False

    def top_bins(self, count: int = 5) -> list[tuple[int, float]]:
        """(frequency bin, amplitude) pairs, strongest first."""
        order = np.argsort(-self.amplitudes, kind="stable")[:count]
        return [(int(i) + 1, float(self.amplitudes[i])) for i in order]


def dominant_periods(values: np.ndarray):
    """Spectrum and dominant period of each (..., N, T) block of series.

    Averages the per-sensor DFT magnitudes of bins 1..floor(T/2) over the
    N axis, picks the strongest bin f (ties go to the lower bin, i.e. the
    longer period) and sets period = ceil(T / f). A flat spectrum falls
    back to period = T with f = 1 as a sentinel and the aperiodic flag set.
    Returns (amplitudes, dominant_frequency, period, aperiodic) arrays.
    """
    length = values.shape[-1]
    amps = np.abs(np.fft.rfft(values, axis=-1))[..., 1 : length // 2 + 1].mean(axis=-2)
    aperiodic = amps.max(axis=-1) <= APERIODIC_EPS
    freq = np.where(aperiodic, 1, amps.argmax(axis=-1) + 1)
    period = np.where(aperiodic, length, (length + freq - 1) // freq)
    return amps, freq, period, aperiodic


def amplitude_spectrum(series: SeriesMatrix) -> np.ndarray:
    """Per-sensor DFT magnitudes for bins 1..floor(T/2), averaged over sensors."""
    return detect_period(series).amplitudes


def detect_period(series: SeriesMatrix) -> PeriodProfile:
    """Dominant period of a whole series; see `dominant_periods`."""
    if series.length < 4:
        raise DataError(f"need T >= 4 for a spectrum, got T={series.length}")
    amps, freq, period, aperiodic = dominant_periods(series.values)
    return PeriodProfile(amps, int(freq), int(period), bool(aperiodic))
