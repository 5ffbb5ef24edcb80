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


def bin_period(length: int, freq: int) -> int:
    """Period of frequency bin `freq` in a length-`length` series: ceil(T / f)."""
    return -(-length // freq)


def detect_period(series: SeriesMatrix) -> PeriodProfile:
    """Dominant period of a whole (N, T) series.

    Averages the per-sensor DFT magnitudes of bins 1..floor(T/2) over the
    sensors, picks the strongest bin f (ties go to the lower bin, i.e. the
    longer period) and sets period = `bin_period(T, f)`. A flat spectrum falls
    back to period = T with f = 1 as a sentinel and the aperiodic flag set.
    """
    length = series.length
    if length < 4:
        raise DataError(f"need T >= 4 for a spectrum, got T={length}")
    amps = np.abs(np.fft.rfft(series.values, axis=-1))[:, 1 : length // 2 + 1].mean(axis=0)
    if amps.max() <= APERIODIC_EPS:
        return PeriodProfile(amps, 1, length, True)
    freq = int(amps.argmax()) + 1
    return PeriodProfile(amps, freq, bin_period(length, freq))
