"""Frequency-comb waveform definition and spectral checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "CombSpec",
    "wavelength",
    "comb_value",
    "comb_spectrum_lines",
]

SPEED_OF_LIGHT = 299792458.0  # m/s, exact by definition


@dataclass(frozen=True)
class CombSpec:
    """Equally spaced frequency comb.

    Tone n (1-based, n = 1..num_tones) sits at f0_hz + n·delta_f_hz, all tones
    share the same linear ``amplitude`` (> 0). ``duration_s`` is the observation
    window; the comb envelope repeats with period 1/delta_f_hz.
    """

    f0_hz: float
    delta_f_hz: float
    num_tones: int
    duration_s: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta_f_hz) and self.delta_f_hz > 0):
            raise ValueError(f"delta_f_hz must be > 0, got {self.delta_f_hz!r}")
        if not isinstance(self.num_tones, int) or self.num_tones < 1:
            raise ValueError(f"num_tones must be >= 1, got {self.num_tones!r}")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration_s must be > 0, got {self.duration_s!r}")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError(f"amplitude must be > 0, got {self.amplitude!r}")
        if not math.isfinite(self.f0_hz) or self.f0_hz + self.delta_f_hz <= 0:
            raise ValueError(
                "lowest tone frequency f0_hz + delta_f_hz must be positive"
            )

    @property
    def period_s(self) -> float:
        """Envelope repetition period, 1/delta_f_hz."""
        return 1.0 / self.delta_f_hz

    @property
    def tone_frequencies(self) -> np.ndarray:
        """All tone frequencies (Hz), ascending, shape (num_tones,)."""
        return self.f0_hz + self.delta_f_hz * np.arange(1, self.num_tones + 1)

    @property
    def center_frequency_hz(self) -> float:
        """Mean tone frequency (midpoint of the comb)."""
        return self.f0_hz + 0.5 * (self.num_tones + 1) * self.delta_f_hz


def wavelength(freq_hz: float) -> float:
    """Free-space wavelength (m) for a positive frequency."""
    if not (math.isfinite(freq_hz) and freq_hz > 0):
        raise ValueError(f"frequency must be > 0, got {freq_hz!r}")
    return SPEED_OF_LIGHT / freq_hz


def comb_value(comb: CombSpec, t) -> np.ndarray:
    """Real comb waveform A·Σ_n cos(2π f_n t), vectorized over t."""
    t = np.asarray(t, dtype=float)
    f = comb.tone_frequencies
    return comb.amplitude * np.cos(
        2.0 * np.pi * f[..., :] * t[..., None]
    ).sum(axis=-1)


def comb_spectrum_lines(comb: CombSpec, sample_rate_hz: float,
                        num_samples: int) -> list[tuple[float, float]]:
    """Locate the comb's spectral lines from a sampled record.

    Samples comb_value on ``num_samples`` points at ``sample_rate_hz``, takes
    an rFFT, and returns the ``num_tones`` strongest bins as (frequency_hz,
    magnitude) sorted by frequency. Magnitude is normalized so an isolated
    full-amplitude line reads ≈ comb.amplitude. The sample rate must exceed
    twice the highest tone.
    """
    f_max = comb.tone_frequencies[-1]
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 2.0 * f_max):
        raise ValueError(
            f"sample_rate_hz must exceed twice the highest tone "
            f"({2.0 * f_max:g} Hz), got {sample_rate_hz!r}"
        )
    if not isinstance(num_samples, int) or num_samples < 2 * comb.num_tones:
        raise ValueError(
            f"num_samples must be an int >= {2 * comb.num_tones}, "
            f"got {num_samples!r}"
        )
    t = np.arange(num_samples) / sample_rate_hz
    spectrum = np.fft.rfft(comb_value(comb, t))
    freqs = np.fft.rfftfreq(num_samples, d=1.0 / sample_rate_hz)
    mags = np.abs(spectrum) * 2.0 / num_samples
    order = np.argsort(mags)[::-1][: comb.num_tones]
    lines = sorted((float(freqs[i]), float(mags[i])) for i in order)
    return lines
