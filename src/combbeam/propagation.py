"""Per-element received phases and phasors for comb-illuminated scenes.

Sign convention: with PhaseSign.DELAY the exact model applies the pure
propagation delay, phase = −2π·f·dist/c. Its large-range limit for a plane
wave from direction û (unit vector pointing toward the source) keeps the
element-dependent part +2π·f·(û·x)/c, which is what the far-field model uses;
the two models therefore agree element-to-element as range grows (this
consistency is what pins the far-field sign). PhaseSign.ADVANCE negates the
propagation term in both models and adds the source phase unchanged, so
ADVANCE of a scene is the complex conjugate of DELAY of that scene with every
source's phase_rad negated (of the scene itself only when all phases are 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .geometry import (ArrayGeometry, Scene, Source, Vec3, distance,
                       element_positions_array)
from .waveform import SPEED_OF_LIGHT, CombSpec

__all__ = [
    "PhaseSign",
    "wrap_phase",
    "received_phase_exact",
    "received_phase_farfield",
    "PhasorSet",
    "NoiseSpec",
    "complex_noise",
    "summed_noise",
    "received_phase",
    "element_field",
    "scene_element_phasors",
]


class PhaseSign(Enum):
    """Whether propagation is modeled as a phase delay or its conjugate."""

    DELAY = "delay"
    ADVANCE = "advance"


def wrap_phase(phi: float) -> float:
    """Wrap a phase (rad) into (−π, π]."""
    out = -math.remainder(-phi, 2.0 * math.pi)
    return math.pi if out == -math.pi else out


def _freq_checked(freq_hz):
    """The frequency (Hz, scalar or array) if every value is finite and > 0."""
    if not np.all(np.isfinite(freq_hz) & (np.asarray(freq_hz) > 0)):
        raise ValueError(f"frequency must be > 0, got {freq_hz!r}")
    return freq_hz


def received_phase_exact(source: Source, element_pos: Vec3, freq_hz: float,
                         sign: PhaseSign = PhaseSign.DELAY) -> float:
    """Wrapped phase (rad) of a point source's field at one element.

    Exact spherical model: ±2π·f·distance/c plus the source phase, with −
    for DELAY. The cycle count is reduced with math.remainder before scaling
    to radians, so precision holds even at distances of many thousand
    wavelengths.
    """
    if source.is_farfield:
        raise ValueError(
            "far-field source has no range; use received_phase_farfield"
        )
    f = _freq_checked(freq_hz)
    assert source.position is not None
    cycles = distance(source.position, element_pos) * f / SPEED_OF_LIGHT
    if sign is PhaseSign.DELAY:
        cycles = -cycles
    return wrap_phase(2.0 * math.pi * math.remainder(cycles, 1.0)
                      + source.phase_rad)


def received_phase_farfield(source: Source, element_pos: Vec3, freq_hz: float,
                            sign: PhaseSign = PhaseSign.DELAY) -> float:
    """Wrapped phase (rad) of a plane wave at one element.

    The element-dependent remainder of the delay model: +2π·f·(û·x)/c for
    DELAY (û pointing toward the source), negated for ADVANCE, plus the
    source phase either way. Accepts point sources only when explicitly
    reduced by the caller — pass a far-field Source here.
    """
    if not source.is_farfield:
        raise ValueError(
            "point source has a range; use received_phase_exact"
        )
    f = _freq_checked(freq_hz)
    u, v, w = source.direction_cosines()
    proj = u * element_pos.x + v * element_pos.y + w * element_pos.z
    cycles = proj * f / SPEED_OF_LIGHT
    if sign is PhaseSign.ADVANCE:
        cycles = -cycles
    return wrap_phase(2.0 * math.pi * math.remainder(cycles, 1.0)
                      + source.phase_rad)


@dataclass(frozen=True, eq=False)
class PhasorSet:
    """One scene's element phasors as read-only (E,) arrays over elements
    0..E−1: complex ``amplitudes``, 1-based comb ``tones`` and
    ``baseband_hz`` (tone frequency minus the mixer LO ``f_lo_hz``), plus
    the comb spacing ``delta_f_hz``."""

    amplitudes: np.ndarray
    tones: np.ndarray
    baseband_hz: np.ndarray
    f_lo_hz: float
    delta_f_hz: float

    def __post_init__(self) -> None:
        for name, dtype in (("amplitudes", complex), ("tones", int),
                            ("baseband_hz", float)):
            a = np.array(getattr(self, name), dtype=dtype)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if not (self.amplitudes.ndim == 1 and len(self.amplitudes) > 0
                and self.tones.shape == self.baseband_hz.shape
                == self.amplitudes.shape):
            raise ValueError("PhasorSet needs (E,) arrays of one length E >= 1")
        if not (math.isfinite(self.f_lo_hz) and self.f_lo_hz >= 0):
            raise ValueError(f"f_lo_hz must be >= 0, got {self.f_lo_hz!r}")
        if not (math.isfinite(self.delta_f_hz) and self.delta_f_hz > 0):
            raise ValueError(f"delta_f_hz must be > 0, got {self.delta_f_hz!r}")

    def __len__(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True)
class NoiseSpec:
    """Circular complex white noise: per element per sample,
    w = sigma·(g1 + j·g2)/sqrt(2) with E|w|² = sigma²."""

    sigma: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be >= 0, got {self.sigma!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative int, got {self.seed!r}")


def complex_noise(spec: NoiseSpec, num_elements: int, num_samples: int,
                  trial: int = 0) -> np.ndarray:
    """Deterministic noise draw, shape (num_elements, num_samples).

    Each (seed, trial) pair indexes an independent stream, so Monte-Carlo
    trials are reproducible without sharing state.
    """
    if num_elements < 1 or num_samples < 1:
        raise ValueError("noise array dimensions must be >= 1")
    if spec.sigma == 0.0:
        return np.zeros((num_elements, num_samples), dtype=complex)
    rng = np.random.default_rng((spec.seed, trial))
    g = rng.standard_normal((2, num_elements, num_samples))
    # σ/√2·(g[0] + 1j·g[1]), written part by part with no complex temporaries
    w = np.empty((num_elements, num_samples), dtype=complex)
    scale = spec.sigma / math.sqrt(2.0)
    np.multiply(scale, g[0], out=w.real)
    np.multiply(scale, g[1], out=w.imag)
    return w


def summed_noise(spec: NoiseSpec, num_elements: int, num_samples: int,
                 trial: int = 0) -> np.ndarray:
    """Noise of the element sum, shape (num_samples,).

    The sum of num_elements independent CN(0, sigma²) draws is exactly
    CN(0, num_elements·sigma²), so it is drawn as one stream of that power
    (the (seed, trial) stream of complex_noise at sigma·sqrt(E), one row)
    instead of summing an (E, num_samples) array.
    """
    if num_elements < 1:
        raise ValueError("noise array dimensions must be >= 1")
    spec_sum = replace(spec, sigma=spec.sigma * math.sqrt(num_elements))
    return complex_noise(spec_sum, 1, num_samples, trial)[0]


def received_phase(source: Source, positions: np.ndarray, freq_hz,
                   sign: PhaseSign = PhaseSign.DELAY,
                   farfield: bool = False) -> np.ndarray:
    """Phase (rad, not wrapped) of one source's field at elements
    ``positions`` (E, 3), at one frequency or one per element; shape (E,).

    The array form of received_phase_exact and, with ``farfield``,
    received_phase_farfield, which reduces a point source to the plane wave
    (u, v, +sqrt(1 − u² − v²)) of its direction from the origin.
    """
    f = _freq_checked(np.asarray(freq_hz, dtype=float))
    x, y, z = positions.T
    if farfield:
        u, v, _ = source.direction_cosines()
        u, v, w = Source.farfield(u, v).direction_cosines()
        cycles = (u * x + v * y + w * z) * f / SPEED_OF_LIGHT
    elif source.is_farfield:
        raise ValueError("far-field source has no range; use farfield=True")
    else:
        p = source.position
        assert p is not None
        dist = np.hypot(np.hypot(x - p.x, y - p.y), z - p.z)
        cycles = -dist * f / SPEED_OF_LIGHT      # delay
    if sign is PhaseSign.ADVANCE:
        cycles = -cycles
    return 2.0 * np.pi * (cycles - np.rint(cycles)) + source.phase_rad


def element_field(scene: Scene, positions: np.ndarray, freq_hz,
                  sign: PhaseSign = PhaseSign.DELAY) -> np.ndarray:
    """Coherent sum Σ a_s·exp(j·φ_s) over the scene's sources of nonzero
    amplitude at each element, shape (E,); see received_phase."""
    field = np.zeros(len(positions), dtype=complex)
    for src in scene.sources:
        if src.amplitude != 0.0:
            phi = received_phase(src, positions, freq_hz, sign,
                                 scene.model == "far-field")
            field += src.amplitude * np.exp(1j * phi)
    return field


def _tuned_tones(geometry: ArrayGeometry, comb: CombSpec) -> np.ndarray:
    """The 1-based comb tone of each element (see scene_element_phasors);
    ValueError, naming the field, for an array the comb cannot tune."""
    if geometry.kind != "linear":
        raise ValueError("array.kind must be 'linear' for tone tuning, "
                         f"got {geometry.kind!r}")
    if geometry.m != comb.num_tones:
        raise ValueError(f"array.m ({geometry.m}) must equal "
                         f"comb.num_tones ({comb.num_tones})")
    tones = np.arange(1, comb.num_tones + 1)
    return tones[::-1] if geometry.tuning_order == "descending" else tones


def scene_element_phasors(scene: Scene, geometry: ArrayGeometry,
                          comb: CombSpec, f_lo_hz: float,
                          sign: PhaseSign = PhaseSign.DELAY) -> PhasorSet:
    """Superpose all scene sources into one phasor per element of the
    comb-tuned array.

    The array must be linear with one element per comb tone (array.m ==
    comb.num_tones); otherwise ValueError. Element e listens only at tone
    e+1, or tone N−e under ``geometry.tuning_order == "descending"``. Each
    source contributes comb.amplitude·source.amplitude at the model's
    received phase; contributions add coherently. ``f_lo_hz`` sets the
    post-mixer baseband frequency of each phasor; the amplitudes do not
    depend on it, and beamform_rf gives one RF trace at any LO.
    """
    tones = _tuned_tones(geometry, comb)
    freqs = comb.tone_frequencies[tones - 1]
    amps = _phasor_stack((scene,), element_positions_array(geometry), freqs,
                         sign, comb.amplitude)
    return PhasorSet(amps[0], tones, freqs - f_lo_hz, f_lo_hz,
                     comb.delta_f_hz)


def _phasor_stack(scenes, positions: np.ndarray, freqs_hz: np.ndarray,
                  sign: PhaseSign, amplitude: float) -> np.ndarray:
    """scene_element_phasors' amplitudes for K scenes on one tuned array:
    the (K, E) coherent sums ``amplitude``·element_field, element e at
    ``positions[e]`` listening at ``freqs_hz[e]``."""
    return amplitude * np.array(
        [element_field(scene, positions, freqs_hz, sign) for scene in scenes])
