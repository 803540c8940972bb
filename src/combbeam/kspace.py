"""Comb-tuned k-space beamforming: envelope synthesis, axis calibration,
peak finding, and the end-to-end estimation pipeline.

Each array element is tuned to one comb tone; summing the mixed element
outputs produces a time-domain envelope whose period is 1/Δf and whose peak
position encodes the source direction cosine u. Calibration maps envelope
time to u; peaks then land at u = sin(azimuth).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (ArrayGeometry, Scene, Source, Vec3,
                       element_positions_array, uv_to_direction)
from .propagation import (
    NoiseSpec,
    PhaseSign,
    PhasorSet,
    _phasor_stack,
    _tuned_tones,
    summed_noise,
)
from .waveform import CombSpec

__all__ = [
    "AxisCalibration",
    "wrap_unit",
    "time_to_u",
    "u_to_azimuth",
    "default_time_grid",
    "complex_field",
    "whole_periods",
    "periodic_field",
    "beamform_envelope",
    "beamform_rf",
    "probe_scene",
    "calibrate_axis",
    "Peak",
    "find_peaks",
    "BeamformOutput",
    "SimConfig",
    "run_beamform",
    "estimate_azimuths",
]


def wrap_unit(x):
    """Wrap into the half-open interval (−1, 1]."""
    return 1.0 - np.mod(1.0 - np.asarray(x, dtype=float), 2.0)


@dataclass(frozen=True)
class AxisCalibration:
    """Mapping from envelope time to direction cosine:
    u(t) = wrap(slope_sign · 2·delta_f_hz · (t − t0_s)) into (−1, 1]."""

    slope_sign: int
    t0_s: float
    delta_f_hz: float

    def __post_init__(self) -> None:
        if self.slope_sign not in (-1, 1):
            raise ValueError(f"slope_sign must be ±1, got {self.slope_sign!r}")
        if not (math.isfinite(self.delta_f_hz) and self.delta_f_hz > 0):
            raise ValueError(f"delta_f_hz must be > 0, got {self.delta_f_hz!r}")
        period = 1.0 / self.delta_f_hz
        if not (0.0 <= self.t0_s < period):
            raise ValueError(
                f"t0_s must lie in [0, {period!r}), got {self.t0_s!r}"
            )


def time_to_u(calibration: AxisCalibration, t):
    """Direction cosine(s) for envelope time(s), wrapped into (−1, 1]."""
    t = np.asarray(t, dtype=float)
    x = calibration.slope_sign * 2.0 * calibration.delta_f_hz * (t - calibration.t0_s)
    out = wrap_unit(x)
    return float(out) if out.ndim == 0 else out


def u_to_azimuth(u: float) -> float:
    """Azimuth (degrees) for a direction cosine in [−1, 1]."""
    if not math.isfinite(u) or abs(u) > 1.0 + 1e-9:
        raise ValueError(f"direction cosine must be in [-1, 1], got {u!r}")
    return math.degrees(math.asin(min(1.0, max(-1.0, u))))


def default_time_grid(comb: CombSpec, grid_points: int = 4096) -> np.ndarray:
    """Uniform grid over [0, duration): duration·k/grid_points."""
    if not isinstance(grid_points, int) or grid_points < 2:
        raise ValueError(f"grid_points must be an int >= 2, got {grid_points!r}")
    return np.arange(grid_points) * (comb.duration_s / grid_points)


def complex_field(phasors: PhasorSet, time_s) -> np.ndarray:
    """Coherent element sum Σ_e a_e·exp(j·2π·ν_e·t) at each time sample.

    Dense element × sample evaluation on any time grid: the oracle of
    brute_force_peak and the tests. The pipeline uses periodic_field.
    """
    t = np.asarray(time_s, dtype=float)
    if t.size == 0:
        raise ValueError("time grid is empty")
    amps, nu = phasors.amplitudes, phasors.baseband_hz
    return (amps[None, :] * np.exp(2j * np.pi * nu[None, :] * t[:, None])).sum(axis=1)


def _turns(cycles) -> np.ndarray:
    """exp(j·2π·c), with c reduced to [−0.5, 0.5] cycles before scaling."""
    c = np.asarray(cycles, dtype=float)
    return np.exp(2j * np.pi * (c - np.rint(c)))


def whole_periods(span_s: float, delta_f_hz: float) -> int:
    """Number of envelope periods 1/Δf in a time span; ValueError unless it
    is a whole number ≥ 1 (to 1e-9 of a period per period)."""
    periods = span_s * delta_f_hz
    whole = round(periods) if math.isfinite(periods) else 0
    if whole < 1 or not math.isclose(periods, whole, rel_tol=1e-9):
        raise ValueError(
            f"time span {span_s!r} s covers {periods!r} envelope periods of "
            f"1/Δf = {1.0 / delta_f_hz!r} s; it must be a whole number >= 1"
        )
    return whole


def _lattice_steps(baseband_hz: np.ndarray, delta_f_hz: float):
    """(ν_min, m): the lowest baseband tone and each tone's whole number of
    Δf steps above it; ValueError for tones off the Δf lattice, as when
    rounding in f − LO at a huge mixer LO loses the spacing."""
    nu_min = float(baseband_hz.min())
    steps = (baseband_hz - nu_min) / delta_f_hz
    m = np.rint(steps)
    if np.abs(steps - m).max() > 1e-6:
        raise ValueError("baseband tones are not spaced by multiples of Δf")
    return nu_min, m


# Shortest row of the split inverse FFT in _baseband_field. A G-point grid
# runs as R rows of G/R points, R the largest power of two that leaves rows
# of at least this many. Transformed in place as rows of this length, a
# 16384-point grid needs no fresh memory pages per call, where one
# out-of-place G-point transform faults in its output and scratch each time.
_ROW_POINTS = 4096


def _fft_bins(m: np.ndarray, periods: int, grid_points: int):
    """(bins, twiddles) of _baseband_field for tones m_e whole Δf steps
    above ν_min on a G-point grid of P periods: bin b_e = (m_e·P) mod G
    and the (R, E) row twiddles exp(j2π·((b_e·r) mod G)/G), r < R (see
    _ROW_POINTS; R = 1 below 8192 points and for odd G)."""
    rows = 1
    while (grid_points % (2 * rows) == 0
           and grid_points // (2 * rows) >= _ROW_POINTS):
        rows *= 2
    b = (m.astype(np.int64) * periods) % grid_points
    return b, _turns(b * np.arange(rows)[:, None] % grid_points / grid_points)


def _baseband_field(amplitudes: np.ndarray, bins: np.ndarray,
                    twiddles: np.ndarray, grid_points: int):
    """For each row c of the (K, E) ``amplitudes``, in order, an (L, R)
    array whose ravel is Σ_e c_e·exp(j2π·b_e·k/G), k < G, with ``bins``
    and ``twiddles`` from _fft_bins: periodic_field without its carrier
    on the grid below (c = a on default_time_grid, where t_0 = 0).

    The tones sit on the Δf lattice, ν_e = ν_min + m_e·Δf. On the grid
    t_k = t_0 + k·dt (G points spanning P = Δf·G·dt whole periods)
    exp(j2π·m_e·Δf·k·dt) = exp(j2π·b_e·k/G) with FFT bin b_e = (m_e·P) mod G,
    so each c_e = a_e·exp(j2π(ν_e − ν_min)t_0) lands in one bin (bins may
    collide) of a G-point inverse FFT. That transform runs as R rows of
    L = G/R points (Bailey's four-step split): sample k = r + R·q is
    Σ_e c_e·exp(j2π·b_e·r/G)·exp(j2π·(b_e mod L)·q/L), so row r holds
    each c_e times its exact twiddle exp(j2π·((b_e·r) mod G)/G) in column
    b_e mod L, and one in-place L-point inverse FFT per row gives samples
    r, r + R, r + 2R, ... The K fields are transformed in turn in one
    reused (R, L) block, so a field is valid only until the next is drawn.
    K fields then take one field's memory: a (K, R, L) array made
    16384-point estimates fault in fresh pages on every call.
    """
    rows = len(twiddles)
    cols = grid_points // rows
    r = np.arange(rows)[:, None]
    c = bins % cols
    a = np.empty((rows, cols), dtype=complex)
    for coef in amplitudes[:, None, :] * twiddles:
        a.fill(0.0)
        np.add.at(a, (r, c), coef)
        np.fft.ifft(a, axis=1, norm="forward", out=a)
        yield a.T


def _grid_field(phasors: PhasorSet, time_s):
    """(t, fields, ν_min): _baseband_field of one PhasorSet on a caller's
    grid, Σ_e a_e·exp(j2π(ν_e − ν_min)t) — periodic_field without its
    carrier. Raises ValueError for a grid that is not uniform, does not
    span whole periods, or tones off the Δf lattice."""
    t = np.asarray(time_s, dtype=float)
    g = t.size
    if t.ndim != 1 or g < 2:
        raise ValueError("time grid needs at least 2 samples")
    dt = (float(t[-1]) - float(t[0])) / (g - 1)
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("time grid must increase")
    off = np.arange(g, dtype=float)
    off *= dt
    off += t[0]
    np.subtract(t, off, out=off)
    if np.abs(off, out=off).max() > 1e-9 * g * dt:
        raise ValueError("time grid is not uniform")
    periods = whole_periods(g * dt, phasors.delta_f_hz)
    nu = phasors.baseband_hz
    nu_min, m = _lattice_steps(nu, phasors.delta_f_hz)
    c = phasors.amplitudes * _turns((nu - nu_min) * t[0])
    return t, _baseband_field(c[None], *_fft_bins(m, periods, g), g), nu_min


def _carried(field: np.ndarray, t: np.ndarray, nu_min: float) -> np.ndarray:
    """One field of _baseband_field in sample order, times (in place where
    it can) the unit-modulus mixer carrier exp(j2π·ν_min·t)."""
    field = field.ravel()
    field *= _turns(nu_min * t)
    return field


def periodic_field(phasors: PhasorSet, time_s) -> np.ndarray:
    """Σ_e a_e·exp(j2πν_e t) on a uniform grid of whole envelope periods,
    by the inverse FFT of _baseband_field.

    The FFT gives the sum relative to the lowest tone, and the common
    factor exp(j2π·ν_min·t_k) (_carried, as in the noisy _envelope)
    restores the absolute phase. Agrees with complex_field to rounding.
    snr_gain reads the same field on its design point's grid
    (_scene_field). Raises the ValueErrors of _grid_field.
    """
    t, fields, nu_min = _grid_field(phasors, time_s)
    return _carried(next(fields), t, nu_min)


def _envelope(field: np.ndarray, t: np.ndarray, nu_min: float,
              num_elements: int, noise: NoiseSpec | None,
              trial: int) -> np.ndarray:
    """The (G,) envelope of one field of _baseband_field: its modulus,
    without the carrier the modulus discards, or with ``noise``
    |_carried(field) + summed_noise for (noise.seed, trial)|."""
    if noise is not None and noise.sigma > 0:
        return np.abs(_carried(field, t, nu_min)
                      + summed_noise(noise, num_elements, t.size, trial))
    return np.abs(field, out=np.empty(field.shape)).ravel()


@dataclass
class Peak:
    """One refined envelope peak and its direction estimate."""

    time_s: float
    u: float
    azimuth_deg: float
    magnitude: float


@dataclass
class BeamformOutput:
    """Sampled envelope plus optional calibration, derived axes and peaks."""

    time_s: np.ndarray
    envelope: np.ndarray
    calibration: AxisCalibration | None = None
    peaks: list[Peak] | None = None
    phasors: PhasorSet | None = None

    @property
    def u(self) -> np.ndarray | None:
        """Direction cosine of each time sample, computed from the
        calibration when read; None without one."""
        if self.calibration is None:
            return None
        return time_to_u(self.calibration, self.time_s)

    @property
    def azimuth_deg(self) -> np.ndarray | None:
        """Azimuth (degrees) of each time sample, computed from the
        calibration when read; None without one."""
        u = self.u
        if u is None:
            return None
        return np.degrees(np.arcsin(np.clip(u, -1.0, 1.0)))


def beamform_envelope(phasors: PhasorSet, time_s,
                      noise: NoiseSpec | None = None,
                      trial: int = 0) -> BeamformOutput:
    """Envelope |Σ_e a_e·exp(j2πν_e t) + w(t)| over a time grid.

    The grid must be uniform and span a whole number of periods 1/Δf
    (see periodic_field); the envelope repeats with that period, so the
    samples wrap around. With ``noise``, w is the element-summed noise
    drawn by summed_noise for (noise.seed, trial): one CN(0, E·sigma²)
    sample per time sample. run_beamform reads its envelope by the same
    _envelope. Without noise no carrier is applied, so the envelope is
    independent of the common mixer LO: only tone differences enter |·|.
    """
    t, fields, nu_min = _grid_field(phasors, time_s)
    env = _envelope(next(fields), t, nu_min, len(phasors), noise, trial)
    return BeamformOutput(time_s=t, envelope=env, phasors=phasors)


def beamform_rf(phasors: PhasorSet, time_s) -> np.ndarray:
    """Real RF element sum Σ_e |a_e|·cos(2πf_e t + ∠a_e), f_e = ν_e + f_lo:
    the field of _baseband_field times the carrier exp(j2π(ν_min + f_lo)t).
    The mixer shifts only the carrier, so phasors mixed at any LO give the
    same trace, to rounding of ν_min + f_lo. The grid must be uniform and
    span whole periods 1/Δf. Its rectified local maxima trace the envelope."""
    t, fields, nu_min = _grid_field(phasors, time_s)
    return _carried(next(fields), t, nu_min + phasors.f_lo_hz).real


def _local_peaks(y: np.ndarray, circular: bool) -> np.ndarray:
    """Indices of the local maxima of y: above the left neighbour and not
    below the right one, so a plateau yields its left sample. A circular
    scan wraps around; a linear one ignores both end samples."""
    mid = y[1:-1]
    i = np.flatnonzero((mid > y[:-2]) & (mid >= y[2:])) + 1
    if not circular:
        return i
    first = [0] if y[0] > y[-1] and y[0] >= y[1] else []
    last = [y.size - 1] if y[-1] > y[-2] and y[-1] >= y[0] else []
    return np.concatenate((first, i, last)).astype(i.dtype)


def _quadratic_peak(ym1, y0, yp1):
    """3-point quadratic vertex, element-wise: fractional offset in
    [−0.5, 0.5] and height. A collinear triple gives offset 0. At a local
    maximum the clamp bounds only rounding: 1 − 5·2⁻⁵³, 1, 1 gives 0.625
    unclamped."""
    denom = ym1 - 2.0 * y0 + yp1
    flat = denom == 0.0
    p = np.where(flat, 0.0, 0.5 * (ym1 - yp1) / np.where(flat, 1.0, denom))
    p = np.minimum(0.5, np.maximum(-0.5, p))
    return p, y0 - 0.25 * (ym1 - yp1) * p


def _refine_peak(env: np.ndarray, time_s: np.ndarray, i: np.ndarray):
    """Quadratic-vertex times and heights of the envelope peaks at sample
    index array i: of a 1-D envelope, or one index per row of a (K, G)
    stack. The grid spans whole periods, so neighbours and time wrap
    around."""
    n = env.shape[-1]
    row = (np.arange(len(env)),) if env.ndim == 2 else ()
    p, height = _quadratic_peak(env[(*row, (i - 1) % n)], env[(*row, i)],
                                env[(*row, (i + 1) % n)])
    dt = float(time_s[1] - time_s[0])
    return (float(time_s[0]) + (i + p) * dt) % (n * dt), height


def _peak_times(fields, time_s: np.ndarray, count: int) -> np.ndarray:
    """Refined time of the largest sample of the modulus of each of the
    next ``count`` fields of _baseband_field, by one _refine_peak."""
    env = np.empty((count, time_s.size))
    for row, field in zip(env, fields):
        np.abs(field, out=row.reshape(field.shape))
    return _refine_peak(env, time_s, env.argmax(axis=1))[0]


def _thin_peaks(u: np.ndarray, height: np.ndarray, min_separation_u: float,
                circular: bool) -> list[int]:
    """Indices of the candidates kept, strongest first (ties in input
    order): each is kept unless it sits closer than min_separation_u to a
    stronger kept one. Distances are |Δu|, or on a circular scan the
    shorter way round a circle of period 2 in u."""
    kept: list[int] = []
    for k in np.argsort(-height, kind="stable"):
        d = np.abs(u[k] - u[kept])
        if circular:
            d = d % 2.0
            d = np.minimum(d, 2.0 - d)
        if np.all(d >= min_separation_u):
            kept.append(int(k))
    return kept


def find_peaks(out: BeamformOutput, threshold_fraction: float = 0.5,
               min_separation_u: float = 0.0) -> list[Peak]:
    """Locate, refine, and sort envelope peaks.

    The grid spans whole envelope periods (beamform_envelope accepts no
    other), so its samples wrap around: the last sample neighbours the
    first, and no grid edge can pose as a peak. It uses the picker that
    compare_methods' conventional scan shares: local maxima at or above
    threshold_fraction·max are refined with a 3-point quadratic fit,
    mapped through the attached calibration, sorted by magnitude, and
    thinned so no two kept peaks sit closer than min_separation_u on the
    circular u axis. An all-zero envelope yields []; an envelope with no
    isolated local maximum (e.g. constant) is an error.
    """
    if not (0.0 < threshold_fraction < 1.0):
        raise ValueError(
            f"threshold_fraction must be in (0, 1), got {threshold_fraction!r}"
        )
    if min_separation_u < 0:
        raise ValueError("min_separation_u must be >= 0")
    if out.calibration is None:
        raise ValueError("output has no calibration")
    env = np.asarray(out.envelope, dtype=float)
    if env.size < 3:
        raise ValueError("need at least 3 envelope samples to find peaks")
    gmax = float(env.max())
    if gmax == 0.0:
        return []
    # a flat envelope carries no direction information; without this guard
    # float rounding would be promoted into arbitrary "peaks"
    if gmax - float(env.min()) <= 1e-9 * gmax:
        raise ValueError("envelope has no isolated local maximum")
    i = _local_peaks(env, circular=True)
    if i.size == 0:
        raise ValueError("envelope has no isolated local maximum")
    t, height = _refine_peak(env, out.time_s, i)
    strong = height >= threshold_fraction * gmax
    t, height = t[strong], height[strong]
    u = time_to_u(out.calibration, t)
    return [Peak(time_s=float(t[k]), u=float(u[k]),
                 azimuth_deg=u_to_azimuth(float(u[k])),
                 magnitude=float(height[k]))
            for k in _thin_peaks(u, height, min_separation_u, circular=True)]


def probe_scene(u: float, range_m: float | None = None) -> Scene:
    """One unit calibration probe at direction cosine u in the y = 0 plane:
    a plane wave, or a point source at ``range_m`` from the origin."""
    if range_m is None:
        return Scene(sources=(Source.farfield(u, 0.0),), model="far-field")
    if not (math.isfinite(range_m) and range_m > 0):
        raise ValueError(f"probe range must be > 0, got {range_m!r}")
    ux, uy, uz = uv_to_direction(u, 0.0)
    return Scene(sources=(Source.point(Vec3(range_m * ux, range_m * uy,
                                            range_m * uz)),))


@dataclass(eq=False)
class _Design:
    """One design point of the estimator: what stays fixed from scene to
    scene, made only by _design_point, so it has passed the tunability
    rules. It holds the comb, mixer LO, phase sign, grid points and
    calibration range, the tuned array (each element's 1-based tone, tone
    frequency, baseband offset f − LO and position), ν_min, the FFT bins
    and the (R, E) row twiddles of _baseband_field (R rows of G/R points)
    and, once fitted, the calibration. Its arrays are read-only. They take
    1,512 bytes at N = 21 on 4096 points and 38,400 bytes at N = 320 on
    16384 points (4 rows); no G-length array is kept."""

    comb: CombSpec
    f_lo_hz: float
    sign: PhaseSign
    grid_points: int
    reference_range_m: float | None
    tones: np.ndarray
    freqs_hz: np.ndarray
    baseband_hz: np.ndarray
    positions: np.ndarray
    nu_min: float
    bins: np.ndarray
    twiddles: np.ndarray
    calibration: AxisCalibration | None = None


@functools.lru_cache(maxsize=256)
def _design_point(geometry: ArrayGeometry, comb: CombSpec, f_lo_hz: float,
                  sign: PhaseSign, grid_points: int,
                  reference_range_m: float | None) -> _Design:
    """The design point of these inputs, the 256 most recently used held
    for the process (the time→u axis belongs to the array, comb, LO and
    grid, not to the scene). ValueError, naming the field, unless the comb
    can synthesize on this array, mixer LO and grid: the array is one the
    comb can tune (_tuned_tones), duration_s is a whole number of envelope
    periods, the grid has at least N samples per period (below that the
    tones share FFT bins and the envelope gives wrong directions), and the
    tones mixed down by f_lo_hz stay on the Δf lattice (_lattice_steps).
    Checked in that order; runs no propagation or FFT, and lru_cache holds
    no exception, so a point that fails is never held. The 2 tones an axis
    fit needs are _calibrating's rule: snr_gain fits no axis and takes one
    tone.
    """
    tones = _tuned_tones(geometry, comb)
    try:
        periods = whole_periods(comb.duration_s, comb.delta_f_hz)
    except ValueError as e:
        raise ValueError(f"comb.duration_s: {e}") from e
    floor = comb.num_tones * periods
    if grid_points < floor:
        raise ValueError(f"sim.grid_points: {grid_points} is below "
                         f"num_tones * periods = {floor}")
    freqs = comb.tone_frequencies[tones - 1]
    baseband = freqs - f_lo_hz
    try:
        nu_min, m = _lattice_steps(baseband, comb.delta_f_hz)
    except ValueError as e:
        raise ValueError(f"sim.lo_hz: {f_lo_hz!r}: {e}") from e
    bins, twiddles = _fft_bins(m, periods, grid_points)
    positions = element_positions_array(geometry)
    for a in (tones, freqs, baseband, positions, bins, twiddles):
        a.flags.writeable = False
    return _Design(comb, f_lo_hz, sign, grid_points, reference_range_m,
                   tones, freqs, baseband, positions, nu_min, bins, twiddles)


def _fit_calibration(comb: CombSpec, probe_times,
                     reference_range_m: float | None) -> AxisCalibration:
    """The axis fit from the refined peak times of calibrate_axis's probes."""
    t0 = (0.0 if reference_range_m is None
          else float(probe_times[0]) % comb.period_s)
    t_half = float(probe_times[-1])
    best_sign = min((-1, 1), key=lambda s: abs(
        float(wrap_unit(s * 2.0 * comb.delta_f_hz * (t_half - t0))) - 0.5))
    return AxisCalibration(slope_sign=best_sign, t0_s=t0,
                           delta_f_hz=comb.delta_f_hz)


def _design_of(geometry: ArrayGeometry, comb: CombSpec,
               config: SimConfig) -> _Design:
    """_design_point of run_beamform's inputs."""
    return _design_point(geometry, comb, config.lo_for(comb),
                         config.phase_sign, config.grid_points,
                         config.calibration_range_m)


def _calibrating(design: _Design) -> _Design:
    """The design point, if its comb has the 2 tones an axis fit needs;
    else ValueError naming comb.num_tones."""
    if design.comb.num_tones < 2:
        raise ValueError("comb.num_tones: axis calibration needs >= 2 tones")
    return design


def _synthesized(scenes, design: _Design):
    """``scenes`` propagated by one _phasor_stack on the design point's
    tuned array and synthesized by one _baseband_field on its grid,
    default_time_grid (uniform by construction, so not checked again):
    (the last scene's PhasorSet, t, fields)."""
    comb = design.comb
    amps = _phasor_stack(scenes, design.positions, design.freqs_hz,
                         design.sign, comb.amplitude)
    t = default_time_grid(comb, design.grid_points)
    return (PhasorSet(amps[-1], design.tones, design.baseband_hz,
                      design.f_lo_hz, comb.delta_f_hz), t,
            _baseband_field(amps, design.bins, design.twiddles, t.size))


def _calibrated(scenes, design: _Design):
    """calibrate_axis's probes, unless the design point holds its fitted
    calibration, and ``scenes``, by one _synthesized, the probes' peak
    times fitted: (calibration, the last scene's PhasorSet, t, fields),
    fields positioned at the first scene; without scenes, (calibration,
    None, None, None). The fit is recorded on the design point, so a
    repeat estimate on an equal one propagates and synthesizes only its
    scenes."""
    calibration = _calibrating(design).calibration
    probes = () if calibration is not None else tuple(
        # u = 0.5, after u = 0 for point sources (a boresight plane wave's
        # peak time is known in closed form)
        probe_scene(u, design.reference_range_m)
        for u in ((0.5,) if design.reference_range_m is None else (0.0, 0.5)))
    if not (probes or scenes):
        return calibration, None, None, None
    phasors, t, fields = _synthesized((*probes, *scenes), design)
    if probes:
        calibration = design.calibration = _fit_calibration(
            design.comb, _peak_times(fields, t, len(probes)),
            design.reference_range_m)
    if not scenes:
        return calibration, None, None, None
    return calibration, phasors, t, fields


def _scene_field(scene: Scene, design: _Design):
    """(PhasorSet, t, field): periodic_field of the scene's phasors on the
    design point's grid, by _synthesized, with no calibration. Serves
    snr_gain."""
    phasors, t, fields = _synthesized((scene,), design)
    return phasors, t, _carried(next(fields), t, design.nu_min)


def calibrate_axis(geometry: ArrayGeometry, comb: CombSpec, f_lo_hz: float,
                   sign: PhaseSign = PhaseSign.DELAY, grid_points: int = 4096,
                   reference_range_m: float | None = None) -> AxisCalibration:
    """Two-probe time→u calibration.

    The offset t0 is the envelope peak time of a boresight (u = 0) probe and
    the slope sign is whichever sign maps a u = +0.5 probe's peak time to
    +0.5. Probes are plane waves unless ``reference_range_m`` is given, in
    which case they are point sources at that range — use this when targets
    sit close enough that the range-dependent part of the arrival time
    matters. A boresight plane wave reaches every element in phase and the
    tones are consecutive, so its envelope peaks exactly at t ≡ 0 mod 1/Δf:
    plane-wave calibration sets t0 = 0 and simulates only the u = 0.5 probe.
    The probes are synthesized by one call on default_time_grid(comb,
    grid_points) and their peak times read together by _calibrated, which
    run_beamform shares. The arguments make one design point
    (_design_point), held in memory with its fit, so a repeat call with
    equal arguments synthesizes nothing. ValueError, naming the field,
    first for what the design point's tunability rules reject.
    """
    return _calibrated((), _design_point(geometry, comb, f_lo_hz, sign,
                                         grid_points, reference_range_m))[0]


@dataclass(frozen=True)
class SimConfig:
    """Pipeline knobs for run_beamform / estimate_azimuths."""

    grid_points: int = 4096
    lo_hz: float | None = None            # None → comb.f0_hz
    phase_sign: PhaseSign = PhaseSign.DELAY
    noise: NoiseSpec | None = None
    threshold_fraction: float = 0.5
    min_separation_u: float | None = None  # None → main-lobe width, 4/N
    calibration_range_m: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.grid_points, int) or self.grid_points < 3:
            raise ValueError(
                f"grid_points must be an int >= 3, got {self.grid_points!r}"
            )
        if self.lo_hz is not None and not (math.isfinite(self.lo_hz)
                                           and self.lo_hz >= 0):
            raise ValueError(f"lo_hz must be finite and >= 0, got {self.lo_hz!r}")
        if not (0.0 < self.threshold_fraction < 1.0):
            raise ValueError("threshold_fraction must be in (0, 1)")
        if self.min_separation_u is not None and not (
                math.isfinite(self.min_separation_u)
                and self.min_separation_u >= 0):
            raise ValueError(
                "min_separation_u must be finite and >= 0, "
                f"got {self.min_separation_u!r}"
            )
        if self.calibration_range_m is not None and not (
                math.isfinite(self.calibration_range_m)
                and self.calibration_range_m > 0):
            raise ValueError(
                "calibration_range_m must be finite and > 0, "
                f"got {self.calibration_range_m!r}"
            )

    def lo_for(self, comb: CombSpec) -> float:
        """Mixer LO: lo_hz, or the comb's f0_hz when unset."""
        return comb.f0_hz if self.lo_hz is None else self.lo_hz

    def min_separation_for(self, comb: CombSpec) -> float:
        """min_separation_u, or 4/N (main lobe, null to null) when unset."""
        return (4.0 / comb.num_tones if self.min_separation_u is None
                else self.min_separation_u)


def run_beamform(scene: Scene, geometry: ArrayGeometry, comb: CombSpec,
                 config: SimConfig = SimConfig()) -> BeamformOutput:
    """Full pipeline: tune, propagate, calibrate, beamform, find peaks.

    calibrate_axis's probes, then the scene, are propagated and synthesized
    by one call (_calibrated), and the scene's field is read as
    beamform_envelope reads it, with config.noise (trial 0). The array,
    comb, LO, phase sign, grid and calibration range make one design point
    (_design_point): the tuned array, FFT bins and twiddles, and the
    calibration once fitted. A repeat estimate on an equal design point
    fits nothing: it propagates and synthesizes only its scene.
    """
    design = _design_of(geometry, comb, config)
    calibration, phasors, grid, fields = _calibrated((scene,), design)
    env = _envelope(next(fields), grid, design.nu_min, len(phasors),
                    config.noise, 0)
    out = BeamformOutput(time_s=grid, envelope=env, calibration=calibration,
                         phasors=phasors)
    out.peaks = find_peaks(out, config.threshold_fraction,
                           config.min_separation_for(comb))
    return out


def estimate_azimuths(scene: Scene, geometry: ArrayGeometry, comb: CombSpec,
                      config: SimConfig = SimConfig()) -> list[tuple[float, float]]:
    """(azimuth_deg, magnitude) per detected peak, strongest first."""
    out = run_beamform(scene, geometry, comb, config)
    assert out.peaks is not None
    return [(pk.azimuth_deg, pk.magnitude) for pk in out.peaks]


def _nearest_index(time_s: np.ndarray, t: float) -> int:
    """Index of the sample of the uniform grid ``time_s`` nearest ``t``,
    circularly over the grid's span; a half-sample tie gives either one."""
    dt = float(time_s[1] - time_s[0])
    return round(float(t - time_s[0]) / dt) % len(time_s)


def peak_width_u(out: BeamformOutput, peak: Peak) -> float:
    """−3 dB full width of one envelope peak, measured in u.

    Walks circularly from the peak to the 1/sqrt(2)·magnitude crossings on
    both sides (linear interpolation between samples) and converts the time
    width with du = 2·Δf·dt.
    """
    if out.calibration is None:
        raise ValueError("output has no calibration")
    env = np.asarray(out.envelope, dtype=float)
    n = env.size
    half = peak.magnitude / math.sqrt(2.0)
    i0 = _nearest_index(out.time_s, peak.time_s)
    dt = float(out.time_s[1] - out.time_s[0])

    def crossing(direction: int) -> float:
        steps = 0
        i = i0
        while steps < n:
            j = (i + direction) % n
            if env[j] < half <= env[i]:
                frac = (env[i] - half) / (env[i] - env[j])
                return steps + frac
            i = j
            steps += 1
        raise ValueError("peak has no half-power crossing")

    width_t = (crossing(+1) + crossing(-1)) * dt
    return 2.0 * out.calibration.delta_f_hz * width_t


def _sweep_step(scene: Scene, geometry: ArrayGeometry, comb: CombSpec,
                config: SimConfig, true_az_deg: float,
                point: str) -> tuple[float, float, float]:
    """Azimuth error (deg), magnitude and peak_width_u of run_beamform's top
    peak at one sweep point; ValueError naming ``point`` if it finds none."""
    out = run_beamform(scene, geometry, comb, config)
    if not out.peaks:
        raise ValueError(f"sweep point {point}: no peak found")
    top = out.peaks[0]
    return top.azimuth_deg - true_az_deg, top.magnitude, peak_width_u(out, top)
