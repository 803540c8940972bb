"""Measurement and comparison utilities built on top of the two
beamforming paths: brute-force peak search, beamwidth and sidelobe metrics,
method cross-checks, range-error sweeps, and Monte-Carlo SNR gain.

This is the one module that imports scipy, for brute_force_peak's
golden-section polish (the tests' peak oracle). The CLI never imports it:
the sweep step and peak_width_u live in kspace and are re-exported here,
and the package root loads these names on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .conventional import scene_snapshot, beamform_conventional
from .geometry import ArrayGeometry, Scene, source_from_az_range
from .kspace import (
    BeamformOutput,
    Peak,
    SimConfig,
    _calibrated,
    _design_of,
    _design_point,
    _local_peaks,
    _nearest_index,
    _peak_times,
    _quadratic_peak,
    _scene_field,
    _sweep_step,
    _synthesized,
    _thin_peaks,
    complex_field,
    peak_width_u,
    run_beamform,
    time_to_u,
    u_to_azimuth,
)
from .propagation import NoiseSpec, PhaseSign, PhasorSet, summed_noise
from .waveform import CombSpec, wavelength

__all__ = [
    "brute_force_peak",
    "peak_width_u",
    "first_sidelobe_db",
    "MethodComparison",
    "compare_methods",
    "SweepResult",
    "nearfield_error_sweep",
    "snr_gain",
    "PeakTimeReport",
    "peak_time_report",
]


def _envelope_at(phasors: PhasorSet, t: float) -> float:
    return float(np.abs(complex_field(phasors, np.array([t])))[0])


def brute_force_peak(phasors: PhasorSet, grid_points: int = 4096,
                     oversample: int = 16) -> tuple[float, float]:
    """Global envelope maximum over one period, refined by golden section.

    Scans grid_points·oversample samples of |Σ a_e·e^{j2πν_e t}| over
    [0, 1/Δf), then polishes the best sample with a bracketed golden-section
    search. Returns (time_s, magnitude). Deliberately independent of the
    beamforming pipeline so it can serve as its oracle.
    """
    if grid_points < 2 or oversample < 1:
        raise ValueError("grid_points must be >= 2 and oversample >= 1")
    period = 1.0 / phasors.delta_f_hz
    n = grid_points * oversample
    t = np.arange(n) * (period / n)
    env = np.abs(complex_field(phasors, t))
    i = int(np.argmax(env))
    dt = period / n
    lo, mid, hi = (i - 1) * dt, i * dt, (i + 1) * dt
    try:
        res = minimize_scalar(lambda x: -_envelope_at(phasors, x),
                              bracket=(lo, mid, hi), method="golden",
                              options={"xtol": 1e-15})
        t_pk = float(res.x) % period
        mag = _envelope_at(phasors, t_pk)
    except ValueError:
        t_pk, mag = mid % period, float(env[i])
    if mag < env[i]:
        t_pk, mag = (i * dt) % period, float(env[i])
    return t_pk, mag


def first_sidelobe_db(out: BeamformOutput, peak: Peak) -> float:
    """Level of the first sidelobe adjacent to a peak, dB relative to it.

    From the peak sample, walks each direction past the first local minimum
    to the next local maximum and reports the larger side:
    20·log10(sidelobe/peak).
    """
    env = np.asarray(out.envelope, dtype=float)
    n = env.size
    i0 = _nearest_index(out.time_s, peak.time_s)

    def sidelobe(direction: int) -> float:
        i = i0
        passed_min = False
        for _ in range(n):
            j = (i + direction) % n
            if not passed_min and env[j] > env[i]:
                passed_min = True
            elif passed_min and env[j] < env[i]:
                return float(env[i])
            i = j
        raise ValueError("no sidelobe found next to the peak")

    level = max(sidelobe(+1), sidelobe(-1))
    return 20.0 * math.log10(level / peak.magnitude)


@dataclass(frozen=True)
class MethodComparison:
    """Peak azimuths from both beamforming paths, paired by proximity."""

    kspace_azimuths: tuple[float, ...]
    conventional_azimuths: tuple[float, ...]
    pairs: tuple[tuple[float, float, float], ...]  # (kspace, conventional, |diff|)
    max_discrepancy_deg: float


def _conventional_peak_azimuths(scene: Scene, geometry: ArrayGeometry,
                                comb: CombSpec, u_points: int,
                                threshold_fraction: float,
                                min_separation_u: float) -> list[float]:
    freq = comb.center_frequency_hz
    snapshot = scene_snapshot(scene, geometry, freq)
    u_grid = np.linspace(-1.0, 1.0, u_points)
    spectrum = beamform_conventional(snapshot, geometry, wavelength(freq),
                                     u_grid, np.array([0.0]))[:, 0]
    gmax = float(spectrum.max())
    if gmax == 0.0:
        return []
    # the u scan does not wrap around: its end samples are never peaks
    i = _local_peaks(spectrum, circular=False)
    p, height = _quadratic_peak(spectrum[i - 1], spectrum[i], spectrum[i + 1])
    strong = height >= threshold_fraction * gmax
    u = u_grid[i[strong]] + p[strong] * (u_grid[1] - u_grid[0])
    return [u_to_azimuth(float(u[k])) for k in _thin_peaks(
        u, height[strong], min_separation_u, circular=False)]


def compare_methods(scene: Scene, geometry: ArrayGeometry, comb: CombSpec,
                    config: SimConfig = SimConfig(),
                    u_points: int = 8192) -> MethodComparison:
    """Run the comb pipeline and a conventional scan on the same scene.

    The conventional path forms a single-frequency snapshot at the comb
    center and scans u with matched steering. Its peaks are read with the
    picker find_peaks uses (local maxima, quadratic vertex, threshold,
    strongest-first thinning by config.min_separation_for), except that the
    u scan does not wrap around. Peaks from the two paths are paired
    nearest-first; max_discrepancy_deg is the largest pairing gap.
    """
    out = run_beamform(scene, geometry, comb, config)
    assert out.peaks is not None
    k_az = sorted(pk.azimuth_deg for pk in out.peaks)
    c_az = sorted(_conventional_peak_azimuths(
        scene, geometry, comb, u_points, config.threshold_fraction,
        config.min_separation_for(comb)))
    pairs = []
    for az in k_az:
        if c_az:
            nearest = min(c_az, key=lambda c: abs(c - az))
            pairs.append((az, nearest, abs(nearest - az)))
    max_disc = max((d for _, _, d in pairs), default=float("nan"))
    return MethodComparison(
        kspace_azimuths=tuple(k_az),
        conventional_azimuths=tuple(c_az),
        pairs=tuple(pairs),
        max_discrepancy_deg=max_disc,
    )


@dataclass(frozen=True)
class SweepResult:
    """Per-value metrics from a one-parameter sweep."""

    parameter: str
    values: np.ndarray
    az_error_deg: np.ndarray
    peak_magnitude: np.ndarray
    width_u: np.ndarray


def nearfield_error_sweep(az_deg: float, ranges_m, geometry: ArrayGeometry,
                          comb: CombSpec,
                          config: SimConfig = SimConfig()) -> SweepResult:
    """Azimuth error vs source range for a single point source.

    The axis is recalibrated with probes at each swept range, so the
    reported error isolates wavefront curvature across the aperture and
    decays toward zero in the far field. The decay is monotone in range for
    negative azimuths and for |az| >= 10°; at small positive azimuths it is
    not (on the bundled 21-element line at az = 5°, |error| is 0.0022° at
    1.5 m but 0.0047° at 2.5 m).
    """
    ranges = np.asarray(list(ranges_m), dtype=float)
    if ranges.size == 0 or np.any(ranges <= 0):
        raise ValueError("ranges_m must be non-empty and positive")
    errors = np.empty(ranges.size)
    mags = np.empty(ranges.size)
    widths = np.empty(ranges.size)
    for i, r in enumerate(ranges):
        scene = Scene(sources=(source_from_az_range(az_deg, float(r)),))
        cfg = replace(config, calibration_range_m=float(r))
        errors[i], mags[i], widths[i] = _sweep_step(
            scene, geometry, comb, cfg, az_deg, f"range_m={r}")
    return SweepResult(parameter="range_m", values=ranges,
                       az_error_deg=errors, peak_magnitude=mags,
                       width_u=widths)


def snr_gain(scene: Scene, geometry: ArrayGeometry, comb: CombSpec,
             sigma: float, trials: int = 100, seed: int = 0,
             config: SimConfig = SimConfig()) -> float:
    """Monte-Carlo array SNR gain (dB): output SNR at the envelope peak
    versus the single-element input SNR.

    Input SNR is mean per-element signal power over sigma². Each trial
    adds the element-summed noise, one CN(0, E·sigma²) stream drawn by
    summed_noise for (seed, trial), to the noiseless FFT envelope. Output
    SNR per trial reads the noisy envelope power at the noiseless peak
    position against a noise floor: the median power of that trial's noise
    draw over the samples more than 8/N in u from the peak (4 resolution
    cells of 2/N; the whole grid when that window covers it, as for N ≤ 8
    over one period), scaled by 1/ln 2 for exponential power. The floor is
    read from the noise alone, so the window sets only its sample count.
    Trial ratios are averaged linearly, then converted to dB once. The
    phasors and grid come from the scene's design point, so what the
    estimators' tunability gate rejects raises a ValueError naming the
    field; one tone is allowed, as no axis is fitted.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be > 0, got {sigma!r}")
    if not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive int, got {trials!r}")
    phasors, grid, z_clean = _scene_field(
        scene, _design_of(geometry, comb, config))
    i_peak = int(np.argmax(np.abs(z_clean)))
    n = grid.size
    num_elements = len(phasors)

    sig_power = float(np.mean(np.abs(phasors.amplitudes) ** 2))
    if sig_power == 0.0:
        raise ValueError("scene delivers zero signal power")
    snr_in = sig_power / sigma ** 2

    # cell_samples spans 4/N in u (2/(N·Δf) in t); dropping 2·cell_samples
    # on each side of the peak excludes ±8/N, 4 cells of 2/N
    cell_samples = round(2.0 / (comb.num_tones * comb.delta_f_hz)
                         / (comb.duration_s / config.grid_points))
    dist = np.abs(np.arange(n) - i_peak)
    kept = np.flatnonzero(np.minimum(dist, n - dist) > 2 * cell_samples)
    if kept.size == 0:
        kept = np.arange(n)
    # np.median's ranks: the middle one, or the two middle ones of an even
    # count (a repeated rank makes partition slower, hence the set)
    lo, hi = (kept.size - 1) // 2, kept.size // 2
    ranks = sorted({lo, hi})

    spec = NoiseSpec(sigma=sigma, seed=seed)
    ratios = np.empty(trials)
    for k in range(trials):
        w = summed_noise(spec, num_elements, n, trial=k)
        residual = w[kept]
        power = residual.real * residual.real
        power += residual.imag * residual.imag
        power.partition(ranks)
        p_floor = float(power[lo] + power[hi]) / 2.0 / math.log(2.0)
        p_peak = float(np.abs(z_clean[i_peak] + w[i_peak]) ** 2)
        ratios[k] = (p_peak - p_floor) / p_floor
    # trial ratios may dip below zero; only the averaged ratio must be positive
    mean_ratio = max(float(np.mean(ratios)), 1e-12)
    return 10.0 * math.log10(mean_ratio / snr_in)


@dataclass(frozen=True)
class PeakTimeReport:
    """Envelope peak times under the different reporting conventions.

    delay/advance are the raw peak positions of the envelope under the two
    propagation signs (they mirror around half a period). The linear-axis
    time places the estimated direction cosine on an axis that sweeps u
    from −1 at t = 0 to +1 at t = 1/Δf without wrapping:
    t = (1 + u)/(2·Δf).
    """

    delay_peak_time_s: float
    advance_peak_time_s: float
    u_estimate: float
    azimuth_deg: float
    linear_axis_peak_time_s: float
    period_s: float


def peak_time_report(scene: Scene, geometry: ArrayGeometry, comb: CombSpec,
                     config: SimConfig = SimConfig()) -> PeakTimeReport:
    """Measure one scene's envelope peak in all reporting conventions.

    Each sign's peak time is the quadratic-vertex refinement of the largest
    sample of the FFT envelope on default_time_grid(comb,
    config.grid_points), reduced modulo the period 1/Δf. The delay scene
    shares the calibration's synthesis (kspace._calibrated); the advance
    scene is synthesized on its own design point (the probes are delayed).
    brute_force_peak is the dense oracle it is tested against.
    """
    delay, advance = (
        _design_point(geometry, comb, config.lo_for(comb), sign,
                      config.grid_points, config.calibration_range_m)
        for sign in (PhaseSign.DELAY, PhaseSign.ADVANCE))
    cal, _, grid, fields = _calibrated((scene,), delay)
    delay_t, advance_t = (
        float(_peak_times(f, grid, 1)[0]) % comb.period_s
        for f in (fields, _synthesized((scene,), advance)[2]))
    u = float(time_to_u(cal, delay_t))
    return PeakTimeReport(
        delay_peak_time_s=delay_t,
        advance_peak_time_s=advance_t,
        u_estimate=u,
        azimuth_deg=u_to_azimuth(u),
        linear_axis_peak_time_s=(1.0 + u) / (2.0 * comb.delta_f_hz),
        period_s=comb.period_s,
    )
