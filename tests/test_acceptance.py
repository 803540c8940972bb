"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (bypassing capture so the summary
is visible in plain pytest output) and then asserts, so a red run still
fails loudly.
"""

import math
import time

import numpy as np
import pytest

from combbeam.analysis import first_sidelobe_db, peak_time_report, snr_gain
from combbeam.cli import load_config_file, scenario_path
from combbeam.conventional import (
    beamform_conventional,
    curvature_profile,
    mean_adjacent_steps,
    phase_map,
    scene_snapshot,
    steering_vector,
)
from combbeam.geometry import Scene, Source, Vec3, azimuth_of, planar_array
from combbeam.kspace import (
    AxisCalibration,
    beamform_envelope,
    estimate_azimuths,
    find_peaks,
    run_beamform,
)
from combbeam.propagation import PhasorSet
from combbeam.waveform import SPEED_OF_LIGHT, CombSpec


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_reporting(capfd):
    # let _report write through pytest's fd capture so the PASS/FAIL table
    # shows up even when every test is green
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"acceptance {tag}: {'PASS' if ok else 'FAIL'} — {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:  # pragma: no cover
        print(line, flush=True)
    assert ok, line


def test_01_single_source_azimuth_recovery():
    cfg = load_config_file(scenario_path("single_source"))
    start = time.perf_counter()
    peaks = estimate_azimuths(cfg.scene, cfg.geometry, cfg.comb, cfg.sim)
    elapsed = time.perf_counter() - start
    az = peaks[0][0]
    # held-out plane-wave probes bound the calibration part of the error
    probe_worst = 0.0
    for u in (-0.8, -0.35, 0.15, 0.6):
        probe = Scene(sources=(Source.farfield(u, 0.0),), model="far-field")
        est = estimate_azimuths(probe, cfg.geometry, cfg.comb, cfg.sim)[0][0]
        probe_worst = max(probe_worst,
                          abs(est - math.degrees(math.asin(u))))
    ok = (len(peaks) == 1 and abs(az - (-45.0)) <= 2.0
          and probe_worst < 0.2 and elapsed < 1.0)
    _report("01 single-source azimuth", ok,
            f"estimate {az:+.3f} deg vs -45 deg (|err| "
            f"{abs(az + 45):.3f} <= 2), probe residual {probe_worst:.4f} deg"
            f" < 0.2, runtime {elapsed:.2f} s")


def test_02_peak_time_conventions(demo_comb, demo_geometry, demo_scene,
                                  demo_config):
    rep = peak_time_report(demo_scene, demo_geometry, demo_comb, demo_config)
    target = 0.6963e-6
    delta = abs(rep.linear_axis_peak_time_s - target)
    ok = (delta <= 0.05e-6
          and 1.77e-6 <= rep.delay_peak_time_s <= 1.81e-6
          and abs(rep.delay_peak_time_s + rep.advance_peak_time_s
                  - rep.period_s) < 1e-9)
    _report("02 peak-time convention", ok,
            f"linear-axis peak {rep.linear_axis_peak_time_s * 1e6:.4f} us vs "
            f"0.6963 us (|delta| {delta * 1e6:.4f} <= 0.05); raw peak "
            f"families {rep.delay_peak_time_s * 1e6:.4f} / "
            f"{rep.advance_peak_time_s * 1e6:.4f} us")


def test_03_three_source_scene():
    cfg = load_config_file(scenario_path("three_sources"))
    out = run_beamform(cfg.scene, cfg.geometry, cfg.comb, cfg.sim)
    est = sorted(p.azimuth_deg for p in out.peaks)
    true = sorted(azimuth_of(s.position) for s in cfg.scene.sources)
    errs = [abs(e - t) for e, t in zip(est, true)]
    mags = [p.magnitude for p in out.peaks]
    spread = (max(mags) - min(mags)) / max(mags)
    ok = (len(out.peaks) == 3 and max(errs) <= 2.0 and spread <= 0.05)
    _report("03 three-source scene", ok,
            f"azimuths {[f'{e:+.2f}' for e in est]} vs "
            f"{[f'{t:+.2f}' for t in true]} (max |err| {max(errs):.3f} <= 2),"
            f" magnitude spread {spread * 100:.2f}% <= 5%")


def test_04_farfield_probe_exactness(demo_comb, demo_geometry, demo_config):
    worst = 0.0
    for u in (-0.9, -0.5, 0.0, 0.3, 0.7):
        scene = Scene(sources=(Source.farfield(u, 0.0),), model="far-field")
        az = estimate_azimuths(scene, demo_geometry, demo_comb,
                               demo_config)[0][0]
        worst = max(worst, abs(az - math.degrees(math.asin(u))))
    ok = worst <= 0.05
    _report("04 plane-wave exactness", ok,
            f"worst probe error {worst:.2e} deg <= 0.05 over "
            "u in {-0.9, -0.5, 0, 0.3, 0.7}")


def test_05_dirichlet_envelope_and_sidelobe(demo_comb):
    tones = np.arange(1, 22)
    phasors = PhasorSet(np.ones(21), tones, tones * demo_comb.delta_f_hz,
                        f_lo_hz=demo_comb.f0_hz,
                        delta_f_hz=demo_comb.delta_f_hz)
    t = np.arange(4096) * (demo_comb.period_s / 4096)
    out = beamform_envelope(phasors, t)
    psi = demo_comb.delta_f_hz * t
    den = np.sin(np.pi * psi)
    with np.errstate(invalid="ignore", divide="ignore"):
        kernel = np.abs(np.where(np.abs(den) < 1e-15, 21.0,
                                 np.sin(21 * np.pi * psi) / den))
    dev = float(np.max(np.abs(out.envelope / 21.0 - kernel / 21.0)))
    out.calibration = AxisCalibration(-1, 0.0, demo_comb.delta_f_hz)
    peak = find_peaks(out, 0.5, 0.0)[0]
    sll = first_sidelobe_db(out, peak)
    ok = dev <= 1e-9 and -13.5 <= sll <= -12.9
    _report("05 Dirichlet envelope", ok,
            f"normalized kernel deviation {dev:.2e} <= 1e-9 at 4096 points, "
            f"first sidelobe {sll:.2f} dB in -13.2 +/- 0.3")


def test_06_envelope_periodicity(demo_comb, demo_geometry, demo_scene,
                                 demo_config):
    from combbeam.propagation import scene_element_phasors

    phasors = scene_element_phasors(demo_scene, demo_geometry, demo_comb,
                                    19e9)
    grid = np.arange(8192) * (10e-6 / 8192)
    env = beamform_envelope(phasors, grid).envelope
    rel = float(np.max(np.abs(env[:4096] - env[4096:])) / env.max())
    ok = rel <= 1e-12
    _report("06 periodicity", ok,
            f"envelope repeats over 1/delta_f = 5.0 us within {rel:.2e} "
            "relative (<= 1e-12)")


def test_07_coherent_gain(demo_comb, demo_geometry, demo_scene, demo_config):
    comb = CombSpec(f0_hz=demo_comb.f0_hz, delta_f_hz=demo_comb.delta_f_hz,
                    num_tones=21, duration_s=demo_comb.duration_s,
                    amplitude=1.3)
    scene = Scene(sources=(Source.farfield(0.0, 0.0),), model="far-field")
    out = run_beamform(scene, demo_geometry, comb, demo_config)
    peak = out.peaks[0].magnitude
    gain_err = abs(peak - 21 * 1.3) / (21 * 1.3)
    g = snr_gain(demo_scene, demo_geometry, demo_comb, sigma=1.0, trials=100,
                 seed=0, config=demo_config)
    ok = gain_err <= 0.01 and abs(g - 10 * math.log10(21)) <= 1.5
    _report("07 coherent gain", ok,
            f"noiseless far-field peak {peak:.4f} vs 21*A={21 * 1.3:.1f} "
            f"(rel err {gain_err:.2e} <= 1%), Monte-Carlo SNR gain "
            f"{g:.2f} dB in 13.2 +/- 1.5")


def test_08_conventional_beamformer_oracle():
    rng = np.random.default_rng(8)
    geom = planar_array(8, 8, 0.004, 0.0035)
    lam = 0.0157744
    snap = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    u_grid = rng.uniform(-1, 1, 6)
    v_grid = rng.uniform(-1, 1, 6)
    got = beamform_conventional(snap, geom, lam, u_grid, v_grid)
    k = 2 * math.pi / lam
    worst = 0.0
    for a, u in enumerate(u_grid):
        for b, v in enumerate(v_grid):
            ref = abs(sum(snap[m, n] * np.exp(1j * k * (m * 0.004 * u
                                                        + n * 0.0035 * v))
                          for m in range(8) for n in range(8)))
            worst = max(worst, abs(got[a, b] - ref) / ref)
    ones = steering_vector(geom, 0.0, 0.0, lam)
    boresight_ok = bool(np.all(ones == 1.0))
    freq = 19e9
    matched = scene_snapshot(
        Scene(sources=(Source.farfield(0.35, -0.2),), model="far-field"),
        geom, freq)
    gain = beamform_conventional(matched, geom, SPEED_OF_LIGHT / freq,
                                 [0.35], [-0.2])[0, 0]
    gain_err = abs(gain - 64.0) / 64.0
    ok = worst <= 1e-10 and boresight_ok and gain_err < 1e-12
    _report("08 conventional oracle", ok,
            f"double-sum deviation {worst:.2e} <= 1e-10, boresight weights "
            f"all ones: {boresight_ok}, matched gain {gain:.12f} vs 64")


def test_09_phase_map_orientation():
    cfg = load_config_file(scenario_path("oblique_map"))
    freq = cfg.comb.center_frequency_hz
    src = cfg.scene.sources[0]
    sx, sy = mean_adjacent_steps(phase_map(cfg.geometry, src, freq))
    center = 6.5 * cfg.geometry.dx_m
    p = src.position
    d = np.array([p.x - center, p.y - center, p.z])
    d /= np.linalg.norm(d)
    expected = abs(d[1] / d[0])
    ratio = sy / sx
    cfg_m = load_config_file(scenario_path("oblique_map_mirrored"))
    sx_m, sy_m = mean_adjacent_steps(
        phase_map(cfg_m.geometry, cfg_m.scene.sources[0], freq))
    inverted = sx_m / sy_m
    ok = (abs(ratio - expected) / expected <= 0.15
          and abs(inverted - ratio) / ratio <= 1e-9)
    _report("09 phase-map orientation", ok,
            f"step ratio {ratio:.2f} vs |v/u| {expected:.2f} "
            f"({abs(ratio - expected) / expected * 100:.2f}% <= 15%), "
            f"mirrored scene inverts to {inverted:.2f}")


def test_10_nearfield_curvature():
    cfg = load_config_file(scenario_path("boresight_curvature"))
    freq = cfg.comb.center_frequency_hz
    lam = SPEED_OF_LIGHT / freq
    geom = cfg.geometry
    cx = 6.5 * geom.dx_m
    src = cfg.scene.sources[0]
    r0 = src.position.z
    prof = curvature_profile(geom, src, freq)
    xx, yy = np.meshgrid(np.arange(14) * geom.dx_m,
                         np.arange(14) * geom.dy_m, indexing="ij")
    quad = ((xx - cx) ** 2 + (yy - cx) ** 2) / (2.0 * r0) / lam
    a = np.column_stack([np.ones(quad.size), xx.ravel(), yy.ravel()])
    coef, *_ = np.linalg.lstsq(a, quad.ravel(), rcond=None)
    oracle = quad - (a @ coef).reshape(quad.shape)
    rel = abs(np.max(np.abs(prof)) - np.max(np.abs(oracle))) \
        / np.max(np.abs(oracle))
    peaks = [float(np.max(np.abs(curvature_profile(
        geom, Source.point(Vec3(cx, cx, r)), freq))))
        for r in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)]
    monotone = all(x > y for x, y in zip(peaks, peaks[1:]))
    ratios = [x / y for x, y in zip(peaks, peaks[1:])]
    halving = all(1.8 <= q <= 2.2 for q in ratios)
    ok = rel <= 0.10 and monotone and halving
    _report("10 near-field curvature", ok,
            f"1 m residual {np.max(np.abs(prof)):.4f} cycles vs quadratic "
            f"oracle (rel dev {rel * 100:.1f}% <= 10%), range-doubling "
            f"ratios {[f'{q:.2f}' for q in ratios]} in [1.8, 2.2]")
