"""The FFT envelope and RF synthesizer against the dense element × sample
sum, guards that the dense sum stays off runtime paths and the complex
field off noiseless ones, whole-period grid checks, and the closed-form
plane-wave calibration."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combbeam import analysis, kspace
from combbeam.analysis import (
    brute_force_peak,
    compare_methods,
    peak_time_report,
    snr_gain,
)
from combbeam.cli import load_config_file, main, scenario_path
from combbeam.geometry import Scene, Source, Vec3, linear_array
from combbeam.kspace import (
    SimConfig,
    beamform_envelope,
    beamform_rf,
    calibrate_axis,
    complex_field,
    default_time_grid,
    periodic_field,
    probe_scene,
    run_beamform,
    whole_periods,
)
from combbeam.propagation import (
    NoiseSpec,
    PhaseSign,
    PhasorSet,
    scene_element_phasors,
    summed_noise,
)
from combbeam.waveform import CombSpec

from conftest import D21

F0 = 19.0008e9
DF = 0.2e6


def _random_phasors(rng, n: int, descending: bool, f_lo: float) -> PhasorSet:
    tones = np.arange(n, 0, -1) if descending else np.arange(1, n + 1)
    amps = rng.uniform(0.0, 2.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    return PhasorSet(amps, tones, F0 + tones * DF - f_lo, f_lo_hz=f_lo,
                     delta_f_hz=DF)


@given(n=st.integers(2, 64), descending=st.booleans(),
       f_lo=st.sampled_from([0.0, F0]) | st.floats(1e9, 25e9),
       t0_periods=st.floats(-1.0, 1.0), periods=st.integers(1, 3),
       grid_points=st.integers(2, 300), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_envelope_matches_dense_sum(n, descending, f_lo, t0_periods, periods,
                                    grid_points, seed):
    # grid_points < n·periods makes tones share FFT bins
    ps = _random_phasors(np.random.default_rng(seed), n, descending, f_lo)
    period = 1.0 / DF
    t = t0_periods * period + np.arange(grid_points) * (
        periods * period / grid_points)
    dense = complex_field(ps, t)
    bound = float(np.abs(ps.amplitudes).sum())
    assert np.abs(periodic_field(ps, t) - dense).max() <= 1e-9 * bound
    env = beamform_envelope(ps, t).envelope
    assert np.abs(env - np.abs(dense)).max() <= 1e-9 * bound


@given(n=st.integers(2, 40), dx=st.floats(1e-3, 0.05),
       descending=st.booleans(), farfield=st.booleans(),
       # a subnormal amplitude makes the relative bound underflow to 0
       sources=st.lists(st.tuples(st.floats(-0.95, 0.95), st.floats(0.5, 50.0),
                                  st.floats(0.0, 2.0, allow_subnormal=False),
                                  st.floats(-math.pi, math.pi)),
                        min_size=1, max_size=3),
       f0=st.floats(1e9, 20e9), delta_f=st.floats(2e5, 1e6),
       t0_periods=st.floats(0.0, 1.0), periods=st.integers(1, 3),
       grid_points=st.integers(2, 300))
@settings(max_examples=100, deadline=None)
def test_rf_is_the_real_part_of_the_dense_sum(n, dx, descending, farfield,
                                              sources, f0, delta_f,
                                              t0_periods, periods,
                                              grid_points):
    # linear scenes at f_lo = 0: the phasors carry GHz carriers
    if farfield:
        scene = Scene(sources=tuple(Source.farfield(u, 0.0, a, ph)
                                    for u, _, a, ph in sources),
                      model="far-field")
    else:
        scene = Scene(sources=tuple(
            Source.point(Vec3(r * u, 0.0, r * math.sqrt(1.0 - u * u)), a, ph)
            for u, r, a, ph in sources))
    comb = CombSpec(f0_hz=f0, delta_f_hz=delta_f, num_tones=n,
                    duration_s=periods / delta_f)
    geom = linear_array(n, dx, tuning_order="descending" if descending
                        else "ascending")
    ps = scene_element_phasors(scene, geom, comb, 0.0)
    t = (t0_periods + np.arange(grid_points) * periods / grid_points) / delta_f
    bound = float(np.abs(ps.amplitudes).sum())
    assert np.abs(beamform_rf(ps, t) - complex_field(ps, t).real).max() \
        <= 1e-9 * bound


@pytest.mark.parametrize("grid_points, rows", [
    (4096, 1), (8190, 1), (8193, 1), (8192, 2), (16384, 4)])
def test_the_fft_runs_in_rows_of_at_least_4096_points(grid_points, rows):
    # one transform below 8192 points and for odd G; else R rows of G/R
    # points, R the largest power of two that leaves rows of >= 4096
    bins, twiddles = kspace._fft_bins(np.arange(21.0), 1, grid_points)
    assert twiddles.shape == (rows, 21)
    assert np.array_equal(bins, np.arange(21))


def test_rf_rejects_grids_the_fft_cannot_synthesize():
    ps = _random_phasors(np.random.default_rng(0), 5, False, 0.0)
    with pytest.raises(ValueError, match="0.62"):
        beamform_rf(ps, np.arange(100) * (3.1e-6 / 100))
    bent = np.arange(64) * (5e-6 / 64)
    bent[10] += 0.3 * bent[1]
    with pytest.raises(ValueError, match="uniform"):
        beamform_rf(ps, bent)


def test_dense_sum_stays_off_runtime_paths(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense complex_field ran on a runtime path")

    monkeypatch.setattr(kspace, "complex_field", refuse)
    monkeypatch.setattr(analysis, "complex_field", refuse)
    cfg = load_config_file(scenario_path("three_sources"))
    scene, geom, comb, sim = cfg.scene, cfg.geometry, cfg.comb, cfg.sim
    noisy = replace(sim, noise=NoiseSpec(sigma=0.5, seed=3))
    assert len(run_beamform(scene, geom, comb, noisy).peaks) == 3
    snr_gain(scene, geom, comb, 0.7, trials=3, config=sim)
    peak_time_report(scene, geom, comb, sim)
    compare_methods(scene, geom, comb, sim)
    rf_cfg = tmp_path / "rf.yaml"
    rf_cfg.write_text(scenario_path("three_sources").read_text().replace(
        "output: {}", "output: {emit_rf: true}"))
    assert main(["simulate", "--config", str(rf_cfg), "--out",
                 str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "rf.csv").exists()
    assert main(["calibrate", "--config", str(rf_cfg)]) == 0
    # the guard is live: the oracle itself still reaches the patched sum
    with pytest.raises(AssertionError, match="runtime path"):
        brute_force_peak(run_beamform(scene, geom, comb, sim).phasors)


def test_noiseless_paths_stay_off_the_complex_synthesizer(monkeypatch,
                                                          tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the complex periodic_field ran")

    # periodic_field and the noisy envelope apply the mixer carrier through
    # one helper, so refusing it refuses every complex-field read
    monkeypatch.setattr(kspace, "_carried", refuse)
    cfg = load_config_file(scenario_path("three_sources"))
    scene, geom, comb, sim = cfg.scene, cfg.geometry, cfg.comb, cfg.sim
    assert sim.noise is None and sim.calibration_range_m is not None
    assert len(run_beamform(scene, geom, comb, sim).peaks) == 3
    f_lo = sim.lo_for(comb)
    calibrate_axis(geom, comb, f_lo, reference_range_m=None)
    calibrate_axis(geom, comb, f_lo, reference_range_m=17.0)
    peak_time_report(scene, geom, comb, sim)
    assert main(["simulate", "--config", str(scenario_path("three_sources")),
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "envelope.csv").exists()
    assert main(["calibrate", "--config",
                 str(scenario_path("three_sources"))]) == 0
    # the guard is live: the paths that need the complex value still reach it
    noisy = replace(sim, noise=NoiseSpec(sigma=0.5, seed=3))
    with pytest.raises(AssertionError, match="complex periodic_field"):
        run_beamform(scene, geom, comb, noisy)
    with pytest.raises(AssertionError, match="complex periodic_field"):
        beamform_rf(scene_element_phasors(scene, geom, comb, 0.0),
                    default_time_grid(comb, sim.grid_points))
    with pytest.raises(AssertionError, match="complex periodic_field"):
        snr_gain(scene, geom, comb, 0.7, trials=1, config=sim)


def test_each_estimate_synthesizes_its_scene_with_its_probes(calls):
    # a noisy run_beamform once synthesized its scene a second time, and
    # peak_time_report its delay scene apart from the calibration probes
    count = calls("_baseband_field", kspace)
    cfg = load_config_file(scenario_path("three_sources"))
    scene, geom, comb, sim = cfg.scene, cfg.geometry, cfg.comb, cfg.sim
    noisy = replace(sim, noise=NoiseSpec(sigma=0.5, seed=3))
    run_beamform(scene, geom, comb, noisy)
    assert len(count) == 1
    # the advance sign takes its own propagation and synthesis
    peak_time_report(scene, geom, comb, sim)
    assert len(count) == 3


@pytest.mark.parametrize("f_lo", [0.0, 19.0e9, F0])
@pytest.mark.parametrize("t0_periods, periods", [
    (0.0, 1), (0.37, 1), (-0.61, 3), (2.25, 3)])
def test_envelope_modulus_matches_both_references(f_lo, t0_periods, periods):
    rng = np.random.default_rng(17)
    eps = np.finfo(float).eps
    # the last four reach the row split of the inverse FFT: 4 rows of 4096
    # points, 2 rows of 6144, a single row for an odd 8193, and 2 rows of
    # 4096 into which 1500 tones over 3 periods fold and collide
    for n, grid_points, p in ((21, 1024, periods), (64, 300, periods),
                              (5, 7, periods), (300, 16384, 1),
                              (64, 12288, 2), (40, 8193, 1), (1500, 8192, 3)):
        ps = _random_phasors(rng, n, bool(rng.integers(2)), f_lo)
        t = (t0_periods + np.arange(grid_points) * p / grid_points) / DF
        env = beamform_envelope(ps, t).envelope
        bound = float(np.abs(ps.amplitudes).sum())
        assert np.abs(env - np.abs(periodic_field(ps, t))).max() \
            <= 8 * eps * bound
        # the dense sum in chunks keeps its samples × tones array small
        dense = np.concatenate([complex_field(ps, t[k:k + 1024])
                                for k in range(0, t.size, 1024)])
        assert np.abs(env - np.abs(dense)).max() <= 1e-9 * bound


@pytest.mark.parametrize("f_lo", [0.0, 19.0e9, F0])
def test_noisy_envelope_adds_noise_to_the_dense_field(f_lo):
    ps = _random_phasors(np.random.default_rng(11), 21, False, f_lo)
    t = default_time_grid(CombSpec(F0, DF, 21, 5e-6), 1024)
    noise = NoiseSpec(sigma=0.7, seed=3)
    env = beamform_envelope(ps, t, noise, trial=2).envelope
    w = summed_noise(noise, 21, t.size, 2)
    want = np.abs(complex_field(ps, t) + w)
    bound = float(np.abs(ps.amplitudes).sum())
    assert np.abs(env - want).max() <= 1e-9 * bound


@pytest.mark.parametrize("grid, periods", [
    (np.arange(100) * (3.1e-6 / 100), "0.62"),
    (np.arange(100) * (7.3e-6 / 100), "1.46"),
])
def test_envelope_rejects_partial_periods(grid, periods):
    ps = _random_phasors(np.random.default_rng(0), 5, False, 19e9)
    with pytest.raises(ValueError, match=periods):
        beamform_envelope(ps, grid)


def test_envelope_rejects_non_uniform_and_tiny_grids():
    ps = _random_phasors(np.random.default_rng(0), 5, False, 19e9)
    grid = np.arange(64) * (5e-6 / 64)
    bent = grid.copy()
    bent[10] += 0.3 * grid[1]
    with pytest.raises(ValueError, match="uniform"):
        beamform_envelope(ps, bent)
    with pytest.raises(ValueError):
        beamform_envelope(ps, grid[::-1])
    with pytest.raises(ValueError):
        beamform_envelope(ps, grid[:1])


def test_envelope_rejects_tones_off_the_lattice():
    ps = PhasorSet([1 + 0j, 1 + 0j], [1, 2], [1e6, 1.25e6], f_lo_hz=19e9,
                   delta_f_hz=DF)
    with pytest.raises(ValueError, match="Δf"):
        beamform_envelope(ps, np.arange(64) * (5e-6 / 64))


def test_whole_periods():
    assert whole_periods(5e-6, 0.2e6) == 1
    assert whole_periods(15e-6, 0.2e6) == 3
    for span in (3.1e-6, 7.3e-6, 0.0, math.inf):
        with pytest.raises(ValueError, match="periods"):
            whole_periods(span, 0.2e6)


def _far_source_run(duration_s, u):
    comb = CombSpec(f0_hz=F0, delta_f_hz=DF, num_tones=21,
                    duration_s=duration_s)
    scene = Scene(sources=(Source.farfield(u, 0.0),), model="far-field")
    return run_beamform(scene, linear_array(21, D21), comb,
                        SimConfig(lo_hz=19e9))


def test_partial_period_duration_is_rejected_not_misread():
    # 3.1 µs once reported only a grid-edge artefact at u = 0.7606 for a
    # source at u = 0.6; 7.3 µs reported u = 0 at 23.51, above N·A = 21
    with pytest.raises(ValueError, match="0.62"):
        _far_source_run(3.1e-6, 0.6)
    with pytest.raises(ValueError, match="1.46"):
        _far_source_run(7.3e-6, 0.0)


@pytest.mark.parametrize("duration_s", [5e-6, 10e-6, 15e-6])
def test_whole_period_durations_recover_the_source(duration_s):
    out = _far_source_run(duration_s, 0.6)
    assert out.peaks[0].u == pytest.approx(0.6, abs=1e-4)
    assert out.peaks[0].magnitude <= 21.0 * (1 + 1e-12)
    out = _far_source_run(duration_s, 0.0)
    assert out.peaks[0].u == pytest.approx(0.0, abs=1e-9)
    assert out.peaks[0].magnitude == pytest.approx(21.0, rel=1e-12)
    assert out.peaks[0].magnitude <= 21.0 * (1 + 1e-12)


@given(n=st.integers(2, 40), dx=st.floats(1e-3, 0.05),
       descending=st.booleans(), advance=st.booleans(),
       delta_f=st.floats(5e4, 1e6),
       f_lo=st.sampled_from([0.0, F0, 18.37e9]))
@settings(max_examples=40, deadline=None)
def test_closed_form_offset_matches_brute_force_peak(n, dx, descending,
                                                     advance, delta_f, f_lo):
    comb = CombSpec(f0_hz=F0, delta_f_hz=delta_f, num_tones=n,
                    duration_s=1.0 / delta_f)
    geom = linear_array(n, dx, tuning_order="descending" if descending
                        else "ascending")
    sign = PhaseSign.ADVANCE if advance else PhaseSign.DELAY
    cal = calibrate_axis(geom, comb, f_lo, sign)
    assert cal.t0_s == 0.0
    ps = scene_element_phasors(probe_scene(0.0), geom, comb, f_lo, sign)
    t_pk, mag = brute_force_peak(ps)
    # the boresight envelope is a global maximum at t0 to rounding ...
    at_t0 = float(np.abs(complex_field(ps, np.array([cal.t0_s])))[0])
    assert at_t0 >= mag * (1.0 - 1e-12)
    # ... and the golden-section search lands on it to the time resolution a
    # double-precision envelope has on its flat top, where |z| falls as
    # N·(1 − (π·Δf·t)²·(N² − 1)/6): a few sqrt(eps)/N of a period (1.3e-8/N
    # was the worst of 400 random cases)
    period = comb.period_s
    d = (t_pk - cal.t0_s) % period
    assert min(d, period - d) <= 1e-7 / n * period


def test_point_source_calibration_still_simulates_boresight(demo_comb,
                                                            demo_geometry):
    cal = calibrate_axis(demo_geometry, demo_comb, 19e9,
                         reference_range_m=2.0)
    assert 0.0 < cal.t0_s < demo_comb.period_s
    ps = scene_element_phasors(probe_scene(0.0, 2.0), demo_geometry,
                               demo_comb, 19e9)
    t_pk, _ = brute_force_peak(ps)
    d = abs(t_pk - cal.t0_s) % demo_comb.period_s
    assert min(d, demo_comb.period_s - d) < demo_comb.period_s / 4096
