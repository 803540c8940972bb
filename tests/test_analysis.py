import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from combbeam import analysis
from combbeam.analysis import (
    brute_force_peak,
    compare_methods,
    first_sidelobe_db,
    nearfield_error_sweep,
    peak_time_report,
    peak_width_u,
    snr_gain,
)
from combbeam.cli import load_config_file, scenario_path
from combbeam.conventional import beamform_conventional, scene_snapshot
from combbeam.geometry import Scene, Source, linear_array
from combbeam.kspace import (
    BeamformOutput,
    Peak,
    SimConfig,
    _quadratic_peak,
    calibrate_axis,
    complex_field,
    default_time_grid,
    periodic_field,
    run_beamform,
)
from combbeam.propagation import (NoiseSpec, PhaseSign, scene_element_phasors,
                                  summed_noise)
from combbeam.waveform import CombSpec, wavelength

from conftest import D21


@pytest.fixture()
def demo_phasors(demo_comb, demo_geometry, demo_scene):
    return scene_element_phasors(demo_scene, demo_geometry, demo_comb, 19e9)


def test_brute_force_peak_against_dense_scan(demo_phasors):
    t_pk, mag = brute_force_peak(demo_phasors)
    # independent check: an extremely dense scan must not beat the refined
    # peak by more than its own grid error
    t = np.arange(200_000) * (5e-6 / 200_000)
    env = np.abs(complex_field(demo_phasors, t))
    i = int(np.argmax(env))
    assert mag >= float(env[i]) - 1e-10
    assert abs(t_pk - t[i]) < 5e-6 / 200_000
    assert 1.79e-6 < t_pk < 1.82e-6


def test_brute_force_peak_validation(demo_phasors):
    with pytest.raises(ValueError):
        brute_force_peak(demo_phasors, grid_points=1)
    with pytest.raises(ValueError):
        brute_force_peak(demo_phasors, oversample=0)


def test_peak_time_report_conventions(demo_comb, demo_geometry, demo_scene,
                                      demo_config):
    rep = peak_time_report(demo_scene, demo_geometry, demo_comb, demo_config)
    assert rep.period_s == pytest.approx(5e-6, rel=1e-12)
    assert rep.delay_peak_time_s == pytest.approx(1.8075511e-6, abs=1e-10)
    # the two propagation signs mirror the peak around half a period
    assert rep.delay_peak_time_s + rep.advance_peak_time_s == pytest.approx(
        rep.period_s, abs=1e-9)
    assert rep.u_estimate == pytest.approx(-0.7230205, abs=1e-6)
    assert rep.azimuth_deg == pytest.approx(-46.3044, abs=1e-3)
    # linear (no-wrap) axis re-expression of the same direction estimate
    assert rep.linear_axis_peak_time_s == pytest.approx(
        (1.0 + rep.u_estimate) / (2.0 * demo_comb.delta_f_hz), rel=1e-12)
    assert abs(rep.linear_axis_peak_time_s - 0.6963e-6) < 0.05e-6


@given(n=st.integers(2, 64), u=st.floats(-0.95, 0.95),
       descending=st.booleans(), amplitude=st.floats(0.1, 2.0),
       phase=st.floats(-10.0, 10.0))
@settings(max_examples=30, deadline=None)
def test_peak_time_report_matches_brute_force_oracle(n, u, descending,
                                                     amplitude, phase):
    comb = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=n,
                    duration_s=5e-6)
    geom = linear_array(n, D21,
                        tuning_order="descending" if descending else "ascending")
    scene = Scene(sources=(Source.farfield(u, 0.0, amplitude, phase),),
                  model="far-field")
    config = SimConfig(lo_hz=19.0e9)
    rep = peak_time_report(scene, geom, comb, config)
    phasors = scene_element_phasors(scene, geom, comb, 19.0e9,
                                    PhaseSign.DELAY)
    t_oracle, _ = brute_force_peak(phasors, grid_points=config.grid_points)
    period = comb.period_s
    d = (rep.delay_peak_time_s - t_oracle) % period
    shift = min(d, period - d) / period
    target(shift * n, label="shift from the oracle, periods x N")
    assert shift <= 1e-6 / n
    # the signs mirror the peak: delay + advance ≡ 0 (mod the period)
    s = (rep.delay_peak_time_s + rep.advance_peak_time_s) % period
    assert min(s, period - s) <= 1e-9


def _loop_conventional_azimuths(scene, geometry, comb, u_points,
                                threshold_fraction, min_separation_u):
    """Scalar reference for compare_methods' conventional peak picker:
    interior samples, > on the left and >= on the right."""
    freq = comb.center_frequency_hz
    u_grid = np.linspace(-1.0, 1.0, u_points)
    spectrum = beamform_conventional(scene_snapshot(scene, geometry, freq),
                                     geometry, wavelength(freq), u_grid,
                                     np.array([0.0]))[:, 0]
    gmax = float(spectrum.max())
    found = []
    for i in range(1, u_points - 1):
        if spectrum[i] > spectrum[i - 1] and spectrum[i] >= spectrum[i + 1]:
            p, height = _quadratic_peak(spectrum[i - 1], spectrum[i],
                                        spectrum[i + 1])
            if height >= threshold_fraction * gmax:
                found.append((float(u_grid[i] + p * (u_grid[1] - u_grid[0])),
                              height))
    found.sort(key=lambda fu: fu[1], reverse=True)
    kept = []
    for u, h in found:
        if all(abs(u - uk) >= min_separation_u for uk, _ in kept):
            kept.append((u, h))
    return [math.degrees(math.asin(min(1.0, max(-1.0, u)))) for u, _ in kept]


@pytest.mark.parametrize("threshold, min_sep, count", [(None, None, 3),
                                                       (0.05, 0.0, 17)])
def test_conventional_peaks_match_the_scalar_loop(threshold, min_sep, count):
    cfg = load_config_file(scenario_path("three_sources"))
    sim = cfg.sim
    if threshold is not None:
        # sidelobes pass the threshold too: many candidates to thin
        sim = replace(sim, threshold_fraction=threshold,
                      min_separation_u=min_sep)
    cmp = compare_methods(cfg.scene, cfg.geometry, cfg.comb, sim)
    sep = (4.0 / cfg.comb.num_tones if sim.min_separation_u is None
           else sim.min_separation_u)
    want = _loop_conventional_azimuths(cfg.scene, cfg.geometry, cfg.comb,
                                       8192, sim.threshold_fraction, sep)
    assert cmp.conventional_azimuths == tuple(sorted(want))
    assert len(want) == count


def test_peak_width(demo_comb, demo_geometry, demo_scene, demo_config):
    out = run_beamform(demo_scene, demo_geometry, demo_comb, demo_config)
    width = peak_width_u(out, out.peaks[0])
    assert width == pytest.approx(0.084464, abs=2e-3)
    # half-power width of a 21-element uniform aperture: ~0.886 * 2/N
    assert width == pytest.approx(0.886 * 2 / 21, rel=0.02)


def test_first_sidelobe_level(demo_comb, demo_geometry, demo_scene,
                              demo_config):
    out = run_beamform(demo_scene, demo_geometry, demo_comb, demo_config)
    level = first_sidelobe_db(out, out.peaks[0])
    assert -13.5 < level < -12.9


def test_first_sidelobe_walks_past_a_plateau_on_the_rising_flank():
    # after the first null (index 2) the flank rises 3, 3, 6: the sidelobe
    # is the 6, not the plateau; the other side's sidelobe is the 4
    env = np.array([10, 5, 1, 3, 3, 6, 2, 1, 1, 1, 1, 2, 4, 1, 6], dtype=float)
    out = BeamformOutput(time_s=np.arange(env.size) * 1e-7, envelope=env)
    peak = Peak(time_s=0.0, u=0.0, azimuth_deg=0.0, magnitude=10.0)
    assert first_sidelobe_db(out, peak) == pytest.approx(20 * math.log10(0.6))


def test_compare_methods_near_field(demo_comb, demo_geometry, demo_scene,
                                    demo_config):
    cmp = compare_methods(demo_scene, demo_geometry, demo_comb, demo_config)
    assert len(cmp.kspace_azimuths) == len(cmp.conventional_azimuths) == 1
    assert cmp.kspace_azimuths[0] == pytest.approx(-45.0, abs=2.0)
    assert cmp.conventional_azimuths[0] == pytest.approx(-45.0, abs=2.0)
    # both see the same curved wavefront, but through different estimators
    assert cmp.max_discrepancy_deg < 1.0
    assert cmp.pairs[0][2] == cmp.max_discrepancy_deg


def test_compare_methods_far_field_agrees_exactly(demo_comb, demo_geometry,
                                                  demo_config):
    scene = Scene(sources=(Source.farfield(math.sin(math.radians(-30.0)),
                                           0.0),),
                  model="far-field")
    cmp = compare_methods(scene, demo_geometry, demo_comb, demo_config)
    assert cmp.kspace_azimuths[0] == pytest.approx(-30.0, abs=0.05)
    assert cmp.conventional_azimuths[0] == pytest.approx(-30.0, abs=0.05)
    assert cmp.max_discrepancy_deg < 1e-6


def test_nearfield_error_sweep_decays_monotonically(demo_comb, demo_geometry,
                                                    demo_config):
    ranges = [2.0 ** k for k in range(11)]
    sw = nearfield_error_sweep(-45.0, ranges, demo_geometry, demo_comb,
                               demo_config)
    err = np.abs(sw.az_error_deg)
    assert err[0] == pytest.approx(3.3681, abs=2e-3)
    assert all(a > b - 0.05 for a, b in zip(err, err[1:]))
    assert err[-1] < 0.01
    # curvature error roughly halves per range doubling once well separated
    for a, b in zip(err[2:], err[3:]):
        assert a / b == pytest.approx(2.0, rel=0.25)
    assert sw.width_u.shape == (11,)
    assert np.all(sw.peak_magnitude > 0)


def test_nearfield_error_demo_range(demo_comb, demo_geometry, demo_config):
    sw = nearfield_error_sweep(-45.0, [8.4853], demo_geometry, demo_comb,
                               demo_config)
    assert 0.01 < abs(float(sw.az_error_deg[0])) < 2.0
    assert float(sw.az_error_deg[0]) == pytest.approx(0.37976, abs=1e-3)
    far = nearfield_error_sweep(-45.0, [10_000.0], demo_geometry, demo_comb,
                                demo_config)
    assert abs(float(far.az_error_deg[0])) < 0.01


def test_nearfield_error_sweep_validation(demo_comb, demo_geometry):
    with pytest.raises(ValueError):
        nearfield_error_sweep(-45.0, [], demo_geometry, demo_comb)
    with pytest.raises(ValueError):
        nearfield_error_sweep(-45.0, [1.0, -2.0], demo_geometry, demo_comb)


def test_snr_gain_single_element_is_near_unity():
    comb = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=1,
                    duration_s=5e-6)
    geom = linear_array(1, D21)
    scene = Scene(sources=(Source.farfield(0.0, 0.0),), model="far-field")
    cfg = SimConfig(lo_hz=19e9)
    for seed in (0, 1):
        g = snr_gain(scene, geom, comb, 1.0, trials=200, seed=seed,
                     config=cfg)
        assert abs(g) < 1.0


def test_snr_gain_demo_array(demo_comb, demo_geometry, demo_scene,
                             demo_config):
    g = snr_gain(demo_scene, demo_geometry, demo_comb, 1.0, trials=100,
                 seed=0, config=demo_config)
    # coherent gain of 21 elements is 10*log10(21) = 13.22 dB
    assert g == pytest.approx(10 * math.log10(21), abs=1.5)
    assert g == pytest.approx(13.22634, abs=1e-4)
    # deterministic for a fixed seed
    assert g == snr_gain(demo_scene, demo_geometry, demo_comb, 1.0,
                         trials=100, seed=0, config=demo_config)


def test_snr_gain_hundred_elements():
    comb = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=100,
                    duration_s=5e-6)
    geom = linear_array(100, D21)
    scene = Scene(sources=(Source.farfield(0.0, 0.0),), model="far-field")
    g = snr_gain(scene, geom, comb, 1.0, trials=60, seed=0,
                 config=SimConfig(lo_hz=19e9, grid_points=2048))
    assert g == pytest.approx(20.0, abs=1.0)


def test_snr_gain_validation(demo_comb, demo_geometry, demo_scene):
    with pytest.raises(ValueError):
        snr_gain(demo_scene, demo_geometry, demo_comb, 0.0)
    with pytest.raises(ValueError):
        snr_gain(demo_scene, demo_geometry, demo_comb, -1.0)
    with pytest.raises(ValueError):
        snr_gain(demo_scene, demo_geometry, demo_comb, 1.0, trials=0)
    silent = Scene(sources=(Source.farfield(0.0, 0.0, amplitude=0.0),),
                   model="far-field")
    with pytest.raises(ValueError):
        snr_gain(silent, demo_geometry, demo_comb, 1.0)


def _snr_gain_by_median(scene, geometry, comb, sigma, trials, seed, config):
    """The per-trial np.median loop snr_gain replaced; returns the gain and
    the number of samples its floor is read from."""
    phasors = scene_element_phasors(scene, geometry, comb,
                                    config.lo_for(comb), config.phase_sign)
    z_clean = periodic_field(phasors,
                             default_time_grid(comb, config.grid_points))
    i_peak = int(np.argmax(np.abs(z_clean)))
    n = z_clean.size
    snr_in = float(np.mean(np.abs(phasors.amplitudes) ** 2)) / sigma ** 2
    cell_samples = max(1, round(2.0 / (comb.num_tones * comb.delta_f_hz)
                                / (comb.duration_s / config.grid_points)))
    dist = np.abs(np.arange(n) - i_peak)
    keep = np.minimum(dist, n - dist) > 2 * cell_samples
    if not keep.any():
        keep = np.ones(n, dtype=bool)
    spec = NoiseSpec(sigma=sigma, seed=seed)
    ratios = np.empty(trials)
    for k in range(trials):
        w = summed_noise(spec, len(phasors), n, trial=k)
        p_peak = float(np.abs(z_clean[i_peak] + w[i_peak]) ** 2)
        p_floor = float(np.median(np.abs(w[keep]) ** 2)) / math.log(2.0)
        ratios[k] = (p_peak - p_floor) / p_floor
    mean_ratio = max(float(np.mean(ratios)), 1e-12)
    return 10.0 * math.log10(mean_ratio / snr_in), int(keep.sum())


def _boresight_line(num_tones):
    comb = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=num_tones,
                    duration_s=5e-6)
    scene = Scene(sources=(Source.farfield(0.0, 0.0),), model="far-field")
    return scene, linear_array(num_tones, D21), comb


@pytest.mark.parametrize("case, seed, trials, kept", [
    ("single_source", 0, 100, 2535), ("single_source", 1, 100, 2535),
    ("single_source", 2, 100, 2535), ("single_source", 3, 100, 2535),
    ("grid_4095", 0, 100, 2534),
    ("one_element", 0, 100, 4096),
    ("hundred_elements", 0, 60, 1883),
    ("single_source", 5, 1, 2535),
])
def test_snr_gain_matches_the_per_trial_median(case, seed, trials, kept):
    if case in ("single_source", "grid_4095"):
        cfg = load_config_file(scenario_path("single_source"))
        scene, geom, comb, sim = cfg.scene, cfg.geometry, cfg.comb, cfg.sim
        if case == "grid_4095":
            sim = replace(sim, grid_points=4095)
    elif case == "one_element":
        scene, geom, comb = _boresight_line(1)
        sim = SimConfig(lo_hz=19e9)
    else:
        scene, geom, comb = _boresight_line(100)
        sim = SimConfig(lo_hz=19e9, grid_points=2048)
    want, count = _snr_gain_by_median(scene, geom, comb, 1.0, trials, seed,
                                      sim)
    assert count == kept  # an odd count, an even one and the whole grid
    got = snr_gain(scene, geom, comb, 1.0, trials=trials, seed=seed,
                   config=sim)
    assert got == pytest.approx(want, abs=1e-12)


def test_snr_gain_draws_each_trial_once(monkeypatch, demo_comb,
                                        demo_geometry, demo_scene,
                                        demo_config):
    calls = []

    def counting(spec, num_elements, num_samples, trial=0):
        calls.append(trial)
        return summed_noise(spec, num_elements, num_samples, trial)

    monkeypatch.setattr(analysis, "summed_noise", counting)
    snr_gain(demo_scene, demo_geometry, demo_comb, 1.0, trials=7,
             config=demo_config)
    assert calls == list(range(7))


_ESTIMATORS = {
    "run_beamform": lambda c, sim: run_beamform(c.scene, c.geometry, c.comb,
                                                sim),
    "calibrate_axis": lambda c, sim: calibrate_axis(
        c.geometry, c.comb, sim.lo_for(c.comb), sim.phase_sign,
        sim.grid_points, sim.calibration_range_m),
    "compare_methods": lambda c, sim: compare_methods(c.scene, c.geometry,
                                                      c.comb, sim),
    "peak_time_report": lambda c, sim: peak_time_report(c.scene, c.geometry,
                                                        c.comb, sim),
    "nearfield_error_sweep": lambda c, sim: nearfield_error_sweep(
        -45.0, [8.4853], c.geometry, c.comb, sim),
    "snr_gain": lambda c, sim: snr_gain(c.scene, c.geometry, c.comb, 1.0,
                                        trials=2, config=sim),
}


@pytest.mark.parametrize("name", _ESTIMATORS)
def test_estimators_reject_a_grid_below_the_tone_floor(name):
    # 16 points for 21 tones: run_beamform once returned -49.16 deg for the
    # -45 deg source with no error, while the CLI rejected the same grid
    cfg = load_config_file(scenario_path("single_source"))
    with pytest.raises(ValueError, match=r"^sim\.grid_points: 16 is below "
                                         r"num_tones \* periods = 21"):
        _ESTIMATORS[name](cfg, replace(cfg.sim, grid_points=16))


@pytest.mark.parametrize("name", _ESTIMATORS)
def test_estimators_name_an_lo_off_the_tone_lattice(name):
    # f − LO at 1e18 Hz rounds the tones off the 0.2 MHz lattice; snr_gain
    # once raised a message that named no field
    cfg = load_config_file(scenario_path("single_source"))
    with pytest.raises(ValueError, match=r"^sim\.lo_hz: 1e\+18: "):
        _ESTIMATORS[name](cfg, replace(cfg.sim, lo_hz=1.0e18))


def test_run_beamform_rejects_a_partial_period_comb():
    cfg = load_config_file(scenario_path("single_source"))
    comb = replace(cfg.comb, duration_s=7.3e-6)    # 1.46 periods
    with pytest.raises(ValueError, match=r"^comb\.duration_s: .*1\.46"):
        run_beamform(cfg.scene, cfg.geometry, comb, cfg.sim)
