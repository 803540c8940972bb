import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import hilbert

from combbeam import kspace
from combbeam.geometry import (Scene, Source, Vec3, linear_array, planar_array,
                               source_from_az_range)
from combbeam.kspace import (
    AxisCalibration,
    BeamformOutput,
    Peak,
    SimConfig,
    _nearest_index,
    _quadratic_peak,
    beamform_envelope,
    beamform_rf,
    calibrate_axis,
    complex_field,
    default_time_grid,
    estimate_azimuths,
    find_peaks,
    peak_width_u,
    run_beamform,
    time_to_u,
    u_to_azimuth,
    wrap_unit,
)
from combbeam.propagation import (NoiseSpec, PhaseSign, PhasorSet,
                                  scene_element_phasors)
from combbeam.waveform import SPEED_OF_LIGHT, CombSpec

from conftest import D21


def test_scene_element_phasors_tuning_orders(demo_comb, demo_scene):
    asc = scene_element_phasors(demo_scene, linear_array(21, D21), demo_comb,
                                19e9)
    assert tuple(asc.tones) == tuple(range(1, 22))
    desc = scene_element_phasors(
        demo_scene, linear_array(21, D21, tuning_order="descending"),
        demo_comb, 19e9)
    assert tuple(desc.tones) == tuple(range(21, 0, -1))


def test_scene_element_phasors_rejects_untunable_arrays(demo_comb,
                                                        demo_scene):
    with pytest.raises(ValueError, match="array.kind"):
        scene_element_phasors(demo_scene, planar_array(3, 7, 0.01, 0.01),
                              demo_comb, 19e9)
    with pytest.raises(ValueError, match="array.m"):
        scene_element_phasors(demo_scene, linear_array(20, D21), demo_comb,
                              19e9)


def test_wrap_unit_values():
    assert wrap_unit(0.0) == 0.0
    assert wrap_unit(1.0) == 1.0
    assert wrap_unit(-1.0) == 1.0
    assert wrap_unit(1.5) == -0.5
    assert wrap_unit(-0.25) == -0.25
    assert wrap_unit(3.0) == 1.0
    np.testing.assert_allclose(wrap_unit(np.array([2.25, -1.75])),
                               [0.25, 0.25], atol=1e-12)


@given(st.floats(-1e3, 1e3))
def test_wrap_unit_range(x):
    w = float(wrap_unit(x))
    assert -1.0 < w <= 1.0
    assert (x - w) % 2.0 == pytest.approx(0.0, abs=1e-9) or \
        (x - w) % 2.0 == pytest.approx(2.0, abs=1e-9)


def test_axis_calibration_validation():
    AxisCalibration(slope_sign=-1, t0_s=0.0, delta_f_hz=0.2e6)
    with pytest.raises(ValueError):
        AxisCalibration(slope_sign=0, t0_s=0.0, delta_f_hz=0.2e6)
    with pytest.raises(ValueError):
        AxisCalibration(slope_sign=1, t0_s=6e-6, delta_f_hz=0.2e6)
    with pytest.raises(ValueError):
        AxisCalibration(slope_sign=1, t0_s=-1e-9, delta_f_hz=0.2e6)


def test_time_to_u_known_mapping():
    cal = AxisCalibration(slope_sign=-1, t0_s=0.0, delta_f_hz=0.2e6)
    assert time_to_u(cal, 0.0) == 0.0
    # quarter period later: -0.5, wrapped
    assert time_to_u(cal, 1.25e-6) == pytest.approx(-0.5, abs=1e-12)
    assert time_to_u(cal, 3.75e-6) == pytest.approx(0.5, abs=1e-12)
    # the demo peak time maps to u = -0.72302
    assert time_to_u(cal, 1.8075512e-6) == pytest.approx(-0.72302, abs=1e-5)


@given(st.floats(-1.0, 1.0))
def test_u_to_azimuth_matches_atan2_form(u):
    direct = u_to_azimuth(u)
    alt = math.degrees(math.atan2(u, math.sqrt(1.0 - min(1.0, u * u))))
    assert direct == pytest.approx(alt, abs=1e-9)


def test_u_to_azimuth_bounds():
    assert u_to_azimuth(1.0) == 90.0
    assert u_to_azimuth(-1.0) == -90.0
    with pytest.raises(ValueError):
        u_to_azimuth(1.5)


def test_default_time_grid_layout(demo_comb):
    grid = default_time_grid(demo_comb, 4096)
    assert grid.shape == (4096,)
    assert grid[0] == 0.0
    assert grid[1] == pytest.approx(5e-6 / 4096)
    assert grid[-1] < 5e-6
    with pytest.raises(ValueError):
        default_time_grid(demo_comb, 1)


def _boresight_phasors(num_tones=21, f_lo=19.0e9, amplitude=1.0):
    comb = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=num_tones,
                    duration_s=5e-6, amplitude=amplitude)
    geom = linear_array(num_tones, D21)
    scene = Scene(sources=(Source.farfield(0.0, 0.0),), model="far-field")
    return comb, scene_element_phasors(scene, geom, comb, f_lo)


def test_boresight_envelope_is_dirichlet_kernel():
    # geometric-series identity: |sum exp(j2pi n df t)| = |sin(N pi df t)/sin(pi df t)|
    comb, ps = _boresight_phasors()
    grid = default_time_grid(comb, 4096)
    env = beamform_envelope(ps, grid).envelope
    psi = comb.delta_f_hz * grid
    num = np.sin(21 * np.pi * psi)
    den = np.sin(np.pi * psi)
    with np.errstate(invalid="ignore", divide="ignore"):
        kernel = np.abs(np.where(np.abs(den) < 1e-15, 21.0, num / den))
    np.testing.assert_allclose(env, kernel, atol=1e-9)
    assert env[0] == pytest.approx(21.0, rel=1e-12)


def test_envelope_peak_bounded_by_total_amplitude():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(2, 12))
        comb = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=n,
                        duration_s=5e-6, amplitude=0.7)
        geom = linear_array(n, D21)
        sources = tuple(
            Source.point(Vec3(float(rng.uniform(-5, 5)), 0.0,
                              float(rng.uniform(3, 12))),
                         amplitude=float(rng.uniform(0.2, 1.5)),
                         phase_rad=float(rng.uniform(-3, 3)))
            for _ in range(int(rng.integers(1, 4))))
        scene = Scene(sources=sources)
        ps = scene_element_phasors(scene, geom, comb, 19e9)
        env = beamform_envelope(ps, default_time_grid(comb, 2048)).envelope
        bound = n * comb.amplitude * sum(s.amplitude for s in sources)
        assert env.max() <= bound + 1e-9


def test_demo_scene_peak_magnitude(demo_comb, demo_geometry, demo_scene):
    ps = scene_element_phasors(demo_scene, demo_geometry, demo_comb, 19e9)
    env = beamform_envelope(ps, default_time_grid(demo_comb, 4096)).envelope
    assert env.max() == pytest.approx(21.0, rel=0.01)


def test_envelope_periodicity(demo_comb, demo_geometry, demo_scene):
    ps = scene_element_phasors(demo_scene, demo_geometry, demo_comb, 19e9)
    # two full periods on one grid: second half must replay the first
    grid = np.arange(8192) * (10e-6 / 8192)
    env = beamform_envelope(ps, grid).envelope
    np.testing.assert_allclose(env[:4096], env[4096:],
                               atol=1e-12 * env.max())


def test_envelope_is_lo_independent(demo_comb, demo_geometry, demo_scene):
    grid = default_time_grid(demo_comb, 2048)
    envs = []
    for f_lo in (0.0, 19.0e9, 19.0008e9, 18.37e9):
        ps = scene_element_phasors(demo_scene, demo_geometry, demo_comb, f_lo)
        envs.append(beamform_envelope(ps, grid).envelope)
    for env in envs[1:]:
        np.testing.assert_allclose(env, envs[0], atol=1e-8)


def test_rf_route_matches_envelope_via_analytic_signal():
    # baseband comb (tones 1..5.2 MHz, integer cycles in the window): the
    # magnitude of the analytic signal of the RF sum must equal the envelope
    comb = CombSpec(f0_hz=0.8e6, delta_f_hz=0.2e6, num_tones=22,
                    duration_s=5e-6)
    geom = linear_array(22, D21)
    scene = Scene(sources=(Source.farfield(0.0, 0.0),), model="far-field")
    ps = scene_element_phasors(scene, geom, comb, 0.0)
    grid = default_time_grid(comb, 4096)
    rf = beamform_rf(ps, grid)
    env = beamform_envelope(ps, grid).envelope
    np.testing.assert_allclose(np.abs(hilbert(rf)), env, atol=1e-9)


def test_rf_local_maxima_trace_envelope_within_grid_bound():
    # carrier comb: every local max of |rf| must sit within
    # A*N*(2*pi*f_mid*dt)^2/2 of the envelope (grid term dominates the
    # envelope drift within a half cycle at this carrier/grid choice)
    comb = CombSpec(f0_hz=100e6, delta_f_hz=0.2e6, num_tones=21,
                    duration_s=5e-6)
    geom = linear_array(21, D21)
    scene = Scene(sources=(Source.farfield(0.0, 0.0),), model="far-field")
    ps = scene_element_phasors(scene, geom, comb, 0.0)
    grid = default_time_grid(comb, 2 ** 14)
    rf = np.abs(beamform_rf(ps, grid))
    env = beamform_envelope(ps, grid).envelope
    f_mid = float(np.mean(comb.tone_frequencies))
    dt = comb.duration_s / 2 ** 14
    bound = 1.0 * 21 * (2 * np.pi * f_mid * dt) ** 2 / 2
    i = np.where((rf[1:-1] >= rf[:-2]) & (rf[1:-1] >= rf[2:]))[0] + 1
    assert i.size > 900  # roughly two maxima per carrier cycle
    assert np.max(np.abs(rf[i] - env[i])) <= bound


def test_rf_does_not_depend_on_the_mixer_lo(demo_comb, demo_geometry,
                                            demo_scene):
    # the mixer shifts only the carrier, which beamform_rf puts back: every
    # tone of the demo comb is a whole number of Hz, so f_min - f_lo is
    # exact and the traces agree bit for bit
    grid = default_time_grid(demo_comb, 4096)
    rf = [beamform_rf(scene_element_phasors(demo_scene, demo_geometry,
                                            demo_comb, f_lo), grid)
          for f_lo in (0.0, 1e9, 19e9, demo_comb.f0_hz)]
    for other in rf[1:]:
        assert (other == rf[0]).all()


def test_peak_width_u_counts_a_sample_at_exact_half_power_as_inside():
    # samples 2, 3, 5 and 6 sit exactly at half power (1 = sqrt(2)/sqrt(2)),
    # so the -3 dB crossings lie between samples 1-2 and 6-7: 4 samples of
    # 0.1 us, times 2*delta_f = 2 MHz, is 0.8 in u. Counting a sample at
    # half power as outside would give 0.4.
    env = np.array([0.2, 0.5, 1.0, 1.0, math.sqrt(2.0), 1.0, 1.0, 0.5, 0.2,
                    0.1])
    t = np.arange(env.size) * 0.1e-6
    cal = AxisCalibration(slope_sign=1, t0_s=0.0, delta_f_hz=1e6)
    out = BeamformOutput(time_s=t, envelope=env, calibration=cal)
    peak = Peak(time_s=float(t[4]), u=time_to_u(cal, t[4]),
                azimuth_deg=0.0, magnitude=math.sqrt(2.0))
    assert peak_width_u(out, peak) == pytest.approx(0.8, rel=1e-12)


def test_calibrate_demo_axis(demo_comb, demo_geometry):
    cal = calibrate_axis(demo_geometry, demo_comb, 19e9)
    assert cal.slope_sign == -1
    assert 0.0 <= cal.t0_s < demo_comb.period_s
    assert abs(cal.t0_s) < 1e-9  # boresight probe peaks at the window start
    assert cal.delta_f_hz == demo_comb.delta_f_hz


def test_calibrate_descending_flips_slope(demo_comb):
    geom = linear_array(21, D21, tuning_order="descending")
    cal = calibrate_axis(geom, demo_comb, 19e9)
    assert cal.slope_sign == +1


def test_calibrate_round_trips_probe(demo_comb, demo_geometry):
    cal = calibrate_axis(demo_geometry, demo_comb, 19e9)
    scene = Scene(sources=(Source.farfield(0.5, 0.0),), model="far-field")
    ps = scene_element_phasors(scene, demo_geometry, demo_comb, 19e9)
    out = beamform_envelope(ps, default_time_grid(demo_comb, 4096))
    out.calibration = cal
    top = find_peaks(out, 0.5, 0.0)[0]
    assert top.u == pytest.approx(0.5, abs=1e-6)


def test_calibrate_rejects_single_tone():
    comb = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=1,
                    duration_s=5e-6)
    with pytest.raises(ValueError):
        calibrate_axis(linear_array(1, D21), comb, 19e9)


def test_calibrate_rejects_bad_reference_range(demo_comb, demo_geometry):
    with pytest.raises(ValueError):
        calibrate_axis(demo_geometry, demo_comb, 19e9,
                       reference_range_m=-3.0)


def _counted(monkeypatch, name):
    """Replace kspace.<name> by a wrapper; returns the list of its calls'
    positional arguments."""
    calls = []
    real = getattr(kspace, name)

    def counted(*a, **kw):
        calls.append(a)
        return real(*a, **kw)

    monkeypatch.setattr(kspace, name, counted)
    return calls


def _demo_estimate():
    """The demo comb, array, scene and config, built afresh: equal to, but
    not the same objects as, those of an earlier call."""
    comb = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=21,
                    duration_s=5e-6)
    scene = Scene(sources=(source_from_az_range(-45.0, 8.4853),
                           source_from_az_range(20.0, 5.0, amplitude=0.8)))
    return scene, linear_array(21, D21), comb, SimConfig(lo_hz=19.0e9)


def test_a_repeat_estimate_propagates_and_synthesizes_only_its_scene(
        monkeypatch):
    first = run_beamform(*_demo_estimate())
    stacks = _counted(monkeypatch, "_phasor_stack")
    fits = _counted(monkeypatch, "_fit_calibration")
    scene, geom, comb, config = _demo_estimate()
    second = run_beamform(scene, geom, comb, config)
    assert [a[0] for a in stacks] == [(scene,)]
    assert fits == []
    assert second.calibration == first.calibration
    assert np.array_equal(second.envelope, first.envelope)
    assert second.peaks == first.peaks
    for name in ("amplitudes", "tones", "baseband_hz"):
        assert np.array_equal(getattr(second.phasors, name),
                              getattr(first.phasors, name))
    # calibrate_axis then propagates and synthesizes nothing
    synths = _counted(monkeypatch, "_baseband_field")
    assert calibrate_axis(geom, comb, 19.0e9) == first.calibration
    assert len(stacks) == 1 and synths == [] and fits == []


_BASE_CALIBRATION = dict(f0_hz=19.0008e9, delta_f_hz=0.2e6, duration_s=5e-6,
                         amplitude=1.0, dx_m=D21, origin=Vec3(0.0, 0.0, 0.0),
                         tuning_order="ascending", f_lo_hz=19.0e9,
                         sign=PhaseSign.DELAY, grid_points=4096,
                         reference_range_m=None)


def _calibration_of(f0_hz, delta_f_hz, duration_s, amplitude, dx_m, origin,
                    tuning_order, f_lo_hz, sign, grid_points,
                    reference_range_m):
    comb = CombSpec(f0_hz=f0_hz, delta_f_hz=delta_f_hz, num_tones=21,
                    duration_s=duration_s, amplitude=amplitude)
    geom = linear_array(21, dx_m, origin=origin, tuning_order=tuning_order)
    return calibrate_axis(geom, comb, f_lo_hz, sign, grid_points,
                          reference_range_m)


@pytest.mark.parametrize("warm, change", [
    ({}, {"tuning_order": "descending"}),
    ({}, {"dx_m": 0.9 * D21}),
    ({}, {"origin": Vec3(0.01, 0.0, 0.0)}),
    ({}, {"f0_hz": 19.0010e9}),
    ({}, {"delta_f_hz": 0.4e6}),
    ({}, {"duration_s": 1e-5}),
    ({}, {"amplitude": 2.0}),
    ({}, {"f_lo_hz": 18.9e9}),
    ({}, {"sign": PhaseSign.ADVANCE}),
    ({}, {"grid_points": 4097}),
    ({}, {"reference_range_m": 10.0}),
    ({"reference_range_m": 10.0}, {"reference_range_m": 20.0}),
    ({"reference_range_m": 10.0}, {"reference_range_m": None}),
])
def test_each_input_of_the_fit_gets_its_own_calibration(monkeypatch, warm,
                                                        change):
    # a field left out of the memo's key would hand back the warm fit
    warm = {**_BASE_CALIBRATION, **warm}
    _calibration_of(**warm)
    fits = _counted(monkeypatch, "_fit_calibration")
    got = _calibration_of(**{**warm, **change})
    assert len(fits) == 1
    kspace._CALIBRATIONS.clear()
    assert got == _calibration_of(**{**warm, **change})


def test_the_memo_holds_at_most_its_bound():
    comb = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=4,
                    duration_s=5e-6)
    geom = linear_array(4, D21)
    grids = range(8, 8 + kspace._CALIBRATIONS_HELD + 40)
    for g in grids:
        calibrate_axis(geom, comb, 19.0e9, grid_points=g)
    assert len(kspace._CALIBRATIONS) == kspace._CALIBRATIONS_HELD
    held = {key[4] for key in kspace._CALIBRATIONS}
    assert held == set(grids[-kspace._CALIBRATIONS_HELD:])


def test_an_lo_off_the_tone_lattice_is_rejected_before_the_memo(demo_comb,
                                                                demo_geometry):
    # f − LO at 1e18 Hz rounds to multiples of 128 Hz, off the 0.2 MHz
    # lattice; 1e17 rounds to multiples of 16 Hz and stays on it
    with pytest.raises(ValueError, match=r"^sim\.lo_hz: "):
        calibrate_axis(demo_geometry, demo_comb, 1.0e18)
    assert kspace._CALIBRATIONS == {}
    calibrate_axis(demo_geometry, demo_comb, 1.0e17)
    assert len(kspace._CALIBRATIONS) == 1


@pytest.mark.parametrize("change, field", [
    ({"geometry": linear_array(20, D21)}, "array.m"),
    ({"geometry": planar_array(21, 2, D21, D21)}, "array.kind"),
    ({"comb": CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=21,
                       duration_s=7.3e-6)}, "comb.duration_s"),
    ({"config": SimConfig(lo_hz=19.0e9, grid_points=16)}, "sim.grid_points"),
    ({"config": SimConfig(lo_hz=1.0e18)}, "sim.lo_hz"),
])
def test_a_design_point_the_gate_rejects_is_never_remembered(change, field):
    scene, geom, comb, config = _demo_estimate()
    inputs = {"geometry": geom, "comb": comb, "config": config, **change}
    for _ in range(2):
        with pytest.raises(ValueError, match=rf"^{re.escape(field)}\b"):
            run_beamform(scene, inputs["geometry"], inputs["comb"],
                         inputs["config"])
        assert kspace._CALIBRATIONS == {}


def test_the_gate_runs_once_per_design_point(monkeypatch):
    gates = _counted(monkeypatch, "_gate")
    scene, geom, comb, config = _demo_estimate()
    run_beamform(scene, geom, comb, config)
    # equal inputs, fresh objects: the memo is read before the gate
    run_beamform(*_demo_estimate())
    assert calibrate_axis(geom, comb, 19.0e9) is not None
    assert len(gates) == 1
    run_beamform(scene, geom, comb, SimConfig(lo_hz=19.0e9, grid_points=4097))
    run_beamform(scene, geom, comb, SimConfig(lo_hz=19.0e9, grid_points=4097))
    assert len(gates) == 2
    # a design point the memo no longer holds passes the gate again
    kspace._CALIBRATIONS.clear()
    run_beamform(scene, geom, comb, config)
    assert len(gates) == 3


@pytest.mark.parametrize("tuning_order, config", [
    # four rows of 4096 points
    ("descending", SimConfig(lo_hz=19.0e9, grid_points=16384)),
    ("ascending", SimConfig(lo_hz=19.0e9, calibration_range_m=10.0)),
    ("descending", SimConfig(lo_hz=19.0e9, grid_points=16384,
                             phase_sign=PhaseSign.ADVANCE,
                             calibration_range_m=7.0,
                             noise=NoiseSpec(sigma=0.5, seed=3))),
])
def test_a_warm_estimate_equals_a_cold_one(monkeypatch, tuning_order, config):
    scene, _, comb, _ = _demo_estimate()
    geom = linear_array(21, D21, tuning_order=tuning_order)
    cold = run_beamform(scene, geom, comb, config)
    fits = _counted(monkeypatch, "_fit_calibration")
    warm = run_beamform(scene, linear_array(21, D21,
                                            tuning_order=tuning_order),
                        comb, config)
    assert fits == []
    assert np.array_equal(warm.time_s, cold.time_s)
    assert np.array_equal(warm.envelope, cold.envelope)
    assert warm.peaks == cold.peaks and len(cold.peaks) == 2
    assert warm.calibration == cold.calibration
    for name in ("amplitudes", "tones", "baseband_hz"):
        assert np.array_equal(getattr(warm.phasors, name),
                              getattr(cold.phasors, name))
    assert calibrate_axis(geom, comb, config.lo_for(comb), config.phase_sign,
                          config.grid_points,
                          config.calibration_range_m) == cold.calibration
    assert fits == []


def test_quadratic_peak_recovers_parabola_vertex():
    # y = c0 + c1*x + c2*x^2 sampled at x = -1, 0, +1
    for c0, c1, c2 in ((5.0, 0.4, -1.0), (2.0, -0.3, -0.7), (1.0, 0.0, -2.0)):
        ym1, y0, yp1 = c0 - c1 + c2, c0, c0 + c1 + c2
        p, h = _quadratic_peak(ym1, y0, yp1)
        assert p == pytest.approx(-c1 / (2 * c2), abs=1e-12)
        assert h == pytest.approx(c0 - c1 ** 2 / (4 * c2), abs=1e-12)
    # flat triple falls back to the center sample
    assert _quadratic_peak(1.0, 1.0, 1.0) == (0.0, 1.0)


def test_find_peaks_single_farfield_source():
    comb = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=21,
                    duration_s=5e-6)
    geom = linear_array(21, D21)
    scene = Scene(sources=(Source.farfield(-0.3, 0.0),), model="far-field")
    out = run_beamform(scene, geom, comb, SimConfig(lo_hz=19e9))
    assert len(out.peaks) == 1
    assert out.peaks[0].u == pytest.approx(-0.3, abs=1e-4)
    assert out.peaks[0].azimuth_deg == pytest.approx(
        math.degrees(math.asin(-0.3)), abs=0.01)


def test_find_peaks_empty_for_silent_scene(demo_comb, demo_geometry):
    scene = Scene(sources=(Source.point(Vec3(-6, 0, 6), amplitude=0.0),))
    out = run_beamform(scene, demo_geometry, demo_comb, SimConfig(lo_hz=19e9))
    assert out.peaks == []


def test_find_peaks_rejects_constant_envelope():
    ps = PhasorSet([1 + 0j], [1], [1e6], f_lo_hz=19e9, delta_f_hz=0.2e6)
    out = beamform_envelope(ps, np.arange(64) * (5e-6 / 64))
    out.calibration = AxisCalibration(-1, 0.0, 0.2e6)
    with pytest.raises(ValueError):
        find_peaks(out)


def test_find_peaks_reports_period_ambiguity(demo_geometry):
    comb = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=21,
                    duration_s=10e-6)  # two envelope periods
    scene = Scene(sources=(Source.farfield(-0.3, 0.0),), model="far-field")
    out = run_beamform(scene, demo_geometry, comb,
                       SimConfig(lo_hz=19e9, grid_points=8192,
                                 min_separation_u=0.0))
    assert len(out.peaks) == 2
    assert out.peaks[0].u == pytest.approx(out.peaks[1].u, abs=1e-6)
    assert out.peaks[0].magnitude == pytest.approx(out.peaks[1].magnitude,
                                                   rel=1e-6)
    # the two copies sit one period apart in time
    dt = abs(out.peaks[0].time_s - out.peaks[1].time_s)
    assert dt == pytest.approx(comb.period_s, rel=1e-6)


def test_default_thinning_is_the_main_lobe_width_4_over_n(demo_comb,
                                                         demo_geometry):
    # a second plane wave 3/N away is resolved, yet lies inside the 4/N
    # null-to-null main lobe the default thins to; a 2/N default once
    # passed every test
    scene = Scene(sources=(Source.farfield(0.1),
                           Source.farfield(0.1 + 3 / 21, amplitude=0.9)),
                  model="far-field")

    def peaks(min_separation_u):
        return run_beamform(scene, demo_geometry, demo_comb,
                            SimConfig(lo_hz=19e9,
                                      min_separation_u=min_separation_u)).peaks

    assert len(peaks(None)) == 1
    assert len(peaks(2 / 21)) == 2


def test_find_peaks_validation(demo_comb, demo_geometry, demo_scene):
    out = run_beamform(demo_scene, demo_geometry, demo_comb,
                       SimConfig(lo_hz=19e9))
    with pytest.raises(ValueError):
        find_peaks(out, threshold_fraction=0.0)
    with pytest.raises(ValueError):
        find_peaks(out, threshold_fraction=1.0)
    with pytest.raises(ValueError):
        find_peaks(out, min_separation_u=-0.1)
    bare = beamform_envelope(out.phasors, out.time_s)
    with pytest.raises(ValueError):
        find_peaks(bare)  # no calibration attached


def test_estimate_azimuths_demo_scene(demo_comb, demo_geometry, demo_scene,
                                      demo_config):
    peaks = estimate_azimuths(demo_scene, demo_geometry, demo_comb,
                              demo_config)
    assert len(peaks) == 1
    az, mag = peaks[0]
    assert az == pytest.approx(-46.3044, abs=0.02)
    assert mag == pytest.approx(20.9939, rel=1e-3)


def test_azimuth_estimate_is_sign_invariant(demo_comb, demo_geometry,
                                            demo_scene):
    az_d, _ = estimate_azimuths(demo_scene, demo_geometry, demo_comb,
                                SimConfig(lo_hz=19e9))[0]
    az_a, _ = estimate_azimuths(demo_scene, demo_geometry, demo_comb,
                                SimConfig(lo_hz=19e9,
                                          phase_sign=PhaseSign.ADVANCE))[0]
    assert az_a == pytest.approx(az_d, abs=1e-6)


def test_three_source_scene_recovers_all(demo_comb, demo_geometry):
    scene = Scene(sources=(
        Source.point(Vec3(20.0, 0.0, 15.0)),
        Source.point(Vec3(3.0, 0.0, 20.0)),
        Source.point(Vec3(-6.0, 0.0, 6.0)),
    ))
    cfg = SimConfig(lo_hz=19e9, calibration_range_m=17.0)
    out = run_beamform(scene, demo_geometry, demo_comb, cfg)
    assert len(out.peaks) == 3
    est = sorted(p.azimuth_deg for p in out.peaks)
    true = sorted(math.degrees(math.atan2(s.position.x, s.position.z))
                  for s in scene.sources)
    for e, t in zip(est, true):
        assert abs(e - t) < 2.0
    mags = [p.magnitude for p in out.peaks]
    assert (max(mags) - min(mags)) / max(mags) < 0.05


def test_beam_width_scales_inversely_with_tone_count():
    from combbeam.analysis import peak_width_u

    widths = {}
    for n in (11, 21, 41):
        comb = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=n,
                        duration_s=5e-6)
        geom = linear_array(n, D21)
        scene = Scene(sources=(Source.farfield(-0.3, 0.0),),
                      model="far-field")
        out = run_beamform(scene, geom, comb, SimConfig(lo_hz=19e9))
        widths[n] = peak_width_u(out, out.peaks[0])
    assert widths[11] / widths[21] == pytest.approx(21 / 11, rel=0.10)
    assert widths[21] / widths[41] == pytest.approx(41 / 21, rel=0.10)


def _nearest_index_by_scan(time_s, t):
    # the whole-grid form: argmin of circular distance over the grid's span
    span = float(time_s[-1] - time_s[0]) + float(time_s[1] - time_s[0])
    offs = (np.asarray(time_s) - t) % span
    offs = np.minimum(offs, span - offs)
    return int(np.argmin(offs))


@pytest.mark.parametrize("points, t0", [
    (4096, 0.0), (16384, 0.0), (4095, 0.0), (300, 3.7e-7)])
def test_nearest_index_matches_the_grid_scan(points, t0):
    dt = 5e-6 / points
    time_s = t0 + np.arange(points) * dt
    rng = np.random.default_rng(points)
    # inside and outside one span, both grid ends, and across the wrap
    offsets = np.concatenate([
        rng.uniform(-2.0, 3.0, 1000) * points,
        [0.0, points - 1.0, points, -0.3, -0.7, points - 0.3, points - 0.7,
         2 * points + 0.2, -points - 0.2]])
    checked = 0
    for x in offsets:
        if abs(x % 1.0 - 0.5) < 1e-6:
            continue
        t = t0 + x * dt
        assert _nearest_index(time_s, t) == _nearest_index_by_scan(time_s, t)
        checked += 1
    assert checked > 1000
    assert _nearest_index(time_s, t0 + (points - 0.3) * dt) == 0
    assert _nearest_index(time_s, t0 - 0.7 * dt) == points - 1
    # an exact half-sample tie gives one of its two neighbours
    for k in list(rng.integers(0, points, 200)) + [0, points - 1]:
        i = _nearest_index(time_s, t0 + (k + 0.5) * dt)
        assert i in (k, (k + 1) % points)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(grid_points=1)
    with pytest.raises(ValueError):
        SimConfig(threshold_fraction=1.2)
    with pytest.raises(ValueError):
        SimConfig(min_separation_u=-0.5)


@pytest.mark.parametrize("field, bad", [
    ("min_separation_u", math.nan), ("min_separation_u", math.inf),
    ("min_separation_u", -0.1),
    ("calibration_range_m", math.nan), ("calibration_range_m", math.inf),
    ("calibration_range_m", 0.0),
    ("lo_hz", math.nan), ("lo_hz", math.inf), ("lo_hz", -1.0),
    ("grid_points", 2),
])
def test_sim_config_rejects_each_bad_field(field, bad):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: bad})


def test_complex_field_rejects_empty_grid(demo_comb, demo_geometry,
                                          demo_scene):
    ps = scene_element_phasors(demo_scene, demo_geometry, demo_comb, 19e9)
    with pytest.raises(ValueError):
        complex_field(ps, np.array([]))


@st.composite
def _estimates(draw):
    """A scene on a tuned line and a SimConfig: far-field or point sources,
    either tuning order and sign, calibration probes at a range or not,
    4096 or 16384 points (the row split) or an odd grid above the floor,
    with noise on some."""
    n = draw(st.integers(2, 24))
    periods = draw(st.integers(1, 3))
    comb = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=n,
                    duration_s=periods / 0.2e6)
    top = comb.f0_hz + n * comb.delta_f_hz
    geom = linear_array(n, SPEED_OF_LIGHT / top / 2.0, tuning_order=draw(
        st.sampled_from(["ascending", "descending"])))
    azimuths = draw(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=3))
    amps = [draw(st.floats(0.2, 2.0)) for _ in azimuths]
    if draw(st.booleans()):
        scene = Scene(sources=tuple(
            Source.farfield(math.sin(math.radians(az)), 0.0, amplitude=a)
            for az, a in zip(azimuths, amps)), model="far-field")
    else:
        scene = Scene(sources=tuple(
            source_from_az_range(az, draw(st.floats(1.0, 50.0)), amplitude=a)
            for az, a in zip(azimuths, amps)))
    odd = draw(st.integers(n * periods // 2, 1500)) * 2 + 1
    noise = draw(st.none() | st.builds(NoiseSpec, st.floats(0.05, 1.0),
                                       st.integers(0, 1000)))
    config = SimConfig(
        grid_points=draw(st.sampled_from([4096, 16384, odd])),
        lo_hz=19.0e9, phase_sign=draw(st.sampled_from(list(PhaseSign))),
        noise=noise, threshold_fraction=0.3,
        calibration_range_m=draw(st.none() | st.floats(1.0, 30.0)))
    return scene, geom, comb, config


@given(_estimates())
@settings(max_examples=60, deadline=None)
def test_run_beamform_equals_its_stages_run_separately(estimate):
    scene, geom, comb, config = estimate
    # each side fits its own calibration, not one remembered from the other
    # or from an earlier example
    kspace._CALIBRATIONS.clear()
    got = run_beamform(scene, geom, comb, config)
    kspace._CALIBRATIONS.clear()
    f_lo = config.lo_for(comb)
    ps = scene_element_phasors(scene, geom, comb, f_lo, config.phase_sign)
    want = beamform_envelope(ps, default_time_grid(comb, config.grid_points),
                             config.noise)
    want.calibration = calibrate_axis(geom, comb, f_lo, config.phase_sign,
                                      config.grid_points,
                                      config.calibration_range_m)
    want.peaks = find_peaks(want, config.threshold_fraction,
                            config.min_separation_for(comb))
    assert got.time_s.tobytes() == want.time_s.tobytes()
    assert got.envelope.tobytes() == want.envelope.tobytes()
    assert got.phasors.amplitudes.tobytes() == ps.amplitudes.tobytes()
    assert got.calibration == want.calibration
    assert got.peaks == want.peaks
