import cmath
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from combbeam.geometry import Scene, Source, Vec3, linear_array, uv_to_direction
from combbeam.propagation import (
    NoiseSpec,
    PhaseSign,
    PhasorSet,
    complex_noise,
    received_phase_exact,
    received_phase_farfield,
    scene_element_phasors,
    summed_noise,
    wrap_phase,
)
from combbeam.waveform import SPEED_OF_LIGHT, CombSpec

from conftest import D21


@given(st.floats(-1e6, 1e6))
def test_wrap_phase_range_and_congruence(phi):
    w = wrap_phase(phi)
    assert -math.pi < w <= math.pi
    # same point on the unit circle
    assert cmath.exp(1j * w) == pytest.approx(cmath.exp(1j * (phi % (2 * math.pi))),
                                              abs=1e-9)


def test_farfield_boresight_phase_is_source_phase():
    src = Source.farfield(0.0, 0.0, phase_rad=0.4)
    for x in (0.0, 0.013, 2.5):
        for sign in PhaseSign:
            phi = received_phase_farfield(src, Vec3(x, 0, 0), 19e9, sign)
            assert phi == pytest.approx(0.4, abs=1e-12)


def test_farfield_half_u_full_wavelength_element():
    lam = SPEED_OF_LIGHT / 19e9
    src = Source.farfield(0.5, 0.0, phase_rad=0.1)
    phi = received_phase_farfield(src, Vec3(lam, 0, 0), 19e9, PhaseSign.DELAY)
    # u*x = lambda/2 -> half a cycle away from the source phase
    assert cmath.exp(1j * phi) == pytest.approx(cmath.exp(1j * (0.1 + math.pi)),
                                                abs=1e-9)


def test_farfield_step_matches_quoted_magnitude_and_sign():
    # adjacent-element phase step for u = -0.70711 at the tone where the
    # pitch is exactly half a wavelength: u*d/lambda = -0.35355 cycles
    src = Source.farfield(-0.70711, 0.0)
    f = 19.005e9
    phi0 = received_phase_farfield(src, Vec3(0, 0, 0), f, PhaseSign.DELAY)
    phi1 = received_phase_farfield(src, Vec3(D21, 0, 0), f, PhaseSign.DELAY)
    step = wrap_phase(phi1 - phi0)
    assert abs(step) / (2 * math.pi) == pytest.approx(0.35354, abs=2e-5)
    assert step < 0  # delay phase decreases toward the source side (u < 0)
    # advance flips the step sign
    a0 = received_phase_farfield(src, Vec3(0, 0, 0), f, PhaseSign.ADVANCE)
    a1 = received_phase_farfield(src, Vec3(D21, 0, 0), f, PhaseSign.ADVANCE)
    assert wrap_phase(a1 - a0) == pytest.approx(-step, abs=1e-12)


def test_exact_phase_against_extended_precision():
    # oracle: wrapped -2*pi*frac(distance*f/c) at 50-digit precision
    mpmath.mp.dps = 50
    src = Source.point(Vec3(-6.0, 0.0, 6.0))
    f = 19.001e9
    for m in (0, 7, 20):
        x = m * D21
        phi = received_phase_exact(src, Vec3(x, 0, 0), f, PhaseSign.DELAY)
        dist = mpmath.sqrt((mpmath.mpf(-6) - mpmath.mpf(x)) ** 2 + 36)
        cycles = dist * mpmath.mpf(repr(f)) / 299792458
        frac = cycles - mpmath.floor(cycles)
        oracle = float(-2 * mpmath.pi * frac)
        assert cmath.exp(1j * phi) == pytest.approx(cmath.exp(1j * oracle),
                                                    abs=1e-10)


def test_exact_advance_is_negated_delay():
    src = Source.point(Vec3(3.0, -1.0, 7.0))
    pos = Vec3(0.05, 0.0, 0.0)
    d = received_phase_exact(src, pos, 19.003e9, PhaseSign.DELAY)
    a = received_phase_exact(src, pos, 19.003e9, PhaseSign.ADVANCE)
    assert cmath.exp(1j * a) == pytest.approx(cmath.exp(-1j * d), abs=1e-12)


def test_exact_reduces_to_farfield_at_long_range():
    # element-relative phases of a distant point source converge to the
    # plane-wave model, and the residual shrinks ~1/range; this pins the
    # far-field sign to the delay model's limit
    u = -0.70711
    f = 19.003e9
    ux, uy, uz = uv_to_direction(u, 0.0)
    plane = Source.farfield(u, 0.0)
    positions = [Vec3(m * D21, 0, 0) for m in range(21)]

    def max_cycle_dev(r):
        point = Source.point(Vec3(r * ux, r * uy, r * uz))
        devs = []
        exact0 = received_phase_exact(point, positions[0], f, PhaseSign.DELAY)
        ff0 = received_phase_farfield(plane, positions[0], f, PhaseSign.DELAY)
        for pos in positions[1:]:
            exact_rel = received_phase_exact(point, pos, f, PhaseSign.DELAY) - exact0
            ff_rel = received_phase_farfield(plane, pos, f, PhaseSign.DELAY) - ff0
            devs.append(abs(wrap_phase(exact_rel - ff_rel)) / (2 * math.pi))
        return max(devs)

    dev_1k = max_cycle_dev(1e3)
    dev_1m = max_cycle_dev(1e6)
    assert dev_1k < 1e-3
    assert dev_1m < 1e-5
    assert dev_1m < dev_1k / 100


def test_wrong_source_kind_raises():
    plane = Source.farfield(0.3, 0.0)
    point = Source.point(Vec3(0, 0, 5))
    with pytest.raises(ValueError):
        received_phase_exact(plane, Vec3(0, 0, 0), 19e9)
    with pytest.raises(ValueError):
        received_phase_farfield(point, Vec3(0, 0, 0), 19e9)
    with pytest.raises(ValueError):
        received_phase_exact(point, Vec3(0, 0, 0), -19e9)


def test_scene_phasors_demo_layout(demo_comb, demo_geometry, demo_scene):
    ps = scene_element_phasors(demo_scene, demo_geometry, demo_comb,
                               19.0e9, PhaseSign.DELAY)
    assert len(ps) == 21
    assert ps.amplitudes.shape == ps.baseband_hz.shape == (21,)
    assert ps.tones.tolist() == list(range(1, 22))
    # element m hears tone m+1, mixed down to 1.0 + 0.2*m MHz
    np.testing.assert_allclose(ps.baseband_hz,
                               1.0e6 + 0.2e6 * np.arange(21), rtol=0, atol=1e-6)
    np.testing.assert_allclose(np.abs(ps.amplitudes), 1.0, atol=1e-12)
    # each phasor's angle is the per-element received phase
    src = demo_scene.sources[0]
    for e, (tone, a) in enumerate(zip(ps.tones, ps.amplitudes)):
        pos = Vec3(e * D21, 0.0, 0.0)
        f = demo_comb.f0_hz + tone * demo_comb.delta_f_hz
        expected = received_phase_exact(src, pos, f, PhaseSign.DELAY)
        assert cmath.exp(1j * cmath.phase(a)) == pytest.approx(
            cmath.exp(1j * expected), abs=1e-12)


def test_scene_phasors_superpose_linearly(demo_comb, demo_geometry):
    s1 = Source.point(Vec3(-6, 0, 6), amplitude=0.7, phase_rad=0.3)
    s2 = Source.point(Vec3(4, 0, 9), amplitude=1.4, phase_rad=-1.1)

    def amps(*sources):
        scene = Scene(sources=sources)
        return scene_element_phasors(scene, demo_geometry, demo_comb,
                                     19e9).amplitudes

    np.testing.assert_allclose(amps(s1, s2), amps(s1) + amps(s2), atol=1e-12)


def test_scene_phasors_advance_conjugates(demo_comb, demo_geometry, demo_scene):
    d = scene_element_phasors(demo_scene, demo_geometry, demo_comb,
                              19e9, PhaseSign.DELAY)
    a = scene_element_phasors(demo_scene, demo_geometry, demo_comb,
                              19e9, PhaseSign.ADVANCE)
    np.testing.assert_allclose(a.amplitudes, np.conj(d.amplitudes), atol=1e-12)


@pytest.mark.parametrize("sources, model", [
    ((Source.point(Vec3(-6.0, 0.0, 6.0), 1.0, 0.7),
      Source.point(Vec3(2.0, 0.5, 9.0), 0.6, -2.1)), "exact-spherical"),
    ((Source.farfield(-0.4, 0.0, 1.0, 0.7),
      Source.farfield(0.25, 0.1, 0.6, -2.1)), "far-field"),
])
def test_advance_is_the_conjugate_delay_of_the_negated_source_phases(
        demo_comb, demo_geometry, sources, model):
    # ADVANCE negates only the propagation term and adds phase_rad as it
    # is, so it conjugates DELAY only once every source phase is negated
    scene = Scene(sources=sources, model=model)
    negated = Scene(sources=tuple(replace(s, phase_rad=-s.phase_rad)
                                  for s in sources), model=model)

    def amps(sc, sign):
        return scene_element_phasors(sc, demo_geometry, demo_comb, 19e9,
                                     sign).amplitudes

    advance = amps(scene, PhaseSign.ADVANCE)
    conj_delay = np.conj(amps(negated, PhaseSign.DELAY))
    np.testing.assert_allclose(advance, conj_delay, rtol=0, atol=1e-12)
    assert np.abs(advance - np.conj(amps(scene, PhaseSign.DELAY))).max() > 0.1


def test_zero_amplitude_source_gives_zero_phasors(demo_comb, demo_geometry):
    scene = Scene(sources=(Source.point(Vec3(-6, 0, 6), amplitude=0.0),))
    ps = scene_element_phasors(scene, demo_geometry, demo_comb, 19e9)
    np.testing.assert_array_equal(ps.amplitudes, 0.0)


def test_farfield_model_reduces_point_sources(demo_comb, demo_geometry):
    point = Source.point(Vec3(0.3e6, 0.0, 0.4e6))
    scene = Scene(sources=(point,), model="far-field")
    ps = scene_element_phasors(scene, demo_geometry, demo_comb, 19e9)
    plane = Source.farfield(0.6, 0.0)
    for e, (tone, a) in enumerate(zip(ps.tones, ps.amplitudes)):
        pos = Vec3(e * D21, 0.0, 0.0)
        f = demo_comb.f0_hz + tone * demo_comb.delta_f_hz
        expected = received_phase_farfield(plane, pos, f, PhaseSign.DELAY)
        assert cmath.phase(a) == pytest.approx(expected, abs=1e-9)


def test_comb_amplitude_scales_phasors(demo_geometry, demo_scene):
    comb1 = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=21,
                     duration_s=5e-6, amplitude=1.0)
    comb3 = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=21,
                     duration_s=5e-6, amplitude=3.0)
    a1 = scene_element_phasors(demo_scene, demo_geometry, comb1,
                               19e9).amplitudes
    a3 = scene_element_phasors(demo_scene, demo_geometry, comb3,
                               19e9).amplitudes
    np.testing.assert_allclose(a3, 3.0 * a1, atol=1e-12)


def test_tuning_mismatch_raises(demo_comb, demo_scene):
    wrong = linear_array(22, D21)
    with pytest.raises(ValueError):
        scene_element_phasors(demo_scene, wrong, demo_comb, 19e9)


def test_phasor_set_validation():
    one = ([1 + 0j], [1], [1e6])
    with pytest.raises(ValueError):
        PhasorSet([], [], [], f_lo_hz=0.0, delta_f_hz=1e6)
    with pytest.raises(ValueError):
        PhasorSet(*one, f_lo_hz=-1.0, delta_f_hz=1e6)
    with pytest.raises(ValueError):
        PhasorSet(*one, f_lo_hz=0.0, delta_f_hz=0.0)
    with pytest.raises(ValueError):
        PhasorSet([1 + 0j, 1j], [1], [1e6], f_lo_hz=0.0, delta_f_hz=1e6)
    ps = PhasorSet(*one, f_lo_hz=0.0, delta_f_hz=1e6)
    with pytest.raises(ValueError):
        ps.amplitudes[0] = 2.0    # read-only


def test_noise_is_deterministic_per_seed_and_trial():
    spec = NoiseSpec(sigma=0.5, seed=42)
    a = complex_noise(spec, 4, 64, trial=3)
    b = complex_noise(spec, 4, 64, trial=3)
    c = complex_noise(spec, 4, 64, trial=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (4, 64)


@pytest.mark.parametrize("seed, trial, sigma", [
    (0, 0, 1.0), (42, 3, 0.5), (7, 11, 3.7), (123, 0, 1e-3), (5, 2, 250.0)])
def test_noise_equals_the_complex_expression_bit_for_bit(seed, trial, sigma):
    w = complex_noise(NoiseSpec(sigma=sigma, seed=seed), 3, 257, trial)
    g = np.random.default_rng((seed, trial)).standard_normal((2, 3, 257))
    want = sigma / math.sqrt(2.0) * (g[0] + 1j * g[1])
    # as integers, so that a signed zero or a last-bit change would show
    np.testing.assert_array_equal(w.view(np.uint64), want.view(np.uint64))


def test_noise_power_matches_sigma():
    spec = NoiseSpec(sigma=1.3, seed=0)
    w = complex_noise(spec, 16, 4096)
    power = float(np.mean(np.abs(w) ** 2))
    assert power == pytest.approx(1.3 ** 2, rel=0.05)


def test_summed_noise_has_the_distribution_of_the_element_sum():
    e, sigma, g = 21, 0.7, 400_000
    spec = NoiseSpec(sigma=sigma, seed=5)
    w = summed_noise(spec, e, g, trial=1)
    assert w.shape == (g,)
    power = e * sigma ** 2
    assert float(np.mean(np.abs(w) ** 2)) == pytest.approx(power, rel=0.02)
    # the per-element sum it replaces, drawn in blocks to bound memory
    ref = np.concatenate([complex_noise(spec, e, g // 10, trial=k).sum(axis=0)
                          for k in range(10)])
    assert float(np.mean(np.abs(w) ** 2)) == pytest.approx(
        float(np.mean(np.abs(ref) ** 2)), rel=0.03)
    assert float(np.var(w.real)) == pytest.approx(power / 2, rel=0.02)
    assert float(np.var(w.imag)) == pytest.approx(power / 2, rel=0.02)
    assert abs(float(np.corrcoef(w.real, w.imag)[0, 1])) < 0.01
    np.testing.assert_array_equal(summed_noise(spec, e, 64, trial=1),
                                  summed_noise(spec, e, 64, trial=1))
    assert not np.array_equal(summed_noise(spec, e, 64, trial=1),
                              summed_noise(spec, e, 64, trial=2))


def test_zero_sigma_noise_is_silent():
    w = complex_noise(NoiseSpec(sigma=0.0, seed=1), 3, 10)
    np.testing.assert_array_equal(w, 0.0)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(sigma=1.0, seed=-2)
