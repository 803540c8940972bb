import math

import numpy as np
import pytest

from combbeam.conventional import (
    PhaseMap,
    beamform_conventional,
    curvature_profile,
    fit_phase_plane,
    mean_adjacent_steps,
    phase_map,
    scene_snapshot,
    steering_vector,
    unwrap_map_deg,
)
from combbeam.geometry import Scene, Source, Vec3, linear_array, planar_array
from combbeam.waveform import SPEED_OF_LIGHT

# element grids reused by the map tests: 14x14 at half wavelength
GRID40 = planar_array(14, 14, 0.0018737028625, 0.0018737028625)
GRID19 = planar_array(14, 14, 0.007889275210526316, 0.007889275210526316)
SRC_OBLIQUE = Source.point(Vec3(0.08603836253460133, 1.9793183896528599,
                                0.982297152745893))


def test_steering_boresight_is_all_ones():
    weights = steering_vector(planar_array(4, 5, 0.01, 0.012), 0.0, 0.0,
                              0.015)
    np.testing.assert_array_equal(weights, np.ones((4, 5)))


def test_steering_unit_modulus_and_loop_oracle():
    geom = planar_array(6, 4, 0.0079, 0.0083)
    lam = 0.0158
    u, v = -0.42, 0.31
    weights = steering_vector(geom, u, v, lam)
    np.testing.assert_allclose(np.abs(weights), 1.0, atol=1e-12)
    k = 2 * math.pi / lam
    for m in range(6):
        for n in range(4):
            expected = np.exp(-1j * k * (m * 0.0079 * u + n * 0.0083 * v))
            assert weights[m, n] == pytest.approx(expected, abs=1e-12)


def test_steering_rejects_outside_unit_disk():
    with pytest.raises(ValueError):
        steering_vector(planar_array(2, 2, 0.01, 0.01), 0.9, 0.5, 0.015)
    with pytest.raises(ValueError):
        steering_vector(planar_array(2, 2, 0.01, 0.01), 0.0, 0.0, -1.0)


def test_beamform_matches_double_sum_oracle():
    rng = np.random.default_rng(11)
    geom = planar_array(8, 8, 0.004, 0.0035)
    lam = 0.0157744
    snap = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    u_grid = rng.uniform(-1, 1, 7)
    v_grid = rng.uniform(-1, 1, 5)
    out = beamform_conventional(snap, geom, lam, u_grid, v_grid)
    k = 2 * math.pi / lam
    for a, u in enumerate(u_grid):
        for b, v in enumerate(v_grid):
            acc = 0.0 + 0.0j
            for m in range(8):
                for n in range(8):
                    acc += snap[m, n] * np.exp(
                        1j * k * (m * 0.004 * u + n * 0.0035 * v))
            assert out[a, b] == pytest.approx(abs(acc), rel=1e-10)


def test_beamform_matches_exp_built_steering_at_scale():
    # the running-product steering weights drift by ~M·eps per entry
    rng = np.random.default_rng(5)
    geom = linear_array(64, 0.0079)
    lam = 0.0157744
    snap = rng.standard_normal((64, 1)) + 1j * rng.standard_normal((64, 1))
    u_grid = np.linspace(-1.0, 1.0, 8192)
    out = beamform_conventional(snap, geom, lam, u_grid, np.array([0.0]))
    k = 2 * math.pi / lam
    steer = np.exp(1j * k * 0.0079 * np.arange(64)[None, :] * u_grid[:, None])
    want = np.abs(steer @ snap)
    assert np.abs(out - want).max() <= 1e-12 * np.abs(snap).sum()


@pytest.mark.parametrize("geom, u_points, v_points", [
    (planar_array(5, 3, 0.0041, 0.0036), 7, 4),
    (planar_array(3, 6, 0.0041, 0.0036), 4, 9),
    (planar_array(4, 3, 0.0041, 0.0036), 6, 1),
    (planar_array(6, 1, 0.0041, 0.0036), 9, 2),
    (planar_array(1, 5, 0.0041, 0.0036), 1, 6),
    (linear_array(7, 0.0041), 11, 1),
])
def test_beamform_non_square_shapes_match_double_sum(geom, u_points,
                                                     v_points):
    # M != N and U != V: a transposed factor cannot hide behind a square case
    rng = np.random.default_rng(geom.m * 10 + geom.n)
    lam = 0.0157744
    snap = (rng.standard_normal((geom.m, geom.n))
            + 1j * rng.standard_normal((geom.m, geom.n)))
    u_grid = rng.uniform(-1, 1, u_points)
    v_grid = rng.uniform(-1, 1, v_points)
    out = beamform_conventional(snap, geom, lam, u_grid, v_grid)
    assert out.shape == (u_points, v_points)
    k = 2 * math.pi / lam
    want = np.zeros((u_points, v_points))
    for a, u in enumerate(u_grid):
        for b, v in enumerate(v_grid):
            acc = 0.0 + 0.0j
            for m in range(geom.m):
                for n in range(geom.n):
                    acc += snap[m, n] * np.exp(
                        1j * k * (m * geom.dx_m * u + n * geom.dy_m * v))
            want[a, b] = abs(acc)
    assert np.abs(out - want).max() <= 1e-12 * np.abs(snap).sum()


def test_matched_farfield_source_reaches_full_gain():
    geom = planar_array(6, 7, 0.0079, 0.0079)
    freq = 19e9
    lam = SPEED_OF_LIGHT / freq
    scene = Scene(sources=(Source.farfield(0.35, -0.2, amplitude=1.7),),
                  model="far-field")
    snap = scene_snapshot(scene, geom, freq)
    out = beamform_conventional(snap, geom, lam, [0.35], [-0.2])
    assert out[0, 0] == pytest.approx(6 * 7 * 1.7, rel=1e-12)
    # and it is the scan maximum
    grid = np.linspace(-1, 1, 81)
    assert beamform_conventional(snap, geom, lam, grid, grid).max() <= \
        out[0, 0] * (1 + 1e-9)


def test_snapshot_is_linear_in_sources():
    geom = planar_array(5, 5, 0.008, 0.008)
    s1 = Source.point(Vec3(2.0, 1.0, 7.0), amplitude=0.8)
    s2 = Source.point(Vec3(-3.0, 0.5, 5.0), amplitude=1.3, phase_rad=0.4)
    both = scene_snapshot(Scene(sources=(s1, s2)), geom, 19e9)
    split = (scene_snapshot(Scene(sources=(s1,)), geom, 19e9)
             + scene_snapshot(Scene(sources=(s2,)), geom, 19e9))
    np.testing.assert_allclose(both, split, atol=1e-12)


def test_beamform_validation():
    geom = planar_array(4, 4, 0.01, 0.01)
    snap = np.ones((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        beamform_conventional(np.ones((3, 4)), geom, 0.015, [0.0], [0.0])
    with pytest.raises(ValueError):
        beamform_conventional(snap, geom, 0.015, [1.5], [0.0])
    with pytest.raises(ValueError):
        beamform_conventional(snap, geom, 0.015, [], [0.0])


def test_phase_map_is_wrapped_and_boresight_flat():
    pm = phase_map(GRID19, SRC_OBLIQUE, 19e9)
    assert pm.phase_deg.shape == (14, 14)
    assert np.all(pm.phase_deg > -180.0) and np.all(pm.phase_deg <= 180.0)
    flat = phase_map(GRID19, Source.farfield(0.0, 0.0), 19e9)
    np.testing.assert_allclose(flat.phase_deg, 0.0, atol=1e-9)


def test_unwrap_recovers_synthetic_plane():
    x = np.arange(6) * 0.01
    y = np.arange(5) * 0.01
    true = 10.0 + 70.0 * np.arange(6)[:, None] + 40.0 * np.arange(5)[None, :]
    wrapped = (true + 180.0) % 360.0 - 180.0
    pm = PhaseMap(phase_deg=wrapped, x_m=x, y_m=y, freq_hz=1e9)
    np.testing.assert_allclose(unwrap_map_deg(pm), true, atol=1e-9)
    assert mean_adjacent_steps(pm) == (pytest.approx(70.0, abs=1e-9),
                                       pytest.approx(40.0, abs=1e-9))


def test_unwrap_rejects_half_cycle_steps():
    true = 180.0 * np.arange(4)[:, None] + np.zeros((1, 3))
    wrapped = (true + 180.0) % 360.0 - 180.0
    pm = PhaseMap(phase_deg=wrapped, x_m=np.arange(4.0), y_m=np.arange(3.0),
                  freq_hz=1e9)
    with pytest.raises(ValueError):
        unwrap_map_deg(pm)


def test_oblique_map_step_ratio_tracks_direction_cosines():
    # mean per-element step along each axis is set by that axis's direction
    # cosine of the source as seen from the array center
    step_x, step_y = mean_adjacent_steps(phase_map(GRID40, SRC_OBLIQUE, 40e9))
    assert step_y / step_x == pytest.approx(26.6336, abs=5e-4)
    center = 6.5 * 0.0018737028625
    p = SRC_OBLIQUE.position
    d = np.array([p.x - center, p.y - center, p.z])
    d /= np.linalg.norm(d)
    assert step_y / step_x == pytest.approx(abs(d[1] / d[0]), rel=1e-3)
    # reported with two decimals this reads 26.63
    assert round(step_y / step_x, 2) == 26.63


def test_mirrored_source_transposes_the_map():
    mirrored = Source.point(Vec3(SRC_OBLIQUE.position.y,
                                 SRC_OBLIQUE.position.x,
                                 SRC_OBLIQUE.position.z))
    pm = phase_map(GRID40, SRC_OBLIQUE, 40e9)
    pm_t = phase_map(GRID40, mirrored, 40e9)
    np.testing.assert_array_equal(pm_t.phase_deg, pm.phase_deg.T)
    sx, sy = mean_adjacent_steps(pm)
    sx_t, sy_t = mean_adjacent_steps(pm_t)
    assert (sx_t, sy_t) == (sy, sx)  # the fast/slow axes swap exactly
    assert sx_t / sy_t == pytest.approx(26.6336, abs=5e-4)


def test_fit_phase_plane_recovers_gradient():
    x = np.arange(6) * 0.004
    y = np.arange(4) * 0.005
    plane = (3.0 + 250.0 * x[:, None] + -90.0 * y[None, :])
    wrapped = (plane + 180.0) % 360.0 - 180.0
    pm = PhaseMap(phase_deg=wrapped, x_m=x, y_m=y, freq_hz=1e9)
    coef, residual = fit_phase_plane(pm)
    np.testing.assert_allclose(coef, [3.0, 250.0, -90.0], atol=1e-9)
    np.testing.assert_allclose(residual, 0.0, atol=1e-9)


def test_farfield_curvature_is_zero():
    prof = curvature_profile(GRID19, Source.farfield(0.3, 0.1), 19e9)
    assert np.max(np.abs(prof)) < 1e-12


def test_boresight_curvature_matches_quadratic_wavefront():
    # independent oracle: residual of the second-order path expansion
    # (|d|^2 - (d.u)^2) / (2R) after removing its own best-fit plane
    cx = 6.5 * 0.007889275210526316
    freq = 19e9
    lam = SPEED_OF_LIGHT / freq
    for r in (1.0, 4.0):
        src = Source.point(Vec3(cx, cx, r))
        prof = curvature_profile(GRID19, src, freq)
        xx, yy = np.meshgrid(np.arange(14) * 0.007889275210526316,
                             np.arange(14) * 0.007889275210526316,
                             indexing="ij")
        dx, dy = xx - cx, yy - cx
        quad = (dx * dx + dy * dy) / (2.0 * r) / lam  # cycles, boresight
        a = np.column_stack([np.ones(quad.size), xx.ravel(), yy.ravel()])
        coef, *_ = np.linalg.lstsq(a, quad.ravel(), rcond=None)
        oracle = quad - (a @ coef).reshape(quad.shape)
        assert np.max(np.abs(prof)) == pytest.approx(
            np.max(np.abs(oracle)), rel=0.10)
    one_m = curvature_profile(GRID19, Source.point(Vec3(cx, cx, 1.0)), freq)
    assert np.max(np.abs(one_m)) == pytest.approx(0.1023871, abs=1e-5)


def test_curvature_halves_per_range_doubling():
    cx = 6.5 * 0.007889275210526316
    ranges = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    peaks = [np.max(np.abs(curvature_profile(
        GRID19, Source.point(Vec3(cx, cx, r)), 19e9))) for r in ranges]
    assert all(a > b for a, b in zip(peaks, peaks[1:]))
    for a, b in zip(peaks, peaks[1:]):
        assert 1.8 <= a / b <= 2.2


def test_phase_map_on_linear_array():
    geom = linear_array(8, 0.0079)
    pm = phase_map(geom, Source.farfield(0.5, 0.0), 19e9)
    assert pm.phase_deg.shape == (8, 1)
    steps = np.diff(unwrap_map_deg(pm), axis=0)
    expected = 360.0 * 0.0079 * 0.5 * 19e9 / SPEED_OF_LIGHT
    np.testing.assert_allclose(np.abs(steps), expected, rtol=1e-12)
