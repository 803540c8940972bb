"""The array propagation kernel against the scalar per-element phase
functions, over random linear and planar arrays and both scene models
(the comb-tuned phasors over linear arrays only). The oracles take element
positions and tone frequencies from the scalar formulas written out here,
not from the package's array forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from combbeam.conventional import phase_map, scene_snapshot
from combbeam.geometry import (
    Scene,
    Source,
    Vec3,
    element_positions_array,
    linear_array,
    planar_array,
)
from combbeam.propagation import (
    PhaseSign,
    received_phase,
    received_phase_exact,
    received_phase_farfield,
    scene_element_phasors,
)
from combbeam.waveform import CombSpec

REL_TOL = 1e-10


_origins = st.builds(Vec3, *(st.floats(-1.0, 1.0) for _ in range(3)))


@st.composite
def linear_geometries(draw, tuning_orders=st.just("ascending")):
    return linear_array(draw(st.integers(1, 24)), draw(st.floats(0.002, 0.05)),
                        origin=draw(_origins),
                        tuning_order=draw(tuning_orders))


@st.composite
def geometries(draw):
    if draw(st.booleans()):
        return draw(linear_geometries())
    origin = draw(_origins)
    dx = draw(st.floats(0.002, 0.05))
    return planar_array(draw(st.integers(1, 8)), draw(st.integers(1, 8)), dx,
                        draw(st.floats(0.002, 0.05)), origin=origin)


@st.composite
def point_sources(draw):
    # any direction, half of them behind the array (z < 0)
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(-math.pi, math.pi))
    r = draw(st.floats(0.5, 100.0))
    pos = Vec3(r * math.sin(theta) * math.cos(phi),
               r * math.sin(theta) * math.sin(phi), r * math.cos(theta))
    return Source.point(pos, amplitude=draw(_amplitudes),
                        phase_rad=draw(_phases))


@st.composite
def plane_waves(draw):
    u = draw(st.floats(-1.0, 1.0))
    v = draw(st.floats(-1.0, 1.0)) * math.sqrt(1.0 - u * u)
    return Source.farfield(u, v, amplitude=draw(_amplitudes),
                           phase_rad=draw(_phases))


_amplitudes = st.just(0.0) | st.floats(0.1, 2.0)
_phases = st.floats(-10.0, 10.0)


@st.composite
def scenes(draw):
    if draw(st.booleans()):
        return Scene(sources=tuple(draw(st.lists(point_sources(), min_size=1,
                                                 max_size=3))))
    sources = st.lists(point_sources() | plane_waves(), min_size=1, max_size=3)
    return Scene(sources=tuple(draw(sources)), model="far-field")


def _positions(geometry) -> list[Vec3]:
    """Element (m, n) at origin + (m·dx, n·dy, 0), m outer."""
    o = geometry.origin
    return [Vec3(o.x + m * geometry.dx_m, o.y + n * geometry.dy_m, o.z)
            for m in range(geometry.m) for n in range(geometry.n)]


def _oracle_phase(source: Source, farfield: bool, pos: Vec3, freq: float,
                  sign: PhaseSign) -> float:
    if not farfield:
        return received_phase_exact(source, pos, freq, sign)
    u, v, _ = source.direction_cosines()
    plane = Source.farfield(u, v, source.amplitude, source.phase_rad)
    return received_phase_farfield(plane, pos, freq, sign)


def _oracle_field(scene: Scene, positions, freqs, sign: PhaseSign):
    out = np.zeros(len(positions), dtype=complex)
    for e, (pos, f) in enumerate(zip(positions, freqs)):
        for src in scene.sources:
            if src.amplitude != 0.0:
                phi = _oracle_phase(src, scene.model == "far-field", pos, f,
                                    sign)
                out[e] += src.amplitude * complex(math.cos(phi), math.sin(phi))
    return out


def _check(got, want, bound: float, label: str) -> None:
    err = float(np.abs(np.asarray(got).ravel() - want).max())
    if bound == 0.0:
        assert err == 0.0
        return
    target(err / bound, label=label)
    assert err <= REL_TOL * bound


@given(geometry=linear_geometries(st.sampled_from(["ascending",
                                                   "descending"])),
       scene=scenes(), sign=st.sampled_from(PhaseSign),
       f0=st.floats(1e9, 40e9), delta_f=st.floats(1e4, 1e7),
       comb_amplitude=st.floats(0.1, 3.0), lo_fraction=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_scene_element_phasors_match_scalar_oracle(
        geometry, scene, sign, f0, delta_f, comb_amplitude, lo_fraction):
    e = geometry.num_elements
    comb = CombSpec(f0_hz=f0, delta_f_hz=delta_f, num_tones=e,
                    duration_s=1.0 / delta_f, amplitude=comb_amplitude)
    descending = geometry.tuning_order == "descending"
    tones = tuple(range(e, 0, -1) if descending else range(1, e + 1))
    f_lo = lo_fraction * f0
    ps = scene_element_phasors(scene, geometry, comb, f_lo, sign)
    freqs = [f0 + t * delta_f for t in tones]
    want = comb_amplitude * _oracle_field(scene, _positions(geometry), freqs,
                                          sign)
    bound = comb_amplitude * sum(s.amplitude for s in scene.sources)
    _check(ps.amplitudes, want, bound, "phasors")
    assert ps.tones.tolist() == list(tones)
    np.testing.assert_array_equal(ps.baseband_hz,
                                  [f - f_lo for f in freqs])


@given(geometry=geometries(), scene=scenes(), freq=st.floats(1e9, 50e9))
@settings(max_examples=200, deadline=None)
def test_scene_snapshot_matches_scalar_oracle(geometry, scene, freq):
    snap = scene_snapshot(scene, geometry, freq)
    assert snap.shape == (geometry.m, geometry.n)
    positions = _positions(geometry)
    want = _oracle_field(scene, positions, [freq] * len(positions),
                         PhaseSign.ADVANCE)
    _check(snap, want, sum(s.amplitude for s in scene.sources), "snapshot")


@given(geometry=geometries(), source=point_sources() | plane_waves(),
       freq=st.floats(1e9, 50e9))
@settings(max_examples=200, deadline=None)
def test_phase_map_matches_scalar_oracle(geometry, source, freq):
    deg = phase_map(geometry, source, freq).phase_deg
    assert deg.shape == (geometry.m, geometry.n)
    assert np.all((deg > -180.0) & (deg <= 180.0))
    want = [_oracle_phase(source, source.is_farfield, pos, freq,
                          PhaseSign.DELAY)
            for pos in _positions(geometry)]
    # compare on the unit circle: ±180° are the same phase
    _check(np.exp(1j * np.radians(deg)), np.exp(1j * np.array(want)), 1.0,
           "phase_map")


def test_farfield_reduction_keeps_w_positive_behind_the_array():
    # a point behind the array is reduced to (u, v, +w), not to p.z/r
    geom = linear_array(4, 0.01, origin=Vec3(0.0, 0.0, 0.3))
    src = Source.point(Vec3(3.0, 0.0, -4.0))
    phi = received_phase(src, element_positions_array(geom), 19e9,
                         farfield=True)
    plane = Source.farfield(0.6, 0.0)
    want = [received_phase_farfield(plane, p, 19e9)
            for p in _positions(geom)]
    np.testing.assert_allclose(np.exp(1j * phi), np.exp(1j * np.array(want)),
                               rtol=0, atol=1e-12)


def test_kernel_validation():
    pos = element_positions_array(linear_array(3, 0.01))
    point = Source.point(Vec3(0.0, 0.0, 5.0))
    for bad in (0.0, -19e9, float("nan"), float("inf"), [19e9, 0.0, 19e9]):
        with pytest.raises(ValueError, match="frequency"):
            received_phase(point, pos, bad)
    with pytest.raises(ValueError):
        received_phase(Source.farfield(0.2), pos, 19e9, farfield=False)
