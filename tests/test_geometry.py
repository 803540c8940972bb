import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combbeam.geometry import (
    ORIGIN,
    ArrayGeometry,
    Scene,
    Source,
    Vec3,
    azimuth_elevation_to_uv,
    azimuth_of,
    distance,
    element_positions_array,
    linear_array,
    planar_array,
    point_from_az_el_range,
    source_from_az_range,
    uv_to_direction,
)

from conftest import D21

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
points = st.builds(Vec3, finite, finite, finite)


def test_linear_array_positions_are_exact_multiples():
    geom = linear_array(21, D21)
    pos = element_positions_array(geom)
    assert pos.shape == (21, 3)
    for m, (x, y, z) in enumerate(pos.tolist()):
        assert x == m * D21
        assert y == 0.0 and z == 0.0
    # total span of the 21-element line, against the rounded quoted value
    assert abs(pos[-1, 0] - 0.1577442) < 1e-6


def test_planar_positions_row_major():
    geom = planar_array(2, 3, dx_m=0.5, dy_m=0.25)
    pos = element_positions_array(geom)
    expected = np.array([
        [0.0, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.5, 0.0],
        [0.5, 0.0, 0.0], [0.5, 0.25, 0.0], [0.5, 0.5, 0.0],
    ])
    np.testing.assert_array_equal(pos, expected)


def test_array_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(kind="ring", m=4, dx_m=0.1)
    with pytest.raises(ValueError):
        linear_array(0, 0.1)
    with pytest.raises(ValueError):
        linear_array(4, -0.1)
    with pytest.raises(ValueError):
        ArrayGeometry(kind="linear", m=4, dx_m=0.1, n=2)
    with pytest.raises(ValueError):
        planar_array(4, 4, dx_m=0.1, dy_m=0.0)
    with pytest.raises(ValueError):
        ArrayGeometry(kind="linear", m=4, dx_m=0.1, tuning_order="random")


def test_distance_examples():
    assert distance(Vec3(0, 0, 0), Vec3(3, 4, 0)) == 5.0
    # boresight-diagonal example: sqrt(72)
    assert distance(ORIGIN, Vec3(-6, 0, 6)) == pytest.approx(
        8.48528137423857, abs=1e-12)
    # far element of the 21-element line to the same source
    # oracle (50-digit arithmetic): 8.597546805851898
    d = distance(Vec3(20 * D21, 0, 0), Vec3(-6, 0, 6))
    assert d == pytest.approx(8.597546805851898, abs=1e-12)
    assert abs(d - 8.59755) < 5e-6


@given(points, points)
def test_distance_symmetry_nonnegative(a, b):
    d = distance(a, b)
    assert d >= 0.0
    assert d == distance(b, a)
    assert distance(a, a) == 0.0


@given(points, points, points)
@settings(max_examples=60)
def test_distance_triangle_inequality(a, b, c):
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


def test_vec3_requires_finite():
    with pytest.raises(ValueError):
        Vec3(math.nan, 0, 0)
    with pytest.raises(ValueError):
        Vec3(0, math.inf, 0)


def test_uv_basic_values():
    assert azimuth_elevation_to_uv(0.0, 0.0) == (0.0, 0.0)
    u, v = azimuth_elevation_to_uv(30.0, 0.0)
    assert u == pytest.approx(0.5, abs=1e-12) and v == 0.0
    u, v = azimuth_elevation_to_uv(90.0, 0.0)
    assert u == pytest.approx(1.0, abs=1e-12)


def test_uv_oblique_case():
    # oracle (50-digit arithmetic): sin(4.3 deg)*cos(63.4 deg), sin(63.4 deg)
    u, v = azimuth_elevation_to_uv(4.3, 63.4)
    assert u == pytest.approx(0.03357240633106878, abs=1e-15)
    assert v == pytest.approx(0.8941542368393681, abs=1e-15)


def test_uv_rejects_out_of_range():
    with pytest.raises(ValueError):
        azimuth_elevation_to_uv(91.0, 0.0)
    with pytest.raises(ValueError):
        azimuth_elevation_to_uv(0.0, -90.5)
    with pytest.raises(ValueError):
        uv_to_direction(0.9, 0.9)


@given(st.floats(-89.0, 89.0), st.floats(-89.0, 89.0))
@settings(max_examples=80)
def test_uv_round_trip(az, el):
    u, v = azimuth_elevation_to_uv(az, el)
    el_back = math.degrees(math.asin(v))
    az_back = math.degrees(math.asin(u / math.cos(math.radians(el_back))))
    assert az_back == pytest.approx(az, abs=1e-9)
    assert el_back == pytest.approx(el, abs=1e-9)


def test_source_from_az_range_example():
    src = source_from_az_range(53.1, 25.0)
    p = src.position
    # oracle (50-digit arithmetic): 25*sin(53.1 deg), 25*cos(53.1 deg)
    assert p.x == pytest.approx(19.992116462177265, abs=1e-9)
    assert p.y == 0.0
    assert p.z == pytest.approx(15.010505633147101, abs=1e-9)
    # coarse sanity: close to (20, 0, 15)
    assert distance(p, Vec3(20.0, 0.0, 15.0)) < 0.02


def test_source_from_az_range_round_trip_demo_scene():
    src = source_from_az_range(-45.0, 8.4853)
    assert distance(src.position, Vec3(-6.0, 0.0, 6.0)) < 1e-3
    assert azimuth_of(src.position) == pytest.approx(-45.0, abs=1e-12)


@given(st.floats(-89.9, 89.9), st.floats(0.01, 1e6))
@settings(max_examples=80)
def test_azimuth_round_trip(az, r):
    src = source_from_az_range(az, r)
    assert azimuth_of(src.position) == pytest.approx(az, abs=1e-9)


def test_point_from_az_el_range_anchor():
    anchored = point_from_az_el_range(10.0, 20.0, 3.0, anchor=Vec3(1, 2, 0))
    base = point_from_az_el_range(10.0, 20.0, 3.0)
    assert anchored.x == pytest.approx(base.x + 1.0)
    assert anchored.y == pytest.approx(base.y + 2.0)
    assert anchored.z == pytest.approx(base.z)
    with pytest.raises(ValueError):
        point_from_az_el_range(0.0, 0.0, -1.0)


def test_source_validation():
    with pytest.raises(ValueError):
        Source(amplitude=1.0)  # neither position nor direction
    with pytest.raises(ValueError):
        Source(position=Vec3(0, 0, 1), direction=(0.0, 0.0))
    with pytest.raises(ValueError):
        Source.farfield(0.8, 0.7)  # outside the unit disk
    with pytest.raises(ValueError):
        Source.point(Vec3(0, 0, 1), amplitude=-2.0)
    # zero amplitude is legal
    assert Source.point(Vec3(0, 0, 1), amplitude=0.0).amplitude == 0.0


def test_source_direction_cosines():
    u, v, w = Source.farfield(0.6, 0.0).direction_cosines()
    assert (u, v) == (0.6, 0.0)
    assert w == pytest.approx(0.8)
    u, v, w = Source.point(Vec3(0, 0, 5)).direction_cosines()
    assert (u, v, w) == (0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Source.point(ORIGIN).direction_cosines()


def test_scene_validation():
    with pytest.raises(ValueError):
        Scene(sources=())
    with pytest.raises(ValueError):
        Scene(sources=(Source.farfield(0.0, 0.0),), model="exact-spherical")
    scene = Scene(sources=[source_from_az_range(0.0, 5.0)])
    assert isinstance(scene.sources, tuple)
