"""Array geometry, source placement, and direction-cosine helpers.

Coordinates are right-handed Cartesian, metres. The array lies in the z = 0
plane; boresight is +z. Direction cosines (u, v) are the x/y components of the
unit vector pointing from the array toward a far-field source:
u = sin(az)·cos(el), v = sin(el).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = [
    "Vec3",
    "ORIGIN",
    "Source",
    "Scene",
    "ArrayGeometry",
    "linear_array",
    "planar_array",
    "element_positions_array",
    "distance",
    "azimuth_elevation_to_uv",
    "uv_to_direction",
    "point_from_az_el_range",
    "source_from_az_range",
    "azimuth_of",
]


@dataclass(frozen=True)
class Vec3:
    """Point or displacement in 3-D space (metres)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"Vec3.{name} must be finite, got {val!r}")


ORIGIN = Vec3(0.0, 0.0, 0.0)


def distance(a: Vec3, b: Vec3) -> float:
    """Euclidean distance between two points, stable up to ~1e7 m."""
    return math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))


@dataclass(frozen=True)
class Source:
    """A radiating source: either a point at finite range or a far-field
    plane wave arriving from direction cosines (u, v).

    Exactly one of ``position`` / ``direction`` must be given. ``amplitude``
    is a linear scale (0 allowed); ``phase_rad`` an initial phase.
    """

    amplitude: float = 1.0
    phase_rad: float = 0.0
    position: Vec3 | None = None
    direction: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if (self.position is None) == (self.direction is None):
            raise ValueError(
                "Source needs exactly one of position= or direction="
            )
        if not math.isfinite(self.amplitude) or self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude!r}")
        if not math.isfinite(self.phase_rad):
            raise ValueError("phase_rad must be finite")
        if self.direction is not None:
            u, v = self.direction
            if not (math.isfinite(u) and math.isfinite(v)):
                raise ValueError("direction cosines must be finite")
            if u * u + v * v > 1.0 + 1e-12:
                raise ValueError(
                    f"direction cosines outside the unit disk: u={u}, v={v}"
                )
            object.__setattr__(self, "direction", (float(u), float(v)))

    @staticmethod
    def point(position: Vec3, amplitude: float = 1.0, phase_rad: float = 0.0) -> "Source":
        return Source(amplitude=amplitude, phase_rad=phase_rad, position=position)

    @staticmethod
    def farfield(u: float, v: float = 0.0, amplitude: float = 1.0, phase_rad: float = 0.0) -> "Source":
        return Source(amplitude=amplitude, phase_rad=phase_rad, direction=(u, v))

    @property
    def is_farfield(self) -> bool:
        return self.direction is not None

    def direction_cosines(self) -> tuple[float, float, float]:
        """(u, v, w) unit vector from the coordinate origin toward the source."""
        if self.direction is not None:
            u, v = self.direction
            w = math.sqrt(max(0.0, 1.0 - u * u - v * v))
            return (u, v, w)
        p = self.position
        assert p is not None
        r = math.dist((0.0, 0.0, 0.0), (p.x, p.y, p.z))
        if r == 0.0:
            raise ValueError("point source at the origin has no direction")
        return (p.x / r, p.y / r, p.z / r)


@dataclass(frozen=True)
class Scene:
    """A set of sources plus the wavefront model used to propagate them.

    ``exact-spherical`` uses true point-to-point distances (point sources
    only); ``far-field`` treats every source as a plane wave (point sources
    are reduced to their direction as seen from the origin).
    """

    sources: tuple[Source, ...]
    model: Literal["exact-spherical", "far-field"] = "exact-spherical"

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        if len(self.sources) == 0:
            raise ValueError("Scene needs at least one source")
        if self.model not in ("exact-spherical", "far-field"):
            raise ValueError(f"unknown scene model {self.model!r}")
        if self.model == "exact-spherical":
            for s in self.sources:
                if s.is_farfield:
                    raise ValueError(
                        "exact-spherical scene cannot hold far-field sources"
                    )


@dataclass(frozen=True)
class ArrayGeometry:
    """Regular array of elements in the z = 0 plane.

    Element (m, n) sits at origin + (m·dx, n·dy, 0) for m in [0, M) and
    n in [0, N_y). ``linear`` arrays have n fixed at 0 (``n == 1`` column).
    ``tuning_order`` is read by scene_element_phasors, which tunes a linear
    array of comb.num_tones elements: ``ascending`` gives element m tone
    m+1, ``descending`` tone num_tones−m.
    """

    kind: Literal["linear", "planar"]
    m: int
    dx_m: float
    n: int = 1
    dy_m: float = 0.0
    origin: Vec3 = ORIGIN
    tuning_order: Literal["ascending", "descending"] = "ascending"

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "planar"):
            raise ValueError(f"unknown array kind {self.kind!r}")
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not (math.isfinite(self.dx_m) and self.dx_m > 0):
            raise ValueError(f"dx_m must be > 0, got {self.dx_m!r}")
        if self.kind == "linear":
            if self.n != 1:
                raise ValueError("linear array must have n == 1")
        else:
            if not (math.isfinite(self.dy_m) and self.dy_m > 0):
                raise ValueError(f"planar array needs dy_m > 0, got {self.dy_m!r}")
        if self.tuning_order not in ("ascending", "descending"):
            raise ValueError(f"unknown tuning_order {self.tuning_order!r}")

    @property
    def num_elements(self) -> int:
        return self.m * self.n


def linear_array(
    m: int,
    dx_m: float,
    origin: Vec3 = ORIGIN,
    tuning_order: Literal["ascending", "descending"] = "ascending",
) -> ArrayGeometry:
    return ArrayGeometry(kind="linear", m=m, dx_m=dx_m, origin=origin,
                         tuning_order=tuning_order)


def planar_array(m: int, n: int, dx_m: float, dy_m: float,
                 origin: Vec3 = ORIGIN) -> ArrayGeometry:
    return ArrayGeometry(kind="planar", m=m, n=n, dx_m=dx_m, dy_m=dy_m,
                         origin=origin)


def element_positions_array(geometry: ArrayGeometry) -> np.ndarray:
    """(num_elements, 3) element coordinates, row-major (m outer, n inner)."""
    m, n = geometry.m, geometry.n
    out = np.empty((geometry.num_elements, 3), dtype=float)
    out[:, 0] = geometry.origin.x + np.arange(m).repeat(n) * geometry.dx_m
    out[:, 1] = geometry.origin.y + np.tile(np.arange(n), m) * geometry.dy_m
    out[:, 2] = geometry.origin.z
    return out


def azimuth_elevation_to_uv(az_deg: float, el_deg: float) -> tuple[float, float]:
    """Direction cosines (u, v) for azimuth/elevation in degrees.

    u = sin(az)·cos(el), v = sin(el). Both angles must lie in [-90, 90].
    """
    if not (math.isfinite(az_deg) and abs(az_deg) <= 90.0):
        raise ValueError(f"azimuth must be in [-90, 90] deg, got {az_deg!r}")
    if not (math.isfinite(el_deg) and abs(el_deg) <= 90.0):
        raise ValueError(f"elevation must be in [-90, 90] deg, got {el_deg!r}")
    az = math.radians(az_deg)
    el = math.radians(el_deg)
    return (math.sin(az) * math.cos(el), math.sin(el))


def uv_to_direction(u: float, v: float) -> tuple[float, float, float]:
    """Unit vector (u, v, w) with w = sqrt(1 - u² - v²) >= 0."""
    r2 = u * u + v * v
    if r2 > 1.0 + 1e-12:
        raise ValueError(f"(u, v) outside the unit disk: u={u}, v={v}")
    return (u, v, math.sqrt(max(0.0, 1.0 - r2)))


def point_from_az_el_range(az_deg: float, el_deg: float, range_m: float,
                           anchor: Vec3 = ORIGIN) -> Vec3:
    """Point at the given range along direction (az, el) from ``anchor``."""
    if not (math.isfinite(range_m) and range_m > 0):
        raise ValueError(f"range_m must be > 0, got {range_m!r}")
    u, v = azimuth_elevation_to_uv(az_deg, el_deg)
    _, _, w = uv_to_direction(u, v)
    return Vec3(anchor.x + range_m * u, anchor.y + range_m * v,
                anchor.z + range_m * w)


def source_from_az_range(az_deg: float, range_m: float, amplitude: float = 1.0,
                         phase_rad: float = 0.0) -> Source:
    """Point source in the y = 0 plane at (R·sin(az), 0, R·cos(az))."""
    pos = point_from_az_el_range(az_deg, 0.0, range_m)
    return Source.point(pos, amplitude=amplitude, phase_rad=phase_rad)


def azimuth_of(p: Vec3) -> float:
    """Azimuth (degrees) of a point as seen from the origin: atan2(x, z)."""
    if p.x == 0.0 and p.z == 0.0:
        raise ValueError("azimuth undefined for a point on the y axis")
    return math.degrees(math.atan2(p.x, p.z))
