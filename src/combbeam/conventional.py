"""Conventional phased-array beamforming and phase-map analysis.

Independent cross-check path: steer a planar (or linear) array with
narrowband weights and scan direction space. Steering uses
a_mn(u, v) = exp(−j·(2π/λ)·(m·dx·u + n·dy·v)); scene snapshots carry the
conjugate (advance) propagation sign so that for a far-field source at
(u0, v0) the matched output a(u0,v0)^H··· reaches the full M·N coherent gain.
Elements are isotropic: the scan output is the bare coherent sum, with no
per-element amplitude pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (ArrayGeometry, Scene, Source, element_positions_array,
                       uv_to_direction)
from .propagation import PhaseSign, element_field, received_phase

__all__ = [
    "steering_vector",
    "scene_snapshot",
    "beamform_conventional",
    "PhaseMap",
    "phase_map",
    "unwrap_map_deg",
    "mean_adjacent_steps",
    "fit_phase_plane",
    "curvature_profile",
]


def steering_vector(geometry: ArrayGeometry, u: float, v: float,
                    wavelength_m: float) -> np.ndarray:
    """Unit-modulus steering weights for one look direction,
    a_mn = exp(−j·(2π/λ)·(m·dx·u + n·dy·v)), shape (M, N)."""
    uv_to_direction(u, v)    # raises outside the unit disk
    if not (math.isfinite(wavelength_m) and wavelength_m > 0):
        raise ValueError(f"wavelength_m must be > 0, got {wavelength_m!r}")
    m = np.arange(geometry.m)[:, None] * geometry.dx_m
    n = np.arange(geometry.n)[None, :] * geometry.dy_m
    phase = (-2.0 * math.pi / wavelength_m) * (m * u + n * v)
    return np.exp(1j * phase)


def scene_snapshot(scene: Scene, geometry: ArrayGeometry,
                   freq_hz: float) -> np.ndarray:
    """Single-frequency element snapshot, shape (M, N) complex.

    Uses the advance propagation sign so a far-field source at (u0, v0)
    yields exactly amplitude·conj-matched steering: the matched beamformer
    output is M·N·amplitude.
    """
    snap = element_field(scene, element_positions_array(geometry), freq_hz,
                         PhaseSign.ADVANCE)
    return snap.reshape(geometry.m, geometry.n)


def _steering_powers(phase_step, count: int) -> np.ndarray:
    """Rows z⁰ … z^(count−1) of z = exp(j·phase_step), shape
    (count, len(phase_step)), by a running product along the element axis:
    one complex exp per scan point instead of one per entry. The error
    grows with the power, to ~count·eps per entry. (np.cumprod gives the
    same rows, but on complex input it runs several times slower than this
    loop of whole-row multiplies.)"""
    z = np.exp(1j * phase_step)
    rows = np.empty((count, z.size), dtype=complex)
    rows[0] = 1.0
    for m in range(1, count):
        np.multiply(rows[m - 1], z, out=rows[m])
    return rows


def beamform_conventional(snapshot: np.ndarray, geometry: ArrayGeometry,
                          wavelength_m: float, u_grid, v_grid) -> np.ndarray:
    """|a(u,v)^H s| over a (u, v) scan grid, shape (len(u), len(v)), for
    isotropic elements.

    snapshot must be (M, N); grid values must lie in [−1, 1] per axis. The
    steering weights factorize over the two axes and are built as running
    powers of one phase step per scan point (_steering_powers); they agree
    with steering_vector, the exp-built oracle, to ~M·eps per entry.
    """
    snapshot = np.asarray(snapshot, dtype=complex)
    if snapshot.shape != (geometry.m, geometry.n):
        raise ValueError(
            f"snapshot shape {snapshot.shape} does not match array "
            f"({geometry.m}, {geometry.n})"
        )
    if not (math.isfinite(wavelength_m) and wavelength_m > 0):
        raise ValueError(f"wavelength_m must be > 0, got {wavelength_m!r}")
    u_grid = np.asarray(u_grid, dtype=float)
    v_grid = np.asarray(v_grid, dtype=float)
    if u_grid.size == 0 or v_grid.size == 0:
        raise ValueError("scan grids must be non-empty")
    for name, g in (("u", u_grid), ("v", v_grid)):
        if np.any(np.abs(g) > 1.0 + 1e-12):
            raise ValueError(f"{name} grid values must lie in [-1, 1]")
    k = 2.0 * math.pi / wavelength_m
    # conj(a) factorizes over the two axes: exp(+jk·m·dx·u)·exp(+jk·n·dy·v)
    em = _steering_powers(k * geometry.dx_m * u_grid, geometry.m)   # (M, U)
    en = _steering_powers(k * geometry.dy_m * v_grid, geometry.n)   # (N, V)
    return np.abs(em.T @ snapshot @ en)


@dataclass(frozen=True)
class PhaseMap:
    """Wrapped per-element phase samples (degrees in (−180, 180]) over the
    element grid, with the element coordinate axes attached."""

    phase_deg: np.ndarray   # (M, N)
    x_m: np.ndarray         # (M,)
    y_m: np.ndarray         # (N,)
    freq_hz: float


def phase_map(geometry: ArrayGeometry, source: Source,
              freq_hz: float) -> PhaseMap:
    """Exact-model received phase (delay sign) at every element, degrees.

    Far-field sources produce an exactly planar map; point sources add
    spherical curvature on top of the plane.
    """
    phi = received_phase(source, element_positions_array(geometry), freq_hz,
                         PhaseSign.DELAY, source.is_farfield)
    deg = np.degrees(phi)
    deg -= 360.0 * np.ceil(deg / 360.0 - 0.5)   # into (−180, 180]
    x = geometry.origin.x + np.arange(geometry.m) * geometry.dx_m
    y = geometry.origin.y + np.arange(geometry.n) * geometry.dy_m
    return PhaseMap(phase_deg=deg.reshape(geometry.m, geometry.n),
                    x_m=x, y_m=y, freq_hz=freq_hz)


def unwrap_map_deg(pmap: PhaseMap) -> np.ndarray:
    """2-D unwrapped phases (degrees), rows (x axis) first, then columns.

    Raises when any adjacent wrapped step reaches half a cycle, since the
    unwrap direction is then ambiguous.
    """
    ph = pmap.phase_deg
    for axis in (0, 1):
        if ph.shape[axis] < 2:
            continue
        steps = np.diff(ph, axis=axis)
        wrapped = (steps + 180.0) % 360.0 - 180.0
        if np.any(np.abs(np.abs(wrapped) - 180.0) < 1e-9):
            raise ValueError(
                "adjacent phase step is half a cycle; unwrap is ambiguous"
            )
    out = np.unwrap(ph, axis=0, period=360.0)
    if out.shape[1] > 1:
        out = np.unwrap(out, axis=1, period=360.0)
    return out


def mean_adjacent_steps(pmap: PhaseMap) -> tuple[float, float]:
    """Mean |unwrapped step| along x and along y, degrees per element."""
    unwrapped = unwrap_map_deg(pmap)
    step_x = (float(np.mean(np.abs(np.diff(unwrapped, axis=0))))
              if unwrapped.shape[0] > 1 else 0.0)
    step_y = (float(np.mean(np.abs(np.diff(unwrapped, axis=1))))
              if unwrapped.shape[1] > 1 else 0.0)
    return step_x, step_y


def fit_phase_plane(pmap: PhaseMap) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares plane through the unwrapped map.

    Returns (coefficients [c0_deg, gx_deg_per_m, gy_deg_per_m],
    residual_deg (M, N)).
    """
    unwrapped = unwrap_map_deg(pmap)
    xx, yy = np.meshgrid(pmap.x_m, pmap.y_m, indexing="ij")
    a = np.column_stack([np.ones(xx.size), xx.ravel(), yy.ravel()])
    coef, *_ = np.linalg.lstsq(a, unwrapped.ravel(), rcond=None)
    residual = unwrapped - (a @ coef).reshape(unwrapped.shape)
    return coef, residual


def curvature_profile(geometry: ArrayGeometry, source: Source,
                      freq_hz: float) -> np.ndarray:
    """Wavefront curvature: plane-fit residual per element, in cycles.

    Exactly zero (to rounding) for far-field sources; for point sources the
    maximum residual shrinks as 1/range.
    """
    _, residual_deg = fit_phase_plane(phase_map(geometry, source, freq_hz))
    return residual_deg / 360.0
