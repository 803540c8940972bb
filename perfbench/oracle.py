"""Independent reference computations for the benchmark's correctness checks.

Everything here works from the scenario dictionaries the benchmark generates
(the same mapping the YAML schema describes) and uses numpy only. Nothing is
imported from combbeam, so a fault in the program cannot leak into the
reference it is checked against.

Physics, restated from the paper's model:
  * element e of a linear array sits at x = e·dx and listens at tone
    k_e (ascending: e+1, descending: N−e), frequency f_e = f0 + k_e·Δf;
  * a point source at p delays element e by |p − x_e|/c, a plane wave from
    direction (u, v, w) advances it by (u·x + v·y + w·z)/c (delay sign);
  * the envelope is |Σ_e a_e·exp(j2π(f_e − f_lo)·t)|.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299792458.0


def positions(array: dict) -> np.ndarray:
    """(E, 3) element coordinates, m outer and n inner, origin at 0."""
    m = int(array["m"])
    n = int(array.get("n", 1))
    dx = float(array["dx_m"])
    dy = float(array.get("dy_m", 0.0))
    mm, nn = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    out = np.zeros((m * n, 3))
    out[:, 0] = mm.ravel() * dx
    out[:, 1] = nn.ravel() * dy
    return out


def tone_frequencies(cfg: dict) -> np.ndarray:
    """Frequency (Hz) each element of a linear array listens at."""
    comb = cfg["comb"]
    n = int(cfg["array"]["m"])
    k = np.arange(1, n + 1, dtype=float)
    if cfg["array"].get("tuning_order", "ascending") == "descending":
        k = k[::-1]
    return float(comb["f0_hz"]) + k * float(comb["delta_f_hz"])


def source_position(src: dict) -> np.ndarray | None:
    """Cartesian position of a point source, None for a plane wave."""
    if "position" in src:
        return np.array(src["position"], dtype=float)
    if "az_deg" in src:
        az = math.radians(float(src["az_deg"]))
        r = float(src["range_m"])
        return np.array([r * math.sin(az), 0.0, r * math.cos(az)])
    return None


def true_u(src: dict) -> float:
    """Direction cosine u of a source as seen from the coordinate origin."""
    pos = source_position(src)
    if pos is None:
        return float(src["farfield"][0])
    return float(pos[0] / np.linalg.norm(pos))


def _cycles(src: dict, pos: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Delay-sign received phase in cycles, reduced to [−0.5, 0.5]."""
    p = source_position(src)
    if p is None:
        u, v = (float(x) for x in src["farfield"])
        w = math.sqrt(max(0.0, 1.0 - u * u - v * v))
        cyc = freqs * (pos @ np.array([u, v, w])) / SPEED_OF_LIGHT
    else:
        dist = np.sqrt(((pos - p) ** 2).sum(axis=1))
        cyc = -freqs * dist / SPEED_OF_LIGHT
    return cyc - np.rint(cyc)


def element_amplitudes(sources, pos: np.ndarray, freqs: np.ndarray,
                       sign: int = 1) -> np.ndarray:
    """Σ_s A_s·exp(j(±2π·cycles + φ_s)) at each element; sign=-1 gives the
    advance model (conjugate propagation, same source phase φ_s)."""
    out = np.zeros(len(pos), dtype=complex)
    for src in sources:
        phase = sign * 2.0 * math.pi * _cycles(src, pos, freqs)
        out += float(src.get("amplitude", 1.0)) * np.exp(
            1j * (phase + float(src.get("phase_rad", 0.0))))
    return out


def envelope(cfg: dict, times) -> np.ndarray:
    """Envelope of the comb-tuned linear array at the given times (dense sum)."""
    freqs = tone_frequencies(cfg)
    lo = float(cfg.get("sim", {}).get("lo_hz", cfg["comb"]["f0_hz"]))
    comb_amp = float(cfg["comb"].get("amplitude", 1.0))
    amps = comb_amp * element_amplitudes(cfg["sources"],
                                         positions(cfg["array"]), freqs)
    t = np.asarray(times, dtype=float)
    # baseband cycles are exact enough without reduction: |ν·t| < 1e4
    return np.abs(np.exp(2j * math.pi * np.outer(t, freqs - lo)) @ amps)


def local_max(cfg: dict, t_peak: float, dt: float, points: int = 65) -> float:
    """Largest envelope value on a fine grid ±2 samples around t_peak."""
    return float(envelope(cfg, t_peak + np.linspace(-2 * dt, 2 * dt, points)).max())


def coherent_bound(cfg: dict) -> float:
    """comb amplitude · elements · Σ|source amplitude|: no envelope exceeds it."""
    n = len(positions(cfg["array"]))
    total = sum(abs(float(s.get("amplitude", 1.0))) for s in cfg["sources"])
    return float(cfg["comb"].get("amplitude", 1.0)) * n * total


def wrapped_phase_deg(array: dict, src: dict, freq_hz: float) -> np.ndarray:
    """Delay-model phase −2π·f·d/c at every element, degrees in (−180, 180]."""
    cyc = _cycles(src, positions(array), np.full(1, freq_hz))
    cyc = cyc + float(src.get("phase_rad", 0.0)) / (2.0 * math.pi)
    deg = 360.0 * (cyc - np.rint(cyc))
    deg = np.where(deg <= -180.0, deg + 360.0, deg)
    return deg.reshape(int(array["m"]), int(array.get("n", 1)))


def curvature_cycles(array: dict, src: dict, freq_hz: float) -> np.ndarray:
    """Residual (cycles) of the exact phase −f·d/c after a least-squares
    plane fit over the element grid; no phase unwrapping is needed."""
    pos = positions(array)
    dist = np.sqrt(((pos - source_position(src)) ** 2).sum(axis=1))
    phase = -freq_hz * dist / SPEED_OF_LIGHT
    a = np.column_stack([np.ones(len(pos)), pos[:, 0], pos[:, 1]])
    coef, *_ = np.linalg.lstsq(a, phase - phase.mean(), rcond=None)
    resid = phase - phase.mean() - a @ coef
    return resid.reshape(int(array["m"]), int(array.get("n", 1)))


def snapshot(cfg: dict, freq_hz: float) -> np.ndarray:
    """Single-frequency element snapshot with the advance sign, (M, N)."""
    pos = positions(cfg["array"])
    amps = element_amplitudes(cfg["sources"], pos, np.full(len(pos), freq_hz),
                              sign=-1)
    return amps.reshape(int(cfg["array"]["m"]), int(cfg["array"].get("n", 1)))


def conventional(cfg: dict, snap: np.ndarray, freq_hz: float,
                 u: float, v: float) -> float:
    """|Σ exp(+j·2π/λ·(x·u + y·v))·s| for one look direction."""
    pos = positions(cfg["array"])
    k = 2.0 * math.pi * freq_hz / SPEED_OF_LIGHT
    steer = np.exp(1j * k * (pos[:, 0] * u + pos[:, 1] * v))
    return float(abs(steer @ snap.ravel()))


def match_directions(true_us, found_us, tol: float) -> str | None:
    """None when every true u has its own found u within tol and nothing
    else was found; otherwise a description of the mismatch."""
    true_us = sorted(true_us)
    found = sorted(found_us)
    if len(found) != len(true_us):
        return f"{len(found)} peaks for {len(true_us)} sources: {found}"
    for ut in true_us:
        j = min(range(len(found)), key=lambda i: abs(found[i] - ut))
        if abs(found[j] - ut) > tol:
            return f"source at u={ut:.5f}: nearest peak u={found[j]:.5f}"
        found.pop(j)
    return None
