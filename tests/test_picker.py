"""The shared peak picker (local maxima, quadratic vertex, strongest-first
thinning) against a scalar loop, plus its edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combbeam.geometry import Scene, Source, linear_array
from combbeam.kspace import (
    SimConfig,
    _local_peaks,
    _quadratic_peak,
    _thin_peaks,
    run_beamform,
    time_to_u,
    u_to_azimuth,
)
from combbeam.propagation import NoiseSpec
from combbeam.waveform import CombSpec

from conftest import D21


def _scalar_vertex(ym1, y0, yp1):
    denom = ym1 - 2.0 * y0 + yp1
    if denom == 0.0:
        return 0.0, y0
    p = 0.5 * (ym1 - yp1) / denom
    p = min(0.5, max(-0.5, p))
    return p, y0 - 0.25 * (ym1 - yp1) * p


def _loop_find_peaks(out, threshold_fraction, min_separation_u):
    """Scalar reference for find_peaks: circular samples, > on the left and
    >= on the right, thinned on the circular u axis. Returns
    (time_s, u, magnitude, azimuth_deg) tuples, strongest first."""
    env = np.asarray(out.envelope, dtype=float)
    n = env.size
    gmax = float(env.max())
    dt = float(out.time_s[1] - out.time_s[0])
    found = []
    for i in range(n):
        ym1, y0, yp1 = env[(i - 1) % n], env[i], env[(i + 1) % n]
        if not (y0 > ym1 and y0 >= yp1):
            continue
        p, height = _scalar_vertex(ym1, y0, yp1)
        if height < threshold_fraction * gmax:
            continue
        t = (float(out.time_s[0]) + (i + p) * dt) % (n * dt)
        u = float(time_to_u(out.calibration, t))
        found.append((t, u, float(height), u_to_azimuth(u)))
    found.sort(key=lambda pk: pk[2], reverse=True)
    kept = []
    for pk in found:
        ds = [abs(pk[1] - q[1]) % 2.0 for q in kept]
        if all(min(d, 2.0 - d) >= min_separation_u for d in ds):
            kept.append(pk)
    return kept


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 80),
       sources=st.lists(st.tuples(st.floats(-0.95, 0.95),
                                  st.floats(0.2, 1.0),
                                  st.floats(-3.0, 3.0)),
                        min_size=1, max_size=3),
       periods=st.sampled_from([1, 2]),
       grid_points=st.sampled_from([256, 1024, 4096]),
       threshold=st.floats(0.05, 0.9),
       sep=st.sampled_from(["zero", "cell", "wide"]),
       sigma=st.one_of(st.none(), st.floats(0.05, 2.0)),
       seed=st.integers(0, 2 ** 16))
def test_find_peaks_matches_the_scalar_loop(n, sources, periods, grid_points,
                                            threshold, sep, sigma, seed):
    comb = CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=n,
                    duration_s=periods * 5e-6)
    scene = Scene(sources=tuple(Source.farfield(u, 0.0, a, ph)
                                for u, a, ph in sources), model="far-field")
    min_sep = {"zero": 0.0, "cell": 4.0 / n, "wide": 0.3}[sep]
    noise = None if sigma is None else NoiseSpec(sigma=sigma, seed=seed)
    config = SimConfig(grid_points=grid_points, lo_hz=19.0e9, noise=noise,
                       threshold_fraction=threshold, min_separation_u=min_sep)
    out = run_beamform(scene, linear_array(n, D21), comb, config)
    got = [(pk.time_s, pk.u, pk.magnitude, pk.azimuth_deg) for pk in out.peaks]
    assert got == _loop_find_peaks(out, threshold, min_sep)
    assert got


@pytest.mark.parametrize("y, circular, want", [
    ([5.0, 1.0, 2.0, 3.0, 1.0], True, [0, 3]),
    ([5.0, 1.0, 2.0, 3.0, 1.0], False, [3]),
    ([1.0, 3.0, 2.0, 1.0, 5.0], True, [1, 4]),
    ([1.0, 3.0, 2.0, 1.0, 5.0], False, [1]),
    ([0.0, 1.0, 1.0, 0.0], True, [1]),      # plateau: its left sample
    ([0.0, 1.0, 1.0, 0.0], False, [1]),
    ([2.0, 2.0, 2.0], True, []),
])
def test_local_peaks_edges_and_plateaus(y, circular, want):
    assert _local_peaks(np.array(y), circular).tolist() == want


def test_circular_plateau_over_samples_0_and_1_yields_sample_0():
    # sample 0 ties sample 1 and is above the last sample: the plateau's
    # left sample is 0, so sample 0 is compared with >= on its right
    assert _local_peaks(np.array([3.0, 3.0, 1.0, 0.0, 1.0]),
                        circular=True).tolist() == [0]


def test_quadratic_peak_is_element_wise():
    p, h = _quadratic_peak(np.array([1.0, 4.0, 1.0]),
                           np.array([2.0, 5.0, 3.0]),
                           np.array([3.0, 4.0, 2.0]))
    # collinear triple → offset 0 at the center sample
    assert p[0] == 0.0 and h[0] == 2.0
    assert p[1] == 0.0 and h[1] == 5.0
    assert p[2] == pytest.approx(1.0 / 6.0) and h[2] > 3.0


def test_quadratic_peak_clamps_a_triple_flat_to_rounding():
    # at a local maximum the vertex lies within ±0.5 in exact arithmetic,
    # but the rounded denominator of a triple flat to a few ulps can shrink
    # below the numerator: 1 − 5·2⁻⁵³, 1, 1 gives 0.625 unclamped
    eps = 2.0 ** -53
    for k in range(1, 9):
        p, h = _quadratic_peak(1.0 - k * eps, 1.0, 1.0)
        assert 0.0 <= p <= 0.5 and h == 1.0


def test_thin_peaks_circular_and_linear_distance():
    u = np.array([-0.97, 0.95, 0.5])
    height = np.array([1.0, 2.0, 2.0])
    # 0.95 and −0.97 are 0.08 apart round the circle, 1.92 apart on a line
    assert _thin_peaks(u, height, 0.1, circular=True) == [1, 2]
    assert _thin_peaks(u, height, 0.1, circular=False) == [1, 2, 0]
    assert _thin_peaks(u, height, 0.0, circular=True) == [1, 2, 0]
