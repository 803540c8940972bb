import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combbeam.waveform import (
    SPEED_OF_LIGHT,
    CombSpec,
    comb_spectrum_lines,
    comb_value,
    wavelength,
)


def test_speed_of_light_is_exact():
    assert SPEED_OF_LIGHT == 299792458.0


def test_tone_frequencies_of_demo_comb(demo_comb):
    assert demo_comb.tone_frequencies[0] == 19.0010e9
    assert demo_comb.tone_frequencies[-1] == 19.0050e9
    np.testing.assert_allclose(
        demo_comb.tone_frequencies,
        19.0008e9 + 0.2e6 * np.arange(1, 22), rtol=0, atol=1e-3)
    assert demo_comb.center_frequency_hz == pytest.approx(19.003e9, abs=1e-3)
    assert demo_comb.period_s == pytest.approx(5e-6, rel=1e-15)


def test_wavelengths_match_quoted_values():
    # exact: c/f
    assert wavelength(19.005e9) == 299792458.0 / 19.005e9
    assert wavelength(19.001e9) == 299792458.0 / 19.001e9
    # rounded 8-decimal reference values are good to ~1e-8
    assert wavelength(19.005e9) == pytest.approx(0.01577441, abs=2e-8)
    assert wavelength(19.001e9) == pytest.approx(0.01577773, abs=2e-8)
    with pytest.raises(ValueError):
        wavelength(0.0)
    with pytest.raises(ValueError):
        wavelength(-5e9)


def test_comb_spec_validation():
    with pytest.raises(ValueError):
        CombSpec(f0_hz=1e9, delta_f_hz=0.0, num_tones=3, duration_s=1e-6)
    with pytest.raises(ValueError):
        CombSpec(f0_hz=1e9, delta_f_hz=1e6, num_tones=0, duration_s=1e-6)
    with pytest.raises(ValueError):
        CombSpec(f0_hz=1e9, delta_f_hz=1e6, num_tones=3, duration_s=0.0)
    with pytest.raises(ValueError):
        CombSpec(f0_hz=-2e9, delta_f_hz=1e6, num_tones=3, duration_s=1e-6)
    for amplitude in (-1.0, 0.0):
        with pytest.raises(ValueError, match="amplitude"):
            CombSpec(f0_hz=1e9, delta_f_hz=1e6, num_tones=3, duration_s=1e-6,
                     amplitude=amplitude)


def test_comb_value_at_zero_is_tone_count():
    comb = CombSpec(f0_hz=0.8e6, delta_f_hz=0.2e6, num_tones=21,
                    duration_s=5e-6, amplitude=0.5)
    assert comb_value(comb, 0.0) == pytest.approx(21 * 0.5, rel=1e-12)


def test_comb_value_against_extended_precision():
    # baseband comb with tones at 1..5.2 MHz; oracle sums each cosine at
    # 50-digit precision
    comb = CombSpec(f0_hz=0.8e6, delta_f_hz=0.2e6, num_tones=22,
                    duration_s=5e-6)
    mpmath.mp.dps = 50
    for t in (0.37e-6, 1.0e-6, 2.5e-6, 4.999e-6):
        oracle = mpmath.mpf(0)
        for n in range(1, 23):
            f = mpmath.mpf("0.8e6") + n * mpmath.mpf("0.2e6")
            oracle += mpmath.cos(2 * mpmath.pi * f * mpmath.mpf(repr(t)))
        assert comb_value(comb, t) == pytest.approx(float(oracle), abs=1e-9)


@given(st.integers(1, 40), st.integers(2, 24), st.integers(0, 1000))
@settings(max_examples=40)
def test_comb_value_periodicity(k, num_tones, t_frac):
    # f0 an exact multiple of delta keeps every tone periodic in 1/delta
    comb = CombSpec(f0_hz=k * 0.25e6, delta_f_hz=0.25e6, num_tones=num_tones,
                    duration_s=8e-6)
    t = t_frac * 3.7e-9
    period = comb.period_s
    a = comb_value(comb, t)
    b = comb_value(comb, t + period)
    assert b == pytest.approx(a, abs=1e-9 * num_tones)


def test_comb_value_vectorized_shape():
    comb = CombSpec(f0_hz=0.8e6, delta_f_hz=0.2e6, num_tones=5,
                    duration_s=5e-6)
    t = np.linspace(0, 5e-6, 17)
    out = comb_value(comb, t)
    assert out.shape == (17,)


def test_spectrum_lines_land_on_tones():
    comb = CombSpec(f0_hz=0.8e6, delta_f_hz=0.2e6, num_tones=21,
                    duration_s=5e-6)
    lines = comb_spectrum_lines(comb, sample_rate_hz=50e6, num_samples=250)
    assert len(lines) == 21
    freqs = [f for f, _ in lines]
    mags = [m for _, m in lines]
    # 250 samples at 50 MHz -> 0.2 MHz bins: every tone sits exactly on a bin
    np.testing.assert_allclose(freqs, comb.tone_frequencies, rtol=0, atol=1e-6)
    assert max(mags) / min(mags) < 1.01
    assert all(abs(m - comb.amplitude) < 0.01 for m in mags)


def test_spectrum_rejects_undersampling():
    comb = CombSpec(f0_hz=0.8e6, delta_f_hz=0.2e6, num_tones=21,
                    duration_s=5e-6)
    with pytest.raises(ValueError):
        comb_spectrum_lines(comb, sample_rate_hz=9e6, num_samples=250)
    with pytest.raises(ValueError):
        comb_spectrum_lines(comb, sample_rate_hz=50e6, num_samples=10)
