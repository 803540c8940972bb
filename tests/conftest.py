import pytest

from combbeam import kspace
from combbeam.geometry import Scene, linear_array, source_from_az_range
from combbeam.kspace import SimConfig
from combbeam.waveform import SPEED_OF_LIGHT, CombSpec

# half-wavelength element pitch at the top tone of the 19 GHz demo comb
D21 = SPEED_OF_LIGHT / (2.0 * 19.005e9)


@pytest.fixture(autouse=True)
def no_remembered_calibrations():
    """Every test starts with no calibration remembered from an earlier one
    (kspace._CALIBRATIONS), so what it counts does not depend on order."""
    kspace._CALIBRATIONS.clear()


@pytest.fixture
def demo_comb():
    """21-tone comb: 19.0008 GHz base, 0.2 MHz spacing, 5 us window."""
    return CombSpec(f0_hz=19.0008e9, delta_f_hz=0.2e6, num_tones=21,
                    duration_s=5e-6)


@pytest.fixture
def demo_geometry():
    return linear_array(21, D21)


@pytest.fixture
def demo_scene():
    """Single unit point source at azimuth -45 deg, range 8.4853 m."""
    return Scene(sources=(source_from_az_range(-45.0, 8.4853),))


@pytest.fixture
def demo_config():
    return SimConfig(lo_hz=19.0e9)
