"""Frequency-comb k-space beamforming: simulate an array whose elements are
tuned to successive comb tones, read source directions off the summed
envelope's peak times, and cross-check against a conventional phased-array
beamformer.
"""

from .geometry import (
    ArrayGeometry,
    Scene,
    Source,
    Vec3,
    azimuth_elevation_to_uv,
    linear_array,
    planar_array,
    source_from_az_range,
)
from .waveform import SPEED_OF_LIGHT, CombSpec, wavelength
from .propagation import (
    NoiseSpec,
    PhaseSign,
    PhasorSet,
    received_phase_exact,
    received_phase_farfield,
    scene_element_phasors,
)
from .kspace import (
    AxisCalibration,
    BeamformOutput,
    Peak,
    SimConfig,
    beamform_envelope,
    beamform_rf,
    calibrate_axis,
    estimate_azimuths,
    find_peaks,
    run_beamform,
    time_to_u,
    u_to_azimuth,
)
from .conventional import (
    PhaseMap,
    beamform_conventional,
    curvature_profile,
    phase_map,
    scene_snapshot,
    steering_vector,
)

# analysis imports scipy for brute_force_peak, so its names load on first use
# (PEP 562): the CLI and run_beamform never pay for that import.
_ANALYSIS = (
    "MethodComparison", "PeakTimeReport", "SweepResult", "brute_force_peak",
    "compare_methods", "first_sidelobe_db", "nearfield_error_sweep",
    "peak_time_report", "peak_width_u", "snr_gain",
)


def __getattr__(name: str):
    if name in _ANALYSIS:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry", "Scene", "Source", "Vec3", "azimuth_elevation_to_uv",
    "linear_array", "planar_array", "source_from_az_range",
    "SPEED_OF_LIGHT", "CombSpec", "wavelength",
    "NoiseSpec", "PhaseSign", "PhasorSet", "received_phase_exact",
    "received_phase_farfield", "scene_element_phasors",
    "AxisCalibration", "BeamformOutput", "Peak", "SimConfig",
    "beamform_envelope", "beamform_rf", "calibrate_axis", "estimate_azimuths",
    "find_peaks", "run_beamform", "time_to_u", "u_to_azimuth",
    "PhaseMap", "beamform_conventional", "curvature_profile", "phase_map",
    "scene_snapshot", "steering_vector",
    *_ANALYSIS,
    "__version__",
]
