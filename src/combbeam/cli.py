"""Command-line interface and YAML scenario configuration.

Scenario schema (all frequencies Hz, lengths m, times s, angles deg)::

    comb:
      f0_hz: 19000800000.0      # tone n sits at f0_hz + n*delta_f_hz
      delta_f_hz: 200000.0
      num_tones: 21
      duration_s: 0.000005      # a whole multiple of 1/delta_f_hz
      amplitude: 1.0            # optional, > 0, default 1.0
    array:
      kind: linear              # linear | planar
      m: 21
      dx_m: 0.007887199631675874
      n: 14                     # planar only
      dy_m: 0.0018737028625     # planar only
      tuning_order: ascending   # optional: ascending | descending
    sources:                    # non-empty; one form per entry
      - az_deg: -45.0           # point source in the y = 0 plane
        range_m: 8.4853
      - position: [20.0, 0.0, 15.0]
      - farfield: [0.5, 0.0]    # plane wave from direction cosines (u, v)
      # every form also accepts amplitude (default 1.0), phase_rad (default 0.0)
    sim:                        # optional
      grid_points: 4096
      lo_hz: 19000000000.0      # default: comb f0_hz
      phase_sign: delay         # delay | advance
      calibration_range_m: 17.0 # default: plane-wave calibration probes
      threshold_fraction: 0.5
      min_separation_u: 0.19    # default: 4/num_tones
      noise: {sigma: 1.0, seed: 0}
    output:                     # optional
      directory: out            # or pass --out
      emit_rf: false            # also write rf.csv (simulate)
      emit_phase_map: false     # also write phase_map.csv (simulate)

Point sources and plane waves cannot be mixed in one scenario (the wavefront
model is scene-wide). Commands:

    combbeam simulate --config scenario.yaml --out DIR
        envelope.csv, peaks.csv, phasors.csv (+ rf.csv / phase_map.csv)
    combbeam phase-map --config scenario.yaml --out DIR
        phase_map.csv, curvature.csv (planar array, point source)
    combbeam sweep --config scenario.yaml --out DIR --param range_m \
        --values 2,8,32
        sweep.csv; params: range_m | num_tones | delta_f_hz | spacing_m
        (single-source scenarios; range sweeps recalibrate at each range;
        every delta_f_hz value must keep duration_s a whole number of
        envelope periods)
    combbeam calibrate --config scenario.yaml
        prints the fitted axis mapping and held-out probe residuals

The envelope repeats every 1/delta_f_hz and is sampled on sim.grid_points
points over duration_s; a duration that is not a whole number of periods is
a configuration error. Exit codes: 0 success, 1 configuration errors
(including bad or missing flags, and --seed on a scenario without
sim.noise), 2 runtime (math/model) errors, 3 I/O errors. The output
directory is created with the first CSV, so a command that fails before
writing leaves none. CSV files are written atomically (temp file + rename)
with full-precision repr() floats and no timestamps, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, NoReturn, Sequence

import numpy as np
import yaml

from .conventional import curvature_profile, phase_map
from .geometry import (
    ArrayGeometry,
    Scene,
    Source,
    Vec3,
    azimuth_of,
    source_from_az_range,
)
from .kspace import (
    AxisCalibration,
    SimConfig,
    _peak_time,
    _sweep_step,
    beamform_rf,
    calibrate_axis,
    default_time_grid,
    probe_scene,
    run_beamform,
    time_to_u,
    u_to_azimuth,
    whole_periods,
)
from .propagation import NoiseSpec, PhaseSign, scene_element_phasors
from .waveform import CombSpec

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "parse_config",
    "load_config_file",
    "scenario_path",
    "main",
]

_REQUIRED = object()


class ConfigError(Exception):
    """Scenario configuration is malformed or inconsistent."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario: domain objects plus command-level settings."""

    comb: CombSpec
    geometry: ArrayGeometry
    scene: Scene
    sim: SimConfig
    output_directory: str | None
    emit_rf: bool
    emit_phase_map: bool


def _mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _no_extra(d: dict, path: str, allowed: set[str]) -> None:
    extra = set(d) - allowed
    if extra:
        raise ConfigError(f"{path}: unknown key(s) {sorted(extra)}")


def _num(d: dict, key: str, path: str, default: Any = _REQUIRED) -> float:
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: required")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {v!r}")
    return float(v)


def _int(d: dict, key: str, path: str, default: Any = _REQUIRED) -> int:
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: required")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _bool(d: dict, key: str, path: str, default: bool) -> bool:
    v = d.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"{path}.{key}: expected true/false, got {v!r}")
    return v


def _choice(d: dict, key: str, path: str, choices: tuple[str, ...],
            default: Any = _REQUIRED) -> str:
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: required")
        return default
    v = d[key]
    if v not in choices:
        raise ConfigError(f"{path}.{key}: expected one of {choices}, got {v!r}")
    return v


def _number_list(value: Any, path: str, length: int) -> list[float]:
    if (not isinstance(value, (list, tuple)) or len(value) != length
            or any(isinstance(x, bool) or not isinstance(x, (int, float))
                   for x in value)):
        raise ConfigError(f"{path}: expected a list of {length} numbers")
    return [float(x) for x in value]


def _parse_source(entry: Any, path: str) -> Source:
    d = _mapping(entry, path)
    _no_extra(d, path, {"az_deg", "range_m", "position", "farfield",
                        "amplitude", "phase_rad"})
    amplitude = _num(d, "amplitude", path, 1.0)
    phase_rad = _num(d, "phase_rad", path, 0.0)
    forms = [name for name in ("az_deg", "position", "farfield") if name in d]
    if "range_m" in d and "az_deg" not in d:
        raise ConfigError(f"{path}: range_m needs az_deg")
    try:
        if forms == ["az_deg"]:
            if "range_m" not in d:
                raise ConfigError(f"{path}: az_deg needs range_m")
            return source_from_az_range(_num(d, "az_deg", path),
                                        _num(d, "range_m", path),
                                        amplitude, phase_rad)
        if forms == ["position"]:
            x, y, z = _number_list(d["position"], f"{path}.position", 3)
            return Source.point(Vec3(x, y, z), amplitude, phase_rad)
        if forms == ["farfield"]:
            u, v = _number_list(d["farfield"], f"{path}.farfield", 2)
            return Source.farfield(u, v, amplitude, phase_rad)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e
    raise ConfigError(
        f"{path}: give exactly one of az_deg+range_m / position / farfield"
    )


def _check_duration(comb: CombSpec, what: str) -> None:
    try:
        whole_periods(comb.duration_s, comb.delta_f_hz)
    except ValueError as e:
        raise ConfigError(f"{what}: {e}") from e


def _check_tunable(comb: CombSpec, geometry: ArrayGeometry, sim: SimConfig,
                   what: str = "") -> AxisCalibration:
    """run_beamform's axis calibration for these settings; its ValueError for
    an untunable array (see calibrate_axis) becomes a config error."""
    try:
        return calibrate_axis(geometry, comb, sim.lo_for(comb), sim.phase_sign,
                              sim.grid_points, sim.calibration_range_m)
    except ValueError as e:
        raise ConfigError(f"{what}{e}") from e


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a YAML scenario document."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML: {e}") from e
    root = _mapping(data, "config")
    _no_extra(root, "config", {"comb", "array", "sources", "sim", "output"})
    for section in ("comb", "array", "sources"):
        if section not in root:
            raise ConfigError(f"config.{section}: required")

    cd = _mapping(root["comb"], "comb")
    _no_extra(cd, "comb", {"f0_hz", "delta_f_hz", "num_tones", "duration_s",
                           "amplitude"})
    try:
        comb = CombSpec(
            f0_hz=_num(cd, "f0_hz", "comb"),
            delta_f_hz=_num(cd, "delta_f_hz", "comb"),
            num_tones=_int(cd, "num_tones", "comb"),
            duration_s=_num(cd, "duration_s", "comb"),
            amplitude=_num(cd, "amplitude", "comb", 1.0),
        )
    except ValueError as e:
        raise ConfigError(f"comb: {e}") from e
    _check_duration(comb, "comb.duration_s")

    ad = _mapping(root["array"], "array")
    _no_extra(ad, "array", {"kind", "m", "dx_m", "n", "dy_m", "tuning_order"})
    kind = _choice(ad, "kind", "array", ("linear", "planar"))
    try:
        geometry = ArrayGeometry(
            kind=kind,  # type: ignore[arg-type]
            m=_int(ad, "m", "array"),
            dx_m=_num(ad, "dx_m", "array"),
            n=_int(ad, "n", "array", 1),
            dy_m=_num(ad, "dy_m", "array", 0.0),
            tuning_order=_choice(ad, "tuning_order", "array",
                                 ("ascending", "descending"),
                                 "ascending"),  # type: ignore[arg-type]
        )
    except ValueError as e:
        raise ConfigError(f"array: {e}") from e

    if not isinstance(root["sources"], list) or not root["sources"]:
        raise ConfigError("sources: expected a non-empty list")
    sources = tuple(_parse_source(entry, f"sources[{i}]")
                    for i, entry in enumerate(root["sources"]))
    kinds = {s.is_farfield for s in sources}
    if kinds == {True, False}:
        raise ConfigError(
            "sources: cannot mix far-field and point sources in one scenario"
        )
    model = "far-field" if kinds == {True} else "exact-spherical"
    scene = Scene(sources=sources, model=model)  # type: ignore[arg-type]

    sd = _mapping(root.get("sim", {}) or {}, "sim")
    _no_extra(sd, "sim", {"grid_points", "lo_hz", "phase_sign",
                          "calibration_range_m", "threshold_fraction",
                          "min_separation_u", "noise"})
    noise = None
    if "noise" in sd:
        nd = _mapping(sd["noise"], "sim.noise")
        _no_extra(nd, "sim.noise", {"sigma", "seed"})
        try:
            noise = NoiseSpec(sigma=_num(nd, "sigma", "sim.noise"),
                              seed=_int(nd, "seed", "sim.noise", 0))
        except ValueError as e:
            raise ConfigError(f"sim.noise: {e}") from e
    try:
        sim = SimConfig(
            grid_points=_int(sd, "grid_points", "sim", 4096),
            lo_hz=_num(sd, "lo_hz", "sim", None),
            phase_sign=PhaseSign(_choice(sd, "phase_sign", "sim",
                                         ("delay", "advance"), "delay")),
            noise=noise,
            threshold_fraction=_num(sd, "threshold_fraction", "sim", 0.5),
            min_separation_u=_num(sd, "min_separation_u", "sim", None),
            calibration_range_m=_num(sd, "calibration_range_m", "sim", None),
        )
    except ValueError as e:
        raise ConfigError(f"sim: {e}") from e

    od = _mapping(root.get("output", {}) or {}, "output")
    _no_extra(od, "output", {"directory", "emit_rf", "emit_phase_map"})
    directory = od.get("directory")
    if directory is not None and not isinstance(directory, str):
        raise ConfigError(f"output.directory: expected a string, got {directory!r}")

    return ScenarioConfig(
        comb=comb,
        geometry=geometry,
        scene=scene,
        sim=sim,
        output_directory=directory,
        emit_rf=_bool(od, "emit_rf", "output", False),
        emit_phase_map=_bool(od, "emit_phase_map", "output", False),
    )


def load_config_file(path: str | Path) -> ScenarioConfig:
    return parse_config(Path(path).read_text())


def scenario_path(name: str) -> Path:
    """Path of a bundled scenario file (name without the .yaml suffix)."""
    from importlib.resources import files

    p = Path(str(files("combbeam") / "scenarios" / f"{name}.yaml"))
    if not p.is_file():
        raise ConfigError(f"no bundled scenario named {name!r}")
    return p


def _format_cell(v: Any) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv_atomic(path: Path, header: Sequence[str],
                     rows: Iterable[Sequence[Any]]) -> None:
    """Write a CSV via a temp file + atomic rename; repr() floats. A failed
    write removes the temp file and leaves the target untouched. Creates
    the directory, so a command that fails before its first CSV leaves
    none behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_cell(v) for v in row])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_simulate(config: ScenarioConfig, out_dir: Path) -> None:
    map_source = _phase_map_source(config) if config.emit_phase_map else None
    _check_tunable(config.comb, config.geometry, config.sim)
    out = run_beamform(config.scene, config.geometry, config.comb, config.sim)
    u, azimuth_deg = out.u, out.azimuth_deg
    assert u is not None and azimuth_deg is not None
    write_csv_atomic(
        out_dir / "envelope.csv",
        ["time_s", "envelope", "u", "azimuth_deg"],
        zip(out.time_s, out.envelope, u, azimuth_deg),
    )
    assert out.peaks is not None
    write_csv_atomic(
        out_dir / "peaks.csv",
        ["time_s", "u", "azimuth_deg", "magnitude"],
        ((p.time_s, p.u, p.azimuth_deg, p.magnitude) for p in out.peaks),
    )
    ps = out.phasors
    assert ps is not None
    # Python abs(complex) per element: np.abs may differ in the last bit
    write_csv_atomic(
        out_dir / "phasors.csv",
        ["element", "tone", "baseband_hz", "magnitude", "phase_rad"],
        ((e, tone, bb, abs(a), float(np.angle(a))) for e, (tone, bb, a)
         in enumerate(zip(ps.tones, ps.baseband_hz, ps.amplitudes.tolist()))),
    )
    if config.emit_rf:
        phasors = scene_element_phasors(config.scene, config.geometry,
                                        config.comb, 0.0, config.sim.phase_sign)
        write_csv_atomic(out_dir / "rf.csv", ["time_s", "rf"],
                         zip(out.time_s, beamform_rf(phasors, out.time_s)))
    if map_source is not None:
        _write_phase_map(config, map_source, out_dir, with_curvature=False)


def _phase_map_source(config: ScenarioConfig) -> Source:
    """The scenario's one source: a phase map shows one wavefront."""
    if len(config.scene.sources) != 1:
        raise ConfigError("sources: a phase map needs exactly one source, "
                          f"got {len(config.scene.sources)}")
    return config.scene.sources[0]


def _write_phase_map(config: ScenarioConfig, src: Source, out_dir: Path,
                     with_curvature: bool) -> None:
    freq = config.comb.center_frequency_hz
    pm = phase_map(config.geometry, src, freq)
    rows = [(mi, ni, pm.x_m[mi], pm.y_m[ni], pm.phase_deg[mi, ni])
            for mi in range(pm.phase_deg.shape[0])
            for ni in range(pm.phase_deg.shape[1])]
    write_csv_atomic(out_dir / "phase_map.csv",
                     ["m", "n", "x_m", "y_m", "phase_deg"], rows)
    if with_curvature:
        res = curvature_profile(config.geometry, src, freq)
        crows = [(mi, ni, res[mi, ni])
                 for mi in range(res.shape[0]) for ni in range(res.shape[1])]
        write_csv_atomic(out_dir / "curvature.csv",
                         ["m", "n", "residual_cycles"], crows)


def cmd_phase_map(config: ScenarioConfig, out_dir: Path) -> None:
    if config.geometry.kind != "planar":
        raise ConfigError("phase-map needs a planar array")
    src = _phase_map_source(config)
    if src.is_farfield:
        raise ConfigError("phase-map needs a point source")
    _write_phase_map(config, src, out_dir, with_curvature=True)


_SWEEP_PARAMS = ("range_m", "num_tones", "delta_f_hz", "spacing_m")


def _parse_sweep_values(param: str, raw: str) -> list:
    if param not in _SWEEP_PARAMS:
        raise ConfigError(
            f"--param must be one of {_SWEEP_PARAMS}, got {param!r}"
        )
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigError("--values must be a non-empty comma-separated list")
    try:
        if param == "num_tones":
            return [int(s) for s in items]
        return [float(s) for s in items]
    except ValueError as e:
        raise ConfigError(f"--values: {e}") from e


def cmd_sweep(config: ScenarioConfig, out_dir: Path, param: str,
              values: list) -> None:
    if len(config.scene.sources) != 1:
        raise ConfigError("sweep needs a single-source scenario")
    base = config.scene.sources[0]
    if base.is_farfield:
        if param == "range_m":
            raise ConfigError("--param range_m: a range sweep needs a point "
                              "source, not a plane wave")
        true_az = u_to_azimuth(base.direction[0])
    else:
        assert base.position is not None
        true_az = azimuth_of(base.position)

    # build every point before running any, so a bad value fails early
    points, tunable = [], set()
    for value in values:
        comb, geometry, scene, sim = (config.comb, config.geometry,
                                      config.scene, config.sim)
        try:
            if param == "range_m":
                scene = Scene(sources=(source_from_az_range(
                    true_az, float(value), base.amplitude, base.phase_rad),))
                sim = replace(sim, calibration_range_m=float(value))
            elif param == "num_tones":
                comb = replace(comb, num_tones=int(value))
                geometry = replace(geometry, m=int(value))
            elif param == "delta_f_hz":
                comb = replace(comb, delta_f_hz=float(value))
            elif param == "spacing_m":
                geometry = replace(geometry, dx_m=float(value))
        except ValueError as e:
            raise ConfigError(f"--values: {param}={value!r}: {e}") from e
        _check_duration(comb, f"--values: {param}={value!r} with "
                              "comb.duration_s")
        if (comb, geometry) not in tunable:    # once per array, not per range
            _check_tunable(comb, geometry, sim, f"--values: {param}={value!r}: ")
            tunable.add((comb, geometry))
        points.append((value, comb, geometry, scene, sim))

    rows = [(value, *_sweep_step(scene, geometry, comb, sim, true_az,
                                 f"{param}={value}"))
            for value, comb, geometry, scene, sim in points]
    write_csv_atomic(out_dir / "sweep.csv",
                     ["value", "az_error_deg", "peak_magnitude", "width_u"],
                     rows)


_HELD_OUT_PROBES = (-0.8, -0.35, 0.15, 0.6)


def cmd_calibrate(config: ScenarioConfig) -> None:
    comb, geometry, sim = config.comb, config.geometry, config.sim
    cal = _check_tunable(comb, geometry, sim)
    f_lo = sim.lo_for(comb)
    print(f"slope_sign={cal.slope_sign}")
    print(f"t0_s={cal.t0_s!r}")
    print(f"delta_f_hz={cal.delta_f_hz!r}")
    grid = default_time_grid(comb, sim.grid_points)
    for u in _HELD_OUT_PROBES:
        phasors = scene_element_phasors(probe_scene(u, sim.calibration_range_m),
                                        geometry, comb, f_lo, sim.phase_sign)
        u_est = time_to_u(cal, _peak_time(phasors, grid))
        print(f"probe u={u!r}: estimated_u={u_est!r} residual={u_est - u!r}")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a config error (exit 1): exit 2 is reserved
    for runtime errors. Subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"config error: {message}\n")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="combbeam",
        description="Frequency-comb k-space beamforming simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": "simulate a scenario and write envelope/peak CSVs",
        "phase-map": "write per-element phase and curvature maps",
        "sweep": "sweep one parameter and write per-value metrics",
        "calibrate": "fit the time-to-u axis and print probe residuals",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="scenario YAML path")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--grid-points", type=int, default=None,
                        help="override sim.grid_points")
        sp.add_argument("--seed", type=int, default=None,
                        help="override sim.noise.seed")
        if name == "sweep":
            sp.add_argument("--param", required=True,
                            help="one of: " + " | ".join(_SWEEP_PARAMS))
            sp.add_argument("--values", required=True,
                            help="comma-separated sweep values")
    args = parser.parse_args(argv)

    try:
        config = parse_config(Path(args.config).read_text())
        if args.grid_points is not None:
            try:
                config = replace(config,
                                 sim=replace(config.sim,
                                             grid_points=args.grid_points))
            except ValueError as e:
                raise ConfigError(f"--grid-points: {e}") from e
        if args.seed is not None:
            if config.sim.noise is None:
                raise ConfigError("--seed: the scenario has no sim.noise "
                                  "to seed")
            try:
                noise = replace(config.sim.noise, seed=args.seed)
            except ValueError as e:
                raise ConfigError(f"--seed: {e}") from e
            config = replace(config, sim=replace(config.sim, noise=noise))

        if args.command == "calibrate":
            cmd_calibrate(config)
            return 0

        out_value = args.out if args.out is not None else config.output_directory
        if out_value is None:
            raise ConfigError(
                "no output directory: set output.directory or pass --out"
            )
        out_dir = Path(out_value)
        if args.command == "simulate":
            cmd_simulate(config, out_dir)
        elif args.command == "phase-map":
            cmd_phase_map(config, out_dir)
        elif args.command == "sweep":
            values = _parse_sweep_values(args.param, args.values)
            cmd_sweep(config, out_dir, args.param, values)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001  (runtime/model errors)
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
