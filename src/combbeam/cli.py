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
        amplitude: 1.0          # optional in every form, >= 0, default 1.0
        phase_rad: 0.0          # optional in every form, default 0.0
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

A missing or null sim or output section means all its defaults. Point
sources and plane waves cannot be mixed in one scenario (the wavefront model
is scene-wide). Commands:

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
a configuration error. So is a grid_points below num_tones times the number
of periods: each tone needs an FFT bin of its own. So is an lo_hz so large
that rounding in f - lo_hz moves the tones off their delta_f_hz spacing
(1.0e+18 Hz does on the bundled combs). Numbers may take the YAML 1.2
forms 1e5, 1.0e18, 5e-6 and .5e3 too. Exit codes: 0 success,
1 configuration errors (including bad or missing flags, and --seed on a
scenario without sim.noise), 2 runtime (math/model) errors, 3 I/O errors.
The output directory is created with the first CSV, so a command that fails
before writing leaves none. CSV files are written atomically (temp file +
rename) with full-precision repr() floats and no timestamps, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, NoReturn, Sequence

import numpy as np
import yaml

from .conventional import fit_phase_plane, phase_map
from .geometry import (
    ArrayGeometry,
    Scene,
    Source,
    Vec3,
    azimuth_of,
    source_from_az_range,
)
from .kspace import (
    SimConfig,
    _calibrated,
    _calibrating,
    _design_of,
    _peak_times,
    _sweep_step,
    beamform_rf,
    probe_scene,
    run_beamform,
    time_to_u,
    u_to_azimuth,
    whole_periods,
)
from .propagation import NoiseSpec, PhaseSign
from .waveform import CombSpec

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "parse_config",
    "load_config_file",
    "scenario_path",
    "main",
]


class ConfigError(Exception):
    """Scenario configuration is malformed or inconsistent."""


@contextmanager
def _config_errors(prefix: str = "") -> Iterator[None]:
    """Re-raise a ValueError from the block as a ConfigError, its message
    after ``prefix``."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(f"{prefix}{e}") from e


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario: domain objects plus command-level settings."""

    comb: CombSpec
    geometry: ArrayGeometry
    scene: Scene
    sim: SimConfig
    output_directory: str | None = None
    emit_rf: bool = False
    emit_phase_map: bool = False


# Section -> key -> kind. A kind is float (any number), int, bool, str, dict
# (a section of its own), list (non-empty), a tuple of allowed strings, or
# [float] * n (a list of n numbers). Defaults and bounds live only in the
# dataclass a section builds, and a key is required when its field has no
# default. The module docstring documents this table.
_SCHEMA: dict[str, dict[str, Any]] = {
    "config": {"comb": dict, "array": dict, "sources": list, "sim": dict,
               "output": dict},
    "comb": {"f0_hz": float, "delta_f_hz": float, "num_tones": int,
             "duration_s": float, "amplitude": float},
    "array": {"kind": ("linear", "planar"), "m": int, "dx_m": float,
              "n": int, "dy_m": float,
              "tuning_order": ("ascending", "descending")},
    "sources": {"az_deg": float, "range_m": float, "position": [float] * 3,
                "farfield": [float] * 2, "amplitude": float,
                "phase_rad": float},
    "sim": {"grid_points": int, "lo_hz": float,
            "phase_sign": ("delay", "advance"), "calibration_range_m": float,
            "threshold_fraction": float, "min_separation_u": float,
            "noise": dict},
    "sim.noise": {"sigma": float, "seed": int},
    "output": {"directory": str, "emit_rf": bool, "emit_phase_map": bool},
}
_EXPECTED = {float: "a number", int: "an integer", bool: "true/false",
             str: "a string"}


def _section(value: Any, path: str, schema: str | None = None) -> dict:
    """The keys a section gives, each checked against its kind in
    _SCHEMA[schema or path]; unknown keys are errors, and a missing or null
    section gives none."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    kinds = _SCHEMA[schema or path]
    extra = set(value) - set(kinds)
    if extra:
        raise ConfigError(f"{path}: unknown key(s) {sorted(extra, key=str)}")
    prefix = "" if path == "config" else f"{path}."  # sections are top level
    return {key: _checked(v, kinds[key], prefix + key)
            for key, v in value.items()}


def _is(v: Any, kind: type) -> bool:
    if isinstance(v, bool) and kind is not bool:
        return False  # YAML true/false is not a number
    if kind is float and isinstance(v, int):
        return abs(v) <= sys.float_info.max  # else float(v) overflows
    return isinstance(v, (int, float) if kind is float else kind)


def _checked(v: Any, kind: Any, path: str) -> Any:
    """v if it has this kind (numbers as float), else a ConfigError."""
    if kind is dict:
        return _section(v, path)
    if kind is list:
        if isinstance(v, list) and v:
            return v
        raise ConfigError(f"{path}: expected a non-empty list")
    if isinstance(kind, tuple):
        if v in kind:
            return v
        raise ConfigError(f"{path}: expected one of {kind}, got {v!r}")
    if isinstance(kind, list):
        if (isinstance(v, list) and len(v) == len(kind)
                and all(_is(x, float) for x in v)):
            return [float(x) for x in v]
        raise ConfigError(f"{path}: expected a list of {len(kind)} numbers")
    if _is(v, kind):
        return kind(v)
    raise ConfigError(f"{path}: expected {_EXPECTED[kind]}, got {v!r}")


def _build(cls: type, given: dict, path: str) -> Any:
    """cls(**given); a field without a default is required, and the
    dataclass's own ValueError becomes a config error on the section."""
    for f in fields(cls):
        if f.name not in given and f.default is MISSING:
            raise ConfigError(f"{path}.{f.name}: required")
    with _config_errors(f"{path}: "):
        return cls(**given)


def _parse_source(entry: Any, path: str) -> Source:
    d = _section(entry, path, "sources")
    extras = {key: d[key] for key in ("amplitude", "phase_rad") if key in d}
    if ("az_deg" in d) != ("range_m" in d):
        raise ConfigError(f"{path}: az_deg and range_m come as a pair")
    forms = [name for name in ("az_deg", "position", "farfield") if name in d]
    with _config_errors(f"{path}: "):
        if forms == ["az_deg"]:
            return source_from_az_range(d["az_deg"], d["range_m"], **extras)
        if forms == ["position"]:
            return Source.point(Vec3(*d["position"]), **extras)
        if forms == ["farfield"]:
            return Source.farfield(*d["farfield"], **extras)
    raise ConfigError(
        f"{path}: give exactly one of az_deg+range_m / position / farfield"
    )


class _Loader(yaml.SafeLoader):
    """yaml.SafeLoader that also reads the YAML 1.2 floats that YAML 1.1
    leaves as strings: an exponent without a dot or without a sign, as in
    1e5, 1.0e18, 1e+18, 5e-6 and .5e3."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a YAML scenario document."""
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML: {e}") from e
    given = _section(data, "config")
    comb = _build(CombSpec, given.get("comb", {}), "comb")
    # the estimators check this too, but phase-map runs none
    with _config_errors("comb.duration_s: "):
        whole_periods(comb.duration_s, comb.delta_f_hz)
    geometry = _build(ArrayGeometry, given.get("array", {}), "array")

    sources = tuple(_parse_source(entry, f"sources[{i}]")
                    for i, entry in enumerate(given.get("sources", [])))
    farfield = {s.is_farfield for s in sources}
    if farfield == {True, False}:
        raise ConfigError(
            "sources: cannot mix far-field and point sources in one scenario"
        )
    model = "far-field" if farfield == {True} else "exact-spherical"
    scene = _build(Scene, {"sources": sources, "model": model}, "sources")

    sd = given.get("sim", {})
    if "noise" in sd:
        sd["noise"] = _build(NoiseSpec, sd["noise"], "sim.noise")
    if "phase_sign" in sd:
        sd["phase_sign"] = PhaseSign(sd["phase_sign"])
    sim = _build(SimConfig, sd, "sim")
    if sim.lo_for(comb) < 0:
        raise ConfigError("sim.lo_hz: required when comb.f0_hz is negative")

    output = given.get("output", {})
    if "directory" in output:
        output["output_directory"] = output.pop("directory")
    return ScenarioConfig(comb, geometry, scene, sim, **output)


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
    # what the tunability gate rejects is a config error; run_beamform then
    # finds the design point remembered
    with _config_errors():
        _calibrating(_design_of(config.geometry, config.comb, config.sim))
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
        write_csv_atomic(out_dir / "rf.csv", ["time_s", "rf"],
                         zip(out.time_s, beamform_rf(ps, out.time_s)))
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
        res = fit_phase_plane(pm)[1] / 360.0  # curvature_profile of pm
        crows = [(mi, ni, res[mi, ni])
                 for mi in range(res.shape[0]) for ni in range(res.shape[1])]
        write_csv_atomic(out_dir / "curvature.csv",
                         ["m", "n", "residual_cycles"], crows)


def cmd_phase_map(config: ScenarioConfig, out_dir: Path) -> None:
    if config.geometry.kind != "planar":
        raise ConfigError("array.kind: phase-map needs a planar array")
    src = _phase_map_source(config)
    if src.is_farfield:
        raise ConfigError("sources: phase-map needs a point source")
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
    with _config_errors("--values: "):
        if param == "num_tones":
            return [int(s) for s in items]
        return [float(s) for s in items]


def cmd_sweep(config: ScenarioConfig, out_dir: Path, param: str,
              values: list) -> None:
    if len(config.scene.sources) != 1:
        raise ConfigError("sources: sweep needs a single-source scenario")
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
    points = []
    for value in values:
        comb, geometry, scene, sim = (config.comb, config.geometry,
                                      config.scene, config.sim)
        with _config_errors(f"--values: {param}={value!r}: "):
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
            _calibrating(_design_of(geometry, comb, sim))
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
    held_out = [probe_scene(u, sim.calibration_range_m)
                for u in _HELD_OUT_PROBES]
    with _config_errors():
        cal, _, grid, fields = _calibrated(
            held_out, _design_of(geometry, comb, sim))
    times = _peak_times(fields, grid, len(held_out))
    print(f"slope_sign={cal.slope_sign}")
    print(f"t0_s={cal.t0_s!r}")
    print(f"delta_f_hz={cal.delta_f_hz!r}")
    for u, u_est in zip(_HELD_OUT_PROBES, time_to_u(cal, times).tolist()):
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
            with _config_errors("--grid-points: "):
                config = replace(config,
                                 sim=replace(config.sim,
                                             grid_points=args.grid_points))
        if args.seed is not None:
            if config.sim.noise is None:
                raise ConfigError("--seed: the scenario has no sim.noise "
                                  "to seed")
            with _config_errors("--seed: "):
                noise = replace(config.sim.noise, seed=args.seed)
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
