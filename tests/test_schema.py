"""The scenario schema table in combbeam.cli: the module docstring documents
exactly its keys, documents drawn from it run through the CLI without a
runtime error, and the tunability gate passes only what calibrates."""

import contextlib
import io
import re
import tempfile
import textwrap
from dataclasses import MISSING, fields
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from combbeam import cli, kspace
from combbeam.geometry import ArrayGeometry
from combbeam.kspace import AxisCalibration, SimConfig, calibrate_axis
from combbeam.propagation import NoiseSpec
from combbeam.waveform import CombSpec

from scenario_yaml import dump

PATHS = {f"{s}.{key}" for s, kinds in cli._SCHEMA.items() if s != "config"
         for key in kinds}


def _documented(section, value):
    """section.key paths of a documented section; a list (sources) documents
    the union of its entries' keys."""
    if isinstance(value, list):
        value = {k: v for entry in value for k, v in entry.items()}
    for key, v in value.items():
        yield f"{section}.{key}"
        if isinstance(v, dict):
            yield from _documented(f"{section}.{key}", v)


def test_docstring_documents_exactly_the_schema_table():
    block = cli.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]
    doc = yaml.safe_load(textwrap.dedent(block))
    assert list(doc) == list(cli._SCHEMA["config"])
    assert {p for s, v in doc.items() for p in _documented(s, v)} == PATHS


# The dataclass each section builds: its fields without a default are drawn
# in every document, the others in some.
BUILDS = {"comb": CombSpec, "array": ArrayGeometry, "sim": SimConfig,
          "sim.noise": NoiseSpec}

# Ranges of drawn numbers. Sizes are bounded by arithmetic: at most 64 tones,
# 16384 grid points and 3 envelope periods, so no draw allocates a large grid.
RANGES = {
    "comb.f0_hz": (-1e6, 40e9), "comb.delta_f_hz": (1e4, 2e6),
    "comb.num_tones": (1, 64), "comb.duration_s": (1e-7, 1e-4),
    "comb.amplitude": (0.0, 2.0),
    "array.m": (1, 64), "array.n": (1, 4),
    "array.dx_m": (1e-4, 0.05), "array.dy_m": (1e-4, 0.05),
    "sources.az_deg": (-90.0, 90.0), "sources.range_m": (1e-3, 100.0),
    "sources.position": (-30.0, 30.0), "sources.farfield": (-1.0, 1.0),
    "sources.amplitude": (0.0, 2.0), "sources.phase_rad": (-7.0, 7.0),
    "sim.grid_points": (2, 16384), "sim.lo_hz": (0.0, 40e9),
    "sim.calibration_range_m": (1e-3, 100.0),
    "sim.threshold_fraction": (0.0, 1.0), "sim.min_separation_u": (0.0, 1.0),
    "sim.noise.sigma": (0.0, 3.0), "sim.noise.seed": (0, 2 ** 32),
}


def _value(draw, path, kind):
    if isinstance(kind, tuple):
        return draw(st.sampled_from(kind))
    if kind is bool:
        return draw(st.booleans())
    if kind is str:
        return "unused"  # output.directory: every run passes --out
    if isinstance(kind, list):
        lo, hi = RANGES[path]
        return draw(st.lists(st.floats(lo, hi), min_size=len(kind),
                             max_size=len(kind)))
    lo, hi = RANGES[path]
    return draw(st.integers(lo, hi) if kind is int else st.floats(lo, hi))


def _section(draw, section):
    required = {f.name for f in fields(BUILDS[section])
                if f.default is MISSING} if section in BUILDS else set()
    out = {}
    for key, kind in cli._SCHEMA[section].items():
        if kind in (dict, list) or not (key in required
                                        or draw(st.booleans())):
            continue
        out[key] = _value(draw, f"{section}.{key}", kind)
    return out


FORMS = (("az_deg", "range_m"), ("position",), ("farfield",))


@st.composite
def documents(draw):
    """A scenario drawn from the schema table. Most draws tie the fields a
    run needs tied (one element per tone, whole periods, one source form),
    so that most documents get past parsing."""
    def mostly():  # integers() favours its bounds; sampled_from is even
        return draw(st.sampled_from((True,) * 9 + (False,)))

    doc = {s: _section(draw, s) for s in ("comb", "array", "sim", "output")}
    if draw(st.booleans()):
        doc["sim"]["noise"] = _section(draw, "sim.noise")
    form = draw(st.sampled_from(FORMS))
    doc["sources"] = []
    for _ in range(draw(st.integers(1, 3))):
        entry = {k: v for k, v in _section(draw, "sources").items()
                 if not any(k in f for f in FORMS)}
        for key in form if mostly() else draw(st.sampled_from(FORMS)):
            entry[key] = _value(draw, f"sources.{key}",
                                cli._SCHEMA["sources"][key])
        doc["sources"].append(entry)
    comb, array = doc["comb"], doc["array"]
    if mostly():
        comb["duration_s"] = draw(st.integers(1, 3)) / comb["delta_f_hz"]
    if mostly():
        array["m"] = comb["num_tones"]
    if mostly():
        array["kind"] = "linear"
        array.pop("n", None)
    return doc


def _named(message):
    """The schema path or flag a config error message starts with."""
    head = re.match(r"(--[\w-]+|[\w.\[\]]+)", message).group(1)
    return re.sub(r"\[\d+\]", "", head)


@settings(max_examples=60, deadline=None)
@given(doc=documents())
def test_drawn_documents_exit_0_or_name_a_field(doc):
    # a grid below num_tones x periods once exited 2, or gave a wrong
    # direction with exit 0
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "drawn.yaml"
        cfg.write_text(dump(doc))
        for command in ("simulate", "calibrate"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([command, "--config", str(cfg),
                               "--out", str(Path(tmp) / "out")])
            assert rc in (0, 1), err.getvalue()
            if rc == 1:
                message = err.getvalue().removeprefix("config error: ")
                named = _named(message)
                assert named in PATHS | set(cli._SCHEMA) or \
                    named.startswith("--"), message


@settings(max_examples=60, deadline=None)
@given(doc=documents())
def test_the_tunability_gate_is_complete(doc):
    # the design point's constructor runs no calibration, so what it passes
    # must calibrate, and what it rejects it must name
    try:
        config = cli.parse_config(dump(doc))
    except cli.ConfigError:
        return
    comb, geometry, sim = config.comb, config.geometry, config.sim
    kspace._CALIBRATIONS.clear()
    try:
        kspace._calibrating(kspace._design_of(geometry, comb, sim))
    except ValueError as e:
        named = _named(str(e))
        assert named in PATHS, str(e)
        # the gate remembers no point it rejects; one tone passes the gate
        # and fails only the axis fit's rule
        assert len(kspace._CALIBRATIONS) == (named == "comb.num_tones")
        return
    cal = calibrate_axis(geometry, comb, sim.lo_for(comb), sim.phase_sign,
                         sim.grid_points, sim.calibration_range_m)
    assert isinstance(cal, AxisCalibration)
