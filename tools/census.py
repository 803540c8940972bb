"""Output census: run a fixed matrix of combbeam commands and library calls
in-process and write one JSON record per output, or compare two censuses.

    python tools/census.py --out census-head.jsonl [--src DIR]
    python tools/census.py --diff census-parent.jsonl census-head.jsonl

A record holds the output's name, its exit code (0, or 1 for a library
call that raised), the sha256 of its stdout, its stderr and each file it
wrote, and the float64 values of its numeric results: every numeric CSV
column, the numbers printed to stdout and every number a library call
returns. ``--diff`` lists the records that differ and, for each numeric
column that moved, the largest absolute and relative difference. It
exits 0 whether or not records differ.

Each output is taken twice: cold, with no design point remembered
(``kspace._design_point``'s cache cleared), then warm, with the design
points and calibrations the cold run left. The record is the cold one. A
warm record that differs from it is a fault of the memo: the record then
names the fields that moved under ``warm_differs``, and the census exits
1 after writing every record. A source tree older than that cache holds
its design points in the dict ``kspace._CALIBRATIONS``, cleared instead.

``--src`` is the source tree combbeam is imported from (default: the
``src/`` next to this tool), so one script can take the census of two
checkouts. FFT rounding may differ between numpy builds: compare only
censuses taken with the same numpy.

The matrix:
- ``simulate``, ``calibrate`` and ``phase-map`` on the bundled scenarios;
- on ``single_source`` and ``three_sources``: ``simulate`` with noise and
  ``--seed``, ``emit_rf``, ``emit_phase_map``, descending tuning, 4097 and
  16384 grid points and the other calibration (point probes at 10 m for
  a plane-wave scenario, plane waves otherwise); ``calibrate`` with
  descending tuning and the other calibration;
- ``sweep`` over each of its four parameters on ``single_source``,
  including a ``delta_f_hz`` that leaves a partial period;
- ``run_beamform``, ``compare_methods``, ``peak_time_report`` and
  ``snr_gain`` (20 trials) on both line scenarios with the scenario's
  calibration, the other calibration and noise; the noisy
  ``beamform_envelope`` (trials 0 and 3); ``beamform_rf`` of the scene's
  phasors mixed at f_lo = 0 and at the scenario's LO; ``calibrate_axis``
  for both phase signs and both probe kinds; ``nearfield_error_sweep``;
- ``run_beamform`` on the ``estimate_small`` and ``estimate_large`` ops of
  ``perfbench/workloads.py`` for seeds 1 and 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINES = ("single_source", "three_sources")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _numbers(obj, name: str, out: dict) -> None:
    """Flatten a result into out[column] = list of floats (None kept)."""
    import numpy as np

    if obj is None:
        out[name] = None
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _numbers(getattr(obj, f.name), f"{name}.{f.name}".lstrip("."), out)
    elif isinstance(obj, (list, tuple)) and any(
            dataclasses.is_dataclass(o) or isinstance(o, (list, tuple))
            for o in obj):
        for i, o in enumerate(obj):
            _numbers(o, f"{name}[{i}]", out)
    elif isinstance(obj, (bool, int, float, np.ndarray, list, tuple,
                          np.generic)):
        a, name = np.asarray(obj), name or "value"
        if a.dtype.kind == "c":
            out[f"{name}.real"] = a.real.ravel().tolist()
            out[f"{name}.imag"] = a.imag.ravel().tolist()
        elif a.dtype.kind in "biuf":
            out[name] = a.astype(float).ravel().tolist()


def _record(name: str, code: int, stdout: str, stderr: str,
            files: dict, values: dict) -> dict:
    return {"name": name, "exit": code, "stdout": _sha(stdout),
            "stderr": _sha(stderr), "files": files, "values": values}


def _cold_and_warm(take_record):
    """Take the record cold and warm (see the module docstring)."""
    @functools.wraps(take_record)
    def both(*args, **kwargs) -> dict:
        from combbeam import kspace

        if hasattr(kspace, "_CALIBRATIONS"):
            kspace._CALIBRATIONS.clear()
        else:
            kspace._design_point.cache_clear()
        cold = take_record(*args, **kwargs)
        warm = take_record(*args, **kwargs)
        moved = [k for k in cold
                 if json.dumps(cold[k]) != json.dumps(warm[k])]
        if moved:
            cold["warm_differs"] = moved
        return cold
    return both


def _csv_values(fname: str, text: str, values: dict) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return
    for j, col in enumerate(rows[0]):
        try:
            values[f"{fname}:{col}"] = [float(r[j]) for r in rows[1:]]
        except (ValueError, IndexError):
            pass


@_cold_and_warm
def _cli(name: str, scenario: str, command: str, *args: str,
         edit=None) -> dict:
    """One CLI command on a bundled scenario, edited by ``edit(doc)``."""
    import yaml
    from combbeam import cli

    doc = yaml.safe_load(cli.scenario_path(scenario).read_text())
    if edit is not None:
        edit(doc)
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "scenario.yaml", Path(tmp) / "out"
        cfg.write_text(yaml.safe_dump(doc))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", str(cfg), "--out", str(out),
                             *args])
        text = stdout.getvalue().replace(tmp, "<tmp>")
        err = stderr.getvalue().replace(tmp, "<tmp>")
        files, values = {}, {}
        for path in sorted(out.glob("*")) if out.is_dir() else ():
            files[path.name] = _sha(path.read_bytes())
            _csv_values(path.name, path.read_text(), values)
    if text:
        values["stdout"] = [float(x) for x in NUMBER.findall(text)]
    return _record(name, code, text, err, files, values)


@_cold_and_warm
def _call(name: str, fn) -> dict:
    """One library call; a raised exception is exit 1 with its repr."""
    try:
        result = fn()
    except Exception as e:  # noqa: BLE001  (the error is the output)
        return _record(name, 1, "", repr(e), {}, {})
    values: dict = {}
    _numbers(result, "", values)
    return _record(name, 0, "", "", {}, values)


def _other_calibration(doc: dict) -> None:
    if "calibration_range_m" in doc["sim"]:
        del doc["sim"]["calibration_range_m"]
    else:
        doc["sim"]["calibration_range_m"] = 10.0


def _set(section: str, key: str, value):
    def edit(doc):
        doc.setdefault(section, {})[key] = value
    return edit


def cli_records():
    from combbeam.cli import scenario_path

    bundled = sorted(p.stem for p in scenario_path(
        "single_source").parent.glob("*.yaml"))
    for sc in bundled:
        for command in ("simulate", "calibrate", "phase-map"):
            yield _cli(f"cli/{command}/{sc}", sc, command)
    noise = _set("sim", "noise", {"sigma": 0.5, "seed": 3})
    descending = _set("array", "tuning_order", "descending")
    for sc in LINES:
        yield _cli(f"cli/simulate/{sc}/noise-seed7", sc, "simulate",
                   "--seed", "7", edit=noise)
        yield _cli(f"cli/simulate/{sc}/emit_rf", sc, "simulate",
                   edit=_set("output", "emit_rf", True))
        yield _cli(f"cli/simulate/{sc}/emit_phase_map", sc, "simulate",
                   edit=_set("output", "emit_phase_map", True))
        for command in ("simulate", "calibrate"):
            yield _cli(f"cli/{command}/{sc}/descending", sc, command,
                       edit=descending)
            yield _cli(f"cli/{command}/{sc}/other-calibration", sc, command,
                       edit=_other_calibration)
        for g in ("4097", "16384"):
            yield _cli(f"cli/simulate/{sc}/grid{g}", sc, "simulate",
                       "--grid-points", g)
    for param, values in (("range_m", "2,8,32"), ("num_tones", "11,21,40"),
                          ("delta_f_hz", "200000,400000,100000"),
                          ("spacing_m", "0.006,0.0079,0.0095")):
        yield _cli(f"cli/sweep/single_source/{param}", "single_source",
                   "sweep", "--param", param, "--values", values)


def library_records():
    from dataclasses import replace

    from combbeam import analysis, kspace
    from combbeam.cli import load_config_file, scenario_path
    from combbeam.propagation import NoiseSpec, PhaseSign, scene_element_phasors

    noise = NoiseSpec(sigma=0.5, seed=3)
    for sc in LINES:
        cfg = load_config_file(scenario_path(sc))
        scene, geom, comb, sim = cfg.scene, cfg.geometry, cfg.comb, cfg.sim
        other = replace(sim, calibration_range_m=(
            10.0 if sim.calibration_range_m is None else None))
        for label, config in (("scenario", sim), ("other-calibration", other),
                              ("noise", replace(sim, noise=noise))):
            args = (scene, geom, comb)
            yield _call(f"lib/run_beamform/{sc}/{label}",
                        lambda: kspace.run_beamform(*args, config))
            yield _call(f"lib/compare_methods/{sc}/{label}",
                        lambda: analysis.compare_methods(*args, config))
            yield _call(f"lib/peak_time_report/{sc}/{label}",
                        lambda: analysis.peak_time_report(*args, config))
            yield _call(f"lib/snr_gain/{sc}/{label}",
                        lambda: analysis.snr_gain(*args, 0.7, trials=20,
                                                  seed=5, config=config))
        ps = scene_element_phasors(scene, geom, comb, sim.lo_for(comb),
                                   sim.phase_sign)
        grid = kspace.default_time_grid(comb, sim.grid_points)
        for trial in (0, 3):
            yield _call(f"lib/beamform_envelope/{sc}/noise-trial{trial}",
                        lambda: kspace.beamform_envelope(ps, grid, noise,
                                                         trial))
        for label, f_lo in (("lo0", 0.0), ("lo-scenario", sim.lo_for(comb))):
            yield _call(f"lib/beamform_rf/{sc}/{label}",
                        lambda: kspace.beamform_rf(scene_element_phasors(
                            scene, geom, comb, f_lo, sim.phase_sign), grid))
    cfg = load_config_file(scenario_path("single_source"))
    geom, comb, sim = cfg.geometry, cfg.comb, cfg.sim
    for sign in PhaseSign:
        for range_m in (None, 10.0):
            yield _call(f"lib/calibrate_axis/{sign.name}/range{range_m}",
                        lambda: kspace.calibrate_axis(
                            geom, comb, sim.lo_for(comb), sign,
                            sim.grid_points, range_m))
    yield _call("lib/nearfield_error_sweep/single_source",
                lambda: analysis.nearfield_error_sweep(
                    -30.0, [1.5, 3.0, 8.0], geom, comb, sim))


def workload_records():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for seed in (1, 2):
        ops = (workloads.EstimateSmall(seed).ops
               + workloads.EstimateLarge(seed).round(0))
        for op in ops:
            yield _call(f"perfbench/seed{seed}/{op.name}", op.call)


def take(src: Path, out: Path) -> int:
    sys.path.insert(0, str(src))
    import combbeam

    where = Path(combbeam.__file__).resolve()
    if src.resolve() not in where.parents:
        print(f"census: combbeam imported from {where}, not {src}",
              file=sys.stderr)
        return 2
    count, warm_differs = 0, []
    with open(out, "w") as fh:
        for group in (cli_records, library_records, workload_records):
            for record in group():
                fh.write(json.dumps(record) + "\n")
                count += 1
                if "warm_differs" in record:
                    warm_differs.append(record)
    print(f"census: {count} records of {where.parent} written to {out}")
    for record in warm_differs:
        print(f"census: {record['name']}: warm differs from cold in "
              f"{', '.join(record['warm_differs'])}", file=sys.stderr)
    return 1 if warm_differs else 0


def _load(path: Path) -> dict:
    with open(path) as fh:
        return {r["name"]: r for r in map(json.loads, fh)}


def _column_diff(a, b) -> str:
    import numpy as np

    if a == b:
        return ""
    if a is None or b is None or len(a) != len(b):
        return (f"shape {None if a is None else len(a)} -> "
                f"{None if b is None else len(b)}")
    x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    if same.all():
        return ""
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.where(same, 0.0, np.abs(x - y))
        rel = np.where(same, 0.0, d / np.maximum(np.abs(x), np.abs(y)))
    return (f"{int((~same).sum())} of {x.size} differ, "
            f"max abs {np.nanmax(d):.3g}, max rel {np.nanmax(rel):.3g}")


def diff(path_a: Path, path_b: Path) -> int:
    a, b = _load(path_a), _load(path_b)
    names = list(a) + [n for n in b if n not in a]
    differing = 0
    for name in names:
        if name not in a or name not in b:
            differing += 1
            print(f"{name}: only in {path_a if name in a else path_b}")
            continue
        ra, rb = a[name], b[name]
        lines = [f"  {k}: {ra[k]} -> {rb[k]}" for k in ("exit",)
                 if ra[k] != rb[k]]
        lines += [f"  {k} differs" for k in ("stdout", "stderr")
                  if ra[k] != rb[k]]
        fa, fb = ra["files"], rb["files"]
        lines += [f"  file {f} differs" for f in sorted(set(fa) | set(fb))
                  if fa.get(f) != fb.get(f)]
        va, vb = ra["values"], rb["values"]
        for col in sorted(set(va) | set(vb)):
            change = _column_diff(va.get(col), vb.get(col))
            if change:
                lines.append(f"  {col}: {change}")
        if lines:
            differing += 1
            print(f"{name}:")
            print("\n".join(lines))
    print(f"census diff: {len(names)} records, {differing} differ")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="census", description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to import combbeam from")
    parser.add_argument("--out", type=Path, help="census file to write")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two census files")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.out is None:
        parser.error("give --out FILE or --diff A B")
    return take(args.src, args.out)


if __name__ == "__main__":
    sys.exit(main())
