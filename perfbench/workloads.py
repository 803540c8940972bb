"""The four workloads: seeded inputs, one round of operations, and checks.

A workload is a list of operations (one *round*) that the runner repeats
in whole rounds. Every operation has a ``call`` that the runner times and a
``check`` that compares the result with ``oracle`` (independent numpy
references) or with a property the method must have. ``check`` returns
None when the output is right and a one-line description otherwise.

Inputs are scenario dictionaries in the YAML schema of ``combbeam.cli``;
the program receives them through ``parse_config``, the checks read the
dictionaries directly.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import math
import os
import resource
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import oracle
from combbeam import analysis, cli, conventional, kspace

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "src" / "combbeam" / "scenarios"
RUNS = ROOT / ".perfbench_runs"

SNR_TOLERANCE_DB = 1.0       # measured spread over 20 seeds: sd 0.11 dB
NEARFIELD_FLOOR_DEG = 1e-3   # error changes below this are refinement noise


class Op:
    """One operation of a round."""

    def __init__(self, name, call, check, fault=False):
        self.name = name
        self.call = call
        self.check = check
        self.fault = fault   # a known program fault: failing is expected

    def prepare(self) -> None:
        """Untimed work before each call."""


def bundled(name: str) -> dict:
    return yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text())


def parse(cfg: dict):
    """Hand a scenario to the program the way the CLI does."""
    return cli.parse_config(yaml.safe_dump(cfg))


def spread_us(rng, k: int, lo: float, hi: float, sep: float) -> list[float]:
    """k direction cosines in [lo, hi], pairwise at least sep apart."""
    while True:
        us = sorted(float(u) for u in rng.uniform(lo, hi, k))
        if all(b - a >= sep for a, b in zip(us, us[1:])):
            return us


def farfield_sources(rng, us) -> list[dict]:
    return [{"farfield": [u, 0.0], "amplitude": float(rng.uniform(0.8, 1.0)),
             "phase_rad": float(rng.uniform(0.0, 2.0 * math.pi))} for u in us]


def point_sources(rng, us, r_lo: float, r_hi: float) -> list[dict]:
    out = []
    for u in us:
        r = float(rng.uniform(r_lo, r_hi))
        out.append({"position": [r * u, 0.0, r * math.sqrt(1.0 - u * u)],
                    "amplitude": float(rng.uniform(0.8, 1.0)),
                    "phase_rad": float(rng.uniform(0.0, 2.0 * math.pi))})
    return out


def check_estimate(cfg: dict, out, sample_idx, full_gain: bool) -> str | None:
    """Directions, coherent bound, envelope spot check and peak heights."""
    n = int(cfg["array"]["m"])
    if not out.peaks:
        return "no peaks"
    problem = oracle.match_directions([oracle.true_u(s) for s in cfg["sources"]],
                                      [p.u for p in out.peaks], 1.0 / n)
    if problem:
        return problem
    bound = oracle.coherent_bound(cfg)
    top = max(p.magnitude for p in out.peaks)
    if top > bound * (1.0 + 1e-12):
        return f"peak {top!r} above coherent bound {bound!r}"
    idx = np.asarray(sample_idx)
    ref = oracle.envelope(cfg, out.time_s[idx])
    err = float(np.abs(out.envelope[idx] - ref).max())
    if err > 1e-9 * bound:
        return f"envelope differs from the dense sum by {err:.3g}"
    dt = float(out.time_s[1] - out.time_s[0])
    for p in out.peaks:
        want = oracle.local_max(cfg, p.time_s, dt)
        if abs(p.magnitude - want) > 1e-3 * want:
            return f"peak height {p.magnitude!r}, dense maximum {want!r}"
    if full_gain and len(cfg["sources"]) == 1 and "farfield" in cfg["sources"][0]:
        if top < (1.0 - 1e-3) * bound:
            return f"lone plane wave peaks at {top!r}, full gain {bound!r}"
    return None


def estimate_op(name: str, cfg: dict, rng, grid_points: int,
                full_gain: bool) -> Op:
    program = parse(cfg)
    idx = rng.integers(0, grid_points, 4)

    def call():
        return kspace.run_beamform(program.scene, program.geometry,
                                   program.comb, program.sim)

    return Op(name, call, lambda out: check_estimate(cfg, out, idx, full_gain))


class Workload:
    """Seeded inputs and the operations of one round."""

    name = ""
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self.trace_dir: Path | None = None   # set for traced CLI rounds

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def first_call(self) -> None:
        """What the set-up probe times after building the inputs."""
        self.round(0)[0].call()


class EstimateSmall(Workload):
    """run_beamform on the bundled 21-element line, 4096-point grid."""

    name = "estimate_small"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 1])
        base = bundled("single_source")
        inputs = [("single_source", base), ("three_sources", bundled("three_sources"))]
        for model in ("farfield", "point"):
            for k in (1, 2, 3):
                for rep in range(2):
                    cfg = copy.deepcopy(base)
                    cfg["array"]["tuning_order"] = str(
                        rng.choice(["ascending", "descending"]))
                    us = spread_us(rng, k, -0.8, 0.8, 0.3)
                    if model == "farfield":
                        cfg["sources"] = farfield_sources(rng, us)
                    else:
                        cfg["sources"] = point_sources(rng, us, 5.0, 15.0)
                        cfg["sim"]["calibration_range_m"] = 10.0
                    inputs.append((f"{model}{k}_{rep}", cfg))
        self.ops = [estimate_op(name, cfg, rng, 4096, True)
                    for name, cfg in inputs]

    def round(self, index):
        return self.ops


class EstimateLarge(Workload):
    """run_beamform on fresh 256–320-element lines, 16384-point grid."""

    name = "estimate_large"
    SOURCES = (1, 2, 3, 4)
    PROBE_N = 288   # the set-up probe's first call, the same on every seed

    def round(self, index):
        ops = []
        for k in self.SOURCES:
            rng = np.random.default_rng([self.seed, 2, index, k])
            ops.append(self._op(rng, int(rng.integers(256, 321)), k))
        return ops

    def _op(self, rng, n: int, k: int) -> Op:
        cfg = bundled("single_source")
        cfg["comb"]["num_tones"] = n
        top = cfg["comb"]["f0_hz"] + n * cfg["comb"]["delta_f_hz"]
        cfg["array"]["m"] = n
        # half a wavelength at the top tone, the spacing the two-probe
        # calibration's fixed slope 2·Δf assumes
        cfg["array"]["dx_m"] = oracle.SPEED_OF_LIGHT / top / 2.0
        cfg["sources"] = farfield_sources(rng, spread_us(rng, k, -0.8, 0.8, 0.1))
        cfg["sim"]["grid_points"] = 16384
        return estimate_op(f"n{n}_k{k}", cfg, rng, 16384, False)

    def first_call(self) -> None:
        self._op(np.random.default_rng([self.seed, 2]), self.PROBE_N, 1).call()


def planar_scene(rng) -> dict:
    """64×64 half-wave grid at 19 GHz with three point sources."""
    freq = 19.0e9
    half = oracle.SPEED_OF_LIGHT / freq / 2.0
    sources = []
    while len(sources) < 3:
        u, v = rng.uniform(-0.6, 0.6, 2)
        if u * u + v * v > 0.5:
            continue
        r = rng.uniform(3.0, 8.0)
        sources.append({"position": [float(r * u), float(r * v),
                                     float(r * math.sqrt(1 - u * u - v * v))],
                        "amplitude": float(rng.uniform(0.8, 1.0))})
    return {"comb": {"f0_hz": freq - 2.0e5, "delta_f_hz": 2.0e5,
                     "num_tones": 1, "duration_s": 5e-6},
            "array": {"kind": "planar", "m": 64, "n": 64,
                      "dx_m": half, "dy_m": half},
            "sources": sources}


class AnalysisMix(Workload):
    """One op: snr_gain, a near-field sweep, compare_methods,
    peak_time_report and the conventional path on a 64×64 array."""

    name = "analysis_mix"
    VARIANTS = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        three = bundled("three_sources")
        self.three = (three, parse(three))
        self.ops = []
        for v in range(self.VARIANTS):
            rng = np.random.default_rng([seed, 3, v])
            line = bundled("single_source")
            line["sources"] = [{"farfield": [float(rng.uniform(-0.6, 0.6)), 0.0]}]
            # |az| >= 15°: closer to boresight the error is not monotone in
            # range (see CHANGES.md), so that check would fail on some seeds
            az = float(rng.choice([-1.0, 1.0]) * rng.uniform(15.0, 50.0))
            ranges = np.sort(np.geomspace(1.5, 100.0, 8)
                             * rng.uniform(0.9, 1.1, 8))
            planar = planar_scene(rng)
            grid = np.linspace(-0.95, 0.95, 64)
            probes = rng.integers(0, 64, (3, 2))
            self.ops.append(self._op(v, (line, parse(line)), az, ranges,
                                     (planar, parse(planar)), grid, probes,
                                     noise_seed=seed * self.VARIANTS + v))

    def _op(self, v, line, az, ranges, planar, grid, probes, noise_seed):
        (line_cfg, lp), (three_cfg, tp), (pcfg, pp) = line, self.three, planar
        freq = pp.comb.center_frequency_hz

        def call():
            snap = conventional.scene_snapshot(pp.scene, pp.geometry, freq)
            return {
                "snr": analysis.snr_gain(lp.scene, lp.geometry, lp.comb, 1.0,
                                         100, noise_seed, lp.sim),
                "sweep": analysis.nearfield_error_sweep(
                    az, ranges, lp.geometry, lp.comb, lp.sim),
                "compare": analysis.compare_methods(
                    tp.scene, tp.geometry, tp.comb, tp.sim),
                "report": analysis.peak_time_report(
                    lp.scene, lp.geometry, lp.comb, lp.sim),
                "snapshot": snap,
                "beam": conventional.beamform_conventional(
                    snap, pp.geometry, oracle.SPEED_OF_LIGHT / freq, grid, grid),
                "phase": conventional.phase_map(pp.geometry,
                                                pp.scene.sources[0], freq),
                "curv": conventional.curvature_profile(
                    pp.geometry, pp.scene.sources[0], freq),
            }

        def check(r):
            n = int(line_cfg["array"]["m"])
            want = 10.0 * math.log10(n)
            if abs(r["snr"] - want) > SNR_TOLERANCE_DB:
                return f"snr_gain {r['snr']:.3f} dB, expected {want:.3f} ± {SNR_TOLERANCE_DB}"
            err = np.abs(r["sweep"].az_error_deg)
            if err[-1] >= err[0] or np.any(np.diff(err) > NEARFIELD_FLOOR_DEG):
                return f"near-field error does not fall with range: {err.tolist()}"
            truth = [oracle.true_u(s) for s in three_cfg["sources"]]
            tol = 1.0 / int(three_cfg["array"]["m"])
            for label, azs in (("k-space", r["compare"].kspace_azimuths),
                               ("conventional", r["compare"].conventional_azimuths)):
                problem = oracle.match_directions(
                    truth, [math.sin(math.radians(a)) for a in azs], tol)
                if problem:
                    return f"compare_methods {label}: {problem}"
            u_true = oracle.true_u(line_cfg["sources"][0])
            rep = r["report"]
            if abs(rep.u_estimate - u_true) > 1.0 / n:
                return f"peak_time_report u {rep.u_estimate!r}, truth {u_true!r}"
            snap_ref = oracle.snapshot(pcfg, freq)
            bound = oracle.coherent_bound(pcfg)
            if np.abs(r["snapshot"] - snap_ref).max() > 1e-9 * bound:
                return "scene_snapshot differs from the dense sum"
            if r["beam"].max() > bound * (1.0 + 1e-12):
                return "conventional beam above the coherent bound"
            for i, j in probes:
                ref = oracle.conventional(pcfg, snap_ref, freq, grid[i], grid[j])
                if abs(r["beam"][i, j] - ref) > 1e-9 * bound:
                    return f"conventional beam at ({i}, {j}) differs"
            d = r["phase"].phase_deg - oracle.wrapped_phase_deg(
                pcfg["array"], pcfg["sources"][0], freq)
            if np.abs((d + 180.0) % 360.0 - 180.0).max() > 1e-6:
                return "phase_map differs from −2πfd/c"
            c = oracle.curvature_cycles(pcfg["array"], pcfg["sources"][0], freq)
            if np.abs(r["curv"] - c).max() > 1e-6:
                return "curvature_profile differs from the plane-fit residual"
            return None

        return Op(f"mix{v}", call, check)

    def round(self, index):
        return self.ops


def digest(out_dir: Path, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for p in sorted(out_dir.glob("*.csv")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Finished:
    """A reaped CLI subprocess."""

    returncode: int
    stdout: str
    stderr: str
    usage: resource.struct_rusage   # of this child alone


class CliOp(Op):
    """One ``python -m combbeam.cli`` subprocess."""

    def __init__(self, workload, name, argv, check_files, fault=False):
        self.workload = workload
        self.argv = argv
        self.out_dir = RUNS / "cli" / name
        self.reference: str | None = None
        self.check_files = check_files
        super().__init__(name, self._call, self._check, fault)

    def args(self) -> list[str]:
        """CLI arguments, with this op's output directory filled in."""
        return [a.replace("{out}", str(self.out_dir)) for a in self.argv]

    def command(self) -> list[str]:
        if self.workload.trace_dir is None:
            return [sys.executable, "-m", "combbeam.cli", *self.args()]
        shim = str(Path(__file__).with_name("clitrace.py"))
        return [sys.executable, shim, str(self.trace_path()), *self.args()]

    def trace_path(self) -> Path:
        return self.workload.trace_dir / f"{self.name}.json"

    def prepare(self) -> None:
        """Empty the output directory, so stale files cannot pass a check."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for p in self.out_dir.iterdir():
            p.unlink()

    def _call(self) -> Finished:
        """Run the command and reap it with wait4, for its own rusage."""
        with tempfile.TemporaryFile(dir=RUNS) as out, \
                tempfile.TemporaryFile(dir=RUNS) as err:
            proc = subprocess.Popen(self.command(), stdout=out, stderr=err,
                                    cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Finished(proc.returncode, out.read().decode(),
                            err.read().decode(), usage)

    def _check(self, proc) -> str | None:
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        problem = self.check_files(self.out_dir, proc.stdout)
        if problem:
            return problem
        d = digest(self.out_dir, proc.stdout)
        if self.reference is None:
            self.reference = d
        elif d != self.reference:
            return "rerun output differs from the first run"
        return None


def check_simulate(cfg: dict, sample_rows):
    def check(out_dir: Path, stdout: str):
        n = int(cfg["array"]["m"])
        peaks = read_csv(out_dir / "peaks.csv")
        problem = oracle.match_directions(
            [oracle.true_u(s) for s in cfg["sources"]],
            [float(p["u"]) for p in peaks], 1.0 / n)
        if problem:
            return problem
        bound = oracle.coherent_bound(cfg)
        if max(float(p["magnitude"]) for p in peaks) > bound * (1 + 1e-12):
            return "peak above the coherent bound"
        env = read_csv(out_dir / "envelope.csv")
        rows = [env[i] for i in sample_rows]
        ref = oracle.envelope(cfg, [float(r["time_s"]) for r in rows])
        got = np.array([float(r["envelope"]) for r in rows])
        if np.abs(got - ref).max() > 1e-9 * bound:
            return "envelope.csv differs from the dense sum"
        return None
    return check


def check_calibrate(cfg: dict):
    def check(out_dir: Path, stdout: str):
        tol = 1.0 / int(cfg["array"]["m"])
        residuals = [float(line.rsplit("residual=", 1)[1])
                     for line in stdout.splitlines() if "residual=" in line]
        if len(residuals) != 4:
            return f"expected 4 probe residuals, got {len(residuals)}"
        if max(abs(r) for r in residuals) >= tol:
            return f"probe residuals {residuals} reach half a cell ({tol:.4f})"
        return None
    return check


def check_phase_map(cfg: dict):
    def check(out_dir: Path, stdout: str):
        comb = cfg["comb"]
        freq = comb["f0_hz"] + 0.5 * (comb["num_tones"] + 1) * comb["delta_f_hz"]
        ref = oracle.wrapped_phase_deg(cfg["array"], cfg["sources"][0], freq)
        rows = read_csv(out_dir / "phase_map.csv")
        if len(rows) != ref.size:
            return f"phase_map.csv has {len(rows)} rows for {ref.size} elements"
        for r in rows:
            d = float(r["phase_deg"]) - ref[int(r["m"]), int(r["n"])]
            if abs((d + 180.0) % 360.0 - 180.0) > 1e-6:
                return f"phase at ({r['m']}, {r['n']}) differs from −2πfd/c"
        if not (out_dir / "curvature.csv").is_file():
            return "curvature.csv missing"
        return None
    return check


def check_sweep(cfg: dict, count: int):
    def check(out_dir: Path, stdout: str):
        src = cfg["sources"][0]
        az = float(src["az_deg"])
        tol = 1.0 / int(cfg["array"]["m"])
        rows = read_csv(out_dir / "sweep.csv")
        if len(rows) != count:
            return f"sweep.csv has {len(rows)} rows, expected {count}"
        bound = oracle.coherent_bound(cfg)
        for r in rows:
            err = float(r["az_error_deg"])
            du = math.sin(math.radians(az + err)) - math.sin(math.radians(az))
            if abs(du) > tol:
                return (f"{r['value']}: az_error_deg {err:.4f} "
                        f"(u off by {du:.4f}, half a cell is {tol:.4f})")
            if float(r["peak_magnitude"]) > bound * (1 + 1e-12):
                return f"{r['value']}: peak above the coherent bound"
        return None
    return check


class CliBatch(Workload):
    """Each op is one CLI subprocess; a round runs every subcommand once."""

    name = "cli_batch"
    in_process = False

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 4])
        single, three = bundled("single_source"), bundled("three_sources")
        path = {name: str(SCENARIOS / f"{name}.yaml")
                for name in ("single_source", "three_sources", "oblique_map")}
        ranges = sorted(float(r) for r in rng.uniform(2.0, 40.0, 16))
        rows = [int(i) for i in rng.integers(0, 4096, 4)]
        ops = [
            CliOp(self, "simulate_single",
                  ["simulate", "--config", path["single_source"], "--out", "{out}"],
                  check_simulate(single, rows)),
            CliOp(self, "simulate_three",
                  ["simulate", "--config", path["three_sources"], "--out", "{out}"],
                  check_simulate(three, rows)),
            CliOp(self, "calibrate",
                  ["calibrate", "--config", path["three_sources"]],
                  check_calibrate(three)),
            CliOp(self, "phase_map",
                  ["phase-map", "--config", path["oblique_map"], "--out", "{out}"],
                  check_phase_map(bundled("oblique_map"))),
            CliOp(self, "sweep",
                  ["sweep", "--config", path["single_source"], "--out", "{out}",
                   "--param", "range_m", "--values", ",".join(map(repr, ranges))],
                  check_sweep(single, len(ranges))),
            # known fault: a 5 µs grid on a 10 µs period reports the mirror
            # direction (az_error_deg ≈ 90.8) and still exits 0
            CliOp(self, "sweep_delta_f",
                  ["sweep", "--config", path["single_source"], "--out", "{out}",
                   "--param", "delta_f_hz", "--values", "100000"],
                  check_sweep(single, 1), fault=True),
        ]
        order = rng.permutation(len(ops))
        self.ops = [ops[i] for i in order]

    def round(self, index):
        return self.ops

    def first_call(self) -> None:
        """simulate_single in-process, whatever the seeded round order."""
        op = next(op for op in self.ops if op.name == "simulate_single")
        op.prepare()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            cli.main(op.args())


WORKLOADS = {w.name: w for w in (EstimateSmall, EstimateLarge, CliBatch,
                                 AnalysisMix)}
