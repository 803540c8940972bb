#!/usr/bin/env python3
"""combbeam benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/`` of the
same checkout. Workloads: estimate_small, estimate_large, cli_batch,
analysis_mix (see perfbench/README.md). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. Results and traces are also written to .perfbench_runs/.
"""

import os

# one BLAS / OpenMP thread in this process and every process it starts
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
PROBES = 3          # fresh interpreters per set-up measurement
TAIL_BEYOND = 10    # op_tail_ms has at least this many samples above it,
TAIL_SHARE = 0.05   # and at least this share of them: on long runs p95, as
                    # a higher percentile reads the host's brief stalls

# per-layer time metrics: mean ms per call of a traced span (self time for
# run_beamform, whose children are the other kspace/propagation spans)
LAYER_TIMES = {
    "cli.parse_config_ms": "cli.parse_config",
    "cli.write_csv_ms": "cli.write_csv",
    "propagation.scene_element_phasors_ms": "propagation.scene_element_phasors",
    "kspace.calibrate_axis_ms": "kspace.calibrate_axis",
    "kspace.beamform_envelope_ms": "kspace.beamform_envelope",
    "kspace.complex_field_ms": "kspace.complex_field",
    "kspace.find_peaks_ms": "kspace.find_peaks",
    "kspace.run_beamform_self_ms": "kspace.run_beamform",
    "conventional.scene_snapshot_ms": "conventional.scene_snapshot",
    "conventional.beamform_conventional_ms": "conventional.beamform_conventional",
    "conventional.phase_map_ms": "conventional.phase_map",
    "conventional.curvature_profile_ms": "conventional.curvature_profile",
    "analysis.snr_gain_ms": "analysis.snr_gain",
    "analysis.complex_noise_ms": "analysis.complex_noise",
    "analysis.nearfield_error_sweep_ms": "analysis.nearfield_error_sweep",
    "analysis.compare_methods_ms": "analysis.compare_methods",
    "analysis.brute_force_peak_ms": "analysis.brute_force_peak",
    "analysis.peak_width_u_ms": "analysis.peak_width_u",
}
SELF_TIME = {"kspace.run_beamform_self_ms"}

# per-layer counts: total over the traced ops of the workload / op count
LAYER_COUNTS = {
    "cli.csv_bytes_per_op": ("cli.csv_bytes", "B"),
    "propagation.calls_per_op": ("propagation.scene_element_phasors.calls", "count"),
    "propagation.element_source_pairs_per_op":
        ("propagation.element_source_pairs", "count"),
    "kspace.calibrate_axis_calls_per_op": ("kspace.calibrate_axis.calls", "count"),
    "kspace.field_terms_per_op": ("kspace.field_terms", "count"),
    "kspace.field_bytes_per_op": ("kspace.field_bytes", "B"),
    "analysis.noise_samples_per_op": ("analysis.noise_samples", "count"),
}

# CLI subprocess wall time per subcommand, from the ops of that name
CLI_WALLS = {
    "cli.simulate_ms": ("simulate_single", "simulate_three"),
    "cli.calibrate_ms": ("calibrate",),
    "cli.phase_map_ms": ("phase_map",),
    "cli.sweep_ms": ("sweep",),
}


def probe_setup(name: str, seed: int, importtime: bool, setup, imports):
    """Append the set-up seconds of one fresh interpreter to `setup`; with
    importtime also the cumulative import times (ms) of combbeam and
    scipy.optimize to `imports`."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "setup_probe.py"), name, str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    setup.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[2].strip() in imports:
            imports[parts[2].strip()].append(int(parts[1]) / 1000.0)


def run_op(workload, op, op_id, tracer):
    """Time one op, check it, return its record."""
    op.prepare()
    if tracer is not None:
        tracer.op = op_id
    problem = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        result = op.call()
    except Exception as e:  # noqa: BLE001  (a program error fails the op)
        result, problem = None, f"{type(e).__name__}: {e}"
    wall, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    rss_kb = None
    if not workload.in_process and result is not None:
        # the CLI child's own rusage, not this process's
        cpu_s = result.usage.ru_utime + result.usage.ru_stime
        rss_kb = result.usage.ru_maxrss
    if problem is None:
        try:
            problem = op.check(result)
        except Exception as e:  # noqa: BLE001  (e.g. an output file is missing)
            problem = f"check raised {type(e).__name__}: {e}"
    if tracer is not None and workload.trace_dir is not None:
        path = op.trace_path()
        if path.is_file():
            data = json.loads(path.read_text())
            tracer.merge(data["spans"], data["counts"], op_id)
            path.unlink()
    return {"op": op.name, "id": op_id, "wall": wall, "cpu": cpu_s,
            "rss_kb": rss_kb, "fault": op.fault, "problem": problem}


def run_rounds(workload, seconds, tracer=None, max_rounds=None, between=()):
    """Whole rounds until the next one would end past `seconds` of loop
    time. With a tracer, odd rounds are traced and even rounds are not.
    The untimed calls in `between` are spread over the run, so that they
    meet the host's slow and fast phases alike: the k-th of n follows the
    first round that ends past k/(n + 1) of `seconds`, and any left over
    follow the last round."""
    records = []
    pending = list(between)
    loop = 0.0
    r = 0
    while True:
        t0 = time.perf_counter()
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
            tracer.op = f"build:{r}"
            if not workload.in_process:
                workload.trace_dir = RUNS / "trace-ops"
                workload.trace_dir.mkdir(parents=True, exist_ok=True)
        try:
            for i, op in enumerate(workload.round(r)):
                rec = run_op(workload, op, f"{r}:{i}", tracer if traced else None)
                rec["traced"] = traced
                records.append(rec)
        finally:
            if traced:
                tracer.uninstall()
                workload.trace_dir = None
        r += 1
        loop += time.perf_counter() - t0
        done = len(between) - len(pending)
        if pending and loop >= seconds * (done + 1) / (len(between) + 1):
            pending.pop(0)()
        if max_rounds is not None and r >= max_rounds:
            break
        if r >= (2 if tracer else 1) and loop + loop / r > seconds:
            break
    for call in pending:
        call()
    return records


def census(workloads, name, seed, tracer):
    """One traced op of every other workload (every subcommand of
    cli_batch), so that each layer has a measured figure."""
    records = []
    for other, cls in workloads.WORKLOADS.items():
        if other == name:
            continue
        tracer.install()
        tracer.op = f"census:{other}:build"
        try:
            w = cls(seed)
            ops = w.round(0)
            if not w.in_process:
                w.trace_dir = RUNS / "trace-ops"
                w.trace_dir.mkdir(parents=True, exist_ok=True)
                ops = [op for op in ops if not op.fault]
            else:
                ops = ops[:1]
            for i, op in enumerate(ops):
                records.append(run_op(w, op, f"census:{other}:{i}", tracer))
        finally:
            tracer.uninstall()
    return records


def tail(sorted_values):
    """Value with max(TAIL_BEYOND, TAIL_SHARE · n) samples above it (never
    below the median, so short runs report their upper half), and its
    percentile."""
    n = len(sorted_values)
    k = max(n - max(TAIL_BEYOND, int(TAIL_SHARE * n)) - 1, n // 2)
    return sorted_values[k], 100.0 * (k + 1) / n


def end_to_end(records, setup, in_process):
    lat = sorted(r["wall"] for r in records)
    tail_s, _ = tail(lat)
    if in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:   # the largest CLI child; set-up probes are not counted
        rss_kb = max(r["rss_kb"] or 0 for r in records)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "cpu_ms_per_op": (1e3 * sum(r["cpu"] for r in records) / len(lat), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(tracer, records, census_records, imports):
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    own_ids = {r["id"] for r in records if r["traced"]}

    def pick(name):
        own = [i for i, s in enumerate(spans) if s["name"] == name
               and not str(s["op"]).startswith("census:")]
        return own or [i for i, s in enumerate(spans) if s["name"] == name]

    out = {}
    for metric, name in LAYER_TIMES.items():
        idx = pick(name)
        total = sum(spans[i]["end"] - spans[i]["start"]
                    - (child_time[i] if metric in SELF_TIME else 0.0)
                    for i in idx)
        out[metric] = (1e3 * total / len(idx) if idx else 0.0, "ms")
    traced_ops = max(1, len(own_ids))
    for metric, (name, unit) in LAYER_COUNTS.items():
        total = sum(c["value"] for c in tracer.counts
                    if c["name"] == name and c["op"] in own_ids)
        out[metric] = (total / traced_ops, unit)
    for metric, ops in CLI_WALLS.items():
        walls = ([r["wall"] for r in records if r["op"] in ops and not r["traced"]]
                 or [r["wall"] for r in census_records if r["op"] in ops])
        out[metric] = (1e3 * statistics.mean(walls) if walls else 0.0, "ms")
    out["cli.import_ms"] = (statistics.median(imports["combbeam"]), "ms")
    out["cli.scipy_optimize_import_ms"] = (
        statistics.median(imports["scipy.optimize"]), "ms")
    plain = [r["wall"] for r in records if not r["traced"]]
    traced = [r["wall"] for r in records if r["traced"]]
    plain_rate, traced_rate = len(plain) / sum(plain), len(traced) / sum(traced)
    out["trace.ops_per_s"] = (traced_rate, "1/s")
    out["trace.overhead_pct"] = (100.0 * (1.0 - traced_rate / plain_rate), "%")
    return out


def measure(name, seed, seconds, trace, probes=PROBES, max_rounds=None):
    """Run one workload; returns (printed result, notes for the result file)."""
    import workloads
    from tracer import Tracer

    RUNS.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        tracer.op = "setup"
    try:
        workload = workloads.WORKLOADS[name](seed)
    finally:
        if tracer:
            tracer.uninstall()
    setup, imports = [], {"combbeam": [], "scipy.optimize": []}

    def probe():
        probe_setup(name, seed, trace, setup, imports)

    if workload.in_process:   # untimed warm-up: lazy imports, page faults
        op = workload.round(0)[0]
        op.check(op.call())
    records = run_rounds(workload, seconds, tracer, max_rounds, [probe] * probes)
    census_records = census(workloads, name, seed, tracer) if trace else []

    problems = [f"{r['id']} {r['op']}: {r['problem']}"
                for r in records + census_records
                if r["problem"] and not r["fault"]]
    failed = sum(1 for r in records if r["problem"])
    if trace:
        metrics = per_layer(tracer, records, census_records, imports)
    else:
        metrics = end_to_end(records, setup, workload.in_process)
    result = {"correct": not problems, "attempted": len(records),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    lat = sorted(r["wall"] for r in records if not r["traced"])
    _, pct = tail(lat)
    notes = {"workload": name, "seed": seed, "samples": len(lat),
             "tail_percentile": pct, "problems": problems,
             "faults": sorted({f"{r['op']}: {r['problem']}" for r in records
                               if r["problem"] and r["fault"]}),
             "ops": [[r["op"], r["traced"], r["wall"], r["cpu"]] for r in records]}
    stem = f"{name}-{seed}-trace{int(trace)}"
    (RUNS / f"result-{stem}.json").write_text(json.dumps(dict(result, notes=notes)))
    if tracer:
        tracer.dump(RUNS / f"trace-{stem}.json")
    return result, notes


def use_checkout() -> str | None:
    """Point this process and its children at src/ of this checkout.
    Returns a reason when the program cannot be used from there."""
    if not (SRC / "combbeam" / "__init__.py").is_file():
        return f"no program source at {SRC}/combbeam"
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ.pop("COMBBEAM_THREADS", None)   # the CLI's default sweep pool
    sys.path.insert(0, str(SRC))
    import combbeam
    if SRC not in Path(combbeam.__file__).resolve().parents:
        return f"combbeam imported from {combbeam.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = use_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # numpy seed sequences and noise seeds must be non-negative
    result, notes = measure(args.workload, args.seed % 2**31, args.seconds,
                            bool(args.trace))
    print(f"# {notes['workload']} seed={notes['seed']}: {notes['samples']} timed ops, "
          f"op_tail_ms is p{notes['tail_percentile']:.1f}")
    for line in notes["problems"] + [f"known fault: {f}" for f in notes["faults"]]:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
