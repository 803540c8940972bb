#!/usr/bin/env python3
"""Reference figure: the CLI's 16-point range sweep, one worker thread
against the default pool.

    python3 perfbench/reference.py

Calls ``combbeam.cli.cmd_sweep`` in-process on the bundled single_source
scenario, alternating COMBBEAM_THREADS=1 with the variable unset, and prints
the median and quartiles of each as JSON.
"""

import json
import os
import statistics
import sys
import time

import run

REPEATS = 15   # runs of each setting, alternating


def main() -> int:
    problem = run.use_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    from combbeam import cli

    config = cli.load_config_file(cli.scenario_path("single_source"))
    values = [2.0 + 2.5 * i for i in range(16)]
    out_dir = run.RUNS / "reference"
    out_dir.mkdir(parents=True, exist_ok=True)
    times = {"threads_1": [], "default_pool": []}
    cli.cmd_sweep(config, out_dir, "range_m", values)          # warm-up
    for _ in range(REPEATS):
        for label in times:
            if label == "threads_1":
                os.environ["COMBBEAM_THREADS"] = "1"
            else:
                os.environ.pop("COMBBEAM_THREADS", None)
            t0 = time.perf_counter()
            cli.cmd_sweep(config, out_dir, "range_m", values)
            times[label].append(time.perf_counter() - t0)
    os.environ.pop("COMBBEAM_THREADS", None)
    report = {"cpu_count": os.cpu_count()}
    for label, ts in times.items():
        q = statistics.quantiles(ts, n=4)
        report[label] = {"median_s": statistics.median(ts), "q1_s": q[0],
                         "q3_s": q[2], "runs": len(ts)}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
