#!/usr/bin/env python3
"""Short check that every workload runs and its outputs pass every check.

    python3 perfbench/smoke.py

Runs one round of each workload (one set-up probe each), then a traced
estimate_small run of two rounds with the census of the other workloads.
Exits 1 if any output fails a check other than the known fault.
"""

import sys

import run


def main() -> int:
    problem = run.use_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import workloads

    ok = True
    cases = [(name, False, 1) for name in workloads.WORKLOADS]
    cases.append(("estimate_small", True, 2))
    for name, trace, rounds in cases:
        result, notes = run.measure(name, seed=0, seconds=0.0, trace=trace,
                                    probes=1, max_rounds=rounds)
        ok &= result["correct"]
        print(f"{name:15s} trace={int(trace)} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"metrics={len(result['metrics'])}")
        for line in notes["problems"]:
            print(f"  {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
