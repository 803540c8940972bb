"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Times importing combbeam, building the workload's inputs and making the
first call, and prints {"setup_s": ...} on stdout.
"""

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import combbeam  # noqa: F401  (first, so -X importtime shows a fresh import)
    import workloads

    workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    workload.first_call()
    print(json.dumps({"setup_s": time.perf_counter() - start}))
