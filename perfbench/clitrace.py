"""Run one combbeam CLI command with the layer tracer installed.

    python3 perfbench/clitrace.py TRACE.json <combbeam cli arguments...>

Behaves like ``python -m combbeam.cli <arguments>`` (same exit code and
output) and writes the spans and counts it recorded to TRACE.json.
"""

import sys
from pathlib import Path

from tracer import Tracer

if __name__ == "__main__":
    import combbeam.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = combbeam.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(Path(sys.argv[1]))
    sys.exit(code)
