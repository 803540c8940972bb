"""Spans and counts at the boundaries of combbeam's layers.

The tracer wraps public functions of the program from the outside: each
module attribute bound to a traced function is replaced by a wrapper for as
long as the tracer is installed, so calls made inside the package (for
example ``run_beamform`` → ``calibrate_axis``) are seen too. Nothing under
``src/`` is edited. Spans and counts stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path

MODULES = ("combbeam", "combbeam.geometry", "combbeam.waveform",
           "combbeam.propagation", "combbeam.kspace", "combbeam.conventional",
           "combbeam.analysis", "combbeam.cli")


def _pairs(args, kwargs):
    scene, geometry = args[0], args[1]
    return {"propagation.element_source_pairs":
            geometry.num_elements * len(scene.sources)}


def _noise(args, kwargs):
    return {"analysis.noise_samples": int(args[1]) * int(args[2])}


def _field(args, kwargs):
    import numpy as np
    terms = len(args[0]) * int(np.asarray(args[1]).size)
    # one complex128 (E, G) matrix: the largest array the dense sum builds
    return {"kspace.field_terms": terms, "kspace.field_bytes": 16 * terms}


def _csv_bytes(args, kwargs):
    return {"cli.csv_bytes": Path(args[0]).stat().st_size}


# (module, function, span name, counter of the call's work or None)
TRACED = (
    ("combbeam.propagation", "scene_element_phasors",
     "propagation.scene_element_phasors", _pairs),
    ("combbeam.propagation", "complex_noise", "analysis.complex_noise", _noise),
    ("combbeam.kspace", "calibrate_axis", "kspace.calibrate_axis", None),
    ("combbeam.kspace", "beamform_envelope", "kspace.beamform_envelope", None),
    ("combbeam.kspace", "complex_field", "kspace.complex_field", _field),
    ("combbeam.kspace", "find_peaks", "kspace.find_peaks", None),
    ("combbeam.kspace", "run_beamform", "kspace.run_beamform", None),
    ("combbeam.conventional", "scene_snapshot", "conventional.scene_snapshot", None),
    ("combbeam.conventional", "beamform_conventional",
     "conventional.beamform_conventional", None),
    ("combbeam.conventional", "phase_map", "conventional.phase_map", None),
    ("combbeam.conventional", "curvature_profile",
     "conventional.curvature_profile", None),
    ("combbeam.analysis", "snr_gain", "analysis.snr_gain", None),
    ("combbeam.analysis", "nearfield_error_sweep",
     "analysis.nearfield_error_sweep", None),
    ("combbeam.analysis", "compare_methods", "analysis.compare_methods", None),
    ("combbeam.analysis", "brute_force_peak", "analysis.brute_force_peak", None),
    ("combbeam.analysis", "peak_width_u", "analysis.peak_width_u", None),
    ("combbeam.cli", "parse_config", "cli.parse_config", None),
    ("combbeam.cli", "write_csv_atomic", "cli.write_csv", _csv_bytes),
)


class Tracer:
    """Records (name, start, end, parent, op) spans and per-op counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[dict] = []     # {"op": id, "name": n, "value": v}
        self.op: str | None = None
        self._local = threading.local()   # span stack per thread (CLI sweep pool)
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"name": name, "op": self.op,
                    "parent": stack[-1] if stack else None,
                    "start": time.perf_counter(), "end": None}
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.count(name + ".calls", 1)
                if counter is not None:
                    for key, value in counter(args, kwargs).items():
                        self.count(key, value)
        return traced

    def count(self, name: str, value: float) -> None:
        self.counts.append({"op": self.op, "name": name, "value": value})

    def install(self) -> None:
        """Replace every module binding of each traced function."""
        modules = [importlib.import_module(m) for m in MODULES]
        for mod_name, attr, name, counter in TRACED:
            orig = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(orig, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def merge(self, spans: list[dict], counts: list[dict], op: str) -> None:
        """Add spans and counts recorded in another process under one op."""
        base = len(self.spans)
        for s in spans:
            self.spans.append(dict(s, op=op, parent=None if s["parent"] is None
                                   else s["parent"] + base))
        for c in counts:
            self.counts.append(dict(c, op=op))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))
