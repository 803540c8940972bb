"""Every function the benchmark tracer wraps still exists, so a rename in
the package cannot silently break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MODULES, module.TRACED


MODULES, TRACED = _traced()


@pytest.mark.parametrize("module", MODULES)
def test_traced_module_imports(module):
    importlib.import_module(module)


@pytest.mark.parametrize("module, function",
                         [(m, f) for m, f, _, _ in TRACED])
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function))
