"""Every name the package and its submodules export resolves, once, so a
stale entry in an ``__all__`` list fails here rather than at import time of
some caller."""

import importlib
from collections import Counter

import pytest

MODULES = ("combbeam", "combbeam.geometry", "combbeam.waveform",
           "combbeam.propagation", "combbeam.kspace", "combbeam.conventional",
           "combbeam.analysis", "combbeam.cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n, k in Counter(exported).items() if k > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []

