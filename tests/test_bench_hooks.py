"""Every function the benchmark's tracing wraps must exist in the package.

``bench/tracing.py`` wraps functions by module and attribute name. A name
that no longer resolves is reported as absent and its per-layer metric drops
out of the benchmark result, so a rename in the package silently removes a
declared metric. The lists are read from the benchmark file at test time, so
this stays valid when the benchmark changes its hooks.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_hooks", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("modname,attr,span", tracing.SPANS)
def test_span_targets_resolve(modname, attr, span):
    module = importlib.import_module(f"{tracing.PACKAGE}.{modname}")
    assert callable(getattr(module, attr, None)), f"{span}: {modname}.{attr} is gone"


@pytest.mark.parametrize("modname,cls,attr,counter", tracing.COUNTERS)
def test_counter_targets_resolve(modname, cls, attr, counter):
    module = importlib.import_module(f"{tracing.PACKAGE}.{modname}")
    owner = module if cls is None else getattr(module, cls, None)
    assert owner is not None, f"{counter}: {modname}.{cls} is gone"
    assert callable(getattr(owner, attr, None)), f"{counter}: {modname}.{cls}.{attr} is gone"
