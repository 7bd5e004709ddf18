"""The per-layer tracer of the benchmark finds every name it wraps."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_site_is_bound():
    # perfbench/tracing.py looks each (module, attribute) up with getattr
    # when a run starts with --trace 1; perfbench/worker.py resets and
    # reads the clamp counter of dpms.gram.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, *_ in tracing.SITES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    assert hasattr(importlib.import_module("dpms.gram"), "r2_clamp_counter")
