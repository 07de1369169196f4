"""The benchmark's per-layer trace wraps package functions by name."""
import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up here
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_traced_layer_resolves():
    # `perfbench/run.py --trace 1` looks each pair up with getattr; a
    # renamed or deleted function would break the trace, not a test
    layers = _layers()
    assert layers
    for mod_name, fn_name in layers:
        module = importlib.import_module(f"friedrichs.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
