"""The benchmark's per-layer trace wraps package functions by name."""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import friedrichs as fr
from friedrichs.cli import main

from _support import random_initial, random_model

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up here
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_layer_resolves():
    # `perfbench/run.py --trace 1` looks each pair up with getattr; a
    # renamed or deleted function would break the trace, not a test
    layers = _spans().LAYERS
    assert layers
    for mod_name, fn_name in layers:
        module = importlib.import_module(f"friedrichs.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_transform_counts_match_meta():
    # the trace counts the transform's nodes from its arguments; they are
    # the nodes the result reports, once per call
    spans = _spans()
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, fr.INFINITE)
    model = fr.build_waveguide_model(params)
    initial = fr.default_initial_state(params)
    times = np.linspace(0.0, 50.0, 400)
    tracer = spans.Tracer()
    replaced = spans.install(tracer)
    try:
        series = fr.survival_probability(model, initial, times)
    finally:
        spans.uninstall(replaced)
    assert tracer.stats["quadrature.fourier_linear"].calls == 1
    nodes = tracer.counts["quadrature.fourier_linear.nodes"]
    assert nodes == series.meta["filon_nodes"]
    assert tracer.counts["quadrature.fourier_linear.node_times"] == nodes * times.size


def test_node_floor_of_reference_capture():
    # the reference capture asks survival_probability for n_base_nodes=16385
    rng = np.random.default_rng(3)
    model = random_model(rng, n_max=3)
    initial = random_initial(rng, model.n_levels)
    times = np.linspace(0.0, 50.0, 50)
    series = fr.survival_probability(model, initial, times)
    floored = fr.survival_probability(model, initial, times, n_base_nodes=16385)
    assert floored.meta["filon_nodes"] >= 16385
    assert np.max(np.abs(floored.p - series.p)) <= series.meta["filon_thinning_error"]


def test_bics_found_once_per_bound_state_call(tmp_path):
    # the census takes the BIC list its caller already found
    spans = _spans()
    model = fr.build_waveguide_model(fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2))
    out = tmp_path / "bound.json"
    argv = ["bound-states", "--n-atoms", "3", "--kappa", "0.75", "--xi", "0.25",
            "--site", "2", "-o", str(out)]
    for call in (lambda: fr.all_bound_states(model), lambda: main(argv)):
        tracer = spans.Tracer()
        replaced = spans.install(tracer)
        try:
            call()
        finally:
            spans.uninstall(replaced)
        assert tracer.stats["bound_states.find_bics"].calls == 1
    assert json.loads(out.read_text())["census"]["m_bic"] == 1
