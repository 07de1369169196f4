"""Per-layer spans recorded from outside the package.

`install` replaces each listed public function at every binding a
``friedrichs.*`` module holds (``cli`` and ``dynamics`` import several of
them by name), so intra-package calls are seen too.  Each call opens a span
on a stack; when it closes, its duration is added to the parent's child
time, and its self time is the duration minus the time of its child spans.
Work counts come from call arguments and result ``meta`` only.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

#: (module, function) of every traced public function, in report order
LAYERS = (
    ("model", "validate_model"),
    ("waveguide", "build_waveguide_model"),
    ("waveguide", "waveguide_bound_state_count"),
    ("spectral", "k_function"),
    ("spectral", "k_zeros"),
    ("spectral", "self_energy"),
    ("spectral", "self_energy_derivative"),
    ("quadrature", "kernel_integral"),
    ("quadrature", "principal_value"),
    ("quadrature", "delta_on_grid"),
    ("quadrature", "fourier_linear"),
    ("bound_states", "count_bound_states"),
    ("bound_states", "solve_bound_states"),
    ("bound_states", "find_bics"),
    ("bound_states", "all_bound_states"),
    ("dynamics", "survival_probability"),
    ("dynamics", "decay_coefficients"),
    ("dynamics", "long_time_limit"),
    ("lattice", "evolve"),
    ("markovian", "resonance_decomposition"),
    ("markovian", "markovian_survival"),
    ("cli", "main"),
)

SOLVE = "bound_states.solve_bound_states"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    raised: int = 0


class Tracer:
    """Span stack plus per-span statistics and named work counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list = []  # [name, child_seconds] per open span
        self.stats: dict = defaultdict(Stat)
        self.counts: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)

    def open_spans(self) -> list:
        return [name for name, _ in self.stack]

    def wrap(self, name: str, fn, on_result=None):
        """fn wrapped in a span.

        on_result(tracer, args, kwargs, result, self_s) counts work after a
        call that returned.
        """
        stat = self.stats[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = self.clock() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += elapsed
                self_s = elapsed - frame[1]
                stat.calls += 1
                stat.self_s += self_s
            if on_result is not None:
                on_result(self, args, kwargs, result, self_s)
            return result

        return traced


# ---------------------------------------------------------------------------
# work counts, from arguments and result meta only

def _fourier_linear(tr, args, kwargs, result, self_s):
    x, times = args[0], args[2] if len(args) > 2 else kwargs["times"]
    tr.counts["quadrature.fourier_linear.nodes"] += len(x)
    tr.counts["quadrature.fourier_linear.node_times"] += len(x) * len(times)


def _delta_on_grid(tr, args, kwargs, result, self_s):
    e_grid = args[3] if len(args) > 3 else kwargs["e_grid"]
    tr.counts["quadrature.delta_on_grid.points"] += len(e_grid)


def _self_energy(tr, args, kwargs, result, self_s):
    if SOLVE in tr.open_spans():
        tr.counts["solve.self_energy_calls"] += 1


def _solve_bound_states(tr, args, kwargs, result, self_s):
    tr.counts["solve.states"] += len(result)


def _evolve(tr, args, kwargs, result, self_s):
    tr.counts["lattice.evolve.sites"] += result.meta["n_trunc"]
    drift = result.meta["norm_drift"]
    tr.maxima["lattice.evolve.norm_drift_max"] = max(
        tr.maxima["lattice.evolve.norm_drift_max"], drift
    )


def _markovian_survival(tr, args, kwargs, result, self_s):
    method = kwargs.get("method", "closed")
    tr.counts[f"markovian.markovian_survival.{method}.calls"] += 1
    tr.counts[f"markovian.markovian_survival.{method}.self_s"] += self_s


ON_RESULT = {
    "quadrature.fourier_linear": _fourier_linear,
    "quadrature.delta_on_grid": _delta_on_grid,
    "spectral.self_energy": _self_energy,
    "bound_states.solve_bound_states": _solve_bound_states,
    "lattice.evolve": _evolve,
    "markovian.markovian_survival": _markovian_survival,
}


def install(tracer: Tracer, package: str = "friedrichs", layers=LAYERS) -> list:
    """Wrap every layer function at every binding in the package's modules.

    Returns (module, attribute, original) triples for `uninstall`.
    """
    modules = [
        m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")
    ]
    replaced = []
    for mod_name, fn_name in layers:
        name = f"{mod_name}.{fn_name}"
        original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
        traced = tracer.wrap(name, original, ON_RESULT.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    replaced.append((mod, attr, original))
    return replaced


def uninstall(replaced: list) -> None:
    for mod, attr, original in replaced:
        setattr(mod, attr, original)


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass self time, calls and work counts, keyed by metric name."""
    out = {}
    for mod_name, fn_name in LAYERS:
        name = f"{mod_name}.{fn_name}"
        stat = tracer.stats[name]
        out[f"{name}.self_s"] = (stat.self_s / passes, "s")
        out[f"{name}.calls"] = (stat.calls / passes, "count")
    for key in (
        "quadrature.fourier_linear.nodes",
        "quadrature.fourier_linear.node_times",
        "quadrature.delta_on_grid.points",
        "lattice.evolve.sites",
        "markovian.markovian_survival.closed.calls",
        "markovian.markovian_survival.expm.calls",
    ):
        out[key] = (tracer.counts[key] / passes, "count")
    for method in ("closed", "expm"):
        key = f"markovian.markovian_survival.{method}.self_s"
        out[key] = (tracer.counts[key] / passes, "s")
    states = tracer.counts["solve.states"]
    per_state = tracer.counts["solve.self_energy_calls"] / states if states else 0.0
    out["bound_states.self_energy_per_state"] = (per_state, "ratio")
    out["bound_states.count_bound_states.raised"] = (
        tracer.stats["bound_states.count_bound_states"].raised / passes,
        "count",
    )
    out["lattice.evolve.norm_drift_max"] = (
        tracer.maxima["lattice.evolve.norm_drift_max"],
        "norm",
    )
    return out
