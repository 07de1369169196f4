"""Fast tests of the benchmark's own arithmetic; no workload is run.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import math
import sys
import types

import numpy as np
import pytest
from scipy.integrate import quad

import generator as gen
import run
import spans
import speed


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    traced_leaf = tr.wrap("leaf", leaf)

    def outer():
        clock.now += 1.0
        traced_leaf()
        clock.now += 3.0
        traced_leaf()

    tr.wrap("outer", outer)()  # span 8 s, of which 4 s in two leaf spans
    assert tr.stats["outer"].self_s == pytest.approx(4.0)
    assert tr.stats["leaf"].self_s == pytest.approx(4.0)
    assert tr.stats["leaf"].calls == 2
    assert tr.stack == []


def test_raised_call_closes_its_span_and_counts():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    traced = tr.wrap("boom", boom)

    def outer():
        with pytest.raises(ValueError):
            traced()
        clock.now += 0.5

    tr.wrap("outer", outer)()
    assert tr.stats["boom"].raised == 1
    assert tr.stats["boom"].calls == 1
    assert tr.stats["outer"].self_s == pytest.approx(0.5)
    assert tr.stack == []


def test_work_counts_see_open_spans():
    tr = spans.Tracer()
    solve = tr.wrap(
        spans.SOLVE, lambda n: [sigma() for _ in range(n)], spans.ON_RESULT[spans.SOLVE]
    )
    sigma = tr.wrap("spectral.self_energy", lambda: 0.0, spans.ON_RESULT["spectral.self_energy"])
    sigma()  # outside any solve: not root-solve work
    solve(6)
    metrics = spans.layer_metrics(tr, passes=1)
    assert metrics["bound_states.self_energy_per_state"] == (1.0, "ratio")


def test_install_replaces_every_binding_and_uninstall_restores():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f():
        return 1

    a.f = f
    b.f = f  # imported by name, as cli does with build_waveguide_model
    b.g = lambda: b.f()
    pkg.alias = f
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    try:
        tr = spans.Tracer()
        replaced = spans.install(tr, package="fakepkg", layers=(("a", "f"),))
        assert a.f is not f and b.f is a.f and pkg.alias is a.f
        assert b.g() == 1 and tr.stats["a.f"].calls == 1
        spans.uninstall(replaced)
        assert a.f is f and b.f is f and pkg.alias is f
    finally:
        for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
            sys.modules.pop(name)


def _pass(outcomes, traced=False):
    return {
        "traced": traced,
        "wall_s": 0.1 * len(outcomes),
        "latencies": [0.1] * len(outcomes),
        "outcomes": [{"key": k, "problems": p, "known": known} for k, p, known in outcomes],
    }


def test_known_failures_count_but_keep_the_run_correct():
    passes = [_pass([("a", [], False), ("b", ["raised PoleHit"], True)])] * 2
    acct = run.failure_accounting(passes)
    assert (acct["attempted"], acct["failed"], acct["correct"]) == (4, 2, True)
    metrics = run.end_to_end(passes, [0.5, 0.7, 0.6], 100.0, acct)
    assert metrics["ok_frac"] == (0.5, "ratio")
    assert metrics["setup_s"] == (0.6, "s")


def test_unexpected_failure_makes_the_run_incorrect():
    acct = run.failure_accounting([_pass([("a", ["|p(0) - 1| = 1e-3"], False)])])
    assert acct["failed"] == 1 and not acct["correct"]
    assert acct["unexpected"][0]["key"] == "a"


def test_wall_is_the_sum_of_per_job_medians_over_untraced_passes():
    ok = [("a", [], False), ("b", [], False)]
    passes = [_pass(ok), _pass(ok), _pass(ok), _pass(ok, traced=True)]
    for p, lat in zip(passes, ([1.0, 5.0], [9.0, 2.0], [2.0, 3.0], [50.0, 50.0])):
        p["latencies"] = lat
    acct = run.failure_accounting(passes)
    metrics = run.end_to_end(passes, [1.0], 1.0, acct)
    assert metrics["wall_s"] == (5.0, "s")  # medians 2.0 and 3.0
    assert metrics["job_p50_s"] == (2.5, "s")


def _probe(starts, durations):
    probe = speed.SpeedProbe(clock=FakeClock())
    probe.starts, probe.durations = list(starts), list(durations)
    return probe


def test_reference_time_scales_by_probe_speed_and_skips_probes():
    ref = speed.REFERENCE_PROBE_S
    # probes at 0, 1, 2 s, each taking twice the reference: the core runs at half speed
    probe = _probe([0.0, 1.0, 2.0], [2 * ref] * 3)
    assert probe.reference_time(0.2, 0.7) == pytest.approx(0.25)
    # [0.5, 1.5] holds the probe at 1 s: its time is no work
    assert probe.work_time(0.5, 1.5) == pytest.approx(1.0 - 2 * ref)
    assert probe.reference_time(0.5, 1.5) == pytest.approx(0.5 * (1.0 - 2 * ref))
    # after the last probe the last speed holds
    assert probe.reference_time(3.0, 5.0) == pytest.approx(1.0)


def test_reference_time_follows_a_change_of_speed():
    ref = speed.REFERENCE_PROBE_S
    starts = np.arange(0.0, 10.0, 1.0)
    durations = [ref] * 5 + [2 * ref] * 5  # full speed, then half speed
    probe = _probe(starts, durations)
    # work (ref, 4] ran at full speed, work (5 + 2 ref, 9] at half
    assert probe.reference_time(0.0, 4.0) == pytest.approx(4.0 - 4 * ref)
    assert probe.reference_time(5.5, 8.5) == pytest.approx(0.5 * (3.0 - 3 * 2 * ref))


def test_one_slow_probe_is_smoothed_away():
    ref = speed.REFERENCE_PROBE_S
    probe = _probe([0.0, 1.0, 2.0, 3.0], [ref, 50 * ref, ref, ref])
    assert probe.reference_time(1.5, 1.9) == pytest.approx(0.4)


def test_probe_fires_from_the_timer_and_restores_the_handler():
    before = speed.signal.getsignal(speed.signal.SIGALRM)
    probe = speed.SpeedProbe(every=0.005)
    with probe:
        start = probe.clock()
        while probe.clock() - start < 0.05:
            pass
    assert len(probe.durations) >= 3 and probe.spent == pytest.approx(sum(probe.durations))
    assert speed.signal.getsignal(speed.signal.SIGALRM) is before
    assert speed.signal.getitimer(speed.signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize(
    "s_low,s_up,zeros",
    [(0.5, 1.0, [0.1]), ("divergent", 2.0, []), ("divergent", "divergent", [0.3])],
)
def test_band_mass_matches_quadrature(s_low, s_up, zeros):
    lo, up = -1.3, 2.1
    a, b = (-0.5 if s == "divergent" else s for s in (s_low, s_up))

    def density(w):
        return (w - lo) ** a * (up - w) ** b * np.prod([(w - z) ** 2 for z in zeros])

    want, _ = quad(density, lo, up, limit=200)
    assert gen.band_mass(lo, up, s_low, s_up, zeros) == pytest.approx(want, rel=1e-9)


def test_generator_is_seeded_and_stratified():
    docs = gen.generic_documents(3, 16)
    assert docs == gen.generic_documents(3, 16)
    assert sorted(len(d["levels"]) for d in docs) == sorted([1, 2, 3, 4] * 4)
    assert sum(bool(d["spectral_density"]["zeros"]) for d in docs) == 8
    edges = [d["spectral_density"][k] for d in docs for k in ("s_low", "s_up")]
    assert all(edges.count(c) == 8 for c in gen.EDGE_CLASSES)


def test_variant_moves_numbers_but_keeps_structure():
    base = gen.generic_documents(5, 8)[0]
    one, two = gen.variant(base, [1, 2]), gen.variant(base, [1, 3])
    assert one == gen.variant(base, [1, 2]) and one != two
    assert one["spectral_density"]["s_low"] == base["spectral_density"]["s_low"]
    assert len(one["levels"]) == len(base["levels"])
    width = base["band"][1] - base["band"][0]
    assert np.allclose(one["levels"], base["levels"], atol=2e-3 * width)
    norm = sum(abs(complex(*c)) ** 2 for c in one["initial"])
    assert math.isclose(norm, 1.0, abs_tol=1e-13)


def test_workload_inputs_follow_the_seed():
    assert gen.dynamics_inputs(4) == gen.dynamics_inputs(4)
    assert gen.dynamics_inputs(4) != gen.dynamics_inputs(5)
    sweep, other = gen.sweep_inputs(4), gen.sweep_inputs(5)
    assert sweep == gen.sweep_inputs(4)
    assert len(sweep["grid"]) == 576 and len(sweep["generic"]) == gen.PS_BASES
    assert sweep["grid"][0]["initial"] != other["grid"][0]["initial"]
    assert sweep["generic"][0]["doc"]["levels"] == other["generic"][0]["doc"]["levels"]


def test_generic_dynamics_inputs_match_their_references():
    refs = json.loads((run.HERE / "reference" / "generic_dynamics.json").read_text())["models"]
    for seed in (0, 1, gen.HELD_OUT_SEED):
        for item in gen.dynamics_inputs(seed):
            assert gen.doc_digest(item["doc"]) == refs[item["key"]]["digest"]
