"""The three workloads as lists of jobs, with the checks that feed fail_frac.

A job is one user-level query.  `call` is the timed call into the package
(public API or ``friedrichs.cli.main``); `check` runs afterwards, untimed,
and returns the problems found (none: the job passed).  A raised exception
is a failed job.  Tolerances are stated next to each check.

Calls go through module attributes at call time (``fr.x``, ``cli.main``),
so the traced run sees the wrapped functions.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import friedrichs as fr
from friedrichs import cli
from generator import band_mass, case_key, doc_digest

REF_DIR = Path(__file__).resolve().parent / "reference"

ORACLE_TOL = 1e-5  # figures: exact p(t) vs the lattice oracle, absolute
P0_TOL = 1e-5  # generic-dynamics: |p(0) - 1|
RANGE_TOL = 1e-5  # generic-dynamics: -tol <= p <= 1 + tol
REF_FLOOR = 1e-9  # generic-dynamics: smallest tolerance against the reference
MARKOV_TOL = 1e-8  # param-sweep: closed resonance sum vs expm, absolute
MARKOV_TIMES = np.linspace(0.0, 10.0, 21)
DYN_POINTS = 50
DYN_TIMES = np.linspace(0.0, 50.0, DYN_POINTS)  # the CLI default t_max = 50


@dataclass
class Job:
    """call() is timed; verify(result, diagnostics) returns the problems found."""

    key: str
    call: Callable[[], object]
    verify: Callable[[object, dict], list]
    known_failure: bool = False  # failed at the commit the reference was captured
    diagnostics: dict = field(default_factory=dict)

    def check(self, result) -> list:
        return self.verify(result, self.diagnostics)


def load_reference(name: str) -> dict:
    return json.loads((REF_DIR / f"{name}.json").read_text())


def read_csv(path) -> dict:
    """Columns of a CLI CSV (comment lines start with '#')."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def float_column(table: dict, name: str) -> np.ndarray:
    return np.array([float(v) for v in table[name]])


def power_edges_model(doc: dict):
    """(validated model, initial state) of a generic document, public API only.

    J follows the CLI's power_edges form: "divergent" is the exponent -1/2.
    """
    lo, up = (float(x) for x in doc["band"])
    spec = doc["spectral_density"]
    exps = [-0.5 if spec[k] == "divergent" else float(spec[k]) for k in ("s_low", "s_up")]
    zeros = [float(z) for z in spec["zeros"]]
    amp = float(spec["amplitude"])

    def j(omega):
        om = np.asarray(omega, dtype=float)
        out = np.zeros_like(om)
        inside = (om > lo) & (om < up)
        v = amp * (om[inside] - lo) ** exps[0] * (up - om[inside]) ** exps[1]
        for z in zeros:
            v = v * (om[inside] - z) ** 2
        out[inside] = v
        return out if out.ndim else float(out)

    model = fr.validate_model(
        fr.FriedrichsModel(
            discrete=fr.DiscreteSpectrum(
                np.array(doc["levels"], dtype=float),
                np.array([complex(a, b) for a, b in doc["couplings"]]),
            ),
            continuum=fr.ContinuumBand(
                omega_low=lo,
                omega_up=up,
                spectral_density=j,
                edge_exponents=tuple(fr.DIVERGENT if e < 0 else e for e in exps),
                interior_zeros=tuple(zeros),
            ),
        )
    )
    return model, initial_state(doc)


def markov_gamma(doc: dict) -> float:
    """Flat-continuum width with the band's total weight: pi * mass / width."""
    lo, up = doc["band"]
    spec = doc["spectral_density"]
    mass = spec["amplitude"] * band_mass(lo, up, spec["s_low"], spec["s_up"], spec["zeros"])
    return math.pi * mass / (up - lo)


def initial_state(item: dict):
    return fr.InitialState(np.array([complex(a, b) for a, b in item["initial"]]))


def cli_main(argv: list) -> int:
    return cli.main(argv)


def waveguide_params(case: dict):
    site = math.inf if case["site"] == "inf" else case["site"]
    return fr.WaveguideParams(case["n_atoms"], 1.0, case["kappa"], case["xi"], site)


# ---------------------------------------------------------------------------
# figures: `friedrichs reproduce all`, the paper's deliverable

FIG4 = ("fig4_survival_l1.csv", "fig4_survival_l2.csv", "fig4_survival_linf.csv")
FIG5 = ("fig5_decay_xi2.csv", "fig5_decay_xi4.csv", "fig5_decay_xi6.csv")
FIG3 = "fig3_bound_state_counts.csv"


def figures_setup_models(inputs) -> list:
    """The waveguide models of figs. 4 and 5 (fig. 3 uses closed forms only)."""
    return [
        fr.build_waveguide_model(fr.WaveguideParams(3, 1.0, 0.75, 0.25, site))
        for site in (1, 2, math.inf)
    ] + [
        fr.build_waveguide_model(fr.WaveguideParams(2, 1.0, 4.0, xi, math.inf))
        for xi in (2.0, 4.0, 6.0)
    ]


def check_figures(outdir: Path, fig3_ref: dict, rc: int, diag: dict) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    worst = 0.0
    for name, exact in [(n, "p_analytic") for n in FIG4] + [(n, "p_exact") for n in FIG5]:
        table = read_csv(outdir / name)
        dev = float(np.max(np.abs(float_column(table, exact) - float_column(table, "p_oracle"))))
        worst = max(worst, dev)
        if not dev <= ORACLE_TOL:
            problems.append(f"{name}: |exact - oracle| = {dev:.2e} > {ORACLE_TOL:.0e}")
    diag["oracle_dev"] = worst
    table = read_csv(outdir / FIG3)
    for col in ("n_out", "m_out"):
        if ",".join(table[col]) != fig3_ref[col]:
            problems.append(f"{FIG3}: column {col} differs from the reference")
    return problems


def figures_jobs(tmp: Path, inputs) -> list:
    outdir = tmp / "figures"
    fig3_ref = load_reference("figures")["fig3"]
    return [
        Job(
            key="reproduce-all",
            call=partial(cli_main, ["reproduce", "all", "--outdir", str(outdir)]),
            verify=partial(check_figures, outdir, fig3_ref),
        )
    ]


def figures_warmup(tmp: Path, inputs) -> None:
    cli_main(["reproduce", "fig3", "--outdir", str(tmp / "warmup")])


# ---------------------------------------------------------------------------
# generic-dynamics: `friedrichs dynamics` on quadrature-only models

def dynamics_check(p: np.ndarray, ref, diag: dict) -> list:
    problems = []
    p0_dev = abs(float(p[0]) - 1.0)
    diag["p0_dev"] = p0_dev
    if not p0_dev <= P0_TOL:
        problems.append(f"|p(0) - 1| = {p0_dev:.2e} > {P0_TOL:.0e}")
    if not (np.all(p >= -RANGE_TOL) and np.all(p <= 1.0 + RANGE_TOL)):
        problems.append(f"p outside [-{RANGE_TOL:.0e}, 1 + {RANGE_TOL:.0e}]")
    if ref is not None:
        dev = float(np.max(np.abs(p - np.array(ref["p"]))))
        if not dev <= ref["tol"]:
            problems.append(f"|p - reference| = {dev:.2e} > {ref['tol']:.2e}")
    return problems


def check_dynamics_csv(csv: Path, ref, rc: int, diag: dict) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    return dynamics_check(float_column(read_csv(csv), "p"), ref, diag)


def dynamics_argv(model_path: Path, csv: Path, sidecar: Path) -> list:
    return [
        "dynamics", "--model", str(model_path), "--points", str(DYN_POINTS),
        "--output", str(csv), "--sidecar", str(sidecar),
    ]


def write_dynamics_inputs(tmp: Path, name: str, doc: dict):
    """(argv, csv path) of one dynamics job; the model document is written to tmp."""
    stem = tmp / name
    stem.with_suffix(".json").write_text(json.dumps(doc))
    csv = stem.with_suffix(".csv")
    return dynamics_argv(stem.with_suffix(".json"), csv, tmp / f"{name}_sidecar.json"), csv


def dynamics_jobs(tmp: Path, inputs) -> list:
    refs = load_reference("generic_dynamics")["models"]
    jobs = []
    for item in inputs:
        key, doc = item["key"], item["doc"]
        ref = refs[key]
        if ref["digest"] != doc_digest(doc):
            raise RuntimeError(f"generic-dynamics input {key} differs from its reference")
        argv, csv = write_dynamics_inputs(tmp, "dynamics_" + key.replace("/", "_"), doc)
        jobs.append(
            Job(
                key=key,
                call=partial(cli_main, argv),
                verify=partial(check_dynamics_csv, csv, ref),
                known_failure=bool(ref["problems"]),
            )
        )
    return jobs


def dynamics_setup_models(inputs) -> list:
    return [power_edges_model(item["doc"]) for item in inputs]


def dynamics_warmup(tmp: Path, inputs) -> None:
    """One untimed job, so lazy imports and caches are settled before timing."""
    argv, _ = write_dynamics_inputs(tmp, "warmup_dynamics", inputs[0]["doc"])
    cli_main(argv)


# ---------------------------------------------------------------------------
# param-sweep: "what does this model have?" over many models

def markovian_pair(model, initial, gamma):
    h = fr.build_markovian(model, gamma)
    system = fr.resonance_decomposition(h)
    closed = fr.markovian_survival(h, initial, MARKOV_TIMES, system=system)
    direct = fr.markovian_survival(h, initial, MARKOV_TIMES, method="expm")
    return closed.p, direct.p


def sweep_waveguide(case: dict) -> dict:
    params = waveguide_params(case)
    model = fr.build_waveguide_model(params)
    closed = fr.waveguide_bound_state_count(params)
    census = fr.count_bound_states(model)
    states = fr.solve_bound_states(model, census)
    bics = fr.find_bics(model)
    gamma = 1.0 / (2.0 * params.kappa)
    p_closed, p_expm = markovian_pair(model, initial_state(case), gamma)
    return dict(
        closed=closed, census=census, states=states, bics=bics, p_closed=p_closed, p_expm=p_expm
    )


def sweep_generic(doc: dict) -> dict:
    model, initial = power_edges_model(doc)  # initial: drawn from the run seed
    census = fr.count_bound_states(model)
    states = fr.solve_bound_states(model, census)
    bics = fr.find_bics(model)
    p_closed, p_expm = markovian_pair(model, initial, markov_gamma(doc))
    return dict(
        closed=None, census=census, states=states, bics=bics, p_closed=p_closed, p_expm=p_expm
    )


def sweep_check(out: dict, diag: dict) -> list:
    problems = []
    census, closed = out["census"], out["closed"]
    if closed is not None:
        got = (census.m_below, census.m_above, census.m_bic)
        want = (closed.m_below, closed.m_above, closed.m_bic)
        if got != want:
            problems.append(f"census (below, above, bic): closed {want}, generic {got}")
    if len(out["states"]) != census.m_outside:
        problems.append(f"solved {len(out['states'])} states, census {census.m_outside}")
    if len(out["bics"]) != census.m_bic:
        problems.append(f"found {len(out['bics'])} BICs, census {census.m_bic}")
    dev = float(np.max(np.abs(out["p_closed"] - out["p_expm"])))
    diag["expm_dev"] = dev
    if not dev <= MARKOV_TOL:
        problems.append(f"|closed - expm| = {dev:.2e} > {MARKOV_TOL:.0e}")
    return problems


def sweep_jobs(tmp: Path, inputs) -> list:
    known = load_reference("param_sweep")["known_failures"]
    calls = [(case_key(c), partial(sweep_waveguide, c)) for c in inputs["grid"]]
    calls += [(item["key"], partial(sweep_generic, item["doc"])) for item in inputs["generic"]]
    return [
        Job(key=key, call=call, verify=sweep_check, known_failure=key in known)
        for key, call in calls
    ]


def sweep_setup_models(inputs) -> list:
    return [fr.build_waveguide_model(waveguide_params(c)) for c in inputs["grid"]] + [
        power_edges_model(item["doc"]) for item in inputs["generic"]
    ]


def sweep_warmup(tmp: Path, inputs) -> None:
    sweep_waveguide(inputs["grid"][0])
    sweep_generic(inputs["generic"][0]["doc"])


@dataclass(frozen=True)
class Workload:
    jobs: Callable  # (tmp dir, inputs) -> [Job]
    setup_models: Callable  # inputs -> validated models (timed as set-up)
    warmup: Callable  # (tmp dir, inputs) -> None, run once untimed


WORKLOADS = {
    "figures": Workload(figures_jobs, figures_setup_models, figures_warmup),
    "generic-dynamics": Workload(dynamics_jobs, dynamics_setup_models, dynamics_warmup),
    "param-sweep": Workload(sweep_jobs, sweep_setup_models, sweep_warmup),
}
