"""Command-line front end.

Model documents are JSON.  A waveguide model:

    {"kind": "waveguide", "n_atoms": 3, "lambda": 1.0, "kappa": 0.75,
     "xi": 0.25, "site": 2}                      # site: integer or "inf"

A generic model (finite band; couplings real or [re, im] pairs):

    {"kind": "generic",
     "levels": [-1.0, 0.4],
     "couplings": [0.3, [0.1, -0.2]],
     "band": [-1.5, 1.5],
     "spectral_density": {"form": "power_edges", "amplitude": 0.2,
                          "s_low": 0.5, "s_up": "divergent",
                          "zeros": [0.1]},
     "initial": [1.0, 0.0]}                      # optional

power_edges:  J(w) = amplitude * (w-lo)^s_low * (up-w)^s_up * prod_z (w-z)^2
with "divergent" standing for the exponent -1/2 (van Hove edge).

Unknown keys are rejected.  Exit codes: 0 ok, 2 configuration error,
3 numerical failure (diagnostic JSON on stderr).

--config FILE (all but reproduce) holds flags by destination, a list for
--sweep's four: {"t_max": 3.0, "initial": [1, 0]}.  It stands for those
flags typed right after the subcommand: a flag typed on the command line
wins, and a null is a configuration error.

The package imports numpy alone: waveguide, spectrum, bound-states and
dynamics never load scipy; markovian, oracle and reproduce load
scipy.linalg or scipy.sparse when they reach the routines that use them.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import bound_states as bs
from . import dynamics as dyn
from . import lattice
from . import markovian as mk
from . import spectral as sp
from .errors import ConfigError, EInsideBand, FriedrichsError, NonconvergentEdge, PoleHit
from .model import (
    DIVERGENT,
    ContinuumBand,
    DiscreteSpectrum,
    FriedrichsModel,
    InitialState,
    validate_model,
)
from .waveguide import (
    INFINITE,
    WaveguideParams,
    _census_over_xi,
    build_waveguide_model,
    default_initial_state,
    waveguide_bic_energies,
)

FLOAT_FMT = "%.12e"


def _require_keys(doc: dict, allowed: set, where: str):
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _integer(raw, name: str) -> int:
    """raw as an int; ConfigError for a bool, a fraction or a non-number."""
    if not isinstance(raw, bool):
        try:
            if isinstance(raw, str) or float(raw).is_integer():
                return int(raw)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{name} must be an integer, got {raw!r}")


def _finite(value: float, flag: str) -> float:
    """value, or ConfigError naming the flag when it is NaN or infinite."""
    if not math.isfinite(value):
        raise ConfigError(f"{flag}={value} must be finite")
    return value


def _parse_site(raw):
    if raw in ("inf", "infinite", math.inf):
        return INFINITE
    return _integer(raw, "site")


def _read_json(path, what: str):
    """The JSON document in the file path; ConfigError naming it otherwise."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what} {path} is not a readable JSON file: {exc}") from exc


def params_from_doc(doc: dict) -> WaveguideParams:
    # "derived" is informational output of the waveguide subcommand
    _require_keys(
        doc, {"kind", "n_atoms", "lambda", "kappa", "xi", "site", "derived"}, "waveguide model"
    )
    try:
        return WaveguideParams(
            n_atoms=_integer(doc["n_atoms"], "n_atoms"),
            lam=float(doc["lambda"]),
            kappa=float(doc["kappa"]),
            xi=float(doc["xi"]),
            site=_parse_site(doc["site"]),
        )
    except KeyError as exc:
        raise ConfigError(f"waveguide model missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed waveguide model: {exc}") from exc


def _complex_list(values) -> np.ndarray:
    """Complex array from a list of scalars or [re, im] pairs."""
    return np.array(
        [complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c) for c in values]
    )


def _power_edges_density(lo, up, spec: dict):
    _require_keys(
        spec, {"form", "amplitude", "s_low", "s_up", "zeros"}, "spectral_density"
    )
    amp = float(spec.get("amplitude", 1.0))
    exps = []
    for key in ("s_low", "s_up"):
        v = spec.get(key, 1.0)
        exps.append(-0.5 if v == "divergent" else float(v))
        if not exps[-1] > -1.0:
            raise ConfigError(f"{key}={v!r}: J must be integrable at the edge (exponent > -1)")
    zeros = [float(z) for z in spec.get("zeros", [])]

    def j(omega):
        om = np.asarray(omega, dtype=float)
        out = np.zeros_like(om)
        inside = (om > lo) & (om < up)
        v = amp * (om[inside] - lo) ** exps[0] * (up - om[inside]) ** exps[1]
        for z in zeros:
            v = v * (om[inside] - z) ** 2
        out[inside] = v
        return out if out.ndim else float(out)

    edge_exps = tuple(DIVERGENT if e <= 0 else e for e in exps)
    return j, edge_exps, tuple(zeros)


def model_from_doc(doc: dict):
    """(validated model, initial state or None, waveguide params or None)."""
    kind = doc.get("kind", "generic")
    if kind == "waveguide":
        params = params_from_doc(doc)
        return build_waveguide_model(params), default_initial_state(params), params
    if kind != "generic":
        raise ConfigError(f"unknown model kind {kind!r}")
    _require_keys(
        doc,
        {"kind", "levels", "couplings", "band", "spectral_density", "initial"},
        "generic model",
    )
    try:
        levels = [float(x) for x in doc["levels"]]
        couplings = _complex_list(doc["couplings"])
        lo, up = (float(x) for x in doc["band"])
        jspec = doc["spectral_density"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed generic model: {exc}") from exc
    if jspec.get("form", "power_edges") != "power_edges":
        raise ConfigError(f"unsupported spectral_density form {jspec.get('form')!r}")
    j, edge_exps, zeros = _power_edges_density(lo, up, jspec)
    model = validate_model(
        FriedrichsModel(
            discrete=DiscreteSpectrum(np.array(levels), couplings),
            continuum=ContinuumBand(
                omega_low=lo,
                omega_up=up,
                spectral_density=j,
                edge_exponents=edge_exps,
                interior_zeros=zeros,
            ),
        )
    )
    initial = _initial_state(doc["initial"], model, "initial") if "initial" in doc else None
    return model, initial, None


def _initial_state(values, model, where: str) -> InitialState:
    """The amplitudes in values (scalars or [re, im] pairs), one per level."""
    try:
        amps = _complex_list(values)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"{where} must be a list of amplitudes, got {values!r}") from exc
    if amps.shape != (model.n_levels,):
        raise ConfigError(
            f"{where} has {amps.size} amplitudes for {model.n_levels} levels: {values!r}"
        )
    return InitialState(amps)


def _load_model(args):
    """`model_from_doc` of the --model file, or of the waveguide flags."""
    if getattr(args, "model", None):
        doc = _read_json(args.model, "--model")
        if not isinstance(doc, dict):
            raise ConfigError("model document must be a JSON object")
    elif getattr(args, "n_atoms", None) is not None:
        doc = {"kind": "waveguide", "n_atoms": args.n_atoms, "lambda": args.lam,
               "kappa": args.kappa, "xi": args.xi, "site": args.site}
    else:
        raise ConfigError("provide --model FILE or waveguide flags (--n-atoms ...)")
    return model_from_doc(doc)


def _add_model_flags(parser):
    parser.add_argument("--model", help="JSON model document")
    parser.add_argument("--n-atoms", type=int, help="waveguide: chain length N")
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0, help="chain hopping")
    parser.add_argument("--kappa", type=float, default=1.0, help="waveguide hopping")
    parser.add_argument("--xi", type=float, default=0.5, help="chain-waveguide coupling")
    parser.add_argument("--site", default="1", help="attachment site (integer or 'inf')")
    parser.add_argument("--config", help="JSON file of flag values")


def _with_config(argv, by_name):
    """argv with the flags of its subcommand's --config file put right after
    the subcommand, non-strings as JSON, so one parse checks them all."""
    at = next((i for i, a in enumerate(argv) if not a.startswith("-")), None)
    if at is None or argv[at] not in by_name:
        return argv
    # argparse has no public list of a parser's arguments
    actions = {a.dest: a for a in by_name[argv[at]]._actions}
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[at + 1 :])[0].config
    if "config" not in actions or not path:
        return argv
    doc = _read_json(path, "--config")
    if not isinstance(doc, dict):
        raise ConfigError("--config must hold a JSON object")
    _require_keys(doc, set(actions) - {"help", "config"}, "config file")
    flags = []
    for key, value in doc.items():
        if value is None:
            raise ConfigError(f"config file: {key} is null; leave it out for its default")
        values = value if actions[key].nargs and isinstance(value, list) else [value]
        flags += [actions[key].option_strings[0]]
        flags += [v if isinstance(v, str) else json.dumps(v) for v in values]
    return argv[: at + 1] + flags + argv[at + 1 :]


def _write_csv(path, provenance: dict, columns: dict):
    """The tool line and provenance as comments, then the named columns
    (equal-length sequences) as CSV; floats in FLOAT_FMT."""
    lines = [f"# tool = friedrichs {__version__}"]
    lines += [f"# {k} = {v}" for k, v in provenance.items()]
    lines.append(",".join(columns))
    text = [
        [FLOAT_FMT % v if isinstance(v, float) else str(v) for v in column]
        for column in columns.values()
    ]
    lines += map(",".join, zip(*text))
    _emit(path, "\n".join(lines) + "\n")


def _write_json(path, payload):
    _emit(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit(path, text: str):
    """text to the file path, or to standard output when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _state_payload(state: bs.BoundState) -> dict:
    return {
        "energy": state.energy,
        "kind": state.kind.value,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
        "norm_b2": state.norm_b2,
        "level_index": state.level_index,
    }


def _provenance(args, extra=None):
    out = {"command": args.cmd}
    if getattr(args, "model", None):
        out["model_file"] = args.model
    elif getattr(args, "n_atoms", None) is not None:
        out.update(
            n_atoms=args.n_atoms, **{"lambda": args.lam}, kappa=args.kappa,
            xi=args.xi, site=args.site,
        )
    if extra:
        out.update(extra)
    return out


# ---------------------------------------------------------------------------
# subcommands

def _cmd_waveguide(args):
    model, _, params = _load_model(args)
    payload = {
        "kind": "waveguide",
        "n_atoms": params.n_atoms,
        "lambda": params.lam,
        "kappa": params.kappa,
        "xi": params.xi,
        "site": "inf" if params.infinite else params.l_int,
        "derived": {
            "levels": list(model.levels),
            "couplings": [float(f.real) for f in model.couplings],
            "band": [model.omega_low, model.omega_up],
            "j_zeros": list(model.interior_zeros),
            "bic_energies": waveguide_bic_energies(params),
        },
    }
    _write_json(args.output, payload)
    return 0


def _cmd_spectrum(args):
    model, _, _ = _load_model(args)
    lo = args.e_min if args.e_min is not None else model.omega_low - 1.0
    hi = args.e_max if args.e_max is not None else model.omega_up + 1.0
    grid = np.linspace(_finite(lo, "--e-min"), _finite(hi, "--e-max"), args.points)
    values = np.array([_spectrum_row(model, float(e)) for e in grid])
    names = ["E", "sigma_or_delta", "gamma", "k", "k_prime"]
    _write_csv(
        args.output, _provenance(args, {"points": args.points}), dict(zip(names, values.T))
    )
    return 0


def _spectrum_row(model, e: float) -> tuple:
    """(E, Sigma outside the band or Delta inside, Gamma, K, K'); nan where
    one is undefined."""
    try:
        k_val = float(np.real(sp.k_function(model, e)))
        kp_val = float(np.real(sp.k_derivative(model, e)))
    except PoleHit:
        k_val = kp_val = math.nan
    if model.inside_band(e) and not model.is_edge(e):
        try:
            d, g = sp.delta_gamma(model, e)
        except FriedrichsError:
            d = g = math.nan
    else:
        g = 0.0
        try:
            d = sp.self_energy(model, e)
        except (EInsideBand, NonconvergentEdge):
            d = math.nan
    return e, d, g, k_val, kp_val


def _cmd_bound_states(args):
    model, _, _ = _load_model(args)
    bics = bs.find_bics(model)
    census = bs._census(model, bics)
    states = bs.solve_bound_states(model, census) + bics
    payload = {
        "census": {
            k: getattr(census, k) for k in ("n_low", "n_up", "m_below", "m_above", "m_bic")
        },
        "criteria_trace": census.criteria_trace,
        "states": [_state_payload(s) for s in sorted(states, key=lambda s: s.energy)],
    }
    _write_json(args.output, payload)
    return 0


def _initial_for(args, model, default):
    if args.initial == "default":
        if default is None:
            raise ConfigError("generic model needs --initial '[c1, c2, ...]'")
        return default
    try:
        values = json.loads(args.initial)
    except ValueError as exc:
        raise ConfigError(f"--initial is not JSON: {args.initial!r}") from exc
    return _initial_state(values, model, "--initial")


def _cmd_dynamics(args):
    model, default_init, _ = _load_model(args)
    initial = _initial_for(args, model, default_init)
    times = np.linspace(0.0, _finite(args.t_max, "--t-max"), args.points)
    bound = bs.all_bound_states(model)
    coeffs = dyn.decay_coefficients(model, initial, bound)
    series = dyn.survival_probability(
        model, initial, times, coefficients=coeffs, error_budget=args.error_budget
    )
    _write_csv(
        args.output,
        _provenance(args, {"t_max": args.t_max, "points": args.points}),
        {"t": series.times, "p": series.p}
        | {f"p_{part}": series.parts[part] for part in ("bound", "scatter", "cross")},
    )
    limit = dyn.long_time_limit(model, initial, bound)
    _write_json(
        args.sidecar,
        {
            "mean": limit.mean,
            "beats": [
                {"frequency": f, "amplitude": a, "phase": ph}
                for (f, a, ph) in limit.beats
            ],
            "bound_energies": [s.energy for s in bound],
            "meta": series.meta,  # transform_nodes, transform_error, delta_nodes
        },
    )
    return 0


def _xi_flow(params: WaveguideParams, gamma: float, values, xi_name: str) -> dict:
    """Columns xi_name, re_z1, im_z1, re_z2, ... of the Markovian eigenvalues
    of the waveguide `params` at each xi in `values`."""
    z = np.array([
        mk.resonance_decomposition(
            mk.build_markovian(build_waveguide_model(replace(params, xi=float(x))), gamma)
        ).eigenvalues
        for x in values
    ]).reshape(len(values), params.n_atoms)
    columns = {xi_name: values}
    for i in range(params.n_atoms):
        columns |= {f"re_z{i + 1}": z[:, i].real, f"im_z{i + 1}": z[:, i].imag}
    return columns


def _cmd_markovian(args):
    model, default_init, params = _load_model(args)
    if args.sweep is not None:
        if params is None:
            raise ConfigError("--sweep requires a waveguide model")
        name, lo, hi, steps = args.sweep
        if name != "xi":
            raise ConfigError("only 'xi' sweeps are supported")
        try:
            values = np.linspace(float(lo), float(hi), int(steps))
        except ValueError as exc:
            raise ConfigError(f"malformed --sweep {lo} {hi} {steps}: {exc}") from exc
        columns = _xi_flow(params, args.gamma, values, "xi")
        _write_csv(args.output, _provenance(args, {"gamma": args.gamma}), columns)
        return 0

    initial = _initial_for(args, model, default_init)
    h = mk.build_markovian(model, args.gamma)
    times = np.linspace(0.0, _finite(args.t_max, "--t-max"), args.points)
    sys_ = mk.resonance_decomposition(h)
    closed = mk.markovian_survival(h, initial, times, system=sys_)
    direct = mk.markovian_survival(h, initial, times, method="expm")
    _write_csv(
        args.output,
        _provenance(args, {"gamma": args.gamma}),
        {"t": times, "p_closed": closed.p, "p_expm": direct.p},
    )
    rep = mk.anti_pt_check(h, system=sys_)
    _write_json(
        args.sidecar,
        {
            "kind": sys_.kind.value,
            "eigenvalues": [[z.real, z.imag] for z in sys_.eigenvalues],
            "anti_pt_residual": rep.residual,
            "anti_pt": rep.is_anti_pt,
            "phase": rep.phase,
        },
    )
    return 0


def _cmd_oracle(args):
    model, _, params = _load_model(args)
    if params is None:
        raise ConfigError("the lattice oracle needs a waveguide model")
    series = lattice.evolve(
        params,
        initial_site=args.initial_site,
        t_max=args.t_max,
        dt_out=args.t_max / max(args.points - 1, 1),
        n_trunc=args.n_trunc,
    )
    _write_csv(
        args.output,
        _provenance(args, {"t_max": args.t_max, "n_trunc": series.meta["n_trunc"]}),
        {"t": series.times, "p": series.p},
    )
    return 0


# ---------------------------------------------------------------------------
# figure-reproduction datasets

def _fig3():
    """Bound-state counts over (kappa/lambda, xi/lambda) for N = 1..6 at site 1:
    one closed-form census per (N, kappa) over the whole xi axis."""
    kappas = np.linspace(0.05, 1.5, 40).tolist()
    xis = np.linspace(0.05, 3.0, 40).tolist()
    cases = [(n, kap) for n in range(1, 7) for kap in kappas]
    censuses = [_census_over_xi(WaveguideParams(n, 1.0, kap, 0.0, 1), xis) for n, kap in cases]
    yield "fig3_bound_state_counts.csv", {"dataset": "fig3", "site": 1, "lambda": 1.0}, {
        "n_atoms": [n for n, _ in cases for _ in xis],
        "kappa_over_lambda": [kap for _, kap in cases for _ in xis],
        "xi_over_lambda": xis * len(cases),
        "n_out": [c.n_low + c.n_up for c in censuses for _ in xis],
        "m_out": [lo + up for c in censuses for lo, up in zip(c.m_below, c.m_above)],
    }


def _survival_case(params: WaveguideParams, t_max: float, points: int, gamma=None):
    """(times, exact p, lattice-oracle p, Markovian p at gamma or None) of the
    waveguide `params` from its default initial state, on points times in
    [0, t_max]."""
    model = build_waveguide_model(params)
    initial = default_initial_state(params)
    times = np.linspace(0.0, t_max, points)
    exact = dyn.survival_probability(model, initial, times).p
    oracle = lattice.evolve(params, t_max=t_max, dt_out=t_max / (points - 1)).p
    markov = None
    if gamma is not None:
        markov = mk.markovian_survival(mk.build_markovian(model, gamma), initial, times).p
    return times, exact, oracle, markov


def _case_provenance(dataset: str, params: WaveguideParams, **extra) -> dict:
    return {"dataset": dataset, "n_atoms": params.n_atoms, "kappa_over_lambda": params.kappa,
            "xi_over_lambda": params.xi, **extra}


def _fig4():
    """p(t) of N = 3, kappa/lambda = 0.75, xi/lambda = 0.25 at sites 1, 2, inf."""
    for site, tag in ((1, "l1"), (2, "l2"), (INFINITE, "linf")):
        params = WaveguideParams(3, 1.0, 0.75, 0.25, site)
        times, exact, oracle, _ = _survival_case(params, 50.0, 400)
        provenance = _case_provenance("fig4", params, site="inf" if site == INFINITE else site)
        yield f"fig4_survival_{tag}.csv", provenance, {
            "t": times, "p_analytic": exact, "p_oracle": oracle
        }


def _fig5():
    """Markovian eigenvalue flow over xi of N = 2, kappa/lambda = 4 at site inf,
    and its decay at xi/lambda = 2, 4, 6 against the exact p(t)."""
    params = WaveguideParams(2, 1.0, 4.0, 0.0, INFINITE)
    gamma = 1.0 / (2.0 * params.kappa)
    provenance = {"dataset": "fig5", "n_atoms": 2, "kappa_over_lambda": 4.0, "gamma": gamma}
    flow = _xi_flow(params, gamma, np.linspace(0.0, 8.0, 161), "xi_over_lambda")
    yield "fig5_eigenvalue_flow.csv", provenance, flow
    for xi in (2.0, 4.0, 6.0):
        params = replace(params, xi=xi)
        times, exact, oracle, markov = _survival_case(params, 10.0, 201, gamma)
        yield f"fig5_decay_xi{xi:g}.csv", _case_provenance("fig5", params, gamma=gamma), {
            "t": times, "p_exact": exact, "p_markovian": markov, "p_oracle": oracle
        }


_PLOT_STUB = """\
# Plot stub for the reproduction datasets (CSV columns documented per file).
# fig3_bound_state_counts.csv: n_atoms, kappa_over_lambda, xi_over_lambda, n_out, m_out
# fig4_survival_*.csv:         t, p_analytic, p_oracle
# fig5_eigenvalue_flow.csv:    xi_over_lambda, re_z1, im_z1, re_z2, im_z2
# fig5_decay_xi*.csv:          t, p_exact, p_markovian, p_oracle
import sys
import numpy as np
import matplotlib.pyplot as plt

data = np.genfromtxt(sys.argv[1], delimiter=",", names=True, comments="#")
for name in data.dtype.names[1:]:
    plt.plot(data[data.dtype.names[0]], data[name], label=name)
plt.xlabel(data.dtype.names[0])
plt.legend()
plt.show()
"""


def _cmd_reproduce(args):
    """Each dataset of the chosen figures as a CSV file, and the plot stub."""
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for figure, datasets in (("fig3", _fig3), ("fig4", _fig4), ("fig5", _fig5)):
        if args.figure in (figure, "all"):
            for name, provenance, columns in datasets():
                _write_csv(outdir / name, provenance, columns)
                written.append(outdir / name)
    (outdir / "plot_stub.py").write_text(_PLOT_STUB)
    for path in written + [outdir / "plot_stub.py"]:
        print(path)
    return 0


# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="friedrichs",
        description="Bound states and decay dynamics of discrete levels coupled to a continuum",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("waveguide", help="construct a waveguide model document")
    p.add_argument("--n-atoms", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--site", required=True, help="integer or 'inf'")
    p.add_argument("--config", help="JSON file of flag values")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_waveguide)

    p = sub.add_parser("spectrum", help="tabulate Sigma/Delta, Gamma, K, K'")
    _add_model_flags(p)
    p.add_argument("--e-min", type=float, default=None)
    p.add_argument("--e-max", type=float, default=None)
    p.add_argument("--points", type=_positive_int, default=201)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("bound-states", help="census, energies and amplitudes")
    _add_model_flags(p)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_bound_states)

    p = sub.add_parser("dynamics", help="survival probability p(t)")
    _add_model_flags(p)
    p.add_argument("--initial", default="default", help="'default' or JSON amplitudes")
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--points", type=_positive_int, default=400)
    p.add_argument("--error-budget", type=float, default=None)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--sidecar", default=None, help="JSON output for C and beats")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("markovian", help="flat-continuum non-Hermitian dynamics")
    _add_model_flags(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--initial", default="default")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--points", type=_positive_int, default=201)
    p.add_argument(
        "--sweep",
        nargs=4,
        metavar=("PARAM", "LO", "HI", "STEPS"),
        default=None,
        help="emit eigenvalue flow over a parameter (PARAM must be 'xi')",
    )
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--sidecar", default=None)
    p.set_defaults(func=_cmd_markovian)

    p = sub.add_parser("oracle", help="lattice propagation (brute force)")
    _add_model_flags(p)
    p.add_argument("--initial-site", type=int, default=None)
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--points", type=_positive_int, default=400)
    p.add_argument("--n-trunc", type=int, default=None)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("reproduce", help="emit the published-figure datasets")
    p.add_argument("figure", choices=["fig3", "fig4", "fig5", "all"])
    p.add_argument("--outdir", default="reproduce_out")
    p.set_defaults(func=_cmd_reproduce)
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, by_name = _build_parser()
    try:
        args = parser.parse_args(_with_config(argv, by_name))
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
        return 2
    except FriedrichsError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
