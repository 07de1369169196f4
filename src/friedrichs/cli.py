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
    build_waveguide_model,
    default_initial_state,
    waveguide_bic_energies,
    waveguide_bound_state_count,
)

FLOAT_FMT = "%.12e"


def _require_keys(doc: dict, allowed: set, where: str):
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _parse_site(raw):
    if raw in ("inf", "infinite", math.inf):
        return INFINITE
    return int(raw)


def params_from_doc(doc: dict) -> WaveguideParams:
    # "derived" is informational output of the waveguide subcommand
    _require_keys(
        doc, {"kind", "n_atoms", "lambda", "kappa", "xi", "site", "derived"}, "waveguide model"
    )
    try:
        return WaveguideParams(
            n_atoms=int(doc["n_atoms"]),
            lam=float(doc["lambda"]),
            kappa=float(doc["kappa"]),
            xi=float(doc["xi"]),
            site=_parse_site(doc["site"]),
        )
    except KeyError as exc:
        raise ConfigError(f"waveguide model missing key {exc}") from exc


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

    edge_exps = tuple(DIVERGENT if e < 0 else e for e in exps)
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
    if not (math.isfinite(lo) and math.isfinite(up)):
        raise ConfigError("generic JSON models require a finite band")
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
    initial = InitialState(_complex_list(doc["initial"])) if "initial" in doc else None
    return model, initial, None


def _load_model(args):
    if getattr(args, "model", None):
        doc = json.loads(Path(args.model).read_text())
        if not isinstance(doc, dict):
            raise ConfigError("model document must be a JSON object")
        return model_from_doc(doc)
    if getattr(args, "n_atoms", None) is not None:
        params = WaveguideParams(
            n_atoms=args.n_atoms,
            lam=args.lam,
            kappa=args.kappa,
            xi=args.xi,
            site=_parse_site(args.site),
        )
        return build_waveguide_model(params), default_initial_state(params), params
    raise ConfigError("provide --model FILE or waveguide flags (--n-atoms ...)")


def _add_model_flags(parser):
    parser.add_argument("--model", help="JSON model document")
    parser.add_argument("--n-atoms", type=int, help="waveguide: chain length N")
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0, help="chain hopping")
    parser.add_argument("--kappa", type=float, default=1.0, help="waveguide hopping")
    parser.add_argument("--xi", type=float, default=0.5, help="chain-waveguide coupling")
    parser.add_argument("--site", default="1", help="attachment site (integer or 'inf')")
    parser.add_argument("--config", help="JSON file with default flag values")


def _apply_config(args, argv, parser, subparser):
    """Config values act as defaults; explicitly passed flags still win.

    The values become the subcommand's parser defaults and argv is parsed
    again, so a flag given on the command line wins even when it equals
    the built-in default.
    """
    doc = json.loads(Path(args.config).read_text())
    if not isinstance(doc, dict):
        raise ConfigError("--config must hold a JSON object")
    valid = set(vars(args)) - {"func", "cmd", "config"}
    _require_keys(doc, valid, "config file")
    subparser.set_defaults(**doc)
    return parser.parse_args(argv)


def _write_csv(path, header_cols, rows, provenance: dict):
    lines = [f"# {k} = {v}" for k, v in provenance.items()]
    lines.append(",".join(header_cols))
    for row in rows:
        lines.append(
            ",".join(
                (FLOAT_FMT % v) if isinstance(v, float) else str(v) for v in row
            )
        )
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
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
    out = {"tool": f"friedrichs {__version__}", "command": args.cmd}
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
    grid = np.linspace(lo, hi, args.points)
    rows = []
    for e in grid:
        e = float(e)
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
        rows.append((e, d, g, k_val, kp_val))
    _write_csv(
        args.output,
        ["E", "sigma_or_delta", "gamma", "k", "k_prime"],
        rows,
        _provenance(args, {"points": args.points}),
    )
    return 0


def _cmd_bound_states(args):
    model, _, _ = _load_model(args)
    bics = bs.find_bics(model)
    census = bs._census(model, bics)
    states = bs.solve_bound_states(model, census) + bics
    payload = {
        "census": {
            "n_low": census.n_low,
            "n_up": census.n_up,
            "m_below": census.m_below,
            "m_above": census.m_above,
            "m_bic": census.m_bic,
        },
        "criteria_trace": census.criteria_trace,
        "states": [_state_payload(s) for s in sorted(states, key=lambda s: s.energy)],
    }
    _write_json(args.output, payload)
    return 0


def _initial_for(args, model, default):
    if getattr(args, "initial", None) in (None, "default"):
        if default is None:
            raise ConfigError("generic model needs --initial '[c1, c2, ...]'")
        return default
    return InitialState(_complex_list(json.loads(args.initial)))


def _cmd_dynamics(args):
    model, default_init, _ = _load_model(args)
    initial = _initial_for(args, model, default_init)
    times = np.linspace(0.0, args.t_max, args.points)
    bound = bs.all_bound_states(model)
    coeffs = dyn.decay_coefficients(model, initial, bound)
    series = dyn.survival_probability(
        model, initial, times, coefficients=coeffs, error_budget=args.error_budget
    )
    rows = list(
        zip(
            (float(t) for t in series.times),
            (float(v) for v in series.p),
            (float(v) for v in series.parts["bound"]),
            (float(v) for v in series.parts["scatter"]),
            (float(v) for v in series.parts["cross"]),
        )
    )
    _write_csv(
        args.output,
        ["t", "p", "p_bound", "p_scatter", "p_cross"],
        rows,
        _provenance(args, {"t_max": args.t_max, "points": args.points}),
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
            "meta": series.meta,  # filon_nodes, filon_thinning_error, delta_nodes
        },
    )
    return 0


def _xi_flow(params: WaveguideParams, gamma: float, values) -> list:
    """Rows (xi, re z1, im z1, re z2, ...) of the Markovian eigenvalues of the
    waveguide `params` at each xi in `values`."""
    rows = []
    for x in values:
        h = mk.build_markovian(build_waveguide_model(replace(params, xi=float(x))), gamma)
        z = mk.resonance_decomposition(h).eigenvalues
        rows.append((float(x), *(v for zi in z for v in (float(zi.real), float(zi.imag)))))
    return rows


def _cmd_markovian(args):
    model, default_init, params = _load_model(args)
    if args.sweep is not None:
        if params is None:
            raise ConfigError("--sweep requires a waveguide model")
        name, lo, hi, steps = args.sweep
        if name != "xi":
            raise ConfigError("only 'xi' sweeps are supported")
        rows = _xi_flow(params, args.gamma, np.linspace(float(lo), float(hi), int(steps)))
        cols = ["xi"] + [f"{p}_z{i+1}" for i in range(model.n_levels) for p in ("re", "im")]
        _write_csv(args.output, cols, rows, _provenance(args, {"gamma": args.gamma}))
        return 0

    initial = _initial_for(args, model, default_init)
    h = mk.build_markovian(model, args.gamma)
    times = np.linspace(0.0, args.t_max, args.points)
    sys_ = mk.resonance_decomposition(h)
    closed = mk.markovian_survival(h, initial, times, system=sys_)
    direct = mk.markovian_survival(h, initial, times, method="expm")
    rows = list(zip(map(float, times), map(float, closed.p), map(float, direct.p)))
    _write_csv(
        args.output,
        ["t", "p_closed", "p_expm"],
        rows,
        _provenance(args, {"gamma": args.gamma}),
    )
    rep = mk.anti_pt_check(h)
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
    rows = list(zip(map(float, series.times), map(float, series.p)))
    _write_csv(
        args.output,
        ["t", "p"],
        rows,
        _provenance(args, {"t_max": args.t_max, "n_trunc": series.meta["n_trunc"]}),
    )
    return 0


# ---------------------------------------------------------------------------
# figure-reproduction datasets

FIG_N = 3
FIG_KAPPA = 0.75
FIG_XI = 0.25
FIG5_KAPPA = 4.0


def _reproduce_fig3(outdir: Path):
    kappas = np.linspace(0.05, 1.5, 40)
    xis = np.linspace(0.05, 3.0, 40)
    rows = []
    for n in range(1, 7):
        for kap in kappas:
            for xi in xis:
                params = WaveguideParams(n, 1.0, float(kap), float(xi), 1)
                census = waveguide_bound_state_count(params)
                rows.append(
                    (n, float(kap), float(xi), census.n_low + census.n_up, census.m_outside)
                )
    _write_csv(
        outdir / "fig3_bound_state_counts.csv",
        ["n_atoms", "kappa_over_lambda", "xi_over_lambda", "n_out", "m_out"],
        rows,
        {"tool": f"friedrichs {__version__}", "dataset": "fig3", "site": 1, "lambda": 1.0},
    )
    return [outdir / "fig3_bound_state_counts.csv"]


def _fig4_case(site):
    params = WaveguideParams(FIG_N, 1.0, FIG_KAPPA, FIG_XI, site)
    model = build_waveguide_model(params)
    initial = default_initial_state(params)
    times = np.linspace(0.0, 50.0, 400)
    series = dyn.survival_probability(model, initial, times)
    oracle = lattice.evolve(params, t_max=50.0, dt_out=50.0 / 399)
    return params, times, series, oracle


def _reproduce_fig4(outdir: Path):
    written = []
    for site, tag in ((1, "l1"), (2, "l2"), (INFINITE, "linf")):
        params, times, series, oracle = _fig4_case(site)
        rows = list(
            zip(map(float, times), map(float, series.p), map(float, oracle.p))
        )
        path = outdir / f"fig4_survival_{tag}.csv"
        _write_csv(
            path,
            ["t", "p_analytic", "p_oracle"],
            rows,
            {
                "tool": f"friedrichs {__version__}",
                "dataset": "fig4",
                "n_atoms": FIG_N,
                "kappa_over_lambda": FIG_KAPPA,
                "xi_over_lambda": FIG_XI,
                "site": "inf" if site == INFINITE else site,
            },
        )
        written.append(path)
    return written


def _reproduce_fig5(outdir: Path):
    written = []
    gamma = 1.0 / (2.0 * FIG5_KAPPA)
    params = WaveguideParams(2, 1.0, FIG5_KAPPA, 0.0, INFINITE)
    rows = _xi_flow(params, gamma, np.linspace(0.0, 8.0, 161))
    path = outdir / "fig5_eigenvalue_flow.csv"
    _write_csv(
        path,
        ["xi_over_lambda", "re_z1", "im_z1", "re_z2", "im_z2"],
        rows,
        {
            "tool": f"friedrichs {__version__}",
            "dataset": "fig5",
            "n_atoms": 2,
            "kappa_over_lambda": FIG5_KAPPA,
            "gamma": gamma,
        },
    )
    written.append(path)

    times = np.linspace(0.0, 10.0, 201)
    for xi in (2.0, 4.0, 6.0):
        params = WaveguideParams(2, 1.0, FIG5_KAPPA, xi, INFINITE)
        model = build_waveguide_model(params)
        initial = default_initial_state(params)
        h = mk.build_markovian(model, gamma)
        closed = mk.markovian_survival(h, initial, times)
        exact = dyn.survival_probability(model, initial, times)
        oracle = lattice.evolve(params, t_max=10.0, dt_out=10.0 / 200)
        rows = list(
            zip(
                map(float, times),
                map(float, exact.p),
                map(float, closed.p),
                map(float, oracle.p),
            )
        )
        path = outdir / f"fig5_decay_xi{xi:g}.csv"
        _write_csv(
            path,
            ["t", "p_exact", "p_markovian", "p_oracle"],
            rows,
            {
                "tool": f"friedrichs {__version__}",
                "dataset": "fig5",
                "n_atoms": 2,
                "kappa_over_lambda": FIG5_KAPPA,
                "xi_over_lambda": xi,
                "gamma": gamma,
            },
        )
        written.append(path)
    return written


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
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    which = args.figure
    written = []
    if which in ("fig3", "all"):
        written += _reproduce_fig3(outdir)
    if which in ("fig4", "all"):
        written += _reproduce_fig4(outdir)
    if which in ("fig5", "all"):
        written += _reproduce_fig5(outdir)
    stub = outdir / "plot_stub.py"
    stub.write_text(_PLOT_STUB)
    written.append(stub)
    for path in written:
        print(path)
    return 0


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="friedrichs",
        description="Bound states and decay dynamics of discrete levels coupled to a continuum",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    by_name = {}

    p = sub.add_parser("waveguide", help="construct a waveguide model document")
    p.add_argument("--n-atoms", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--site", required=True, help="integer or 'inf'")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_waveguide)

    p = sub.add_parser("spectrum", help="tabulate Sigma/Delta, Gamma, K, K'")
    _add_model_flags(p)
    p.add_argument("--e-min", type=float, default=None)
    p.add_argument("--e-max", type=float, default=None)
    p.add_argument("--points", type=int, default=201)
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
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--error-budget", type=float, default=None)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--sidecar", default=None, help="JSON output for C and beats")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("markovian", help="flat-continuum non-Hermitian dynamics")
    _add_model_flags(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--initial", default="default")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=201)
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
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--n-trunc", type=int, default=None)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("reproduce", help="emit the published-figure datasets")
    p.add_argument("figure", choices=["fig3", "fig4", "fig5", "all"])
    p.add_argument("--outdir", default="reproduce_out")
    p.set_defaults(func=_cmd_reproduce)
    for action in parser._subparsers._group_actions:
        by_name.update(action.choices)
    return parser, by_name


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, by_name = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = _apply_config(args, argv, parser, by_name[args.cmd])
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
