import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import friedrichs as fr
from friedrichs import cli, waveguide
from friedrichs.cli import main, model_from_doc
from friedrichs.errors import NonconvergentEdge


def run(argv):
    return main(argv)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_waveguide_document_roundtrip(tmp_path):
    out = tmp_path / "model.json"
    assert run(
        ["waveguide", "--n-atoms", "3", "--kappa", "0.75", "--xi", "0.25",
         "--site", "2", "-o", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["derived"]["bic_energies"] == [0.0]
    model, initial, params = model_from_doc(doc)
    assert model.n_levels == 3
    assert params.l_int == 2


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "waveguide", "n_atoms": 3, "oops": 1}))
    assert run(["bound-states", "--model", str(bad)]) == 2


WAVEGUIDE_DOC = {"kind": "waveguide", "n_atoms": 3, "lambda": 1.0, "kappa": 0.75,
                 "xi": 0.25, "site": 2}


def assert_config_error(capsys, argv, named=None):
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert named is None or named in err["detail"]


@pytest.mark.parametrize("key, value", [("site", 2.7), ("site", True), ("site", "abc"),
                                        ("n_atoms", 2.9)])
def test_non_integer_in_document_is_a_config_error(tmp_path, capsys, key, value):
    # no truncation: 2.7 used to run as site 2, true as site 1, 2.9 as N = 2
    path = tmp_path / "wg.json"
    path.write_text(json.dumps({**WAVEGUIDE_DOC, key: value}))
    assert_config_error(capsys, ["bound-states", "--model", str(path)], key)


#: the generic model of the `cli` module docstring
CLI_DOC_GENERIC = {
    "kind": "generic", "levels": [-1.0, 0.4], "couplings": [0.3, [0.1, -0.2]],
    "band": [-1.5, 1.5],
    "spectral_density": {"form": "power_edges", "amplitude": 0.2, "s_low": 0.5,
                         "s_up": "divergent", "zeros": [0.1]},
    "initial": [1.0, 0.0],
}
ORACLE = ["oracle", "--n-atoms", "2", "--kappa", "1.0", "--xi", "0.3"]


def with_files(tmp_path, argv):
    """argv with each dict in it written to a JSON file and replaced by its path."""
    out = []
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / f"arg{i}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        out.append(arg)
    return out


MALFORMED = [
    (["bound-states", "--n-atoms", "2", "--site", "abc"], "'abc'"),
    (["markovian", "--n-atoms", "2", "--gamma", "0.1", "--sweep", "xi", "0", "1", "abc"],
     "abc"),
    ([*ORACLE, "--initial-site", "5"], "initial_site=5"),
    ([*ORACLE, "--t-max", "0"], "t_max=0.0"),
    ([*ORACLE, "--t-max", "-1"], "t_max=-1.0"),
    ([*ORACLE, "--n-trunc", "1", "--site", "3"], "n_trunc=1"),
    (["dynamics", "--model", CLI_DOC_GENERIC, "--initial", "[1, "], "'[1, '"),
    (["dynamics", "--model", CLI_DOC_GENERIC, "--initial", "[1, 0, 0]"], "[1, 0, 0]"),
    (["dynamics", "--n-atoms", "2", "--t-max", "nan"], "--t-max=nan"),
    (["dynamics", "--n-atoms", "2", "--t-max", "inf"], "--t-max=inf"),
    (["markovian", "--n-atoms", "2", "--gamma", "nan"], "gamma=nan"),
    (["markovian", "--n-atoms", "2", "--gamma", "inf"], "gamma=inf"),
    (["markovian", "--n-atoms", "2", "--gamma", "0.1", "--t-max", "nan"], "--t-max=nan"),
    (["spectrum", "--n-atoms", "2", "--e-min", "nan"], "--e-min=nan"),
    (["spectrum", "--n-atoms", "2", "--e-max", "inf"], "--e-max=inf"),
    (["bound-states", "--n-atoms", "3", "--kappa", "1", "--xi", "nan"], "xi=nan"),
    (["dynamics", "--n-atoms", "3", "--kappa", "1", "--xi", "nan"], "xi=nan"),
    (["bound-states", "--n-atoms", "3", "--kappa", "1", "--xi", "inf"], "xi=inf"),
    (["bound-states", "--n-atoms", "3", "--kappa", "nan", "--xi", "0.5"], "kappa=nan"),
    (["bound-states", "--n-atoms", "3", "--lambda", "inf", "--xi", "0.5"], "lam=inf"),
    (["bound-states", "--model", {**CLI_DOC_GENERIC, "couplings": [0.3, math.nan]}],
     "coupling 1 is (nan+0j)"),
    (["bound-states", "--model", {"kind": "waveguide", "n_atoms": 3, "lambda": "abc",
                                  "kappa": 1, "xi": 0.5, "site": 1}], "'abc'"),
]


@pytest.mark.parametrize("argv, named", MALFORMED, ids=[f"argv{i}" for i in range(len(MALFORMED))])
def test_malformed_flag_value_is_a_config_error(tmp_path, capsys, argv, named):
    assert_config_error(capsys, with_files(tmp_path, argv), named)


def test_nan_level_in_document_exits_two(tmp_path):
    # a NaN level used to send the census's K-zero search into an endless
    # loop; run apart, so a hang fails the test instead of stalling the suite
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({
        "kind": "generic", "levels": [-2.0, math.nan], "couplings": [0.3, 0.3],
        "band": [-1.0, 1.0], "spectral_density": {"form": "power_edges"},
    }))
    assert "NaN" in path.read_text()
    src = Path(fr.__file__).resolve().parents[1]
    path_var = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path_var}
    done = subprocess.run(
        [sys.executable, "-m", "friedrichs.cli", "bound-states", "--model", str(path)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stderr)["detail"] == "level 1 is nan: it must be finite"


def test_uncoupled_chain_bound_states(tmp_path):
    # xi = 0: no K-zero bounds the gap next to the low edge, where the census
    # used to exit 2; it reads the sign of K at the edge and equals the
    # closed census
    out = tmp_path / "states.json"
    argv = ["bound-states", "--n-atoms", "3", "--kappa", "0.3", "--xi", "0", "--site", "1"]
    assert run([*argv, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    closed = fr.waveguide_bound_state_count(fr.WaveguideParams(3, 1.0, 0.3, 0.0, 1))
    assert [payload["census"][k] for k in ("m_below", "m_above", "m_bic")] == [
        closed.m_below, closed.m_above, closed.m_bic
    ]
    assert len(payload["states"]) == closed.m_below + closed.m_above + closed.m_bic


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n-atoms", "2", "--points", "-1"],
    ["markovian", "--n-atoms", "2", "--gamma", "0.1", "--points", "-2"],
    ["spectrum", "--n-atoms", "2", "--config", {"points": -1}],
    ["markovian", "--n-atoms", "2", "--gamma", "0.1", "--config", {"points": 0}],
])
def test_non_positive_points_exit_two(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(with_files(tmp_path, argv))
    assert exc.value.code == 2
    assert "--points" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--model", "--config"])
def test_non_json_file_is_a_config_error(tmp_path, capsys, flag):
    path = tmp_path / "notes.txt"
    path.write_text("not JSON {")
    assert_config_error(capsys, ["bound-states", "--n-atoms", "2", flag, str(path)], str(path))


def test_infinite_band_document_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "kind": "generic", "levels": [0.0], "couplings": [0.3], "band": [-math.inf, 1.0],
        "spectral_density": {"form": "power_edges"},
    }))
    assert "-Infinity" in path.read_text()
    assert_config_error(capsys, ["bound-states", "--model", str(path)], "omega_low=-inf")


def test_generic_model_document(tmp_path):
    doc = {
        "kind": "generic",
        "levels": [-2.5, 2.5],
        "couplings": [0.4, [0.2, 0.1]],
        "band": [-1.0, 1.0],
        "spectral_density": {
            "form": "power_edges",
            "amplitude": 0.08,
            "s_low": 1.0,
            "s_up": 1.0,
        },
    }
    model, initial, params = model_from_doc(doc)
    assert params is None and initial is None
    assert model.couplings[1] == 0.2 + 0.1j
    path = tmp_path / "generic.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "states.json"
    assert run(["bound-states", "--model", str(path), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["census"]["n_low"] == 1
    assert payload["census"]["n_up"] == 1


def test_divergent_edge_document():
    doc = {
        "kind": "generic",
        "levels": [0.0],
        "couplings": [0.3],
        "band": [-1.0, 1.0],
        "spectral_density": {
            "form": "power_edges",
            "amplitude": 0.05,
            "s_low": "divergent",
            "s_up": "divergent",
        },
    }
    model, _, _ = model_from_doc(doc)
    assert model.continuum.edge_exponents == (None, None)
    # J ~ 1/sqrt near both edges
    assert model.j(np.array([0.999]))[0] > model.j(np.array([0.5]))[0]


def _linear_edge_doc(s_low):
    """J = 0.3 (w + 1)^s_low (1 - w) on [-1, 1], one level at -2."""
    return {
        "kind": "generic", "levels": [-2.0], "couplings": [0.3], "band": [-1.0, 1.0],
        "spectral_density": {"form": "power_edges", "amplitude": 0.3, "s_low": s_low,
                             "s_up": 1.0},
    }


def test_zero_edge_exponent_is_divergent():
    # J is finite and nonzero at -1, where Sigma diverges logarithmically;
    # read as a convergent exponent 0, Sigma(-1) came out as -23.27 and the
    # census's 1/Sigma at the edge as -0.043
    model, _, _ = model_from_doc(_linear_edge_doc(0))
    assert model.continuum.edge_exponents == (fr.DIVERGENT, 1.0)
    with pytest.raises(NonconvergentEdge):
        fr.self_energy(model, -1.0)
    inv = fr.count_bound_states(model).criteria_trace["low"]["sigma_inv_edge"]
    assert inv == 0.0 and math.copysign(1.0, inv) == -1.0


@pytest.mark.parametrize("s_low", [-1, -1.5, "nan"])
def test_non_integrable_edge_exponent_is_a_config_error(tmp_path, capsys, s_low):
    # J ~ (w + 1)^s_low has no integral for s_low <= -1: Sigma(-1.5) came
    # out as a finite -30.78 at s_low = -1
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(_linear_edge_doc(s_low)))
    assert_config_error(capsys, ["bound-states", "--model", str(path)], f"s_low={s_low!r}")


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spec.csv"
    assert run(
        ["spectrum", "--n-atoms", "2", "--kappa", "1.0", "--xi", "0.4",
         "--site", "1", "--points", "21", "-o", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("command = spectrum" in c for c in comments)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "E,sigma_or_delta,gamma,k,k_prime"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 22


def test_dynamics_csv_and_sidecar(tmp_path):
    out, side = tmp_path / "dyn.csv", tmp_path / "dyn.json"
    assert run(
        ["dynamics", "--n-atoms", "3", "--kappa", "0.75", "--xi", "0.25",
         "--site", "2", "--t-max", "10", "--points", "30",
         "-o", str(out), "--sidecar", str(side)]
    ) == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "t,p,p_bound,p_scatter,p_cross"
    first = [float(x) for x in rows[1].split(",")]
    assert first[1] == pytest.approx(1.0, abs=1e-4)
    assert first[1] == pytest.approx(first[2] + first[3] + first[4], abs=1e-12)
    payload = json.loads(side.read_text())
    assert payload["mean"] == pytest.approx(0.4487534626, rel=1e-6)
    meta = payload["meta"]
    assert meta["delta_nodes"] == 0  # the waveguide's closed-form Delta
    assert 0 < meta["transform_nodes"] < 32769
    assert 0.0 < meta["transform_error"] < 1e-10


def test_oracle_csv(tmp_path):
    out = tmp_path / "orc.csv"
    assert run(
        ["oracle", "--n-atoms", "2", "--kappa", "1.0", "--xi", "0.3",
         "--site", "1", "--t-max", "5", "--points", "11", "-o", str(out)]
    ) == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "t,p"
    assert float(rows[1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)


def test_markovian_sweep_and_decay(tmp_path):
    flow = tmp_path / "flow.csv"
    assert run(
        ["markovian", "--n-atoms", "2", "--kappa", "4", "--xi", "2",
         "--site", "inf", "--gamma", "0.125",
         "--sweep", "xi", "0", "8", "17", "-o", str(flow)]
    ) == 0
    rows = [ln for ln in flow.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "xi,re_z1,im_z1,re_z2,im_z2"
    assert len(rows) == 18
    decay, side = tmp_path / "decay.csv", tmp_path / "mk.json"
    assert run(
        ["markovian", "--n-atoms", "2", "--kappa", "4", "--xi", "4",
         "--site", "inf", "--gamma", "0.125", "--t-max", "5",
         "--points", "26", "-o", str(decay), "--sidecar", str(side)]
    ) == 0
    payload = json.loads(side.read_text())
    assert payload["kind"] == "defective"
    assert payload["phase"] == "exceptional"
    assert payload["anti_pt_residual"] == 0.0


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 7, "t_max": 3.0}))
    out = tmp_path / "o.csv"
    assert run(
        ["oracle", "--n-atoms", "2", "--kappa", "1.0", "--xi", "0.3",
         "--site", "1", "--config", str(cfg), "-o", str(out)]
    ) == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 8  # header + 7 points
    bad = tmp_path / "bad_cfg.json"
    bad.write_text(json.dumps({"no_such_flag": 1}))
    assert run(
        ["oracle", "--n-atoms", "2", "--kappa", "1.0", "--xi", "0.3",
         "--site", "1", "--config", str(bad)]
    ) == 2


def test_config_never_overrides_explicit_flag(tmp_path):
    # --kappa 1.0 equals the built-in default and must still beat the file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa": 2.0, "points": 3, "t_max": 1.0}))
    out = tmp_path / "o.csv"
    assert run(
        ["oracle", "--n-atoms", "2", "--kappa", "1.0", "--xi", "0.3",
         "--site", "1", "--config", str(cfg), "-o", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert "# kappa = 1.0" in lines
    assert len([ln for ln in lines if not ln.startswith("#")]) == 4


REQUIRED_FROM_CONFIG = {
    "markovian": (["--n-atoms", "2", "--kappa", "4.0", "--xi", "4.0", "--site", "inf"],
                  {"gamma": 0.125}),
    "waveguide": ([], {"n_atoms": 3, "kappa": 0.75, "xi": 0.25, "site": 2}),
    # not a required flag: the file gives the amplitudes as a JSON list
    "dynamics": (["--n-atoms", "2", "--t-max", "1.0", "--points", "5"], {"initial": [1, 0]}),
}


@pytest.mark.parametrize("cmd", sorted(REQUIRED_FROM_CONFIG))
def test_config_supplies_required_flags(tmp_path, cmd):
    # the file stands in for the flags it names: the output is the one the
    # same values give as flags
    flags, doc = REQUIRED_FROM_CONFIG[cmd]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    from_file, from_flags = tmp_path / "file.out", tmp_path / "flags.out"
    as_flags = [x for k, v in doc.items() for x in ("--" + k.replace("_", "-"), str(v))]
    assert run([cmd, *flags, "--config", str(cfg), "-o", str(from_file)]) == 0
    assert run([cmd, *flags, *as_flags, "-o", str(from_flags)]) == 0
    assert from_file.read_text() == from_flags.read_text()


@pytest.mark.parametrize("cmd, dropped, flag", [("markovian", "gamma", "--gamma"),
                                                ("waveguide", "site", "--site")])
def test_required_flag_missing_after_config(tmp_path, capsys, cmd, dropped, flag):
    flags, doc = REQUIRED_FROM_CONFIG[cmd]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: v for k, v in doc.items() if k != dropped}))
    with pytest.raises(SystemExit) as exc:
        main([cmd, *flags, "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"required: {flag}" in capsys.readouterr().err


# a value of each flag that takes --config, none its default: the file's
# JSON value and the arguments the same value takes on the command line
CONFIG_SAMPLES = {
    "model": ("m.json", ["m.json"]),
    "n_atoms": (3, ["3"]),
    "lam": (1.5, ["1.5"]),
    "kappa": (0.75, ["0.75"]),
    "xi": (0.25, ["0.25"]),
    "site": ("inf", ["inf"]),
    "e_min": (-2.5, ["-2.5"]),
    "e_max": (2.5, ["2.5"]),
    "points": (7, ["7"]),
    "initial": ([1, [0, 1]], ["[1, [0, 1]]"]),
    "t_max": (3.0, ["3.0"]),
    "error_budget": (1e-09, ["1e-09"]),
    "gamma": (0.125, ["0.125"]),
    "sweep": (["xi", 0, 8.0, 161], ["xi", "0", "8.0", "161"]),
    "initial_site": (2, ["2"]),
    "n_trunc": (40, ["40"]),
    "output": ("out.csv", ["out.csv"]),
    "sidecar": ("side.json", ["side.json"]),
}


def _config_flags():
    """(subcommand, flag's action) for every flag of each subcommand that
    takes --config."""
    _, by_name = cli._build_parser()
    return [
        (cmd, action)
        for cmd, sub in sorted(by_name.items())
        for action in sub._actions
        if any(a.dest == "config" for a in sub._actions)
        and action.dest not in ("help", "config")
    ]


@pytest.mark.parametrize("cmd, action", _config_flags(), ids=lambda v: getattr(v, "dest", v))
def test_config_parses_as_flags(tmp_path, cmd, action):
    # a flag given through --config parses to the args it does as a flag
    parser, by_name = cli._build_parser()
    value, tokens = CONFIG_SAMPLES[action.dest]
    required = [
        x for a in by_name[cmd]._actions if a.required and a is not action
        for x in (a.option_strings[0], *CONFIG_SAMPLES[a.dest][1])
    ]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({action.dest: value}))
    argv = [cmd, *required, "--config", str(cfg)]
    from_file = parser.parse_args(cli._with_config(argv, by_name))
    from_flags = parser.parse_args([cmd, *required, action.option_strings[0], *tokens])
    assert getattr(from_flags, action.dest) != action.default
    assert {**vars(from_file), "config": None} == vars(from_flags)


@pytest.mark.parametrize("argv, key", [
    (["dynamics", "--n-atoms", "2", "--config", {"t_max": None}], "t_max"),
    (["bound-states", "--config", {"n_atoms": 2, "lam": None}], "lam"),
])
def test_null_in_config_is_a_config_error(tmp_path, capsys, argv, key):
    # null used to replace the flag's default with None: a raw TypeError
    # from a finite check, exit 1
    assert_config_error(capsys, with_files(tmp_path, argv), key)


def test_reproduce_fig5_deterministic(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["reproduce", "fig5", "--outdir", str(d1)]) == 0
    assert run(["reproduce", "fig5", "--outdir", str(d2)]) == 0
    for name in ("fig5_eigenvalue_flow.csv", "fig5_decay_xi2.csv",
                 "fig5_decay_xi4.csv", "fig5_decay_xi6.csv", "plot_stub.py"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    pinned = {"fig5_eigenvalue_flow.csv": FIG5_FLOW_SHA256, "plot_stub.py": STUB_SHA256}
    for name, digest in pinned.items():
        assert hashlib.sha256((d1 / name).read_bytes()).hexdigest() == digest, name
    flow = (d1 / "fig5_eigenvalue_flow.csv").read_text().splitlines()
    rows = [ln for ln in flow if not ln.startswith("#")]
    assert len(rows) == 162
    # EP row: both eigenvalues -i exactly
    ep_row = next(ln for ln in rows[1:] if float(ln.split(",")[0]) == 4.0)
    vals = [float(x) for x in ep_row.split(",")]
    assert vals[1] == 0.0 and vals[3] == 0.0
    assert vals[2] == pytest.approx(-1.0, abs=1e-12)
    assert vals[4] == pytest.approx(-1.0, abs=1e-12)


def test_reproduce_all_headers_are_the_plot_stubs(tmp_path):
    assert run(["reproduce", "all", "--outdir", str(tmp_path)]) == 0
    documented = [
        line[2:].split(":") for line in cli._PLOT_STUB.splitlines() if ".csv:" in line
    ]
    files = sorted(tmp_path.glob("*.csv"))
    assert len(files) == 8
    for path in files:
        (columns,) = [cols for pattern, cols in documented if path.match(pattern)]
        header = next(ln for ln in path.read_text().splitlines() if not ln.startswith("#"))
        assert header.split(",") == [c.strip() for c in columns.split(",")], path.name


FIG3_SHA256 = "420ee1f62d2e14c68928c1ec6f43efa0be6d875b832ae323e98996bb46b2364b"
FIG5_FLOW_SHA256 = "9b63214cac53bb6d9f6afdb4151955af7a6f9451bd341b7feabbf7c588623d6d"
STUB_SHA256 = "b2dcd27a1aaeb817d8f9fd34734cdad7110881d55bb5d63c0eabcbc49156cdf0"


def test_reproduce_fig3_pinned_and_matches_generic_census(tmp_path):
    assert run(["reproduce", "fig3", "--outdir", str(tmp_path)]) == 0
    data = (tmp_path / "fig3_bound_state_counts.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == FIG3_SHA256
    rows = [ln.split(",") for ln in data.decode().splitlines()[5:]]
    assert len(rows) == 6 * 40 * 40
    kappas, xis = np.linspace(0.05, 1.5, 40), np.linspace(0.05, 3.0, 40)
    # every 79th row: all N, and kappa and xi indices that both move
    for r in range(0, len(rows), 79):
        n, kap, xi = r // 1600 + 1, float(kappas[r // 40 % 40]), float(xis[r % 40])
        assert [int(rows[r][0]), float(rows[r][1]), float(rows[r][2])] == pytest.approx(
            [n, kap, xi], rel=1e-12
        )
        model = fr.build_waveguide_model(fr.WaveguideParams(n, 1.0, kap, xi, 1))
        census = fr.count_bound_states(model)
        assert (int(rows[r][3]), int(rows[r][4])) == (census.n_low + census.n_up, census.m_outside)


def test_reproduce_fig3_work(tmp_path, monkeypatch):
    # one closed-form census per (N, kappa) over the xi axis: 6 x 40 edge pairs
    # and no scalar census per point
    pairs = []
    edge_pair = waveguide._edge_pair

    def counted(params):
        pairs.append(params)
        return edge_pair(params)

    def scalar(params):
        raise AssertionError("reproduce fig3 ran a scalar census")

    monkeypatch.setattr(waveguide, "_edge_pair", counted)
    monkeypatch.setattr(waveguide, "waveguide_bound_state_count", scalar)
    monkeypatch.setattr(cli, "waveguide_bound_state_count", scalar, raising=False)
    assert run(["reproduce", "fig3", "--outdir", str(tmp_path)]) == 0
    assert 0 < len(pairs) <= 6 * 40
