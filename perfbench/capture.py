"""Capture the reference files in perfbench/reference/ from the current code.

    PYTHONPATH=src OMP_NUM_THREADS=1 python3 perfbench/capture.py [WORKLOAD ...]

WORKLOAD is figures, generic-dynamics or param-sweep (default: all three).

Run once at the commit that defines the baseline; the benchmark compares
later commits against these files.  Each file records, per job, what the
commit produced and whether the job passed its checks, so that failures
present at capture time (known defects) stay visible in fail_frac without
making a run incorrect.  About four minutes on one core.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import friedrichs as fr
import generator as gen
import jobs

TMP = Path(__file__).resolve().parent.parent / ".perfbench_tmp" / "capture"
HALVED_NODES = 16385  # node-halving estimate: the CLI default is 32769


def run_cli(argv: list) -> None:
    rc = jobs.cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"friedrichs {' '.join(argv)} exited with {rc}")


def write(name: str, payload: dict) -> None:
    path = jobs.REF_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def capture_figures() -> None:
    outdir = TMP / "figures"
    run_cli(["reproduce", "all", "--outdir", str(outdir)])
    table = jobs.read_csv(outdir / jobs.FIG3)
    fig3 = {col: ",".join(table[col]) for col in ("n_out", "m_out")}
    diag: dict = {}
    problems = jobs.check_figures(outdir, fig3, 0, diag)
    print(f"figures: oracle deviation {diag['oracle_dev']:.2e}, problems {problems}")
    write("figures", {"fig3": fig3, "oracle_dev": diag["oracle_dev"], "problems": problems})


def capture_dynamics() -> None:
    bases = gen.generic_documents(gen.GD_BASE_SEED, gen.GD_BASES)
    models = {}
    for b, base in enumerate(bases):
        for v in range(gen.GD_VARIANTS):
            key = f"{b}/{v}"
            doc = gen.variant(base, [gen.GD_BASE_SEED, b, v])
            argv, csv = jobs.write_dynamics_inputs(TMP, f"dyn_{b}_{v}", doc)
            run_cli(argv)
            p = jobs.float_column(jobs.read_csv(csv), "p")
            model, initial = jobs.power_edges_model(doc)
            halved = fr.survival_probability(
                model, initial, jobs.DYN_TIMES, n_base_nodes=HALVED_NODES
            ).p
            estimate = float(np.max(np.abs(p - halved)))
            p0_dev = abs(float(p[0]) - 1.0)
            problems = jobs.dynamics_check(p, None, {})
            models[key] = {
                "digest": gen.doc_digest(doc),
                "p": [float(x) for x in p],
                "halving_estimate": estimate,
                "p0_dev": p0_dev,
                # a reference is trusted to its own node-halving estimate and
                # to its own |p(0) - 1|, whichever is larger
                "tol": max(estimate, p0_dev, jobs.REF_FLOOR),
                "problems": problems,
            }
            print(f"dynamics {key}: halving {estimate:.2e} p0 {p0_dev:.2e} {problems}")
    write(
        "generic_dynamics",
        {"base_seed": gen.GD_BASE_SEED, "halved_nodes": HALVED_NODES, "models": models},
    )


def sweep_problems(call, arg) -> list:
    try:
        return jobs.sweep_check(call(arg), {})
    except fr.errors.FriedrichsError as exc:
        return [f"raised {type(exc).__name__}: {exc}"]


def capture_sweep(seeds=range(10)) -> None:
    """Failures over several seeds; the seed only moves the Markovian states."""
    failures: dict = {}
    for seed in seeds:
        inputs = gen.sweep_inputs(seed)
        calls = [(gen.case_key(c), jobs.sweep_waveguide, c) for c in inputs["grid"]]
        calls += [(i["key"], jobs.sweep_generic, i["doc"]) for i in inputs["generic"]]
        for key, call, arg in calls:
            problems = sweep_problems(call, arg)
            if problems:
                failures.setdefault(key, {})[seed] = problems[0]
        print(f"param-sweep seed {seed}: {sum(seed in f for f in failures.values())} failures")
    every_seed = {k: v for k, v in failures.items() if len(v) == len(seeds)}
    for key in sorted(set(failures) - set(every_seed)):
        print(f"param-sweep {key} fails on seeds {sorted(failures[key])} only")
    write(
        "param_sweep",
        {
            "known_failures": {k: min(v.values()) for k, v in failures.items()},
            "seeds_checked": list(seeds),
            "seed_dependent": sorted(set(failures) - set(every_seed)),
        },
    )


CAPTURES = {
    "figures": capture_figures,
    "generic-dynamics": capture_dynamics,
    "param-sweep": capture_sweep,
}


def main(argv: list) -> int:
    jobs.REF_DIR.mkdir(exist_ok=True)
    TMP.mkdir(parents=True, exist_ok=True)
    try:
        for name in argv or list(CAPTURES):
            CAPTURES[name]()
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
