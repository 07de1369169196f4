"""Benchmark of the friedrichs package: one workload per run.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The package is imported from ./src in
fresh interpreters (perfbench/worker.py) with one compute thread.  Set-up is
timed in several fresh interpreters and reported as their median; the
measured worker then runs timed passes over the workload's jobs and checks
every output.  Times are given at a reference core speed measured by the
probe in perfbench/speed.py, which corrects for a shared machine's swings
in speed.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  See perfbench/README.md for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import generator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("figures", "generic-dynamics", "param-sweep")
SETUP_REPEATS = 3  # measured set-up interpreters, after one untimed warm one
DEADLINE_S = 170.0  # the whole run stays under the 180 s limit
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def make_inputs(workload: str, seed: int):
    if workload == "generic-dynamics":
        return generator.dynamics_inputs(seed)
    if workload == "param-sweep":
        return generator.sweep_inputs(seed)
    return None


def worker_env() -> dict:
    """Serial CLI (FRIEDRICHS_THREADS unset), one BLAS/OpenMP thread, ./src first."""
    env = dict(os.environ)
    env.pop("FRIEDRICHS_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode: str, spec: dict, tmp: Path, name: str, deadline: float) -> dict:
    spec = dict(spec, result=str(tmp / f"{name}.result.json"))
    spec_path = tmp / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the worker")
    subprocess.run(
        [sys.executable, str(WORKER), mode, str(spec_path)],
        env=worker_env(),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        timeout=timeout,
        check=True,
    )
    return json.loads(Path(spec["result"]).read_text())


def source_digest() -> str:
    """Digest of the package sources: identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # git would search the parent directories
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def failure_accounting(passes: list) -> dict:
    """attempted, failed and correct over every job of every pass.

    A job fails when it raised or a check found a problem.  `correct` is
    false when any job failed that had passed at the commit the reference
    was captured; failures recorded there (known defects) are counted in
    `failed` but do not make the run incorrect.
    """
    outcomes = [o for p in passes for o in p["outcomes"]]
    failed = [o for o in outcomes if o["problems"]]
    unexpected = [o for o in failed if not o["known"]]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "correct": not unexpected,
        "unexpected": unexpected,
        "failed_keys": sorted({o["key"] for o in failed}),
    }


def per_job(passes: list, traced: bool = False, key: str = "latencies") -> np.ndarray:
    """Each job's median time over the (un)traced passes of a run.

    `latencies` are at the speed probe's reference core speed (speed.py);
    `raw_latencies` are wall seconds.
    """
    return np.median([p[key] for p in passes if p["traced"] == traced], axis=0)


def end_to_end(passes: list, setup_s: list, peak_rss_mb: float, acct: dict) -> dict:
    times = per_job(passes)
    return {
        "wall_s": (float(times.sum()), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - acct["failed"] / acct["attempted"], "ratio"),
        "job_p50_s": (float(np.percentile(times, 50)), "s"),
        "job_p95_s": (float(np.percentile(times, 95)), "s"),
    }


DIAGNOSTICS = {
    "dynamics.oracle_dev_max": "oracle_dev",
    "dynamics.p0_dev_max": "p0_dev",
    "markovian.expm_dev_max": "expm_dev",
}


def per_layer(measured: dict) -> dict:
    out = {k: tuple(v) for k, v in measured["layers"].items()}
    for name, key in DIAGNOSTICS.items():
        out[name] = (measured["diagnostics"].get(key, 0.0), "prob")
    passes = measured["passes"]
    overhead = per_job(passes, traced=True).sum() - per_job(passes).sum()
    out["trace.overhead_s"] = (float(overhead), "s")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "friedrichs" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'friedrichs'}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        spec = {
            "root": str(ROOT),
            "tmp": str(tmp),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "inputs": make_inputs(args.workload, args.seed),
        }
        setup_runs = [
            run_worker("setup", spec, tmp, f"setup{i}", deadline)
            for i in range(SETUP_REPEATS + 1)
        ][1:]
        setups = [r["setup_s"] for r in setup_runs]
        measured = run_worker("measure", spec, tmp, "measure", deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    passes = measured["passes"]
    acct = failure_accounting(passes)
    if args.trace:
        metrics = per_layer(measured)
    else:
        metrics = end_to_end(passes, setups, measured["peak_rss_mb"], acct)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": generator.HELD_OUT_SEED,
        "trace": args.trace,
        "env": dict(
            measured["env"],
            nproc=os.cpu_count(),
            commit=git_commit(),
            src_digest=source_digest(),
            threads={var: "1" for var in THREAD_VARS},
        ),
        "samples": {
            "passes": sum(not p["traced"] for p in passes),
            "traced_passes": sum(p["traced"] for p in passes),
            "jobs_per_pass": len(passes[0]["outcomes"]),
            "pass_walls_s": [round(p["wall_s"], 4) for p in passes],
            "raw_wall_s": round(float(per_job(passes, key="raw_latencies").sum()), 4),
            "setup_repeats": len(setups),
            "raw_setup_s": round(statistics.median(r["raw_setup_s"] for r in setup_runs), 4),
        },
        "failed_keys": acct["failed_keys"],
        "unexpected_failures": acct["unexpected"][:20],
    }
    print(json.dumps(context))
    print(
        json.dumps(
            {
                "correct": acct["correct"],
                "attempted": acct["attempted"],
                "failed": acct["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
