"""Benchmark worker: runs in a fresh interpreter started by run.py.

    python3 perfbench/worker.py setup   SPEC.json
    python3 perfbench/worker.py measure SPEC.json

`setup` times ``import friedrichs`` plus building the workload's input
models.  `measure` runs untimed warm-up, then timed passes over the
workload's jobs until the next pass would overrun the time budget (at least
one pass); with tracing it alternates untraced and traced passes.  Both
time under the core-speed probe (speed.py).  Results go to the JSON file
named in the spec.
"""
from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

import speed


def _import_package(root: Path) -> None:
    """Import friedrichs from the checkout's src/."""
    import friedrichs
    import friedrichs.cli  # noqa: F401  (the CLI is part of every workload)

    src = (root / "src").resolve()
    if src not in Path(friedrichs.__file__).resolve().parents:
        raise RuntimeError(f"friedrichs imported from {friedrichs.__file__}, not from {src}")


def run_setup(spec: dict) -> dict:
    """Times ``import friedrichs`` plus building the workload's models.

    `setup_s` is at the speed probe's reference core speed, `raw_setup_s`
    in wall seconds.
    """
    probe = speed.SpeedProbe()
    with probe:
        t0 = probe.clock()
        _import_package(Path(spec["root"]))
        t1 = probe.clock()
        import jobs  # the benchmark's own code: not set-up

        t2 = probe.clock()
        models = jobs.WORKLOADS[spec["workload"]].setup_models(spec["inputs"])
        t3 = probe.clock()
    return {
        "setup_s": probe.reference_time(t0, t1) + probe.reference_time(t2, t3),
        "raw_setup_s": probe.work_time(t0, t1) + probe.work_time(t2, t3),
        "models": len(models),
    }


def run_pass(job_list: list, probe) -> dict:
    """Run every job once; the timed region holds only the package calls.

    `latencies` are at the probe's reference speed, `raw_latencies` are
    wall seconds; both leave out the probes' own time.
    """
    results, windows = [], []
    with probe:
        start = probe.clock()
        for job in job_list:
            t0 = probe.clock()
            try:
                results.append((True, job.call()))
            except Exception as exc:  # a raised job is a failed job, never a crash
                results.append((False, f"raised {type(exc).__name__}: {exc}"))
            windows.append((t0, probe.clock()))
        end = probe.clock()
    latencies = [probe.reference_time(t0, t1) for t0, t1 in windows]
    raw = [probe.work_time(t0, t1) for t0, t1 in windows]
    outcomes = []
    for job, (ok, value) in zip(job_list, results):
        if ok:
            try:
                problems = job.check(value)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [value]
        outcomes.append({"key": job.key, "problems": problems, "known": job.known_failure})
    return {
        "wall_s": probe.work_time(start, end),
        "latencies": latencies,
        "raw_latencies": raw,
        "outcomes": outcomes,
    }


def run_measure(spec: dict) -> dict:
    root = Path(spec["root"])
    _import_package(root)
    import jobs
    import spans

    workload = jobs.WORKLOADS[spec["workload"]]
    tmp = Path(spec["tmp"])
    job_list = workload.jobs(tmp, spec["inputs"])
    workload.warmup(tmp, spec["inputs"])

    probe = speed.SpeedProbe()
    tracer = spans.Tracer(clock=probe.work_clock) if spec["trace"] else None
    budget = float(spec["seconds"])
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()  # garbage left by the previous pass is not this pass's cost
        installed = spans.install(tracer) if traced else []
        try:
            record = run_pass(job_list, probe)
        finally:
            spans.uninstall(installed)
        record["traced"] = traced
        passes.append(record)
        elapsed = time.perf_counter() - start
        longest = max(p["wall_s"] for p in passes)
        needed = 2 if tracer is not None else 1
        if len(passes) >= needed and elapsed + longest > budget:
            break

    diagnostics: dict = {}
    for job in job_list:
        for name, value in job.diagnostics.items():
            diagnostics[name] = max(diagnostics.get(name, 0.0), value)
    out = {
        "passes": passes,
        "diagnostics": diagnostics,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        n_traced = sum(p["traced"] for p in passes)
        out["layers"] = {k: list(v) for k, v in spans.layer_metrics(tracer, n_traced).items()}
    return out


def environment() -> dict:
    import platform

    import friedrichs
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "friedrichs": friedrichs.__version__,
    }


MODES = {"setup": run_setup, "measure": run_measure}


def main(argv: list) -> int:
    mode, spec_path = argv
    spec = json.loads(Path(spec_path).read_text())
    result = MODES[mode](spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
