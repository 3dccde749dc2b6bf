#!/usr/bin/env python3
"""Benchmark for divsparse: seeded job mixes through the CLI path.

    python3 bench/run.py --workload {small,limited,cluster} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --anchor

Each job is one ``divsparse.cli.run(argv)`` call on a generated instance
file, run in this process with stdout captured.  The load is a closed
loop from one client: jobs run one after another on one thread.

A run goes through these phases:

1. set-up, timed ``SETUP_REPS`` times (median reported): import the
   package and parse every instance of the workload, building its oracle;
2. with ``--trace 0``, the timed loop: jobs cycle through the list until
   ``--seconds`` have passed and every job ran at least once.  A job's first run is its reference; every
   later run must reproduce its stdout byte for byte.  With ``--trace 1``,
   one untraced pass over the list and then one traced pass, whose stdout
   must match the untraced one and whose spans give the per-layer metrics;
3. the correctness gate (brute force, see ``checker.py``) on the
   reference outputs, untimed.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end ones untraced, per-layer ones
traced).  Digests of every job's stdout, and with ``--trace 1`` the spans,
are written under ``.bench_work/out/`` so that outputs can be compared
byte for byte across commits.

``--anchor`` instead runs the fixed baseline cases (K5 spanning trees, a
24-element uniform matroid) one by one under per-case budgets and prints
their times, answers and query counts; a case over its budget is reported
as a timeout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibration import REFERENCE_S, calibrate
from workloads import WORKLOADS, Job, make_jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: set-up takes ~50 ms; repetitions spread over about a second let the
#: median ride out short bursts of interference on a shared host
SETUP_REPS = 21
#: per-job wall-time budget; the slowest seeded job takes about 2 s
JOB_BUDGET_S = 20.0
#: start no job this long after a pass or the timed loop began, so that
#: a pathologically slow build still ends within the run's time limit
PASS_CAP_S = 50.0
LOOP_CAP_S = 100.0

_now = time.perf_counter


class JobTimeout(Exception):
    """The job ran past its budget."""


def _on_alarm(signum, frame):
    raise JobTimeout


@dataclass
class Outcome:
    status: str  # "ok" | "error" | "timeout" | "not_run"
    seconds: float = 0.0
    stdout: str = ""
    detail: str = ""
    sizes: list[int] = field(default_factory=list)


def run_job(call, argv: list[str], budget: float) -> Outcome:
    """One CLI call with captured output under a wall-clock budget."""
    out, err = io.StringIO(), io.StringIO()
    status, detail = "ok", ""
    start = _now()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = call(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if code != 0:
            status, detail = "error", f"exit {code}: {err.getvalue().strip()}"
    except JobTimeout:
        status, detail = "timeout", f"over the {budget:g} s budget"
    except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    return Outcome(status, _now() - start, out.getvalue(), detail)


def measure_setup(texts: list[str]) -> float:
    """Median over ``SETUP_REPS`` of: fresh package import plus parsing
    every instance and building its oracle, scaled to reference speed."""
    times, calibrations = [], []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m.partition(".")[0] == "divsparse"]:
            del sys.modules[name]
        calibrations.append(calibrate())
        start = _now()
        cli = importlib.import_module("divsparse.cli")
        for text in texts:
            cli.parse_instance(text).oracle()
        times.append(_now() - start)
    return statistics.median(times) * REFERENCE_S / statistics.median(calibrations)


def write_instances(jobs: list[Job], directory: Path) -> list[list[str]]:
    """Write each job's instance file; return each job's full argv."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, job in enumerate(jobs):
        path = directory / f"{i:03d}.txt"
        path.write_text(job.text, encoding="utf-8")
        argvs.append([*job.args, "--instance", str(path)])
    return argvs


def timed_loop(cli, argvs, seconds: float):
    """Cycle through the jobs until ``seconds`` have passed and every job
    ran at least once.

    The first run of each job is its reference: the correctness gate
    checks its stdout, every later run must reproduce it byte for byte,
    and it records the size of the sparsifier the answer was built from
    (one wrapper call per job, next to nothing against a job's time).
    Each job is preceded by one calibration (see ``calibration.py``).
    Returns (job index, seconds, status, problem, calibration seconds)
    records, the reference outcomes and the loop's wall time.
    """
    from tracing import SparsifierSizes

    probe = SparsifierSizes()
    reference = [Outcome("not_run", detail="loop cap reached") for _ in argvs]
    records = []
    probe.install()
    start = _now()
    try:
        while True:
            elapsed = _now() - start
            if elapsed >= seconds and len(records) >= len(argvs) or elapsed >= LOOP_CAP_S:
                break
            j = len(records) % len(argvs)
            del probe.sizes[:]
            reference_s = calibrate()
            outcome = run_job(cli.run, argvs[j], JOB_BUDGET_S)
            first = len(records) < len(argvs)
            if first:
                outcome.sizes = list(probe.sizes)
                reference[j] = outcome
            problem = None
            if outcome.status != "ok":
                problem = f"{outcome.status} {outcome.detail}"
            elif not first and outcome.stdout != reference[j].stdout:
                problem = "stdout differs from the job's first run"
            records.append((j, outcome.seconds, outcome.status, problem, reference_s))
    finally:
        probe.uninstall()
    return records, reference, _now() - start


def run_pass(call, argvs) -> tuple[list[Outcome], float]:
    """Every job once through ``call(index, argv)``; jobs not started
    within ``PASS_CAP_S`` are recorded as not run."""
    outcomes = []
    start = _now()
    for i, argv in enumerate(argvs):
        if _now() - start > PASS_CAP_S:
            outcomes.append(Outcome("not_run", detail="pass cap reached"))
        else:
            outcomes.append(run_job(lambda a, i=i: call(i, a), argv, JOB_BUDGET_S))
    return outcomes, _now() - start


def traced_run(cli, argvs):
    """An untraced pass, then a traced one whose stdout must match it.

    Returns the tracer, one record per job as in :func:`timed_loop`, the
    untraced outcomes and both wall times.
    """
    from tracing import Tracer

    reference, reference_wall = run_pass(lambda i, a: cli.run(a), argvs)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall = run_pass(lambda i, a: tracer.run_job(i, cli.run, a), argvs)
    finally:
        tracer.uninstall()
    records = []
    for j, (ref, got) in enumerate(zip(reference, traced)):
        problem = None
        if got.status != "ok":
            problem = f"traced {got.status} {got.detail}"
        elif got.stdout != ref.stdout:
            problem = "traced stdout differs from untraced"
        records.append((j, got.seconds, got.status, problem, None))
    return tracer, records, reference, reference_wall, traced_wall


def gate(jobs: list[Job], reference: list[Outcome]) -> tuple[dict[int, str], int]:
    """Brute-force check of every reference outcome.

    Returns the failing jobs (index -> reason) and the summed domain sizes
    of all checked jobs.
    """
    from checker import check_job

    bad: dict[int, str] = {}
    domains = 0
    for j, (job, outcome) in enumerate(zip(jobs, reference)):
        if outcome.status != "ok":
            bad[j] = f"{outcome.status} {outcome.detail}"
            continue
        verdict = check_job(job, outcome.stdout)
        domains += verdict.domain_size
        if verdict.problem is not None:
            bad[j] = verdict.problem
    return bad, domains


def write_digests(path: Path, jobs: list[Job], reference: list[Outcome]) -> None:
    from checker import answer_digest, stdout_digest

    rows = [{
        "id": job.id,
        "args": list(job.args),
        "status": outcome.status,
        "stdout_sha256": stdout_digest(outcome.stdout),
        "answer_sha256": answer_digest(outcome.stdout),
        "calls": [l for l in outcome.stdout.splitlines() if l.startswith("calls_")],
    } for job, outcome in zip(jobs, reference)]
    path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


def job_times(records) -> dict[int, float]:
    """Each job's median completed run scaled to reference speed, or its
    slowest raw run if it never completed (a timeout then counts at its
    budget, never as fast).

    A run is scaled by the median of the calibrations made before it and
    its two neighbours on either side: one calibration is only a
    millisecond long and jitters on its own.
    """
    calibrations = [r[4] for r in records]
    done: dict[int, list[float]] = {}
    failed: dict[int, float] = {}
    for i, (j, seconds, status, _, _) in enumerate(records):
        if status == "ok":
            local = statistics.median(calibrations[max(0, i - 2):i + 3])
            done.setdefault(j, []).append(seconds * REFERENCE_S / local)
        else:
            failed[j] = max(failed.get(j, seconds), seconds)
    return {**failed, **{j: statistics.median(v) for j, v in done.items()}}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio") or name.endswith("overhead") or name.endswith("per_member"):
        return "ratio"
    return "count"


def run_workload(args) -> int:
    jobs = make_jobs(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    inst_dir = WORK / f"{tag}-{os.getpid()}"
    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        argvs = write_instances(jobs, inst_dir)
        setup_s = measure_setup([job.text for job in jobs])
        import divsparse.cli as cli

        if args.trace:
            tracer, records, reference, reference_wall, traced_wall = traced_run(cli, argvs)
        else:
            records, reference, wall = timed_loop(cli, argvs, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(inst_dir, ignore_errors=True)

    bad, domains = gate(jobs, reference)
    write_digests(out_dir / f"{tag}-digests.json", jobs, reference)
    (out_dir / f"{tag}-jobs.json").write_text(json.dumps(
        [[jobs[j].id, seconds, status, reference_s]
         for j, seconds, status, _, reference_s in records]) + "\n")
    failures = [
        f"{jobs[j].id}: {problem or bad[j]}"
        for j, _, _, problem, _ in records
        if problem or j in bad
    ]
    failures += [f"{jobs[j].id}: {reason} (first run)" for j, reason in bad.items()]
    attempted = len(records)
    failed = sum(1 for j, _, _, problem, _ in records if problem or j in bad)

    if args.trace:
        metrics = {
            name: _metric(value, _layer_unit(name))
            for name, value in tracer.layer_metrics().items()
        }
        metrics["trace.overhead"] = _metric(traced_wall / reference_wall, "ratio")
        tracer.write_spans(out_dir / f"{tag}-spans.jsonl")
    else:
        times = list(job_times(records).values())
        sizes = sum(sum(outcome.sizes) for outcome in reference)
        metrics = {
            "jobs_per_s": _metric(len(times) / sum(times), "1/s"),
            "job_p50_s": _metric(statistics.median(times), "s"),
            "job_p75_s": _metric(statistics.quantiles(times, n=4)[2], "s"),
            "setup_s": _metric(setup_s, "s"),
            "ok_frac": _metric(1.0 - failed / attempted, "ratio"),
            "compression": _metric(sizes / domains if domains else 1.0, "ratio"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }

    for line in dict.fromkeys(failures):
        print(f"FAIL {line}", file=sys.stderr)
    print(f"{tag}: {len(jobs)} distinct jobs, {attempted} attempted, "
          f"{failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--anchor", action="store_true", help="run the baseline cases")
    args = parser.parse_args(argv)
    if not (SRC / "divsparse" / "__init__.py").is_file():
        print(f"error: no divsparse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.anchor:
        from anchor import run_anchor

        return run_anchor(run_job, WORK / "out")
    if args.workload is None:
        parser.error("--workload is required unless --anchor is given")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
