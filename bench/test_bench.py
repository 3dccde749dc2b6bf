"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def _first_jobs(per_workload: int):
    for workload in sorted(WORKLOADS):
        yield from make_jobs(workload, 3)[:per_workload]


def test_same_seed_gives_byte_identical_jobs():
    for workload in WORKLOADS:
        assert make_jobs(workload, 11) == make_jobs(workload, 11)
        texts = [job.text for job in make_jobs(workload, 11)]
        assert texts != [job.text for job in make_jobs(workload, 12)]


def test_traced_and_untraced_stdout_are_identical(alarm, tmp_path):
    import divsparse.cli as cli
    from tracing import Tracer

    jobs = list(_first_jobs(10))
    argvs = run.write_instances(jobs, tmp_path)
    original_solve = cli.solve
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run.run_job(lambda a: tracer.run_job(0, cli.run, a), argv, 20.0) for argv in argvs]
    finally:
        tracer.uninstall()
    plain = [run.run_job(cli.run, argv, 20.0) for argv in argvs]
    assert cli.solve is original_solve
    assert all(o.status == "ok" for o in plain + traced)
    assert [o.stdout for o in traced] == [o.stdout for o in plain]
    layers = tracer.layer_metrics()
    assert layers["sunflower.runs"] > 0 and layers["solvers.cluster.evals"] > 0
    assert layers["domains.extend.calls"] + layers["domains.empty_extend.calls"] > 0


def _corruptions(stdout: str) -> list[str]:
    """Deliberately wrong variants of a correct stdout."""
    lines = stdout.splitlines()
    out = []
    if lines[0] in ("YES", "NO"):
        out.append("\n".join(["NO" if lines[0] == "YES" else "YES"] + lines[1:]) + "\n")
        if lines[0] == "YES":
            # move the first witness to a set that cannot be a member
            out.append("\n".join([lines[0], "set:"] + lines[2:]) + "\n")
    else:
        size = int(lines[0].split()[1])
        # drop one member of the sparsifier
        out.append("\n".join([f"size: {size - 1}"] + lines[2:]) + "\n")
    return out


def test_wrong_answers_are_reported(alarm, tmp_path):
    import divsparse.cli as cli
    from checker import check_job

    jobs = list(_first_jobs(6))
    argvs = run.write_instances(jobs, tmp_path)
    sparsifiers_caught = 0
    for job, argv in zip(jobs, argvs):
        outcome = run.run_job(cli.run, argv, 20.0)
        assert check_job(job, outcome.stdout).problem is None, job.id
        for wrong in _corruptions(outcome.stdout):
            problem = check_job(job, wrong).problem
            if job.args[0] == "solve":
                assert problem is not None, (job.id, wrong)
            else:
                # dropping a member can leave a valid, smaller sparsifier
                sparsifiers_caught += problem is not None
    assert sparsifiers_caught > 0


def test_run_prints_the_contract_line():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cluster", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
