"""The fixed baseline cases, each under its own budget.

These are the rows of the baseline table in ROADMAP.md: spanning trees of
K5 (10 edges, 125 members) and the rank-3 uniform matroid on 24 elements.
They stay out of the timed workloads because several of them do not
finish at the seed: a case over its budget is reported as a timeout, never
dropped.  Each case runs once untraced for its time and answer, and once
more traced (if it finished) for its query counts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import divsparse.cli as cli
from divsparse.core import GuardError

from checker import check_job
from tracing import Tracer
from workloads import Job

K5 = "domain spanning_tree\ngraph undirected 5 10\n" + "".join(
    f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5)
)
U24 = "domain uniform_matroid rank=3\nuniverse 24\n"

#: (case, instance text, CLI arguments, budget in seconds); the budgets are
#: the observation windows of the baseline table
ANCHORS = [
    ("k5-maxmin-k3-d4-limited", K5, ("solve", "--problem", "maxmin", "--k", "3", "--d", "4"), 60.0),
    ("k5-kcenter-k2-d2-small", K5,
     ("solve", "--problem", "kcenter", "--k", "2", "--d", "2", "--mode", "small"), 60.0),
    ("k5-kcenter-k2-d2-limited", K5, ("solve", "--problem", "kcenter", "--k", "2", "--d", "2"), 150.0),
    ("u24-sparsify-k2-small", U24, ("sparsify", "--k", "2", "--d", "1", "--mode", "small"), 120.0),
]


def run_anchor(run_job, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for case, text, args, budget in ANCHORS:
        path = out_dir / f"anchor-{case}.txt"
        path.write_text(text, encoding="utf-8")
        argv = [*args, "--instance", str(path)]
        outcome = run_job(cli.run, argv, budget)
        row = {
            "case": case,
            "args": list(args),
            "budget_s": budget,
            "status": outcome.status,
            "seconds": outcome.seconds,
            "answer": outcome.stdout.split("\n", 1)[0],
        }
        if outcome.status == "ok":
            try:
                row["check"] = check_job(Job(case, case, text, args), outcome.stdout).problem or "ok"
            except GuardError as exc:
                row["check"] = f"unchecked: {exc}"
            tracer = Tracer()
            tracer.install()
            try:
                run_job(lambda a: tracer.run_job(0, cli.run, a), argv, budget)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics()
            row["extension_queries"] = (
                layers["domains.extend.calls"] + layers["domains.empty_extend.calls"]
            )
            row["cluster_evals"] = layers["solvers.cluster.evals"]
            row["sparsifier_members"] = layers["sunflower.members"]
        path.unlink()
        rows.append(row)
        print(json.dumps(row), file=sys.stderr, flush=True)
    (out_dir / "anchor.json").write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"anchor": rows}))
    return 0
