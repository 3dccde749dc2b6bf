"""Per-layer tracing installed from outside the package.

Nothing under ``src/`` knows about it.  While a :class:`Tracer` is
installed:

* the CLI's entry points (``solve``, ``k_sparsify``, ``dk_sparsify``) get
  their domain oracle wrapped in a :class:`TracingOracle`, which counts
  and times every capability call by outcome;
* the public layer functions are re-bound where their callers look them
  up (``divsparse.limited.k_sparsify``, ``divsparse.solvers.min_cluster_radius``
  and so on) to record a span around each call;
* ``SubsetMask`` and ``ExtensionQuery`` validation is wrapped to count
  constructions.

Layer calls become spans (name, start, end, parent, job).  Oracle calls
are too many to keep one by one, so they are aggregated per capability
and outcome and charged to the innermost open span as child time, which
is what a span's self time subtracts.  Spans stay in memory until
:meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import divsparse.cli as cli_mod
import divsparse.limited as limited_mod
import divsparse.solvers as solvers_mod
from divsparse.core import DomainOracle, ExtensionQuery, Found, NotFound, SubsetMask

_now = time.perf_counter

SOLVE = "solvers.solve"
SUNFLOWER = "sunflower"
DK_SPARSIFY = "limited.dk_sparsify"
FARSET = "limited.farset"
CLUSTER = "solvers.cluster"
PARSE = "instances.parse"
JOB = "cli"
BUILDERS = (SUNFLOWER, DK_SPARSIFY)


class Span:
    __slots__ = ("id", "parent", "name", "job", "start", "end", "child_s", "queries", "found", "opts")

    def __init__(self, sid: int, parent: "Span | None", name: str, job: int) -> None:
        self.id = sid
        self.parent = parent
        self.name = name
        self.job = job
        self.start = _now()
        self.end = self.start
        self.child_s = 0.0  # time covered by child spans and oracle calls
        self.queries = 0  # extension calls made directly inside this span
        self.found = 0
        self.opts = 0  # +-1 optimization calls made directly inside this span

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    def record(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent.id if self.parent else None,
            "name": self.name,
            "job": self.job,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
        }


class TracingOracle(DomainOracle):
    """Pass-through oracle that reports every capability call to a tracer."""

    def __init__(self, inner: DomainOracle, tracer: "Tracer") -> None:
        self._inner = inner
        self._tracer = tracer

    @property
    def universe_size(self) -> int:
        return self._inner.universe_size

    @property
    def complement_closed(self) -> bool:
        return self._inner.complement_closed

    def opt_pm1(self, weights):
        start = _now()
        out = self._inner.opt_pm1(weights)
        self._tracer.oracle_call("opt", None, _now() - start)
        return out

    def exact_extend(self, query, ctx=None):
        start = _now()
        out = self._inner.exact_extend(query, ctx)
        self._tracer.oracle_call("extend", out, _now() - start)
        return out

    def exact_empty_extend(self, r, forbidden, ctx=None):
        start = _now()
        out = self._inner.exact_empty_extend(r, forbidden, ctx)
        self._tracer.oracle_call("empty_extend", out, _now() - start)
        return out


def _outcome(out) -> str:
    if isinstance(out, Found):
        return "found"
    if isinstance(out, NotFound):
        return "not_found"
    return "trivial"


class _Rebinder:
    """Replaces module or class attributes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class SparsifierSizes(_Rebinder):
    """Records |K| of the sparsifier each job's output is built from.

    Only the builder entry points are re-bound (the CLI's own calls and
    the solvers' builders), so nested per-center constructions inside the
    limited pipeline are not counted twice.
    """

    def __init__(self) -> None:
        super().__init__()
        self.sizes: list[int] = []

    def install(self) -> None:
        for owner in (cli_mod, solvers_mod):
            for attr in ("k_sparsify", "dk_sparsify"):
                self._rebind(owner, attr, self._probe(getattr(owner, attr)))

    def _probe(self, build):
        def probed(*args, **kwargs):
            report = build(*args, **kwargs)
            self.sizes.append(len(report.family))
            return report

        return probed


class Tracer(_Rebinder):
    """Spans, counters and the re-bindings that feed them."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[Span] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, self.job)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _now()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.seconds

    def oracle_call(self, capability: str, out, seconds: float) -> None:
        c = self.counts
        prefix = "domains." + capability
        c[prefix + ".calls"] += 1
        c[prefix + ".s"] += seconds
        if capability != "opt":
            outcome = _outcome(out)
            c[f"{prefix}.{outcome}"] += 1
            if outcome == "not_found":
                c[prefix + ".not_found_s"] += seconds
        if self._stack:
            top = self._stack[-1]
            top.child_s += seconds
            if capability == "opt":
                top.opts += 1
            else:
                top.queries += 1
                top.found += isinstance(out, Found)

    def _spanned(self, name: str, fn, on_result=None, wrap_oracle_at=None):
        tracer = self

        def traced(*args, **kwargs):
            if wrap_oracle_at is not None:
                args = list(args)
                args[wrap_oracle_at] = TracingOracle(args[wrap_oracle_at], tracer)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _sunflower_done(self, report) -> None:
        c = self.counts
        c["sunflower.runs"] += 1
        c["sunflower.passes"] += report.passes
        c["sunflower.members"] += len(report.family)
        c["sunflower.queries"] += report.calls_extend

    def _limited_done(self, report) -> None:
        self.counts["limited.scattered"] += report.scattered
        self.counts["limited.shortcut"] += report.shortcut

    def _farset_done(self, result) -> None:
        self.counts["limited.farset.centers"] += len(result.family)

    def run_job(self, index: int, run, argv):
        """Run one CLI call as a job span."""
        self.job = index
        span = self.open(JOB)
        try:
            return run(argv)
        finally:
            self.close(span)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        # the CLI entry points hand the instance's oracle to the library:
        # that is where the domain layer gets wrapped, once per job
        self._rebind(cli_mod, "parse_instance", self._spanned(PARSE, cli_mod.parse_instance))
        self._rebind(cli_mod, "solve", self._spanned(SOLVE, cli_mod.solve, wrap_oracle_at=0))
        self._rebind(cli_mod, "k_sparsify", self._spanned(
            SUNFLOWER, cli_mod.k_sparsify, self._sunflower_done, wrap_oracle_at=1))
        self._rebind(cli_mod, "dk_sparsify", self._spanned(
            DK_SPARSIFY, cli_mod.dk_sparsify, self._limited_done, wrap_oracle_at=0))
        for owner in (solvers_mod, limited_mod):
            self._rebind(owner, "k_sparsify", self._spanned(
                SUNFLOWER, owner.k_sparsify, self._sunflower_done))
        self._rebind(solvers_mod, "dk_sparsify", self._spanned(
            DK_SPARSIFY, solvers_mod.dk_sparsify, self._limited_done))
        self._rebind(limited_mod, "cluster_or_trivial", self._spanned(
            FARSET, limited_mod.cluster_or_trivial, self._farset_done))
        self._rebind(solvers_mod, "min_cluster_radius", self._spanned(
            CLUSTER, solvers_mod.min_cluster_radius))
        for cls, key in ((SubsetMask, "core.subset_masks"), (ExtensionQuery, "core.extension_queries")):
            self._rebind(cls, "__post_init__", self._counted(cls.__post_init__, key))

    def _counted(self, validate, key: str):
        counts = self.counts

        def counted(obj) -> None:
            counts[key] += 1
            validate(obj)

        return counted

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals; names match ``per_layer`` in BENCHMARK.json."""
        c = self.counts
        by_name: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            by_name[span.name].append(span)

        def total(name: str, attr: str = "seconds") -> float:
            return sum(getattr(s, attr) for s in by_name[name])

        cluster = by_name[CLUSTER]
        cluster_queries = sum(s.queries for s in cluster)
        searches = sum(
            s.seconds for s in by_name[SOLVE]
        ) - sum(
            s.seconds for name in BUILDERS for s in by_name[name]
            if s.parent is not None and s.parent.name == SOLVE
        )
        ext_calls = c["domains.extend.calls"] + c["domains.empty_extend.calls"]
        found = c["domains.extend.found"] + c["domains.empty_extend.found"]
        out = {
            f"domains.{cap}.{field}": c[f"domains.{cap}.{field}"]
            for cap in ("empty_extend", "extend")
            for field in ("calls", "found", "not_found", "s", "not_found_s")
        }
        out.update({
            "domains.extend.trivial": c["domains.extend.trivial"],
            "domains.opt.calls": c["domains.opt.calls"],
            "domains.opt.s": c["domains.opt.s"],
            "domains.found_ratio": found / ext_calls if ext_calls else 0.0,
            "sunflower.runs": c["sunflower.runs"],
            "sunflower.s": total(SUNFLOWER),
            "sunflower.self_s": total(SUNFLOWER, "self_s"),
            "sunflower.passes": c["sunflower.passes"],
            "sunflower.members": c["sunflower.members"],
            "sunflower.queries_per_member": (
                c["sunflower.queries"] / c["sunflower.members"] if c["sunflower.members"] else 0.0
            ),
            "limited.farset.s": total(FARSET),
            # each far-set trial is one +-1 optimization call
            "limited.farset.trials": total(FARSET, "opts"),
            "limited.farset.centers": c["limited.farset.centers"],
            "limited.scattered": c["limited.scattered"],
            "limited.shortcut": c["limited.shortcut"],
            "solvers.cluster.evals": len(cluster),
            "solvers.cluster.s": total(CLUSTER),
            "solvers.cluster.self_s": total(CLUSTER, "self_s"),
            "solvers.cluster.queries": cluster_queries,
            "solvers.cluster.hit_ratio": (
                sum(s.found for s in cluster) / cluster_queries if cluster_queries else 0.0
            ),
            "solvers.search.s": searches,
            "core.subset_masks": c["core.subset_masks"],
            "core.extension_queries": c["core.extension_queries"],
            "instances.parse_s": total(PARSE),
            "cli.s": total(JOB),
        })
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.record()) + "\n")
