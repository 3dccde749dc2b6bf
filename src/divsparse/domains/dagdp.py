"""Label sets of longest paths in a labeled DAG.

Vertices carry ground-set labels such that no directed path visits two
vertices with the same label; the domain consists of the label sets of all
maximum-vertex-count paths.  This encodes dynamic-programming solution
spaces; interval scheduling, for instance, maps intervals to vertices with
an arc whenever one interval ends before the other starts.

Optimization keeps, per vertex, the best label-weight sum over longest
paths ending there.  The exact extension adds two counters to the table:
labels from the forced set and labels outside the center.  Ties resolve
to the lowest-index terminal vertex and predecessors.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import (
    DomainOracle,
    ExtensionOutcome,
    ExtensionQuery,
    Found,
    GuardError,
    NOT_FOUND,
    OracleContext,
    WeightVector,
    _check_universe_size,
)
from .graphs import GraphData

#: Longest paths are enumerated for the membership predicate; cap the count.
PATH_ENUMERATION_GUARD = 1_000_000


def _topological_order(graph: GraphData) -> list[int]:
    indeg = [0] * graph.n_vertices
    for _, v in graph.edges:
        indeg[v] += 1
    order = [v for v in range(graph.n_vertices) if indeg[v] == 0]
    qi = 0
    adj = [[] for _ in range(graph.n_vertices)]
    for u, v in graph.edges:
        adj[u].append(v)
    while qi < len(order):
        u = order[qi]
        qi += 1
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) != graph.n_vertices:
        raise ValueError("graph has a directed cycle")
    return order


@dataclass(frozen=True)
class DagDpInstance:
    """A DAG plus a vertex labeling into the ground set.

    Rejects cyclic graphs and labelings where some path repeats a label
    (checked through pairwise reachability of equal-labeled vertices).
    """

    dag: GraphData
    labels: tuple[int, ...]
    universe_size: int

    def __post_init__(self) -> None:
        if not self.dag.directed:
            raise ValueError("the DP domain needs a directed graph")
        _check_universe_size(self.universe_size)
        if len(self.labels) != self.dag.n_vertices:
            raise ValueError("need one label per vertex")
        for q in self.labels:
            if not 0 <= q < self.universe_size:
                raise ValueError(f"label {q} out of range")
        order = _topological_order(self.dag)  # also rejects cycles
        # reachability closure; a path through equal labels is forbidden
        reach = [0] * self.dag.n_vertices
        adj = [[] for _ in range(self.dag.n_vertices)]
        for u, v in self.dag.edges:
            adj[u].append(v)
        for u in reversed(order):
            bits = 0
            for v in adj[u]:
                bits |= (1 << v) | reach[v]
            reach[u] = bits
        for u in range(self.dag.n_vertices):
            for v in range(self.dag.n_vertices):
                if u != v and self.labels[u] == self.labels[v] and reach[u] >> v & 1:
                    raise ValueError(
                        f"label {self.labels[u]} repeats along a path "
                        f"({u} reaches {v})"
                    )


class DagDpOracle(DomainOracle):
    def __init__(self, instance: DagDpInstance) -> None:
        self._inst = instance
        g = instance.dag
        self._order = _topological_order(g)
        self._preds: list[list[int]] = [[] for _ in range(g.n_vertices)]
        for u, v in g.edges:
            self._preds[v].append(u)
        for lst in self._preds:
            lst.sort()
        self._len_end = [1] * g.n_vertices
        for v in self._order:
            for u in self._preds[v]:
                self._len_end[v] = max(self._len_end[v], self._len_end[u] + 1)
        self._longest = max(self._len_end) if g.n_vertices else 0
        self._member_cache: frozenset[int] | None = None

    @property
    def universe_size(self) -> int:
        return self._inst.universe_size

    @property
    def path_length(self) -> int:
        return self._longest

    def member_bits(self) -> frozenset[int]:
        """All label sets of longest paths, by path enumeration."""
        if self._member_cache is not None:
            return self._member_cache
        g = self._inst.dag
        labels = self._inst.labels
        len_from = [1] * g.n_vertices
        adj: list[list[int]] = [[] for _ in range(g.n_vertices)]
        for u, v in g.edges:
            adj[u].append(v)
        for u in reversed(self._order):
            for v in adj[u]:
                len_from[u] = max(len_from[u], len_from[v] + 1)
        out: set[int] = set()
        budget = PATH_ENUMERATION_GUARD

        def walk(v: int, depth: int, labels_bits: int) -> None:
            nonlocal budget
            budget -= 1
            if budget < 0:
                raise GuardError("longest-path enumeration over the guard")
            if depth == self._longest:
                out.add(labels_bits)
                return
            for u in sorted(adj[v]):
                if self._len_end[u] == depth + 1 and len_from[u] == self._longest - depth:
                    walk(u, depth + 1, labels_bits | (1 << labels[u]))

        for v in range(g.n_vertices):
            if self._len_end[v] == 1 and len_from[v] == self._longest:
                walk(v, 1, 1 << labels[v])
        self._member_cache = frozenset(out)
        return self._member_cache

    def is_member_bits(self, bits: int) -> bool:
        return bits in self.member_bits()

    def opt_pm1(self, weights: WeightVector) -> int | None:
        g = self._inst.dag
        if g.n_vertices == 0:
            return None
        labels = self._inst.labels
        best: list[int] = [0] * g.n_vertices
        for v in self._order:
            w = weights.weights[labels[v]]
            cand = None
            for u in self._preds[v]:
                if self._len_end[u] == self._len_end[v] - 1:
                    if cand is None or best[u] > cand:
                        cand = best[u]
            best[v] = w if cand is None else cand + w
        # reconstruct from the best terminal of a longest path
        target = None
        end = -1
        for v in range(g.n_vertices):
            if self._len_end[v] == self._longest and (
                target is None or best[v] > target
            ):
                target = best[v]
                end = v
        bits = 0
        v = end
        while True:
            bits |= 1 << labels[v]
            if self._len_end[v] == 1:
                break
            for u in self._preds[v]:
                if (
                    self._len_end[u] == self._len_end[v] - 1
                    and best[u] == best[v] - weights.weights[labels[v]]
                ):
                    v = u
                    break
            else:
                raise AssertionError("longest-path reconstruction failed")
        return bits

    def exact_extend(
        self, query: ExtensionQuery, ctx: OracleContext | None = None
    ) -> ExtensionOutcome:
        g = self._inst.dag
        if g.n_vertices == 0:
            return NOT_FOUND
        labels = self._inst.labels
        c = query.center
        x = query.forced
        y = query.forbidden
        L = self._longest
        # |D| = L for every member; |D ^ C| = r pins |D \ C|
        doubled = query.radius - c.bit_count() + L
        if doubled % 2 or doubled < 0:
            return NOT_FOUND
        outside = doubled // 2
        nx = x.bit_count()
        if outside > L or outside > query.radius:
            return NOT_FOUND

        # table[v][a][b]: label bits of some longest path ending at v with a
        # forced labels and b labels outside the center, else None
        table: list[list[list[int | None]]] = [
            [[None] * (L + 1) for _ in range(nx + 1)] for _ in range(g.n_vertices)
        ]
        for v in self._order:
            q = labels[v]
            if y >> q & 1:
                continue
            da = 1 if x >> q & 1 else 0
            db = 0 if c >> q & 1 else 1
            if self._len_end[v] == 1:
                if da <= nx and db <= L:
                    table[v][da][db] = 1 << q
                continue
            for u in self._preds[v]:
                if self._len_end[u] != self._len_end[v] - 1:
                    continue
                tu = table[u]
                for a in range(nx - da + 1):
                    for b in range(L - db + 1):
                        got = tu[a][b]
                        if got is not None and table[v][a + da][b + db] is None:
                            table[v][a + da][b + db] = got | (1 << q)
        for v in range(g.n_vertices):
            if self._len_end[v] != L:
                continue
            got = table[v][nx][outside] if outside <= L else None
            if got is not None:
                assert query.admits_bits(got)
                return Found(got)
        return NOT_FOUND
