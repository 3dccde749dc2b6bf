"""Label sets of longest paths in a labeled DAG.

Vertices carry ground-set labels such that no directed path visits two
vertices with the same label; the domain consists of the label sets of all
maximum-vertex-count paths.  This encodes dynamic-programming solution
spaces; interval scheduling, for instance, maps intervals to vertices with
an arc whenever one interval ends before the other starts.

The oracle is built straight from the DAG and its labeling.  It checks
them once and keeps what every capability reads: the successor and
predecessor lists (both in index order), one topological order and the
length of the longest path ending at each vertex.  Optimization keeps, per
vertex, the best label-weight sum over longest paths ending there.  The
exact extension adds two counters to the table: labels from the forced
set and labels outside the center.  Ties resolve to the lowest-index
terminal vertex and predecessors.
"""

from __future__ import annotations

from ..core import (
    DomainOracle,
    ExtensionOutcome,
    ExtensionQuery,
    Found,
    GuardError,
    NOT_FOUND,
    OracleContext,
    SoundnessError,
    _check_universe_size,
)
from .graphs import GraphData

#: Longest paths are enumerated for the membership predicate; cap the count.
PATH_ENUMERATION_GUARD = 1_000_000


def _topological_order(succs: list[list[int]], preds: list[list[int]]) -> list[int]:
    indeg = [len(p) for p in preds]
    order = [v for v in range(len(preds)) if indeg[v] == 0]
    for u in order:  # grows while it is walked
        for v in succs[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) != len(preds):
        raise ValueError("graph has a directed cycle")
    return order


class DagDpOracle(DomainOracle):
    """The label sets of the longest paths of ``dag``, whose vertex v
    carries the ground-set element ``labels[v]``.

    Rejects undirected and cyclic graphs and labelings where some path
    repeats a label (checked through pairwise reachability of
    equal-labeled vertices).
    """

    def __init__(
        self, dag: GraphData, labels: tuple[int, ...], universe_size: int
    ) -> None:
        if not dag.directed:
            raise ValueError("the DP domain needs a directed graph")
        _check_universe_size(universe_size)
        if len(labels) != dag.n_vertices:
            raise ValueError("need one label per vertex")
        for q in labels:
            if not 0 <= q < universe_size:
                raise ValueError(f"label {q} out of range")
        n = dag.n_vertices
        self._labels = labels
        self._universe_size = universe_size
        self._succs: list[list[int]] = [[] for _ in range(n)]
        self._preds: list[list[int]] = [[] for _ in range(n)]
        for u, v in sorted(dag.edges):  # both lists in index order
            self._succs[u].append(v)
            self._preds[v].append(u)
        self._order = _topological_order(self._succs, self._preds)
        # reachability closure; a path through equal labels is forbidden
        reach = [0] * n
        for u in reversed(self._order):
            for v in self._succs[u]:
                reach[u] |= (1 << v) | reach[v]
        for u in range(n):
            for v in range(n):
                if u != v and labels[u] == labels[v] and reach[u] >> v & 1:
                    raise ValueError(
                        f"label {labels[u]} repeats along a path ({u} reaches {v})"
                    )
        self._len_end = [1] * n
        for v in self._order:
            for u in self._preds[v]:
                self._len_end[v] = max(self._len_end[v], self._len_end[u] + 1)
        self._longest = max(self._len_end)
        self._member_cache: frozenset[int] | None = None

    @property
    def universe_size(self) -> int:
        return self._universe_size

    @property
    def path_length(self) -> int:
        return self._longest

    def member_bits(self) -> frozenset[int]:
        """All label sets of longest paths, by path enumeration."""
        if self._member_cache is not None:
            return self._member_cache
        labels = self._labels
        len_from = [1] * len(labels)
        for u in reversed(self._order):
            for v in self._succs[u]:
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
            for u in self._succs[v]:
                if self._len_end[u] == depth + 1 and len_from[u] == self._longest - depth:
                    walk(u, depth + 1, labels_bits | (1 << labels[u]))

        for v in range(len(labels)):
            if self._len_end[v] == 1 and len_from[v] == self._longest:
                walk(v, 1, 1 << labels[v])
        self._member_cache = frozenset(out)
        return self._member_cache

    def is_member_bits(self, bits: int) -> bool:
        return bits in self.member_bits()

    def opt_pm1(self, positive: int) -> int | None:
        labels = self._labels
        gain = [2 * (positive >> q & 1) - 1 for q in labels]
        best: list[int] = [0] * len(labels)
        for v in self._order:
            w = gain[v]
            cand = None
            for u in self._preds[v]:
                if self._len_end[u] == self._len_end[v] - 1:
                    if cand is None or best[u] > cand:
                        cand = best[u]
            best[v] = w if cand is None else cand + w
        # reconstruct from the best terminal of a longest path
        ends = [v for v in range(len(labels)) if self._len_end[v] == self._longest]
        v = max(ends, key=best.__getitem__)
        bits = 0
        while True:
            bits |= 1 << labels[v]
            if self._len_end[v] == 1:
                break
            for u in self._preds[v]:
                if (
                    self._len_end[u] == self._len_end[v] - 1
                    and best[u] == best[v] - gain[v]
                ):
                    v = u
                    break
            else:
                raise AssertionError("longest-path reconstruction failed")
        return bits

    def exact_extend(
        self, query: ExtensionQuery, ctx: OracleContext | None = None
    ) -> ExtensionOutcome:
        labels = self._labels
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
            [[None] * (L + 1) for _ in range(nx + 1)] for _ in labels
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
        for v in range(len(labels)):
            if self._len_end[v] != L:
                continue
            got = table[v][nx][outside] if outside <= L else None
            if got is not None:
                if not query.admits_bits(got):
                    raise SoundnessError(f"path table returned {got:#x} outside the query")
                return Found(got)
        return NOT_FOUND
