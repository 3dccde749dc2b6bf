"""Label sets of longest paths in a labeled DAG.

Vertices carry ground-set labels such that no directed path visits two
vertices with the same label; the domain consists of the label sets of all
maximum-vertex-count paths.  This encodes dynamic-programming solution
spaces; interval scheduling, for instance, maps intervals to vertices with
an arc whenever one interval ends before the other starts.

The oracle checks the DAG and its labeling once and keeps one topological
order, the tight predecessors of each vertex (those whose longest path
ending there is one vertex shorter; index order, parallel arcs repeated)
and the ends (where the longest paths, of L vertices, end; index order).

The count search weighs a label L + 1 if it is forced, else 1 if it is
marked, else 0; per vertex it keeps the bit set of weight sums over the
longest paths that end there and avoid the forbidden labels.  The path
with the wanted sum (|X| (L + 1) plus the wanted count, or the highest)
is rebuilt from the lowest-index end that reaches it, then from the
lowest-index tight predecessor that keeps the rest reachable.  Membership
of a set of size L is a linear pass over the tight predecessors,
restricted to its labels, that must reach an end.
"""

from __future__ import annotations

from ..core import FixedSizeOracle, SoundnessError, _check_universe_size
from .graphs import GraphData


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


class DagDpOracle(FixedSizeOracle):
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
        succs: list[list[int]] = [[] for _ in range(n)]
        preds: list[list[int]] = [[] for _ in range(n)]
        for u, v in sorted(dag.edges):  # both lists in index order
            succs[u].append(v)
            preds[v].append(u)
        self._order = _topological_order(succs, preds)
        # reachability closure; a path through equal labels is forbidden
        reach = [0] * n
        for u in reversed(self._order):
            for v in succs[u]:
                reach[u] |= (1 << v) | reach[v]
        for u in range(n):
            for v in range(n):
                if u != v and labels[u] == labels[v] and reach[u] >> v & 1:
                    raise ValueError(
                        f"label {labels[u]} repeats along a path ({u} reaches {v})"
                    )
        len_end = [1] * n  # vertices on the longest path ending at v
        for v in self._order:
            for u in preds[v]:
                len_end[v] = max(len_end[v], len_end[u] + 1)
        self.member_size = max(len_end)
        self._tight = [[u for u in preds[v] if len_end[u] == len_end[v] - 1] for v in range(n)]
        self._ends = [v for v in range(n) if len_end[v] == self.member_size]

    @property
    def universe_size(self) -> int:
        return self._universe_size

    def is_member_bits(self, bits: int) -> bool:
        # a path repeats no label, so L vertices labeled in bits cover bits
        if bits.bit_count() != self.member_size:
            return False
        labels = self._labels
        ok = [False] * len(labels)
        for v in self._order:
            if bits >> labels[v] & 1:
                ok[v] = not self._tight[v] or any(ok[u] for u in self._tight[v])
        return any(ok[v] for v in self._ends)

    def _search(
        self, forced: int, forbidden: int, marked: int, want: int | None
    ) -> int | None:
        # a forced label outweighs a whole path of marked ones, and a path
        # repeats no label: a sum of |forced| (L + 1) + want holds every
        # forced label and want marked ones besides
        labels = self._labels
        heavy = self.member_size + 1
        weight = [heavy if forced >> q & 1 else marked >> q & 1 for q in labels]
        if want is not None:
            want += forced.bit_count() * heavy
        # sums[v]: bit set of the weight sums over longest paths ending at v
        sums = [0] * len(labels)
        for v in self._order:
            if not forbidden >> labels[v] & 1:
                reach = 0 if self._tight[v] else 1
                for u in self._tight[v]:
                    reach |= sums[u]
                sums[v] = reach << weight[v]
        if want is None:  # the highest sum, or 0 if no end is reached
            want = max(max(sums[v].bit_length() for v in self._ends) - 1, 0)
        for v in self._ends:
            if sums[v] >> want & 1:
                break
        else:
            return None
        bits = 0
        while True:
            bits |= 1 << labels[v]
            want -= weight[v]
            if not self._tight[v]:
                return bits
            for u in self._tight[v]:
                if sums[u] >> want & 1:
                    v = u
                    break
            else:
                raise SoundnessError("longest-path reconstruction failed")
