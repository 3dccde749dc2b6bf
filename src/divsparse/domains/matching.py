"""Matchings of a fixed size.

Both capabilities run one bitmask DP on the graph itself.  A state is the
mask of settled vertices (at first the forced edges' endpoints) and how
many open vertices may still stay unmatched; it keeps the set of
achievable counts of *marked* edges over the completions of that state.
The exact extension marks the edges outside the center and asks for one
count, which the radius fixes.  Optimization marks the +1 edges and asks
for the highest count: every member has ell edges, so its weight is
2 * count - ell.  At the lowest open vertex, ties resolve to the first
choice that keeps the count reachable: its edges by input position, then
leaving it unmatched.  The DP is capped at 22 vertices, counting the
open vertices plus the ones it must leave unmatched.
"""

from __future__ import annotations

from ..core import (
    CapabilityError,
    DomainOracle,
    ExtensionOutcome,
    ExtensionQuery,
    Found,
    iter_bits,
    NOT_FOUND,
    OracleContext,
    SoundnessError,
)
from .graphs import GraphData

VERTEX_CAP = 22


class MatchingOracle(DomainOracle):
    def __init__(self, graph: GraphData, size_ell: int) -> None:
        if graph.directed:
            raise ValueError("matchings are defined on undirected graphs")
        if size_ell < 0:
            raise ValueError("matching size must be nonnegative")
        if graph.n_edges < 1:
            raise ValueError("matching domain needs at least one edge")
        self._graph = graph
        self._ell = size_ell

    @property
    def universe_size(self) -> int:
        return self._graph.n_edges

    def _endpoints(self, bits: int) -> int | None:
        """Vertices covered by the edges in ``bits``, or None when two of
        them share a vertex (``bits`` is not a matching)."""
        used = 0
        for e in iter_bits(bits):
            u, v = self._graph.edges[e]
            if used >> u & 1 or used >> v & 1:
                return None
            used |= (1 << u) | (1 << v)
        return used

    def is_member_bits(self, bits: int) -> bool:
        return bits.bit_count() == self._ell and self._endpoints(bits) is not None

    def _search(
        self, forced: int, forbidden: int, marked: int, want: int | None
    ) -> int | None:
        """A size-ell matching that contains ``forced``, avoids ``forbidden``
        and has exactly ``want`` ``marked`` edges outside ``forced`` (``None``:
        as many as possible), or None when there is none."""
        used = self._endpoints(forced)
        need = self._ell - forced.bit_count()
        if used is None or need < 0:
            return None
        if need == 0:
            return None if want else forced
        n = self._graph.n_vertices
        live = n - used.bit_count()
        if 2 * need > live:
            return None
        unmatched = live - 2 * need
        if live + unmatched > VERTEX_CAP:
            raise CapabilityError(
                f"matching DP counts {live} open + {unmatched} unmatched vertices, "
                f"over the {VERTEX_CAP}-vertex DP cap"
            )
        # adjacency in tie-break order: (other end, edge bit, 1 if marked)
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for idx, (u, v) in enumerate(self._graph.edges):
            if not forbidden >> idx & 1:
                adj[u].append((v, 1 << idx, marked >> idx & 1))
                adj[v].append((u, 1 << idx, marked >> idx & 1))

        full = (1 << n) - 1
        memo = {left << n | full: int(left == 0) for left in range(unmatched + 1)}

        def counts(mask: int, left: int) -> int:
            """Bit set of the marked-edge counts over the matchings of the
            vertices outside ``mask`` that leave ``left`` of them unmatched."""
            key = left << n | mask
            got = memo.get(key)
            if got is None:
                u = (~mask & (mask + 1)).bit_length() - 1
                got = counts(mask | 1 << u, left - 1) if left else 0
                for v, _bit, m in adj[u]:
                    if not mask >> v & 1:
                        got |= counts(mask | (1 << u) | (1 << v), left) << m
                memo[key] = got
            return got

        reachable = counts(used, unmatched)
        if want is None:
            want = reachable.bit_length() - 1
        if want < 0 or not reachable >> want & 1:
            return None
        mask = used
        chosen = forced
        while mask != full:
            u = (~mask & (mask + 1)).bit_length() - 1
            for v, bit, m in adj[u]:
                step = mask | (1 << u) | (1 << v)
                if not mask >> v & 1 and counts(step, unmatched) << m >> want & 1:
                    mask = step
                    want -= m
                    chosen |= bit
                    break
            else:
                # no edge keeps ``want`` reachable, so leaving u unmatched must
                mask |= 1 << u
                unmatched -= 1
                if unmatched < 0 or not counts(mask, unmatched) >> want & 1:
                    raise SoundnessError("matching reconstruction failed")
        return chosen

    def opt_pm1(self, positive: int) -> int | None:
        # every member has ell edges, so its weight 2 |D & P| - ell grows
        # with its count of +1 edges P
        return self._search(0, 0, positive, None)

    def exact_extend(
        self, query: ExtensionQuery, ctx: OracleContext | None = None
    ) -> ExtensionOutcome:
        c = query.center
        x = query.forced
        # |D & C| is fixed by |D ^ C| = |D| + |C| - 2 |D & C|
        doubled_overlap = self._ell + c.bit_count() - query.radius
        if doubled_overlap % 2 or doubled_overlap < 0:
            return NOT_FOUND
        overlap = doubled_overlap // 2
        blue_in_rest = (self._ell - x.bit_count()) - (overlap - (x & c).bit_count())
        if blue_in_rest < 0:
            return NOT_FOUND
        chosen = self._search(x, query.forbidden, ~c, blue_in_rest)
        if chosen is None:
            return NOT_FOUND
        if not query.admits_bits(chosen) or not self.is_member_bits(chosen):
            raise SoundnessError(f"matching search returned {chosen:#x} outside the query")
        return Found(chosen)
