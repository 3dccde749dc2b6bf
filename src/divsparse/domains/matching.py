"""Matchings of a fixed size.

The count search is one bitmask DP on the graph itself.  A state is the
mask of settled vertices (at first the forced edges' endpoints) and how
many open vertices may still stay unmatched; it keeps the set of
achievable counts of *marked* edges over the completions of that state.
At the lowest open vertex, ties resolve to the first choice that keeps
the wanted count reachable: its edges by input position, then leaving it
unmatched.  The DP is capped at 22 vertices, counting the open vertices
plus the ones it must leave unmatched.
"""

from __future__ import annotations

from ..core import CapabilityError, FixedSizeOracle, SoundnessError, iter_bits
from .graphs import GraphData

VERTEX_CAP = 22


class MatchingOracle(FixedSizeOracle):
    def __init__(self, graph: GraphData, size_ell: int) -> None:
        if graph.directed:
            raise ValueError("matchings are defined on undirected graphs")
        if size_ell < 0:
            raise ValueError("matching size must be nonnegative")
        if graph.n_edges < 1:
            raise ValueError("matching domain needs at least one edge")
        self._graph = graph
        self._edge_masks = tuple(1 << u | 1 << v for u, v in graph.edges)
        self.member_size = size_ell

    @property
    def universe_size(self) -> int:
        return self._graph.n_edges

    def _endpoints(self, bits: int) -> int | None:
        """Vertices covered by the edges in ``bits``, or None when two of
        them share a vertex (``bits`` is not a matching)."""
        used = 0
        for e in iter_bits(bits):
            ends = self._edge_masks[e]
            if used & ends:
                return None
            used |= ends
        return used

    def is_member_bits(self, bits: int) -> bool:
        return (
            bits.bit_count() == self.member_size and self._endpoints(bits) is not None
        )

    def _search(
        self, forced: int, forbidden: int, marked: int, want: int | None
    ) -> int | None:
        used = self._endpoints(forced)
        need = self.member_size - forced.bit_count()
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
        if not self.is_member_bits(chosen):
            raise SoundnessError(f"matching search returned {chosen:#x}, not a member")
        return chosen
