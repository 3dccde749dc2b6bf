"""Vertex covers of size at most ell.

The empty extension is solved directly.  Forbidden vertices force their
neighborhood, an OR of neighbor masks built once, into the cover; one that
meets the forbidden set marks an edge no cover covers.  The rest is a
bounded search tree walked in place over the edge list: each branch scans
on from its parent's edge to the first edge with neither end taken and
tries both ends, so the edge order fixes which cover is found.  Padding to
the exact size takes the lowest-index allowed vertices.  The full
extension query additionally guesses the overlap with the center, reducing
to the same forced/forbidden exact-size subproblem.  Only overlaps
consistent with the query are guessed: each holds the forced center
vertices and no forbidden one, so the guesses are the subsets of the
center's free vertices, each joined with its forced ones.
The +-1 optimization capability is not offered; the small-parameter
framework never needs it.
"""

from __future__ import annotations

from ..core import (
    DomainOracle,
    ExtensionOutcome,
    ExtensionQuery,
    Found,
    iter_bits,
    NOT_FOUND,
    OracleContext,
    SoundnessError,
    submasks,
)
from .graphs import GraphData


def _min_cover(
    edges: list[tuple[int, int]], start: int, taken: int, allowed: int, budget: int
) -> int | None:
    """Smallest set of ``allowed`` vertices that, with ``taken``, covers
    ``edges[start:]``, searched by branching on the first edge with
    neither end taken (u first; v only if strictly smaller) with depth cap
    ``budget``.  Returns its bitmask, or None when no such set of size
    <= budget exists."""
    if budget < 0:
        return None
    for i in range(start, len(edges)):
        u, v = edges[i]
        if taken >> u & 1 or taken >> v & 1:
            continue
        best = None
        for w in (u, v):
            if allowed >> w & 1:
                sub = _min_cover(edges, i + 1, taken | 1 << w, allowed, budget - 1)
                if sub is not None and (best is None or sub.bit_count() + 1 < best.bit_count()):
                    best = sub | 1 << w
        return best  # branch on exactly one edge
    return 0  # nothing left to cover


class VertexCoverOracle(DomainOracle):
    def __init__(self, graph: GraphData, ell: int) -> None:
        if graph.directed:
            raise ValueError("vertex covers are defined on undirected graphs")
        if ell < 0:
            raise ValueError("ell must be nonnegative")
        self._graph = graph
        self._ell = ell
        self._edges = list(graph.edges)
        self._full = (1 << graph.n_vertices) - 1
        self._nbr = [0] * graph.n_vertices  # neighbor mask of each vertex
        for u, v in self._edges:
            self._nbr[u] |= 1 << v
            self._nbr[v] |= 1 << u

    @property
    def universe_size(self) -> int:
        return self._graph.n_vertices

    def is_member_bits(self, bits: int) -> bool:
        if bits.bit_count() > self._ell:
            return False
        return all(bits >> u & 1 or bits >> v & 1 for u, v in self._edges)

    def _solve_forced(self, forced: int, blocked: int, size: int) -> int | None:
        """A cover of exactly ``size`` vertices containing ``forced`` and
        avoiding ``blocked``; None if there is none.  ``forced`` and
        ``blocked`` must be disjoint."""
        if size > self._ell or forced.bit_count() > size:
            return None
        allowed = self._full & ~blocked & ~forced
        budget = size - forced.bit_count()
        if allowed.bit_count() < budget:
            return None  # not enough vertices to pad to the exact size
        cover = _min_cover(self._edges, 0, forced, allowed, budget)
        if cover is None:
            return None
        free = allowed & ~cover
        for _ in range(budget - cover.bit_count()):
            cover |= free & -free  # pad with the lowest-index free vertex
            free &= free - 1
        return forced | cover

    def exact_empty_extend(
        self, r: int, forbidden: int, ctx: OracleContext | None = None
    ) -> ExtensionOutcome:
        neighborhood = 0
        for u in iter_bits(forbidden & self._full):
            neighborhood |= self._nbr[u]
        if neighborhood & forbidden:
            return NOT_FOUND  # an edge inside the forbidden set is never covered
        got = self._solve_forced(neighborhood, forbidden, r)
        if got is None:
            return NOT_FOUND
        return Found(got)

    def exact_extend(
        self, query: ExtensionQuery, ctx: OracleContext | None = None
    ) -> ExtensionOutcome:
        c = query.center
        x = query.forced
        y = query.forbidden
        if c == 0 and x == 0:
            return self.exact_empty_extend(query.radius, y, ctx)
        # guess the overlap S = D & C among the subsets of the center that
        # hold its forced vertices and none of its forbidden ones; S runs
        # in increasing order, as over every subset of the center
        fixed = x & c
        for t in submasks(c & ~x & ~y):
            s = fixed | t
            # |D \ C| follows from |D ^ C| = |C \ S| + |D \ C|
            outside = query.radius - (c & ~s).bit_count()
            if outside < 0:
                continue
            size = s.bit_count() + outside
            forced = s | (x & ~c)
            got = self._solve_forced(forced, y | (c & ~s), size)
            if got is None:
                continue
            if got & c != s or not query.admits_bits(got):
                raise SoundnessError(f"cover search returned {got:#x} outside the query")
            return Found(got)
        return NOT_FOUND
