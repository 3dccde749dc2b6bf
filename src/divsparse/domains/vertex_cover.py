"""Vertex covers of size at most ell.

The empty extension is solved directly: forbidden vertices force their
neighborhoods into the cover, the rest is a bounded-depth branch on
uncovered edges plus padding to the exact size.  The full extension query
additionally guesses the overlap with the center, reducing to the same
forced/forbidden exact-size subproblem.  Only overlaps consistent with the
query are guessed: each holds the forced center vertices and no forbidden
one, so the guesses are the subsets of the center's free vertices, each
joined with its forced ones.
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


def _min_cover(edges: list[tuple[int, int]], allowed: int, budget: int) -> int | None:
    """Smallest cover of ``edges`` using only ``allowed`` vertices, searched
    by branching on the first uncovered edge with depth cap ``budget``.
    Returns its bitmask, or None when no cover of size <= budget exists."""
    if budget < 0:
        return None
    for u, v in edges:
        bit_u = 1 << u
        bit_v = 1 << v
        best = None
        if allowed & bit_u:
            rest = [e for e in edges if u not in e]
            sub = _min_cover(rest, allowed & ~bit_u, budget - 1)
            if sub is not None:
                best = sub | bit_u
        if allowed & bit_v:
            rest = [e for e in edges if v not in e]
            sub = _min_cover(rest, allowed & ~bit_v, budget - 1)
            if sub is not None and (best is None or sub.bit_count() + 1 < best.bit_count()):
                best = sub | bit_v
        return best  # branch on exactly one edge
    return 0  # nothing left to cover


def _pad_to_size(base: int, pool: int, want: int) -> int | None:
    """Add lowest-index vertices from ``pool`` until ``base`` has ``want``."""
    missing = want - base.bit_count()
    free = list(iter_bits(pool & ~base))
    if not 0 <= missing <= len(free):
        return None
    for v in free[:missing]:
        base |= 1 << v
    return base


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

    @property
    def universe_size(self) -> int:
        return self._graph.n_vertices

    def is_member_bits(self, bits: int) -> bool:
        if bits.bit_count() > self._ell:
            return False
        return all(bits >> u & 1 or bits >> v & 1 for u, v in self._edges)

    def _solve_forced(self, forced: int, blocked: int, size: int) -> int | None:
        """A cover of exactly ``size`` vertices containing ``forced`` and
        avoiding ``blocked``; None if there is none."""
        if forced & blocked:
            return None
        if size > self._ell or forced.bit_count() > size:
            return None
        allowed = self._full & ~blocked & ~forced
        open_edges = [
            (u, v)
            for u, v in self._edges
            if not (forced >> u & 1 or forced >> v & 1)
        ]
        budget = size - forced.bit_count()
        if allowed.bit_count() < budget:
            return None  # not enough vertices to pad to the exact size
        cover = _min_cover(open_edges, allowed, budget)
        if cover is None:
            return None
        return _pad_to_size(forced | cover, allowed, size)

    def exact_empty_extend(
        self, r: int, forbidden: int, ctx: OracleContext | None = None
    ) -> ExtensionOutcome:
        y = forbidden
        # an edge inside the forbidden set can never be covered
        if any(y >> u & 1 and y >> v & 1 for u, v in self._edges):
            return NOT_FOUND
        neighborhood = 0
        for u, v in self._edges:
            if y >> u & 1:
                neighborhood |= 1 << v
            if y >> v & 1:
                neighborhood |= 1 << u
        got = self._solve_forced(neighborhood, y, r)
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
