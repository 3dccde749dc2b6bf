"""Matchings of a fixed size.

Both capabilities run a perfect-matching bitmask DP on an expanded graph:
pad vertices joined to every original vertex absorb the unmatched ones, so
a size-ell matching corresponds to a perfect matching of the expansion.
Optimization maximizes ŵ with pad edges at weight zero; the exact extension
counts edges outside the center (blue) and asks for an exact blue count.
Ties resolve to the first best choice in adjacency order (edges by input
position, pads last); the DP is capped at 22 expanded vertices.
"""

from __future__ import annotations

from ..core import (
    CapabilityError,
    DomainOracle,
    ExtensionOutcome,
    ExtensionQuery,
    Found,
    NOT_FOUND,
    OracleContext,
    WeightVector,
)
from .graphs import GraphData

EXPANDED_VERTEX_CAP = 22


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
        b = bits
        while b:
            low = b & -b
            b ^= low
            u, v = self._graph.edges[low.bit_length() - 1]
            if used >> u & 1 or used >> v & 1:
                return None
            used |= (1 << u) | (1 << v)
        return used

    def is_member_bits(self, bits: int) -> bool:
        return bits.bit_count() == self._ell and self._endpoints(bits) is not None

    def _check_cap(self, n_expanded: int) -> None:
        if n_expanded > EXPANDED_VERTEX_CAP:
            raise CapabilityError(
                f"expanded matching graph has {n_expanded} vertices, over the "
                f"{EXPANDED_VERTEX_CAP}-vertex DP cap"
            )

    def opt_pm1(self, weights: WeightVector) -> int | None:
        nv = self._graph.n_vertices
        if 2 * self._ell > nv:
            return None
        pads = nv - 2 * self._ell
        total = nv + pads
        self._check_cap(total)
        # adjacency with edge payloads: (other endpoint, edge index or None)
        adj: list[list[tuple[int, int | None]]] = [[] for _ in range(total)]
        for idx, (u, v) in enumerate(self._graph.edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        for p in range(nv, total):
            for v in range(nv):
                adj[v].append((p, None))
                adj[p].append((v, None))

        full = (1 << total) - 1
        missing = object()
        memo: dict[int, int | None] = {}

        def best(mask: int) -> int | None:
            """Max weight of a perfect matching on the unset vertices."""
            if mask == full:
                return 0
            got = memo.get(mask, missing)
            if got is not missing:
                return got  # type: ignore[return-value]
            u = (~mask & full)
            u = (u & -u).bit_length() - 1
            out: int | None = None
            for v, idx in adj[u]:
                if mask >> v & 1:
                    continue
                sub = best(mask | (1 << u) | (1 << v))
                if sub is None:
                    continue
                w = sub + (weights.weights[idx] if idx is not None else 0)
                if out is None or w > out:
                    out = w
            memo[mask] = out
            return out

        if best(0) is None:
            return None
        # greedy reconstruction along first-best choices
        mask = 0
        chosen = 0
        while mask != full:
            u = (~mask & full)
            u = (u & -u).bit_length() - 1
            target = best(mask)
            assert target is not None
            for v, idx in adj[u]:
                if mask >> v & 1:
                    continue
                sub = best(mask | (1 << u) | (1 << v))
                if sub is None:
                    continue
                w = sub + (weights.weights[idx] if idx is not None else 0)
                if w == target:
                    mask |= (1 << u) | (1 << v)
                    if idx is not None:
                        chosen |= 1 << idx
                    break
            else:
                raise AssertionError("matching reconstruction failed")
        return chosen

    def exact_extend(
        self, query: ExtensionQuery, ctx: OracleContext | None = None
    ) -> ExtensionOutcome:
        c = query.center
        x = query.forced
        y = query.forbidden
        r = query.radius
        ell = self._ell
        x_vertices = self._endpoints(x)
        if x.bit_count() > ell or x_vertices is None:
            return NOT_FOUND
        # |D & C| is fixed by |D ^ C| = |D| + |C| - 2 |D & C|
        doubled_overlap = ell + c.bit_count() - r
        if doubled_overlap % 2 or doubled_overlap < 0:
            return NOT_FOUND
        overlap = doubled_overlap // 2
        blue_in_rest = (ell - x.bit_count()) - (overlap - (x & c).bit_count())
        if blue_in_rest < 0:
            return NOT_FOUND

        need = ell - x.bit_count()
        if need == 0:
            if blue_in_rest == 0 and query.admits_bits(x) and self.is_member_bits(x):
                return Found(x)
            return NOT_FOUND

        nv = self._graph.n_vertices
        live = [v for v in range(nv) if not x_vertices >> v & 1]
        if 2 * need > len(live):
            return NOT_FOUND
        pads = len(live) - 2 * need
        total = len(live) + pads
        self._check_cap(total)
        pos = {v: i for i, v in enumerate(live)}

        # edge payloads: (slot_u, slot_v, edge index or None for pads, blue?)
        adj: list[list[tuple[int, int | None, int]]] = [[] for _ in range(total)]
        for idx, (u, v) in enumerate(self._graph.edges):
            if x >> idx & 1 or y >> idx & 1:
                continue
            if u not in pos or v not in pos:
                continue
            blue = 0 if c >> idx & 1 else 1
            adj[pos[u]].append((pos[v], idx, blue))
            adj[pos[v]].append((pos[u], idx, blue))
        for p in range(len(live), total):
            for slot in range(len(live)):
                adj[slot].append((p, None, 0))
                adj[p].append((slot, None, 0))

        full = (1 << total) - 1
        memo: dict[tuple[int, int], bool] = {}

        def feasible(mask: int, blue_left: int) -> bool:
            if blue_left < 0:
                return False
            if mask == full:
                return blue_left == 0
            key = (mask, blue_left)
            got = memo.get(key)
            if got is not None:
                return got
            u = (~mask & full)
            u = (u & -u).bit_length() - 1
            out = False
            for v, _idx, blue in adj[u]:
                if mask >> v & 1:
                    continue
                if feasible(mask | (1 << u) | (1 << v), blue_left - blue):
                    out = True
                    break
            memo[key] = out
            return out

        if not feasible(0, blue_in_rest):
            return NOT_FOUND
        mask = 0
        blue_left = blue_in_rest
        chosen = x
        while mask != full:
            u = (~mask & full)
            u = (u & -u).bit_length() - 1
            for v, idx, blue in adj[u]:
                if mask >> v & 1:
                    continue
                if feasible(mask | (1 << u) | (1 << v), blue_left - blue):
                    mask |= (1 << u) | (1 << v)
                    blue_left -= blue
                    if idx is not None:
                        chosen |= 1 << idx
                    break
            else:
                raise AssertionError("exact-matching reconstruction failed")
        assert query.admits_bits(chosen) and self.is_member_bits(chosen)
        return Found(chosen)
