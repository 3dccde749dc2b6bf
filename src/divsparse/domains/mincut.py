"""Vertex sets of minimum s,t-cuts.

The domain is the family of vertex sets C with s in C, t not in C,
minimizing the number of arcs leaving C (undirected edges count once,
realized as two antiparallel unit arcs).  After one max-flow run, the
strongly connected components of the residual graph form a poset whose
ideals are in bijection with the minimum cuts: a cut is the fixed base
block (everything residual-reachable from s) plus the blocks of a
downward-closed node set.

Optimization is a max-weight closure over that poset (Picard 1976;
Picard & Queyranne 1980): each node weighs the +-1 sum of its block's
vertices, and a max flow on the closure network (gains from the source,
losses into the sink, an infinite arc from every node to each node it
covers, built once per oracle) picks the heaviest ideal.  Ties resolve to
the unique minimal optimum, the residual-reachable side of the source,
i.e. the intersection of all max-weight minimum cuts.

The exact extension searches the ideals inside a sandwich around the
center's ideal: nodes that can leave it or join it within the radius.  A
depth-first search meets those ideals in the order of a counter over the
sandwich, and cuts every branch whose moved blocks hold more vertices than
the radius, too few to reach it, or a forced or forbidden vertex on the
wrong side; so it returns the counter scan's first admitted cut without
visiting the non-ideals.  When the sandwich is too wide, a topological
chain of cuts spaced more than 2d apart is returned as a trivial
sparsifier instead; the framework context supplies k and d.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import (
    CapabilityError,
    DomainOracle,
    ExtensionOutcome,
    ExtensionQuery,
    Found,
    NOT_FOUND,
    OracleContext,
    SetFamily,
    SoundnessError,
    TrivialSparsifier,
    iter_bits,
    pm1_weight,
)
from .graphs import GraphData


def _network(n: int, arcs: list[tuple[int, int, int]]):
    """Residual arrays (to, cap, adj) of a flow network on ``n`` vertices:
    arc 2i runs u -> v with capacity c and pairs with its reverse 2i+1."""
    to: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, c in arcs:
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
    return to, cap, adj


def _augment(to, cap, adj, s: int, t: int) -> int:
    """Edmonds-Karp: push shortest augmenting paths until none is left.
    ``cap`` ends as the final residual capacities; returns the flow value."""
    n = len(adj)
    flow = 0
    while True:
        parent_arc = [-1] * n
        parent_arc[s] = -2
        queue = [s]
        qi = 0
        while qi < len(queue) and parent_arc[t] == -1:
            u = queue[qi]
            qi += 1
            for idx in adj[u]:
                v = to[idx]
                if cap[idx] > 0 and parent_arc[v] == -1:
                    parent_arc[v] = idx
                    queue.append(v)
        if parent_arc[t] == -1:
            return flow
        # trace the path, find the bottleneck, push
        bottleneck = None
        v = t
        while v != s:
            idx = parent_arc[v]
            if bottleneck is None or cap[idx] < bottleneck:
                bottleneck = cap[idx]
            v = to[idx ^ 1]
        v = t
        while v != s:
            idx = parent_arc[v]
            cap[idx] -= bottleneck
            cap[idx ^ 1] += bottleneck
            v = to[idx ^ 1]
        flow += bottleneck


def _residual_reachable(to, cap, adj, start: int) -> int:
    seen = 1 << start
    queue = [start]
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for idx in adj[u]:
            v = to[idx]
            if cap[idx] > 0 and not seen >> v & 1:
                seen |= 1 << v
                queue.append(v)
    return seen


@dataclass(frozen=True)
class MinCutPoset:
    """Ideal <-> minimum-cut correspondence.

    ``base_bits`` are the vertices in every minimum cut (the canonical
    minimal cut, corresponding to the empty ideal).  ``node_blocks`` are
    the remaining residual components; ``pred_masks[w]``/``succ_masks[w]``
    are the node sets {u : u <= w} / {u : u >= w} including w itself.  A
    cut is ``base_bits`` plus the blocks of any downward-closed node set.
    """

    cut_value: int
    base_bits: int
    node_blocks: tuple[int, ...]
    pred_masks: tuple[int, ...]
    succ_masks: tuple[int, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.node_blocks)

    # hand-inlined bit loops: is_ideal runs once per extension (through
    # ideal_bits) and cut_bits once per optimization, where a core.iter_bits
    # loop measured about twice as slow
    def is_ideal(self, node_set: int) -> bool:
        rest = node_set
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            if self.pred_masks[w] & ~node_set:
                return False
        return True

    def cut_bits(self, node_set: int) -> int:
        out = self.base_bits
        rest = node_set
        while rest:
            low = rest & -rest
            rest ^= low
            out |= self.node_blocks[low.bit_length() - 1]
        return out

    def ideal_bits(self, cut: int) -> int | None:
        """The ideal whose cut is ``cut``, or None if there is none."""
        if cut & self.base_bits != self.base_bits:
            return None
        rest = cut & ~self.base_bits
        node_set = 0
        for w, block in enumerate(self.node_blocks):
            if block & rest == block:
                node_set |= 1 << w
                rest &= ~block
            elif block & rest:
                return None  # block straddles the candidate cut
        if rest:
            return None  # leftover vertices outside every block
        if not self.is_ideal(node_set):
            return None
        return node_set


def build_mincut_poset(graph: GraphData, s: int, t: int) -> MinCutPoset:
    n = graph.n_vertices
    if not (0 <= s < n and 0 <= t < n) or s == t:
        raise ValueError("need distinct in-range source and sink")
    to, cap, adj = _network(n, [(u, v, 1) for u, v in graph.arcs()])
    flow = _augment(to, cap, adj, s, t)

    reach = [_residual_reachable(to, cap, adj, v) for v in range(n)]
    forced_in = reach[s]
    if forced_in >> t & 1:
        raise SoundnessError("max flow left the sink reachable from the source")
    # free: neither reachable from s nor reaching t; their residual SCCs,
    # via double reachability, are the poset's nodes
    free = [v for v in range(n) if not forced_in >> v & 1 and not reach[v] >> t & 1]
    blocks: list[int] = []
    assigned = 0
    for v in free:
        if assigned >> v & 1:
            continue
        members = 0
        for u in free:
            if reach[v] >> u & 1 and reach[u] >> v & 1:
                members |= 1 << u
        blocks.append(members)
        assigned |= members
    m = len(blocks)
    # u <= w iff w residual-reaches u: a cut closed under residual arcs may
    # take a node only together with everything that node reaches, so cuts
    # are exactly the downward-closed node sets of this order
    pred = [1 << w for w in range(m)]
    for w in range(m):
        rep_w = (blocks[w] & -blocks[w]).bit_length() - 1
        for u in range(m):
            if u == w:
                continue
            rep_u = (blocks[u] & -blocks[u]).bit_length() - 1
            if reach[rep_w] >> rep_u & 1:
                pred[w] |= 1 << u
    succ = [1 << w for w in range(m)]
    for w in range(m):
        for u in range(m):
            if pred[w] >> u & 1:
                succ[u] |= 1 << w
    return MinCutPoset(
        cut_value=flow,
        base_bits=forced_in,
        node_blocks=tuple(blocks),
        pred_masks=tuple(pred),
        succ_masks=tuple(succ),
    )


#: Without framework context the sandwich must stay brute-forceable.
SANDWICH_GUARD = 26


class MinCutOracle(DomainOracle):
    def __init__(self, graph: GraphData, s: int, t: int) -> None:
        self._graph = graph
        self._s = s
        self._t = t
        self._poset = build_mincut_poset(graph, s, t)
        self._arcs = graph.arcs()
        poset = self._poset
        # a topological order of the nodes (by predecessor count, then
        # index) and each node's block size, read by every extension
        self._order = tuple(
            sorted(
                range(poset.n_nodes),
                key=lambda w: (poset.pred_masks[w].bit_count(), w),
            )
        )
        self._sizes = tuple(block.bit_count() for block in poset.node_blocks)
        # the vertices of each node's predecessors, itself included (blocks
        # are disjoint, so their sum is their union)
        self._below = tuple(
            sum(poset.node_blocks[u] for u in iter_bits(pred))
            for pred in poset.pred_masks
        )
        # max-weight closure network of the poset: arcs 4w and 4w + 2 run
        # source -> w and w -> sink and carry node w's gain or loss per
        # call; taking w takes every node it covers, through an arc no
        # finite cut crosses
        m = poset.n_nodes
        arcs = []
        for w in range(m):
            arcs += [(m, w, 0), (w, m + 1, 0)]
        for w in range(m):
            strict = poset.pred_masks[w] & ~(1 << w)
            below = 0
            for u in iter_bits(strict):
                below |= poset.pred_masks[u] & ~(1 << u)
            for u in iter_bits(strict & ~below):
                arcs.append((w, u, graph.n_vertices + 1))
        self._closure = _network(m + 2, arcs)

    @property
    def universe_size(self) -> int:
        return self._graph.n_vertices

    def is_member_bits(self, bits: int) -> bool:
        if not bits >> self._s & 1 or bits >> self._t & 1:
            return False
        crossing = sum(
            1 for u, v in self._arcs if bits >> u & 1 and not bits >> v & 1
        )
        return crossing == self._poset.cut_value

    def opt_pm1(self, positive: int) -> int | None:
        """The unique minimal max-weight minimum cut.

        A cut weighs the fixed base plus the +-1 sums of its ideal's
        blocks, so this is a max-weight closure of the poset (Picard 1976):
        the residual-reachable side of the source after one max flow on
        the closure network, the intersection of all optimal ideals.
        """
        poset = self._poset
        gains = [pm1_weight(block, positive) for block in poset.node_blocks]
        if not any(g > 0 for g in gains):
            return poset.base_bits  # the empty ideal is the least optimum
        to, cap, adj = self._closure
        cap = cap[:]
        for w, g in enumerate(gains):
            if g > 0:
                cap[4 * w] = g
            elif g < 0:
                cap[4 * w + 2] = -g
        m = len(gains)
        _augment(to, cap, adj, m, m + 1)
        taken = _residual_reachable(to, cap, adj, m)
        return poset.cut_bits(taken & ((1 << m) - 1))

    def _sandwich(self, ideal: int, p_eff: int) -> tuple[list[int], list[int]]:
        """Poset nodes addable to / removable from ``ideal`` within p_eff
        blocks, each list in the oracle's topological order.

        A node is addable when at most p_eff of its predecessors (itself
        included) lie outside ``ideal``, removable when at most p_eff of
        its successors lie inside; so ``up`` holds every predecessor outside
        ``ideal`` of its nodes and ``down`` every successor inside."""
        poset = self._poset
        up: list[int] = []
        down: list[int] = []
        for w in self._order:
            if ideal >> w & 1:
                if (poset.succ_masks[w] & ideal).bit_count() <= p_eff:
                    down.append(w)
            elif (poset.pred_masks[w] & ~ideal).bit_count() <= p_eff:
                up.append(w)
        return up, down

    def _chain_family(
        self, ideal: int, nodes: list[int], k: int, d: int, upward: bool
    ) -> SetFamily:
        """k+1 cuts spaced more than 2d apart along a topological chain.

        Upward chains add prefixes of addable nodes; downward chains remove
        suffixes of removable nodes.  Strides of 2d+1 blocks keep pairwise
        distances strictly above 2d (every block holds >= 1 vertex).
        """
        poset = self._poset
        stride = 2 * d + 1
        cuts = []
        for i in range(k + 1):
            node_set = ideal
            if upward:
                for w in nodes[: i * stride]:
                    node_set |= 1 << w
            else:
                taken = nodes[len(nodes) - i * stride :]
                for w in taken:
                    node_set &= ~(1 << w)
            if not poset.is_ideal(node_set):
                raise SoundnessError("chain prefix is not an ideal")
            cuts.append(poset.cut_bits(node_set))
        for i in range(len(cuts)):
            for j in range(i + 1, len(cuts)):
                if (cuts[i] ^ cuts[j]).bit_count() <= 2 * d:
                    raise SoundnessError(f"chain cuts {i}, {j} within 2d = {2 * d}")
        return SetFamily.from_bits(self.universe_size, cuts)

    def exact_extend(
        self, query: ExtensionQuery, ctx: OracleContext | None = None
    ) -> ExtensionOutcome:
        poset = self._poset
        ideal = poset.ideal_bits(query.center)
        if ideal is None:
            raise ValueError("extension center is not a minimum s,t-cut")
        p_eff = query.radius if ctx is None else max(ctx.p, query.radius)
        up, down = self._sandwich(ideal, p_eff)
        if ctx is not None:
            limit = ctx.k * (2 * ctx.d + 1)
            if len(up) > limit:
                return TrivialSparsifier(
                    self._chain_family(ideal, up, ctx.k, ctx.d, upward=True)
                )
            if len(down) > limit:
                return TrivialSparsifier(
                    self._chain_family(ideal, down, ctx.k, ctx.d, upward=False)
                )
        elif len(up) + len(down) > SANDWICH_GUARD:
            raise CapabilityError(
                "extension sandwich too wide without framework context"
            )
        return self._first_ideal(query, ideal, up, down)

    def _first_ideal(
        self, query: ExtensionQuery, ideal: int, up: list[int], down: list[int]
    ) -> ExtensionOutcome:
        """The first admitted cut in the order of a counter over ``down``
        (outer) and ``up`` (inner): the ideal ``ideal`` minus some of
        ``down`` plus some of ``up``.

        A depth-first search decides the counter bits high to low, keep
        before move, so it meets the ideals in counter order.  Both lists
        are topological, so a node's successors are decided before it: a
        node is removed only once every successor in ``ideal`` is, and
        adding a node makes its predecessors outside ``ideal`` required, so
        every leaf is an ideal.  A block meeting ``forbidden`` is never
        added, nor one meeting ``forced`` removed.  The moved vertices (the
        removed and added blocks, required ones counted ahead of their
        turn) are the leaf's difference from the center, so a branch stops
        once they number more than ``radius`` or the nodes still open
        cannot make up the rest.
        """
        poset = self._poset
        blocks, preds, succs = poset.node_blocks, poset.pred_masks, poset.succ_masks
        below, sizes = self._below, self._sizes
        center, radius = query.center, query.radius
        forced, forbidden = query.forced, query.forbidden
        # the vertices any leaf may hold / every leaf holds, and the most
        # the nodes still open before each position can move
        reach = fixed = center
        up_room = [0]
        for w in up:
            reach |= blocks[w]
            up_room.append(up_room[-1] + sizes[w])
        down_room = [up_room[-1]]
        for w in down:
            fixed &= ~blocks[w]
            down_room.append(down_room[-1] + sizes[w])
        if forced & ~reach or forbidden & fixed:
            return NOT_FOUND

        def add(j: int, removed: int, required: int, moved: int) -> int | None:
            if moved.bit_count() + up_room[j + 1] < radius:
                return None
            if j < 0:
                return center ^ moved
            w = up[j]
            if required >> w & 1:  # moved already, with a successor
                return add(j - 1, removed, required, moved)
            if not blocks[w] & forced:
                cut = add(j - 1, removed, required, moved)
                if cut is not None:
                    return cut
            # adding w keeps every predecessor; those outside the center
            # join the cut with w
            if preds[w] & removed or below[w] & forbidden:
                return None
            moved |= below[w] & ~center
            if moved.bit_count() > radius:
                return None
            return add(j - 1, removed, required | preds[w] & ~ideal, moved)

        def remove(i: int, removed: int, moved: int) -> int | None:
            if moved.bit_count() + down_room[i + 1] < radius:
                return None
            if i < 0:
                return add(len(up) - 1, removed, 0, moved)
            w = down[i]
            if not below[w] & forbidden:
                cut = remove(i - 1, removed, moved)
                if cut is not None:
                    return cut
            bit = 1 << w
            if blocks[w] & forced or succs[w] & ideal & ~removed != bit:
                return None
            moved |= blocks[w]
            if moved.bit_count() > radius:
                return None
            return remove(i - 1, removed | bit, moved)

        cut = remove(len(down) - 1, 0, 0)
        return NOT_FOUND if cut is None else Found(cut)
