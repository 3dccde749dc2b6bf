"""Matroid base domains: graphic, uniform, and partition matroids.

The count search runs one greedy, ``Matroid.greedy_bits``: it takes the
forced elements, then the preferred ones, then the rest, each group in
index order.  The generic greedy tests every prefix for independence; the
graphic matroid runs it with one incremental union-find, and the uniform
matroid takes the lowest-index elements up to the rank at once.  The
base with the most marked elements prefers the marked ones, which is the
classic greedy over descending weight with ties by index.  For an exact
count the search builds the bases with the fewest and with the most
marked elements (among bases containing the forced set and avoiding the
forbidden one), then walks from the first toward the second by
single-element exchanges; each step changes the count by -1, 0 or +1, so
the walk passes through every count between them.  A greedy that does
not end at the rank, or a walk that stalls, means the independence test
is not a matroid and raises ``SoundnessError``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..core import FixedSizeOracle, SoundnessError, iter_bits
from .graphs import GraphData


class Matroid(ABC):
    """Independence system with a rank; supplies independence tests only."""

    universe_size: int
    rank: int

    @abstractmethod
    def independent_bits(self, bits: int) -> bool: ...

    def is_base_bits(self, bits: int) -> bool:
        return bits.bit_count() == self.rank and self.independent_bits(bits)

    def greedy_bits(self, forced: int, pools: tuple[int, ...]) -> int | None:
        """Every ``forced`` element, then each pool's elements that keep
        the set independent, each group in index order; None when
        ``forced`` is dependent.  Subclasses may run it incrementally."""
        out = 0
        for e in iter_bits(forced):
            out |= 1 << e
            if not self.independent_bits(out):
                return None
        for pool in pools:
            for e in iter_bits(pool):
                cand = out | (1 << e)
                if self.independent_bits(cand):
                    out = cand
        return out


class GraphicMatroid(Matroid):
    """Edge sets of forests; bases are spanning forests."""

    def __init__(self, graph: GraphData) -> None:
        if graph.directed:
            raise ValueError("graphic matroids are defined on undirected graphs")
        if graph.n_edges < 1:
            raise ValueError("graphic matroid needs at least one edge")
        self.graph = graph
        self.universe_size = graph.n_edges
        self.rank = self.greedy_bits(0, ((1 << graph.n_edges) - 1,)).bit_count()

    def independent_bits(self, bits: int) -> bool:
        return self.greedy_bits(bits, ()) is not None

    def greedy_bits(self, forced: int, pools: tuple[int, ...]) -> int | None:
        # one union-find for the whole run: an edge keeps the forest
        # acyclic iff it joins two components
        parent = list(range(self.graph.n_vertices))
        edges = self.graph.edges

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        out = 0
        for e in iter_bits(forced):
            u, v = edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                return None
            parent[ru] = rv
            out |= 1 << e
        left = self.graph.n_vertices - 1 - forced.bit_count()
        for pool in pools:
            for e in iter_bits(pool):
                if left == 0:  # a spanning tree takes no further edge
                    return out
                u, v = edges[e]
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    out |= 1 << e
                    left -= 1
        return out


class UniformMatroid(Matroid):
    """All subsets of size at most rank are independent."""

    def __init__(self, universe_size: int, rank: int) -> None:
        if not 0 <= rank <= universe_size:
            raise ValueError("rank must be between 0 and the universe size")
        self.universe_size = universe_size
        self.rank = rank

    def independent_bits(self, bits: int) -> bool:
        return bits.bit_count() <= self.rank

    def greedy_bits(self, forced: int, pools: tuple[int, ...]) -> int | None:
        # the generic greedy in closed form: the forced set, then the
        # lowest-index new elements of each pool in turn up to the rank
        left = self.rank - forced.bit_count()
        if left < 0:
            return None
        out = forced
        for pool in pools:
            new = pool & ~out
            if new.bit_count() <= left:
                out |= new
                left -= new.bit_count()
                continue
            for _ in range(left):
                low = new & -new
                out |= low
                new ^= low
            return out
        return out


class PartitionMatroid(Matroid):
    """Per-block capacities; elements outside every block are unconstrained."""

    def __init__(
        self, universe_size: int, blocks: list[tuple[int, tuple[int, ...]]]
    ) -> None:
        self.universe_size = universe_size
        self._block_bits: list[int] = []
        self._caps: list[int] = []
        covered = 0
        for cap, elems in blocks:
            if cap < 0:
                raise ValueError("block capacity must be nonnegative")
            bits = 0
            for e in elems:
                if not 0 <= e < universe_size:
                    raise ValueError(f"block element {e} out of range")
                bits |= 1 << e
            if bits & covered:
                raise ValueError("partition blocks must be disjoint")
            covered |= bits
            self._block_bits.append(bits)
            self._caps.append(cap)
        free = universe_size - covered.bit_count()
        self.rank = free + sum(
            min(cap, bits.bit_count())
            for cap, bits in zip(self._caps, self._block_bits)
        )

    def independent_bits(self, bits: int) -> bool:
        return all(
            (bits & block).bit_count() <= cap
            for cap, block in zip(self._caps, self._block_bits)
        )


class MatroidBaseOracle(FixedSizeOracle):
    def __init__(self, matroid: Matroid) -> None:
        self._m = matroid
        self.member_size = matroid.rank

    @property
    def universe_size(self) -> int:
        return self._m.universe_size

    def is_member_bits(self, bits: int) -> bool:
        return self._m.is_base_bits(bits)

    def _greedy_base(self, forced: int, forbidden: int, prefer: int) -> int | None:
        """Greedy base containing ``forced``, avoiding ``forbidden``, taking
        ``prefer`` elements first (then the rest), all in index order."""
        open_pool = ((1 << self.universe_size) - 1) & ~forced & ~forbidden
        base = self._m.greedy_bits(forced, (open_pool & prefer, open_pool & ~prefer))
        if base is None or base.bit_count() != self._m.rank:
            return None
        return base

    def _search(
        self, forced: int, forbidden: int, marked: int, want: int | None
    ) -> int | None:
        if want is None:
            most = self._greedy_base(forced, forbidden, prefer=marked)
            if most is None:
                raise SoundnessError("greedy optimization did not end at the rank")
            return most
        fewest = self._greedy_base(forced, forbidden, prefer=~marked)
        if fewest is None:
            return None
        most = self._greedy_base(forced, forbidden, prefer=marked)
        if most is None:  # fewest shows that such a base exists
            raise SoundnessError("greedy farthest base did not end at the rank")
        marked &= ~forced
        if not (fewest & marked).bit_count() <= want <= (most & marked).bit_count():
            return None
        current = fewest
        while (current & marked).bit_count() != want:
            current = self._exchange_step(current, most)
            if current is None:
                raise SoundnessError("exchange walk stalled before reaching the count")
        return current

    def _exchange_step(self, d1: int, d2: int) -> int | None:
        """One strong-exchange move of d1 toward d2 (lowest-index choices)."""
        only1 = d1 & ~d2
        if only1 == 0:
            return None
        e1 = (only1 & -only1).bit_length() - 1
        stripped = d1 & ~(1 << e1)
        for e2 in iter_bits(d2 & ~d1):
            cand = stripped | (1 << e2)
            if self._m.independent_bits(cand):
                return cand
        raise SoundnessError("strong exchange property violated")
