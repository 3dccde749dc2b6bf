"""Union of several domains over one ground set.

Optimization takes the best answer over the parts; extension queries take
the first witness in part order.  A trivial sparsifier surfaced by a part
stays valid for the union (its members belong to the union and keep their
pairwise distances), so it is propagated; its consumer checks it.
"""

from __future__ import annotations

from typing import Sequence

from ..core import (
    DomainOracle,
    ExtensionOutcome,
    ExtensionQuery,
    Found,
    NOT_FOUND,
    OracleContext,
    TrivialSparsifier,
    pm1_weight,
)


class UnionOracle(DomainOracle):
    def __init__(self, parts: Sequence[DomainOracle]) -> None:
        if not parts:
            raise ValueError("a union needs at least one part")
        sizes = {p.universe_size for p in parts}
        if len(sizes) != 1:
            raise ValueError("union parts must share one ground set")
        self._parts = list(parts)

    @property
    def universe_size(self) -> int:
        return self._parts[0].universe_size

    def opt_pm1(self, positive: int) -> int | None:
        best = None
        best_weight = None
        for part in self._parts:
            got = part.opt_pm1(positive)
            if got is None:
                continue
            w = pm1_weight(got, positive)
            if best_weight is None or w > best_weight:
                best_weight = w
                best = got
        return best

    def exact_extend(
        self, query: ExtensionQuery, ctx: OracleContext | None = None
    ) -> ExtensionOutcome:
        for part in self._parts:
            out = part.exact_extend(query, ctx)
            if isinstance(out, (Found, TrivialSparsifier)):
                return out
        return NOT_FOUND

    @property
    def complement_closed(self) -> bool:
        return all(p.complement_closed for p in self._parts)
