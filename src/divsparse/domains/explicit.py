"""Reference adapter for explicitly listed families.

Every capability is a linear scan with first-match tie-breaking in family
order; this is the yardstick the implicit adapters are tested against.
"""

from __future__ import annotations

from ..core import (
    DomainOracle,
    ExtensionOutcome,
    ExtensionQuery,
    Found,
    NOT_FOUND,
    OracleContext,
    SetFamily,
    pm1_weight,
)


class ExplicitOracle(DomainOracle):
    def __init__(self, family: SetFamily) -> None:
        self._family = family
        self._bits = family.bits
        full = (1 << family.universe_size) - 1
        self._complement_closed = all(
            family.contains_bits(full ^ b) for b in self._bits
        )

    @property
    def universe_size(self) -> int:
        return self._family.universe_size

    def opt_pm1(self, positive: int) -> int | None:
        best_bits = None
        best_weight = None
        for b in self._bits:
            w = pm1_weight(b, positive)
            if best_weight is None or w > best_weight:
                best_weight = w
                best_bits = b
        return best_bits

    def exact_extend(
        self, query: ExtensionQuery, ctx: OracleContext | None = None
    ) -> ExtensionOutcome:
        for b in self._bits:
            if query.admits_bits(b):
                return Found(b)
        return NOT_FOUND

    @property
    def complement_closed(self) -> bool:
        return self._complement_closed
