"""Ground-set arithmetic, Hamming distances, and the oracle contracts.

Elements of the ground set are dense integer indices ``0..n-1`` and every
subset is a fixed-width bitmask, so set algebra is plain integer arithmetic
and families have a canonical on-disk form.  All types in this module are
immutable after construction and safe to share across threads; every
operation is a pure function.

Every mask that moves between layers is a raw ``int`` (bit i set means
element i is in the set, or, for the +-1 weights of ``opt_pm1``, that
element i weighs +1): oracle arguments and answers, the constructions and
solvers between them, and the members of a :class:`SetFamily`, which a
:class:`SparsifierReport` hands from one layer to the next and which is
read only through its ``bits``.  :class:`SubsetMask` is a checked mask for
the public boundary alone: solver answers, verification objects, and CLI
input and output.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from .limited import LimitedSparsifyParams
    from .sunflower import SmallSparsifyParams

#: Cap on representable universe sizes.  Masks are arbitrary-precision ints,
#: so this is a policy guard, not a storage limit; raise it if you need to.
MASK_WIDTH_LIMIT = 64


class CapabilityError(RuntimeError):
    """A capability or query that this domain adapter does not offer."""


class GuardError(RuntimeError):
    """A desk-scale size guard was exceeded."""


class SoundnessError(RuntimeError):
    """An oracle answer broke the contract a construction relies on."""


def iter_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits of ``bits``, in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def submasks(mask: int) -> Iterator[int]:
    """Every subset of ``mask``, from 0 up to ``mask``.

    Read as a binary counter over the set bits of ``mask`` (lowest bit
    first), the subsets come in counting order.
    """
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def _check_universe_size(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"universe size must be a positive integer, got {n!r}")
    if n > MASK_WIDTH_LIMIT:
        raise ValueError(
            f"universe size {n} exceeds the configured mask width limit "
            f"({MASK_WIDTH_LIMIT})"
        )


@dataclass(frozen=True)
class SubsetMask:
    """A subset of a ground set, stored as a membership bitmask."""

    universe_size: int
    bits: int

    def __post_init__(self) -> None:
        _check_universe_size(self.universe_size)
        if not 0 <= self.bits < (1 << self.universe_size):
            raise ValueError(
                f"mask {self.bits:#x} has members outside a universe of size "
                f"{self.universe_size}"
            )

    @classmethod
    def empty(cls, universe_size: int) -> "SubsetMask":
        return cls(universe_size, 0)

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.universe_size and bool(self.bits >> index & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __repr__(self) -> str:  # compact: {0,2}/4
        inner = ",".join(str(i) for i in self.members())
        return f"{{{inner}}}/{self.universe_size}"


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free, insertion-ordered list of subsets of one universe.

    ``bits`` holds the members as raw masks, each checked to lie inside the
    universe; it is the family's only view.  An empty family is
    ``SetFamily.from_bits(n, ())``.
    """

    universe_size: int
    bits: tuple[int, ...]
    _member_bits: frozenset[int] = field(
        init=False, repr=False, compare=False, hash=False, default=frozenset()
    )

    def __post_init__(self) -> None:
        n = self.universe_size
        _check_universe_size(n)
        member_bits = frozenset(self.bits)
        if len(member_bits) != len(self.bits):
            raise ValueError("family has a duplicate member")
        if any(b < 0 or b >> n for b in member_bits):
            raise ValueError(f"family member outside a universe of size {n}")
        object.__setattr__(self, "_member_bits", member_bits)

    @classmethod
    def from_bits(cls, universe_size: int, bits: Iterable[int]) -> "SetFamily":
        return cls(universe_size, tuple(bits))

    @classmethod
    def dedup_from_bits(cls, universe_size: int, bits: Iterable[int]) -> "SetFamily":
        """Build a family keeping the first occurrence of each member."""
        return cls(universe_size, tuple(dict.fromkeys(bits)))

    def __len__(self) -> int:
        return len(self.bits)

    def contains_bits(self, bits: int) -> bool:
        return bits in self._member_bits

    def bits_list(self) -> list[int]:
        return list(self.bits)


def pm1_weight(bits: int, positive: int) -> int:
    """+-1 weight sum of ``bits`` when the elements of ``positive`` weigh +1
    and every other element weighs -1."""
    return 2 * (bits & positive).bit_count() - bits.bit_count()


def distance(a: int, b: int, n: int, modified: bool = False) -> int:
    """Hamming distance |a ^ b| of two masks over a universe of size ``n``.

    ``modified`` identifies each set with its complement:
    ``min(|a ^ b|, n - |a ^ b|)``, which is 0 when b equals a or its
    complement and never exceeds floor(n / 2).
    """
    plain = (a ^ b).bit_count()
    return min(plain, n - plain) if modified else plain


@lru_cache(maxsize=256)
def _index_ball(width: int, r: int) -> int:
    """Bit set of the points t < 2**width with at most r set bits."""
    if r < 0:
        return 0
    if r >= width:
        return (1 << (1 << width)) - 1
    low = _index_ball(width - 1, r)
    return low | _index_ball(width - 1, r - 1) << (1 << (width - 1))


# one entry per width; the callers ask for widths up to 16
@lru_cache(maxsize=32)
def _swap_masks(width: int) -> tuple[tuple[int, int], ...]:
    """Per point bit j < width: the shift 2**j and the bit set of the
    points t < 2**width with bit j clear, for a block swap.  Each set is
    its first block of 2**j ones repeated by doubling, with no division
    of a 2**width-bit number."""
    out = []
    for j in range(width):
        step = 1 << j
        keep, period = (1 << step) - 1, 2 * step
        while period < 1 << width:
            keep |= keep << period
            period *= 2
        out.append((step, keep))
    return tuple(out)


def ball_bits(width: int, center: int, r: int) -> int:
    """Bit set of the points t < 2**width within Hamming distance r of
    ``center``, that is with ``(t ^ center).bit_count() <= r``: the ball
    around 0, moved to ``center`` by one block swap per set bit of
    ``center``.  Not cached: callers that repeat arguments cache it."""
    ball = _index_ball(width, r)
    for j, (step, keep) in enumerate(_swap_masks(width)):
        if center >> j & 1:
            ball = (ball & keep) << step | (ball >> step) & keep
    return ball


@dataclass(frozen=True)
class ExtensionQuery:
    """Arguments of an exact-extension query.

    Asks for a domain member at Hamming distance exactly ``radius`` from
    ``center`` that contains ``forced`` and avoids ``forbidden`` (all three
    are raw masks).
    """

    center: int
    radius: int
    forced: int
    forbidden: int

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.forced & self.forbidden:
            raise ValueError("forced and forbidden sets must be disjoint")

    def admits_bits(self, bits: int) -> bool:
        """Whether a candidate member satisfies all three constraints."""
        return (
            (bits ^ self.center).bit_count() == self.radius
            and self.forced & ~bits == 0
            and self.forbidden & bits == 0
        )


@dataclass(frozen=True)
class Found:
    """Extension query succeeded; ``witness`` (a raw mask) satisfies the
    constraints."""

    witness: int


@dataclass(frozen=True)
class NotFound:
    """No domain member satisfies the query."""


@dataclass(frozen=True)
class TrivialSparsifier:
    """Shortcut outcome: ``family`` is k+1 members pairwise more than 2d
    apart, which is by itself a valid d-limited k-max-distance sparsifier."""

    family: SetFamily


ExtensionOutcome = Found | NotFound | TrivialSparsifier

NOT_FOUND = NotFound()


@dataclass(frozen=True)
class OracleContext:
    """Framework parameters forwarded to extension queries.

    Adapters that can trade an exact answer for a trivial sparsifier (the
    min-cut adapter) need to know the caller's ``k``, distance cap ``d``,
    and cluster radius ``p``.  Adapters without such a shortcut ignore it.
    """

    k: int
    d: int
    p: int


def check_trivial_sparsifier(
    out: TrivialSparsifier, ctx: OracleContext | None
) -> None:
    """Raise :class:`SoundnessError` unless ``out`` answers a query made
    with a context and holds k+1 members pairwise more than 2d apart."""
    if ctx is None:
        raise SoundnessError("trivial sparsifier answered a query without context")
    bits = out.family.bits
    if len(bits) != ctx.k + 1:
        raise SoundnessError(
            f"trivial sparsifier has {len(bits)} members, not k+1 = {ctx.k + 1}"
        )
    for i in range(len(bits)):
        for j in range(i + 1, len(bits)):
            if (bits[i] ^ bits[j]).bit_count() <= 2 * ctx.d:
                raise SoundnessError(
                    f"trivial sparsifier members {i} and {j} are within "
                    f"2d = {2 * ctx.d} of each other"
                )


class DomainOracle(ABC):
    """Behavior contract of an implicitly represented solution domain.

    Three capabilities, any of which may be declared unsupported by raising
    :class:`CapabilityError`; every mask they take or return is a raw
    ``int``:

    * ``opt_pm1(positive)``: a domain member maximizing the +-1 weight sum
      in which the elements of ``positive`` weigh +1 and all others -1 (see
      :func:`pm1_weight`), or ``None`` when the domain is empty.  Bits of
      ``positive`` at or above ``universe_size`` are ignored.  Ties are
      broken by the adapter's documented deterministic internal order.
      The maximum must be exact: ``opt_pm1(~c)`` is then a member
      farthest from c, on which the far-set phase ends its search.
    * ``exact_extend(query, ctx)``: a member at exact distance ``radius``
      from ``center`` containing ``forced`` and avoiding ``forbidden``.
    * ``exact_empty_extend(r, forbidden, ctx)``: the special case with empty
      center and forced set, i.e. exact cardinality ``r``.

    Oracles are pure: identical inputs give identical outputs.  A NotFound
    answer stays NotFound when more elements are forced or forbidden at the
    same center and radius; the small construction relies on this to skip
    queries whose answer is already implied.
    """

    @property
    @abstractmethod
    def universe_size(self) -> int: ...

    def opt_pm1(self, positive: int) -> int | None:
        raise CapabilityError(
            f"{type(self).__name__} does not offer the +-1 optimization capability"
        )

    @abstractmethod
    def exact_extend(
        self, query: ExtensionQuery, ctx: OracleContext | None = None
    ) -> ExtensionOutcome: ...

    def exact_empty_extend(
        self, r: int, forbidden: int, ctx: OracleContext | None = None
    ) -> ExtensionOutcome:
        return self.exact_extend(ExtensionQuery(0, r, 0, forbidden), ctx)

    @property
    def complement_closed(self) -> bool:
        """Whether U \\ D is a member whenever D is (needed for the modified
        Hamming distance).  Conservative default: no."""
        return False


class FixedSizeOracle(DomainOracle):
    """A domain whose members all have ``member_size`` elements.

    Both capabilities reduce to one exact-count search, ``_search(forced,
    forbidden, marked, want)``: a member that contains ``forced``, avoids
    ``forbidden`` and has exactly ``want`` elements of ``marked`` outside
    ``forced``, or None when there is none; ``want=None``, which only
    ``opt_pm1`` asks, with nothing forced or forbidden, means as many as
    possible.

    A member's +-1 weight is ``2 |D & P| - member_size``, so the optimum
    is the member with the most +1 elements.  Its distance to a center C
    is ``|D ^ C| = 2 |D \\ C| + |C| - member_size``, so a radius pins how
    many of its elements lie outside C, the marked ones of the search.
    """

    member_size: int

    @abstractmethod
    def _search(
        self, forced: int, forbidden: int, marked: int, want: int | None
    ) -> int | None: ...

    def opt_pm1(self, positive: int) -> int | None:
        return self._search(0, 0, positive, None)

    def exact_extend(
        self, query: ExtensionQuery, ctx: OracleContext | None = None
    ) -> ExtensionOutcome:
        c, r, size = query.center, query.radius, self.member_size
        doubled = r + size - c.bit_count()
        outside = doubled // 2
        forced_outside = (query.forced & ~c).bit_count()
        if doubled % 2 or not forced_outside <= outside <= size or outside > r:
            return NOT_FOUND
        got = self._search(query.forced, query.forbidden, ~c, outside - forced_outside)
        if got is None:
            return NOT_FOUND
        if not query.admits_bits(got):
            raise SoundnessError(
                f"fixed-size search returned {got:#x} outside the query"
            )
        return Found(got)


@dataclass(frozen=True)
class SparsifierReport:
    """A sparsifier, the parameters that reproduce it, and how it was built.

    ``params`` are the small or limited parameters the construction ran
    with (a limited run's ``p`` resolved): building again from them on the
    same oracle gives an equal report.
    """

    family: SetFamily
    params: SmallSparsifyParams | LimitedSparsifyParams
    #: +-1 optimizations the far-set phase issued; a weight mask drawn
    #: again in the phase is answered from its memo and not counted
    calls_opt: int = 0
    calls_extend: int = 0
    #: the members a sunflower run added + 1, summed over a limited run's centers
    passes: int = 0
    #: an extension query surfaced a trivial sparsifier (min-cut shortcut)
    shortcut: bool = False
    #: the clustering phase found k+1 pairwise-far members and stopped
    scattered: bool = False
