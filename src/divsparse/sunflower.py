"""Sunflower-pruned construction of k-max-distance sparsifiers.

A family K ⊆ D is a k-max-distance sparsifier of D with respect to a
reference family F when, for every k reference sets and every vector of
distance lower bounds, F-tuple demands are achievable within K exactly when
they are achievable within D.  This module builds one with respect to the
ball B(empty, r) for domains whose members have cardinality at most
ell <= r, using only the exact empty extension capability.

The construction grows K one member per pass.  A new member of size l' must
avoid a blocker set Y that intersects every current member of size l' and
the core of every sunflower of kr+1 equal-size members, which guarantees
progress and keeps K sunflower-free enough for the classic sunflower bound
(l+1)! (kr+1)^l to apply.

Blockers are enumerated directly as hitting sets in (size, lex) order.  A
cardinality class with no member yet has nothing to hit, so its first
query is the empty blocker, which also tells whether the class has any
member at all.  The search is incremental across passes: every blocker
the oracle answered NotFound is remembered per cardinality, and no blocker
containing one is asked again, since forbidding more elements can only
remove members.  The output is the same as asking every blocker afresh;
only the call count drops, and it is counted where each query is issued.

Sunflower cores are kept across passes as well, in one record per
cardinality class: a new member can only complete sunflowers that use it,
so only the candidate cores inside it are checked again, and a class that
gains no member keeps its cores.  The hitting-set walk keeps the required
sets a prefix still misses as one bit set over their indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import (
    DomainOracle,
    Found,
    GuardError,
    OracleContext,
    SetFamily,
    SoundnessError,
    SparsifierReport,
    SubsetMask,
    TrivialSparsifier,
    check_trivial_sparsifier,
    iter_bits,
)

#: Blocker sets are enumerated over subsets of the union of current members;
#: refuse to enumerate more than 2^20 of them.
BLOCKER_UNION_GUARD = 20


def _has_disjoint_subfamily(diffs: list[int], need: int) -> bool:
    """Whether ``need`` pairwise-disjoint masks can be picked from
    ``diffs``, a nonempty list of masks of one size.

    ``need`` disjoint masks of size s cover ``need * s`` elements, so a
    smaller union of ``diffs`` refutes at once.
    """
    union = 0
    for b in diffs:
        union |= b
    if need * diffs[0].bit_count() > union.bit_count():
        return False

    def rec(idx: int, used: int, count: int) -> bool:
        if count >= need:
            return True
        for j in range(idx, len(diffs)):
            if count + (len(diffs) - j) < need:
                return False
            if diffs[j] & used == 0 and rec(j + 1, used | diffs[j], count + 1):
                return True
        return False

    return rec(0, 0, 0)


class _ClassCores:
    """One cardinality class: its members in insertion order, the cores of
    its size-``t`` sunflowers, kept up to date as members join, and what
    the blocker search knows of it.

    For t >= 2 a core is the intersection of two petals, so each pairwise
    intersection is a candidate, confirmed once t members containing it
    have pairwise-disjoint remainders.  For t == 1 each member is its own
    core.

    ``known_empty`` holds the blockers answered NotFound, keyed as
    :func:`_hitting_sets` reads them (the empty set when the class has no
    member at all); ``drained`` is the (member union, class size) of the
    last pass in which no blocker was left to ask, or None.
    """

    def __init__(self, t: int, universe_size: int) -> None:
        self.t = t
        self.universe_size = universe_size
        self.members: list[int] = []
        self.cores: list[int] = []
        self._candidates: dict[int, bool] = {}  # candidate -> confirmed
        self.known_empty: dict[int, list[int]] = {}
        self.drained: tuple[int, int] | None = None

    def add(self, member: int) -> None:
        """Append ``member`` and confirm the cores it completes.

        A t-packing that is new must use ``member``, so only candidates
        inside it are checked, and only for t - 1 older members whose
        remainders also miss ``member``'s.
        """
        t = self.t
        if t == 1:
            self.cores.append(member)
        # t pairwise-disjoint nonempty remainders cannot fit in the universe
        elif t <= self.universe_size:
            for b in self.members:
                self._candidates.setdefault(member & b, False)
            for cand, confirmed in self._candidates.items():
                if confirmed or cand & ~member:
                    continue
                rest = member ^ cand
                diffs = [
                    g ^ cand
                    for g in self.members
                    if g & cand == cand and not (g ^ cand) & rest
                ]
                if len(diffs) >= t - 1 and _has_disjoint_subfamily(diffs, t - 1):
                    self._candidates[cand] = True
                    self.cores.append(cand)
        self.members.append(member)

    def required(self) -> list[int]:
        """The sets a blocker for this class must intersect."""
        return self.members + self.cores


def _hitting_sets(
    union_bits: int, required: list[int], known_empty: dict[int, list[int]]
) -> Iterator[int]:
    """Subsets of the member union that intersect every required set.

    Ordered by increasing size, then lexicographically by member indices;
    the order of ``required`` and repeats in it do not matter.  Yields
    nothing when some required set is empty (nothing can hit it); yields
    the empty set first when there is nothing to intersect.

    Sets containing a known-empty set are skipped.  ``known_empty`` maps
    ``y.bit_length()`` (highest element + 1, or 0 for the empty set) to the
    known-empty sets ``y``; it is read live, so sets the caller adds while
    iterating prune what follows.

    Each size is a depth-first walk over index-ordered prefixes.  Elements
    join a prefix in increasing order, so a known-empty set becomes
    contained exactly when its highest element joins; that is the only
    moment it is checked.  The required sets a prefix misses are one bit
    set over their indices; a prefix is cut when one of them has no
    element left above the prefix's last index.
    """
    if any(req == 0 for req in required):
        return
    elems = list(iter_bits(union_bits))
    if len(elems) > BLOCKER_UNION_GUARD:
        raise GuardError(
            f"blocker enumeration over {len(elems)} elements exceeds the "
            f"2^{BLOCKER_UNION_GUARD} guard"
        )
    # per element e: hits[e], the required sets containing e, and later[e],
    # those with a union element above e (first filled with the sets whose
    # highest union element is e)
    hits = [0] * union_bits.bit_length()
    later = [0] * union_bits.bit_length()
    for j, req in enumerate(required):
        inside = req & union_bits
        for e in iter_bits(inside):
            hits[e] |= 1 << j
        if inside:
            later[inside.bit_length() - 1] |= 1 << j
    above = 0
    for e in reversed(elems):
        later[e], above = above, above | later[e]

    def grow(y: int, start: int, left: int, missed: int) -> Iterator[int]:
        for i in range(start, len(elems) - left + 1):
            e = elems[i]
            z = y | 1 << e
            blocked = known_empty.get(e + 1)
            if blocked and any(b & ~z == 0 for b in blocked):
                continue
            still = missed & ~hits[e]
            if left == 1:
                if not still:
                    yield z
            elif not still & ~later[e]:
                yield from grow(z, i + 1, left - 1, still)

    for size in range(len(elems) + 1):
        if 0 in known_empty:
            return
        if size == 0:
            if not required:
                yield 0
        else:
            yield from grow(0, 0, size, (1 << len(required)) - 1)


@dataclass(frozen=True)
class SmallSparsifyParams:
    """Parameters for the small-cardinality sparsifier.

    ``k`` is the sparsifier order, ``r`` the reference ball radius, and
    ``ell`` the maximum member cardinality of the domain (requires
    ell <= r).
    """

    k: int
    r: int
    ell: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.r < 0 or self.ell < 0:
            raise ValueError("r and ell must be nonnegative")
        if self.ell > self.r:
            raise ValueError(f"ell ({self.ell}) must not exceed r ({self.r})")


def k_sparsify(
    params: SmallSparsifyParams, oracle: DomainOracle, ctx: OracleContext | None = None
) -> SparsifierReport:
    """Build a k-max-distance sparsifier w.r.t. B(empty, r).

    Grows the output one member per pass: for each cardinality l' it
    enumerates qualifying blocker sets Y in deterministic order and adds the
    first witness the empty extension oracle produces, stopping when a full
    pass adds nothing.  Output size is bounded by (ell+1)! (kr+1)^ell.

    A class with no member yet has the empty blocker as its first query,
    so a class with no member at all costs one NotFound and is never
    enumerated again.  Answers are remembered across passes: a blocker
    answered NotFound is never asked again, nor is any blocker containing
    it, and a class with no blocker left is not enumerated again until the
    member union or the class changes.  This changes only the call count
    (``calls_extend`` counts the queries actually issued), never the
    output, the pass count or when the blocker guard fires, provided the
    oracle honours the monotonicity in :class:`DomainOracle`.  Each class
    keeps one :class:`_ClassCores` record across passes, whose cores are
    updated only when it gains a member, with the checks it can complete.

    Every query carries ``ctx``.  If the oracle surfaces a trivial
    sparsifier, that family is returned at once with ``shortcut`` set,
    once :func:`check_trivial_sparsifier` accepts it under ``ctx``; with
    no context it is refused.

    Every witness is checked (no element outside the universe, cardinality
    l', disjoint from Y, not already a member); a violation raises
    :class:`SoundnessError`.
    """
    n = oracle.universe_size
    t = params.k * params.r + 1
    ell_cap = min(params.ell, n)
    members: list[int] = []
    union_bits = 0
    classes = [_ClassCores(t, n) for _ in range(ell_cap + 1)]
    passes = calls = 0

    def check_witness(got: int, lp: int, y: int) -> None:
        if got < 0 or got >> n:
            raise SoundnessError(
                f"witness {got:#x} has elements outside a universe of size {n}"
            )
        if got.bit_count() != lp:
            raise SoundnessError(
                f"witness {SubsetMask(n, got)!r} does not have size {lp}"
            )
        # before the blocker check: Y meets every member of size l', so a
        # repeated member would otherwise be reported as meeting Y; after
        # the size check, so only class l' can hold it
        if got in classes[lp].members:
            raise SoundnessError(f"witness {SubsetMask(n, got)!r} is already a member")
        if got & y:
            raise SoundnessError(
                f"witness {SubsetMask(n, got)!r} meets the blocker {SubsetMask(n, y)!r}"
            )

    while True:
        passes += 1
        added = False
        for lp, group in enumerate(classes):
            # same union and class as a drained pass: the same blockers,
            # which are still all known empty, and the same guard outcome
            key = (union_bits, len(group.members))
            if group.drained == key:
                continue
            for y in _hitting_sets(union_bits, group.required(), group.known_empty):
                out = oracle.exact_empty_extend(lp, y, ctx)
                calls += 1
                if isinstance(out, TrivialSparsifier):
                    check_trivial_sparsifier(out, ctx)
                    return SparsifierReport(
                        out.family, params, calls_extend=calls, passes=passes,
                        shortcut=True,
                    )
                if isinstance(out, Found):
                    check_witness(out.witness, lp, y)
                    members.append(out.witness)
                    union_bits |= out.witness
                    group.add(out.witness)
                    added = True
                    break
                group.known_empty.setdefault(y.bit_length(), []).append(y)
            if added:
                break
            group.drained = key
        if not added:
            break

    return SparsifierReport(
        SetFamily.from_bits(n, members), params, calls_extend=calls, passes=passes
    )
