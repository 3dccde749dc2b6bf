"""Sunflower-pruned construction of k-max-distance sparsifiers.

A family K ⊆ D is a k-max-distance sparsifier of D with respect to a
reference family F when, for every k reference sets and every vector of
distance lower bounds, F-tuple demands are achievable within K exactly when
they are achievable within D.  This module builds one with respect to the
ball B(empty, r) for domains whose members have cardinality at most
ell <= r, using only the exact empty extension capability.

The construction grows K one member at a time.  A new member of size l'
must avoid a blocker set Y that intersects every current member of size l'
and the core of every sunflower of kr+1 equal-size members, which
guarantees progress and keeps K sunflower-free enough for the classic
sunflower bound (l+1)! (kr+1)^l to apply.

Blockers are enumerated directly as hitting sets in (size, lex) order.  A
cardinality class with no member yet has nothing to hit, so its first
query is the empty blocker, which also tells whether the class has any
member at all.  Every blocker the oracle answered NotFound is remembered
per cardinality, and no blocker containing one is asked again, since
forbidding more elements can only remove members.  The output is the same
as asking every blocker afresh; only the call count drops, and it is
counted where each query is issued.

The classes are taken one at a time, in order of size, each by one walk
from its first query to its last.  A find adds a member and the walk goes
on in place: it finishes the current size over the union it started that
size with, then takes each larger size over the grown union.  The class
record keeps its sunflower cores and the hit tables of the sets a blocker
must intersect.  A new member can only complete sunflowers that use it, so
only the candidate cores inside it are checked again, and a pair
intersection of c elements is a candidate only when t = kr+1 disjoint
petals fit around it in the universe: c + t (l' - c) <= n.

Going on in place asks the queries of restarting from the smallest class
after every find.  Required sets and known-empty sets are only ever added,
and every required set lies inside the member union.  Invariant: when the
walk starts size s, every subset of the union with fewer than s elements
that hits all current required sets holds a known-empty set.  The walk of
its size passed it, or, if a find during that size added one of its
elements, passed its part inside the union that size started with, which
is smaller still and hits the required sets of that time.  So a blocker
of size s that a restart would reach and the walk skips, because a find
during size s added one of its elements, holds a known-empty set: its
part inside the union the size started with has fewer than s elements.
A class that ran dry passed every subset of its union, so it stays dry as
the union grows, and no earlier class is walked again.
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
#: refuse a union of more than 20 elements while some class is not dead.
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
    the blocker walk knows of it.

    For t >= 2 a core is the intersection of two petals, so a pairwise
    intersection c is a candidate when t disjoint petals fit around it,
    |c| + t (l' - |c|) <= n, and is confirmed once t members containing it
    have pairwise-disjoint remainders.  For t == 1 each member is its own
    core.

    The members and cores are the required sets a blocker must intersect.
    ``hits[e]`` holds (as bit j) the required sets j that contain element
    e, and ``later[e]`` those with an element above e; both are updated as
    required sets join, and ``full`` has the bits of all of them.  Every
    required set lies inside the member union, so the tables do not depend
    on it.  ``dead`` is set once an empty required set joins: nothing can
    intersect it.  ``union`` is the member union the walk grows into: the
    union it was started with and every member added since.

    ``known_empty`` holds the blockers answered NotFound, keyed by
    ``y.bit_length()`` (highest element + 1, or 0 for the empty set).
    """

    def __init__(self, t: int, universe_size: int) -> None:
        self.t = t
        self.universe_size = universe_size
        self.members: list[int] = []
        self.cores: list[int] = []
        self._candidates: dict[int, bool] = {}  # candidate -> confirmed
        self.known_empty: dict[int, list[int]] = {}
        self.dead = False
        self.hits = [0] * universe_size
        self.later = [0] * universe_size
        self.full = 0  # the bits of every required set
        self.union = 0

    def _require(self, req: int) -> None:
        if not req:
            self.dead = True
            return
        bit = self.full + 1  # full is 2^j - 1 after j sets
        self.full |= bit
        for e in iter_bits(req):
            self.hits[e] |= bit
        for e in range(req.bit_length() - 1):
            self.later[e] |= bit

    def add(self, member: int) -> None:
        """Append ``member`` and confirm the cores it completes.

        A t-packing that is new must use ``member``, so only candidates
        inside it are checked, and only for t - 1 older members whose
        remainders also miss ``member``'s.
        """
        t = self.t
        if t == 1:
            self.cores.append(member)  # required once, as a member
        else:
            lp, n = member.bit_count(), self.universe_size
            for b in self.members:
                cand = member & b
                c = cand.bit_count()
                if c + t * (lp - c) <= n:  # room for t disjoint petals
                    self._candidates.setdefault(cand, False)
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
                    self._require(cand)
        self.members.append(member)
        self.union |= member
        self._require(member)

    def blockers(self, union_bits: int) -> Iterator[int]:
        """Subsets of the member union that intersect every required set
        and contain no known-empty set, in order of increasing size, then
        lexicographically by element indices: the class's one walk, from
        its first query to its last.

        Yields nothing when the class is dead; yields the empty set first
        when there is nothing to intersect.  ``known_empty`` is read live,
        so sets the caller adds while iterating prune what follows.  The
        walk starts over ``union_bits``; members the caller adds while
        iterating grow ``union``.  After a yield the walk returns if the
        class is now dead.  If ``full`` has changed, a member was added:
        the walk updates the sets its current prefixes miss, finishes the
        current size over the union that size started with, and takes
        each larger size over the grown union.  No blocker of the grown
        union that this skips is left (see the module docstring).

        Each size is a depth-first walk over index-ordered prefixes, one
        loop over an explicit stack: per depth, the prefix, the required
        sets it misses and the next position to try.  The required sets a
        prefix misses are one bit set; a prefix is cut when one of them
        has no element left above the prefix's last one.  Elements join a
        prefix in increasing order, so a known-empty set becomes contained
        exactly when its highest element joins; that is the only moment it
        is checked, and only for a prefix the first cut kept.
        """
        self.union |= union_bits
        known_empty, hits, later = self.known_empty, self.hits, self.later
        size = 0
        while not self.dead and size <= self.union.bit_count():
            if 0 in known_empty:
                return
            if size == 0:
                if not self.full:
                    yield 0
                size = 1
                continue
            pool = list(iter_bits(self.union))
            ys = [0] * size
            nxt = [0] * size
            miss = [0] * size
            seen = miss[0] = self.full
            last = size - 1
            span = len(pool) - last  # depth j stops at position span + j
            depth = 0
            while depth >= 0:
                i = nxt[depth]
                if i >= span + depth:
                    depth -= 1
                    continue
                nxt[depth] = i + 1
                e = pool[i]
                still = miss[depth] & ~hits[e]
                if still & ~later[e] if depth < last else still:
                    continue
                z = ys[depth] | 1 << e
                for b in known_empty.get(e + 1, ()):
                    if not b & ~z:
                        break
                else:
                    if depth < last:
                        depth += 1
                        nxt[depth] = i + 1
                        ys[depth] = z
                        miss[depth] = still
                        continue
                    yield z
                    if self.dead:
                        return
                    if self.full != seen:  # z found a member
                        seen = miss[0] = self.full
                        for j in range(last):
                            miss[j + 1] = miss[j] & ~hits[pool[nxt[j] - 1]]
            size += 1


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

    Takes the cardinalities l' in increasing order.  Each class enumerates
    qualifying blocker sets Y in deterministic order and adds the witness
    the empty extension oracle produces for each Y that finds one, until
    its walk runs out.  Output size is bounded by (ell+1)! (kr+1)^ell.

    A class with no member yet has the empty blocker as its first query,
    so a class with no member at all costs one NotFound.  A blocker
    answered NotFound is never asked again, nor is any blocker containing
    it.  This changes only the call count (``calls_extend`` counts the
    queries actually issued), never the output or when the blocker guard
    fires, provided the oracle honours the monotonicity in
    :class:`DomainOracle`.

    Each class keeps one :class:`_ClassCores` record and is walked by one
    :meth:`_ClassCores.blockers` generator.  A find adds the member, which
    updates the record's cores and hit tables, and the walk goes on in
    place.  The queries and their order are those of restarting at the
    smallest class after every find (see the module docstring), and
    ``passes``, the passes such a restart would make, is the member
    count + 1.  The union guard is checked where the union grows: past
    20 elements it raises while any class, dry or not, is not dead (has
    no empty required set), as that restart would on its next pass.

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
    calls = 0

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

    for lp, group in enumerate(classes):
        for y in group.blockers(union_bits):
            out = oracle.exact_empty_extend(lp, y, ctx)
            calls += 1
            if isinstance(out, TrivialSparsifier):
                check_trivial_sparsifier(out, ctx)
                return SparsifierReport(
                    out.family, params, calls_extend=calls,
                    passes=len(members) + 1, shortcut=True,
                )
            if isinstance(out, Found):
                check_witness(out.witness, lp, y)
                members.append(out.witness)
                group.add(out.witness)
                size = group.union.bit_count()
                if size > BLOCKER_UNION_GUARD and not all(c.dead for c in classes):
                    raise GuardError(
                        f"blocker enumeration over {size} elements exceeds "
                        f"the 2^{BLOCKER_UNION_GUARD} guard"
                    )
            else:
                group.known_empty.setdefault(y.bit_length(), []).append(y)
        union_bits = group.union

    family = SetFamily.from_bits(n, members)
    return SparsifierReport(family, params, calls_extend=calls, passes=len(members) + 1)
