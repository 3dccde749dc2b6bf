"""Ground-truth engine: enumeration, definition checking, exhaustive solves.

Everything here is deliberately direct.  Domains are enumerated by
filtering all subsets of the universe through a membership predicate;
sparsifiers are checked against the definition (via the equivalent
dominance form); the four problems are solved by exhausting center or
witness tuples.  Guards keep each operation at desk scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Sequence

from .core import GuardError, SetFamily, SoundnessError, SubsetMask, distance
from .solvers import ProblemSpec, SolveAnswer

ENUMERATION_GUARD = 20  # largest universe enumerate_domain will scan
REFERENCE_GUARD = 12  # largest universe for materializing 2^U references
TUPLE_GUARD = 10**7  # |domain|^k cap for exhaustive solves
SAMPLE_COUNT = 10_000  # reference sample size beyond the guard


@dataclass(frozen=True)
class VerifyScope:
    """What to check a candidate sparsifier against.

    ``cap`` is the distance cap (None means unlimited, internally the
    maximum possible distance).  The reference family is the domain
    itself, all subsets of the universe, or a ball.
    """

    k: int
    cap: int | None
    reference: str  # "domain" | "all" | "ball"
    ball_center: SubsetMask | None = None
    ball_radius: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.cap is not None and self.cap < 0:
            raise ValueError("cap must be nonnegative")
        if self.reference not in ("domain", "all", "ball"):
            raise ValueError(f"unknown reference family {self.reference!r}")
        if self.reference == "ball" and (
            self.ball_center is None or self.ball_radius is None
        ):
            raise ValueError("ball reference needs a center and radius")

    @classmethod
    def versus_all_subsets(cls, k: int, cap: int | None) -> "VerifyScope":
        return cls(k=k, cap=cap, reference="all")

    @classmethod
    def versus_ball(
        cls, k: int, cap: int | None, center: SubsetMask, radius: int
    ) -> "VerifyScope":
        return cls(
            k=k, cap=cap, reference="ball", ball_center=center, ball_radius=radius
        )


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    #: on failure: (reference tuple F_1..F_k, domain member D) with no
    #: candidate dominating D's capped distances to the F_i
    counterexample: tuple[tuple[SubsetMask, ...], SubsetMask] | None = None
    sampled: bool = False

    def __bool__(self) -> bool:
        return self.ok


def enumerate_domain(instance) -> SetFamily:
    """Materialize the domain of an instance by filtering all subsets.

    ``instance`` needs ``oracle()`` (for its ``universe_size``) and
    ``membership(bits) -> bool``; every parsed instance provides both.
    """
    n = instance.oracle().universe_size
    if n > ENUMERATION_GUARD:
        raise GuardError(
            f"universe of size {n} exceeds the enumeration guard "
            f"({ENUMERATION_GUARD})"
        )
    hits = [bits for bits in range(1 << n) if instance.membership(bits)]
    return SetFamily.from_bits(n, hits)


def _reference_bits(
    scope: VerifyScope, domain: SetFamily, rng: random.Random
) -> tuple[Sequence[int], bool]:
    n = domain.universe_size
    if scope.reference == "domain":
        return domain.bits, False
    # all subsets are the ball of radius n around the empty set; a ball
    # scope always has its center and radius (VerifyScope checks)
    whole = scope.reference == "all"
    center = 0 if whole else scope.ball_center.bits
    radius = n if whole else scope.ball_radius
    if n <= REFERENCE_GUARD:
        return [b for b in range(1 << n) if (b ^ center).bit_count() <= radius], False
    # sampled verification: random reference sets instead of all of them
    samples: set[int] = set()
    if whole:
        while len(samples) < min(SAMPLE_COUNT, 1 << n):
            samples.add(rng.getrandbits(n))
    else:
        for _ in range(SAMPLE_COUNT):
            flips = rng.randint(0, radius)
            flip_bits = 0
            for e in rng.sample(range(n), min(flips, n)):
                flip_bits |= 1 << e
            samples.add(center ^ flip_bits)
    return sorted(samples), True


def verify_sparsifier(
    domain: SetFamily,
    cand: SetFamily,
    scope: VerifyScope,
    rng: random.Random | None = None,
) -> VerifyResult:
    """Check the sparsifier definition via capped-distance dominance.

    For every reference tuple (F_1..F_k) and every domain member D some
    candidate K must satisfy min(cap, |F_i ^ K|) >= min(cap, |F_i ^ D|)
    for all i; this is equivalent to the two-way achievability condition
    because the achievable lower-bound vectors are exactly those dominated
    by some member's distance vector.  Returns the first counterexample.

    Distinct candidate-survivor sets are deduplicated and pruned to
    minimal ones per member before tuples are enumerated, which keeps the
    check polynomial in practice without changing its outcome.
    """
    if rng is None:
        rng = random.Random(0)
    n = domain.universe_size
    if cand.universe_size != n:
        raise ValueError("candidate family universe mismatch")
    for b in cand.bits:
        if not domain.contains_bits(b):
            raise ValueError(
                f"candidate member {SubsetMask(n, b)!r} is not in the domain"
            )
    cap = scope.cap if scope.cap is not None else n
    reference, sampled = _reference_bits(scope, domain, rng)
    cand_bits = cand.bits

    if len(domain) == 0:
        return VerifyResult(ok=True, sampled=sampled)
    if len(cand) == 0:
        some_f = SubsetMask(n, reference[0]) if reference else SubsetMask.empty(n)
        witness = (tuple([some_f] * scope.k), SubsetMask(n, domain.bits[0]))
        return VerifyResult(ok=False, counterexample=witness, sampled=sampled)

    # survivors[f][t] = bitmask over candidates with capped distance >= t
    survivors: list[list[int]] = []
    for f in reference:
        capped = [min(cap, (f ^ kb).bit_count()) for kb in cand_bits]
        row = []
        for t in range(cap + 1):
            mask = 0
            for j, cd in enumerate(capped):
                if cd >= t:
                    mask |= 1 << j
            row.append(mask)
        survivors.append(row)

    full_cand = (1 << len(cand_bits)) - 1
    for d_bits in domain.bits:
        if cand.contains_bits(d_bits):
            continue  # dominated by itself
        groups: dict[int, int] = {}  # survivor mask -> representative f
        for fi, f in enumerate(reference):
            t = min(cap, (f ^ d_bits).bit_count())
            mask = survivors[fi][t]
            if mask not in groups:
                groups[mask] = f
        if full_cand in groups and len(groups) == 1:
            continue
        # keep only minimal survivor sets; supersets can never help fail
        masks = sorted(groups)
        minimal = [
            m for m in masks if not any(o != m and o & m == o for o in masks)
        ]
        found = _empty_intersection(minimal, scope.k)
        if found is not None:
            fs = tuple(SubsetMask(n, groups[m]) for m in found)
            witness = (fs, SubsetMask(n, d_bits))
            if not _is_genuine_counterexample(witness, cand_bits, cap):
                raise SoundnessError(
                    "verify_sparsifier: a candidate dominates the counterexample found"
                )
            return VerifyResult(ok=False, counterexample=witness, sampled=sampled)
    return VerifyResult(ok=True, sampled=sampled)


def _empty_intersection(masks: list[int], k: int) -> tuple[int, ...] | None:
    """A k-multiset of masks with empty intersection, if one exists."""
    for combo in combinations_with_replacement(masks, k):
        inter = combo[0]
        for m in combo[1:]:
            inter &= m
        if inter == 0:
            return combo
    return None


def _is_genuine_counterexample(
    witness: tuple[tuple[SubsetMask, ...], SubsetMask],
    cand_bits: Sequence[int],
    cap: int,
) -> bool:
    fs, d = witness
    for kb in cand_bits:
        if all(
            min(cap, (f.bits ^ kb).bit_count()) >= min(cap, (f.bits ^ d.bits).bit_count())
            for f in fs
        ):
            return False
    return True


def brute_solve(domain: SetFamily, spec: ProblemSpec) -> SolveAnswer:
    """Exhaustive reference answer for all four problems."""
    n = domain.universe_size
    members = domain.bits
    if len(members) ** spec.k > TUPLE_GUARD:
        raise GuardError(
            f"{len(members)}^{spec.k} tuples exceed the exhaustive-solve guard"
        )
    modified = spec.modified
    if not members:
        return SolveAnswer(feasible=False)
    k = spec.k
    if spec.problem in ("maxmin", "maxsum"):
        pair = [[distance(a, b, n, modified) for b in members] for a in members]
        best_sum: int | None = None
        best_combo: tuple[int, ...] | None = None
        for combo in combinations_with_replacement(range(len(members)), k):
            values = [
                pair[combo[i]][combo[j]]
                for i in range(k)
                for j in range(i + 1, k)
            ]
            if spec.problem == "maxmin":
                if all(v >= spec.d for v in values):
                    return SolveAnswer(
                        feasible=True,
                        witnesses=tuple(SubsetMask(n, members[i]) for i in combo),
                    )
            else:
                total = sum(values)
                if best_sum is None or total > best_sum:
                    best_sum = total
                    best_combo = combo
        if spec.problem == "maxmin":
            return SolveAnswer(feasible=False)
        if best_sum is None or best_combo is None:
            raise SoundnessError("brute_solve: the max-sum scan saw no tuple")
        if best_sum < spec.d:
            return SolveAnswer(feasible=False, objective=best_sum)
        return SolveAnswer(
            feasible=True,
            witnesses=tuple(SubsetMask(n, members[i]) for i in best_combo),
            objective=best_sum,
        )

    # clustering: precompute coverage bitmasks per (center, radius)
    cover: list[list[int]] = []
    for c in members:
        row = []
        for radius in range(spec.d + 1):
            mask = 0
            for j, m in enumerate(members):
                if distance(c, m, n, modified) <= radius:
                    mask |= 1 << j
            row.append(mask)
        cover.append(row)
    everyone = (1 << len(members)) - 1

    if spec.problem == "kcenter":
        for combo in combinations_with_replacement(range(len(members)), k):
            covered = 0
            for i in combo:
                covered |= cover[i][spec.d]
            if covered == everyone:
                witnesses = tuple(SubsetMask(n, members[i]) for i in combo)
                radii = tuple(
                    max(
                        (distance(members[i], m, n, modified) for m in members
                         if distance(members[i], m, n, modified) <= spec.d),
                        default=0,
                    )
                    for i in combo
                )
                return SolveAnswer(feasible=True, witnesses=witnesses, radii=radii)
        return SolveAnswer(feasible=False)

    # k-sum-of-radii: try radius vectors by ascending total
    radius_vectors = sorted(
        (v for v in _radius_vectors(spec.d, k)), key=lambda v: (sum(v), v)
    )
    for combo in combinations_with_replacement(range(len(members)), k):
        for vec in radius_vectors:
            covered = 0
            for i, radius in zip(combo, vec):
                covered |= cover[i][radius]
            if covered == everyone:
                return SolveAnswer(
                    feasible=True,
                    witnesses=tuple(SubsetMask(n, members[i]) for i in combo),
                    radii=vec,
                    objective=sum(vec),
                )
    return SolveAnswer(feasible=False)


def _radius_vectors(d: int, k: int) -> list[tuple[int, ...]]:
    """All radius vectors with total at most d."""
    if k == 1:
        return [(r,) for r in range(d + 1)]
    out = []
    for r in range(d + 1):
        for rest in _radius_vectors(d - r, k - 1):
            out.append((r,) + rest)
    return out
