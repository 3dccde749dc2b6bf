"""Exact solvers for diversification and clustering on implicit domains.

All four problems reduce to a small sparsifier of the domain:

* max-min / max-sum diversification searches k-tuples (with repetition)
  over a (k-1)-order sparsifier; capped pairwise distances transfer, so an
  achievable threshold on the domain is achievable on the sparsifier.
* k-center / k-sum-of-radii clustering partitions a k-order, cap d+1
  sparsifier into at most k clusters and asks the extension oracle for the
  cheapest center of each cluster, closest-string style: elements the
  cluster disagrees on are guessed, the rest is one exact-distance query.

The modified Hamming distance (sets identified with their complements)
doubles the sparsifier order and guesses an orientation per cluster
member; it requires a complement-closed domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations_with_replacement
from typing import Protocol, Sequence

from .core import (
    DomainOracle,
    ExtensionQuery,
    Found,
    OracleContext,
    SetFamily,
    SoundnessError,
    SparsifierReport,
    SubsetMask,
    TrivialSparsifier,
    distance,
    submasks,
)
from .limited import LimitedSparsifyParams, dk_sparsify
from .sunflower import SmallSparsifyParams, k_sparsify


@dataclass(frozen=True)
class ProblemSpec:
    problem: str
    k: int
    d: int
    modified: bool = False

    def __post_init__(self) -> None:
        if self.problem not in _SOLVERS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.d < 0:
            raise ValueError("d must be nonnegative")


@dataclass(frozen=True)
class SolveAnswer:
    feasible: bool
    witnesses: tuple[SubsetMask, ...] = ()
    radii: tuple[int, ...] | None = None
    objective: int | None = None


class SparsifierBuilder(Protocol):
    """Builds a ``k``-order sparsifier with distance cap ``cap``.

    ``modified`` asks for one usable under the modified Hamming distance
    (reference sets include complements)."""

    def __call__(
        self, oracle: DomainOracle, k: int, cap: int, modified: bool
    ) -> SparsifierReport: ...


def small_builder(ell: int) -> SparsifierBuilder:
    """Sunflower-based builder for domains with member size at most ell.

    Uses ball radius ell (the full universe under the modified distance, so
    complements fall inside the reference family); the result is a full
    max-distance sparsifier, hence valid under any cap.
    """

    def build(
        oracle: DomainOracle, k: int, cap: int, modified: bool
    ) -> SparsifierReport:
        r = oracle.universe_size if modified else ell
        return k_sparsify(SmallSparsifyParams(k=k, r=r, ell=ell), oracle)

    return build


def limited_builder(
    seed: int = 0,
    epsilon: float = 0.01,
    p: int | None = None,
    trials: int | None = None,
) -> SparsifierBuilder:
    """Randomized builder for unbounded member sizes (cap-d-limited)."""

    def build(
        oracle: DomainOracle, k: int, cap: int, modified: bool
    ) -> SparsifierReport:
        params = LimitedSparsifyParams(
            k=k, d=cap, p=p, epsilon=epsilon, trials_override=trials, seed=seed
        )
        return dk_sparsify(oracle, params)

    return build


class GloballyInfeasible(Exception):
    """Raised when an extension query proves no clustering can exist."""

    def __init__(self, family: SetFamily) -> None:
        super().__init__("trivial sparsifier rules out any clustering")
        self.family = family


def _require_modified_support(oracle: DomainOracle, spec: ProblemSpec) -> None:
    if spec.modified and not oracle.complement_closed:
        raise ValueError(
            "the modified Hamming distance needs a complement-closed domain"
        )


def _diversification_family(
    oracle: DomainOracle, spec: ProblemSpec, builder: SparsifierBuilder
) -> SetFamily:
    order = 2 * spec.k - 2 if spec.modified else spec.k - 1
    rep = builder(oracle, max(1, order), spec.d, spec.modified)
    return rep.family


def _max_min(
    oracle: DomainOracle, spec: ProblemSpec, sparsifier_builder: SparsifierBuilder
) -> SolveAnswer:
    """Is there a k-tuple with all pairwise distances at least d?

    Tuples allow repetition, so k = 1 or d = 0 reduce to non-emptiness.
    """
    family = _diversification_family(oracle, spec, sparsifier_builder)
    bits = family.bits_list()
    n = family.universe_size
    for combo in combinations_with_replacement(range(len(bits)), spec.k):
        if all(
            distance(bits[combo[i]], bits[combo[j]], n, spec.modified)
            >= spec.d
            for i in range(spec.k)
            for j in range(i + 1, spec.k)
        ):
            witnesses = tuple(SubsetMask(n, bits[i]) for i in combo)
            return SolveAnswer(feasible=True, witnesses=witnesses)
    return SolveAnswer(feasible=False)


def _max_sum(
    oracle: DomainOracle, spec: ProblemSpec, sparsifier_builder: SparsifierBuilder
) -> SolveAnswer:
    """Is there a k-tuple with pairwise distance sum at least d?

    Also reports the best sum seen over the sparsifier as the objective.
    """
    family = _diversification_family(oracle, spec, sparsifier_builder)
    bits = family.bits_list()
    n = family.universe_size
    best: int | None = None
    best_combo: tuple[int, ...] | None = None
    for combo in combinations_with_replacement(range(len(bits)), spec.k):
        total = sum(
            distance(bits[combo[i]], bits[combo[j]], n, spec.modified)
            for i in range(spec.k)
            for j in range(i + 1, spec.k)
        )
        if best is None or total > best:
            best = total
            best_combo = combo
    if best is None or best < spec.d:
        return SolveAnswer(feasible=False, objective=best)
    assert best_combo is not None
    witnesses = tuple(SubsetMask(n, bits[i]) for i in best_combo)
    return SolveAnswer(feasible=True, witnesses=witnesses, objective=best)


def min_cluster_radius(
    cluster: Sequence[int],
    d: int,
    oracle: DomainOracle,
    ctx: OracleContext | None = None,
) -> tuple[int, int] | None:
    """Least radius r <= d with a domain member covering the whole cluster.

    Closest-string style: the cluster's disagreement elements are few or
    the answer is already out of reach; guessing the center's trace on them
    pins the farthest cluster member, leaving one exact-distance query per
    guess.  Returns (radius, center) or None; a trivial-sparsifier outcome
    aborts the whole clustering via :class:`GloballyInfeasible`.  A center
    that does not cover the cluster raises :class:`SoundnessError`.
    """
    if not cluster:
        raise ValueError("cluster must be nonempty")
    if d < 0:
        raise ValueError("d must be nonnegative")
    masks = list(cluster)
    if any(not 0 <= m < 1 << oracle.universe_size for m in masks):
        raise ValueError("cluster member has elements outside the universe")
    agreement_all = masks[0]
    union_all = masks[0]
    for b in masks[1:]:
        agreement_all &= b
        union_all |= b
    bad = union_all & ~agreement_all
    if bad.bit_count() > d * len(masks):
        return None
    # a center within r of both endpoints of the widest pair needs 2r >= diam
    diam = max(
        ((a ^ b).bit_count() for a, b in combinations_with_replacement(masks, 2)),
        default=0,
    )
    start = (diam + 1) // 2
    for radius in range(start, d + 1):
        for trace in submasks(bad):
            # the farthest member only depends on the trace over bad elements
            far_idx = max(
                range(len(masks)),
                key=lambda i: (((masks[i] & bad) ^ trace).bit_count(), -i),
            )
            query = ExtensionQuery(
                center=masks[far_idx],
                radius=radius,
                forced=trace,
                forbidden=bad & ~trace,
            )
            out = oracle.exact_extend(query, ctx)
            if isinstance(out, TrivialSparsifier):
                raise GloballyInfeasible(out.family)
            if isinstance(out, Found):
                center = out.witness
                if any((center ^ m).bit_count() > radius for m in masks):
                    raise SoundnessError(
                        f"cluster coverage certificate failed: center {center:#x} "
                        f"is farther than {radius} from a cluster member"
                    )
                return radius, center
    return None


def _oriented_variants(masks: list[int], n: int) -> list[list[int]]:
    """Orientation guesses for the modified distance, first member fixed.

    Complement closure makes the fully flipped assignment equivalent, so
    fixing the first member halves the guesses.
    """
    full = (1 << n) - 1
    out: list[list[int]] = []
    rest = len(masks) - 1
    for guess in range(1 << rest):
        oriented = [masks[0]]
        for j in range(rest):
            b = masks[j + 1]
            oriented.append(b ^ full if guess >> j & 1 else b)
        out.append(oriented)
    return out


class _ClusterCostCache:
    """Memoized per-cluster minimum radius, plain or modified."""

    def __init__(
        self,
        oracle: DomainOracle,
        d: int,
        n: int,
        modified: bool,
        ctx: OracleContext | None,
    ) -> None:
        self._oracle = oracle
        self._d = d
        self._n = n
        self._modified = modified
        self._ctx = ctx
        self._memo: dict[frozenset[int], tuple[int, int] | None] = {}

    def evaluate(self, member_bits: frozenset[int]) -> tuple[int, int] | None:
        if member_bits in self._memo:
            return self._memo[member_bits]
        masks = sorted(member_bits)
        n = self._n
        result: tuple[int, int] | None = None
        if not self._modified:
            result = min_cluster_radius(masks, self._d, self._oracle, self._ctx)
        else:
            for oriented in _oriented_variants(masks, n):
                # only strictly better radii matter; diameters filter cheaply
                cap = self._d if result is None else result[0] - 1
                if cap < 0:
                    break
                diam = max(
                    (
                        (oriented[i] ^ oriented[j]).bit_count()
                        for i in range(len(oriented))
                        for j in range(i + 1, len(oriented))
                    ),
                    default=0,
                )
                if diam > 2 * cap:
                    continue
                got = min_cluster_radius(oriented, cap, self._oracle, self._ctx)
                if got is not None and (result is None or got[0] < result[0]):
                    result = got
                    if result[0] == 0:
                        break
        self._memo[member_bits] = result
        return result


def _solve_clustering(
    oracle: DomainOracle,
    spec: ProblemSpec,
    sparsifier_builder: SparsifierBuilder,
    sum_mode: bool,
) -> SolveAnswer:
    """Can k balls around domain members cover the domain, with every
    radius at most d (k-center) or the radius sum at most d (sum mode)?"""
    order = 2 * spec.k if spec.modified else spec.k
    rep = sparsifier_builder(oracle, order, spec.d + 1, spec.modified)
    members = rep.family.bits_list()
    n = rep.family.universe_size
    if not members:
        return SolveAnswer(feasible=False)  # empty domain has no center tuple
    k = spec.k
    ctx = OracleContext(k=spec.k, d=spec.d, p=spec.d)
    cache = _ClusterCostCache(oracle, spec.d, n, spec.modified, ctx)

    dist = [[distance(a, b, n, spec.modified) for b in members] for a in members]

    clusters: list[list[int]] = []

    def cluster_cost(cluster: list[int]) -> int | None:
        got = cache.evaluate(frozenset(members[i] for i in cluster))
        return None if got is None else got[0]

    def assign(idx: int, budget: int) -> bool:
        """Assign member idx; clusters are opened in canonical order."""
        if idx == len(members):
            return True
        for ci, cluster in enumerate(clusters):
            if any(dist[idx][j] > 2 * spec.d for j in cluster):
                continue  # no center can cover both within d
            before = cluster_cost(cluster)
            assert before is not None  # cluster was feasible when formed
            cluster.append(idx)
            after = cluster_cost(cluster)
            # budget tracks d minus the radius sum of all current clusters
            ok = after is not None and (not sum_mode or after - before <= budget)
            if ok:
                spent = after - before if sum_mode else 0
                if assign(idx + 1, budget - spent):
                    return True
            cluster.pop()
        if len(clusters) < k:
            clusters.append([idx])
            cost = cluster_cost(clusters[-1])
            if cost is not None and (not sum_mode or cost <= budget):
                if assign(idx + 1, budget - (cost if sum_mode else 0)):
                    return True
            clusters.pop()
        return False

    try:
        feasible = assign(0, spec.d)
    except GloballyInfeasible:
        return SolveAnswer(feasible=False)

    if not feasible:
        return SolveAnswer(feasible=False)

    witnesses: list[SubsetMask] = []
    radii: list[int] = []
    for cluster in clusters:
        got = cache.evaluate(frozenset(members[i] for i in cluster))
        assert got is not None
        radius, center = got
        witnesses.append(SubsetMask(n, center))
        radii.append(radius)
    while len(witnesses) < k:  # unused slots: repeat a center at radius 0
        witnesses.append(witnesses[0])
        radii.append(0)
    if sum_mode:
        assert sum(radii) <= spec.d
    else:
        assert max(radii) <= spec.d
    objective = sum(radii) if sum_mode else None
    return SolveAnswer(
        feasible=True,
        witnesses=tuple(witnesses),
        radii=tuple(radii),
        objective=objective,
    )


_SOLVERS = {
    "maxmin": _max_min,
    "maxsum": _max_sum,
    "kcenter": partial(_solve_clustering, sum_mode=False),
    "ksumradii": partial(_solve_clustering, sum_mode=True),
}


def solve(
    oracle: DomainOracle, spec: ProblemSpec, sparsifier_builder: SparsifierBuilder
) -> SolveAnswer:
    """Answer ``spec`` on the domain behind ``oracle`` exactly, searching a
    sparsifier from ``sparsifier_builder``."""
    _require_modified_support(oracle, spec)
    return _SOLVERS[spec.problem](oracle, spec, sparsifier_builder)
