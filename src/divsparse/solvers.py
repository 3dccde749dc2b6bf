"""Exact solvers for diversification and clustering on implicit domains.

All four problems reduce to a small sparsifier of the domain, built by
the pipeline whose params :func:`solve` is given (small or limited; the
problem sets their order, cap and radius):

* max-min diversification is a clique search for k members of a
  (k-1)-order sparsifier pairwise at least d apart.  It runs on the far
  graph at d - 1, whose row i is the bit set of the members more than
  d - 1 from member i; no distance matrix is held.  Max-sum is a
  depth-first search over the k-tuples with repetition, on every member's
  row of distances (one byte each), that cuts every branch unable to beat
  the best sum.  One builder yields those rows to all four solvers.
  Capped pairwise distances transfer, so an achievable threshold on the
  domain is achievable on the sparsifier.
* k-center / k-sum-of-radii clustering partitions a k-order, cap d+1
  sparsifier into at most k clusters and asks the extension oracle for the
  cheapest center of each cluster, closest-string style: elements the
  cluster disagrees on are guessed, the rest is one exact-distance query.
  The search asks only what its decision needs, and skips every query
  whose answer is already implied: k+1 sparsifier members pairwise more
  than 2d apart, a clique of the far graph at 2d, answer NO at once (no
  ball of radius d holds two of them, and no cluster does; the modified
  distance is a pseudometric too); a one-member cluster is its own center
  at radius 0 (a sparsifier member is a domain member, and the radius-0
  query at it admits only itself, under either distance); and a grown
  cluster that contains a cluster no center covers within d is not
  evaluated, since a center of the larger cluster would cover the smaller
  one.  k-center decides a grown cluster on whether some domain member
  lies within d of all its members.  Each member holds the bit set of the
  sparsifier members within d of it (the complement of the far graph at d,
  built in the same pass as the one at 2d), each cluster the AND of its
  members' sets, and a grown cluster whose set is not empty joins without
  a query; otherwise a query decides it.  k-sum-of-radii needs the least radius only up to the
  held radius plus the budget left: a member within the radius of its
  cluster's current center joins without a query, since radii never
  shrink as a cluster grows; otherwise the grown cluster's radius search
  starts at the old radius and stops at that cap.  A trace guess whose
  cluster spread on the guessed elements alone exceeds the radius is never
  asked.
  The guesses within the radius of every member are found by intersecting
  the members' balls as bit sets over guess indices, not by walking every
  guess; each ball is built once and cached.  Within one solve each
  distinct query reaches the oracle once: later asks are answered from a
  per-solve query memo.  The witnesses and radii are recomputed from the
  final clusters: a cluster the search evaluated is answered from the
  cluster memo, and one it did not is evaluated then, asking the oracle
  past the query memo.  The recheck raises :class:`SoundnessError` when a
  final cluster has no center within d (k-center) or a radius other than
  the one the search held (k-sum-of-radii).

The modified Hamming distance (sets identified with their complements)
doubles the sparsifier order and guesses an orientation per cluster
member; it requires a complement-closed domain.  An orientation with two
members more than 2d apart has no center within d and is never asked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce
from itertools import accumulate, combinations, starmap
from operator import add, and_, or_, xor
from typing import Callable, Iterator, Sequence

from .core import (
    DomainOracle,
    ExtensionQuery,
    Found,
    GuardError,
    NotFound,
    OracleContext,
    SoundnessError,
    SparsifierReport,
    SubsetMask,
    TrivialSparsifier,
    ball_bits,
    check_trivial_sparsifier,
    distance,
    iter_bits,
    submasks,
)
from .limited import LimitedSparsifyParams, dk_sparsify
from .sunflower import SmallSparsifyParams, k_sparsify


@dataclass(frozen=True)
class ProblemSpec:
    """One instance of the four problems: ``problem`` is ``"maxmin"``,
    ``"maxsum"``, ``"kcenter"`` or ``"ksumradii"``, ``k`` the tuple size
    or number of centers, ``d`` the distance threshold (max-min, max-sum)
    or radius bound (k-center, k-sum-of-radii), and ``modified`` selects
    the modified Hamming distance, under which a set and its complement
    are at distance 0."""

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
    """The answer to a :class:`ProblemSpec`.

    ``feasible`` is the YES/NO answer and ``witnesses`` the k domain
    members proving a YES (empty on NO).  ``radii`` is the radius of each
    witness's cluster on a clustering YES and ``None`` otherwise: on every
    NO and for max-min and max-sum.  ``objective`` is the radius sum on a
    k-sum-of-radii YES and the best pairwise distance sum of the
    sparsifier searched for max-sum, on YES and on NO alike (below d on a
    NO, ``None`` when the sparsifier is empty); it is ``None`` otherwise.
    """

    feasible: bool
    witnesses: tuple[SubsetMask, ...] = ()
    radii: tuple[int, ...] | None = None
    objective: int | None = None


def _sparsify(
    oracle: DomainOracle,
    params: SmallSparsifyParams | LimitedSparsifyParams,
    k: int,
    cap: int,
    modified: bool,
) -> SparsifierReport:
    """The ``k``-order, cap-``cap`` sparsifier of the pipeline ``params``
    selects (see :func:`solve`).  A small one is a full sparsifier, valid
    under any cap, whose ball takes in the complements under ``modified``."""
    # called through this module's names, which the benchmark's tracer rebinds
    if isinstance(params, SmallSparsifyParams):
        r = oracle.universe_size if modified else params.ell
        return k_sparsify(replace(params, k=k, r=r), oracle)
    return dk_sparsify(oracle, replace(params, k=k, d=cap))


class GloballyInfeasible(Exception):
    """Raised when an extension query proves no clustering can exist."""


def _diversify(
    oracle: DomainOracle,
    spec: ProblemSpec,
    params: SmallSparsifyParams | LimitedSparsifyParams,
    sum_mode: bool,
) -> SolveAnswer:
    """Is there a k-tuple with every pairwise distance at least d (max-min),
    or with pairwise distance sum at least d (sum mode)?

    Tuples allow repetition, so max-min with d = 0 reduces to non-emptiness
    (member 0, k times); for d >= 1 it is the clique search for k distinct
    members pairwise at least d apart, whose first clique is the first hit
    of a scan over the k-tuples.  Sum mode walks the k-tuples in the same
    lexicographic order, depth first, and cuts every branch whose bound
    cannot beat the best sum strictly (:func:`_max_sum_tuple`); it reports
    the best sum as the objective, witnessed by the first tuple reaching it.
    That is the best pairwise sum over the sparsifier searched, at least d
    on YES: the domain's maximum for a full sparsifier (small mode), and
    anywhere in [d, maximum] for a d-limited one, which keeps distances
    only up to the cap.
    """
    order = 2 * spec.k - 2 if spec.modified else spec.k - 1
    rep = _sparsify(oracle, params, max(1, order), spec.d, spec.modified)
    members = rep.family.bits
    n = rep.family.universe_size
    best: int | None = None
    found = (0,) * spec.k if members else None
    if sum_mode:
        dist = list(_distance_rows(members, n, spec.modified))
        best, found = _max_sum_tuple(dist, spec.k)
    elif spec.d:
        (far,) = _far_graphs(members, n, spec.modified, (spec.d - 1,))
        found = _pairwise_far(far, spec.k)
    if found is None or (best is not None and best < spec.d):
        return SolveAnswer(feasible=False, objective=best)
    witnesses = tuple(SubsetMask(n, members[i]) for i in found)
    return SolveAnswer(feasible=True, witnesses=witnesses, objective=best)


#: a trace table covers at most 2**TRACE_TABLE_BITS traces, 512 bytes as a
#: bit set; a cluster disagreeing on more elements loops over the rest
TRACE_TABLE_BITS = 12


# at most 1024 balls of at most 2**TRACE_TABLE_BITS bits (512 bytes) each,
# under 1 MB in all
_ball_at = lru_cache(maxsize=1024)(ball_bits)


# a pass over the benchmark's cluster jobs meets about 1,000-1,300 keys
# per helper: 4096 keeps them all and keeps the caches bounded
@lru_cache(maxsize=4096)
def _trace_index(low: int, trace: int) -> int:
    """The trace index of ``trace``, a subset of ``low``: bit j is set when
    the j-th lowest element of ``low`` is in ``trace``."""
    index = 0
    for j, e in enumerate(iter_bits(low)):
        index |= (trace >> e & 1) << j
    return index


@lru_cache(maxsize=4096)
def _index_trace(low: int, index: int) -> int:
    """The trace of trace index ``index`` over ``low``: the inverse of
    :func:`_trace_index`."""
    trace = 0
    for j, e in enumerate(iter_bits(low)):
        trace |= (index >> j & 1) << e
    return trace


def min_cluster_radius(
    cluster: Sequence[int],
    d: int,
    oracle: DomainOracle,
    ctx: OracleContext | None = None,
    lo: int = 0,
    memo: dict[tuple[int, int, int, int], Found | NotFound] | None = None,
) -> tuple[int, int] | None:
    """Least radius r <= d with a domain member covering the whole cluster.

    Closest-string style: the cluster's disagreement elements ``bad`` are
    few or the answer is already out of reach; guessing the center's trace
    T on them pins the farthest cluster member, leaving one exact-distance
    query per guess.  Members agree off ``bad``, so any center with trace T
    is exactly ``need(T) = max_i |(m_i & bad) ^ T|`` farther from the
    farthest member than the common offset: a trace with ``need(T) > r``
    cannot answer at radius r and is not asked.  The search starts at
    ``lo``, a known lower bound on the least radius (such as the radius of
    a subcluster); any ``lo`` up to the true least radius gives the same
    answer as ``lo = 0``.

    At radius r the traces asked are those within r of every member on
    ``bad``, in :func:`~divsparse.core.submasks` order.  They are found as
    bit sets over trace indices, not by walking every trace: the ball of
    radius r around a member's trace index (:func:`_ball_at`, cached) is
    the table of indices with at most r set bits, XOR-translated to that
    index by block swaps, and the traces asked are the set bits of the
    members' intersection, in increasing order.  A table covers ``low``,
    the lowest ``TRACE_TABLE_BITS`` elements of ``bad``; the traces of the
    others, ``high``, are looped over in counting order, each member's
    ball shrinking by its distance there.  Bit j of a trace index stands
    for the j-th lowest element of ``low``: :func:`_trace_index` maps a
    member's trace on ``low`` to its index and :func:`_index_trace` maps an
    index asked back to its trace, both cached over ints.  Only the traces
    asked get their farthest member (lowest index on ties).

    ``memo``, when given, maps (farthest member, radius, trace, ``bad``),
    which fixes the query, to an earlier Found or NotFound answer; a key
    found there is answered from it without calling the oracle, and every
    new Found or NotFound answer is stored.  Oracles promise identical
    answers to identical queries, so the result is the same with or
    without it.  Found answers from the memo pass the same checks.
    Returns (radius, center) or None; a trivial-sparsifier outcome that
    :func:`check_trivial_sparsifier` accepts aborts the whole clustering
    via :class:`GloballyInfeasible`.  A center outside the universe or one
    that does not cover the cluster raises :class:`SoundnessError`.
    """
    if not cluster:
        raise ValueError("cluster must be nonempty")
    if d < 0:
        raise ValueError("d must be nonnegative")
    n = oracle.universe_size
    masks = list(cluster)
    if min(masks) < 0 or max(masks) >> n:
        raise ValueError("cluster member has elements outside the universe")
    common = reduce(and_, masks)
    bad = reduce(or_, masks) ^ common
    if bad.bit_count() > d * len(masks):
        return None
    # each member's trace on bad; the members agree on the rest
    on_bad = [m ^ common for m in masks]
    # a center within r of both endpoints of the widest pair needs 2r >= diam
    diam = max(map(int.bit_count, starmap(xor, combinations(on_bad, 2))), default=0)
    start = max(lo, (diam + 1) // 2)
    if start > d:
        return None
    # low: the table's elements, the lowest of bad; high: the rest
    width = min(bad.bit_count(), TRACE_TABLE_BITS)
    high = bad
    for _ in range(width):
        high &= high - 1
    low = bad ^ high
    full = (1 << (1 << width)) - 1
    # per member: its trace above the table and its trace index in the table
    lanes = [(b & high, _trace_index(low, b & low)) for b in on_bad]
    for radius in range(start, d + 1):
        for high_trace in submasks(high) if high else (0,):
            chosen = full
            for m_high, m_index in lanes:
                budget = radius - (m_high ^ high_trace).bit_count()
                if budget < 0:
                    chosen = 0
                    break
                if budget >= width:
                    continue
                chosen &= _ball_at(width, m_index, budget)
                if not chosen:
                    break
            while chosen:
                bit = chosen & -chosen
                chosen ^= bit
                trace = high_trace | _index_trace(low, bit.bit_length() - 1)
                spread = [(b ^ trace).bit_count() for b in on_bad]
                farthest = masks[spread.index(max(spread))]
                key = (farthest, radius, trace, bad)
                out = None if memo is None else memo.get(key)
                if out is None:
                    out = oracle.exact_extend(
                        ExtensionQuery(farthest, radius, trace, bad ^ trace), ctx
                    )
                    if isinstance(out, TrivialSparsifier):
                        check_trivial_sparsifier(out, ctx)
                        raise GloballyInfeasible("trivial sparsifier rules out any clustering")
                    if memo is not None:
                        memo[key] = out
                if isinstance(out, Found):
                    center = out.witness
                    if center < 0 or center >> n:
                        raise SoundnessError(
                            f"center {center:#x} has elements outside a universe of size {n}"
                        )
                    if any((center ^ m).bit_count() > radius for m in masks):
                        raise SoundnessError(
                            f"cluster coverage certificate failed: center {center:#x} "
                            f"is farther than {radius} from a cluster member"
                        )
                    return radius, center
    return None


def _oriented_variants(masks: list[int], n: int, d: int) -> Iterator[list[int]]:
    """Orientation guesses for the modified distance, first member fixed,
    in counting order (bit j of the guess complements member j + 1).

    Complement closure makes the fully flipped assignment equivalent, so
    fixing the first member halves the guesses.  A guess whose plain
    diameter exceeds ``2 * d`` is skipped: no center lies within d of both
    ends of its widest pair, so :func:`min_cluster_radius` would return
    None without a query.  The guesses are built lazily, highest member
    first, and a partial guess with a pair farther apart than ``2 * d``
    drops every completion at once.
    """
    full = (1 << n) - 1
    oriented = list(masks)

    def grow(j: int) -> Iterator[list[int]]:
        if not j:
            yield list(oriented)
            return
        for b in (masks[j], masks[j] ^ full):
            if all((b ^ c).bit_count() <= 2 * d for c in (masks[0], *oriented[j + 1:])):
                oriented[j] = b
                yield from grow(j - 1)

    return grow(len(masks) - 1)


def _cluster_cost(
    oracle: DomainOracle,
    members: Sequence[int],
    d: int,
    n: int,
    modified: bool,
    ctx: OracleContext | None,
) -> Callable[..., tuple[int, int] | None]:
    """Memoized per-cluster minimum radius, plain or modified.

    Returns ``evaluate(held, lo=0, cap=d, requery=False)``: the (radius,
    center) of the cluster whose members are ``members[i]`` for the set
    bits i of the member-index bitmask ``held``, or None above ``cap``
    (taken as d when larger); ``lo`` is a lower bound on the radius (see
    :func:`min_cluster_radius`).  Radii are searched up to ``cap`` alone,
    so a radius at most ``cap`` is exact, the least one, whatever ``cap``
    is.  The cluster memo is keyed by ``held`` and holds the exact radii
    and the misses at d; a miss under a cap below d is not kept.  The
    modified distance asks
    one :func:`min_cluster_radius` call per orientation guess of
    :func:`_oriented_variants` on the cluster's masks in increasing order,
    while a strictly smaller radius is still possible; guesses wider than
    ``2 * d`` are never asked.  The plain distance has the single
    orientation, the sorted masks.

    ``members`` must be domain members, as a sparsifier's are.  A
    one-member cluster ``1 << i`` is then answered ``(0, members[i])``
    without a call and memoized like any other result.  That is exact:
    the one query its radius search would ask, radius 0 around
    ``members[i]`` with nothing forced or forbidden, admits only
    ``members[i]`` itself, and a single member has a single orientation.

    Besides the cluster memo, every call shares one query memo (see
    :func:`min_cluster_radius`), so a query the oracle answered once is
    not sent again.  The cluster memo answers first, whatever
    ``requery`` says; for a cluster not in it, ``requery=True`` sends every
    query of the call to the oracle again instead, past the query memo.
    The final recheck of a solve uses it, so a final cluster the search did not
    evaluate is not taken on trust.
    """
    memo: dict[int, tuple[int, int] | None] = {}
    answers: dict[tuple[int, int, int, int], Found | NotFound] = {}

    def evaluate(
        held: int, lo: int = 0, cap: int = d, requery: bool = False
    ) -> tuple[int, int] | None:
        if held in memo:
            result = memo[held]
            return None if result is None or result[0] > cap else result
        if not held & held - 1:  # one member is its own center at radius 0
            memo[held] = (0, members[held.bit_length() - 1])
            return memo[held]
        cap = min(cap, d)
        masks = sorted(members[i] for i in iter_bits(held))
        result = None
        for oriented in _oriented_variants(masks, n, d) if modified else (masks,):
            # only strictly better radii matter; an orientation whose
            # diameter exceeds 2 * limit returns None before any query
            limit = cap if result is None else result[0] - 1
            if limit < lo:
                break
            got = min_cluster_radius(
                oriented, limit, oracle, ctx, lo, None if requery else answers
            )
            if got is not None:
                result = got  # a radius of at most limit is strictly better
        if result is not None or cap == d:
            memo[held] = result
        return result

    return evaluate


def _check_cluster_p(p: int | None, d: int) -> None:
    """Refuse a limited-mode ``p`` override at or below 2(d + 1): the
    clustering problems build their sparsifier with cap d + 1, and the
    params' own check, against twice their cap, would name a ``d`` the
    caller never gave."""
    if p is not None and p <= 2 * (d + 1):
        raise ValueError(
            f"cluster radius p ({p}) must exceed 2(d + 1) ({2 * (d + 1)}): "
            "k-center and k-sum-of-radii build with cap d + 1"
        )


def _solve_clustering(
    oracle: DomainOracle,
    spec: ProblemSpec,
    params: SmallSparsifyParams | LimitedSparsifyParams,
    sum_mode: bool,
) -> SolveAnswer:
    """Can k balls around domain members cover the domain, with every
    radius at most d (k-center) or the radius sum at most d (sum mode)?

    The search assigns the sparsifier members in order, each to an open
    cluster or to a new one, and asks of a grown cluster only what the
    decision needs.  In k-center that is whether some domain member is
    within d of all its members: a grown cluster that a sparsifier member
    covers joins without a query.  In sum mode it is the least radius, up
    to the held radius plus the budget left.  The radii and the witnesses
    come from the final recheck of each final cluster."""
    if isinstance(params, LimitedSparsifyParams):
        _check_cluster_p(params.p, spec.d)
    order = 2 * spec.k if spec.modified else spec.k
    rep = _sparsify(oracle, params, order, spec.d + 1, spec.modified)
    members = rep.family.bits
    n = rep.family.universe_size
    if not members:
        return SolveAnswer(feasible=False)  # empty domain has no center tuple
    k, d, modified = spec.k, spec.d, spec.modified
    # far[i] holds the members more than 2d from member i: no center
    # covers both.  k-center also reads the far graph at d, built in the
    # same pass over the pairs: when the k + 1 test below answers NO that
    # graph's m rows of m bits go unused, but a search is spared a second pass
    far, *at_d = _far_graphs(members, n, modified, (2 * d,) if sum_mode else (2 * d, d))
    if _pairwise_far(far, k + 1) is not None:
        return SolveAnswer(feasible=False)  # no ball of radius d holds two
    ctx = OracleContext(k=k, d=d, p=d)
    evaluate = _cluster_cost(oracle, members, d, n, modified, ctx)
    # grown clusters that no center covers within d, filed under the member
    # that grew them.  Members join in index order and a cluster before its
    # grow has a cover, so a filed cluster inside a cluster grown by idx
    # contains idx as its largest member: one list holds every candidate
    uncovered: list[list[int]] = [[] for _ in members]

    def evaluate_grown(idx: int, grown: int, lo: int, cap: int) -> tuple[int, int] | None:
        """The (radius, center) of cluster ``grown``, grown by member idx,
        or None when no radius up to ``cap`` exists."""
        if any(f & grown == f for f in uncovered[idx]):
            return None  # a center of grown would cover the filed cluster
        after = evaluate(grown, lo=lo, cap=cap)
        if after is None and cap >= d:
            uncovered[idx].append(grown)  # a miss under a smaller cap proves less
        return after

    # k-center holds of each open cluster its reach: the bit set of the
    # sparsifier members within d of all its members.  A grown cluster
    # whose reach is not empty joins without a query; otherwise a query
    # decides it, and a center it finds lies outside the sparsifier, so the
    # reach stays 0.  cov[i], the reach of member i alone, is the
    # complement of the far graph at d, turned over in place
    cov = at_d[0] if at_d else []
    full = (1 << len(members)) - 1
    for i, row in enumerate(cov):
        cov[i] = full ^ row

    def join_center(idx: int, held: int, reach: int, budget: int) -> tuple[int, int] | None:
        """k-center: the reach of cluster ``held`` grown by member idx and
        the radius it spends, always 0, or None when the grown cluster is
        refused."""
        if covering := reach & cov[idx]:
            return covering, 0  # a sparsifier member covers the grown cluster
        if evaluate_grown(idx, held | 1 << idx, 0, d) is None:
            return None
        return 0, 0

    # sum mode holds of each open cluster its (radius, center); the center
    # may differ from the memoized one when a member joined within the
    # radius without a query
    def join_sum(
        idx: int, held: int, before: tuple[int, int], budget: int
    ) -> tuple[tuple[int, int], int] | None:
        """Sum mode: the (radius, center) of cluster ``held`` grown by
        member idx and the radius it spends, or None when the grown cluster
        is refused."""
        radius, center = before
        if distance(center, members[idx], n, modified) <= radius:
            return before, 0  # radii never shrink as a cluster grows
        # budget is d minus the radius sum of all current clusters: a
        # radius past the held one plus the budget would overspend it
        after = evaluate_grown(idx, held | 1 << idx, radius, radius + budget)
        return None if after is None else (after, after[0] - radius)

    # one member is its own center at radius 0: opened[idx] is the state of
    # the cluster member idx opens
    join, opened = (join_sum, [(0, b) for b in members]) if sum_mode else (join_center, cov)
    # member-index bitmasks: clusters[ci] holds cluster ci, states[ci] what
    # the search holds of it
    clusters: list[int] = []
    states: list = []  # reaches (k-center) or (radius, center) pairs

    def assign(idx: int, budget: int) -> bool:
        """Assign member idx; clusters are opened in canonical order."""
        if idx == len(members):
            return True
        for ci, held in enumerate(clusters):
            if far[idx] & held:
                continue  # no center can cover both within d
            before = states[ci]
            joined = join(idx, held, before, budget)
            if joined is not None:
                clusters[ci], states[ci] = held | 1 << idx, joined[0]
                if assign(idx + 1, budget - joined[1]):
                    return True
                clusters[ci], states[ci] = held, before
        if len(clusters) < k:
            clusters.append(1 << idx)
            states.append(opened[idx])
            if assign(idx + 1, budget):
                return True
            clusters.pop()
            states.pop()
        return False

    witnesses: list[SubsetMask] = []
    radii: list[int] = []
    try:
        if not assign(0, d):
            return SolveAnswer(feasible=False)
        for cluster, state in zip(clusters, states):
            radius = state[0] if sum_mode else 0  # k-center holds no radius
            got = evaluate(cluster, lo=radius, requery=True)
            if got is None or sum_mode and got[0] != radius:
                relied = f"cluster radius {radius}" if sum_mode else f"a center within d = {d}"
                raise SoundnessError(
                    f"the search relied on {relied}, but the cluster now evaluates to {got}"
                )
            witnesses.append(SubsetMask(n, got[1]))
            radii.append(got[0])
    except GloballyInfeasible:
        return SolveAnswer(feasible=False)
    while len(witnesses) < k:  # unused slots: repeat a center at radius 0
        witnesses.append(witnesses[0])
        radii.append(0)
    if (sum(radii) if sum_mode else max(radii)) > d:
        raise SoundnessError(f"cluster radii {radii} exceed the bound d = {d}")
    objective = sum(radii) if sum_mode else None
    return SolveAnswer(
        feasible=True,
        witnesses=tuple(witnesses),
        radii=tuple(radii),
        objective=objective,
    )


def _pairwise_far(far: Sequence[int], size: int) -> tuple[int, ...] | None:
    """The lexicographically first increasing tuple of ``size`` member
    indices pairwise adjacent in the far graph ``far`` (see
    :func:`_far_graphs`), or None: backtracking over its candidate cliques,
    each a bit set of member indices walked upward from the lowest."""

    def grow(need: int, candidates: int) -> tuple[int, ...] | None:
        if need == 0:
            return ()
        while candidates.bit_count() >= need:
            j = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            if (tail := grow(need - 1, candidates & far[j])) is not None:
                return (j, *tail)
        return None

    return grow(size, (1 << len(far)) - 1)


def _max_sum_tuple(
    dist: Sequence[bytes], k: int
) -> tuple[int | None, tuple[int, ...] | None]:
    """The largest pairwise distance sum of a nondecreasing ``k``-tuple of
    member indices and the lexicographically first tuple reaching it, or
    (None, None) without members.

    Depth-first over the tuples in lexicographic order; ``acc[l]`` is the
    distance sum from the picks so far to member l.  With ``need`` picks
    left, all from index j on, each adds at most ``max(acc[j:])`` towards
    the earlier picks and each pair of them at most the largest distance
    ``top``.  A pick j whose bound cannot beat the best sum strictly is cut,
    and so is every later one, since that bound only falls as j grows; one
    whose own gain ``acc[j]`` and largest distance ``widest[j]`` to the later
    picks leave it no chance is skipped.  Only a strictly better sum
    replaces the best, so the first tuple reaching the optimum wins."""
    if not dist:
        return None, None
    widest = list(map(max, dist))
    top = max(widest)
    best, found = -1, ()

    def grow(
        start: int, need: int, partial: int, acc: list[int], picks: tuple[int, ...]
    ) -> None:
        nonlocal best, found
        if need == 1:
            gain = max(acc[start:])
            if partial + gain > best:
                best, found = partial + gain, (*picks, acc.index(gain, start))
            return
        pairs = need * (need - 1) // 2 * top  # the pairs of new picks
        later = pairs - (need - 1) * top  # the pairs after pick j
        ceilings = list(accumulate(reversed(acc[start:]), max))
        for j in range(start, len(acc)):
            ceiling = ceilings[len(acc) - 1 - j]  # max(acc[j:])
            if partial + need * ceiling + pairs <= best:
                return
            if partial + acc[j] + (need - 1) * (ceiling + widest[j]) + later <= best:
                continue
            grow(j, need - 1, partial + acc[j], list(map(add, acc, dist[j])), (*picks, j))

    grow(0, k, 0, [0] * len(dist), ())
    return best, found


#: most sparsifier members the solvers search.  Every solver reads the
#: pairwise distances as one row of bytes per member (:func:`_distance_rows`).
#: Max-sum holds all m rows, m^2 bytes: those of the rank-6 uniform matroid
#: on 16 elements (8,008 members, its whole domain) raise the peak by 61 MB
#: on CPython 3.11, and rank 9 on 18 elements (48,620 members) would take
#: 2.4 GB.  Max-min and clustering hold the far graph, m rows of m bits: the
#: same 8,008 members peak at 25 MB in a whole max-min solve and 34 MB in a
#: k-center one (two graphs), and 48,620 would take 295 MB a graph.
DISTANCE_MATRIX_GUARD = 10_000


def _distance_rows(members: Sequence[int], n: int, modified: bool) -> Iterator[bytes]:
    """Row i of the members' pairwise distance matrix, plain or modified
    (see :func:`~divsparse.core.distance`), for each member i in turn: a
    distance is at most n <= 64, so each row is a ``bytes`` object.

    More than ``DISTANCE_MATRIX_GUARD`` members raise :class:`GuardError`
    at the call, before any row is built.
    """
    if len(members) > DISTANCE_MATRIX_GUARD:
        raise GuardError(
            f"{len(members)} sparsifier members exceed the guard on the distance "
            f"rows (DISTANCE_MATRIX_GUARD = {DISTANCE_MATRIX_GUARD})"
        )
    # under the modified distance one table folds each v to min(v, n - v)
    fold = bytes(min(v, n - v) for v in range(n + 1)).ljust(256, b"\0") if modified else None
    return (bytes([(a ^ b).bit_count() for b in members]).translate(fold) for a in members)


def _far_graphs(
    members: Sequence[int], n: int, modified: bool, limits: Sequence[int]
) -> list[list[int]]:
    """The members' far graph at each of ``limits``: row i of the graph at
    ``limit`` is a bit set of member indices, with bit j set when members
    i and j are more than ``limit`` apart, plain or modified (see
    :func:`~divsparse.core.distance`).

    One pass over :func:`_distance_rows` builds every graph, one row at a
    time: no row of distances outlives its bit sets.
    """
    # a table of every byte value maps each distance to its digit, "1"
    # from limit + 1 up, clamped to 256 bytes
    floors = [min(max(limit + 1, 0), 256) for limit in limits]
    tables = [b"0" * lo + b"1" * (256 - lo) for lo in floors]
    graphs: list[list[int]] = [[] for _ in limits]
    appends = [(graph.append, digits) for graph, digits in zip(graphs, tables)]
    for row in _distance_rows(members, n, modified):
        # int() reads its most significant digit first: the last member leads
        backward = row[::-1]
        for append, digits in appends:
            append(int(backward.translate(digits), 2))
    return graphs


_SOLVERS = {
    "maxmin": partial(_diversify, sum_mode=False),
    "maxsum": partial(_diversify, sum_mode=True),
    "kcenter": partial(_solve_clustering, sum_mode=False),
    "ksumradii": partial(_solve_clustering, sum_mode=True),
}


def solve(
    oracle: DomainOracle,
    spec: ProblemSpec,
    params: SmallSparsifyParams | LimitedSparsifyParams,
) -> SolveAnswer:
    """Answer ``spec`` on the domain behind ``oracle`` exactly, searching a
    sparsifier built by the pipeline ``params`` selects, with its settings.

    ``params`` is the template each problem's sparsifier is built from:
    ``ell``, or ``p``, ``epsilon``, ``trials_override`` and ``seed``, are
    used as given, while ``k``, ``d`` and ``r`` are set by the problem.
    ``k`` becomes the order the problem needs (``k - 1`` for max-min and
    max-sum, ``k`` for clustering, each doubled under the modified
    distance, and at least 1), ``d`` the cap (``spec.d``, one more for
    clustering) and ``r`` the ball radius (``ell``, or the universe size
    under the modified distance)."""
    if spec.modified and not oracle.complement_closed:
        raise ValueError(
            "the modified Hamming distance needs a complement-closed domain"
        )
    return _SOLVERS[spec.problem](oracle, spec, params)
