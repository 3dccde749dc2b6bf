"""Randomized construction of d-limited k-max-distance sparsifiers.

The pipeline works for domains with unbounded member cardinality, given the
+-1 optimization and exact extension capabilities:

1. Collect up to k cluster centers from the domain, each more than 2d from
   the previous ones, by repeatedly optimizing random +-1 weights (each a
   mask of the +1 elements, n generator steps drawn lane-parallel in blocks
   by ``rng.masks(n)``).  One :class:`FarSetMemo` per phase answers a
   mask drawn before and counts the optimizations issued.  The search for
   a second center first optimizes +1 exactly off the first one, which
   yields a member farthest from it; when that member is within 2d, no
   trial can succeed and the phase ends without drawing a mask.  Every
   optimum is a member nearest its weight mask, so it proves a ball
   around the mask empty; on universes of at most ``FARSET_MEMO_GUARD``
   elements the memo keeps the union of those balls, and a search ends as
   soon as it covers every point more than 2d from the centers.  Neither
   stop changes the centers.
   If k+1 such members turn up they already form a valid sparsifier (any
   reference set is within distance d of at most one of them) and we stop.
2. Otherwise every member lies within the cluster radius p of some center
   (with probability at least 1 - epsilon).  For each center C, the members
   near C shifted by C form a family of small sets, so the sunflower
   construction applies; its empty extension queries translate into exact
   extension queries on the original domain.  Shifting the outputs back and
   taking the union over centers yields the sparsifier.

Soundness of step 1 is unconditional: a returned far set is re-verified to
be more than 2d from every center.  Only completeness (finding a far set
when one exists beyond radius p) is probabilistic, except where a stop
above proves that none exists.  A trivial sparsifier
answered by an extension query in step 2 is checked (k+1 members pairwise
more than 2d apart) before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import or_
from typing import Sequence

from .core import (
    CapabilityError,
    DomainOracle,
    ExtensionOutcome,
    ExtensionQuery,
    Found,
    GuardError,
    OracleContext,
    SetFamily,
    SoundnessError,
    SparsifierReport,
    _check_universe_size,
    ball_bits,
)
from .rng import SplitMix64
from .sunflower import SmallSparsifyParams, k_sparsify


FARSET_MEMO_GUARD = 16  # log2 of the most weight masks one far-set phase remembers


def default_cluster_radius(k: int, d: int) -> int:
    """Smallest cluster radius the completeness proof supports."""
    return (4 * d + 2) ** 2 * 2 ** (k - 1)


def default_trials(k: int, epsilon: float, n_centers: int) -> int:
    """Trial count making a single far-set call fail w.p. <= epsilon/(k+1).

    The success probability of one random-weight trial, when a member
    beyond the cluster radius exists, is at least
    2^(-2^c) * 4^(-c) for c current centers; inverting gives the count.
    From c = 10 on the count is too large for a float, which raises
    :class:`GuardError`.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    c = n_centers
    q_inverse = (2 ** (2**c)) * (4**c)
    try:
        return max(1, math.ceil(math.log((k + 1) / epsilon) * q_inverse))
    except OverflowError:
        raise GuardError(
            f"default far-set trial count for {c} centers is too large to represent"
        ) from None


@dataclass(frozen=True)
class LimitedSparsifyParams:
    """Parameters of the d-limited pipeline.

    ``p`` is the cluster radius, ``None`` for the provable one; setting it
    below that bound voids the completeness guarantee (soundness stays)
    and is meant for experiments, with ``verify`` available to detect
    invalid outputs.
    """

    k: int
    d: int
    p: int | None = None
    epsilon: float = 0.01
    trials_override: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        if self.p is not None and self.p <= 2 * self.d:
            raise ValueError(f"cluster radius p ({self.p}) must exceed 2d ({2 * self.d})")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if self.trials_override is not None and self.trials_override < 1:
            raise ValueError("trials_override must be positive")


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of the far-set clustering phase.

    ``trivial`` False: ``family`` holds at most k centers and, with high
    probability, every member is within p of one of them.  ``trivial``
    True: ``family`` holds k+1 members pairwise more than 2d apart, itself
    a valid d-limited k-max-distance sparsifier.  ``calls`` is the phase
    memo's :attr:`FarSetMemo.calls`, the +-1 optimizations the phase
    issued: a mask the memo knows is answered from it and calls nothing.
    """

    family: SetFamily
    trivial: bool
    calls: int


class FarSetMemo:
    """What one far-set phase knows of one oracle's +-1 optima.

    ``optima`` maps +1 masks to their optima; it stores at most
    2^``FARSET_MEMO_GUARD`` masks.  ``calls`` counts the optimizations
    issued.  ``empty`` is the set of points no member can be, one bit per
    point of the 2^n (bit x: the set x), or ``None`` on a universe of more
    than ``FARSET_MEMO_GUARD`` elements, which keeps none.  Every
    optimization proves a ball empty: ``opt_pm1(w)`` maximizes
    ``2|m & w| - |m| = |w| - |m ^ w|``, so its optimum m* is a member
    nearest to w, and no member lies within ``|w ^ m*| - 1`` of w.
    ``empty`` is the union of those balls.  A universe over the mask width
    limit raises :class:`ValueError` here, before any call.
    """

    __slots__ = ("oracle", "optima", "empty", "calls")

    def __init__(self, oracle: DomainOracle) -> None:
        n = oracle.universe_size
        _check_universe_size(n)
        self.oracle = oracle
        self.optima: dict[int, int] = {}
        self.empty: int | None = 0 if n <= FARSET_MEMO_GUARD else None
        self.calls = 0

    def optimum(self, positive: int) -> int | None:
        """The optimum of the +1 mask ``positive``, ``None`` for an empty
        domain.  A mask in ``optima`` is answered there; otherwise one
        oracle call, whose optimum is range checked (one with elements
        outside the universe raises :class:`SoundnessError` and is not
        kept), stored while ``optima`` has room, and its ball added to
        ``empty``."""
        best = self.optima.get(positive)
        if best is not None:
            return best
        n = self.oracle.universe_size
        best = self.oracle.opt_pm1(positive)
        self.calls += 1
        if best is None:
            return None
        if best < 0 or best >> n:
            raise SoundnessError(
                f"optimum {best:#x} has elements outside a universe of size {n}"
            )
        if len(self.optima) < 1 << FARSET_MEMO_GUARD:
            self.optima[positive] = best
        if self.empty is not None:
            self.empty |= ball_bits(n, positive, (positive ^ best).bit_count() - 1)
        return best


def approx_far_set(
    memo: FarSetMemo,
    centers: Sequence[int],
    d: int,
    trials: int,
    rng: SplitMix64,
) -> int | None:
    """Look for a member more than 2d from every center.

    Returns the far member or ``None``.  Every optimum comes from
    ``memo.optimum``, so a mask the memo knows costs no call, and
    ``memo.calls`` counts the ones issued (``1`` for an empty domain).
    The oracle is pure, so the outcome of every trial is the one it would
    have without the memo.  Pass one memo to every call of one phase,
    with the phase's growing center list.

    Each trial optimizes fresh uniform +-1 weights, the mask of the +1
    elements taken from ``rng.masks(n)``, which computes masks in blocks
    but leaves the generator n steps per mask drawn; a candidate is
    returned only after its distances to all centers are checked, so any
    returned set is certainly far.  ``None`` after all trials means every
    member is within the cluster radius of some center, up to the per-call
    error bound.

    With exactly one center c the call first asks the +1 mask ``~c``: a
    member m then weighs ``|m ^ c| - |c|``, so the optimum is a member
    farthest from c.  If it is within 2d of c, so is every member, and
    the call gives up before any trial, without a draw: the give-up is
    certain, not probable.  Otherwise the trials run as they would without
    it; its optimum is never returned, because the trials pick the center.

    When the memo keeps an empty region, the call gives up once it covers
    every point more than 2d from every center, since then no member is
    far: at entry, before any call or draw, or right after the new
    optimum that covers them.  This give-up is certain too and costs no
    oracle call.  A memo holding all 2^n masks with no far optimum covers
    those points, since every member is the optimum of its own mask.  The
    call leaves the generator one mask per trial run past where it
    started, whether it finds a far member or gives up (a give-up may run
    fewer than ``trials`` trials, and none when the region or the first
    mask proves it).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    n = memo.oracle.universe_size
    if any(not 0 <= c < 1 << n for c in centers):
        raise ValueError("center has elements outside the universe")
    threshold = 2 * d

    def far(member: int) -> bool:
        return all((member ^ c).bit_count() > threshold for c in centers)

    # the points more than 2d from every center; None without a region
    outside = None
    if memo.empty is not None:
        close = reduce(or_, (ball_bits(n, c, threshold) for c in centers), 0)
        outside = ((1 << (1 << n)) - 1) ^ close
        if outside & memo.empty == outside:
            return None

    if len(centers) == 1:
        farthest = memo.optimum(~centers[0] & ((1 << n) - 1))
        if farthest is None or not far(farthest):
            return None
    masks = rng.masks(n)
    for _ in range(trials):
        best = memo.optimum(next(masks))
        if best is None or far(best):
            return best
        if outside is not None and outside & memo.empty == outside:
            return None
    return None


def cluster_or_trivial(
    oracle: DomainOracle, params: LimitedSparsifyParams
) -> ClusterResult:
    """Collect pairwise-far centers until the far-set search gives up.

    The random weights are drawn from ``SplitMix64(params.seed)``.  Stops
    with ``trivial=True`` as soon as k+1 far members accumulate.  An empty
    domain yields zero centers.  The phase keeps one :class:`FarSetMemo`
    and passes it to every :func:`approx_far_set` call, so a repeated mask
    costs no call and a call gives up as soon as the phase's optimizations
    prove that no member is far.  The centers are those that every trial
    optimizing afresh would pick: a give-up ends the phase, and the
    generator is never read after it.
    """
    rng = SplitMix64(params.seed)
    memo = FarSetMemo(oracle)
    center_bits: list[int] = []
    while True:
        trials = params.trials_override
        if trials is None:
            trials = default_trials(params.k, params.epsilon, len(center_bits))
        far = approx_far_set(memo, center_bits, params.d, trials, rng)
        if far is not None:
            center_bits.append(far)
        if far is None or len(center_bits) == params.k + 1:
            family = SetFamily.from_bits(oracle.universe_size, center_bits)
            return ClusterResult(family, far is not None, memo.calls)


class ShiftedEmptyExtension(DomainOracle):
    """Empty-extension view of the domain shifted by a cluster center.

    A query for a shifted member of cardinality ``r`` avoiding ``Y`` maps to
    an exact extension query on the original domain with center C, forced
    set Y intersect C, and forbidden set Y minus C; witnesses map back
    through the same shift.  The query's context is forwarded, and
    trivial-sparsifier outcomes pass through unshifted (their members live
    in original coordinates) for the caller to check.
    """

    def __init__(self, inner: DomainOracle, center: int) -> None:
        if not 0 <= center < 1 << inner.universe_size:
            raise ValueError("center has elements outside the universe")
        self._inner = inner
        self._center = center

    @property
    def universe_size(self) -> int:
        return self._inner.universe_size

    def exact_extend(
        self, query: ExtensionQuery, ctx: OracleContext | None = None
    ) -> ExtensionOutcome:
        raise CapabilityError("shifted view offers only the empty extension")

    def exact_empty_extend(
        self, r: int, forbidden: int, ctx: OracleContext | None = None
    ) -> ExtensionOutcome:
        query = ExtensionQuery(
            center=self._center,
            radius=r,
            forced=forbidden & self._center,
            forbidden=forbidden & ~self._center,
        )
        out = self._inner.exact_extend(query, ctx)
        if isinstance(out, Found):
            return Found(out.witness ^ self._center)
        return out


def dk_sparsify(oracle: DomainOracle, params: LimitedSparsifyParams) -> SparsifierReport:
    """Build a d-limited k-max-distance sparsifier w.r.t. all subsets.

    Runs the clustering phase, then one sunflower construction per center
    over the shifted neighborhood (member size cap p, ball radius p + d),
    and unions the shifted-back outputs.  A trivial sparsifier surfacing
    anywhere is returned at once (``scattered`` for the clustering branch,
    ``shortcut`` for one produced by an extension query).  An empty domain
    yields the empty family, which satisfies the definition vacuously.
    ``calls_opt`` is the clustering phase's ``ClusterResult.calls``, the
    +-1 optimizations its :class:`FarSetMemo` issued, and
    ``calls_extend`` the sum of the per-center runs' query counts.  The
    report's ``params`` are ``params`` with ``p`` resolved to
    :func:`default_cluster_radius` when it was ``None``.
    """
    p = default_cluster_radius(params.k, params.d) if params.p is None else params.p
    params = replace(params, p=p)
    clusters = cluster_or_trivial(oracle, params)
    if clusters.trivial:
        return SparsifierReport(
            clusters.family, params, calls_opt=clusters.calls, scattered=True
        )

    ctx = OracleContext(k=params.k, d=params.d, p=p)
    small = SmallSparsifyParams(k=params.k, r=p + params.d, ell=p)
    passes = calls_extend = 0
    out_bits: list[int] = []
    for center in clusters.family.bits:
        sub = k_sparsify(small, ShiftedEmptyExtension(oracle, center), ctx)
        passes += sub.passes
        calls_extend += sub.calls_extend
        if sub.shortcut:
            return SparsifierReport(
                sub.family, params, calls_opt=clusters.calls,
                calls_extend=calls_extend, passes=passes, shortcut=True,
            )
        out_bits.extend(b ^ center for b in sub.family.bits)

    return SparsifierReport(
        SetFamily.dedup_from_bits(oracle.universe_size, out_bits), params,
        calls_opt=clusters.calls, calls_extend=calls_extend, passes=passes,
    )
