"""Far-set clustering and the d-limited sparsifier pipeline."""

from __future__ import annotations

import hashlib
import math
import random
from copy import copy
from dataclasses import replace
from itertools import combinations

from divsparse import (
    MASK_WIDTH_LIMIT,
    NOT_FOUND,
    DomainOracle,
    FarSetMemo,
    Found,
    GuardError,
    LimitedSparsifyParams,
    NotFound,
    OracleContext,
    SetFamily,
    SmallSparsifyParams,
    SoundnessError,
    SplitMix64,
    SubsetMask,
    TrivialSparsifier,
    approx_far_set,
    cluster_or_trivial,
    default_cluster_radius,
    default_trials,
    dk_sparsify,
    distance,
    k_sparsify,
)
import divsparse.cli as cli
import divsparse.limited as limited
from divsparse.bruteforce import VerifyScope, verify_sparsifier
from divsparse.domains import ExplicitOracle, MatroidBaseOracle, UniformMatroid
from divsparse.limited import FARSET_MEMO_GUARD, ShiftedEmptyExtension

from helpers import plain_approx_far_set, random_family, reference_top_bits

import pytest


# SHA-256 of (centers, trivial, calls) of every cluster_or_trivial run in
# the test of each name, recorded while the centers and the flag matched
# those of the phase that optimizes every trial afresh, with no more calls
# than its trials plus the one-center first mask
EARLY_GIVE_UP_PHASES = "5ec392687596c697cdbe4a21bad44d1ed75fe3f22a36370b1eaeb3b2748f09b9"
PHASES_WITHOUT_A_MEMO = "ce2167fa1aa7e140eaea8b7fa241273997f595675bfe17d49b2464b39151484e"
GUARDED_PHASES = "5ed2e543f3fb490cd3188af5dd918f505930ec011ccd18c84525880028e039be"
REGION_BOUNDARY_PHASES = "763eda9ef0207ee833faef8b54ac3425c3391a0964f0c591ba10acd8a16946ee"


def two_point_domain(n: int) -> SetFamily:
    return SetFamily.from_bits(n, [0, (1 << n) - 1])


class Counted(ExplicitOracle):
    """Explicit oracle that counts its own capability calls."""

    def __init__(self, family: SetFamily) -> None:
        super().__init__(family)
        self.opts = 0
        self.extends = 0

    def opt_pm1(self, positive):
        self.opts += 1
        return super().opt_pm1(positive)

    def exact_extend(self, query, ctx=None):
        self.extends += 1
        return super().exact_extend(query, ctx)


def far_from(centers, d):
    """Test: is a set more than 2d from every center?"""
    return lambda member: all((member ^ c).bit_count() > 2 * d for c in centers)


def replay_until(rng: SplitMix64, n: int, masks) -> SplitMix64:
    """``rng`` after per-element draws up to the first point where every
    mask of ``masks`` has been drawn."""
    left = set(masks)
    while left:
        left.discard(reference_top_bits(rng, n))
    return rng


def masks_drawn(start: SplitMix64, gen: SplitMix64, n: int, limit: int) -> int:
    """How many per-element mask draws take ``start`` to the state of
    ``gen``: at most ``limit``, or ``limit + 1`` when none of those do."""
    replay = copy(start)
    for drawn in range(min(limit, 1 << 16) + 1):
        if copy(replay).next_u64() == copy(gen).next_u64():
            return drawn
        reference_top_bits(replay, n)
    return limit + 1


def matches_plain(fam, memo, centers, d, count, gen, ref, want_memo):
    """One far-set call on ``fam`` against :func:`plain_approx_far_set`
    from the same generator state, the reference on its own oracle and
    memo ``want_memo`` (a copy of ``memo.optima``).  The same answer; on a
    find also the same calls, memo and generator state after the call; on
    a give-up no more calls, a memo inside the reference's, the generator
    at or before the reference's, and, when it stops before its last
    trial, no member far.  Returns (answer, calls, the reference's calls,
    masks drawn)."""
    oracle = memo.oracle
    n = oracle.universe_size
    before, start = memo.calls, copy(gen)
    got = approx_far_set(memo, centers, d, count, gen)
    want, want_calls = plain_approx_far_set(
        ExplicitOracle(fam), centers, d, count, ref, want_memo
    )
    calls = memo.calls - before
    drawn = masks_drawn(start, gen, n, count)
    assert got == want
    assert memo.calls == oracle.opts
    if got is not None:
        assert calls == want_calls and memo.optima == want_memo
        assert copy(gen).next_u64() == copy(ref).next_u64()
    else:
        assert calls <= want_calls and memo.optima.items() <= want_memo.items()
        assert drawn <= masks_drawn(start, ref, n, count) <= count
        if drawn < count:
            assert not any(map(far_from(centers, d), fam.bits))
    return got, calls, want_calls, drawn


def check_phase(fam, params, got, phases):
    """The phase's centers are members pairwise more than 2d apart, k + 1
    of them exactly when it is trivial; (centers, flag, calls) go into the
    sha256 ``phases``."""
    centers = got.family.bits
    assert all(map(fam.contains_bits, centers))
    assert all((a ^ b).bit_count() > 2 * params.d for a, b in combinations(centers, 2))
    assert got.trivial == (len(centers) == params.k + 1)
    phases.update(f"{list(centers)};{got.trivial};{got.calls}|".encode())


def single_trial_success_probability(n: int) -> float:
    """Chance one random +-1 draw makes the full set beat the empty set.

    The scan oracle prefers the earlier member on ties, so the full set
    wins exactly when its weight is positive: Pr[#(+1) > n/2].
    """
    wins = sum(math.comb(n, j) for j in range(n // 2 + 1, n + 1))
    return wins / 2**n


class TestApproxFarSet:
    def test_only_member_is_never_far(self):
        fam = SetFamily.from_bits(4, [0b0101])
        got = approx_far_set(
            FarSetMemo(ExplicitOracle(fam)), fam.bits_list(), d=1, trials=64,
            rng=SplitMix64(3),
        )
        assert got is None

    def test_two_point_domain_finds_far_set(self):
        n = 10
        fam = two_point_domain(n)
        memo = FarSetMemo(ExplicitOracle(fam))
        centers = [0]
        # frozen from the binomial tail: 386/1024 per trial
        assert single_trial_success_probability(n) == 386 / 1024
        got = approx_far_set(memo, centers, d=1, trials=512, rng=SplitMix64(0))
        assert got is not None and got.bit_count() == n
        assert distance(got, centers[0], n) == n > 2

    def test_soundness_only_far_sets_returned(self):
        rng = random.Random(17)
        for trial in range(60):
            n = rng.randint(3, 8)
            fam = random_family(rng, n, 12)
            centers_count = rng.randint(0, min(3, len(fam)))
            centers = fam.bits_list()[:centers_count]
            d = rng.randint(0, 2)
            got = approx_far_set(
                FarSetMemo(ExplicitOracle(fam)),
                centers,
                d=d,
                trials=16,
                rng=SplitMix64(trial),
            )
            if got is not None:
                assert all(distance(got, c, n) > 2 * d for c in centers)

    def test_empty_domain(self):
        memo = FarSetMemo(ExplicitOracle(SetFamily.from_bits(4, ())))
        assert approx_far_set(memo, [], d=1, trials=8, rng=SplitMix64(1)) is None

    def test_trial_count_of_a_find(self):
        # the full set wins trial i exactly when draw i has more +1s than
        # -1s (the scan oracle keeps the empty set on ties); the call first
        # asks the all-+1 mask, whose optimum (the full set) is far from the
        # center, so one call more than the distinct masks drawn, and a draw
        # of the all-+1 mask itself is answered by the memo
        n = 10
        full = (1 << n) - 1
        late = 0
        for seed in range(12):
            replay = SplitMix64(seed)
            drawn: set[int] = set()
            while True:
                positive = reference_top_bits(replay, n)
                drawn.add(positive)
                if positive.bit_count() > n // 2:
                    break
            oracle = Counted(two_point_domain(n))
            memo, rng = FarSetMemo(oracle), SplitMix64(seed)
            got = approx_far_set(memo, [0], d=1, trials=64, rng=rng)
            assert got == full
            assert memo.calls == oracle.opts == 1 + len(drawn - {full})
            assert rng.next_u64() == replay.next_u64()
            late += len(drawn) > 1
        assert late > 0

    def test_trial_count_of_a_give_up(self):
        # with one center the call asks the mask off it first: here its
        # optimum is the center itself, so the call gives up after that one
        # call, whatever the trial count, and draws nothing
        n = 4
        fam = SetFamily.from_bits(n, [0b0101])
        for trials in (1, 37, 2**80):
            oracle, rng = Counted(fam), SplitMix64(3)
            memo = FarSetMemo(oracle)
            got = approx_far_set(memo, [0b0101], d=1, trials=trials, rng=rng)
            assert got is None and memo.calls == oracle.opts == 1
            assert memo.optima == {0b1010: 0b0101}
            assert rng.next_u64() == SplitMix64(3).next_u64()
            # asked again with the same memo, it costs no call either
            got = approx_far_set(memo, [0b0101], d=1, trials=trials, rng=rng)
            assert got is None and memo.calls == oracle.opts == 1
        # with two centers nothing is asked first.  On {0, 63} with centers 0
        # and 63 the far points are the 20 sets of size 3, and no member is
        # one: the call gives up once the empty balls of its optima cover
        # them.  It calls once per distinct mask drawn, stops right after a
        # new one, and calls no more than the trials alone, which stop only
        # once all 64 masks are known
        n, centers = 6, [0, 63]
        fam = SetFamily.from_bits(n, centers)
        for trials in (37, 200, 2**80):
            want_memo: dict[int, int] = {}
            want = plain_approx_far_set(
                ExplicitOracle(fam), centers, 1, trials, SplitMix64(3), want_memo
            )
            oracle, rng = Counted(fam), SplitMix64(3)
            memo = FarSetMemo(oracle)
            got = approx_far_set(memo, centers, d=1, trials=trials, rng=rng)
            assert got is None
            assert memo.calls == oracle.opts == len(memo.optima) <= want[1]
            assert memo.optima.items() <= want_memo.items()
            # no draw after the stop: the generator is where the trials
            # alone were when they had drawn the masks the call asked
            assert rng.next_u64() == replay_until(SplitMix64(3), n, memo.optima).next_u64()
        assert memo.calls == 11 and want[1] == 64
        # a later call with the same memo starts covered: it draws and
        # calls nothing
        rng = SplitMix64(7)
        assert approx_far_set(memo, centers, d=1, trials=8, rng=rng) is None
        assert memo.calls == oracle.opts == 11
        assert rng.next_u64() == SplitMix64(7).next_u64()

    def test_trial_count_beyond_sys_maxsize_ends_at_the_coverage_stop(self):
        # 2^80 trials with two centers (one center would give up at its
        # first mask): the call still ends, once the empty balls of its
        # optima cover the far points (the 20 sets of size 3), having drawn
        # exactly the masks up to the one that covered them, before all 64
        # masks are known
        n = 6
        oracle = Counted(SetFamily.from_bits(n, [0, 1, 62, 63]))
        memo, rng = FarSetMemo(oracle), SplitMix64(11)
        got = approx_far_set(memo, [0, 63], d=1, trials=2**80, rng=rng)
        assert got is None
        assert memo.calls == oracle.opts == len(memo.optima) < 1 << n
        assert rng.next_u64() == replay_until(SplitMix64(11), n, memo.optima).next_u64()
        assert not sum(1 << x for x in range(1 << n) if x.bit_count() == 3) & ~memo.empty

    def test_matches_the_trials_alone(self):
        # against the plain call, whose answers are those of the trials
        # alone (see matches_plain); a one-center give-up that drew no mask
        # costs at most its first mask.  One memo serves every call on a
        # family; the reference starts from a copy of its optima.
        rng = random.Random(131)
        certified = fewer = 0
        for trial in range(150):
            n = rng.randint(3, 10)
            fam = random_family(rng, n, 16)
            k = rng.randint(1, 3)
            memo = FarSetMemo(Counted(fam))
            for call in range(4):
                centers = [
                    rng.choice(fam.bits) if rng.random() < 0.5 else rng.getrandbits(n)
                    for _ in range(rng.randint(0, 3))
                ]
                d = rng.randint(0, 3)
                count = rng.choice([1, 8, 64, None])
                if count is None:
                    count = default_trials(k, 0.01, len(centers))
                seed = 1000 * trial + call
                got, calls, want_calls, drawn = matches_plain(
                    fam, memo, centers, d, count, SplitMix64(seed), SplitMix64(seed),
                    dict(memo.optima),
                )
                if got is not None:
                    continue
                if len(centers) != 1:
                    fewer += calls < want_calls
                elif drawn == 0:
                    assert calls <= 1, (trial, call)
                    certified += 1
        assert certified > 40 and fewer > 40

    def test_every_early_give_up_is_right(self):
        # seeded random families of 1 to 10 elements.  Far-set calls with 0
        # to 3 centers share one memo per family; a call that
        # gives up before its last trial must be right: brute force finds no
        # member more than 2d from every center.  A member returned is far.
        # The phase on the same family is pinned by EARLY_GIVE_UP_PHASES.
        rng = random.Random(2027)
        early = 0
        phases = hashlib.sha256()
        for trial in range(200):
            n = rng.randint(1, 10)
            fam = random_family(rng, n, 24, nonempty=False)
            memo = FarSetMemo(ExplicitOracle(fam))
            for call in range(3):
                centers = [
                    rng.choice(fam.bits) if fam.bits and rng.random() < 0.5
                    else rng.getrandbits(n)
                    for _ in range(rng.randint(0, 3))
                ]
                d = rng.randint(0, 3)
                count = rng.choice([1, 8, 64, 2**80])
                seed = 100 * trial + call
                gen = SplitMix64(seed)
                got = approx_far_set(memo, centers, d, count, gen)
                far = list(filter(far_from(centers, d), fam.bits))
                if got is not None:
                    assert got in far, (trial, call)
                elif masks_drawn(SplitMix64(seed), gen, n, count) < count:
                    assert not far, (trial, call)
                    early += 1
            params = LimitedSparsifyParams(
                k=rng.randint(1, 2), d=rng.randint(0, 2), seed=trial,
                trials_override=rng.choice([None, 8, 64]),
            )
            check_phase(fam, params, cluster_or_trivial(ExplicitOracle(fam), params), phases)
        assert early > 200
        assert phases.hexdigest() == EARLY_GIVE_UP_PHASES

    def test_a_full_memo_with_a_far_optimum_keeps_drawing(self):
        # the coverage stop needs every known optimum within 2d of a center;
        # a memo from other centers does not stop the call
        n = 2
        oracle = Counted(SetFamily.from_bits(n, [0b00, 0b11]))
        memo = FarSetMemo(oracle)
        assert 0b11 in map(memo.optimum, range(1 << n))
        got = approx_far_set(memo, [0b00], d=0, trials=64, rng=SplitMix64(1))
        assert got == 0b11 and memo.calls == oracle.opts == 1 << n

    def test_trial_count_of_an_empty_domain(self):
        oracle = Counted(SetFamily.from_bits(4, ()))
        memo = FarSetMemo(oracle)
        assert approx_far_set(memo, [], d=1, trials=8, rng=SplitMix64(1)) is None
        assert memo.calls == oracle.opts == 1

    def test_parameter_validation(self):
        memo = FarSetMemo(ExplicitOracle(two_point_domain(4)))
        with pytest.raises(ValueError):
            approx_far_set(memo, [], 1, trials=0, rng=SplitMix64(0))
        with pytest.raises(ValueError):
            approx_far_set(memo, [1 << 4], 1, trials=8, rng=SplitMix64(0))

    def test_optimum_outside_the_universe_is_refused(self):
        # the one-center first mask is range checked like a trial's optimum
        # (and raises before any draw); an oracle answering a set beyond
        # the universe for it, or for a trial, is unsound.  The refused
        # optimum is counted as a call but neither stored nor made a ball
        n = 4

        class Beyond(Counted):
            def __init__(self, bad_mask):
                super().__init__(two_point_domain(n))
                self.bad_mask = bad_mask

            def opt_pm1(self, positive):
                got = super().opt_pm1(positive)
                return 1 << n if positive == self.bad_mask else got

        oracle, rng = Beyond(0b1111), SplitMix64(2)
        memo = FarSetMemo(oracle)
        with pytest.raises(SoundnessError, match="outside a universe of size 4"):
            approx_far_set(memo, [0], d=1, trials=8, rng=rng)
        assert memo.calls == oracle.opts == 1
        assert memo.optima == {} and memo.empty == 0
        assert rng.next_u64() == SplitMix64(2).next_u64()
        oracle = Beyond(next(SplitMix64(2).masks(n)))
        memo = FarSetMemo(oracle)
        with pytest.raises(SoundnessError, match="outside a universe of size 4"):
            approx_far_set(memo, [], d=1, trials=8, rng=SplitMix64(2))
        assert memo.calls == oracle.opts == 1
        assert memo.optima == {} and memo.empty == 0

    def test_universe_over_the_mask_width_limit_draws_nothing(self):
        class Wide(DomainOracle):
            universe_size = MASK_WIDTH_LIMIT + 1
            calls = 0

            def opt_pm1(self, positive):
                self.calls += 1
                return 0

            def exact_extend(self, query, ctx=None):
                return NOT_FOUND

        # the memo refuses the universe when it is made, before any call
        oracle = Wide()
        rng = SplitMix64(0)
        with pytest.raises(ValueError, match="mask width limit"):
            approx_far_set(FarSetMemo(oracle), [], 1, trials=8, rng=rng)
        assert oracle.calls == 0
        assert rng.next_u64() == SplitMix64(0).next_u64()  # no step was drawn


class TestDefaults:
    def test_default_cluster_radius(self):
        assert default_cluster_radius(1, 0) == 4
        assert default_cluster_radius(1, 1) == 36
        assert default_cluster_radius(3, 2) == 400

    def test_default_trials_formula(self):
        # ceil(ln((k+1)/eps) * 2^(2^c) * 4^c)
        assert default_trials(1, 0.01, 0) == math.ceil(math.log(200) * 2)
        assert default_trials(2, 0.01, 1) == math.ceil(math.log(300) * 16)

    def test_default_trials_too_large_to_represent(self):
        # 2^(2^10) * 4^10 exceeds the largest float
        assert default_trials(10, 0.01, 9) == math.ceil(
            math.log(1100) * (2 ** 512 * 4 ** 9)
        )
        with pytest.raises(GuardError, match="for 10 centers"):
            default_trials(10, 0.01, 10)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LimitedSparsifyParams(k=0, d=1)
        with pytest.raises(ValueError):
            LimitedSparsifyParams(k=1, d=2, p=4)  # p must exceed 2d
        with pytest.raises(ValueError):
            LimitedSparsifyParams(k=1, d=1, epsilon=1.5)


class TestClusterOrTrivial:
    def test_single_member_domain(self):
        fam = SetFamily.from_bits(3, [0])
        got = cluster_or_trivial(
            ExplicitOracle(fam), LimitedSparsifyParams(k=2, d=1, seed=5)
        )
        assert not got.trivial and got.family.bits_list() == [0]

    def test_two_point_domain_goes_trivial(self):
        n = 10
        fam = two_point_domain(n)
        got = cluster_or_trivial(
            ExplicitOracle(fam), LimitedSparsifyParams(k=1, d=1, seed=0)
        )
        assert got.trivial and len(got.family) == 2
        a, b = got.family.bits_list()
        assert distance(a, b, n) == n > 2

    def test_empty_domain(self):
        got = cluster_or_trivial(
            ExplicitOracle(SetFamily.from_bits(4, ())),
            LimitedSparsifyParams(k=2, d=1, seed=9),
        )
        assert not got.trivial and len(got.family) == 0

    def test_trials_count_every_optimization(self):
        oracle = Counted(two_point_domain(10))
        got = cluster_or_trivial(oracle, LimitedSparsifyParams(k=1, d=1, seed=0))
        assert got.trivial and got.calls == oracle.opts > 0
        # one trial finds the only member; the search for a second center
        # then asks the mask off it, finds its optimum within 2d and stops,
        # where the trials alone called once per new mask up to all 2^3
        oracle = Counted(SetFamily.from_bits(3, [0]))
        got = cluster_or_trivial(oracle, LimitedSparsifyParams(k=2, d=1, seed=5))
        assert not got.trivial
        assert got.calls == oracle.opts == 2

    def test_one_call_proves_a_rank_one_matroid_has_one_center(self):
        # every member of a rank-1 uniform matroid on 40 elements is within
        # 2 of every other: the first trial picks one, and the mask off it
        # proves no second center exists (the trials alone made 93 calls
        # before their give-up)
        oracle = MatroidBaseOracle(UniformMatroid(40, 1))
        got = cluster_or_trivial(oracle, LimitedSparsifyParams(k=2, d=1))
        assert got.family.bits == (1,) and not got.trivial
        assert got.calls == 2

    def test_matches_the_phase_without_a_memo(self):
        # the memo, the coverage stop and the first mask of the one-center
        # call change only the calls issued: PHASES_WITHOUT_A_MEMO pins the
        # centers, flag and calls of the phase that optimizes every trial
        # afresh, with no more calls than its trials plus that first mask
        rng = random.Random(71)
        phases = hashlib.sha256()
        for trial in range(150):
            n = rng.randint(1, 8)
            fam = random_family(rng, n, 20, nonempty=False)
            params = LimitedSparsifyParams(
                k=rng.randint(1, 3), d=rng.randint(0, 2), seed=trial,
                trials_override=rng.choice([None, 1, 8, 64]),
            )
            oracle = Counted(fam)
            got = cluster_or_trivial(oracle, params)
            assert got.calls == oracle.opts, trial
            check_phase(fam, params, got, phases)
        assert phases.hexdigest() == PHASES_WITHOUT_A_MEMO

    def test_matches_the_reference_call_by_call(self):
        # each far-set call of a phase against the plain call (see
        # matches_plain), from random start centers and memos pre-filled
        # with half the masks, one per phase
        rng = random.Random(97)
        early = certified = 0
        for trial in range(200):
            n = rng.randint(1, 8)
            fam = random_family(rng, n, 20, nonempty=False)
            k, d = rng.randint(1, 3), rng.randint(0, 2)
            trials = rng.choice([None, 1, 8, 64, 2**80])
            centers = [rng.getrandbits(n) for _ in range(rng.randint(0, 2))]
            memo = FarSetMemo(Counted(fam))
            if fam.bits and rng.random() < 0.5:
                for mask in rng.sample(range(1 << n), 1 << n >> 1):
                    memo.optimum(mask)
            want_memo = dict(memo.optima)
            gen, ref = SplitMix64(trial), SplitMix64(trial)
            while True:
                count = trials or default_trials(k, 0.01, len(centers))
                got, calls, want_calls, drawn = matches_plain(
                    fam, memo, centers, d, count, gen, ref, want_memo
                )
                if got is None:
                    early += calls < want_calls
                    # a one-center give-up that drew no mask
                    certified += len(centers) == 1 and drawn == 0
                    break
                centers.append(got)
                if len(centers) > k:
                    break
        assert early > 30 and certified > 30

    def test_memo_bounded_by_the_guard(self, monkeypatch):
        # with the guard at 2 the memo stops growing at 4 masks; lookups
        # still run.  GUARDED_PHASES was recorded while the centers and the
        # flag matched those of the phase without a memo
        monkeypatch.setattr(limited, "FARSET_MEMO_GUARD", 2)
        memos: list[FarSetMemo] = []
        real = limited.approx_far_set

        def spy(memo, centers, d, trials, rng):
            got = real(memo, centers, d, trials, rng)
            memos.append(memo)
            assert memo is memos[0] and len(memo.optima) <= 4
            return got

        monkeypatch.setattr(limited, "approx_far_set", spy)
        rng = random.Random(83)
        full = 0
        phases = hashlib.sha256()
        for trial in range(60):
            memos.clear()
            n = rng.randint(3, 7)
            fam = random_family(rng, n, 20)
            params = LimitedSparsifyParams(
                k=rng.randint(1, 3), d=rng.randint(0, 2), seed=trial,
                trials_override=rng.choice([1, 8, 64]),
            )
            oracle = Counted(fam)
            got = cluster_or_trivial(oracle, params)
            assert memos, trial
            assert got.calls == oracle.opts, trial
            check_phase(fam, params, got, phases)
            full += len(memos[0].optima) == 4
        assert full > 20
        assert phases.hexdigest() == GUARDED_PHASES

    def test_repeated_masks_above_the_guard(self):
        # a universe past the guard still answers a repeated mask from the
        # memo, over the whole phase: the first draw finds one of the two
        # members; the second call asks the mask off it (the other member,
        # far) and draws until a mask picks that member; the two-center
        # give-up then runs all 3000 trials.  One call per distinct mask.
        n = FARSET_MEMO_GUARD + 1
        full = (1 << n) - 1

        def picks_full(positive: int) -> bool:
            return positive.bit_count() > n // 2

        replay = SplitMix64(5)
        draws = [reference_top_bits(replay, n)]
        while True:
            draws.append(reference_top_bits(replay, n))
            if picks_full(draws[-1]) != picks_full(draws[0]):
                break
        draws += [reference_top_bits(replay, n) for _ in range(3000)]
        first = full if picks_full(draws[0]) else 0
        asked = set(draws) | {~first & full}
        oracle = Counted(two_point_domain(n))
        params = LimitedSparsifyParams(k=2, d=1, seed=5, trials_override=3000)
        got = cluster_or_trivial(oracle, params)
        assert not got.trivial and got.family.bits == (first, first ^ full)
        assert got.calls == oracle.opts == len(asked) < 1 + len(draws)

    def test_region_at_the_guard(self):
        # the case above one element narrower: at n = FARSET_MEMO_GUARD the
        # phase keeps a region, and the two-center call gives up once the
        # empty balls of its optima cover the far points, long before its
        # 3000 trials (the trials alone ran 3005); the first draw picks the
        # first center, as with the trials alone
        n = FARSET_MEMO_GUARD
        full = (1 << n) - 1
        first = full if reference_top_bits(SplitMix64(5), n).bit_count() > n // 2 else 0
        oracle = Counted(two_point_domain(n))
        params = LimitedSparsifyParams(k=2, d=1, seed=5, trials_override=3000)
        got = cluster_or_trivial(oracle, params)
        assert got.family.bits == (first, first ^ full) and not got.trivial
        assert got.calls == oracle.opts == 66

    def test_matches_the_phase_without_a_memo_at_the_region_boundary(self):
        # explicit families of one to three clusters (random centers, members
        # at most d flips from one, so within 2d of each other) on 15, 16
        # and 17 elements: the memo keeps a region up to the guard, at its
        # widest at 16, and none at 17.  REGION_BOUNDARY_PHASES was recorded
        # while the phase picked the centers and the flag of the trials
        # alone, with no more calls than their trials plus the one-center
        # first mask.  Below the boundary the region ends give-ups with two
        # or more centers in fewer calls than half the last call's trials
        rng = random.Random(1517)
        early = dict.fromkeys((15, 16, 17), 0)
        phases = hashlib.sha256()
        for trial in range(45):
            n = 15 + trial % 3
            assert (FarSetMemo(ExplicitOracle(two_point_domain(n))).empty is None) == (
                n > FARSET_MEMO_GUARD
            )
            d = rng.randint(0, 2)
            members = set()
            for _ in range(rng.choice([1, 2, 2, 3])):
                center = rng.getrandbits(n)
                for _ in range(rng.randint(1, 12)):
                    flips = rng.sample(range(n), rng.randint(0, d))
                    members.add(center ^ sum(1 << i for i in flips))
            fam = SetFamily.from_bits(n, sorted(members))
            params = LimitedSparsifyParams(
                k=rng.randint(1, 3), d=d, seed=trial,
                trials_override=rng.choice([64, 256, 2048]),
            )
            oracle = Counted(fam)
            got = cluster_or_trivial(oracle, params)
            assert got.calls == oracle.opts, trial
            check_phase(fam, params, got, phases)
            early[n] += not got.trivial and len(got.family) >= 2 and (
                got.calls < params.trials_override // 2
            )
        assert phases.hexdigest() == REGION_BOUNDARY_PHASES
        assert early[15] > 2 and early[16] > 2 and early[17] == 0

    def test_trivial_members_pairwise_far(self):
        rng = random.Random(29)
        seen_trivial = 0
        for trial in range(40):
            n = rng.randint(4, 8)
            fam = random_family(rng, n, 14)
            k = rng.randint(1, 2)
            d = rng.randint(0, 1)
            got = cluster_or_trivial(
                ExplicitOracle(fam),
                LimitedSparsifyParams(k=k, d=d, seed=trial, trials_override=64),
            )
            if got.trivial:
                seen_trivial += 1
                assert len(got.family) == k + 1
                for a, b in combinations(got.family.bits_list(), 2):
                    assert distance(a, b, n) > 2 * d
        assert seen_trivial > 5


class TestShiftedEmptyExtension:
    def test_empty_center_is_identity(self):
        fam = SetFamily.from_bits(3, [0b011, 0b100])
        oracle = ExplicitOracle(fam)
        view = ShiftedEmptyExtension(oracle, 0)
        got = view.exact_empty_extend(2, 0)
        assert isinstance(got, Found) and got.witness == 0b011

    def test_zero_radius_checks_center_membership(self):
        fam = SetFamily.from_bits(3, [0b011])
        oracle = ExplicitOracle(fam)
        inside = ShiftedEmptyExtension(oracle, 0b011)
        got = inside.exact_empty_extend(0, 0)
        assert isinstance(got, Found) and got.witness == 0
        outside = ShiftedEmptyExtension(oracle, 0b101)
        assert isinstance(outside.exact_empty_extend(0, 0), NotFound)

    def test_forwards_the_query_context(self):
        seen = []

        class Recording(ExplicitOracle):
            def exact_extend(self, query, ctx=None):
                seen.append(ctx)
                return super().exact_extend(query, ctx)

        view = ShiftedEmptyExtension(Recording(SetFamily.from_bits(2, [0b01])), 0b01)
        ctx = OracleContext(k=1, d=1, p=3)
        view.exact_empty_extend(0, 0, ctx)
        view.exact_empty_extend(0, 0)
        assert seen == [ctx, None]

    def test_forbidden_splits_into_forced_and_avoided(self):
        # members {0} and {0,1}; center {0}: query (r=1, Y*={0}) maps to
        # forced {0}, forbidden empty, and must return {0,1} shifted to {1}
        fam = SetFamily.from_bits(2, [0b01, 0b11])
        oracle = ExplicitOracle(fam)
        view = ShiftedEmptyExtension(oracle, 0b01)
        got = view.exact_empty_extend(1, 0b01)
        assert isinstance(got, Found) and got.witness == 0b10
        # brute check: the only member at shifted distance 1 keeping
        # element 0 as in the center is {0,1}
        matches = [
            b
            for b in fam.bits_list()
            if (b ^ 0b01).bit_count() == 1 and (b ^ 0b01) & 0b01 == 0
        ]
        assert matches == [0b11]


class TestDkSparsify:
    def test_single_empty_set(self):
        fam = SetFamily.from_bits(3, [0])
        report = dk_sparsify(ExplicitOracle(fam), LimitedSparsifyParams(k=1, d=1, seed=2))
        assert report.family.bits_list() == [0]
        assert not report.shortcut and not report.scattered

    def test_three_member_example(self):
        fam = SetFamily.from_bits(2, [0b01, 0b10, 0b11])
        report = dk_sparsify(ExplicitOracle(fam), LimitedSparsifyParams(k=2, d=2, seed=0))
        scope = VerifyScope.versus_all_subsets(k=2, cap=2)
        assert verify_sparsifier(fam, report.family, scope).ok

    def test_two_point_domain_returns_both_via_trivial(self):
        n = 10
        fam = two_point_domain(n)
        report = dk_sparsify(ExplicitOracle(fam), LimitedSparsifyParams(k=1, d=1, seed=0))
        assert report.scattered
        assert sorted(report.family.bits_list()) == [0, (1 << n) - 1]
        a, b = report.family.bits_list()
        assert distance(a, b, n) > 2
        scope = VerifyScope.versus_all_subsets(k=1, cap=1)
        assert verify_sparsifier(fam, report.family, scope).ok

    def test_scattered_families_satisfy_the_definition(self):
        rng = random.Random(63)
        seen = 0
        for trial in range(30):
            n = rng.randint(4, 8)
            fam = random_family(rng, n, 14)
            k = rng.randint(1, 2)
            d = rng.randint(0, 1)
            report = dk_sparsify(
                ExplicitOracle(fam),
                LimitedSparsifyParams(k=k, d=d, seed=trial, trials_override=64),
            )
            if not report.scattered:
                continue
            seen += 1
            scope = VerifyScope.versus_all_subsets(k=k, cap=d)
            assert verify_sparsifier(fam, report.family, scope).ok
        assert seen > 5

    def test_empty_domain_returns_empty_family(self):
        report = dk_sparsify(
            ExplicitOracle(SetFamily.from_bits(5, ())), LimitedSparsifyParams(k=2, d=1, seed=3)
        )
        assert len(report.family) == 0

    def test_output_is_subfamily_and_valid(self):
        rng = random.Random(41)
        for trial in range(25):
            n = rng.randint(3, 8)
            fam = random_family(rng, n, 16)
            k = rng.randint(1, 3)
            d = rng.randint(0, 3)
            report = dk_sparsify(
                ExplicitOracle(fam),
                LimitedSparsifyParams(k=k, d=d, seed=trial, trials_override=128),
            )
            for b in report.family.bits:
                assert fam.contains_bits(b)
            scope = VerifyScope.versus_all_subsets(k=k, cap=d)
            assert verify_sparsifier(fam, report.family, scope).ok

    def test_determinism_per_seed(self):
        fam = SetFamily.from_bits(6, [0b000111, 0b111000, 0b010101, 0b101010])
        params = LimitedSparsifyParams(k=2, d=1, seed=77, trials_override=64)
        first = dk_sparsify(ExplicitOracle(fam), params)
        second = dk_sparsify(ExplicitOracle(fam), params)
        assert first.family == second.family
        assert first.calls_opt == second.calls_opt
        assert first.calls_extend == second.calls_extend

    def test_call_counts_match_the_oracle(self):
        rng = random.Random(52)
        for trial in range(25):
            n = rng.randint(3, 7)
            fam = random_family(rng, n, 14)
            oracle = Counted(fam)
            report = dk_sparsify(
                oracle,
                LimitedSparsifyParams(
                    k=rng.randint(1, 2), d=rng.randint(0, 2), seed=trial,
                    trials_override=rng.choice([None, 32]),
                ),
            )
            assert report.calls_opt == oracle.opts > 0
            assert report.calls_extend == oracle.extends

    def test_shortcut_keeps_the_earlier_centers_calls(self):
        class ShortcutOnSecondCenter(Counted):
            # a valid trivial sparsifier for every query around a center
            # other than the first one asked about
            first = None

            def exact_extend(self, query, ctx=None):
                if self.first is None:
                    self.first = query.center
                if query.center == self.first:
                    return super().exact_extend(query, ctx)
                self.extends += 1
                return TrivialSparsifier(SetFamily.from_bits(3, [1, 2, 4]))

        oracle = ShortcutOnSecondCenter(SetFamily.from_bits(3, [0b000, 0b111]))
        report = dk_sparsify(oracle, LimitedSparsifyParams(k=2, d=0, seed=4))
        assert report.shortcut and report.family.bits_list() == [1, 2, 4]
        assert report.calls_opt == oracle.opts
        assert report.calls_extend == oracle.extends > 1

    def test_report_provenance(self):
        # report.params rebuilds the report in either mode; a limited run
        # stores the cluster radius it used
        rng = random.Random(61)
        kinds = set()
        for trial in range(60):
            n = rng.randint(2, 6)
            oracle = ExplicitOracle(random_family(rng, n, 10))
            k, d = rng.randint(1, 2), rng.randint(0, 2)
            p = rng.choice([None, 2 * d + 1])
            params = LimitedSparsifyParams(
                k=k, d=d, p=p, seed=trial, trials_override=rng.choice([None, 16])
            )
            limited = dk_sparsify(oracle, params)
            want_p = default_cluster_radius(k, d) if p is None else p
            assert limited.params == replace(params, p=want_p)
            kinds.add((limited.scattered, limited.passes > 0))
            ell = rng.randint(0, n)
            small = k_sparsify(SmallSparsifyParams(k=k, r=ell, ell=ell), oracle)
            assert small.params == SmallSparsifyParams(k=k, r=ell, ell=ell)
            for rep, again in (
                (limited, dk_sparsify(oracle, limited.params)),
                (small, k_sparsify(small.params, oracle)),
            ):
                # same family, calls_*, passes and flags
                assert again == rep
        # both the clustering branch and the per-center runs were reproduced
        assert {(True, False), (False, True)} <= kinds


class TestRawMasks:
    """The constructions hand families on as raw masks, and the CLI prints
    them from there: no SubsetMask is made inside them, on any branch."""

    def test_no_subset_mask_inside_the_constructions(
        self, monkeypatch, tmp_path, capsys
    ):
        made: list[int] = []
        validate = SubsetMask.__post_init__

        def counted(mask):
            made.append(mask.bits)
            validate(mask)

        monkeypatch.setattr(SubsetMask, "__post_init__", counted)

        class ShortcutEverywhere(ExplicitOracle):
            def exact_extend(self, query, ctx=None):
                return TrivialSparsifier(SetFamily.from_bits(3, [1, 2, 4]))

        rng = random.Random(62)
        branches = set()
        for trial in range(40):
            n = rng.randint(2, 6)
            fam = random_family(rng, n, 10)
            oracle = ExplicitOracle(fam)
            params = LimitedSparsifyParams(
                k=rng.randint(1, 2), d=rng.randint(0, 2), seed=trial
            )
            clusters = cluster_or_trivial(oracle, params)
            report = dk_sparsify(oracle, params)
            branches.add("scattered" if report.scattered else "per-center")
            ell = max(b.bit_count() for b in fam.bits_list())
            k_sparsify(SmallSparsifyParams(k=params.k, r=ell, ell=ell), oracle)
            assert made == [], (trial, clusters, report)
        assert branches == {"scattered", "per-center"}
        shortcut = dk_sparsify(
            ShortcutEverywhere(SetFamily.from_bits(3, [0b000, 0b111])),
            LimitedSparsifyParams(k=2, d=0, seed=4),
        )
        assert shortcut.shortcut and shortcut.family.bits_list() == [1, 2, 4]
        assert made == []
        path = tmp_path / "instance.txt"
        path.write_text("domain uniform_matroid rank=2\nuniverse 5\n")
        for argv in (
            "sparsify --k 2 --d 1 --mode small",
            "sparsify --k 2 --d 1 --mode limited",
            "enumerate",
        ):
            assert cli.run([*argv.split(), "--instance", str(path)]) == 0
            assert "set: 0 1" in capsys.readouterr().out, argv
            assert made == [], argv
