"""Ground-truth engine: enumeration, verification, exhaustive solving."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from divsparse import GuardError, ProblemSpec, SetFamily, SoundnessError, SubsetMask
from divsparse import bruteforce
from divsparse.bruteforce import (
    VerifyScope,
    brute_solve,
    enumerate_domain,
    verify_sparsifier,
)
from divsparse.domains import GraphData
from divsparse.instances import (
    matching_instance,
    spanning_tree_instance,
    st_mincut_instance,
)

from helpers import generate_instance, random_family, versus_domain


class TestEnumerateDomain:
    def test_c4_matchings(self):
        graph = GraphData(
            directed=False, n_vertices=4, edges=((0, 1), (1, 2), (2, 3), (3, 0))
        )
        got = enumerate_domain(matching_instance(graph, 2))
        assert sorted(got.bits_list()) == [0b0101, 0b1010]

    def test_triangle_spanning_trees(self):
        graph = GraphData(directed=False, n_vertices=3, edges=((0, 1), (1, 2), (2, 0)))
        got = enumerate_domain(spanning_tree_instance(graph))
        assert sorted(got.bits_list()) == [0b011, 0b101, 0b110]
        assert all(b.bit_count() == 2 for b in got.bits_list())

    def test_diamond_min_cuts(self):
        graph = GraphData(
            directed=True, n_vertices=4, edges=((0, 1), (0, 2), (1, 3), (2, 3))
        )
        got = enumerate_domain(st_mincut_instance(graph, 0, 3))
        assert len(got) == 4

    def test_guard(self):
        class FakeInstance:
            @staticmethod
            def oracle():
                return SimpleNamespace(universe_size=21)

            @staticmethod
            def membership(bits):
                return False

        with pytest.raises(GuardError):
            enumerate_domain(FakeInstance)

    def test_idempotent_refilter(self):
        for seed in range(4):
            instance, domain = generate_instance("vertex_cover", seed, 40)
            for bits in domain.bits_list():
                assert instance.membership(bits)
            for bits in range(1 << domain.universe_size):
                if not domain.contains_bits(bits):
                    assert not instance.membership(bits)


class TestVerifySparsifier:
    def test_identity_is_always_a_sparsifier(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 7)
            fam = random_family(rng, n, 10, nonempty=False)
            for scope in (
                versus_domain(2, None),
                VerifyScope.versus_all_subsets(2, 2),
            ):
                assert verify_sparsifier(fam, fam, scope).ok

    def test_dropping_a_far_member_fails(self):
        # domain {{0},{1}}, candidate {{0}}: the domain reaches distance 2
        # from {0} but the candidate only reaches 0
        fam = SetFamily.from_bits(2, [0b01, 0b10])
        cand = SetFamily.from_bits(2, [0b01])
        scope = versus_domain(1, None)
        got = verify_sparsifier(fam, cand, scope)
        assert not got.ok
        assert got.counterexample is not None
        (refs, missed) = got.counterexample
        assert refs[0].bits == 0b01 and missed.bits == 0b10

    def test_cap_zero_accepts_anything_nonempty(self):
        fam = SetFamily.from_bits(2, [0b01, 0b10])
        cand = SetFamily.from_bits(2, [0b01])
        scope = versus_domain(1, 0)
        assert verify_sparsifier(fam, cand, scope).ok

    def test_candidate_outside_domain_rejected(self):
        fam = SetFamily.from_bits(2, [0b01])
        cand = SetFamily.from_bits(2, [0b10])
        with pytest.raises(ValueError):
            verify_sparsifier(fam, cand, versus_domain(1, None))

    def test_empty_candidate_fails_on_nonempty_domain(self):
        fam = SetFamily.from_bits(2, [0b01])
        got = verify_sparsifier(
            fam, SetFamily.from_bits(2, ()), versus_domain(1, 0)
        )
        assert not got.ok

    def test_counterexamples_are_genuine(self):
        rng = random.Random(19)
        seen_failures = 0
        for _ in range(40):
            n = rng.randint(2, 6)
            fam = random_family(rng, n, 12)
            keep = rng.randint(1, len(fam))
            cand = SetFamily.from_bits(n, fam.bits_list()[:keep])
            cap = rng.choice([None, rng.randint(0, 4)])
            scope = VerifyScope.versus_all_subsets(rng.randint(1, 3), cap)
            got = verify_sparsifier(fam, cand, scope)
            if got.ok:
                continue
            seen_failures += 1
            refs, missed = got.counterexample
            cap_value = cap if cap is not None else n
            for kb in cand.bits_list():
                dominated = all(
                    min(cap_value, (f.bits ^ kb).bit_count())
                    >= min(cap_value, (f.bits ^ missed.bits).bit_count())
                    for f in refs
                )
                assert not dominated
        assert seen_failures > 5

    def test_all_subsets_is_the_ball_of_radius_n(self):
        rng = random.Random(23)
        seen_failures = 0
        for _ in range(40):
            n = rng.randint(1, 12)
            fam = random_family(rng, n, 10)
            cand = SetFamily.from_bits(n, fam.bits_list()[: rng.randint(1, len(fam))])
            k = rng.randint(1, 2)
            cap = rng.choice([None, rng.randint(0, 4)])
            want = verify_sparsifier(fam, cand, VerifyScope.versus_all_subsets(k, cap))
            ball = VerifyScope.versus_ball(k, cap, SubsetMask.empty(n), n)
            got = verify_sparsifier(fam, cand, ball)
            assert (got.ok, got.counterexample) == (want.ok, want.counterexample)
            assert not got.sampled and not want.sampled
            seen_failures += not got.ok
        assert seen_failures > 5

    def test_counterexample_check_survives_optimize(self, monkeypatch):
        # an explicit check, so it also holds under ``python -O``
        fam = SetFamily.from_bits(2, [0b01, 0b10])
        cand = SetFamily.from_bits(2, [0b01])
        monkeypatch.setattr(
            bruteforce, "_is_genuine_counterexample", lambda *args: False
        )
        with pytest.raises(SoundnessError, match="counterexample"):
            verify_sparsifier(fam, cand, versus_domain(1, None))

    def test_sampled_mode_above_reference_guard(self):
        n = 14
        fam = SetFamily.from_bits(n, [0, 1, (1 << n) - 1])
        got = verify_sparsifier(
            fam, fam, VerifyScope.versus_all_subsets(1, 2)
        )
        assert got.ok and got.sampled

    def test_sampled_only_when_a_reference_set_can_be_missed(self):
        # 10,000 draws hold all 2^13 subsets, and at most 10,000 of the
        # 14,893 sets of the ball of radius 6 on 16 elements
        fam = SetFamily.from_bits(13, [0, 1, (1 << 13) - 1])
        got = verify_sparsifier(fam, fam, VerifyScope.versus_all_subsets(1, 2))
        assert got.ok and not got.sampled
        fam = SetFamily.from_bits(16, [0, 1, (1 << 16) - 1])
        ball = VerifyScope.versus_ball(1, 2, SubsetMask.empty(16), 6)
        got = verify_sparsifier(fam, fam, ball)
        assert got.ok and got.sampled


class TestBruteSolve:
    def test_named_answers(self):
        graph = GraphData(
            directed=False, n_vertices=4, edges=((0, 1), (1, 2), (2, 3), (3, 0))
        )
        matchings = enumerate_domain(matching_instance(graph, 2))
        assert brute_solve(matchings, ProblemSpec("maxmin", 2, 4)).feasible
        tri = GraphData(directed=False, n_vertices=3, edges=((0, 1), (1, 2), (2, 0)))
        trees = enumerate_domain(spanning_tree_instance(tri))
        assert not brute_solve(trees, ProblemSpec("maxmin", 2, 3)).feasible
        two = SetFamily.from_bits(2, [0b01, 0b10])
        assert brute_solve(two, ProblemSpec("kcenter", 1, 2)).feasible
        assert not brute_solve(two, ProblemSpec("kcenter", 1, 1)).feasible

    def test_monotone_in_d(self):
        rng = random.Random(8)
        for _ in range(15):
            n = rng.randint(2, 6)
            fam = random_family(rng, n, 10)
            k = rng.randint(1, 3)
            maxmin = [
                brute_solve(fam, ProblemSpec("maxmin", k, d)).feasible
                for d in range(n + 2)
            ]
            # feasibility can only fall as the threshold grows
            assert all(b or not a for a, b in zip(maxmin[1:], maxmin))
            kcenter = [
                brute_solve(fam, ProblemSpec("kcenter", k, d)).feasible
                for d in range(n + 1)
            ]
            assert all(b or not a for a, b in zip(kcenter, kcenter[1:]))

    def test_guard(self):
        fam = SetFamily.from_bits(12, list(range(1, 400)))
        with pytest.raises(GuardError):
            brute_solve(fam, ProblemSpec("maxmin", 3, 1))

    def test_max_sum_scan_check_survives_optimize(self, monkeypatch):
        monkeypatch.setattr(
            bruteforce, "combinations_with_replacement", lambda *args: iter(())
        )
        two = SetFamily.from_bits(2, [0b01, 0b10])
        with pytest.raises(SoundnessError, match="max-sum scan"):
            brute_solve(two, ProblemSpec("maxsum", 2, 1))
