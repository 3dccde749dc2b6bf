"""Sunflower detection, blocker enumeration, and the small sparsifier."""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from functools import partial
from itertools import combinations
from pathlib import Path

import pytest

import divsparse
from divsparse import (
    GuardError,
    OracleContext,
    SetFamily,
    SmallSparsifyParams,
    SoundnessError,
    SubsetMask,
    TrivialSparsifier,
    k_sparsify,
)
from divsparse.bruteforce import VerifyScope, verify_sparsifier
from divsparse.domains import ExplicitOracle
from divsparse.limited import (
    LimitedSparsifyParams,
    ShiftedEmptyExtension,
    cluster_or_trivial,
    default_cluster_radius,
)
from divsparse.instances import uniform_matroid_instance, vertex_cover_instance
from divsparse.sunflower import _ClassCores

from helpers import (
    blocker_candidates,
    brute_blockers,
    brute_cores,
    brute_required,
    class_required,
    generate_instance,
    is_sunflower,
    mask_from_indices,
    random_family,
    random_undirected_graph,
    reference_hitting_sets,
    restart_k_sparsify,
    union_of,
)


def fam(n, *bit_lists):
    return SetFamily.from_bits(
        n, [mask_from_indices(n, bits).bits for bits in bit_lists]
    )


class TestIsSunflower:
    def test_common_core(self):
        got = is_sunflower(fam(4, [0, 1], [0, 2], [0, 3]))
        assert got is not None and got.core.members() == (0,)

    def test_disjoint_sets_have_empty_core(self):
        got = is_sunflower(fam(4, [0, 1], [2, 3]))
        assert got is not None and len(got.core) == 0

    def test_mismatched_intersections(self):
        assert is_sunflower(fam(3, [0, 1], [0, 2], [1, 2])) is None

    def test_single_petal_core_is_petal(self):
        got = is_sunflower(fam(3, [0, 2]))
        assert got is not None and got.core.members() == (0, 2)

    def test_mixed_cardinalities_rejected(self):
        with pytest.raises(ValueError):
            is_sunflower(fam(3, [0], [0, 1]))

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            is_sunflower(SetFamily.from_bits(3, ()))


class TestBlockerCandidates:
    def test_empty_family_yields_empty_blocker(self):
        got = blocker_candidates(SetFamily.from_bits(4, ()), 1, 2)
        assert [m.bits for m in got] == [0]

    def test_single_singleton(self):
        family = fam(4, [0])
        got = [m.bits for m in blocker_candidates(family, 1, 2)]
        assert got == brute_blockers(family, 1, 2) == [0b0001]

    def test_two_singletons_blocked_by_empty_core(self):
        family = fam(4, [0], [1])
        got = blocker_candidates(family, 1, 2)
        assert got == [] and brute_blockers(family, 1, 2) == []

    def test_matches_brute_on_random_families(self):
        rng = random.Random(5)
        for _ in range(120):
            n = rng.randint(2, 6)
            family = random_family(rng, n, 6, max_size=3)
            ell_prime = rng.randint(0, 3)
            t = rng.randint(1, 4)
            got = [m.bits for m in blocker_candidates(family, ell_prime, t)]
            assert got == brute_blockers(family, ell_prime, t)

    def test_ordering_is_size_then_lex(self):
        family = fam(5, [0, 1], [0, 2])  # both size 2 share element 0
        got = blocker_candidates(family, 2, 3)  # no 3-sunflower: only members bind
        sizes = [len(m) for m in got]
        assert sizes == sorted(sizes)
        assert got[0].members() == (0,)  # the cheapest transversal first

    def test_union_guard(self):
        # no sunflower of size 23 exists among 22 singletons, so the
        # enumeration over the 22-element union must start, and is refused
        family = SetFamily.from_bits(24, [1 << i for i in range(22)])
        with pytest.raises(GuardError):
            blocker_candidates(family, 1, 23)
        # remembered answers never get to skip the guard, not even the
        # empty set, which rules out every candidate
        for known_empty in ([0b11], [0]):
            with pytest.raises(GuardError):
                next(reference_hitting_sets(
                    union_of(family), family.bits_list(), by_top(known_empty)
                ))

    def test_empty_core_blocks_without_enumerating(self):
        # 22 singletons do hold a 12-sunflower with empty core: nothing can
        # intersect it, so the (huge) enumeration is legally skipped
        family = SetFamily.from_bits(24, [1 << i for i in range(22)])
        assert blocker_candidates(family, 1, 12) == []


class TestClassCores:
    def test_matches_from_scratch_cores_after_every_insertion(self):
        rng = random.Random(17)
        confirmed = rejected = 0
        for _ in range(150):
            n = rng.randint(3, 8)
            size = rng.randint(1, min(3, n - 1))
            pool = [sum(1 << e for e in c) for c in combinations(range(n), size)]
            group = rng.sample(pool, min(len(pool), rng.randint(2, 8)))
            t = rng.randint(1, 5)
            for _order in range(2):
                rng.shuffle(group)
                record = _ClassCores(t, n)
                for i, member in enumerate(group):
                    record.add(member)
                    family = SetFamily.from_bits(n, group[: i + 1])
                    want = set(brute_cores(family, size, t))
                    assert record.members == group[: i + 1]
                    assert sorted(record.cores) == sorted(want)
                    # only cores with room for t disjoint petals are kept
                    assert all(
                        c.bit_count() + t * (size - c.bit_count()) <= n
                        for c in record._candidates
                    )
                if t >= 3:
                    candidates = {a & b for a, b in combinations(group, 2)}
                    confirmed += len(want)
                    rejected += len(candidates - want)
        # the packing test really runs both ways
        assert confirmed > 20 and rejected > 20


def by_top(sets):
    """Known-empty sets keyed the way the enumerator reads them."""
    out: dict[int, list[int]] = {}
    for y in sets:
        out.setdefault(y.bit_length(), []).append(y)
    return out


class TestHittingSetsWithKnownEmpty:
    def test_matches_brute_minus_supersets(self):
        rng = random.Random(41)
        for _ in range(150):
            n = rng.randint(2, 6)
            family = random_family(rng, n, 6, max_size=3)
            ell_prime = rng.randint(0, 3)
            t = rng.randint(1, 4)
            union = union_of(family)
            known_empty = [
                rng.getrandbits(n) & union for _ in range(rng.randint(1, 3))
            ]
            got = list(reference_hitting_sets(
                union, brute_required(family, ell_prime, t), by_top(known_empty)
            ))
            want = [
                y for y in brute_blockers(family, ell_prime, t)
                if not any(b & ~y == 0 for b in known_empty)
            ]
            assert got == want

    def test_order_and_repeats_of_required_do_not_matter(self):
        rng = random.Random(43)
        for _ in range(150):
            n = rng.randint(2, 6)
            family = random_family(rng, n, 6, max_size=3)
            union = union_of(family)
            required = brute_required(family, rng.randint(0, 3), rng.randint(1, 4))
            known_empty = by_top([rng.getrandbits(n) & union for _ in range(2)])
            want = list(reference_hitting_sets(union, required, known_empty))
            shuffled = required + rng.choices(required, k=len(required) // 2)
            rng.shuffle(shuffled)
            assert list(reference_hitting_sets(union, shuffled, known_empty)) == want

    def test_sets_appended_while_iterating_prune_the_rest(self):
        union = 0b1111
        known_empty: dict[int, list[int]] = {}
        seen = []
        for y in reference_hitting_sets(union, [], known_empty):
            seen.append(y)
            if y in (0b0001, 0b0110):
                known_empty.setdefault(y.bit_length(), []).append(y)
        # nothing above {0} follows it, and {1,2,3} is cut by {1,2}
        assert seen == [0, 0b0001, 0b0010, 0b0100, 0b1000, 0b0110, 0b1010, 0b1100]


def replay_class(rng, n, size, t, kinds):
    """One class's walk over a random member sequence, in lockstep with
    the walk from scratch: from its start, and again over the grown union
    after each find.  Once it ends, the walk from scratch stays empty, also
    over a union other classes grow.  Returns the number of blockers
    compared.

    The walk starts over a union that members of other classes may have
    grown, with some sets known empty; each blocker is answered NotFound
    or, at random, Found with a new member it misses.
    """
    record = _ClassCores(t, n)
    pool = [sum(1 << e for e in c) for c in combinations(range(n), size)]
    union = rng.getrandbits(n) & rng.getrandbits(n)
    for _ in range(rng.randint(0, 2)):
        if other := rng.getrandbits(n) & union:
            record.known_empty.setdefault(other.bit_length(), []).append(other)
    kinds["first"] += 1
    want = reference_hitting_sets(union, class_required(record), record.known_empty)
    compared = 0
    for y in record.blockers(union):
        assert y == next(want)
        compared += 1
        fresh = [m for m in pool if not m & y and m not in record.members]
        if fresh and rng.random() < (0.9 if y == 0 else 0.3):
            found = rng.choice(fresh)
            union |= found
            record.add(found)
            kinds["after a find"] += 1
            want = reference_hitting_sets(
                union, class_required(record), record.known_empty
            )
        else:
            record.known_empty.setdefault(y.bit_length(), []).append(y)
    assert next(want, None) is None
    assert record.union == union
    kinds["ran dry"] += 1
    union |= rng.getrandbits(n)
    again = reference_hitting_sets(union, class_required(record), record.known_empty)
    assert next(again, None) is None
    kinds["dead"] += record.dead
    return compared


class TestResumedWalk:
    """The walk, resumed in place after each find, yields the blockers of
    the walk from scratch over the grown union."""

    @pytest.mark.parametrize("t_range", [(1, 1), (2, 4)])
    def test_replays_match_the_walk_from_scratch(self, t_range):
        rng = random.Random(61 + t_range[0])
        kinds: Counter[str] = Counter()
        compared = 0
        for _ in range(250):
            n = rng.randint(2, 9)
            size = rng.randint(0, min(3, n))
            t = rng.randint(*t_range)
            compared += replay_class(rng, n, size, t, kinds)
        assert min(kinds[k] for k in ("first", "after a find", "ran dry")) >= 200
        assert kinds["dead"] >= 20  # empty members or empty cores
        assert compared > 500

    def test_an_empty_core_ends_the_class_before_the_guard(self):
        # two disjoint members form a 2-sunflower with empty core
        record = _ClassCores(2, 24)
        for member in (0b0011, 0b1100):
            record.add(member)
        assert record.dead and 0 in record.cores
        assert list(record.blockers((1 << 24) - 1)) == []


class TestWalkAgainstNestedGenerators:
    """The explicit-stack walk yields what the nested-generator walk
    :func:`reference_hitting_sets` yields, blocker for blocker, on the same
    record and union."""

    def test_same_blockers_in_the_same_order(self):
        rng = random.Random(73)
        kinds: Counter[str] = Counter()
        compared = 0
        for _ in range(600):
            n = rng.randint(1, 9)
            record = _ClassCores(rng.randint(1, 4), n)
            size = rng.randint(0, min(3, n))
            pool = [sum(1 << e for e in c) for c in combinations(range(n), size)]
            for member in rng.sample(pool, rng.randint(0, min(5, len(pool)))):
                record.add(member)
            # members of other classes widen the union
            union = rng.getrandbits(n) & rng.getrandbits(n)
            for member in record.members:
                union |= member
            for _ in range(rng.randint(0, 3)):
                if y := rng.getrandbits(n) & rng.getrandbits(n) & union:
                    record.known_empty.setdefault(y.bit_length(), []).append(y)
            kinds["fresh"] += 1
            kinds["dead"] += record.dead
            # both walks read the one known_empty dict live
            want = reference_hitting_sets(
                union, class_required(record), record.known_empty
            )
            for y in record.blockers(union):
                assert y == next(want)
                compared += 1
                if rng.random() < 0.3:
                    record.known_empty.setdefault(y.bit_length(), []).append(y)
                    kinds["appended"] += 1
            assert next(want, None) is None
        assert min(kinds[k] for k in ("fresh", "appended")) >= 200
        assert kinds["dead"] >= 50
        assert compared > 1000


def small_params(k, r, ell):
    return SmallSparsifyParams(k=k, r=r, ell=ell)


class TestKSparsify:
    def test_five_singletons_keep_two(self):
        family = SetFamily.from_bits(5, [1 << i for i in range(5)])
        report = k_sparsify(small_params(1, 1, 1), ExplicitOracle(family))
        assert len(report.family) == 2
        assert all(b.bit_count() == 1 for b in report.family.bits)
        scope = VerifyScope.versus_ball(
            k=1, cap=None, center=SubsetMask.empty(5), radius=1
        )
        assert verify_sparsifier(family, report.family, scope).ok

    def test_empty_set_domain(self):
        family = SetFamily.from_bits(3, [0])
        report = k_sparsify(small_params(2, 3, 0), ExplicitOracle(family))
        assert report.family.bits_list() == [0]

    def test_three_disjoint_pairs(self):
        family = SetFamily.from_bits(6, [0b000011, 0b001100, 0b110000])
        report = k_sparsify(small_params(1, 2, 2), ExplicitOracle(family))
        assert len(report.family) <= 3
        scope = VerifyScope.versus_ball(
            k=1, cap=None, center=SubsetMask.empty(6), radius=2
        )
        assert verify_sparsifier(family, report.family, scope).ok

    def test_params_validation(self):
        with pytest.raises(ValueError):
            small_params(0, 1, 1)
        with pytest.raises(ValueError):
            small_params(1, 1, 2)  # ell must not exceed r

    def test_random_validity_size_bound_and_subset(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(3, 8)
            r = rng.randint(1, 4)
            k = rng.randint(1, 3)
            family = random_family(rng, n, 20, max_size=r)
            ell = max((b.bit_count() for b in family.bits), default=0)
            report = k_sparsify(small_params(k, r, ell), ExplicitOracle(family))
            bound = math.factorial(ell + 1) * (k * r + 1) ** ell
            assert len(report.family) <= bound
            for b in report.family.bits:
                assert family.contains_bits(b)
            scope = VerifyScope.versus_ball(
                k=k, cap=None, center=SubsetMask.empty(n), radius=r
            )
            assert verify_sparsifier(family, report.family, scope).ok

    def test_no_oversized_sunflower_in_output(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(30):
            n = rng.randint(3, 7)
            r = rng.randint(1, 2)
            k = rng.randint(1, 2)
            t = k * r + 2
            family = random_family(rng, n, 18, max_size=r)
            ell = max((b.bit_count() for b in family.bits), default=0)
            report = k_sparsify(small_params(k, r, ell), ExplicitOracle(family))
            members = report.family.bits
            if len(members) > 12:
                continue
            checked += 1
            by_size: dict[int, list[int]] = {}
            for b in members:
                by_size.setdefault(b.bit_count(), []).append(b)
            for group in by_size.values():
                for sub in combinations(group, min(t, len(group))):
                    if len(sub) == t:
                        assert is_sunflower(SetFamily.from_bits(n, sub)) is None
        assert checked > 10

    def test_guard_fires_for_a_class_with_no_blocker_left(self):
        # the classes of sizes 0 and 1 run out of blockers early; the tenth
        # disjoint pair grows the union to 21 elements and completes a
        # 10-sunflower with empty core, so only the two exhausted classes
        # are left open, and they still make the guard fire
        family = SetFamily.from_bits(24, [1] + [0b11 << (2 * i + 1) for i in range(10)])
        with pytest.raises(GuardError):
            k_sparsify(small_params(1, 9, 2), ExplicitOracle(family))

    def test_deterministic_and_call_counts_recorded(self):
        family = SetFamily.from_bits(6, [0b000111, 0b111000, 0b000110])
        params = small_params(2, 3, 3)
        first = k_sparsify(params, ExplicitOracle(family))
        second = k_sparsify(params, ExplicitOracle(family))
        assert first.family == second.family
        assert first.calls_extend == second.calls_extend > 0
        assert first.passes == len(first.family) + 1

    def test_calls_extend_counts_every_query(self):
        class Counted(ExplicitOracle):
            calls = 0

            def exact_empty_extend(self, r, forbidden, ctx=None):
                self.calls += 1
                return super().exact_empty_extend(r, forbidden, ctx)

        rng = random.Random(88)
        for _ in range(20):
            n = rng.randint(3, 6)
            family = random_family(rng, n, 12)
            ell = max(b.bit_count() for b in family.bits)
            oracle = Counted(family)
            report = k_sparsify(small_params(rng.randint(1, 3), ell, ell), oracle)
            assert report.calls_extend == oracle.calls > 0

    def test_trivial_sparsifier_is_checked_against_the_context(self):
        class Trivial(ExplicitOracle):
            def exact_empty_extend(self, r, forbidden, ctx=None):
                return TrivialSparsifier(SetFamily.from_bits(4, [0b0000, 0b1111]))

        oracle = Trivial(SetFamily.from_bits(4, [0b0011, 0b0111]))
        params = small_params(1, 3, 3)
        report = k_sparsify(params, oracle, OracleContext(k=1, d=1, p=3))
        assert report.shortcut and report.calls_extend == 1
        assert report.family.bits_list() == [0b0000, 0b1111]
        with pytest.raises(SoundnessError, match="not k\\+1 = 3"):
            k_sparsify(params, oracle, OracleContext(k=2, d=1, p=3))
        with pytest.raises(SoundnessError, match="without context"):
            k_sparsify(params, oracle)


def shifted_view(make_oracle, center):
    return ShiftedEmptyExtension(make_oracle(), center)


def reference_grid():
    """Seeded (params, oracle factory) cases: explicit families, plain and
    shifted by a random center."""
    rng = random.Random(2024)
    for _ in range(150):
        n = rng.randint(3, 6)
        family = random_family(rng, n, 14)
        k = rng.randint(1, 3)
        ell = max(b.bit_count() for b in family.bits)
        r = rng.randint(ell, ell + 1)
        yield small_params(k, r, ell), partial(ExplicitOracle, family)
        center = rng.getrandbits(n)
        shifted_ell = max((b ^ center).bit_count() for b in family.bits)
        yield (
            small_params(k, shifted_ell, shifted_ell),
            partial(shifted_view, partial(ExplicitOracle, family), center),
        )


# SHA-256 of (members, passes, calls_extend) of every k_sparsify run on the
# grid above.  The output must not change, and neither may the call count
# unless it goes down on purpose: a shortcut that skips a query whose
# answer is not implied changes this digest.
REFERENCE_GRID_RUNS = "76b30d35dd943202694740a31b214f05834e7eaa9acd09ce5fc93c49822c7790"


class TestAgainstReference:
    """REFERENCE_GRID_RUNS was recorded while the members and passes
    matched those of the construction without remembered answers, which
    regenerates every blocker each pass from the definition, with fewer
    calls on over 150 of the 300 runs and more on none."""

    def test_plain_and_shifted_explicit_families(self):
        runs = hashlib.sha256()
        for params, make_oracle in reference_grid():
            report = k_sparsify(params, make_oracle())
            members = report.family.bits_list()
            runs.update(f"{members};{report.passes};{report.calls_extend}|".encode())
        assert runs.hexdigest() == REFERENCE_GRID_RUNS


def min_cover_size(nv, edges):
    return min(
        b.bit_count() for b in range(1 << nv)
        if all(b >> u & 1 or b >> v & 1 for u, v in edges)
    )


def sunflower_grid():
    """Seeded (k, instance) cases whose classes hold (kr+1)-petal
    sunflowers: uniform matroids, and vertex covers of sparse graphs
    with ell one or two above the minimum cover."""
    for n, rank in ((8, 2), (9, 2), (10, 2), (11, 2), (8, 3), (9, 3), (10, 3)):
        for k in (2, 3):
            yield k, uniform_matroid_instance(n, rank)
    rng = random.Random(9)
    for _ in range(40):
        nv = rng.randint(7, 9)
        graph = random_undirected_graph(rng, nv, rng.randint(1, nv))
        ell = min(nv, min_cover_size(nv, graph.edges) + rng.randint(1, 2))
        yield rng.randint(2, 3), vertex_cover_instance(graph, ell)


# SHA-256 of (members, passes, calls_extend) of every k_sparsify run on
# sunflower_grid(), recorded before the sunflower cores were kept across
# passes; like REFERENCE_GRID_RUNS it must not change.
SUNFLOWER_GRID_RUNS = "3eb53389b567ba61b54de8fbfb884858f89580aba854684a3ae7ffd90099827c"


def test_sunflower_grid_runs_are_pinned():
    runs = hashlib.sha256()
    for k, instance in sunflower_grid():
        ell = instance.size_bound
        report = k_sparsify(small_params(k, ell, ell), instance.oracle())
        members = report.family.bits_list()
        runs.update(f"{members};{report.passes};{report.calls_extend}|".encode())
    assert runs.hexdigest() == SUNFLOWER_GRID_RUNS


def test_one_walk_per_class(monkeypatch):
    walks: Counter[int] = Counter()
    walk = _ClassCores.blockers

    def counted(record, *args):
        walks[id(record)] += 1
        return walk(record, *args)

    monkeypatch.setattr(_ClassCores, "blockers", counted)
    cases = list(reference_grid()) + [
        (small_params(k, inst.size_bound, inst.size_bound), inst.oracle)
        for k, inst in sunflower_grid()
    ]
    members = 0
    for params, make_oracle in cases:
        walks.clear()
        members += len(k_sparsify(params, make_oracle()).family)
        assert walks and max(walks.values()) == 1
    assert members > len(cases)  # walks do go on past finds


class Recording:
    """Forwards empty extensions to ``inner`` and records each (l', Y)."""

    def __init__(self, inner):
        self.inner = inner
        self.universe_size = inner.universe_size
        self.queries = []

    def exact_empty_extend(self, r, forbidden, ctx=None):
        self.queries.append((r, forbidden))
        return self.inner.exact_empty_extend(r, forbidden, ctx)


def limited_grid():
    """Seeded (params, oracle factory) cases of the limited pipeline's
    per-center runs: ``SmallSparsifyParams(k, p + d, p)`` over the shifted
    view of each far-set center of spanning-tree, matching and min-cut
    instances.  t = k (p + d) + 1 exceeds the universe, so no class has a
    core, and the adapters answer queries with forced and forbidden sets."""
    for kind in ("spanning_tree", "matching", "st_mincut"):
        for seed in range(10):
            instance, _ = generate_instance(kind, seed, 40, min_domain=3)
            params = LimitedSparsifyParams(k=2, d=1 + seed % 2, seed=seed)
            clusters = cluster_or_trivial(instance.oracle(), params)
            if clusters.trivial:
                continue  # k + 1 far members: no per-center runs
            p = default_cluster_radius(params.k, params.d)
            for center in clusters.family.bits:
                yield (
                    small_params(params.k, p + params.d, p),
                    partial(shifted_view, instance.oracle, center),
                )


class TestAgainstRestart:
    """Resuming the walks asks the queries of restarting them."""

    def test_same_queries_in_the_same_order(self):
        cases = list(reference_grid()) + [
            (small_params(k, inst.size_bound, inst.size_bound), inst.oracle)
            for k, inst in sunflower_grid()
        ]
        limited = list(limited_grid())
        assert len(limited) >= 20
        cases += limited
        for params, make_oracle in cases:
            got, want = Recording(make_oracle()), Recording(make_oracle())
            report = k_sparsify(params, got)
            members, passes, calls = restart_k_sparsify(params, want)
            assert got.queries == want.queries
            assert report.family.bits_list() == members
            assert (report.passes, report.calls_extend) == (passes, calls)
            assert report.passes == len(report.family) + 1

    def test_guard_fires_after_the_same_queries(self):
        # the union outgrows the guard once in a drained class (the
        # disjoint pairs, see test_guard_fires_for_a_class_with_no_blocker_left)
        # and once where the growing class is u24's rank-3 sets
        pairs = SetFamily.from_bits(24, [1] + [0b11 << (2 * i + 1) for i in range(10)])
        cases = [
            (small_params(1, 9, 2), partial(ExplicitOracle, pairs)),
            (small_params(2, 3, 3), uniform_matroid_instance(24, 3).oracle),
        ]
        for params, make_oracle in cases:
            got, want = Recording(make_oracle()), Recording(make_oracle())
            with pytest.raises(GuardError, match="2\\^20 guard"):
                k_sparsify(params, got)
            with pytest.raises(GuardError, match="2\\^20 guard"):
                restart_k_sparsify(params, want)
            assert got.queries == want.queries
            assert len(got.queries) > 10


_LYING_ORACLES = textwrap.dedent(
    """
    import sys
    from divsparse import (
        DomainOracle, ExtensionQuery, Found, LimitedSparsifyParams, NOT_FOUND,
        OracleContext, SetFamily, SmallSparsifyParams, SoundnessError,
        TrivialSparsifier, dk_sparsify, k_sparsify, min_cluster_radius,
    )
    from divsparse.domains import Matroid, MatroidBaseOracle

    N = 6

    class Liar(DomainOracle):
        # members only of size 2; each lie breaks one checked property
        def __init__(self, lie):
            self.lie = lie

        @property
        def universe_size(self):
            return N

        def opt_pm1(self, positive):
            if self.lie == "optimum":  # outside the universe
                return 1 << N | 1
            return 0b11

        def exact_extend(self, query, ctx=None):
            if self.lie == "coverage":  # a center far from the cluster
                return Found(query.center ^ ((1 << N) - 1))
            if self.lie == "center":  # covers the cluster, outside the universe
                return Found(query.center | 1 << N) if query.radius == 1 else NOT_FOUND
            # "count" / "spacing": a trivial sparsifier that is not one
            bits = [0b01, 0b11] if self.lie == "spacing" else [0b01]
            return TrivialSparsifier(SetFamily.from_bits(N, bits))

        def exact_empty_extend(self, r, forbidden, ctx=None):
            if r != 2:
                return NOT_FOUND
            top = ((1 << r) - 1) << (N - r)
            y = forbidden
            if self.lie == "universe":
                return Found(1 << N | 1)
            if self.lie == "size":
                return Found((1 << (r + 1)) - 1)
            if self.lie == "member" or y == 0:
                return Found(top)
            # "blocker": a new set holding the lowest forbidden element
            low = y & -y
            free = ~y & ((1 << N) - 1)
            return Found(low | (free & -free))

    def sparsify(lie):
        return k_sparsify(SmallSparsifyParams(k=1, r=2, ell=2), Liar(lie))

    runs = {lie: sparsify for lie in ("universe", "size", "member", "blocker")}
    runs["coverage"] = runs["center"] = lambda lie: min_cluster_radius(
        [0b11], 1, Liar(lie)
    )
    runs["optimum"] = lambda lie: dk_sparsify(
        Liar(lie), LimitedSparsifyParams(k=1, d=0, trials_override=2)
    )
    # "count" / "spacing": where the clustering search and the limited
    # pipeline consume a trivial sparsifier
    for lie in ("count", "spacing"):
        runs[lie + "_cluster"] = lambda _, lie=lie: min_cluster_radius(
            [0b11], 1, Liar(lie), OracleContext(k=1, d=1, p=1)
        )
        runs[lie + "_limited"] = lambda _, lie=lie: dk_sparsify(
            Liar(lie), LimitedSparsifyParams(k=1, d=1, trials_override=2)
        )

    class NotAMatroid(Matroid):
        # independent iff inside {0,1} or inside {2,3}: no strong exchange
        universe_size = 4
        rank = 2

        def independent_bits(self, bits):
            return bits & ~0b0011 == 0 or bits & ~0b1100 == 0

    runs["exchange"] = lambda lie: MatroidBaseOracle(NotAMatroid()).exact_extend(
        ExtensionQuery(0b0011, 2, 0, 0)
    )

    class ShortGreedy(Matroid):
        # independent iff inside {0,1} or inside {2,3,4}: greedy can stop
        # below the rank, or pass it
        universe_size = 5

        def __init__(self, rank):
            self.rank = rank

        def independent_bits(self, bits):
            return bits & ~0b00011 == 0 or bits & ~0b11100 == 0

    runs["far_base"] = lambda lie: MatroidBaseOracle(ShortGreedy(2)).exact_extend(
        ExtensionQuery(0b00011, 2, 0, 0)
    )
    runs["opt_base"] = lambda lie: MatroidBaseOracle(ShortGreedy(3)).opt_pm1(0b11111)

    class DropsForced(Matroid):
        # rank-2 uniform matroid whose greedy hook ignores the forced set:
        # the exchange walk reaches the radius on a base without element 2
        universe_size = 4
        rank = 2

        def independent_bits(self, bits):
            return bits.bit_count() <= 2

        def greedy_bits(self, forced, pools):
            return Matroid.greedy_bits(self, 0, pools)

    runs["walk_end"] = lambda lie: MatroidBaseOracle(DropsForced()).exact_extend(
        ExtensionQuery(0b0011, 2, 0b0100, 0)
    )

    from unittest import mock

    from divsparse import ProblemSpec, SparsifierReport, solve, solvers
    from divsparse.domains import ExplicitOracle

    class Forgetful(ExplicitOracle):
        # answers the clustering search's queries, then finds nothing.  In
        # k-sum-of-radii with d = 1 the singleton {000} asks none, {000, 011}
        # asks one, and the final cluster {000, 011, 001}, reached without
        # a query since 001 is the center, no longer has the radius the
        # search used.  k-center asks none: the member 001 covers every
        # cluster, and the final cluster no longer has a center within d
        calls = 0

        def __init__(self, fam, answers):
            super().__init__(fam)
            self.answers = answers

        def exact_extend(self, query, ctx=None):
            self.calls += 1
            if self.calls > self.answers:
                return NOT_FOUND
            return super().exact_extend(query, ctx)

    def forgetful(problem, answers):
        fam = SetFamily.from_bits(3, [0b000, 0b011, 0b001])
        params = SmallSparsifyParams(k=1, r=2, ell=2)
        report = SparsifierReport(fam, params)
        with mock.patch.object(solvers, "_sparsify", lambda *a: report):
            return solve(Forgetful(fam, answers), ProblemSpec(problem, 1, 1), params)

    runs["radius"] = lambda lie: forgetful("ksumradii", 1)
    runs["center_within_d"] = lambda lie: forgetful("kcenter", 0)

    class TrivialLiar(ExplicitOracle):
        # a one-member "trivial sparsifier" for every query with a context
        def exact_extend(self, query, ctx=None):
            if ctx is None:
                return super().exact_extend(query, ctx)
            return TrivialSparsifier(SetFamily.from_bits(4, [0b0001]))

    trivial_liar = TrivialLiar(SetFamily.from_bits(4, [0b0011, 0b0111]))
    runs["trivial_solve"] = lambda lie: solve(
        trivial_liar, ProblemSpec("kcenter", 1, 1), LimitedSparsifyParams(k=1, d=1)
    )
    runs["trivial_sparsify"] = lambda lie: dk_sparsify(
        trivial_liar, LimitedSparsifyParams(k=1, d=1)
    )

    class EmptyTrivialLiar(ExplicitOracle):
        # a one-member "trivial sparsifier" for every empty extension,
        # consumed by the small pipeline, which asks without a context
        def exact_empty_extend(self, r, forbidden, ctx=None):
            return TrivialSparsifier(SetFamily.from_bits(4, [0b0001]))

    runs["trivial_small"] = lambda lie: k_sparsify(
        SmallSparsifyParams(k=1, r=3, ell=3),
        EmptyTrivialLiar(SetFamily.from_bits(4, [0b0011, 0b0111])),
    )

    from divsparse.domains import DagDpOracle, GraphData, MatchingOracle, VertexCoverOracle

    class CoverLiar(VertexCoverOracle):
        # the forced subproblem answers with every vertex
        def _solve_forced(self, forced, blocked, size):
            return self._full

    runs["cover"] = lambda lie: CoverLiar(
        GraphData(False, 3, ((0, 1), (1, 2))), 2
    ).exact_extend(ExtensionQuery(0b010, 1, 0, 0))

    class MatchingLiar(MatchingOracle):
        # the count DP answers with a forbidden edge
        def _search(self, forced, forbidden, marked, want):
            return forbidden

    runs["matching"] = lambda lie: MatchingLiar(
        GraphData(False, 4, ((0, 1), (1, 2), (2, 3))), 1
    ).exact_extend(ExtensionQuery(0, 1, 0, 0b001))

    class DagLiar(DagDpOracle):
        # a labeling the constructor refuses, swapped in after its check:
        # the longest path 0 -> 1 repeats label 0, so its label set is short
        def __init__(self):
            super().__init__(GraphData(True, 2, ((0, 1),)), (0, 1), 2)
            self._labels = (0, 0)

    runs["dag"] = lambda lie: DagLiar().exact_extend(ExtensionQuery(0, 2, 0, 0))

    print("optimize", sys.flags.optimize)
    for lie, run in runs.items():
        try:
            run(lie)
            print(lie, "accepted")
        except SoundnessError as exc:
            print(lie, "refused:", exc)
    """
)


def test_lying_oracle_is_refused_under_optimize():
    src = str(Path(divsparse.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _LYING_ORACLES],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    lines = done.stdout.splitlines()
    assert lines[0] == "optimize 1"
    verdicts = dict(line.split(" ", 1) for line in lines[1:])
    assert "outside a universe of size 6" in verdicts["universe"]
    assert "does not have size 2" in verdicts["size"]
    assert "already a member" in verdicts["member"]
    assert "meets the blocker" in verdicts["blocker"]
    assert "cluster coverage certificate failed" in verdicts["coverage"]
    assert "center 0x43 has elements outside a universe of size 6" in verdicts["center"]
    assert "optimum 0x41 has elements outside a universe of size 6" in verdicts["optimum"]
    for where in ("cluster", "limited"):
        assert "not k+1 = 2" in verdicts["count_" + where]
        assert "within 2d = 2" in verdicts["spacing_" + where]
    assert "1 members, not k+1 = 2" in verdicts["trivial_solve"]
    assert "1 members, not k+1 = 2" in verdicts["trivial_sparsify"]
    assert "answered a query without context" in verdicts["trivial_small"]
    assert "strong exchange property violated" in verdicts["exchange"]
    assert "farthest base did not end at the rank" in verdicts["far_base"]
    assert "optimization did not end at the rank" in verdicts["opt_base"]
    assert "fixed-size search returned 0x3 outside the query" in verdicts["walk_end"]
    assert "relied on cluster radius 1" in verdicts["radius"]
    assert "relied on a center within d = 1" in verdicts["center_within_d"]
    assert "cover search returned 0x7 outside the query" in verdicts["cover"]
    assert "fixed-size search returned 0x1 outside the query" in verdicts["matching"]
    assert "fixed-size search returned 0x1 outside the query" in verdicts["dag"]
