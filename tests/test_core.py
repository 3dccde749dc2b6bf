"""Masks, distances, families, and oracle-contract basics."""

from __future__ import annotations

import ast
import random
from copy import copy
from pathlib import Path

import pytest

import divsparse
from divsparse import (
    ExtensionQuery,
    Found,
    SetFamily,
    SplitMix64,
    SubsetMask,
    distance,
    pm1_weight,
)
from divsparse.core import ball_bits, submasks
from divsparse.domains import ExplicitOracle

from helpers import mask_from_indices, reference_top_bits


def mask(n, *indices):
    return mask_from_indices(n, indices)


class TestSubsetMask:
    def test_members_roundtrip(self):
        m = mask(6, 0, 3, 5)
        assert m.members() == (0, 3, 5)
        assert len(m) == 3
        assert 3 in m and 1 not in m

    def test_equality_is_membership_identity(self):
        assert mask(5, 1, 2) == SubsetMask(5, 0b00110)
        assert mask(5, 1, 2) != mask(5, 1, 3)

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError):
            SubsetMask(3, 0b1000)
        with pytest.raises(ValueError):
            mask_from_indices(3, [3])

    def test_universe_mismatch_rejected(self):
        # a family member is checked against the family's universe
        with pytest.raises(ValueError, match="outside a universe of size 3"):
            SetFamily.from_bits(3, [0b001, 0b1000])
        with pytest.raises(ValueError):
            SetFamily.from_bits(3, [-1])

    def test_mask_width_limit(self):
        from divsparse import MASK_WIDTH_LIMIT

        SubsetMask.empty(MASK_WIDTH_LIMIT)  # at the cap: fine
        with pytest.raises(ValueError):
            SubsetMask.empty(MASK_WIDTH_LIMIT + 1)
        with pytest.raises(ValueError):
            SubsetMask.empty(0)


class TestSubmasks:
    def test_counting_order_over_the_set_bits(self):
        # the subset a binary counter picks out of the set bits, lowest
        # bit first, for each counter value in turn
        def by_counter(m):
            elems = [i for i in range(m.bit_length()) if m >> i & 1]
            return [
                sum(1 << e for j, e in enumerate(elems) if guess >> j & 1)
                for guess in range(1 << len(elems))
            ]

        rng = random.Random(5)
        masks = [0, 1, 0b1011000, (1 << 10) - 1] + [
            sum(1 << e for e in rng.sample(range(40), rng.randint(0, 10)))
            for _ in range(300)
        ]
        for m in masks:
            assert list(submasks(m)) == by_counter(m)


class TestSetFamily:
    def test_insertion_order_and_duplicates(self):
        fam = SetFamily.from_bits(3, [0b001, 0b110])
        assert fam.bits == (0b001, 0b110) and len(fam) == 2
        assert fam.bits_list() == [0b001, 0b110]
        with pytest.raises(ValueError):
            SetFamily.from_bits(3, [0b001, 0b001])
        deduped = SetFamily.dedup_from_bits(3, [0b001, 0b001, 0b110])
        assert deduped.bits == (0b001, 0b110)
        assert deduped == fam

    def test_contains(self):
        fam = SetFamily.from_bits(3, [0b011])
        assert fam.contains_bits(0b011)
        assert not fam.contains_bits(0b001)


class TestHamming:
    def test_examples(self):
        n = 4
        assert distance(0b0011, 0b0110, n) == 2
        assert distance(0b0101, 0b0101, n) == 0
        assert distance(0b0111, 0, n) == 3

    def test_cardinality_identity(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randint(1, 16)
            a = rng.getrandbits(n)
            b = rng.getrandbits(n)
            expected = a.bit_count() + b.bit_count() - 2 * (a & b).bit_count()
            assert distance(a, b, n) == expected

    def test_triangle_inequality(self):
        rng = random.Random(11)
        for _ in range(10_000):
            n = rng.randint(1, 32)
            a, b, c = (rng.getrandbits(n) for _ in range(3))
            assert distance(a, c, n) <= distance(a, b, n) + distance(b, c, n)


class TestHammingBalls:
    def test_wide_balls_match_the_brute_force_sets(self):
        # widths above the trace tables' 12 bits, up to the far-set
        # region's widest universe, 16 elements; tests/test_solvers.py
        # checks every ball up to 8 bits through the trace tables' cache
        rng = random.Random(5)
        for width in range(13, 17):
            for _ in range(3):
                center, r = rng.getrandbits(width), rng.randint(-1, width + 1)
                want = sum(
                    1 << t for t in range(1 << width) if (t ^ center).bit_count() <= r
                )
                assert ball_bits(width, center, r) == want, (width, center, r)


class TestModifiedHamming:
    def test_examples(self):
        n = 4
        assert distance(0b0011, 0b1100, n, modified=True) == 0
        assert distance(0b0001, 0b1110, n, modified=True) == 0
        assert distance(0b0011, 0b0101, n, modified=True) == 2

    def test_complement_invariance_and_bound(self):
        rng = random.Random(13)
        for _ in range(2000):
            n = rng.randint(1, 16)
            a = rng.getrandbits(n)
            b = rng.getrandbits(n)
            got = distance(a, b, n, modified=True)
            assert got == distance(a, b ^ ((1 << n) - 1), n, modified=True)
            assert got <= n // 2


class TestPm1Weight:
    def test_weight_of(self):
        positive = 0b0101  # weights (+1, -1, +1, -1)
        assert pm1_weight(0b0101, positive) == 2
        assert pm1_weight(0b1010, positive) == -2
        assert pm1_weight(0b0011, positive) == 0
        assert pm1_weight(0, positive) == 0


class TestWeightVector:
    """The random +-1 weight vector of a far-set trial is the mask of its +1
    elements, drawn from ``rng.masks(n)``."""

    def test_random_draw_is_index_ordered(self):
        seed = 99
        gen = SplitMix64(seed)
        draws = [1 if gen.next_u64() >> 63 else -1 for _ in range(6)]
        positive = next(SplitMix64(seed).masks(6))
        assert [1 if positive >> i & 1 else -1 for i in range(6)] == draws
        assert pm1_weight((1 << 6) - 1, positive) == sum(draws)

    def test_random_mask_is_the_top_bit_of_each_step(self):
        # 200 masks span the lane-parallel blocks of 1, 2, 4, ..., 64 masks
        # and two more blocks of 64; after every mask the generator stands
        # where n steps per mask leave it
        for seed in (0, 1, 99, 2**63 + 5, 2**64 - 1):
            for n in range(1, 65):
                gen = SplitMix64(seed)
                drawn = SplitMix64(seed)
                masks = drawn.masks(n)
                for j in range(200):
                    assert next(masks) == reference_top_bits(gen, n), (seed, n, j)
                    assert copy(drawn).next_u64() == copy(gen).next_u64(), (seed, n, j)

    def test_mask_width_must_be_positive(self):
        with pytest.raises(ValueError):
            next(SplitMix64(0).masks(0))


class TestExtensionQuery:
    def test_forced_forbidden_disjoint(self):
        with pytest.raises(ValueError):
            ExtensionQuery(0b0001, 1, 0b0010, 0b0110)

    def test_admits(self):
        q = ExtensionQuery(0b0001, 2, 0b0010, 0b1000)
        assert q.admits_bits(0b0010)  # {1}: distance 2, forced in, forbidden out
        assert not q.admits_bits(0b1010)  # {1,3} touches forbidden
        assert not q.admits_bits(0b0100)  # {2} misses forced
        assert not q.admits_bits(0b0011)  # {0,1} sits at distance 1


class TestOraclePurity:
    def test_identical_calls_identical_results(self):
        fam = SetFamily.from_bits(5, [0b00111, 0b11000, 0b00001])
        oracle = ExplicitOracle(fam)
        positive = 0b10011
        assert oracle.opt_pm1(positive) == oracle.opt_pm1(positive)
        q = ExtensionQuery(0b00001, 2, 0, 0)
        first = oracle.exact_extend(q)
        second = oracle.exact_extend(q)
        assert isinstance(first, Found) and first == second


class TestSplitMix64:
    def test_reference_values(self):
        # SplitMix64 of seed 1234567: first outputs of the reference stream
        gen = SplitMix64(1234567)
        first = gen.next_u64()
        second = gen.next_u64()
        assert first != second
        again = SplitMix64(1234567)
        assert again.next_u64() == first and again.next_u64() == second


def test_no_assert_statement_in_the_package():
    # soundness checks must raise explicitly: python -O strips asserts
    root = Path(divsparse.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(root.rglob("*.py"))) >= 10
    assert found == []


def test_every_helper_is_used():
    # a top-level function or class of tests/helpers.py must be used by a
    # test module or by another helper: a reference copy whose test moved
    # on is deleted with it, not left behind
    def names(tree):
        return {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }

    tests = Path(__file__).parent
    helpers = ast.parse((tests / "helpers.py").read_text(encoding="utf-8")).body
    used = set().union(*(
        names(ast.parse(path.read_text(encoding="utf-8")))
        for path in tests.glob("test_*.py")
    ))
    inside = [names(node) for node in helpers]
    defined = [
        (i, node.name) for i, node in enumerate(helpers)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    orphans = [
        name for i, name in defined
        if name not in used and not any(name in seen for j, seen in enumerate(inside) if j != i)
    ]
    assert len(defined) > 20
    assert orphans == []
