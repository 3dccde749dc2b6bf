"""The four problem solvers against the exhaustive reference."""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
import tracemalloc
from dataclasses import replace
from functools import cache, partial
from itertools import combinations, product

import pytest

from divsparse import (
    DomainOracle,
    Found,
    GloballyInfeasible,
    GuardError,
    LimitedSparsifyParams,
    OracleContext,
    ProblemSpec,
    SetFamily,
    SmallSparsifyParams,
    SolveAnswer,
    SoundnessError,
    SparsifierReport,
    TrivialSparsifier,
    distance,
    dk_sparsify,
    min_cluster_radius,
    solve,
)
from divsparse.bruteforce import brute_solve, enumerate_domain
from divsparse.cli import run
from divsparse.core import iter_bits, submasks
from divsparse.domains import ExplicitOracle, GraphData
from divsparse.instances import (
    matching_instance,
    spanning_tree_instance,
    uniform_matroid_instance,
)
from divsparse import solvers
from divsparse.solvers import (
    _cluster_cost,
    _distance_rows,
    _far_graphs,
    _max_sum_tuple,
    _pairwise_far,
)

from helpers import (
    certify_answer,
    complement_closed_family,
    generate_instance,
    limited_params,
    random_family,
    reference_maxsum,
    reference_min_cluster_radius,
    reference_oriented_radius,
    small_params,
)

FAST_PARAMS = limited_params(seed=0, trials=96)


def c4_matchings():
    graph = GraphData(
        directed=False, n_vertices=4, edges=((0, 1), (1, 2), (2, 3), (3, 0))
    )
    return matching_instance(graph, 2)


def triangle_trees():
    graph = GraphData(directed=False, n_vertices=3, edges=((0, 1), (1, 2), (2, 0)))
    return spanning_tree_instance(graph)


K5_EDGES = tuple((u, v) for u in range(5) for v in range(u + 1, 5))


def k5_solve(tmp_path, mode: str, *args: str) -> tuple[str, float]:
    """Stdout and wall time of ``solve`` on the spanning trees of K5."""
    path = tmp_path / "k5.txt"
    path.write_text(
        "domain spanning_tree\ngraph undirected 5 10\n"
        + "".join(f"{u} {v}\n" for u, v in K5_EDGES)
    )
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = run(["solve", *args, "--mode", mode, "--instance", str(path)])
    assert code == 0
    return out.getvalue(), time.perf_counter() - start


class CountingExtensions(DomainOracle):
    """Pass-through oracle that counts exact-extension calls."""

    def __init__(self, inner: DomainOracle) -> None:
        self._inner = inner
        self.extend_calls = 0

    @property
    def universe_size(self) -> int:
        return self._inner.universe_size

    @property
    def complement_closed(self) -> bool:
        return self._inner.complement_closed

    def opt_pm1(self, positive):
        return self._inner.opt_pm1(positive)

    def exact_extend(self, query, ctx=None):
        self.extend_calls += 1
        return self._inner.exact_extend(query, ctx)

    def exact_empty_extend(self, r, forbidden, ctx=None):
        return self._inner.exact_empty_extend(r, forbidden, ctx)


class ScriptedExtensions(CountingExtensions):
    """Records every exact-extension query; the query numbered ``fault_at``
    gets ``fault`` instead of the inner oracle's answer."""

    def __init__(self, inner: DomainOracle, fault_at: int, fault) -> None:
        super().__init__(inner)
        self.queries = []
        self.fault_at = fault_at
        self.fault = fault

    def exact_extend(self, query, ctx=None):
        self.queries.append(query)
        if len(self.queries) == self.fault_at:
            return self.fault
        return super().exact_extend(query, ctx)


class MemoizedExtensions(CountingExtensions):
    """Sends each distinct exact-extension query to the inner oracle once
    and answers a repeat from the first Found or NotFound answer, as the
    query memo of one solve does."""

    def __init__(self, inner: DomainOracle) -> None:
        super().__init__(inner)
        self.answers = {}

    def exact_extend(self, query, ctx=None):
        if query in self.answers:
            return self.answers[query]
        out = super().exact_extend(query, ctx)
        if not isinstance(out, TrivialSparsifier):
            self.answers[query] = out
        return out


def compare_cluster_searches(search, reference, rng, trials, draw) -> set:
    """Run ``search`` and ``reference`` as ``(cluster, d, oracle, ctx, lo)``
    on ``trials`` cases from ``draw(rng) -> (family, cluster, d)``, each
    against its own scripted copy of the family with the same fault: a
    trivial sparsifier that passes its check (the clustering is
    infeasible), one with too few members, a center outside the universe,
    or a center that is some other domain member.  Answers, error types
    and texts, and query lists must agree; returns the outcome kinds seen."""
    seen = set()
    for _ in range(trials):
        fam, cluster, d = draw(rng)
        n = fam.universe_size
        full = (1 << n) - 1
        lo = rng.randint(0, d + 1)
        ctx = rng.choice((None, OracleContext(k=1, d=0, p=0)))
        fault = rng.choice((
            None,
            TrivialSparsifier(SetFamily.from_bits(n, [0, full])),
            TrivialSparsifier(SetFamily.from_bits(n, [0])),
            Found(1 << n),
            Found(rng.choice(fam.bits)),
        ))
        fault_at = rng.randint(1, 6) if fault is not None else 0
        runs = []
        for run_search in (search, reference):
            oracle = ScriptedExtensions(ExplicitOracle(fam), fault_at, fault)
            try:
                got = run_search(cluster, d, oracle, ctx, lo)
            except (SoundnessError, GloballyInfeasible) as err:
                got = (type(err), str(err))
            runs.append((got, oracle.queries))
        assert runs[0] == runs[1], (fam.bits, cluster, d, lo, ctx, fault, fault_at)
        got = runs[0][0]
        seen.add(got[0] if got and isinstance(got[0], type) else type(got))
    return seen


class TestMaxMin:
    def test_c4_matchings_k2_d4(self):
        instance = c4_matchings()
        spec = ProblemSpec("maxmin", 2, 4)
        answer = solve(instance.oracle(), spec, FAST_PARAMS)
        assert answer.feasible
        assert sorted(w.bits for w in answer.witnesses) == [0b0101, 0b1010]
        certify_answer(enumerate_domain(instance), spec, answer)

    def test_triangle_trees_k2_d3_infeasible(self):
        spec = ProblemSpec("maxmin", 2, 3)
        answer = solve(triangle_trees().oracle(), spec, FAST_PARAMS)
        assert not answer.feasible

    def test_k1_feasible_iff_nonempty(self):
        fam = SetFamily.from_bits(4, [0b0011])
        spec = ProblemSpec("maxmin", 1, 7)
        answer = solve(ExplicitOracle(fam), spec, FAST_PARAMS)
        assert answer.feasible and len(answer.witnesses) == 1
        empty = solve(ExplicitOracle(SetFamily.from_bits(4, ())), spec, FAST_PARAMS)
        assert not empty.feasible

    def test_d0_feasible_iff_nonempty(self):
        fam = SetFamily.from_bits(3, [0b001])
        spec = ProblemSpec("maxmin", 3, 0)
        answer = solve(ExplicitOracle(fam), spec, FAST_PARAMS)
        assert answer.feasible

    def test_clique_search_matches_the_tuple_scan(self, monkeypatch):
        # the sparsifier is the family itself, so only the search is under
        # test; small universes give many qualifying groups at once (ties),
        # so witnesses pin the lexicographically first one, and complements
        # are distinct members at modified distance 0
        rng = random.Random(12)
        for trial in range(240):
            n = rng.randint(2, 7)
            modified = trial % 3 == 0
            if modified:
                fam = complement_closed_family(rng, n, 10)
            else:
                fam = random_family(rng, n, 12, nonempty=trial % 20 != 1)

            def whole(oracle, params, k, cap, modified, fam=fam):
                # the whole family: a sparsifier of any order and radius
                n = fam.universe_size
                return SparsifierReport(fam, SmallSparsifyParams(k=k, r=n, ell=n))

            monkeypatch.setattr(solvers, "_sparsify", whole)
            for k in range(1, 5):
                spec = ProblemSpec("maxmin", k, rng.randint(0, n), modified)
                got = solve(ExplicitOracle(fam), spec, FAST_PARAMS)
                assert got == brute_solve(fam, spec), (fam.bits, spec)


class TestMaxSum:
    def test_triangle_trees_k3_d6(self):
        instance = triangle_trees()
        spec = ProblemSpec("maxsum", 3, 6)
        answer = solve(instance.oracle(), spec, FAST_PARAMS)
        assert answer.feasible and answer.objective == 6
        certify_answer(enumerate_domain(instance), spec, answer)

    def test_single_member_duplicate_tuple(self):
        fam = SetFamily.from_bits(3, [0b011])
        oracle = ExplicitOracle(fam)
        assert not solve(oracle, ProblemSpec("maxsum", 2, 1), FAST_PARAMS).feasible
        assert solve(oracle, ProblemSpec("maxsum", 2, 0), FAST_PARAMS).feasible

    def test_empty_sparsifier_has_no_objective(self, monkeypatch):
        def empty(oracle, params, k, cap, modified):
            return SparsifierReport(
                SetFamily.from_bits(4, ()), SmallSparsifyParams(k=k, r=4, ell=4)
            )

        monkeypatch.setattr(solvers, "_sparsify", empty)
        for k, d in ((1, 0), (2, 0), (3, 5)):
            oracle = ExplicitOracle(SetFamily.from_bits(4, ()))
            answer = solve(oracle, ProblemSpec("maxsum", k, d), FAST_PARAMS)
            assert answer == SolveAnswer(feasible=False, objective=None)

    def test_search_matches_the_tuple_scan(self):
        # tiny universes and drawn-with-repetition members give duplicate
        # members and many tuples tied on their sums, so the tuple pins the
        # lexicographically first one; complements tie at modified distance 0
        rng = random.Random(24)
        for m, k, modified, _ in product(range(15), range(1, 6), (False, True), range(2)):
            n = rng.randint(1, 6)
            members = [rng.getrandbits(n) for _ in range(m)]
            spec = ProblemSpec("maxsum", k, 0, modified)
            dist = list(_distance_rows(members, n, modified))
            assert list(map(list, dist)) == [
                [distance(a, b, n, modified) for b in members] for a in members
            ]
            want = reference_maxsum(members, n, spec)
            assert _max_sum_tuple(dist, k) == want, (members, n, spec)


class TestMinClusterRadius:
    def test_self_cover(self):
        fam = SetFamily.from_bits(4, [0b0011, 0b1100])
        got = min_cluster_radius([0b0011], 2, ExplicitOracle(fam))
        assert got is not None and got[0] == 0 and got[1] == 0b0011

    def test_two_singletons(self):
        fam = SetFamily.from_bits(2, [0b01, 0b10])
        cluster = [0b01, 0b10]
        got = min_cluster_radius(cluster, 2, ExplicitOracle(fam))
        assert got is not None and got[0] == 2 and got[1] in (0b01, 0b10)
        assert min_cluster_radius(cluster, 1, ExplicitOracle(fam)) is None

    @staticmethod
    def random_clusters():
        """(oracle, domain bits, cluster, d, least radius over the domain)."""
        rng = random.Random(77)
        for seed in range(30):
            instance, domain = generate_instance("explicit", seed, 14)
            bits = domain.bits_list()
            size = rng.randint(1, min(4, len(bits)))
            cluster_bits = rng.sample(bits, size)
            d = rng.randint(0, 3)
            direct = min(
                (
                    max((c ^ b).bit_count() for b in cluster_bits)
                    for c in bits
                ),
            )
            yield instance.oracle(), cluster_bits, d, direct

    def test_matches_direct_minimum_on_random_instances(self):
        for oracle, cluster_bits, d, direct in self.random_clusters():
            got = min_cluster_radius(cluster_bits, d, oracle)
            if direct <= d:
                assert got is not None and got[0] == direct
            else:
                assert got is None

    def test_lower_bound_up_to_the_least_radius_keeps_the_answer(self):
        for oracle, cluster_bits, d, direct in self.random_clusters():
            want = min_cluster_radius(cluster_bits, d, oracle)
            for lo in range(direct + 1):
                assert min_cluster_radius(cluster_bits, d, oracle, lo=lo) == want

    def test_lower_bound_under_either_distance(self):
        # the plain distance runs the cost loop with its one orientation,
        # so it is exactly one min_cluster_radius call on the sorted cluster
        for modified in (True, False):
            rng = random.Random(78)
            for _ in range(40):
                n = rng.randint(3, 6)
                if modified:
                    fam = complement_closed_family(rng, n, 10)
                else:
                    fam = random_family(rng, n, 10)
                bits = fam.bits_list()
                picked = rng.sample(range(len(bits)), rng.randint(1, min(4, len(bits))))
                held = sum(1 << i for i in picked)
                cluster = [bits[i] for i in picked]
                d = rng.randint(0, 3)
                oracle = ExplicitOracle(fam)
                want = _cluster_cost(oracle, bits, d, n, modified, None)(held)
                least = min(
                    max(distance(c, b, n, modified) for b in cluster) for c in bits
                )
                assert (want is None) == (least > d)
                if not modified:
                    assert want == min_cluster_radius(sorted(cluster), d, oracle)
                for lo in range(least + 1):
                    evaluate = _cluster_cost(oracle, bits, d, n, modified, None)
                    assert evaluate(held, lo=lo) == want

    def test_orientations_ask_the_queries_of_every_guess(self):
        # orientations wider than 2d are skipped without a call; the cost
        # and the queries are those of a loop over every orientation.  The
        # members are arbitrary masks, not domain members, so a one-member
        # cluster, which is answered as its own center, is never drawn
        def draw(rng):
            n = rng.randint(2, 7)
            fam = complement_closed_family(rng, n, 12)
            cluster = rng.sample(range(1 << n), rng.randint(2, min(6, 1 << n)))
            return fam, cluster, rng.randint(0, 4)

        def oriented_cost(cluster, d, oracle, ctx, lo):
            # the members are distinct: every index is in the cluster
            evaluate = _cluster_cost(oracle, cluster, d, oracle.universe_size, True, ctx)
            return evaluate((1 << len(cluster)) - 1, lo)

        def reference(cluster, d, oracle, ctx, lo):
            # one query memo per cost, so both sides send the same distinct
            # queries to the scripted oracle and number its faults alike
            return reference_oriented_radius(cluster, d, MemoizedExtensions(oracle), ctx, lo)

        seen = compare_cluster_searches(
            oriented_cost, reference, random.Random(4244), 400, draw
        )
        assert seen == {SoundnessError, GloballyInfeasible, tuple, type(None)}

    def test_lazy_guesses_ask_the_queries_of_the_eager_reference(self):
        def draw(rng):
            n = rng.randint(2, 7)
            fam = random_family(rng, n, 14)
            cluster = [rng.getrandbits(n) for _ in range(rng.randint(1, 4))]
            return fam, cluster, rng.randint(0, 4)

        seen = compare_cluster_searches(
            min_cluster_radius, reference_min_cluster_radius, random.Random(4242), 600, draw
        )
        assert seen == {SoundnessError, GloballyInfeasible, tuple, type(None)}

    def test_guesses_beyond_one_table_ask_the_queries_of_the_eager_reference(self):
        # clusters disagreeing on more elements than a trace table covers:
        # the traces above the table are looped over in counting order
        wide = 0

        def draw(rng):
            nonlocal wide
            n = rng.randint(13, 16)
            base = rng.getrandbits(n)

            def near(least, most):
                flips = rng.sample(range(n), rng.randint(least, most))
                return base ^ sum(1 << e for e in flips)

            cluster = [near(3, 5) for _ in range(rng.randint(5, 8))]
            fam = SetFamily.from_bits(n, list(dict.fromkeys(near(0, 4) for _ in range(10))))
            union = agreement = cluster[0]
            for b in cluster:
                union, agreement = union | b, agreement & b
            wide += (union & ~agreement).bit_count() > solvers.TRACE_TABLE_BITS
            return fam, cluster, rng.randint(4, 7)

        seen = compare_cluster_searches(
            min_cluster_radius, reference_min_cluster_radius, random.Random(4243), 60, draw
        )
        assert seen == {SoundnessError, GloballyInfeasible, tuple, type(None)}
        assert wide >= 20

    @pytest.mark.parametrize("table_bits", [1, 2, 3])
    def test_narrow_tables_ask_the_queries_of_the_eager_reference(self, monkeypatch, table_bits):
        # the same loop over the elements above the table, with many of them
        monkeypatch.setattr(solvers, "TRACE_TABLE_BITS", table_bits)

        def draw(rng):
            n = rng.randint(2, 9)
            fam = random_family(rng, n, 14)
            cluster = [rng.getrandbits(n) for _ in range(rng.randint(1, 5))]
            return fam, cluster, rng.randint(0, 4)

        seen = compare_cluster_searches(
            min_cluster_radius, reference_min_cluster_radius, random.Random(table_bits), 300, draw
        )
        assert seen == {SoundnessError, GloballyInfeasible, tuple, type(None)}

    def test_translated_balls_match_the_brute_force_sets(self):
        for width in range(9):
            for index in range(1 << width):
                for r in range(-1, width + 2):
                    want = sum(
                        1 << t for t in range(1 << width) if (t ^ index).bit_count() <= r
                    )
                    assert solvers._ball_at(width, index, r) == want, (width, index, r)
        # at most 1024 cached balls of at most 2**TRACE_TABLE_BITS bits each
        maxsize = solvers._ball_at.cache_info().maxsize
        assert maxsize is not None and maxsize <= 1024

    def test_trace_indices_match_the_brute_force_bits(self):
        for low in range(1 << 9):
            elements = [e for e in range(9) if low >> e & 1]
            for index in range(1 << len(elements)):
                trace = sum(1 << e for j, e in enumerate(elements) if index >> j & 1)
                assert solvers._index_trace(low, index) == trace, (low, index)
                assert solvers._trace_index(low, trace) == index, (low, trace)
                assert solvers._trace_index(low, solvers._index_trace(low, index)) == index
                assert solvers._index_trace(low, solvers._trace_index(low, trace)) == trace
        for cached in (solvers._trace_index, solvers._index_trace):
            maxsize = cached.cache_info().maxsize
            assert maxsize is not None and maxsize <= 4096

    def test_wide_cluster_answers_with_one_query(self, monkeypatch):
        # 40 disagreement elements: a table over every trace would need 2^40
        # bits; the first trace in counting order, the empty one, answers.
        # The traces above the table are drawn lazily: a search that listed
        # all 2^28 of them fails here, not by running out of memory
        def bounded(mask):
            for count, trace in enumerate(submasks(mask)):
                if count == 1_000:
                    raise AssertionError("more than 1,000 high traces drawn")
                yield trace

        monkeypatch.setattr(solvers, "submasks", bounded)
        n = 40
        a, b = (1 << 20) - 1, ((1 << 20) - 1) << 20
        oracle = CountingExtensions(ExplicitOracle(SetFamily.from_bits(n, [0, a, b])))
        assert min_cluster_radius([0, a, b], 20, oracle) == (20, 0)
        assert oracle.extend_calls == 1

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            min_cluster_radius([], 1, ExplicitOracle(SetFamily.from_bits(2, ())))
        for outside in (-1, 0b100):
            with pytest.raises(ValueError):
                min_cluster_radius([outside], 1, ExplicitOracle(SetFamily.from_bits(2, ())))


def explicit_text(fam: SetFamily) -> str:
    """The instance file of an explicit family."""
    lines = ["domain explicit", f"universe {fam.universe_size}"]
    for bits in fam.bits:
        lines.append(" ".join(["set", *map(str, iter_bits(bits))]))
    return "\n".join(lines) + "\n"


def seeded_family(rng: random.Random, modified: bool) -> SetFamily:
    n = rng.randint(5, 7)
    if modified:
        return complement_closed_family(rng, n, 10)
    return random_family(rng, n, 9)


class TestOneMemberClusters:
    """A one-member cluster is its own center at radius 0, answered
    without a query: it holds a sparsifier member, which is a domain
    member, and a radius-0 query at a member admits only that member."""

    @pytest.mark.parametrize("modified", [False, True], ids=["plain", "modified"])
    def test_answered_without_a_query(self, modified):
        rng = random.Random(7_000 + modified)
        for _ in range(40):
            fam = seeded_family(rng, modified)
            bits = fam.bits_list()
            n, d = fam.universe_size, rng.randint(0, 3)
            oracle = CountingExtensions(ExplicitOracle(fam))
            evaluate = _cluster_cost(oracle, bits, d, n, modified, None)
            for i, b in enumerate(bits):
                assert evaluate(1 << i) == (0, b)
                assert evaluate(1 << i, requery=True) == (0, b)  # the final recheck
            assert oracle.extend_calls == 0
            # the radius search, which asks one query, finds the same pair
            for b in bits:
                assert min_cluster_radius([b], d, ExplicitOracle(fam)) == (0, b)

    @pytest.mark.parametrize(
        "modified, seed, want",
        [
            (False, 7_304, "YES\nset: 0 1 6\nset: 1 2 3 6\nset: 2 5 6\n"
             "radius: 0\nradius: 2\nradius: 0\n"),
            (True, 7_384, "YES\nset: 1 2 4\nset: 0 2 3 4\nset: 0 1 5\n"
             "radius: 2\nradius: 0\nradius: 0\n"),
        ],
        ids=["plain", "modified"],
    )
    def test_sum_of_radii_prints_their_radius_0_lines(self, tmp_path, modified, seed, want):
        # the bytes printed while one-member clusters still asked their query
        rng = random.Random(seed)
        fam = seeded_family(rng, modified)
        path = tmp_path / "family.txt"
        path.write_text(explicit_text(fam))
        argv = ["solve", "--instance", str(path), "--problem", "ksumradii",
                "--k", "3", "--d", str(rng.randint(2, 4))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv + ["--modified"] * modified) == 0
        assert out.getvalue() == want


class TestCappedEvaluation:
    @pytest.mark.parametrize("modified", [False, True], ids=["plain", "modified"])
    def test_radii_within_the_cap_are_exact(self, modified):
        # evaluate(held, cap=c) searches radii up to c alone: a radius at
        # most c is the least one, a larger one is a miss, and a miss under
        # a cap below d is not kept, so the next call searches afresh
        rng = random.Random(7_500 + modified)
        met = 0
        for _ in range(40):
            fam = seeded_family(rng, modified)
            bits = fam.bits_list()
            n, d = fam.universe_size, rng.randint(1, 4)
            exact = _cluster_cost(ExplicitOracle(fam), bits, d, n, modified, None)
            helds = range(3, 1 << len(bits))
            for held in rng.sample(helds, min(len(helds), 16)):
                want = exact(held)
                if held & held - 1 == 0 or want is None or want[0] == 0:
                    continue
                r = want[0]
                evaluate = _cluster_cost(ExplicitOracle(fam), bits, d, n, modified, None)
                assert evaluate(held, cap=rng.randint(r, d)) == want
                evaluate = _cluster_cost(ExplicitOracle(fam), bits, d, n, modified, None)
                assert evaluate(held, cap=rng.randint(0, r - 1)) is None
                assert evaluate(held) == want
                met += 1
        assert met > 20


class TestKCenter:
    def test_two_singletons_examples(self):
        fam = SetFamily.from_bits(2, [0b01, 0b10])
        oracle = ExplicitOracle(fam)
        yes = solve(oracle, ProblemSpec("kcenter", 2, 0), FAST_PARAMS)
        assert yes.feasible and yes.radii == (0, 0)
        assert not solve(oracle, ProblemSpec("kcenter", 1, 1), FAST_PARAMS).feasible
        wide = solve(oracle, ProblemSpec("kcenter", 1, 2), FAST_PARAMS)
        assert wide.feasible and wide.radii == (2,)

    def test_sum_of_radii_examples(self):
        fam = SetFamily.from_bits(2, [0b01, 0b10])
        oracle = ExplicitOracle(fam)
        assert solve(oracle, ProblemSpec("ksumradii", 2, 0), FAST_PARAMS).feasible
        assert solve(oracle, ProblemSpec("ksumradii", 1, 2), FAST_PARAMS).feasible
        assert not solve(oracle, ProblemSpec("ksumradii", 1, 1), FAST_PARAMS).feasible

    def test_empty_domain_infeasible(self):
        oracle = ExplicitOracle(SetFamily.from_bits(3, ()))
        assert not solve(oracle, ProblemSpec("kcenter", 1, 3), FAST_PARAMS).feasible


class TestSparsifierOrderAndCap:
    """``solve`` builds one sparsifier from its params template: the
    problem sets the order ``k``, the cap ``d`` (limited mode) and the
    radius ``r`` (small mode), and every other field passes through."""

    #: complement closed, so the modified distance applies
    FAMILY = SetFamily.from_bits(4, [0b0000, 0b1111, 0b0011, 0b1100, 0b0001, 0b1110])
    TEMPLATES = (
        SmallSparsifyParams(k=5, r=3, ell=3),
        LimitedSparsifyParams(k=5, d=4, p=40, epsilon=0.3, trials_override=3, seed=11),
    )

    @pytest.mark.parametrize("problem", ["maxmin", "maxsum", "kcenter", "ksumradii"])
    @pytest.mark.parametrize("modified", [False, True])
    @pytest.mark.parametrize("template", TEMPLATES, ids=["small", "limited"])
    def test_one_pipeline_call_per_solve(self, monkeypatch, problem, modified, template):
        calls = []

        def small(params, oracle):
            calls.append(params)
            return SparsifierReport(self.FAMILY, params)

        def limited(oracle, params):
            calls.append(params)
            return SparsifierReport(self.FAMILY, params)

        monkeypatch.setattr(solvers, "k_sparsify", small)
        monkeypatch.setattr(solvers, "dk_sparsify", limited)
        clustering = problem in ("kcenter", "ksumradii")
        for k, d in product((1, 2, 3), (0, 1, 2)):
            calls.clear()
            solve(ExplicitOracle(self.FAMILY), ProblemSpec(problem, k, d, modified), template)
            order = k if clustering else k - 1
            order = max(1, 2 * order if modified else order)
            if isinstance(template, SmallSparsifyParams):
                want = replace(template, k=order, r=4 if modified else template.ell)
            else:
                want = replace(template, k=order, d=d + 1 if clustering else d)
            assert calls == [want], (k, d)

    @pytest.mark.parametrize("problem", ["kcenter", "ksumradii"])
    def test_clustering_p_must_exceed_twice_its_cap(self, problem):
        # the cap is d + 1 = 3, so p = 5 passes the params' own check
        # against 2d = 4 and is refused by the clustering bound 6
        params = LimitedSparsifyParams(k=1, d=0, p=5, trials_override=96)
        with pytest.raises(ValueError, match=r"^cluster radius p \(5\) must exceed 2\(d \+ 1\) \(6\)"):
            solve(ExplicitOracle(self.FAMILY), ProblemSpec(problem, 2, 2), params)
        # maxmin builds with cap d and runs with the same p
        assert solve(ExplicitOracle(self.FAMILY), ProblemSpec("maxmin", 2, 2), params).feasible


class TestDistanceMatrixGuard:
    """Past ``DISTANCE_MATRIX_GUARD`` sparsifier members both solver
    families stop with a :class:`GuardError` naming m and the guard."""

    FAMILY = SetFamily.from_bits(3, [0b001, 0b010, 0b100, 0b111])

    @pytest.mark.parametrize("problem", ["maxmin", "maxsum", "kcenter", "ksumradii"])
    def test_guard_raises_above_the_constant(self, problem, monkeypatch):
        oracle = ExplicitOracle(self.FAMILY)
        spec = ProblemSpec(problem, 2, 1)
        m = len(self.FAMILY)  # the small-mode sparsifier keeps all four
        monkeypatch.setattr(solvers, "DISTANCE_MATRIX_GUARD", m)
        solve(oracle, spec, small_params(3))
        monkeypatch.setattr(solvers, "DISTANCE_MATRIX_GUARD", m - 1)
        with pytest.raises(GuardError) as caught:
            solve(oracle, spec, small_params(3))
        assert f"{m} sparsifier members" in str(caught.value)
        assert f"DISTANCE_MATRIX_GUARD = {m - 1}" in str(caught.value)

    def test_maxmin_at_d0_builds_no_matrix(self, monkeypatch):
        # member 0, k times, needs no distance; d = 1 raises above
        monkeypatch.setattr(solvers, "DISTANCE_MATRIX_GUARD", len(self.FAMILY) - 1)
        spec = ProblemSpec("maxmin", 2, 0)
        assert solve(ExplicitOracle(self.FAMILY), spec, small_params(3)).feasible


class TestEarlyNo:
    def test_pairwise_far_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(400):
            m = rng.randint(0, 8)
            dist = [[0] * m for _ in range(m)]
            for i, j in combinations(range(m), 2):
                dist[i][j] = dist[j][i] = rng.randint(0, 6)
            size = rng.randint(1, 4)
            limit = rng.randint(0, 5)
            brute = next(
                (
                    group
                    for group in combinations(range(m), size)
                    if all(dist[i][j] > limit for i, j in combinations(group, 2))
                ),
                None,
            )
            far = [sum(1 << j for j, v in enumerate(row) if v > limit) for row in dist]
            assert _pairwise_far(far, size) == brute, (dist, size, limit)

    def test_far_members_answer_no_without_a_query(self):
        # three members pairwise at least 3 > 2d apart: two balls of radius
        # 1 cannot cover them
        fam = SetFamily.from_bits(6, [0b000000, 0b111000, 0b000111])
        for problem in ("kcenter", "ksumradii"):
            oracle = CountingExtensions(ExplicitOracle(fam))
            spec = ProblemSpec(problem, 2, 1)
            answer = solve(oracle, spec, small_params(3))
            assert not answer.feasible and not brute_solve(fam, spec).feasible
            assert oracle.extend_calls == 0

    def test_k5_spanning_trees_limited_kcenter(self, tmp_path):
        # the K5 case of the benchmark's anchors: limited mode timed out at
        # 150 s before the clustering search skipped implied queries
        graph = GraphData(directed=False, n_vertices=5, edges=K5_EDGES)
        domain = enumerate_domain(spanning_tree_instance(graph))
        assert not brute_solve(domain, ProblemSpec("kcenter", 2, 2)).feasible
        outputs = {}
        for mode in ("limited", "small"):
            out, seconds = k5_solve(
                tmp_path, mode, "--problem", "kcenter", "--k", "2", "--d", "2"
            )
            assert seconds < 60, mode
            outputs[mode] = out
        assert outputs == {"limited": "NO\n", "small": "NO\n"}

    def test_k5_spanning_trees_kcenter_d3(self, tmp_path):
        # both modes build the same 125 members in different orders; the
        # limited order took 138.6 s while the search evaluated every
        # superset of a cluster with no center within d
        graph = GraphData(directed=False, n_vertices=5, edges=K5_EDGES)
        domain = enumerate_domain(spanning_tree_instance(graph))
        assert not brute_solve(domain, ProblemSpec("kcenter", 2, 3)).feasible
        for mode in ("limited", "small"):
            out, seconds = k5_solve(
                tmp_path, mode, "--problem", "kcenter", "--k", "2", "--d", "3"
            )
            assert out == "NO\n" and seconds < 30, (mode, seconds)

    def test_k5_spanning_trees_maxmin_k4_d7(self, tmp_path):
        # two spanning trees of K5 (4 edges each) are 2 * (4 - shared edges)
        # apart, an even distance, so d = 7 asks for 4 pairwise
        # edge-disjoint trees: 16 edges out of 10.  brute_solve is over its
        # tuple guard here (125^4 tuples); the 5 s bound catches a search
        # that scans the sparsifier's k-tuples, which takes about 10 s.
        for mode in ("limited", "small"):
            out, seconds = k5_solve(
                tmp_path, mode, "--problem", "maxmin", "--k", "4", "--d", "7"
            )
            assert out == "NO\n" and seconds < 5, (mode, seconds)

    @pytest.mark.parametrize(
        ("mode", "k", "d", "want"),
        [
            ("limited", 2, 8, ["YES", "set: 1 2 4 6", "set: 0 3 7 9"]),
            ("limited", 3, 6, ["YES", "set: 0 1 5 6", "set: 1 2 4 9", "set: 0 3 7 9"]),
            ("small", 2, 8, ["YES", "set: 1 2 3 4", "set: 0 5 6 7"]),
            ("small", 3, 6, ["YES", "set: 0 1 2 3", "set: 3 4 5 6", "set: 2 6 7 8"]),
        ],
    )
    def test_k5_spanning_trees_maxmin_witnesses(self, tmp_path, mode, k, d, want):
        out, _ = k5_solve(
            tmp_path, mode, "--problem", "maxmin", "--k", str(k), "--d", str(d)
        )
        assert out == "\n".join(want) + "\n"


def traced_peak(call):
    """``call()``'s result and the peak bytes allocated while it ran, as
    ``tracemalloc`` traces them."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        return call(), tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestFarGraph:
    """Row i of the far graph is the bit set of the members more than the
    limit from member i, as :func:`distance` measures them; max-min and
    clustering read it instead of a distance matrix."""

    def test_rows_match_the_distances(self):
        # tiny universes give duplicate members, and a complement joins
        # under the modified distance; every limit up to n, ⌊n/2⌋ included,
        # and two far outside are built in one pass
        rng = random.Random(41)
        for m, modified, n in product(range(9), (False, True), (1, 2, 3, 5, 8, 63, 64)):
            members = [rng.getrandbits(n) for _ in range(m)]
            if members:
                members += [members[0], members[-1] ^ ((1 << n) - 1)]
            limits = (-(10**9), *range(-1, n + 1), 10**9)
            assert _far_graphs(members, n, modified, limits) == [
                [
                    sum(
                        1 << j
                        for j, b in enumerate(members)
                        if distance(a, b, n, modified) > limit
                    )
                    for a in members
                ]
                for limit in limits
            ], (members, n, modified)

    @pytest.mark.parametrize("problem", ["maxmin", "kcenter"])
    def test_a_huge_d_answers_as_d_past_every_distance(self, problem):
        # no distance exceeds n, so d = 10**9 asks what d = n + 1 asks, and
        # nothing of the solve may grow with d
        rng = random.Random(43)
        for k, modified in product((1, 2, 3), (False, True)):
            fam = seeded_family(rng, modified)
            n = fam.universe_size
            specs = [ProblemSpec(problem, k, d, modified) for d in (n + 1, 10**9)]
            (past, _), (huge, peak) = (
                traced_peak(lambda: solve(ExplicitOracle(fam), spec, small_params(n)))
                for spec in specs
            )
            assert huge == past, (fam, k, modified)
            assert past.feasible == brute_solve(fam, specs[0]).feasible
            assert peak < 1_000_000, (fam, k, modified, peak)

    @pytest.mark.parametrize(
        ("problem", "k", "d"), [("maxmin", 3, 4), ("kcenter", 2, 2), ("maxsum", 3, 0)]
    )
    def test_no_distance_matrix_on_a_whole_domain(self, monkeypatch, problem, k, d):
        # the small-mode sparsifier of the rank-4 uniform matroid on 10
        # elements is all 210 members.  A list-of-lists distance matrix
        # takes 8 bytes per pair in row pointers alone (about 13 in all,
        # measured); the far graph takes an eighth of a byte, and max-sum's
        # rows of bytes one byte.  The bound allows 2 bytes per pair, 3 for
        # max-sum.  Max-min and max-sum find a tuple; k-center ends at its
        # k + 1 far members
        sizes = []

        def recorded(*args):
            rep = build(*args)
            sizes.append(len(rep.family.bits))
            return rep

        build = solvers._sparsify
        monkeypatch.setattr(solvers, "_sparsify", recorded)
        oracle = uniform_matroid_instance(10, 4).oracle()
        spec = ProblemSpec(problem, k, d)
        answer, peak = traced_peak(lambda: solve(oracle, spec, small_params(4)))
        assert sizes == [210] and answer.feasible == (problem != "kcenter")
        assert peak < (3 if problem == "maxsum" else 2) * 210 * 210, peak


class TestSolverOracleEquivalence:
    """Smaller sibling of the acceptance run: all problems, mixed adapters."""

    def test_plain_distance(self):
        kinds = ("explicit", "vertex_cover", "spanning_tree", "matching", "st_mincut")
        problems = ("maxmin", "maxsum", "kcenter", "ksumradii")
        rng = random.Random(123)
        for seed in range(12):
            kind = kinds[seed % len(kinds)]
            problem = problems[seed % len(problems)]
            cap = 8 if problem in ("kcenter", "ksumradii") else 16
            instance, domain = generate_instance(kind, seed, cap)
            k = rng.randint(1, 3)
            d = rng.randint(0, 4)
            spec = ProblemSpec(problem, k, d)
            if instance.prefers_small:
                params = small_params(instance.size_bound)
            else:
                params = limited_params(seed=seed, trials=96)
            answer = solve(instance.oracle(), spec, params)
            expected = brute_solve(domain, spec)
            assert answer.feasible == expected.feasible, (kind, problem, k, d, seed)
            certify_answer(domain, spec, answer)

    def test_modified_distance_on_closed_families(self):
        rng = random.Random(321)
        for seed in range(8):
            n = rng.randint(3, 6)
            fam = complement_closed_family(rng, n, 8)
            problem = ("maxmin", "maxsum", "kcenter", "ksumradii")[seed % 4]
            k = rng.randint(1, 2)
            d = rng.randint(0, 2)
            spec = ProblemSpec(problem, k, d, modified=True)
            answer = solve(
                ExplicitOracle(fam), spec, limited_params(seed=seed, trials=96)
            )
            expected = brute_solve(fam, spec)
            assert answer.feasible == expected.feasible, (problem, k, d, seed)
            certify_answer(fam, spec, answer)

    def test_modified_distance_in_small_mode(self):
        # the small pipeline widens its reference ball to the full universe
        # under the modified distance, so complements stay covered
        rng = random.Random(777)
        for seed in range(6):
            n = rng.randint(3, 6)
            fam = complement_closed_family(rng, n, 8)
            ell = max(b.bit_count() for b in fam.bits)
            problem = ("maxmin", "maxsum", "kcenter", "ksumradii")[seed % 4]
            spec = ProblemSpec(problem, rng.randint(1, 2), rng.randint(0, 2), modified=True)
            answer = solve(ExplicitOracle(fam), spec, small_params(ell))
            expected = brute_solve(fam, spec)
            assert answer.feasible == expected.feasible, (problem, seed)
            certify_answer(fam, spec, answer)

    def test_modified_requires_closure(self):
        fam = SetFamily.from_bits(2, [0b01, 0b11])  # not complement closed
        with pytest.raises(ValueError):
            solve(
                ExplicitOracle(fam),
                ProblemSpec("maxmin", 2, 1, modified=True),
                FAST_PARAMS,
            )


class TestSmallModeOnFixedSizeDomains:
    def test_odd_rank_spanning_trees(self):
        # K4 spanning trees have 3 edges; the empty-center extension used by
        # the small pipeline must accept the odd cardinality
        k4 = GraphData(
            directed=False,
            n_vertices=4,
            edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
        )
        instance = spanning_tree_instance(k4)
        domain = enumerate_domain(instance)
        assert len(domain) == 16
        for problem, k, d in (
            ("maxmin", 2, 4),
            ("maxmin", 2, 5),
            ("maxsum", 3, 10),
            ("kcenter", 2, 2),
            ("ksumradii", 2, 3),
        ):
            spec = ProblemSpec(problem, k, d)
            answer = solve(
                instance.oracle(), spec, small_params(instance.size_bound)
            )
            expected = brute_solve(domain, spec)
            assert answer.feasible == expected.feasible, (problem, k, d)
            certify_answer(domain, spec, answer)

    def test_small_mode_matches_limited_mode(self):
        for seed in range(6):
            kind = ("matching", "uniform_matroid", "dag_dp")[seed % 3]
            instance, domain = generate_instance(kind, seed, 12)
            spec = ProblemSpec("maxmin", 2, 2)
            small = solve(
                instance.oracle(), spec, small_params(instance.size_bound)
            )
            limited = solve(instance.oracle(), spec, FAST_PARAMS)
            expected = brute_solve(domain, spec)
            assert small.feasible == limited.feasible == expected.feasible


def clustering_grid():
    """Seeded (domain, oracle factory, spec, params) cases: k-center and
    k-sum-of-radii, plain and modified distance, small and limited pipelines."""
    kinds = (
        "explicit", "vertex_cover", "spanning_tree", "uniform_matroid", "matching", "st_mincut"
    )
    for seed in range(24):
        rng = random.Random(90_000 + seed)
        problem = ("kcenter", "ksumradii")[seed % 2]
        instance, domain = generate_instance(kinds[seed % len(kinds)], seed, 24, min_domain=4)
        spec = ProblemSpec(problem, rng.randint(1, 3), rng.randint(0, 4))
        if instance.size_bound is not None:
            yield domain, instance.oracle, spec, small_params(instance.size_bound)
        if not instance.prefers_small:  # vertex covers offer no +-1 optimization
            yield domain, instance.oracle, spec, limited_params(seed=seed, trials=96)
        fam = complement_closed_family(rng, rng.randint(4, 7), 12)
        spec = ProblemSpec(problem, rng.randint(1, 2), rng.randint(0, 3), modified=True)
        explicit = partial(ExplicitOracle, fam)
        yield fam, explicit, spec, small_params(max(b.bit_count() for b in fam.bits))
        yield fam, explicit, spec, limited_params(seed=seed, trials=96)


def run_clustering_grid() -> tuple[str, int]:
    """SHA-256 of every grid answer, and the exact-extension calls made."""
    answers = hashlib.sha256()
    calls = 0
    for domain, make_oracle, spec, params in clustering_grid():
        oracle = CountingExtensions(make_oracle())
        answer = solve(oracle, spec, params)
        calls += oracle.extend_calls
        assert answer.feasible == brute_solve(domain, spec).feasible, spec
        certify_answer(domain, spec, answer)
        witnesses = tuple(w.bits for w in answer.witnesses)
        answers.update(
            f"{answer.feasible};{witnesses};{answer.radii};{answer.objective}|".encode()
        )
    return answers.hexdigest(), calls


# The clustering answers on the grid above; a change of tie-breaking in
# the clustering search changes the CLI's `set:` output, so it must show
# here first.
CLUSTERING_ANSWERS = "5aeafc1d10f5ee2766e7867a77e2fb64d4dec400a0e68fae0f06e0c561e36afb"
# Exact-extension calls over the whole grid (sparsifier and search); the
# count may only go down.  It was 15,794 before the search skipped the
# queries whose answers are implied, 1,998 before one solve asked each
# distinct query once, 1,975 before a one-member cluster was answered as
# its own center at radius 0 without a query, and 1,889 before k-center
# joined a cluster through a center it knew and k-sum-of-radii stopped each
# radius search at the budget left.
CLUSTERING_EXTEND_CALLS = 1_716


class TestClusteringGrid:
    def test_answers_are_pinned(self):
        assert run_clustering_grid()[0] == CLUSTERING_ANSWERS

    def test_extension_calls_only_go_down(self):
        assert run_clustering_grid()[1] <= CLUSTERING_EXTEND_CALLS


def uncovered_cluster_cases():
    """Seeded k = 2 clustering cases whose searches meet grown clusters
    with no center within d: vertex covers (small pipeline), random explicit
    families under the plain distance and complement-closed ones under the
    modified distance (both pipelines)."""
    for seed in range(90):
        rng = random.Random(40_000 + seed)
        problem = ("kcenter", "ksumradii")[seed % 2]
        spec = ProblemSpec(problem, 2, rng.randint(1, 2), modified=seed % 3 == 2)
        if seed % 3 == 0:
            instance, domain = generate_instance("vertex_cover", seed, 24, min_domain=6)
            yield domain, instance.oracle, spec, small_params(instance.size_bound)
            continue
        draw = complement_closed_family if spec.modified else random_family
        # closed families stay small: a sum-mode search over 18 members
        # under the modified distance takes seconds
        fam = draw(rng, rng.randint(5, 7), 10 if spec.modified else 16)
        explicit = partial(ExplicitOracle, fam)
        yield fam, explicit, spec, small_params(max(b.bit_count() for b in fam.bits))
        yield fam, explicit, spec, limited_params(seed=seed, trials=96)


def part_of_domain_cases():
    """Seeded k-center and k-sum-of-radii cases on explicit families (plain,
    and complement-closed under the modified distance), each with a random
    part of the family to search in place of the sparsifier.  The centers
    of its clusters may lie outside the part, which the grids' sparsifiers
    seldom need: only there does a k-center query find a center."""
    for seed in range(120):
        rng = random.Random(60_000 + seed)
        modified = seed % 3 == 2
        draw = complement_closed_family if modified else random_family
        fam = draw(rng, rng.randint(6, 9), 40)
        part = rng.sample(fam.bits_list(), rng.randint(1, min(9, len(fam))))
        problem = ("kcenter", "ksumradii")[seed % 2]
        spec = ProblemSpec(problem, rng.randint(2, 3), rng.randint(1, 3), modified)
        yield fam, SetFamily.from_bits(fam.universe_size, part), spec


def solve_on_part(monkeypatch, domain, part, spec) -> SolveAnswer:
    """``solve`` on ``domain`` with ``part`` in place of the sparsifier,
    checked against every partition of ``part`` into at most k clusters,
    each with its best center in ``domain``."""
    params = small_params(max(b.bit_count() for b in domain.bits))
    report = SparsifierReport(part, params)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_sparsify", lambda *args: report)
        answer = solve(ExplicitOracle(domain), spec, params)
    n = domain.universe_size

    @cache
    def radius(cluster: frozenset[int]) -> int:
        return min(max(distance(c, b, n, spec.modified) for b in cluster) for c in domain.bits)

    def partitions(items):
        if not items:
            yield []
            return
        for rest in partitions(items[1:]):
            if len(rest) < spec.k:
                yield [frozenset([items[0]]), *rest]
            for i, cluster in enumerate(rest):
                yield [*rest[:i], cluster | {items[0]}, *rest[i + 1 :]]

    combine = sum if spec.problem == "ksumradii" else max
    want = any(
        combine(map(radius, clusters)) <= spec.d for clusters in partitions(part.bits_list())
    )
    assert answer.feasible == want, (domain, part, spec)
    if answer.feasible:
        assert all(domain.contains_bits(w.bits) for w in answer.witnesses)
        assert len(answer.radii) == spec.k and combine(answer.radii) <= spec.d
        for b in part.bits:
            assert any(
                distance(b, w.bits, n, spec.modified) <= r
                for w, r in zip(answer.witnesses, answer.radii)
            )
    return answer


class TestClusteringSearch:
    def test_no_superset_of_an_uncovered_cluster_is_evaluated(self, monkeypatch):
        # a center within d of every member of a cluster is within d of
        # every member of its subclusters, so once a cluster evaluates to
        # None at the full cap d every superset would too and must not be
        # evaluated; a miss under a smaller cap (sum mode) proves nothing
        # clusters as member-index bitmasks
        failed: list[int] = []
        current: list[int] = []
        supersets = []
        real_cost, real_radius = solvers._cluster_cost, solvers.min_cluster_radius

        def cost(oracle, members, d, *args):
            failed.clear()  # one memo, and one search, per solve
            evaluate = real_cost(oracle, members, d, *args)

            def spied(member_bits, **kwargs):
                current[:] = [member_bits]
                got = evaluate(member_bits, **kwargs)
                if got is None and kwargs.get("cap", d) >= d:
                    failed.append(member_bits)
                return got

            return spied

        def radius(cluster, *args, **kwargs):
            if any(f & current[0] == f for f in failed):
                supersets.append(current[0])
            return real_radius(cluster, *args, **kwargs)

        monkeypatch.setattr(solvers, "_cluster_cost", cost)
        monkeypatch.setattr(solvers, "min_cluster_radius", radius)
        met = set()
        for domain, make_oracle, spec, params in uncovered_cluster_cases():
            answer = solve(make_oracle(), spec, params)
            assert answer.feasible == brute_solve(domain, spec).feasible, spec
            certify_answer(domain, spec, answer)
            if failed:
                met.add((spec.problem, spec.modified))
        assert supersets == []
        assert met == set(product(("kcenter", "ksumradii"), (False, True)))

    def test_kcenter_evaluates_no_cluster_a_known_center_covers(self, monkeypatch):
        # k-center decides a grown cluster on whether some domain member is
        # within d of all its members.  The known centers are the
        # sparsifier members: one that covers the grown cluster decides it
        # without an evaluation
        real_cost = solvers._cluster_cost
        covered: list[int] = []
        # (search evaluations, centers they found)
        counts = [0, 0]

        def cost(oracle, members, d, n, modified, ctx):
            evaluate = real_cost(oracle, members, d, n, modified, ctx)

            def spied(member_bits, **kwargs):
                if kwargs.get("requery"):
                    return evaluate(member_bits, **kwargs)
                cluster = [members[i] for i in iter_bits(member_bits)]
                if any(all(distance(c, b, n, modified) <= d for b in cluster) for c in members):
                    covered.append(member_bits)
                got = evaluate(member_bits, **kwargs)
                counts[0] += 1
                counts[1] += got is not None
                return got

            return spied

        monkeypatch.setattr(solvers, "_cluster_cost", cost)
        met = set()
        for domain, make_oracle, spec, params in (*clustering_grid(), *uncovered_cluster_cases()):
            if spec.problem == "kcenter":
                answer = solve(make_oracle(), spec, params)
                assert answer.feasible == brute_solve(domain, spec).feasible, spec
                certify_answer(domain, spec, answer)
                met.add((spec.modified, answer.feasible))
        assert covered == [] and counts[0] > 0
        assert met == set(product((False, True), (False, True)))
        # only there do evaluations find centers, outside the members
        # searched; the grown cluster then holds no member's cover, and its
        # next grow is evaluated again
        for domain, part, spec in part_of_domain_cases():
            if spec.problem == "kcenter":
                solve_on_part(monkeypatch, domain, part, spec)
        assert covered == []
        assert counts[1] > 0 and counts[0] > counts[1], counts

    def test_sum_of_radii_asks_no_radius_past_the_budget(self, monkeypatch):
        # a grown cluster whose radius exceeds its held radius plus the
        # budget left would overspend the bound d, so its radius search
        # stops there: every limit min_cluster_radius is given, and every
        # radius it asks, is at most the cap the search passed
        real_cost, real_radius = solvers._cluster_cost, solvers.min_cluster_radius
        caps: list[int] = []  # the cap of the search evaluation under way
        past: list[tuple[int, int]] = []
        # (search evaluations with a cap below d, misses among them)
        below = [0, 0]

        def cost(oracle, members, d, *args):
            evaluate = real_cost(oracle, members, d, *args)

            def spied(member_bits, **kwargs):
                if kwargs.get("requery"):
                    return evaluate(member_bits, **kwargs)
                lo, cap = kwargs.get("lo", 0), kwargs.get("cap", d)
                assert lo <= cap <= d
                caps[:] = [cap]
                try:
                    got = evaluate(member_bits, **kwargs)
                finally:
                    caps.clear()
                if cap < d:
                    below[0] += 1
                    below[1] += got is None
                return got

            return spied

        def radius(cluster, limit, oracle, *args, **kwargs):
            if caps and limit > caps[0]:
                past.append((limit, caps[0]))

            class Capped:
                universe_size = oracle.universe_size

                def exact_extend(self, query, ctx=None):
                    if caps and query.radius > caps[0]:
                        past.append((query.radius, caps[0]))
                    return oracle.exact_extend(query, ctx)

            return real_radius(cluster, limit, Capped(), *args, **kwargs)

        monkeypatch.setattr(solvers, "_cluster_cost", cost)
        monkeypatch.setattr(solvers, "min_cluster_radius", radius)
        for domain, make_oracle, spec, params in (*clustering_grid(), *uncovered_cluster_cases()):
            if spec.problem == "ksumradii":
                answer = solve(make_oracle(), spec, params)
                assert answer.feasible == brute_solve(domain, spec).feasible, spec
                certify_answer(domain, spec, answer)
        for domain, part, spec in part_of_domain_cases():
            if spec.problem == "ksumradii":
                solve_on_part(monkeypatch, domain, part, spec)
        assert past == []
        assert below[1] > 0 and below[0] > below[1], below

    def test_no_query_reaches_the_oracle_twice_in_one_search(self, monkeypatch):
        # every cluster evaluation of a solve shares one query memo; only the
        # final recheck, which passes requery=True, may ask a query again
        real_cost = solvers._cluster_cost
        phase: list[str] = []

        def cost(*args):
            evaluate = real_cost(*args)

            def spied(member_bits, **kwargs):
                phase[:] = ["recheck" if kwargs.get("requery") else "search"]
                try:
                    return evaluate(member_bits, **kwargs)
                finally:
                    phase.clear()

            return spied

        class Recording(CountingExtensions):
            def __init__(self, inner):
                super().__init__(inner)
                self.asked = {"search": [], "recheck": []}

            def exact_extend(self, query, ctx=None):
                if phase:
                    self.asked[phase[0]].append(query)
                return super().exact_extend(query, ctx)

        monkeypatch.setattr(solvers, "_cluster_cost", cost)
        searched = repeated = 0
        for domain, make_oracle, spec, params in (*clustering_grid(), *uncovered_cluster_cases()):
            oracle = Recording(make_oracle())
            answer = solve(oracle, spec, params)
            certify_answer(domain, spec, answer)
            search = oracle.asked["search"]
            assert len(set(search)) == len(search), spec
            searched += len(search)
            repeated += len(set(search) & set(oracle.asked["recheck"]))
        assert searched > 0
        assert repeated > 0  # the recheck asks the oracle again

    def test_recheck_asks_only_for_clusters_the_search_did_not_evaluate(self, monkeypatch):
        # the cluster memo answers before requery is looked at: a final
        # cluster the search evaluated is rechecked from that memo, with no
        # query; one of two or more members that the search never
        # evaluated is rechecked by asking the oracle, past the query memo
        real_cost = solvers._cluster_cost
        evaluated: set[int] = set()
        # (evaluated by the search, queries the recheck asked), per recheck
        rechecks: list[tuple[bool, int]] = []

        def cost(oracle, *args):
            evaluated.clear()  # one memo per solve
            evaluate = real_cost(oracle, *args)

            def spied(member_bits, **kwargs):
                if not kwargs.get("requery"):
                    evaluated.add(member_bits)
                    return evaluate(member_bits, **kwargs)
                before = oracle.extend_calls
                got = evaluate(member_bits, **kwargs)
                if member_bits & member_bits - 1:  # one member asks nothing
                    rechecks.append((member_bits in evaluated, oracle.extend_calls - before))
                return got

            return spied

        monkeypatch.setattr(solvers, "_cluster_cost", cost)
        for domain, make_oracle, spec, params in (*clustering_grid(), *uncovered_cluster_cases()):
            oracle = CountingExtensions(make_oracle())
            certify_answer(domain, spec, solve(oracle, spec, params))
        from_memo = [n for seen, n in rechecks if seen]
        fresh = [n for seen, n in rechecks if not seen]
        assert from_memo and fresh
        assert set(from_memo) == {0}
        assert min(fresh) > 0

    def test_answers_do_not_depend_on_member_order(self):
        # the search assigns sparsifier members in the order the sparsifier
        # lists them, which follows the adapter's member order
        rng = random.Random(2024)
        feasible = set()
        for seed in range(30):
            modified = seed % 2 == 1
            n = rng.randint(4, 6)
            draw = complement_closed_family if modified else random_family
            fam = draw(rng, n, 12)
            ell = max(b.bit_count() for b in fam.bits)
            for problem in ("kcenter", "ksumradii"):
                spec = ProblemSpec(problem, rng.randint(1, 3), rng.randint(0, 3), modified)
                want = brute_solve(fam, spec).feasible
                feasible.add(want)
                for _ in range(3):
                    order = fam.bits_list()
                    rng.shuffle(order)
                    shuffled = SetFamily.from_bits(n, order)
                    for params in (small_params(ell), limited_params(seed=seed, trials=96)):
                        answer = solve(ExplicitOracle(shuffled), spec, params)
                        assert answer.feasible == want, (order, spec)
                        certify_answer(fam, spec, answer)
        assert feasible == {False, True}


def diversification_grid():
    """Seeded (domain, oracle factory, spec, params) cases: max-min and
    max-sum, k = 1..3, on explicit families (empty, one member, random, and
    families whose tuples tie on their sums), generated adapter instances,
    and complement-closed families under the modified distance; small and
    limited pipelines."""
    kinds = ("vertex_cover", "spanning_tree", "uniform_matroid", "matching")
    tied = (
        SetFamily.from_bits(4, [0b0001, 0b0010, 0b0100, 0b1000]),
        SetFamily.from_bits(4, [b for b in range(16) if b.bit_count() == 2]),
    )
    for seed in range(36):
        rng = random.Random(70_000 + seed)
        problem = ("maxmin", "maxsum")[seed % 2]
        n = rng.randint(3, 6)
        fam = (
            SetFamily.from_bits(n, ()),
            SetFamily.from_bits(n, [rng.getrandbits(n)]),
            random_family(rng, n, 12),
            tied[seed % 2],
        )[seed % 4]
        closed = complement_closed_family(rng, rng.randint(3, 6), 10)
        instance, domain = generate_instance(kinds[seed % len(kinds)], seed, 16)
        # (domain, oracle factory, modified, ell or None, limited pipeline too)
        cases = [
            (fam, partial(ExplicitOracle, fam), False, None, True),
            (domain, instance.oracle, False, instance.size_bound, not instance.prefers_small),
            (closed, partial(ExplicitOracle, closed), True, None, True),
        ]
        for domain, make_oracle, modified, ell, limited in cases:
            if ell is None:
                ell = max((b.bit_count() for b in domain.bits), default=0)
            k = rng.randint(1, 3)
            pairs = k * (k - 1) // 2 if problem == "maxsum" else 1
            d = rng.randint(0, domain.universe_size * pairs)
            spec = ProblemSpec(problem, k, d, modified=modified)
            yield domain, make_oracle, spec, small_params(ell)
            if limited:
                yield domain, make_oracle, spec, limited_params(seed=seed, trials=96)


def run_diversification_grid() -> str:
    """SHA-256 of every diversification grid answer."""
    answers = hashlib.sha256()
    for domain, make_oracle, spec, params in diversification_grid():
        answer = solve(make_oracle(), spec, params)
        assert answer.feasible == brute_solve(domain, spec).feasible, spec
        certify_answer(domain, spec, answer)
        witnesses = tuple(w.bits for w in answer.witnesses)
        answers.update(f"{answer.feasible};{witnesses};{answer.objective}|".encode())
    return answers.hexdigest()


# The max-min and max-sum answers on the grid above, witnesses and
# objective included: the CLI prints them, so a change of scan order or
# tie-breaking in the diversification search must show here first.
DIVERSIFICATION_ANSWERS = "30bac9324ce00f2d6e91c7f339056e02bb6fabc9ecfeb4854c18cf457b40aeb2"


class TestDiversificationGrid:
    def test_answers_are_pinned(self):
        assert run_diversification_grid() == DIVERSIFICATION_ANSWERS


class TestReplacementProperty:
    def test_capped_distances_transfer_pointwise(self):
        # for every domain tuple some sparsifier tuple dominates the capped
        # pairwise distances entrywise
        rng = random.Random(55)
        for seed in range(10):
            n = rng.randint(3, 6)
            instance, domain = generate_instance("explicit", seed, 8)
            n = domain.universe_size
            k = rng.randint(2, 3)
            d = rng.randint(1, 3)
            report = dk_sparsify(
                instance.oracle(),
                LimitedSparsifyParams(k=max(1, k - 1), d=d, seed=seed, trials_override=96),
            )
            kk = report.family.bits_list()
            dom = domain.bits_list()
            for tup in product(dom, repeat=k):
                target = [
                    min(d, (tup[i] ^ tup[j]).bit_count())
                    for i in range(k)
                    for j in range(i + 1, k)
                ]
                dominated = False
                for cand in product(kk, repeat=k):
                    values = [
                        min(d, (cand[i] ^ cand[j]).bit_count())
                        for i in range(k)
                        for j in range(i + 1, k)
                    ]
                    if all(v >= t for v, t in zip(values, target)):
                        dominated = True
                        break
                assert dominated, (seed, tup)


class TestWitnessCertification:
    def test_kcenter_witnesses_cover_the_enumerated_domain(self):
        for seed in range(6):
            instance, domain = generate_instance("vertex_cover", seed, 10)
            spec = ProblemSpec("kcenter", 2, 2)
            answer = solve(
                instance.oracle(), spec, small_params(instance.size_bound)
            )
            expected = brute_solve(domain, spec)
            assert answer.feasible == expected.feasible
            certify_answer(domain, spec, answer)


class TestGloballyInfeasibleSignal:
    def test_trivial_sparsifier_during_clustering_means_no(self):
        # the small build asks without a context, so it is answered
        # honestly; the clustering search's first center query comes with
        # one and gets a trivial sparsifier: the solve answers NO where the
        # honest oracle says YES, after that one query
        class Shortcut(ExplicitOracle):
            queries = 0
            members = [0, 0b111111]

            def exact_extend(self, query, ctx=None):
                if ctx is None:
                    return super().exact_extend(query, ctx)
                self.queries += 1
                return TrivialSparsifier(SetFamily.from_bits(6, self.members))

        family = SetFamily.from_bits(6, [0b1, 0b11, 0b111])
        for problem in ("kcenter", "ksumradii"):
            spec = ProblemSpec(problem, 1, 2)
            assert solve(ExplicitOracle(family), spec, small_params(3)).feasible
            oracle = Shortcut(family)
            assert solve(oracle, spec, small_params(3)) == SolveAnswer(feasible=False)
            assert oracle.queries == 1
            # two members within 2d = 4 of each other are no trivial sparsifier
            oracle.members = [0, 0b11]
            with pytest.raises(SoundnessError, match="within 2d"):
                solve(oracle, spec, small_params(3))
