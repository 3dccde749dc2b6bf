"""Domain adapters against the brute-force reference oracles."""

from __future__ import annotations

import hashlib
import random
import sys
from functools import cache
from itertools import combinations, product

import pytest

from divsparse import (
    CapabilityError,
    ExtensionQuery,
    Found,
    NotFound,
    SetFamily,
    distance,
    pm1_weight,
)
from divsparse import domains
from divsparse.bruteforce import enumerate_domain
from divsparse.core import iter_bits
from divsparse.domains import (
    DagDpOracle,
    ExplicitOracle,
    GraphData,
    GraphicMatroid,
    MatchingOracle,
    Matroid,
    MatroidBaseOracle,
    UniformMatroid,
    VertexCoverOracle,
)
from divsparse.instances import (
    dag_dp_instance,
)

from helpers import (
    generate_instance,
    interval_dag,
    longest_path_label_sets,
    random_dag,
    reference_matching_search,
)


def extension_queries(n, domain, max_forced_forbidden=4, radii=None):
    """The exhaustive (C, r, X, Y) grid used for adapter equivalence."""
    if radii is None:
        radii = range(n + 1)
    elements = list(range(n))
    for center in domain.bits_list():
        for total in range(max_forced_forbidden + 1):
            for chosen in combinations(elements, total):
                for assign in range(1 << total):
                    x_bits = 0
                    y_bits = 0
                    for j, e in enumerate(chosen):
                        if assign >> j & 1:
                            x_bits |= 1 << e
                        else:
                            y_bits |= 1 << e
                    for r in radii:
                        yield ExtensionQuery(center, r, x_bits, y_bits)


def assert_oracle_matches_brute(instance, domain, max_ff=3, opt=True):
    """Check every answer on the grid against the reference and return a
    SHA-256 of all of them, so tests can pin the exact witnesses."""
    n = domain.universe_size
    oracle = instance.oracle()
    reference = ExplicitOracle(domain)
    answers = hashlib.sha256()
    if opt:
        for positive in range(1 << n):  # every +-1 weighting, by its +1 mask
            got = oracle.opt_pm1(positive)
            want = reference.opt_pm1(positive)
            answers.update(f"{got};".encode())
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert domain.contains_bits(got)
                assert pm1_weight(got, positive) == pm1_weight(want, positive)
    for query in extension_queries(n, domain, max_ff):
        got = oracle.exact_extend(query)
        want = reference.exact_extend(query)
        answers.update(f"{got.witness if isinstance(got, Found) else '-'};".encode())
        if isinstance(want, Found):
            assert isinstance(got, Found), (query, want)
            assert query.admits_bits(got.witness)
            assert domain.contains_bits(got.witness)
        else:
            assert isinstance(got, NotFound), (query, got)
    return answers.hexdigest()


# The witnesses every adapter returned on the grids below; a change of
# tie-breaking changes the CLI's `set:` output, so it must show here first.
MATROID_WITNESSES = "119988029e325b0bf8f96298921235b0da93029e676822893765f60194509b3a"
MATCHING_WITNESSES = "4d20988dad95247616cc27332a436249999afffb6e7962e83ffa6a49bb4db029"
DAG_WITNESSES = "ac2c7801b38feed49d8b166d948eb7befc05a3f1eaa5fc58b1172450ca2a2289"
INTERVAL_DAG_WITNESSES = "c996415b8cfad27517f1d72bb885f84a3368489e947e0e1a457eb0891d28ccf2"


def grid_digest(digests):
    return hashlib.sha256(" ".join(digests).encode()).hexdigest()


class TestExplicitOracle:
    def test_opt_scan(self):
        fam = SetFamily.from_bits(2, [0b01, 0b10])
        got = ExplicitOracle(fam).opt_pm1(0b01)
        assert got is not None and got == 0b01

    def test_extend_scan(self):
        fam = SetFamily.from_bits(2, [0b01, 0b10])
        q = ExtensionQuery(0b01, 2, 0, 0)
        got = ExplicitOracle(fam).exact_extend(q)
        assert isinstance(got, Found) and got.witness == 0b10

    def test_extend_not_found(self):
        fam = SetFamily.from_bits(2, [0b01])
        q = ExtensionQuery(0b01, 1, 0, 0)
        assert isinstance(ExplicitOracle(fam).exact_extend(q), NotFound)

    def test_empty_family_opt(self):
        assert ExplicitOracle(SetFamily.from_bits(3, ())).opt_pm1(0b111) is None

    def test_complement_closure_detection(self):
        closed = SetFamily.from_bits(2, [0b01, 0b10])
        assert ExplicitOracle(closed).complement_closed
        open_ = SetFamily.from_bits(2, [0b01, 0b11])
        assert not ExplicitOracle(open_).complement_closed


def p3() -> GraphData:
    return GraphData(directed=False, n_vertices=3, edges=((0, 1), (1, 2)))


# SHA-256 of every answer of TestVertexCover's two seeded grids, recorded
# while each matched the adapter's earlier searches: the walk over every
# subset of the center as the overlap guess, then the cover search that
# copied the open edges at every branch and the empty extension by an edge
# scan
OVERLAP_GUESS_ANSWERS = "219a295941ce2252356f2e435c63fabed2d29d50dac75580d18a04003421bdff"
COVER_SEARCH_ANSWERS = "ec1bd0c74a49d10a7179a4e62ab4cd4a4eb8b314a56041cfc9de745f9eccedc8"


def check_cover_answer(answers, nv, edges, ell, query, got):
    """Check one vertex-cover answer against the members and fold it into
    the digest: a Found witness is a member the query admits, a NotFound
    (or None) leaves none.  Returns the answer's type."""
    if isinstance(got, int):
        got = Found(got)
    elif got is None:
        got = NotFound()
    admitted = cover_points(nv, edges, ell) & query_points(nv, query)
    if isinstance(got, Found):
        assert admitted >> got.witness & 1, (edges, ell, query, got)
    else:
        assert not admitted, (edges, ell, query)
    answers.update(f"{got.witness:x}|".encode() if isinstance(got, Found) else b"-|")
    return type(got)


class TestVertexCover:
    def test_empty_extension_examples(self):
        oracle = VertexCoverOracle(p3(), 2)
        got = oracle.exact_empty_extend(2, 0b010)
        assert isinstance(got, Found) and got.witness == 0b101
        got = oracle.exact_empty_extend(1, 0b101)
        assert isinstance(got, Found) and got.witness == 0b010
        assert isinstance(oracle.exact_empty_extend(2, 0b011), NotFound)

    def test_oversized_requests_rejected(self):
        oracle = VertexCoverOracle(p3(), 2)
        assert isinstance(oracle.exact_empty_extend(3, 0), NotFound)

    def test_opt_unsupported(self):
        with pytest.raises(CapabilityError):
            VertexCoverOracle(p3(), 2).opt_pm1(0b111)

    def test_matches_brute_on_random_instances(self):
        for seed in range(6):
            instance, domain = generate_instance("vertex_cover", seed, 40)
            assert_oracle_matches_brute(instance, domain, opt=False)

    def test_overlap_guesses_match_the_filtered_walk(self):
        # only the overlaps consistent with forced and forbidden are walked;
        # every answer must be admitted by the members, and the witnesses
        # (branch order, tie-break, padding) are pinned by
        # OVERLAP_GUESS_ANSWERS, recorded against the walk over every subset
        # of the center that skips the others
        answers = hashlib.sha256()
        rng = random.Random(31)
        kinds = set()
        for _ in range(1500):
            nv = rng.randint(1, 8)
            edges = tuple(
                tuple(rng.sample(range(nv), 2)) for _ in range(rng.randint(0, 10))
            ) if nv > 1 else ()
            ell = rng.randint(0, nv)
            oracle = VertexCoverOracle(GraphData(False, nv, edges), ell)
            center = rng.getrandbits(nv) if rng.random() < 0.8 else 0
            forced = rng.getrandbits(nv) & rng.getrandbits(nv)
            forbidden = rng.getrandbits(nv) & rng.getrandbits(nv) & ~forced
            query = ExtensionQuery(center, rng.randint(0, nv), forced, forbidden)
            got = oracle.exact_extend(query)
            kind = check_cover_answer(answers, nv, edges, ell, query, got)
            kinds.add((kind, center == 0, bool(forced & center), bool(forbidden & center)))
        assert answers.hexdigest() == OVERLAP_GUESS_ANSWERS
        assert {kind[0] for kind in kinds} == {Found, NotFound}
        assert {kind[1:] for kind in kinds} == {
            (True, False, False), *product((False,), (False, True), (False, True))
        }

    def test_cover_search_matches_the_copying_search(self):
        # the in-place search must find the very cover of the search that
        # copied the open edges at every branch, not merely a valid one:
        # every answer must be admitted by the members, and the witnesses
        # are pinned by COVER_SEARCH_ANSWERS.  Multigraphs with parallel
        # edges, disjoint forced and blocked sets, every size up to ell + 1,
        # forbidden bits at or above n
        answers = hashlib.sha256()
        rng = random.Random(32)
        seen = set()
        for _ in range(300):
            nv = rng.randint(1, 12)
            edges = tuple(
                tuple(rng.sample(range(nv), 2)) for _ in range(rng.randint(0, 16))
            ) if nv > 1 else ()
            if edges and rng.random() < 0.5:
                edges += tuple(rng.choices(edges, k=rng.randint(1, 4)))  # parallels
            ell = rng.randint(0, nv)
            oracle = VertexCoverOracle(GraphData(False, nv, edges), ell)
            for _ in range(3):
                forced = rng.getrandbits(nv) & rng.getrandbits(nv)
                blocked = rng.getrandbits(nv) & rng.getrandbits(nv) & ~forced
                forbidden = rng.getrandbits(nv + 3) & rng.getrandbits(nv + 3)
                for size in range(ell + 2):
                    got = oracle._solve_forced(forced, blocked, size)
                    query = ExtensionQuery(0, size, forced, blocked)
                    kind = check_cover_answer(answers, nv, edges, ell, query, got)
                    seen.add(("forced", kind))
                    got = oracle.exact_empty_extend(size, forbidden)
                    query = ExtensionQuery(0, size, 0, forbidden)
                    kind = check_cover_answer(answers, nv, edges, ell, query, got)
                    seen.add((kind, forbidden >> nv != 0))
        assert answers.hexdigest() == COVER_SEARCH_ANSWERS
        assert seen == {
            ("forced", Found), ("forced", NotFound), *product((Found, NotFound), (False, True))
        }


@cache
def vertex_set_points(nv):
    """Over the 2^nv vertex sets, one bit per set b (bit b): for each vertex
    the sets holding it, and for each size the sets of that size."""
    holding, sized = [0] * nv, [0] * (nv + 1)
    for b in range(1 << nv):
        sized[b.bit_count()] |= 1 << b
        for u in iter_bits(b):
            holding[u] |= 1 << b
    return holding, sized


def cover_points(nv, edges, ell):
    """The members of the vertex-cover domain, as vertex-set points."""
    holding, sized = vertex_set_points(nv)
    points = sum(sized[: ell + 1])
    for u, v in edges:
        points &= holding[u] | holding[v]
    return points


def query_points(nv, query):
    """The vertex sets an extension query admits, as vertex-set points."""
    holding, sized = vertex_set_points(nv)
    points = sized[query.radius] if query.radius <= nv else 0
    for j in iter_bits(query.center):  # XOR every set with the center
        points = (points & holding[j]) >> (1 << j) | (points & ~holding[j]) << (1 << j)
    for u in iter_bits(query.forced):
        points &= holding[u]
    for u in iter_bits(query.forbidden & ((1 << nv) - 1)):
        points &= ~holding[u]
    return points


class TestMatroidBases:
    def test_triangle_opt(self):
        graph = GraphData(directed=False, n_vertices=3, edges=((0, 1), (1, 2), (2, 0)))
        oracle = MatroidBaseOracle(GraphicMatroid(graph))
        got = oracle.opt_pm1(0b011)
        assert got is not None and got == 0b011

    def test_triangle_extension_at_distance_two(self):
        graph = GraphData(directed=False, n_vertices=3, edges=((0, 1), (1, 2), (2, 0)))
        oracle = MatroidBaseOracle(GraphicMatroid(graph))
        q = ExtensionQuery(0b011, 2, 0, 0)
        got = oracle.exact_extend(q)
        assert isinstance(got, Found)
        assert distance(got.witness, 0b011, 3) == 2

    def test_uniform_antipodal_extension(self):
        oracle = MatroidBaseOracle(UniformMatroid(4, 2))
        q = ExtensionQuery(0b0011, 4, 0, 0)
        got = oracle.exact_extend(q)
        assert isinstance(got, Found) and got.witness == 0b1100

    def test_odd_radius_rejected(self):
        oracle = MatroidBaseOracle(UniformMatroid(4, 2))
        q = ExtensionQuery(0b0011, 3, 0, 0)
        assert isinstance(oracle.exact_extend(q), NotFound)

    def test_exchange_walk_invariants(self):
        rng = random.Random(3)
        for seed in range(8):
            kind = ("spanning_tree", "uniform_matroid", "partition_matroid")[seed % 3]
            instance, domain = generate_instance(kind, seed, 40)
            oracle = instance.oracle()
            bits = domain.bits_list()
            if len(bits) < 2:
                continue
            d1, d2 = rng.sample(bits, 2)
            steps = 0
            while d1 != d2:
                moved = oracle._exchange_step(d1, d2)
                assert moved is not None
                assert oracle.is_member_bits(moved)
                assert (moved ^ d2).bit_count() == (d1 ^ d2).bit_count() - 2
                d1 = moved
                steps += 1
                assert steps <= domain.bits[0].bit_count()

    def test_matches_brute_on_random_instances(self):
        digests = []
        for seed in range(4):
            for kind in ("spanning_tree", "uniform_matroid", "partition_matroid"):
                instance, domain = generate_instance(kind, seed, 40)
                digests.append(assert_oracle_matches_brute(instance, domain, max_ff=2))
        assert grid_digest(digests) == MATROID_WITNESSES

    def test_graphic_greedy_matches_prefix_greedy(self):
        # the one-union-find greedy against the generic greedy, which tests
        # every prefix with a from-scratch forest check
        rng = random.Random(11)
        for _ in range(300):
            nv = rng.randint(2, 7)
            edges = []
            for _ in range(rng.randint(1, 10)):  # parallel edges allowed
                u, v = rng.sample(range(nv), 2)
                edges.append((u, v))
            graph = GraphData(directed=False, n_vertices=nv, edges=tuple(edges))
            fast = GraphicMatroid(graph)
            slow = DfsForests(graph)
            assert fast.rank == slow.rank
            m = graph.n_edges
            for _ in range(10):
                forced = rng.getrandbits(m) & rng.getrandbits(m)
                blocked = rng.getrandbits(m) & ~forced
                prefer = rng.getrandbits(m)
                open_pool = ((1 << m) - 1) & ~forced & ~blocked
                pools = (open_pool & prefer, open_pool & ~prefer)
                want = Matroid.greedy_bits(slow, forced, pools)
                assert fast.greedy_bits(forced, pools) == want
                bits = rng.getrandbits(m)
                assert fast.independent_bits(bits) == slow.independent_bits(bits)

    def test_uniform_greedy_matches_prefix_greedy(self):
        # the closed form against the generic greedy on random forced sets
        # and pools, overlapping ones and forced sets above the rank too
        rng = random.Random(23)
        for _ in range(2000):
            n = rng.randint(1, 12)
            fast = UniformMatroid(n, rng.randint(0, n))
            forced = rng.getrandbits(n) & rng.getrandbits(n)
            pools = tuple(rng.getrandbits(n) for _ in range(rng.randint(0, 3)))
            want = Matroid.greedy_bits(fast, forced, pools)
            assert fast.greedy_bits(forced, pools) == want, (n, fast.rank, forced, pools)


class DfsForests(Matroid):
    """The graphic matroid, with a depth-first component count per test."""

    def __init__(self, graph: GraphData) -> None:
        self.graph = graph
        self.universe_size = graph.n_edges
        self.rank = graph.n_vertices - self._components((1 << graph.n_edges) - 1)

    def _components(self, bits: int) -> int:
        edges = [self.graph.edges[e] for e in range(self.universe_size) if bits >> e & 1]
        seen = set()
        count = 0
        for start in range(self.graph.n_vertices):
            if start in seen:
                continue
            count += 1
            stack = [start]
            seen.add(start)
            while stack:
                u = stack.pop()
                for a, b in edges:
                    for x, y in ((a, b), (b, a)):
                        if x == u and y not in seen:
                            seen.add(y)
                            stack.append(y)
        return count

    def independent_bits(self, bits: int) -> bool:
        return self.graph.n_vertices - self._components(bits) == bits.bit_count()


def c4() -> GraphData:
    return GraphData(
        directed=False, n_vertices=4, edges=((0, 1), (1, 2), (2, 3), (3, 0))
    )


class TestMatching:
    def test_c4_opt_ties(self):
        oracle = MatchingOracle(c4(), 2)
        got = oracle.opt_pm1(0b1111)
        assert got == 0b0101

    def test_c4_extension(self):
        oracle = MatchingOracle(c4(), 2)
        q = ExtensionQuery(0b0101, 4, 0, 0)
        got = oracle.exact_extend(q)
        assert isinstance(got, Found) and got.witness == 0b1010
        q2 = ExtensionQuery(0b0101, 2, 0, 0)
        assert isinstance(oracle.exact_extend(q2), NotFound)

    def test_membership_matches_enumeration(self):
        # every size-ell matching must be reachable and nothing else
        for seed in range(6):
            instance, domain = generate_instance("matching", seed, 30)
            n = domain.universe_size
            oracle = instance.oracle()
            for bits in range(1 << n):
                member = domain.contains_bits(bits)
                assert member == oracle.is_member_bits(bits)

    def test_search_matches_padded_reference(self):
        # the DP on the graph itself against the pad-expansion DP: the same
        # witness (or None) on every call, for the best count and every
        # exact count, with parallel edges and masks that are no matching
        rng = random.Random(23)
        for _ in range(600):
            nv = rng.randint(2, 12)
            edges = tuple(
                tuple(rng.sample(range(nv), 2)) for _ in range(rng.randint(1, 20))
            )
            ell = rng.randint(0, 6)
            oracle = MatchingOracle(GraphData(False, nv, edges), ell)
            m = len(edges)
            forced = 0
            for e in rng.sample(range(m), rng.randint(0, min(2, m))):
                forced |= 1 << e
            forbidden = rng.getrandbits(m) & rng.getrandbits(m) & ~forced
            marked = rng.getrandbits(m)
            for want in (None, *range(ell + 1)):
                args = (forced, forbidden, marked, want)
                want_out = reference_matching_search(oracle, *args)
                assert oracle._search(*args) == want_out, (edges, ell, args)

    @pytest.mark.parametrize(
        "nv, ell, refused", [(12, 1, False), (13, 2, False), (13, 1, True)]
    )
    def test_cap_refuses_the_calls_the_padded_dp_refused(self, nv, ell, refused):
        # live + (live - 2 need) vertices on a path: 22 is answered, 24 is
        # refused; a forced edge leaves fewer live vertices
        path = GraphData(False, nv, tuple((i, i + 1) for i in range(nv - 1)))
        oracle = MatchingOracle(path, ell)
        rng = random.Random(nv * 10 + ell)
        for forced in (0, *(1 << rng.randrange(nv - 1) for _ in range(3))):
            marked = rng.getrandbits(nv - 1)
            for want in (None, *range(ell + 1)):
                args = (forced, 0, marked, want)
                if refused and not forced:
                    with pytest.raises(CapabilityError):
                        reference_matching_search(oracle, *args)
                    with pytest.raises(CapabilityError, match="22-vertex DP cap"):
                        oracle._search(*args)
                else:
                    want_out = reference_matching_search(oracle, *args)
                    assert oracle._search(*args) == want_out

    def test_matches_brute_on_random_instances(self):
        digests = [
            assert_oracle_matches_brute(*generate_instance("matching", seed, 30), max_ff=2)
            for seed in range(5)
        ]
        assert grid_digest(digests) == MATCHING_WITNESSES

    def test_infeasible_size_gives_empty_domain(self):
        oracle = MatchingOracle(c4(), 3)  # C4 has no 3-edge matching
        assert oracle.opt_pm1(0b1111) is None


class TestDagDp:
    def test_two_source_example(self):
        graph = GraphData(directed=True, n_vertices=3, edges=((0, 2), (1, 2)))
        instance = dag_dp_instance(3, graph, (0, 1, 2))
        domain = enumerate_domain(instance)
        assert sorted(domain.bits_list()) == [0b101, 0b110]
        oracle = instance.oracle()
        got = oracle.opt_pm1(0b101)
        assert got is not None and got == 0b101
        q = ExtensionQuery(0b101, 2, 0, 0)
        found = oracle.exact_extend(q)
        assert isinstance(found, Found) and found.witness == 0b110
        q_odd = ExtensionQuery(0b101, 1, 0, 0)
        assert isinstance(oracle.exact_extend(q_odd), NotFound)

    @pytest.mark.parametrize(
        "directed, edges, labels, message",
        [
            (False, ((0, 1),), (0, 1), "needs a directed graph"),
            (True, ((0, 1),), (0,), "need one label per vertex"),
            (True, ((0, 1),), (0, 2), "label 2 out of range"),
            (True, ((0, 1), (1, 0)), (0, 1), "graph has a directed cycle"),
            (True, ((0, 1),), (1, 1), r"label 1 repeats along a path \(0 reaches 1\)"),
        ],
        ids=["undirected", "label_count", "label_range", "cycle", "repetition"],
    )
    def test_label_repetition_on_path_rejected(self, directed, edges, labels, message):
        graph = GraphData(directed=directed, n_vertices=2, edges=edges)
        with pytest.raises(ValueError, match=message):
            dag_dp_instance(2, graph, labels)

    def test_matches_brute_on_random_instances(self):
        digests = [
            assert_oracle_matches_brute(*generate_instance("dag_dp", seed, 30), max_ff=2)
            for seed in range(6)
        ]
        assert grid_digest(digests) == DAG_WITNESSES

    def test_interval_witnesses(self):
        # 7 to 10 intervals with every transitive arc, as in the benchmark
        digests = []
        for seed in range(12):
            n = 7 + seed % 4
            instance = dag_dp_instance(n, *interval_dag(random.Random(seed), n))
            domain = enumerate_domain(instance)
            digests.append(assert_oracle_matches_brute(instance, domain, max_ff=2))
        assert grid_digest(digests) == INTERVAL_DAG_WITNESSES

    def test_membership_matches_path_enumeration(self):
        rng = random.Random(15)
        checked = 0
        while checked < 240:
            if checked % 2:
                n = rng.randint(4, 9)
                graph, labels = interval_dag(rng, n, parallel=rng.randint(1, 4))
                universe = n
            else:
                nv = rng.randint(2, 7)
                graph = random_dag(rng, nv, rng.randint(0, nv + 3))
                universe = rng.randint(2, min(7, nv + 1))
                labels = tuple(rng.randrange(universe) for _ in range(nv))
            try:
                oracle = DagDpOracle(graph, labels, universe)
            except ValueError:
                continue  # a label repeats along a path
            members = longest_path_label_sets(graph, labels)
            for bits in range(1 << universe):
                assert oracle.is_member_bits(bits) == (bits in members), (graph, labels, bits)
            checked += 1

    def test_ladder_with_one_member(self):
        # 2^20 longest paths, all with the label set {0, ..., 19}
        layers = 20
        edges = tuple(
            (2 * i + a, 2 * i + 2 + b)
            for i in range(layers - 1) for a in (0, 1) for b in (0, 1)
        )
        graph = GraphData(directed=True, n_vertices=2 * layers, edges=edges)
        instance = dag_dp_instance(layers, graph, tuple(v // 2 for v in range(2 * layers)))
        full = (1 << layers) - 1
        assert instance.membership(full)
        assert enumerate_domain(instance).bits_list() == [full]


class TestFarthestMember:
    """+1 exactly off a member c makes a member weigh ``|m ^ c| - |c|``, so
    ``opt_pm1(~c & full)`` must be a member farthest from c: the far-set
    phase gives up on it alone when it is within 2d of c."""

    @pytest.mark.parametrize("kind", [
        "explicit", "spanning_tree", "uniform_matroid", "partition_matroid",
        "matching", "st_mincut", "dag_dp",
    ])
    def test_opt_off_a_member_is_farthest_from_it(self, kind):
        for seed in range(4):
            instance, domain = generate_instance(kind, seed, 40)
            oracle, n = instance.oracle(), domain.universe_size
            for c in domain.bits:
                got = oracle.opt_pm1(~c & ((1 << n) - 1))
                assert got is not None and domain.contains_bits(got), (seed, c)
                want = max(distance(m, c, n) for m in domain.bits)
                assert distance(got, c, n) == want, (seed, c)


FIXED_SIZE_KINDS = (
    "spanning_tree", "uniform_matroid", "partition_matroid", "matching", "dag_dp"
)


def fixed_size_answers() -> str:
    """SHA-256 of the fixed-size adapters' answers on a seeded grid, each
    checked against the enumerated domain: ``opt_pm1`` on random masks, and
    ``exact_extend`` from member and non-member centers at every radius
    0..n+1, with forced and forbidden sets drawn around a member (often
    satisfiable) or at random (mostly not)."""
    answers = hashlib.sha256()
    for kind in FIXED_SIZE_KINDS:
        for seed in range(6):
            instance, domain = generate_instance(kind, seed, 30)
            oracle, reference = instance.oracle(), ExplicitOracle(domain)
            n = domain.universe_size
            rng = random.Random(70_000 + seed * 10 + FIXED_SIZE_KINDS.index(kind))
            for _ in range(24):
                positive = rng.getrandbits(n)
                got = oracle.opt_pm1(positive)
                want = reference.opt_pm1(positive)
                assert pm1_weight(got, positive) == pm1_weight(want, positive)
                answers.update(f"{got};".encode())
            members = domain.bits_list()
            centers = rng.sample(members, min(3, len(members)))
            centers += [rng.getrandbits(n) for _ in range(3)]
            for center in centers:
                for r in range(n + 2):
                    around = rng.choice(members)
                    if rng.random() < 0.5:
                        forced = around & rng.getrandbits(n) & rng.getrandbits(n)
                        forbidden = ~around & rng.getrandbits(n) & rng.getrandbits(n)
                    else:
                        forced = rng.getrandbits(n) & rng.getrandbits(n)
                        forbidden = rng.getrandbits(n) & rng.getrandbits(n)
                    forbidden &= ((1 << n) - 1) & ~forced
                    query = ExtensionQuery(center, r, forced, forbidden)
                    got = oracle.exact_extend(query)
                    want = reference.exact_extend(query)
                    assert isinstance(got, Found) == isinstance(want, Found), (kind, query)
                    if isinstance(got, Found):
                        assert query.admits_bits(got.witness)
                        assert domain.contains_bits(got.witness)
                    answers.update(
                        f"{got.witness if isinstance(got, Found) else '-'};".encode()
                    )
    return answers.hexdigest()


# The fixed-size adapters' answers on the grid above, as recorded before
# the size-to-count reduction moved into one base class.
FIXED_SIZE_ANSWERS = "ede7c6521674fad61086c1a4b5e1c5ebe6c96b239a26ce7b6b34ee4b23f7ae6f"


class TestFixedSizeAnswers:
    def test_answers_are_pinned(self):
        assert fixed_size_answers() == FIXED_SIZE_ANSWERS

    @pytest.mark.parametrize("make_oracle", [
        lambda: MatroidBaseOracle(UniformMatroid(6, 2)),
        lambda: MatchingOracle(
            GraphData(False, 6, tuple((i, (i + 1) % 6) for i in range(6))), 2
        ),
        lambda: DagDpOracle(GraphData(True, 2, ((0, 1),)), (0, 1), 4),
    ], ids=["matroid", "matching", "dag"])
    def test_radius_that_pins_no_count_skips_the_search(self, make_oracle):
        # every member has 2 elements: a distance from a member is even, a
        # member has 0..2 elements outside the center and at most r of them,
        # and it holds every forced element
        oracle = make_oracle()
        assert oracle.member_size == 2
        full = (1 << oracle.universe_size) - 1
        member = oracle.opt_pm1(0)
        outside = 1 << (~member & full).bit_length() - 1
        calls = []
        search = oracle._search
        oracle._search = lambda *args: calls.append(args) or search(*args)
        for query in (
            ExtensionQuery(member, 1, 0, 0),  # half a count
            ExtensionQuery(0, 6, 0, 0),  # 4 outside the empty center
            ExtensionQuery(0, 0, 0, 0),  # 1 outside, more than r = 0
            ExtensionQuery(full, 0, 0, 0),  # fewer than 0 outside
            ExtensionQuery(member, 0, outside, 0),  # a forced element outside
        ):
            assert oracle.exact_extend(query) == NotFound(), query
        assert calls == []
        assert oracle.exact_extend(ExtensionQuery(member, 0, 0, 0)) == Found(member)
        assert len(calls) == 1


class TestExplicitEquivalence:
    def test_matches_brute_on_random_instances(self):
        for seed in range(4):
            instance, domain = generate_instance("explicit", seed, 20)
            assert_oracle_matches_brute(instance, domain, max_ff=2)


class TestLazyExports:
    """``divsparse.domains`` imports an adapter module on first access to
    one of its names; the names are the ones the submodules define."""

    def test_every_name_is_its_submodule_object(self):
        for name in domains.__all__:
            obj = getattr(domains, name)
            assert obj.__module__.startswith("divsparse.domains."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            domains.Nope
        assert not hasattr(domains, "enumerate_domain")

    def test_star_import_binds_all_names(self):
        namespace: dict = {}
        exec("from divsparse.domains import *", namespace)
        assert {name: namespace[name] for name in domains.__all__} == {
            name: getattr(domains, name) for name in domains.__all__
        }
