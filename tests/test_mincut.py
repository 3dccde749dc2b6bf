"""Minimum s,t-cut adapter: ideal lattice, gadget, sandwich, shortcut."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from divsparse import (
    CapabilityError,
    ExtensionQuery,
    Found,
    NotFound,
    OracleContext,
    SetFamily,
    SoundnessError,
    TrivialSparsifier,
    pm1_weight,
)
from divsparse.bruteforce import enumerate_domain
from divsparse.domains import (
    ExplicitOracle,
    GraphData,
    MinCutOracle,
    build_mincut_poset,
)
from divsparse.domains.mincut import SANDWICH_GUARD
from divsparse.instances import st_mincut_instance

from helpers import all_ideals, random_digraph, reference_mincut_extend

from test_domains import extension_queries


def diamond() -> GraphData:
    return GraphData(
        directed=True, n_vertices=4, edges=((0, 1), (0, 2), (1, 3), (2, 3))
    )


def assert_partial_order(poset) -> None:
    """The stored order is reflexive, antisymmetric and transitive, and
    ``pred_masks`` and ``succ_masks`` describe the same relation."""
    m = poset.n_nodes
    for w in range(m):
        assert poset.pred_masks[w] >> w & 1 and poset.succ_masks[w] >> w & 1
        for u in range(m):
            below = bool(poset.pred_masks[w] >> u & 1)
            assert below == bool(poset.succ_masks[u] >> w & 1)
            if below and u != w:
                assert not poset.pred_masks[u] >> w & 1, "not antisymmetric"
                assert poset.pred_masks[u] & ~poset.pred_masks[w] == 0, (
                    "not transitive"
                )


def brute_min_cuts(graph: GraphData, s: int, t: int) -> list[int]:
    arcs = graph.arcs()
    n = graph.n_vertices

    def crossing(cut: int) -> int:
        return sum(1 for u, v in arcs if cut >> u & 1 and not cut >> v & 1)

    candidates = [
        c for c in range(1 << n) if c >> s & 1 and not c >> t & 1
    ]
    best = min(crossing(c) for c in candidates)
    return sorted(c for c in candidates if crossing(c) == best)


class TestDiamond:
    def test_enumeration(self):
        instance = st_mincut_instance(diamond(), 0, 3)
        got = sorted(enumerate_domain(instance).bits_list())
        assert got == [0b0001, 0b0011, 0b0101, 0b0111]

    def test_opt(self):
        oracle = MinCutOracle(diamond(), 0, 3)
        got = oracle.opt_pm1(0b0110)
        assert got is not None and got == 0b0111

    def test_extension(self):
        oracle = MinCutOracle(diamond(), 0, 3)
        q = ExtensionQuery(0b0001, 1, 0b0010, 0)
        got = oracle.exact_extend(q)
        assert isinstance(got, Found) and got.witness == 0b0011


class TestPosetBijection:
    def test_fifty_random_digraphs(self):
        rng = random.Random(1)
        done = 0
        while done < 50:
            nv = rng.randint(3, 8)
            graph = random_digraph(rng, nv, rng.randint(nv, 3 * nv))
            s, t = 0, nv - 1
            poset = build_mincut_poset(graph, s, t)
            assert_partial_order(poset)
            cuts = sorted(poset.cut_bits(i) for i in all_ideals(poset))
            assert len(set(cuts)) == len(cuts), "ideal map is not injective"
            assert cuts == brute_min_cuts(graph, s, t)
            for cut in cuts:
                ideal = poset.ideal_bits(cut)
                assert ideal is not None and poset.cut_bits(ideal) == cut
            done += 1

    def test_unreachable_sink_is_uniform(self):
        graph = GraphData(directed=True, n_vertices=3, edges=((2, 0),))
        poset = build_mincut_poset(graph, 0, 2)
        assert poset.cut_value == 0
        cuts = sorted(poset.cut_bits(i) for i in all_ideals(poset))
        assert cuts == brute_min_cuts(graph, 0, 2)

    def test_undirected_edges_count_once(self):
        graph = GraphData(directed=False, n_vertices=3, edges=((0, 1), (1, 2)))
        poset = build_mincut_poset(graph, 0, 2)
        assert poset.cut_value == 1
        cuts = sorted(poset.cut_bits(i) for i in all_ideals(poset))
        assert cuts == brute_min_cuts(graph, 0, 2)


# The optimization witnesses on the tie-rule grid below, recorded with the
# max-flow gadget that answered opt_pm1 before the closure over the poset.
MINCUT_OPT_WITNESSES = "6890af82cda3cb174f6aae5b6232a1bf1d45364b9c2e429a9e0de23fa95f03af"


class TestOptTieRule:
    def test_opt_is_the_meet_of_the_heaviest_cuts(self):
        # every max-weight minimum cut contains the answer, which is itself
        # one of them: the unique minimal optimum
        rng = random.Random(5)
        answers = hashlib.sha256()
        for _ in range(40):
            nv = rng.randint(3, 7)
            graph = random_digraph(rng, nv, rng.randint(nv - 1, 2 * nv))
            oracle = MinCutOracle(graph, 0, nv - 1)
            poset = build_mincut_poset(graph, 0, nv - 1)
            cuts = [poset.cut_bits(i) for i in all_ideals(poset)]
            for positive in range(1 << nv):
                best = max(pm1_weight(c, positive) for c in cuts)
                meet = (1 << nv) - 1
                for c in cuts:
                    if pm1_weight(c, positive) == best:
                        meet &= c
                got = oracle.opt_pm1(positive)
                assert got == meet, (graph, positive)
                answers.update(f"{got};".encode())
        assert answers.hexdigest() == MINCUT_OPT_WITNESSES


class TestEquivalence:
    def test_matches_brute_with_context(self):
        rng = random.Random(9)
        for _ in range(8):
            nv = rng.randint(3, 5)
            graph = random_digraph(rng, nv, rng.randint(nv, 2 * nv))
            instance = st_mincut_instance(graph, 0, nv - 1)
            domain = enumerate_domain(instance)
            oracle = instance.oracle()
            ctx = OracleContext(k=2, d=nv, p=nv)  # wide enough: no shortcut
            reference = ExplicitOracle(domain)
            for positive in range(1 << nv):
                got = oracle.opt_pm1(positive)
                want = reference.opt_pm1(positive)
                assert got is not None and want is not None
                assert pm1_weight(got, positive) == pm1_weight(want, positive)
            for query in extension_queries(nv, domain, 2):
                got = oracle.exact_extend(query, ctx)
                want = reference.exact_extend(query)
                assert isinstance(got, Found) == isinstance(want, Found)
                if isinstance(got, Found):
                    assert query.admits_bits(got.witness)
                    assert domain.contains_bits(got.witness)


def path_graph(length: int) -> GraphData:
    edges = tuple((i, i + 1) for i in range(length))
    return GraphData(directed=True, n_vertices=length + 1, edges=edges)


class TestTrivialShortcut:
    @pytest.mark.parametrize("k,d", [(1, 0), (1, 1), (2, 1), (2, 2), (3, 1)])
    def test_chain_fires_and_is_scattered(self, k, d):
        # a long path gives a chain poset wider than k (2d + 1)
        length = k * (2 * d + 1) + 2
        oracle = MinCutOracle(path_graph(length), 0, length)
        center = 0b1  # the minimal cut {s}
        ctx = OracleContext(k=k, d=d, p=length + 1)
        q = ExtensionQuery(center, 2, 0, 0)
        got = oracle.exact_extend(q, ctx)
        assert isinstance(got, TrivialSparsifier)
        family = got.family.bits
        assert len(family) == k + 1
        for a, b in combinations(family, 2):
            assert (a ^ b).bit_count() > 2 * d
        domain = enumerate_domain(st_mincut_instance(path_graph(length), 0, length))
        for member in family:
            assert domain.contains_bits(member)

    def test_downward_chain(self):
        # center near the top of the chain: the removable side is the wide one
        k, d = 2, 1
        length = k * (2 * d + 1) + 2
        oracle = MinCutOracle(path_graph(length), 0, length)
        center = (1 << length) - 1  # all but t
        ctx = OracleContext(k=k, d=d, p=length + 1)
        q = ExtensionQuery(center, 2, 0, 0)
        got = oracle.exact_extend(q, ctx)
        assert isinstance(got, TrivialSparsifier)
        assert len(got.family) == k + 1
        for a, b in combinations(got.family.bits, 2):
            assert (a ^ b).bit_count() > 2 * d

    def test_no_context_narrow_sandwich_still_answers(self):
        oracle = MinCutOracle(diamond(), 0, 3)
        q = ExtensionQuery(0b0001, 2, 0, 0)
        got = oracle.exact_extend(q)  # no context: plain sandwich search
        assert isinstance(got, Found)
        assert got.witness == 0b0111

    @pytest.mark.parametrize("paths", [26, 27])
    def test_no_context_refuses_a_sandwich_past_the_guard(self, paths):
        # s-v-t paths are incomparable poset nodes: at radius >= 1 around
        # the cut {s} every inner vertex is addable, so the sandwich holds
        # them all; one more than SANDWICH_GUARD is refused, not searched
        oracle = MinCutOracle(multipath_graph((1,) * paths), 0, paths + 1)
        for radius in (1, 2):
            q = ExtensionQuery(0b1, radius, 0, 0)
            if paths > SANDWICH_GUARD:
                with pytest.raises(CapabilityError, match="sandwich too wide"):
                    oracle.exact_extend(q)
            else:
                got = oracle.exact_extend(q)
                assert isinstance(got, Found) and q.admits_bits(got.witness)

    def test_center_not_in_domain_rejected(self):
        oracle = MinCutOracle(diamond(), 0, 3)
        q = ExtensionQuery(0b0010, 1, 0, 0)
        with pytest.raises(ValueError):
            oracle.exact_extend(q)


def multipath_graph(lengths: tuple[int, ...]) -> GraphData:
    """Internally disjoint undirected s-t paths with ``lengths[i]`` inner
    vertices on path i; s = 0 and t is the last vertex."""
    t = sum(lengths) + 1
    edges = []
    nxt = 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, t))
    return GraphData(directed=False, n_vertices=t + 1, edges=tuple(edges))


def extend_outcome(extend, query, ctx) -> str:
    """One extension answer as text: the witness, ``-`` for NotFound, the
    shortcut family, or the name of the exception raised."""
    try:
        got = extend(query, ctx)
    except (ValueError, CapabilityError, SoundnessError) as exc:
        return type(exc).__name__
    if isinstance(got, Found):
        return str(got.witness)
    if isinstance(got, NotFound):
        return "-"
    return "T" + ",".join(map(str, got.family.bits))


# The extension witnesses on the grid below, recorded with the counter scan
# over the sandwich (tests/helpers.py::reference_mincut_extend): any other
# search must find the scan's first admitted cut.
MINCUT_EXTEND_WITNESSES = "f1204c3fea7c97be3f15f0c6e48a25fd804adc68233fc3067e0d96df76b07ba5"


class TestExtendWitnesses:
    def test_grid_digest(self):
        rng = random.Random(13)
        graphs = []
        for _ in range(10):
            nv = rng.randint(3, 6)
            graphs.append((random_digraph(rng, nv, rng.randint(nv, 2 * nv)), 2))
        for lengths in [(2, 2), (1, 3), (3, 2, 1), (2, 2, 2)]:
            graphs.append((multipath_graph(lengths), 1))
        contexts = [None, OracleContext(k=1, d=1, p=2)]
        answers = hashlib.sha256()
        for graph, max_ff in graphs:
            n = graph.n_vertices
            oracle = MinCutOracle(graph, 0, n - 1)
            poset = build_mincut_poset(graph, 0, n - 1)
            domain = SetFamily.from_bits(
                n, sorted(poset.cut_bits(i) for i in all_ideals(poset))
            )
            for query in extension_queries(n, domain, max_ff):
                for ctx in contexts:
                    got = extend_outcome(oracle.exact_extend, query, ctx)
                    answers.update(f"{got};".encode())
        assert answers.hexdigest() == MINCUT_EXTEND_WITNESSES


class TestAgainstScan:
    def test_seeded_differential(self):
        # outcome, witness, shortcut family and exception must all match the
        # counter scan, on random radii, forced / forbidden sets and contexts
        rng = random.Random(29)
        for _ in range(60):
            if rng.random() < 0.5:
                nv = rng.randint(3, 8)
                graph = random_digraph(rng, nv, rng.randint(nv, 3 * nv))
            else:
                paths = rng.randint(2, 3)
                graph = multipath_graph(
                    tuple(rng.randint(1, 3) for _ in range(paths))
                )
            n = graph.n_vertices
            oracle = MinCutOracle(graph, 0, n - 1)
            poset = build_mincut_poset(graph, 0, n - 1)
            cuts = [poset.cut_bits(i) for i in all_ideals(poset)]
            for _ in range(60):
                center = rng.choice(cuts) if rng.random() < 0.95 else rng.getrandbits(n)
                forced = forbidden = 0
                for v in range(n):
                    roll = rng.random()
                    if roll < 0.1:
                        forced |= 1 << v
                    elif roll < 0.2:
                        forbidden |= 1 << v
                query = ExtensionQuery(center, rng.randint(0, n), forced, forbidden)
                ctx = None
                if rng.random() < 0.5:
                    ctx = OracleContext(
                        k=rng.randint(1, 3), d=rng.randint(0, 3), p=rng.randint(0, n)
                    )
                got = extend_outcome(oracle.exact_extend, query, ctx)
                want = extend_outcome(
                    lambda q, c: reference_mincut_extend(oracle, q, c), query, ctx
                )
                assert got == want, (graph, query, ctx)
