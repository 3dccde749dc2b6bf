"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Everything is seeded and deterministic; tolerances are stated inline.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from pathlib import Path

import divsparse as ds
import divsparse.bruteforce as bf
from divsparse import (
    ExtensionQuery,
    FarSetMemo,
    Found,
    LimitedSparsifyParams,
    OracleContext,
    ProblemSpec,
    SetFamily,
    SmallSparsifyParams,
    SplitMix64,
    SubsetMask,
    TrivialSparsifier,
    approx_far_set,
    dk_sparsify,
    k_sparsify,
    pm1_weight,
)
from divsparse.cli import run as cli_run
from divsparse.domains import (
    ExplicitOracle,
    GraphData,
    MinCutOracle,
    build_mincut_poset,
)
from divsparse.instances import st_mincut_instance

from helpers import (
    all_ideals,
    certify_answer,
    complement_closed_family,
    generate_instance,
    limited_params,
    random_digraph,
    random_family,
    small_params,
)
from test_domains import extension_queries


def report(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_small_sparsifier_definition_suite():
    """100/100 random explicit domains: definition holds and the size bound
    (ell+1)! (kr+1)^ell is met."""
    runs = 100
    ok_runs = 0
    for run in range(runs):
        rng = random.Random(11_000 + run)
        n = rng.randint(3, 8)
        r = rng.randint(1, 4)
        k = rng.randint(1, 3)
        family = random_family(rng, n, 30, max_size=r)
        ell = max((b.bit_count() for b in family.bits), default=0)
        rep = k_sparsify(SmallSparsifyParams(k=k, r=r, ell=ell), ExplicitOracle(family))
        bound = math.factorial(ell + 1) * (k * r + 1) ** ell
        assert len(rep.family) <= bound, f"size bound violated on run {run}"
        scope = bf.VerifyScope.versus_ball(
            k=k, cap=None, center=SubsetMask.empty(n), radius=r
        )
        if bf.verify_sparsifier(family, rep.family, scope).ok:
            ok_runs += 1
    report(1, ok_runs == runs, f"{ok_runs}/{runs} verified, size bound always met")


def test_criterion_2_limited_sparsifier_suite():
    """>= 99/100 random explicit domains verify under cap d against all
    subsets; every far set returned during clustering is > 2d from all
    centers (checked unconditionally on every call)."""
    runs = 100
    verified = 0
    failures: list[int] = []
    far_calls = 0
    for run in range(runs):
        rng = random.Random(9_000 + run)
        n = rng.randint(3, 8)
        family = random_family(rng, n, 30)
        k = rng.randint(1, 3)
        d = rng.randint(0, 3)
        params = LimitedSparsifyParams(k=k, d=d, epsilon=0.01, seed=run)
        rep = dk_sparsify(ExplicitOracle(family), params)
        scope = bf.VerifyScope.versus_all_subsets(k=k, cap=d)
        if bf.verify_sparsifier(family, rep.family, scope).ok:
            verified += 1
        else:
            failures.append(run)

        # independent far-set soundness probe on the same domain
        oracle = ExplicitOracle(family)
        centers = family.bits_list()[: min(2, len(family))]
        got = approx_far_set(
            FarSetMemo(oracle), centers, d=d, trials=16, rng=SplitMix64(run)
        )
        far_calls += 1
        if got is not None:
            assert all(
                (got ^ c).bit_count() > 2 * d for c in centers
            ), f"unsound far set on run {run}"
    if failures:
        print(f"criterion 2 verification misses (far-set completeness): {failures}")
    report(
        2,
        verified >= 99,
        f"{verified}/{runs} verified, {far_calls} far-set calls all sound",
    )


def test_criterion_3_solver_oracle_equivalence():
    """200 instances across the six adapters, all four problems each:
    100% YES/NO agreement with the exhaustive solver; modified distance
    additionally on complement-closed explicit families."""
    kinds = (
        "explicit",
        "vertex_cover",
        "spanning_tree",
        "uniform_matroid",
        "partition_matroid",
        "matching",
        "st_mincut",
        "dag_dp",
    )
    problems = ("maxmin", "maxsum", "kcenter", "ksumradii")
    comparisons = 0
    agreements = 0
    for idx in range(200):
        kind = kinds[idx % len(kinds)]
        rng = random.Random(40_000 + idx)
        for problem in problems:
            cap = 10 if problem in ("kcenter", "ksumradii") else 16
            instance, domain = generate_instance(kind, idx, cap)
            k = rng.randint(1, 3)
            d = rng.randint(0, 4)
            spec = ProblemSpec(problem, k, d)
            if instance.prefers_small:
                params = small_params(instance.size_bound)
            else:
                params = limited_params(seed=idx, trials=128)
            answer = ds.solve(instance.oracle(), spec, params)
            expected = bf.brute_solve(domain, spec)
            comparisons += 1
            if answer.feasible == expected.feasible:
                agreements += 1
            certify_answer(domain, spec, answer)

    modified_total = 0
    modified_agree = 0
    for idx in range(40):
        rng = random.Random(70_000 + idx)
        n = rng.randint(3, 7)
        family = complement_closed_family(rng, n, 10)
        problem = problems[idx % 4]
        k = rng.randint(1, 3)
        d = rng.randint(0, 3)
        spec = ProblemSpec(problem, k, d, modified=True)
        answer = ds.solve(
            ExplicitOracle(family), spec, limited_params(seed=idx, trials=128)
        )
        expected = bf.brute_solve(family, spec)
        modified_total += 1
        if answer.feasible == expected.feasible:
            modified_agree += 1
        certify_answer(family, spec, answer)

    passed = agreements == comparisons and modified_agree == modified_total
    report(
        3,
        passed,
        f"plain {agreements}/{comparisons}, modified {modified_agree}/{modified_total}",
    )


def _opt_matches(instance, domain) -> bool:
    n = domain.universe_size
    oracle = instance.oracle()
    reference = ExplicitOracle(domain)
    for positive in range(1 << n):
        got = oracle.opt_pm1(positive)
        want = reference.opt_pm1(positive)
        if (got is None) != (want is None):
            return False
        if got is not None:
            if not domain.contains_bits(got):
                return False
            if pm1_weight(got, positive) != pm1_weight(want, positive):
                return False
    return True


def _extend_matches(instance, domain, ctx=None) -> bool:
    n = domain.universe_size
    oracle = instance.oracle()
    reference = ExplicitOracle(domain)
    for query in extension_queries(n, domain, max_forced_forbidden=4):
        got = oracle.exact_extend(query, ctx)
        want = reference.exact_extend(query)
        if isinstance(want, Found) != isinstance(got, Found):
            return False
        if isinstance(got, Found):
            if not query.admits_bits(got.witness):
                return False
            if not domain.contains_bits(got.witness):
                return False
    return True


def test_criterion_4_domain_oracle_equivalence():
    """Every adapter on fixed small instances: optimization agrees with the
    brute optimum on all 2^|U| weight vectors and extension outcomes agree
    on the full (C in D, r <= |U|, |X|+|Y| <= 4) grid."""
    from divsparse.instances import (
        dag_dp_instance,
        explicit_instance,
        matching_instance,
        partition_matroid_instance,
        spanning_tree_instance,
        uniform_matroid_instance,
        vertex_cover_instance,
    )

    checks: list[tuple[str, bool]] = []

    inst = explicit_instance(
        SetFamily.from_bits(5, [0b00111, 0b11000, 0b00001, 0b10101, 0b01010])
    )
    dom = bf.enumerate_domain(inst)
    checks.append(("explicit", _opt_matches(inst, dom) and _extend_matches(inst, dom)))

    p4 = GraphData(directed=False, n_vertices=4, edges=((0, 1), (1, 2), (2, 3)))
    inst = vertex_cover_instance(p4, 2)
    dom = bf.enumerate_domain(inst)
    checks.append(("vertex_cover", _extend_matches(inst, dom)))  # opt unsupported

    k4_minus = GraphData(
        directed=False,
        n_vertices=4,
        edges=((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)),
    )
    inst = spanning_tree_instance(k4_minus)
    dom = bf.enumerate_domain(inst)
    checks.append(
        ("spanning_tree", _opt_matches(inst, dom) and _extend_matches(inst, dom))
    )

    inst = uniform_matroid_instance(5, 2)
    dom = bf.enumerate_domain(inst)
    checks.append(
        ("uniform_matroid", _opt_matches(inst, dom) and _extend_matches(inst, dom))
    )

    inst = partition_matroid_instance(5, [(1, (0, 1, 2)), (2, (3, 4))])
    dom = bf.enumerate_domain(inst)
    checks.append(
        ("partition_matroid", _opt_matches(inst, dom) and _extend_matches(inst, dom))
    )

    c4 = GraphData(
        directed=False, n_vertices=4, edges=((0, 1), (1, 2), (2, 3), (3, 0))
    )
    inst = matching_instance(c4, 2)
    dom = bf.enumerate_domain(inst)
    checks.append(("matching", _opt_matches(inst, dom) and _extend_matches(inst, dom)))

    bowtie = GraphData(
        directed=True,
        n_vertices=5,
        edges=((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4)),
    )
    inst = st_mincut_instance(bowtie, 0, 4)
    dom = bf.enumerate_domain(inst)
    ctx = OracleContext(k=3, d=5, p=5)
    checks.append(
        ("st_mincut", _opt_matches(inst, dom) and _extend_matches(inst, dom, ctx))
    )

    dag = GraphData(
        directed=True, n_vertices=5, edges=((0, 2), (1, 2), (2, 3), (2, 4))
    )
    inst = dag_dp_instance(5, dag, (0, 1, 2, 3, 4))
    dom = bf.enumerate_domain(inst)
    checks.append(("dag_dp", _opt_matches(inst, dom) and _extend_matches(inst, dom)))

    bad = [name for name, ok in checks if not ok]
    report(4, not bad, f"{len(checks)} adapters exhaustively matched" if not bad else f"mismatch in {bad}")


FIXTURES = {
    "c4_matching": (
        "domain matching size=2\n"
        "graph undirected 4 4\n0 1\n1 2\n2 3\n3 0\n"
    ),
    "triangle_trees": (
        "domain spanning_tree\n"
        "graph undirected 3 3\n0 1\n1 2\n2 0\n"
    ),
    "explicit_two": "domain explicit\nuniverse 2\nset 0\nset 1\n",
    "diamond": (
        "domain st_mincut s=0 t=3\n"
        "graph directed 4 4\n0 1\n0 2\n1 3\n2 3\n"
    ),
}


def test_criterion_5_named_fixtures(tmp_path, capsys):
    """Exact expected answers on the named instances, via the CLI."""
    paths = {}
    for name, text in FIXTURES.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)

    def answer(args: list[str]) -> str:
        code = cli_run(args)
        out = capsys.readouterr().out
        assert code == 0
        return out

    checks = []
    out = answer(
        ["solve", "--instance", paths["c4_matching"], "--problem", "maxmin",
         "--k", "2", "--d", "4", "--trials", "64"]
    )
    checks.append(("c4 maxmin k2 d4 YES", out == "YES\nset: 0 2\nset: 1 3\n"))
    out = answer(
        ["solve", "--instance", paths["triangle_trees"], "--problem", "maxmin",
         "--k", "3", "--d", "2", "--trials", "64"]
    )
    checks.append(("trees maxmin k3 d2 YES", out.splitlines()[0] == "YES"))
    out = answer(
        ["solve", "--instance", paths["triangle_trees"], "--problem", "maxmin",
         "--k", "2", "--d", "3", "--trials", "64"]
    )
    checks.append(("trees maxmin k2 d3 NO", out == "NO\n"))
    out = answer(
        ["solve", "--instance", paths["explicit_two"], "--problem", "kcenter",
         "--k", "1", "--d", "1", "--trials", "64"]
    )
    checks.append(("kcenter k1 d1 NO", out == "NO\n"))
    out = answer(
        ["solve", "--instance", paths["explicit_two"], "--problem", "kcenter",
         "--k", "1", "--d", "2", "--trials", "64"]
    )
    checks.append(("kcenter k1 d2 YES", out.splitlines()[0] == "YES"))
    out = answer(["enumerate", "--instance", paths["diamond"]])
    checks.append(("diamond enumerate 4 cuts", out.splitlines()[0] == "size: 4"))

    bad = [name for name, ok in checks if not ok]
    with capsys.disabled():
        report(5, not bad, "all named fixtures exact" if not bad else f"failed {bad}")


def test_criterion_6_far_set_completeness_calibration():
    """Two-point domain, |U| = 10, d = 1, trials = 512: the far set is found
    in >= 99 of 100 seeded runs.  Single-trial success probability is the
    binomial tail 386/1024 (frozen), so the miss chance is negligible."""
    n = 10
    tail = sum(math.comb(n, j) for j in range(n // 2 + 1, n + 1))
    assert tail / 2**n == 386 / 1024  # approx 0.377
    family = SetFamily.from_bits(n, [0, (1 << n) - 1])
    oracle = ExplicitOracle(family)
    hits = 0
    for seed in range(100):
        got = approx_far_set(
            FarSetMemo(oracle), [0], d=1, trials=512, rng=SplitMix64(seed)
        )
        if got is not None and got == (1 << n) - 1:
            hits += 1
    report(6, hits >= 99, f"{hits}/100 seeded runs found the far set")


def test_criterion_7_mincut_structure():
    """50 random digraphs: the ideal lattice reproduces the brute-force
    minimum-cut family exactly; synthetic shortcut firings always return
    k+1 members pairwise more than 2d apart."""
    rng = random.Random(2024)
    matched = 0
    for _ in range(50):
        nv = rng.randint(3, 8)
        graph = random_digraph(rng, nv, rng.randint(nv, 3 * nv))
        poset = build_mincut_poset(graph, 0, nv - 1)
        cuts = sorted(poset.cut_bits(i) for i in all_ideals(poset))
        arcs = graph.arcs()
        candidates = [
            c for c in range(1 << nv) if c & 1 and not c >> (nv - 1) & 1
        ]
        value = min(
            sum(1 for u, v in arcs if c >> u & 1 and not c >> v & 1)
            for c in candidates
        )
        brute = sorted(
            c
            for c in candidates
            if sum(1 for u, v in arcs if c >> u & 1 and not c >> v & 1) == value
        )
        if cuts == brute and len(set(cuts)) == len(cuts):
            matched += 1

    shortcut_firings = 0
    for k, d in ((1, 0), (1, 2), (2, 1), (3, 1), (2, 3)):
        length = k * (2 * d + 1) + 2
        edges = tuple((i, i + 1) for i in range(length))
        graph = GraphData(directed=True, n_vertices=length + 1, edges=edges)
        oracle = MinCutOracle(graph, 0, length)
        ctx = OracleContext(k=k, d=d, p=length + 1)
        q = ExtensionQuery(0b1, 2, 0, 0)
        got = oracle.exact_extend(q, ctx)
        assert isinstance(got, TrivialSparsifier), (k, d)
        family = got.family.bits
        assert len(family) == k + 1
        for a, b in combinations(family, 2):
            assert (a ^ b).bit_count() > 2 * d
        domain = bf.enumerate_domain(st_mincut_instance(graph, 0, length))
        assert all(domain.contains_bits(b) for b in family)
        shortcut_firings += 1

    report(
        7,
        matched == 50,
        f"{matched}/50 lattices exact, {shortcut_firings} shortcut firings valid",
    )


def test_readme_library_block_runs():
    # the README's "Library entry points" example, run as written
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict[str, object] = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["answer"].feasible
