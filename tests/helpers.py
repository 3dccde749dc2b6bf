"""Shared test utilities: deterministic instance generators, answer
certification against enumerated domains, and at most one reference copy
per layer of the library:

- sunflower engine: :func:`restart_k_sparsify`, which restarts every
  blocker walk with :func:`reference_hitting_sets` (itself checked against
  :func:`brute_blockers`); the only check of the query order that
  ``k_sparsify``'s docstring promises;
- far-set phase: :func:`plain_approx_far_set`;
- weight draws: :func:`reference_top_bits`;
- max-sum: :func:`reference_maxsum`;
- cluster radius: :func:`reference_min_cluster_radius`, with
  :func:`reference_oriented_radius` for the modified distance;
- min-cut adapter: :func:`reference_mincut_extend`;
- matching adapter: :func:`reference_matching_search`;
- DAG adapter: :func:`longest_path_label_sets`.

The vertex-cover adapter has none: its answers are checked against its
members and pinned by a digest.  Code a change replaces is not kept here
as a copy: its checks move onto brute force, the layer's one reference,
or a sha256 of outputs recorded while the old comparison still passed.
``test_core.py::test_every_helper_is_used`` fails on a function or class
here that no test module and no other helper uses."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Iterator

from divsparse import (
    CapabilityError,
    DomainOracle,
    ExtensionQuery,
    Found,
    GloballyInfeasible,
    GuardError,
    LimitedSparsifyParams,
    ProblemSpec,
    SetFamily,
    SmallSparsifyParams,
    SolveAnswer,
    SoundnessError,
    SplitMix64,
    SubsetMask,
    TrivialSparsifier,
    distance,
)
from divsparse.bruteforce import VerifyScope, enumerate_domain
from divsparse.core import (
    NOT_FOUND,
    check_trivial_sparsifier,
    iter_bits,
    submasks,
)
from divsparse.domains import (
    GraphData,
    MatchingOracle,
    MinCutOracle,
    MinCutPoset,
)
from divsparse.domains.mincut import SANDWICH_GUARD
from divsparse.instances import (
    DomainInstance,
    dag_dp_instance,
    explicit_instance,
    matching_instance,
    partition_matroid_instance,
    spanning_tree_instance,
    st_mincut_instance,
    uniform_matroid_instance,
    vertex_cover_instance,
)
from divsparse.sunflower import BLOCKER_UNION_GUARD, _ClassCores

ADAPTER_KINDS = (
    "explicit",
    "vertex_cover",
    "spanning_tree",
    "uniform_matroid",
    "partition_matroid",
    "matching",
    "st_mincut",
    "dag_dp",
)


def random_family(
    rng: random.Random,
    n: int,
    max_members: int,
    max_size: int | None = None,
    nonempty: bool = True,
) -> SetFamily:
    count = rng.randint(1 if nonempty else 0, max_members)
    seen: set[int] = set()
    members: list[int] = []
    attempts = 0
    while len(members) < count and attempts < 50 * max_members + 50:
        attempts += 1
        bits = rng.getrandbits(n)
        if max_size is not None and bits.bit_count() > max_size:
            continue
        if bits in seen:
            continue
        seen.add(bits)
        members.append(bits)
    return SetFamily.from_bits(n, members)


def complement_closed_family(rng: random.Random, n: int, max_members: int) -> SetFamily:
    base = random_family(rng, n, max_members // 2 + 1)
    full = (1 << n) - 1
    bits: list[int] = []
    seen: set[int] = set()
    for b in base.bits_list():
        for candidate in (b, b ^ full):
            if candidate not in seen:
                seen.add(candidate)
                bits.append(candidate)
    return SetFamily.from_bits(n, bits)


def random_undirected_graph(
    rng: random.Random, nv: int, n_edges: int
) -> GraphData:
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    rng.shuffle(pairs)
    chosen = pairs[: min(n_edges, len(pairs))]
    if not chosen:
        chosen = [(0, 1)]
    return GraphData(directed=False, n_vertices=nv, edges=tuple(chosen))


def random_digraph(rng: random.Random, nv: int, n_edges: int) -> GraphData:
    pairs = [(u, v) for u in range(nv) for v in range(nv) if u != v]
    rng.shuffle(pairs)
    chosen = pairs[: min(n_edges, len(pairs))]
    if not chosen:
        chosen = [(0, 1)]
    return GraphData(directed=True, n_vertices=nv, edges=tuple(chosen))


def random_dag(rng: random.Random, nv: int, n_edges: int) -> GraphData:
    order = list(range(nv))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    pairs = [
        (u, v) for u in range(nv) for v in range(nv)
        if u != v and rank[u] < rank[v]
    ]
    rng.shuffle(pairs)
    chosen = pairs[: min(n_edges, len(pairs))]
    return GraphData(directed=True, n_vertices=nv, edges=tuple(chosen))


def interval_dag(
    rng: random.Random, n: int, parallel: int = 0
) -> tuple[GraphData, tuple[int, ...]]:
    """Interval scheduling as a labeled DAG, shaped like the benchmark's
    ``dag`` jobs: ``n`` intervals, an arc whenever one interval ends before
    another starts (transitive arcs included), vertices permuted, vertex v
    labeled v.  ``parallel`` arcs are drawn again as parallel copies."""
    spans = sorted(
        (start, start + rng.randint(1, 4))
        for start in [rng.randint(0, 11) for _ in range(n)]
    )
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = [
        (perm[u], perm[v]) for u in range(n) for v in range(n)
        if u != v and spans[u][1] <= spans[v][0]
    ]
    if arcs:
        arcs += [rng.choice(arcs) for _ in range(parallel)]
    rng.shuffle(arcs)
    return GraphData(directed=True, n_vertices=n, edges=tuple(arcs)), tuple(range(n))


def longest_path_label_sets(graph: GraphData, labels: tuple[int, ...]) -> set[int]:
    """The label sets of the paths with the most vertices, by a DFS over
    every path (a reference for the DAG adapter's membership test)."""
    succs: list[list[int]] = [[] for _ in range(graph.n_vertices)]
    for u, v in graph.edges:
        succs[u].append(v)
    paths: list[tuple[int, int]] = []  # (vertex count, label bits)

    def walk(v: int, count: int, bits: int) -> None:
        paths.append((count, bits))
        for u in succs[v]:
            walk(u, count + 1, bits | (1 << labels[u]))

    for v in range(graph.n_vertices):
        walk(v, 1, 1 << labels[v])
    most = max(count for count, _ in paths)
    return {bits for count, bits in paths if count == most}


def _attempt_instance(kind: str, rng: random.Random) -> DomainInstance:
    if kind == "explicit":
        n = rng.randint(3, 7)
        return explicit_instance(random_family(rng, n, 12))
    if kind == "vertex_cover":
        nv = rng.randint(3, 5)
        graph = random_undirected_graph(rng, nv, rng.randint(2, nv + 1))
        return vertex_cover_instance(graph, rng.randint(1, 3))
    if kind == "spanning_tree":
        nv = rng.randint(3, 5)
        graph = random_undirected_graph(rng, nv, rng.randint(nv - 1, nv + 1))
        return spanning_tree_instance(graph)
    if kind == "uniform_matroid":
        n = rng.randint(3, 6)
        return uniform_matroid_instance(n, rng.randint(1, min(3, n)))
    if kind == "partition_matroid":
        n = rng.randint(4, 6)
        split = rng.randint(1, n - 1)
        blocks = [
            (rng.randint(1, 2), tuple(range(split))),
            (rng.randint(1, 2), tuple(range(split, n))),
        ]
        return partition_matroid_instance(n, blocks)
    if kind == "matching":
        nv = rng.randint(4, 6)
        graph = random_undirected_graph(rng, nv, rng.randint(3, 6))
        return matching_instance(graph, rng.randint(1, 2))
    if kind == "st_mincut":
        nv = rng.randint(3, 5)
        graph = random_digraph(rng, nv, rng.randint(nv, 2 * nv))
        return st_mincut_instance(graph, 0, nv - 1)
    if kind == "dag_dp":
        nv = rng.randint(3, 6)
        graph = random_dag(rng, nv, rng.randint(2, nv + 2))
        universe = rng.randint(2, min(6, nv + 1))
        labels = tuple(rng.randrange(universe) for _ in range(nv))
        return dag_dp_instance(universe, graph, labels)
    raise ValueError(f"unknown kind {kind!r}")


_KIND_OFFSET = {kind: i for i, kind in enumerate(ADAPTER_KINDS)}


def all_ideals(poset: MinCutPoset) -> list[int]:
    """Every ideal of ``poset``, ascending as node bitmasks (guarded)."""
    m = poset.n_nodes
    if m > 20:
        raise ValueError(f"refusing to enumerate ideals of {m} nodes")
    return [i for i in range(1 << m) if poset.is_ideal(i)]


def generate_instance(
    kind: str, seed: int, max_domain: int, min_domain: int = 1
) -> tuple[DomainInstance, SetFamily]:
    """Deterministic instance of one adapter with a bounded domain size.

    Rejection-samples until enumerate_domain lands in the requested range.
    Seeds are pure integers so results do not depend on hash randomization.
    """
    for attempt in range(200):
        rng = random.Random(seed * 100_000 + _KIND_OFFSET[kind] * 1_000 + attempt)
        try:
            instance = _attempt_instance(kind, rng)
            domain = enumerate_domain(instance)
        except ValueError:
            continue  # e.g. a DAG labeling that repeats along a path
        if min_domain <= len(domain) <= max_domain:
            return instance, domain
    raise AssertionError(f"no viable {kind} instance for seed {seed}")


def small_params(ell: int) -> SmallSparsifyParams:
    """Small-pipeline params for ``solve``, which sets their ``k`` and ``r``."""
    return SmallSparsifyParams(k=1, r=ell, ell=ell)


def limited_params(seed: int = 0, trials: int | None = None) -> LimitedSparsifyParams:
    """Limited-pipeline params for ``solve``, which sets their ``k`` and ``d``."""
    return LimitedSparsifyParams(k=1, d=0, seed=seed, trials_override=trials)


def certify_answer(
    domain: SetFamily, spec: ProblemSpec, answer: SolveAnswer
) -> None:
    """Re-check a feasible answer against the problem statement."""
    if not answer.feasible:
        return
    n = domain.universe_size

    def dist(a, b) -> int:
        return distance(a.bits, b.bits, n, spec.modified)

    assert len(answer.witnesses) == spec.k
    for w in answer.witnesses:
        assert domain.contains_bits(w.bits), "witness outside the domain"
    pairs = [
        dist(answer.witnesses[i], answer.witnesses[j])
        for i in range(spec.k)
        for j in range(i + 1, spec.k)
    ]
    if spec.problem == "maxmin":
        assert all(v >= spec.d for v in pairs)
    elif spec.problem == "maxsum":
        assert sum(pairs) >= spec.d
    else:
        assert answer.radii is not None and len(answer.radii) == spec.k
        if spec.problem == "kcenter":
            assert all(r <= spec.d for r in answer.radii)
        else:
            assert sum(answer.radii) <= spec.d
        for member in domain.bits:
            assert any(
                distance(member, c.bits, n, spec.modified) <= r
                for c, r in zip(answer.witnesses, answer.radii)
            ), "a domain member is not covered"


def mask_from_indices(universe_size: int, indices: Iterable[int]) -> SubsetMask:
    """The subset holding ``indices``; an index outside the universe is a
    ValueError naming it."""
    bits = 0
    for i in indices:
        if not 0 <= i < universe_size:
            raise ValueError(
                f"element index {i} out of range for universe size {universe_size}"
            )
        bits |= 1 << i
    return SubsetMask(universe_size, bits)


def versus_domain(k: int, cap: int | None) -> VerifyScope:
    """A scope whose reference family is the domain itself."""
    return VerifyScope(k=k, cap=cap, reference="domain")


def union_of(family: SetFamily) -> int:
    """The union of the members of ``family``, as a mask."""
    out = 0
    for b in family.bits:
        out |= b
    return out


@dataclass(frozen=True)
class Sunflower:
    """Equal-size sets whose pairwise intersections all equal one core."""

    petals: SetFamily
    core: SubsetMask


def is_sunflower(family: SetFamily) -> Sunflower | None:
    """Return the sunflower structure of ``family`` or None.

    A single-petal family is a sunflower whose core is the petal itself;
    a two-petal family is one with core equal to the intersection.
    Mixed member cardinalities are a usage error.
    """
    if len(family) == 0:
        raise ValueError("a sunflower has at least one petal")
    bits = family.bits
    if len({b.bit_count() for b in bits}) > 1:
        raise ValueError("sunflower petals must have equal cardinality")
    if len(bits) == 1:
        return Sunflower(family, SubsetMask(family.universe_size, bits[0]))
    core = bits[0] & bits[1]
    for a, b in combinations(bits, 2):
        if a & b != core:
            return None
    return Sunflower(family, SubsetMask(family.universe_size, core))


def blocker_candidates(
    family: SetFamily, ell_prime: int, t: int
) -> list[SubsetMask]:
    """All qualifying blocker sets for one cardinality class, in order.

    Returns every Y inside the union of ``family`` that intersects every
    member of cardinality ``ell_prime`` and the core of every size-``t``
    sunflower among those members, ordered by (size, lexicographic).
    """
    if t < 1:
        raise ValueError("sunflower size t must be positive")
    if ell_prime < 0:
        raise ValueError("cardinality must be nonnegative")
    n = family.universe_size
    group = _ClassCores(t, n)
    for b in family.bits_list():
        if b.bit_count() == ell_prime:
            group.add(b)
    return [
        SubsetMask(n, y)
        for y in reference_hitting_sets(union_of(family), class_required(group), {})
    ]


def class_required(group: _ClassCores) -> list[int]:
    """The sets a blocker for the class of ``group`` must intersect."""
    return group.members + group.cores


def reference_hitting_sets(
    union_bits: int, required: list[int], known_empty: dict[int, list[int]]
) -> Iterator[int]:
    """The blocker walk from scratch: subsets of the member union that
    intersect every required set, with no resume.

    Ordered by increasing size, then lexicographically by member indices;
    the order of ``required`` and repeats in it do not matter.  Yields
    nothing when some required set is empty (nothing can hit it); yields
    the empty set first when there is nothing to intersect.

    Sets containing a known-empty set are skipped.  ``known_empty`` maps
    ``y.bit_length()`` (highest element + 1, or 0 for the empty set) to the
    known-empty sets ``y``; it is read live, so sets the caller adds while
    iterating prune what follows.  The tables of required sets are built
    afresh on every call.
    """
    if any(req == 0 for req in required):
        return
    elems = list(iter_bits(union_bits))
    if len(elems) > BLOCKER_UNION_GUARD:
        raise GuardError(
            f"blocker enumeration over {len(elems)} elements exceeds the "
            f"2^{BLOCKER_UNION_GUARD} guard"
        )
    # per element e: hits[e], the required sets containing e, and later[e],
    # those with a union element above e (first filled with the sets whose
    # highest union element is e)
    hits = [0] * union_bits.bit_length()
    later = [0] * union_bits.bit_length()
    for j, req in enumerate(required):
        inside = req & union_bits
        for e in iter_bits(inside):
            hits[e] |= 1 << j
        if inside:
            later[inside.bit_length() - 1] |= 1 << j
    above = 0
    for e in reversed(elems):
        later[e], above = above, above | later[e]

    def grow(y: int, start: int, left: int, missed: int) -> Iterator[int]:
        for i in range(start, len(elems) - left + 1):
            e = elems[i]
            z = y | 1 << e
            blocked = known_empty.get(e + 1)
            if blocked and any(b & ~z == 0 for b in blocked):
                continue
            still = missed & ~hits[e]
            if left == 1:
                if not still:
                    yield z
            elif not still & ~later[e]:
                yield from grow(z, i + 1, left - 1, still)

    for size in range(len(elems) + 1):
        if 0 in known_empty:
            return
        if size == 0:
            if not required:
                yield 0
        else:
            yield from grow(0, 0, size, (1 << len(required)) - 1)


def restart_k_sparsify(
    params: SmallSparsifyParams, oracle: DomainOracle
) -> tuple[list[int], int, int]:
    """The small construction with remembered answers, restarting every
    blocker walk with :func:`reference_hitting_sets`.

    A class is skipped while its (member union, class size) equals that of
    the last pass in which it ran dry.  Returns (member bits in insertion
    order, passes, extension calls).  Trivial-sparsifier outcomes are not
    handled and witnesses are not checked: use it with honest oracles.
    """
    n = oracle.universe_size
    t = params.k * params.r + 1
    classes = [_ClassCores(t, n) for _ in range(min(params.ell, n) + 1)]
    drained: list[tuple[int, int] | None] = [None] * len(classes)
    members: list[int] = []
    union_bits = passes = calls = 0
    while True:
        passes += 1
        added = False
        for lp, group in enumerate(classes):
            key = (union_bits, len(group.members))
            if drained[lp] == key:
                continue
            required = class_required(group)
            for y in reference_hitting_sets(union_bits, required, group.known_empty):
                out = oracle.exact_empty_extend(lp, y)
                calls += 1
                if isinstance(out, Found):
                    members.append(out.witness)
                    union_bits |= out.witness
                    group.add(out.witness)
                    added = True
                    break
                group.known_empty.setdefault(y.bit_length(), []).append(y)
            if added:
                break
            drained[lp] = key
        if not added:
            return members, passes, calls


def brute_cores(family: SetFamily, ell_prime: int, t: int) -> list[int]:
    """The core of every size-``t`` sunflower among the members of
    cardinality ``ell_prime``, straight from the definition (one entry per
    sunflower, so a core can repeat)."""
    n = family.universe_size
    group = [b for b in family.bits if b.bit_count() == ell_prime]
    cores = []
    for sub in combinations(group, t):
        got = is_sunflower(SetFamily.from_bits(n, sub))
        if got is not None:
            cores.append(got.core.bits)
    return cores


def brute_required(family: SetFamily, ell_prime: int, t: int) -> list[int]:
    """Sets a blocker must hit, straight from the definition: every member
    of cardinality ``ell_prime`` and the core of every size-``t`` sunflower
    among them."""
    group = [b for b in family.bits if b.bit_count() == ell_prime]
    return group + brute_cores(family, ell_prime, t)


def brute_blockers(family: SetFamily, ell_prime: int, t: int) -> list[int]:
    """Direct enumeration from the definition, for cross-checking."""
    required = brute_required(family, ell_prime, t)
    elems = list(iter_bits(union_of(family)))
    out = []
    for size in range(len(elems) + 1):
        for combo in combinations(elems, size):
            y = 0
            for e in combo:
                y |= 1 << e
            if all(y & req for req in required):
                out.append(y)
    return out


def reference_top_bits(rng: SplitMix64, n: int) -> int:
    """The per-element weight draw: ``n`` calls of ``rng.next_u64``, bit i
    of the result the top bit of output i."""
    out = 0
    for i in range(n):
        out |= (rng.next_u64() >> 63) << i
    return out


def plain_approx_far_set(
    oracle: DomainOracle,
    centers: list[int],
    d: int,
    trials: int,
    rng: SplitMix64,
    memo: dict[int, int],
) -> tuple[int | None, int]:
    """The far-set call written plainly: with one center, the mask ``~c``
    first (a give-up when its optimum is within 2d of c), then trials with
    the memo (unbounded) and the coverage stop, drawing each mask with
    :func:`reference_top_bits` and checking every trial's optimum against
    the centers.  Returns (far member or None, calls issued)."""
    n = oracle.universe_size
    calls = 0

    def far(member: int) -> bool:
        return all((member ^ c).bit_count() > 2 * d for c in centers)

    def covered() -> bool:
        return len(memo) == 1 << n and not any(map(far, memo.values()))

    def optimum(positive: int) -> int | None:
        nonlocal calls
        if positive not in memo:
            best = oracle.opt_pm1(positive)
            calls += 1
            if best is None:
                return None
            memo[positive] = best
        return memo[positive]

    if covered():
        return None, 0
    if len(centers) == 1:
        farthest = optimum(~centers[0] & ((1 << n) - 1))
        if farthest is None or not far(farthest):
            return None, calls
    for _ in range(trials):
        positive = reference_top_bits(rng, n)
        fresh = positive not in memo
        best = optimum(positive)
        if best is None:
            return None, calls
        if far(best):
            return best, calls
        if fresh and covered():
            return None, calls
    return None, calls


def reference_maxsum(
    members: list[int], n: int, spec: ProblemSpec
) -> tuple[int | None, tuple[int, ...] | None]:
    """Max-sum by scanning every k-tuple (with repetition) of ``members`` in
    lexicographic order: the best pairwise distance sum and the first tuple
    reaching it, or (None, None) without members."""
    dist = [[distance(a, b, n, spec.modified) for b in members] for a in members]
    best: int | None = None
    found = (0,) * spec.k if members else None
    pairs = list(combinations(range(spec.k), 2))
    for combo in combinations_with_replacement(range(len(members)), spec.k):
        total = sum(dist[combo[i]][combo[j]] for i, j in pairs)
        if best is None or total > best:
            best, found = total, combo
    return best, found


def reference_min_cluster_radius(
    cluster: list[int],
    d: int,
    oracle: DomainOracle,
    ctx=None,
    lo: int = 0,
) -> tuple[int, int] | None:
    """``min_cluster_radius`` with every trace guess computed before the
    first query: the same queries in the same order, the same answer and
    the same errors."""
    n = oracle.universe_size
    masks = list(cluster)
    agreement_all = union_all = masks[0]
    for b in masks[1:]:
        agreement_all &= b
        union_all |= b
    bad = union_all & ~agreement_all
    if bad.bit_count() > d * len(masks):
        return None
    diam = max((a ^ b).bit_count() for a, b in combinations_with_replacement(masks, 2))
    start = max(lo, (diam + 1) // 2)
    if start > d:
        return None
    on_bad = [m & bad for m in masks]
    guesses = []
    for trace in submasks(bad):
        spread = [(b ^ trace).bit_count() for b in on_bad]
        need = max(spread)
        if need <= d:
            guesses.append((trace, masks[spread.index(need)], need))
    for radius in range(start, d + 1):
        for trace, farthest, need in guesses:
            if need > radius:
                continue
            query = ExtensionQuery(
                center=farthest, radius=radius, forced=trace, forbidden=bad & ~trace
            )
            out = oracle.exact_extend(query, ctx)
            if isinstance(out, TrivialSparsifier):
                check_trivial_sparsifier(out, ctx)
                raise GloballyInfeasible("trivial sparsifier rules out any clustering")
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


def reference_oriented_radius(
    cluster: list[int],
    d: int,
    oracle: DomainOracle,
    ctx=None,
    lo: int = 0,
) -> tuple[int, int] | None:
    """The modified-distance cluster cost over every orientation guess:
    the first member fixed, bit j of the guess complementing member j + 1,
    all 2^(c-1) guesses built before the first call, each asked while a
    strictly smaller radius is still possible."""
    n = oracle.universe_size
    full = (1 << n) - 1
    masks = sorted(cluster)
    variants = [
        [masks[0]] + [b ^ full if guess >> j & 1 else b for j, b in enumerate(masks[1:])]
        for guess in range(1 << len(masks) - 1)
    ]
    result = None
    for oriented in variants:
        cap = d if result is None else result[0] - 1
        if cap < lo:
            break
        got = reference_min_cluster_radius(oriented, cap, oracle, ctx, lo)
        if got is not None:
            result = got
    return result


def reference_mincut_extend(
    oracle: MinCutOracle, query: ExtensionQuery, ctx=None
):
    """``MinCutOracle.exact_extend`` as a counter scan over the sandwich:
    every subset of the removable nodes (outer counter) and of the addable
    nodes (inner counter), skipping the non-ideals, first admitted cut
    wins."""
    poset = oracle._poset
    ideal = poset.ideal_bits(query.center)
    if ideal is None:
        raise ValueError("extension center is not a minimum s,t-cut")
    p_eff = query.radius if ctx is None else max(ctx.p, query.radius)
    up = [
        w
        for w in range(poset.n_nodes)
        if not ideal >> w & 1
        and (poset.pred_masks[w] & ~ideal).bit_count() <= p_eff
    ]
    down = [
        w
        for w in range(poset.n_nodes)
        if ideal >> w & 1
        and (poset.succ_masks[w] & ideal).bit_count() <= p_eff
    ]

    def key(w: int) -> tuple[int, int]:
        return (poset.pred_masks[w].bit_count(), w)

    up.sort(key=key)
    down.sort(key=key)
    if ctx is not None:
        limit = ctx.k * (2 * ctx.d + 1)
        if len(up) > limit:
            return TrivialSparsifier(
                oracle._chain_family(ideal, up, ctx.k, ctx.d, upward=True)
            )
        if len(down) > limit:
            return TrivialSparsifier(
                oracle._chain_family(ideal, down, ctx.k, ctx.d, upward=False)
            )
    elif len(up) + len(down) > SANDWICH_GUARD:
        raise CapabilityError(
            "extension sandwich too wide without framework context"
        )
    for sub_down in range(1 << len(down)):
        removed = 0
        for j in range(len(down)):
            if sub_down >> j & 1:
                removed |= 1 << down[j]
        base_ideal = ideal & ~removed
        for sub_up in range(1 << len(up)):
            added = 0
            for j in range(len(up)):
                if sub_up >> j & 1:
                    added |= 1 << up[j]
            cand = base_ideal | added
            if not poset.is_ideal(cand):
                continue
            cut = poset.cut_bits(cand)
            if query.admits_bits(cut):
                return Found(cut)
    return NOT_FOUND


def reference_matching_search(
    oracle: MatchingOracle, forced: int, forbidden: int, marked: int, want: int | None
) -> int | None:
    """``MatchingOracle._search`` as a perfect-matching DP on an expanded
    graph: live - 2 * need pad vertices, each joined to every live vertex
    after its edges, absorb the unmatched vertices.  Pads are told apart by
    the mask, so each state is stored once per subset of used pads.  The DP
    refuses expansions of more than 22 vertices."""
    graph = oracle._graph
    used = oracle._endpoints(forced)
    need = oracle.member_size - forced.bit_count()
    if used is None or need < 0:
        return None
    if need == 0:
        return None if want else forced
    live = [v for v in range(graph.n_vertices) if not used >> v & 1]
    if 2 * need > len(live):
        return None
    pads = len(live) - 2 * need
    total = len(live) + pads
    if total > 22:
        raise CapabilityError(f"expanded matching graph has {total} vertices")
    pos = {v: i for i, v in enumerate(live)}
    # adjacency in tie-break order: (other slot, edge bit or 0 for a pad,
    # 1 if the edge is marked)
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(total)]
    for idx, (u, v) in enumerate(graph.edges):
        if (forced | forbidden) >> idx & 1 or u not in pos or v not in pos:
            continue
        adj[pos[u]].append((pos[v], 1 << idx, marked >> idx & 1))
        adj[pos[v]].append((pos[u], 1 << idx, marked >> idx & 1))
    for p in range(len(live), total):
        for slot in range(len(live)):
            adj[slot].append((p, 0, 0))
            adj[p].append((slot, 0, 0))

    full = (1 << total) - 1
    memo = {full: 1}

    def counts(mask: int) -> int:
        got = memo.get(mask)
        if got is None:
            u = (~mask & (mask + 1)).bit_length() - 1
            got = 0
            for v, _bit, m in adj[u]:
                if not mask >> v & 1:
                    got |= counts(mask | (1 << u) | (1 << v)) << m
            memo[mask] = got
        return got

    reachable = counts(0)
    if want is None:
        want = reachable.bit_length() - 1
    if want < 0 or not reachable >> want & 1:
        return None
    mask = 0
    chosen = forced
    while mask != full:
        u = (~mask & (mask + 1)).bit_length() - 1
        for v, bit, m in adj[u]:
            step = mask | (1 << u) | (1 << v)
            if not mask >> v & 1 and counts(step) << m >> want & 1:
                mask = step
                want -= m
                chosen |= bit
                break
        else:
            raise AssertionError("reference matching reconstruction failed")
    return chosen
