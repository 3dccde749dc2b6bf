"""Seeded job mixes for the benchmark.

A job is one CLI invocation: an instance text plus the argument vector
that goes with it.  Everything here is stdlib-only and imports nothing
from ``divsparse``, so the benchmark can generate and write instances
before it times the package import.  The same (workload, seed) pair
gives byte-identical instance texts and arguments.

Each job comes from a template and a round.  The round fixes every size
parameter and flag, and the instance's structure (the graph or family up
to relabeling) is drawn from a stream keyed by template and round alone.
The seed then draws the labeling: a random permutation of the vertices,
elements and edge order.  The adapters break ties and order their
searches by index, so a relabeled instance takes other paths through the
code, while every seed keeps the same structures and therefore about the
same total cost.  (With the structures drawn per seed too, the cost of a
run varied by a third from seed to seed.)

Jobs run round-robin over the templates, so a run that stops part-way
through the list still sees the whole mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable


@dataclass(frozen=True)
class Job:
    """One CLI call: ``divsparse <args> --instance <file holding text>``."""

    id: str
    template: str
    text: str
    args: tuple[str, ...]


#: A draw makes one instance structure from the shape stream and returns
#: its member count and a function that writes it under a labeling drawn
#: from the label stream.
Draw = Callable[[random.Random], tuple[int, Callable[[random.Random], str]]]


# --------------------------------------------------------------------------
# graph helpers


def _graph_block(directed: bool, nv: int, edges: list[tuple[int, int]]) -> str:
    kind = "directed" if directed else "undirected"
    lines = [f"graph {kind} {nv} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines)


def _random_edges(rng: random.Random, nv: int, m: int) -> list[tuple[int, int]]:
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    rng.shuffle(pairs)
    return sorted(pairs[: min(m, len(pairs))])


def _relabel(
    rng: random.Random, nv: int, edges: list[tuple[int, int]], directed: bool = False
) -> tuple[list[int], list[tuple[int, int]]]:
    """Permute the vertices and shuffle the edge order."""
    perm = list(range(nv))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    if not directed:
        out = [(min(e), max(e)) for e in out]
    rng.shuffle(out)
    return perm, out


def _min_vertex_cover(nv: int, edges: list[tuple[int, int]]) -> int:
    for size in range(nv + 1):
        for combo in combinations(range(nv), size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    return nv


def _covers(nv: int, edges: list[tuple[int, int]], ell: int) -> int:
    return sum(
        1
        for bits in range(1 << nv)
        if bits.bit_count() <= ell and all(bits >> u & 1 or bits >> v & 1 for u, v in edges)
    )


def _max_matching(edges: list[tuple[int, int]]) -> int:
    for size in range(len(edges), 0, -1):
        for combo in combinations(edges, size):
            ends = [x for e in combo for x in e]
            if len(ends) == len(set(ends)):
                return size
    return 0


def _is_connected(nv: int, edges: list[tuple[int, int]]) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == nv


# --------------------------------------------------------------------------
# instance draws


def typical(shape: random.Random, labels: random.Random, draw: Draw, tries: int = 5) -> str:
    """The draw with the median member count out of ``tries``, relabeled.

    Run time grows steeply with the member count; the median keeps the
    fixed structure of each (template, round) away from extreme sizes."""
    draws = sorted((draw(shape) for _ in range(tries)), key=lambda d: d[0])
    return draws[tries // 2][1](labels)


def vertex_cover(nv: int, slack: int) -> Draw:
    """Random graph on ``nv`` vertices and ``nv..nv+5`` edges; ell = its
    minimum cover plus ``slack``."""

    def draw(rng: random.Random):
        edges = _random_edges(rng, nv, rng.randint(nv, nv + 5))
        ell = min(nv, _min_vertex_cover(nv, edges) + slack)

        def text(labels: random.Random) -> str:
            _, relabeled = _relabel(labels, nv, edges)
            return f"domain vertex_cover ell={ell}\n{_graph_block(False, nv, relabeled)}\n"

        return _covers(nv, edges, ell), text

    return draw


def banded_vertex_cover(nv: int, lo: int, hi: int) -> Draw:
    """Vertex covers with a minimum cover of at most 3 vertices, ell = that
    minimum + 1, and between ``lo`` and ``hi`` members.  The clustering
    search grows steeply with both (at 20 members and ell = 5, single jobs
    take from 6 s to over 20 s), so the band keeps every job far inside its
    budget."""

    def draw(rng: random.Random):
        while True:
            edges = _random_edges(rng, nv, rng.randint(4, 8))
            cover = _min_vertex_cover(nv, edges)
            ell = cover + 1
            members = _covers(nv, edges, ell)
            if cover <= 3 and lo <= members <= hi:
                break

        def text(labels: random.Random) -> str:
            _, relabeled = _relabel(labels, nv, edges)
            return f"domain vertex_cover ell={ell}\n{_graph_block(False, nv, relabeled)}\n"

        return members, text

    return draw


def matching(nv: int, max_edges: int) -> Draw:
    """Random graph and a matching size from 2 up to its maximum."""

    def draw(rng: random.Random):
        while True:
            edges = _random_edges(rng, nv, rng.randint(nv, max_edges))
            top = _max_matching(edges)
            if top >= 2:
                break
        size = rng.randint(2, top)
        members = sum(
            1 for combo in combinations(edges, size)
            if len({x for e in combo for x in e}) == 2 * size
        )

        def text(labels: random.Random) -> str:
            _, relabeled = _relabel(labels, nv, edges)
            return f"domain matching size={size}\n{_graph_block(False, nv, relabeled)}\n"

        return members, text

    return draw


def spanning_tree(nv: int, extra: int) -> Draw:
    """Random connected graph with ``nv - 1 + 1..extra`` edges."""

    def draw(rng: random.Random):
        while True:
            edges = _random_edges(rng, nv, nv - 1 + rng.randint(1, extra))
            if _is_connected(nv, edges):
                break
        trees = sum(
            1 for combo in combinations(edges, nv - 1) if _is_connected(nv, list(combo))
        )

        def text(labels: random.Random) -> str:
            _, relabeled = _relabel(labels, nv, edges)
            return f"domain spanning_tree\n{_graph_block(False, nv, relabeled)}\n"

        return trees, text

    return draw


def st_mincut(paths: int) -> Draw:
    """``paths`` internally disjoint s-t paths (2 or 3) with 2..3 or 1..2
    inner vertices each, so at most 8 vertices in all; the min-cut
    extension grows exponentially with the vertex count.

    Every minimum cut takes one edge from each path, so the domain is a
    product of chains: the poset structure the min-cut adapter enumerates.
    """

    def draw(rng: random.Random):
        lengths = [rng.randint(4 - paths, 5 - paths) for _ in range(paths)]
        nv = 2 + sum(lengths)
        edges: list[tuple[int, int]] = []
        nxt = 1
        members = 1
        for length in lengths:
            prev = 0
            for _ in range(length):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
            edges.append((prev, nv - 1))
            members *= length + 1

        def text(labels: random.Random) -> str:
            perm, relabeled = _relabel(labels, nv, edges)
            return (
                f"domain st_mincut s={perm[0]} t={perm[nv - 1]}\n"
                f"{_graph_block(False, nv, relabeled)}\n"
            )

        return members, text

    return draw


def interval_dag(n: int) -> Draw:
    """Interval scheduling: one vertex and label per interval, an arc when
    one interval ends before the other starts; members are the label sets
    of maximum compatible selections."""

    def draw(rng: random.Random):
        spans = sorted(
            (start, start + rng.randint(1, 4))
            for start in [rng.randint(0, 11) for _ in range(n)]
        )
        edges = [
            (u, v) for u in range(n) for v in range(n) if u != v and spans[u][1] <= spans[v][0]
        ]
        arcs = set(edges)
        members = 0
        for size in range(n, 0, -1):
            members = sum(
                1 for combo in combinations(range(n), size)
                if all((a, b) in arcs for a, b in zip(combo, combo[1:]))
            )
            if members:
                break

        def text(labels: random.Random) -> str:
            _, relabeled = _relabel(labels, n, edges, directed=True)
            return (
                f"domain dag_dp universe={n}\n{_graph_block(True, n, relabeled)}\n"
                f"labels {' '.join(str(i) for i in range(n))}\n"
            )

        return members, text

    return draw


def complement_closed(n: int, pairs: int) -> Draw:
    """Explicit family closed under complement: ``pairs`` sets plus theirs."""

    def draw(rng: random.Random):
        full = (1 << n) - 1
        chosen: set[int] = set()
        while len(chosen) < 2 * pairs:
            b = rng.getrandbits(n)
            chosen.update((b, b ^ full))

        def text(labels: random.Random) -> str:
            perm = list(range(n))
            labels.shuffle(perm)
            sets = [sorted(perm[i] for i in range(n) if b >> i & 1) for b in sorted(chosen)]
            labels.shuffle(sets)
            lines = [f"domain explicit\nuniverse {n}"]
            lines += ["set " + " ".join(str(i) for i in s) for s in sets]
            return "\n".join(lines) + "\n"

        return len(chosen), text

    return draw


def uniform_matroid_text(shape: tuple[int, int]) -> str:
    n, rank = shape
    return f"domain uniform_matroid rank={rank}\nuniverse {n}\n"


# --------------------------------------------------------------------------
# command lines and mixes


def _sparsify(k: int, d: int, mode: str) -> tuple[str, ...]:
    return ("sparsify", "--k", str(k), "--d", str(d), "--mode", mode)


def _solve(problem: str, k: int, d: int, mode: str, modified: bool = False) -> tuple[str, ...]:
    args = ("solve", "--problem", problem, "--k", str(k), "--d", str(d), "--mode", mode)
    return args + ("--modified",) if modified else args


#: (universe, rank) and (vertices, cover slack) shapes of the small
#: workload.  The larger rank-3 matroids and the 9-vertex covers with
#: slack 2 run for half a second or more each and would dominate the mix.
SMALL_UNIFORM = [(8, 2), (9, 2), (10, 2), (11, 2), (8, 3)]
SMALL_COVER = [(7, 1), (8, 1), (9, 1), (7, 2), (8, 2)]
LIMITED_UNIFORM = [(n, r) for n in (6, 7, 8) for r in (2, 3)]

#: A template maps (shape stream, label stream, round) to (instance text,
#: CLI arguments).
Template = Callable[[random.Random, random.Random, int], tuple[str, tuple[str, ...]]]
Instance = Callable[[random.Random, random.Random, int], str]


def _pick(values, rnd: int, period: int = 1):
    """``values[rnd // period]``, cycling."""
    return values[rnd // period % len(values)]


def _diversification(instances: dict[str, Instance], mode: str, ks, maxmin_ds, maxsum_ds):
    out: dict[str, Template] = {}
    for name, make in instances.items():
        out[f"sparsify-{name}"] = lambda s, l, i, make=make: (
            make(s, l, i), _sparsify(_pick(ks, i, 6), _pick((1, 2), i, 2), mode))
        out[f"maxmin-{name}"] = lambda s, l, i, make=make: (
            make(s, l, i), _solve("maxmin", _pick(ks, i, 6), _pick(maxmin_ds, i, 2), mode))
        out[f"maxsum-{name}"] = lambda s, l, i, make=make: (
            make(s, l, i), _solve("maxsum", _pick(ks, i, 6), _pick(maxsum_ds, i, 2), mode))
    return out


def _small_templates() -> dict[str, Template]:
    return _diversification({
        "vc": lambda s, l, i: typical(s, l, vertex_cover(*_pick(SMALL_COVER, i))),
        "u": lambda s, l, i: uniform_matroid_text(_pick(SMALL_UNIFORM, i)),
        "match": lambda s, l, i: typical(s, l, matching(_pick((5, 6, 7), i), 9)),
    }, "small", (2, 3), (2, 4, 6), (5, 9, 13))


def _limited_templates() -> dict[str, Template]:
    return _diversification({
        "tree": lambda s, l, i: typical(s, l, spanning_tree(_pick((4, 5), i), 3)),
        "match": lambda s, l, i: typical(s, l, matching(_pick((5, 6), i), 8)),
        "u": lambda s, l, i: uniform_matroid_text(_pick(LIMITED_UNIFORM, i)),
        "cut": lambda s, l, i: typical(s, l, st_mincut(_pick((2, 3), i))),
        "dag": lambda s, l, i: typical(s, l, interval_dag(_pick((7, 8, 9, 10), i))),
    }, "limited", (2,), (2, 3, 4, 5, 6), (2, 3, 4, 5, 6))


def _search_heavy(shape: random.Random, labels: random.Random, rnd: int):
    """A k-center job on a larger vertex-cover domain, where the
    clustering search, not the sparsifier, takes most of the time.

    These jobs keep one labeling for every seed: the search visits the
    sparsifier in index order, and relabeling one of these instances
    changes its run time tenfold (0.09 s to 1.5 s), which would make the
    workload's cost depend on the seed more than any bound allows.
    """
    fixed = random.Random(f"divsparse-bench/cluster/search-heavy/{rnd}")
    return typical(shape, fixed, banded_vertex_cover(7, 17, 20), tries=1), _solve(
        "kcenter", 2, 3, "small")


def _cluster_templates() -> dict[str, Template]:
    out: dict[str, Template] = {}
    for problem in ("kcenter", "ksumradii"):
        out[f"{problem}-vc"] = lambda s, l, i, p=problem: (
            typical(s, l, banded_vertex_cover(7, 12, 16), tries=1), _solve(p, 2, 3, "small"))
        out[f"{problem}-match"] = lambda s, l, i, p=problem: (
            typical(s, l, matching(_pick((5, 6), i), 7)),
            _solve(p, 2, _pick((2, 3), i, 2), "limited"))
        out[f"{problem}-tree"] = lambda s, l, i, p=problem: (
            typical(s, l, spanning_tree(4, 2)), _solve(p, 2, _pick((2, 3), i, 2), "limited"))
        out[f"{problem}-closed"] = lambda s, l, i, p=problem: (
            typical(s, l, complement_closed(6, _pick((3, 4, 5), i)), tries=1),
            _solve(p, 2, _pick((1, 2), i, 3), "small", modified=True))
    out["kcenter-vc-heavy"] = _search_heavy
    return out


WORKLOADS: dict[str, tuple[Callable[[], dict[str, Template]], int]] = {
    # name: (templates, rounds); one round makes one job per template
    "small": (_small_templates, 12),
    "limited": (_limited_templates, 12),
    "cluster": (_cluster_templates, 12),
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for ``seed``, in execution order."""
    templates, rounds = WORKLOADS[workload]
    table = templates()
    jobs: list[Job] = []
    for rnd in range(rounds):
        for name, template in table.items():
            shape = random.Random(f"divsparse-bench/{workload}/{name}/{rnd}")
            labels = random.Random(f"divsparse-bench/{workload}/{name}/{rnd}/seed{seed}")
            text, args = template(shape, labels, rnd)
            jobs.append(Job(f"{name}#{rnd}", name, text, args))
    return jobs
