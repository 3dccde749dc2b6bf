"""Instance files: parsing and the record of oracle plus membership test.

The grammar is line oriented; ``#`` starts a comment line.  Element
indexing is fixed by file order: edge i is the i-th edge line, vertices
are the written ids.  See the README for the full grammar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .core import DomainOracle, SetFamily, _check_universe_size
from .domains import (
    DagDpOracle,
    ExplicitOracle,
    GraphData,
    GraphicMatroid,
    MatchingOracle,
    Matroid,
    MatroidBaseOracle,
    MinCutOracle,
    PartitionMatroid,
    UniformMatroid,
    VertexCoverOracle,
)


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class DomainInstance:
    """A parsed domain: its oracle plus what the CLI and the ground-truth
    engine need besides it.

    * ``kind``: the domain kind named in the header;
    * the oracle, returned by :meth:`oracle`; its ``universe_size`` is the
      instance's, and construction enforces the mask width limit on it;
    * ``membership(bits)``: whether a mask is a domain member;
    * ``size_bound``: the member-size bound ell the small (sunflower)
      pipeline runs with, or ``None`` where that pipeline does not apply;
    * ``prefers_small``: mode ``auto`` picks the small pipeline.
    """

    kind: str
    _oracle: DomainOracle = field(repr=False)
    membership: Callable[[int], bool]
    size_bound: int | None
    prefers_small: bool = False

    def __post_init__(self) -> None:
        _check_universe_size(self._oracle.universe_size)

    def oracle(self) -> DomainOracle:
        return self._oracle


def explicit_instance(family: SetFamily) -> DomainInstance:
    size_bound = max((len(m) for m in family), default=0)
    return DomainInstance(
        "explicit", ExplicitOracle(family), family.contains_bits, size_bound
    )


def vertex_cover_instance(graph: GraphData, ell: int) -> DomainInstance:
    # no +-1 optimization, so the limited pipeline cannot run on it
    oracle = VertexCoverOracle(graph, ell)
    return DomainInstance(
        "vertex_cover", oracle, oracle.is_member_bits, ell, prefers_small=True
    )


def _matroid_instance(kind: str, matroid: Matroid) -> DomainInstance:
    return DomainInstance(
        kind, MatroidBaseOracle(matroid), matroid.is_base_bits, matroid.rank
    )


def spanning_tree_instance(graph: GraphData) -> DomainInstance:
    return _matroid_instance("spanning_tree", GraphicMatroid(graph))


def uniform_matroid_instance(universe: int, rank: int) -> DomainInstance:
    return _matroid_instance("uniform_matroid", UniformMatroid(universe, rank))


def partition_matroid_instance(
    universe: int, blocks: list[tuple[int, tuple[int, ...]]]
) -> DomainInstance:
    return _matroid_instance("partition_matroid", PartitionMatroid(universe, blocks))


def matching_instance(graph: GraphData, size_ell: int) -> DomainInstance:
    oracle = MatchingOracle(graph, size_ell)
    return DomainInstance("matching", oracle, oracle.is_member_bits, size_ell)


def st_mincut_instance(graph: GraphData, s: int, t: int) -> DomainInstance:
    # extension queries need a domain member center, so no small pipeline
    oracle = MinCutOracle(graph, s, t)
    return DomainInstance("st_mincut", oracle, oracle.is_member_bits, None)


def dag_dp_instance(universe: int, graph: GraphData, labels: tuple[int, ...]) -> DomainInstance:
    oracle = DagDpOracle(graph, labels, universe)
    return DomainInstance("dag_dp", oracle, oracle.is_member_bits, oracle.path_length)


def _tokenize(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((line_no, stripped.split()))
    return out


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected an integer {what}, got {token!r}") from None


def _parse_kv(token: str, key: str, line_no: int) -> int:
    prefix = key + "="
    if not token.startswith(prefix):
        raise ParseError(line_no, f"expected {key}=<int>, got {token!r}")
    return _parse_int(token[len(prefix):], line_no, f"after {key}=")


class _Cursor:
    def __init__(self, lines: list[tuple[int, list[str]]]) -> None:
        self._lines = lines
        self._idx = 0

    def peek(self) -> tuple[int, list[str]] | None:
        return self._lines[self._idx] if self._idx < len(self._lines) else None

    def take(self, expected: str) -> tuple[int, list[str]]:
        got = self.peek()
        if got is None:
            last = self._lines[-1][0] if self._lines else 0
            raise ParseError(last + 1, f"expected {expected}, found end of input")
        self._idx += 1
        return got

    def done(self) -> None:
        got = self.peek()
        if got is not None:
            raise ParseError(got[0], f"unexpected extra line {' '.join(got[1])!r}")


def _parse_graph_block(cur: _Cursor) -> GraphData:
    line_no, tokens = cur.take("a graph block header")
    if tokens[0] != "graph" or len(tokens) != 4:
        raise ParseError(line_no, "expected 'graph <directed|undirected> <nV> <m>'")
    if tokens[1] not in ("directed", "undirected"):
        raise ParseError(line_no, f"unknown orientation {tokens[1]!r}")
    directed = tokens[1] == "directed"
    nv = _parse_int(tokens[2], line_no, "vertex count")
    m = _parse_int(tokens[3], line_no, "edge count")
    edges = []
    for _ in range(m):
        e_no, e_tokens = cur.take("an edge line '<u> <v>'")
        if len(e_tokens) != 2:
            raise ParseError(e_no, "expected an edge line '<u> <v>'")
        u = _parse_int(e_tokens[0], e_no, "endpoint")
        v = _parse_int(e_tokens[1], e_no, "endpoint")
        if not (0 <= u < nv and 0 <= v < nv):
            raise ParseError(e_no, f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise ParseError(e_no, f"self-loops are not allowed (vertex {u})")
        edges.append((u, v))
    try:
        return GraphData(directed=directed, n_vertices=nv, edges=tuple(edges))
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None


def _parse_universe(cur: _Cursor) -> int:
    line_no, tokens = cur.take("'universe <n>'")
    if tokens[0] != "universe" or len(tokens) != 2:
        raise ParseError(line_no, "expected 'universe <n>'")
    n = _parse_int(tokens[1], line_no, "universe size")
    if n < 1:
        raise ParseError(line_no, "universe size must be positive")
    return n


def _parse_set_lines(cur: _Cursor, universe: int) -> SetFamily:
    members: list[int] = []
    seen: set[int] = set()
    while True:
        got = cur.peek()
        if got is None or got[1][0] not in ("set", "set:"):
            break
        line_no, tokens = cur.take("a set line")
        bits = 0
        for token in tokens[1:]:
            i = _parse_int(token, line_no, "element index")
            if not 0 <= i < universe:
                raise ParseError(line_no, f"element index {i} out of range")
            bits |= 1 << i
        if bits in seen:
            raise ParseError(line_no, "duplicate set in the family")
        seen.add(bits)
        members.append(bits)
    return SetFamily.from_bits(universe, members)


def parse_instance(text: str) -> DomainInstance:
    """Parse an instance file; errors carry the offending line number."""
    lines = _tokenize(text)
    cur = _Cursor(lines)
    line_no, tokens = cur.take("a 'domain <kind>' header")
    if tokens[0] != "domain" or len(tokens) < 2:
        raise ParseError(line_no, "expected 'domain <kind> [options]'")
    kind = tokens[1]
    options = tokens[2:]

    def no_options() -> None:
        if options:
            raise ParseError(line_no, f"domain {kind} takes no options")

    try:
        if kind == "explicit":
            no_options()
            universe = _parse_universe(cur)
            family = _parse_set_lines(cur, universe)
            cur.done()
            return explicit_instance(family)
        if kind == "vertex_cover":
            if len(options) != 1:
                raise ParseError(line_no, "expected 'domain vertex_cover ell=<L>'")
            ell = _parse_kv(options[0], "ell", line_no)
            graph = _parse_graph_block(cur)
            if graph.directed:
                raise ParseError(line_no, "vertex_cover needs an undirected graph")
            cur.done()
            return vertex_cover_instance(graph, ell)
        if kind == "spanning_tree":
            no_options()
            graph = _parse_graph_block(cur)
            if graph.directed:
                raise ParseError(line_no, "spanning_tree needs an undirected graph")
            cur.done()
            return spanning_tree_instance(graph)
        if kind == "uniform_matroid":
            if len(options) != 1:
                raise ParseError(line_no, "expected 'domain uniform_matroid rank=<r>'")
            rank = _parse_kv(options[0], "rank", line_no)
            universe = _parse_universe(cur)
            cur.done()
            if rank > universe:
                raise ParseError(line_no, "rank exceeds the universe size")
            return uniform_matroid_instance(universe, rank)
        if kind == "partition_matroid":
            no_options()
            universe = _parse_universe(cur)
            blocks: list[tuple[int, tuple[int, ...]]] = []
            while cur.peek() is not None and cur.peek()[1][0] == "block":
                b_no, b_tokens = cur.take("a block line")
                if len(b_tokens) < 2:
                    raise ParseError(b_no, "expected 'block <cap> <i> ...'")
                cap = _parse_int(b_tokens[1], b_no, "capacity")
                elems = tuple(
                    _parse_int(tok, b_no, "element index") for tok in b_tokens[2:]
                )
                for e in elems:
                    if not 0 <= e < universe:
                        raise ParseError(b_no, f"element index {e} out of range")
                blocks.append((cap, elems))
            cur.done()
            return partition_matroid_instance(universe, blocks)
        if kind == "matching":
            if len(options) != 1:
                raise ParseError(line_no, "expected 'domain matching size=<L>'")
            size_ell = _parse_kv(options[0], "size", line_no)
            graph = _parse_graph_block(cur)
            if graph.directed:
                raise ParseError(line_no, "matching needs an undirected graph")
            cur.done()
            return matching_instance(graph, size_ell)
        if kind == "st_mincut":
            if len(options) != 2:
                raise ParseError(line_no, "expected 'domain st_mincut s=<v> t=<v>'")
            s = _parse_kv(options[0], "s", line_no)
            t = _parse_kv(options[1], "t", line_no)
            graph = _parse_graph_block(cur)
            cur.done()
            if not (0 <= s < graph.n_vertices and 0 <= t < graph.n_vertices):
                raise ParseError(line_no, "source or sink out of range")
            if s == t:
                raise ParseError(line_no, "source and sink must differ")
            return st_mincut_instance(graph, s, t)
        if kind == "dag_dp":
            if len(options) != 1:
                raise ParseError(line_no, "expected 'domain dag_dp universe=<n>'")
            universe = _parse_kv(options[0], "universe", line_no)
            if universe < 1:
                raise ParseError(line_no, "universe size must be positive")
            graph = _parse_graph_block(cur)
            if not graph.directed:
                raise ParseError(line_no, "dag_dp needs a directed graph")
            l_no, l_tokens = cur.take("a labels line")
            if l_tokens[0] != "labels" or len(l_tokens) != graph.n_vertices + 1:
                raise ParseError(
                    l_no, f"expected 'labels' with {graph.n_vertices} entries"
                )
            labels = tuple(
                _parse_int(tok, l_no, "label") for tok in l_tokens[1:]
            )
            for q in labels:
                if not 0 <= q < universe:
                    raise ParseError(l_no, f"label {q} out of range")
            cur.done()
            return dag_dp_instance(universe, graph, labels)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None
    raise ParseError(line_no, f"unknown domain kind {kind!r}")
