"""Instance files: parsing and the record of oracle plus membership test.

The grammar is line oriented; ``#`` starts a comment line.  Element
indexing is fixed by file order: edge i is the i-th edge line, vertices
are the written ids.  See the README for the full grammar.

One table, ``_KINDS``, maps each domain kind to its header options (each
``name=<int>``, in a fixed order) and its body reader.  A body reader
reaches its adapter as ``domains.<Name>`` when it builds the instance, so
parsing imports the adapter module of the kind the file names and no
other (the graph kinds also import ``domains.graphs``);
``divsparse.domains`` maps each name to its module.  A check lives where
the line it blames is known:

* the parser checks what names a body line: token shapes and integers,
  edge lines (endpoint range, self-loops), set lines (element range,
  duplicates), block lines (element range) and the labels line (one
  label per vertex);
* the domain constructors check everything else, such as a graph's
  orientation, the rank against the universe, the source and sink, the
  universe size and the label range.  :func:`parse_instance` turns their
  ``ValueError`` into a :class:`ParseError` on the header line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from . import domains
from .core import DomainOracle, SetFamily, _check_universe_size

if TYPE_CHECKING:
    from .domains.graphs import GraphData
    from .domains.matroid import Matroid


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
    size_bound = max((b.bit_count() for b in family.bits), default=0)
    return DomainInstance(
        "explicit", domains.ExplicitOracle(family), family.contains_bits, size_bound
    )


def vertex_cover_instance(graph: GraphData, ell: int) -> DomainInstance:
    # no +-1 optimization, so the limited pipeline cannot run on it
    oracle = domains.VertexCoverOracle(graph, ell)
    return DomainInstance(
        "vertex_cover", oracle, oracle.is_member_bits, ell, prefers_small=True
    )


def _matroid_instance(kind: str, matroid: Matroid) -> DomainInstance:
    return DomainInstance(
        kind, domains.MatroidBaseOracle(matroid), matroid.is_base_bits, matroid.rank
    )


def spanning_tree_instance(graph: GraphData) -> DomainInstance:
    return _matroid_instance("spanning_tree", domains.GraphicMatroid(graph))


def uniform_matroid_instance(universe: int, rank: int) -> DomainInstance:
    return _matroid_instance("uniform_matroid", domains.UniformMatroid(universe, rank))


def partition_matroid_instance(
    universe: int, blocks: list[tuple[int, tuple[int, ...]]]
) -> DomainInstance:
    return _matroid_instance(
        "partition_matroid", domains.PartitionMatroid(universe, blocks)
    )


def matching_instance(graph: GraphData, size_ell: int) -> DomainInstance:
    oracle = domains.MatchingOracle(graph, size_ell)
    return DomainInstance("matching", oracle, oracle.is_member_bits, oracle.member_size)


def st_mincut_instance(graph: GraphData, s: int, t: int) -> DomainInstance:
    # extension queries need a domain member center, so no small pipeline
    oracle = domains.MinCutOracle(graph, s, t)
    return DomainInstance("st_mincut", oracle, oracle.is_member_bits, None)


def dag_dp_instance(universe: int, graph: GraphData, labels: tuple[int, ...]) -> DomainInstance:
    oracle = domains.DagDpOracle(graph, labels, universe)
    return DomainInstance("dag_dp", oracle, oracle.is_member_bits, oracle.member_size)


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected an integer {what}, got {token!r}") from None


class _Cursor:
    """The instance's nonblank, noncomment lines as ``(line_no, tokens)``."""

    def __init__(self, text: str) -> None:
        lines = enumerate((raw.split() for raw in text.splitlines()), start=1)
        # blank lines and comment lines are skipped
        self._lines = [(no, toks) for no, toks in lines if toks and toks[0][0] != "#"]
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
        return domains.GraphData(directed=directed, n_vertices=nv, edges=tuple(edges))
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None


def _parse_universe(cur: _Cursor) -> int:
    line_no, tokens = cur.take("'universe <n>'")
    if tokens[0] != "universe" or len(tokens) != 2:
        raise ParseError(line_no, "expected 'universe <n>'")
    return _parse_int(tokens[1], line_no, "universe size")


def _parse_family(cur: _Cursor) -> SetFamily:
    universe = _parse_universe(cur)
    members: list[int] = []
    seen: set[int] = set()
    while (got := cur.peek()) is not None and got[1][0] in ("set", "set:"):
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


def _read_partition_matroid(cur: _Cursor) -> DomainInstance:
    universe = _parse_universe(cur)
    blocks: list[tuple[int, tuple[int, ...]]] = []
    while (got := cur.peek()) is not None and got[1][0] == "block":
        b_no, b_tokens = cur.take("a block line")
        if len(b_tokens) < 2:
            raise ParseError(b_no, "expected 'block <cap> <i> ...'")
        cap = _parse_int(b_tokens[1], b_no, "capacity")
        elems = tuple(_parse_int(tok, b_no, "element index") for tok in b_tokens[2:])
        for e in elems:
            if not 0 <= e < universe:
                raise ParseError(b_no, f"element index {e} out of range")
        blocks.append((cap, elems))
    return partition_matroid_instance(universe, blocks)


def _read_dag_dp(cur: _Cursor, universe: int) -> DomainInstance:
    graph = _parse_graph_block(cur)
    l_no, l_tokens = cur.take("a labels line")
    if l_tokens[0] != "labels" or len(l_tokens) != graph.n_vertices + 1:
        raise ParseError(l_no, f"expected 'labels' with {graph.n_vertices} entries")
    labels = tuple(_parse_int(tok, l_no, "label") for tok in l_tokens[1:])
    return dag_dp_instance(universe, graph, labels)


def _then(read: Callable, build: Callable[..., DomainInstance]) -> Callable:
    """The body reader that ``read``s one section, then ``build``s the
    instance from it and the option values."""
    return lambda cur, *options: build(read(cur), *options)


#: kind -> (its header options, in order, each ``name=<int>``; its body
#: reader, called with the cursor and the option values)
_KINDS: dict[str, tuple[tuple[str, ...], Callable[..., DomainInstance]]] = {
    "explicit": ((), _then(_parse_family, explicit_instance)),
    "vertex_cover": (("ell",), _then(_parse_graph_block, vertex_cover_instance)),
    "spanning_tree": ((), _then(_parse_graph_block, spanning_tree_instance)),
    "uniform_matroid": (("rank",), _then(_parse_universe, uniform_matroid_instance)),
    "partition_matroid": ((), _read_partition_matroid),
    "matching": (("size",), _then(_parse_graph_block, matching_instance)),
    "st_mincut": (("s", "t"), _then(_parse_graph_block, st_mincut_instance)),
    "dag_dp": (("universe",), _read_dag_dp),
}


def _read_options(
    line_no: int, kind: str, tokens: list[str], names: tuple[str, ...]
) -> list[int]:
    prefixes = [name + "=" for name in names]
    if len(tokens) != len(names) or not all(map(str.startswith, tokens, prefixes)):
        usage = "".join(f" {prefix}<int>" for prefix in prefixes)
        raise ParseError(line_no, f"expected 'domain {kind}{usage}'")
    return [
        _parse_int(tok[len(prefix):], line_no, f"after {prefix}")
        for tok, prefix in zip(tokens, prefixes)
    ]


def parse_instance(text: str) -> DomainInstance:
    """Parse an instance file; errors carry the offending line number.

    A constructor's :class:`ValueError` names the header line.
    """
    cur = _Cursor(text)
    line_no, tokens = cur.take("a 'domain <kind>' header")
    if tokens[0] != "domain" or len(tokens) < 2:
        raise ParseError(line_no, "expected 'domain <kind> [options]'")
    if tokens[1] not in _KINDS:
        raise ParseError(line_no, f"unknown domain kind {tokens[1]!r}")
    names, read_body = _KINDS[tokens[1]]
    options = _read_options(line_no, tokens[1], tokens[2:], names)
    try:
        instance = read_body(cur, *options)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None
    cur.done()
    return instance
