"""Shared graph container for the domain adapters.

Edge index equals position in the edge list and vertex indices are the
input ids, which fixes the element <-> object correspondence for masks.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GraphData:
    """A directed or undirected multigraph; self-loops are rejected."""

    directed: bool
    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        for idx, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge {idx} endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"edge {idx} is a self-loop at {u}")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def arcs(self) -> list[tuple[int, int]]:
        """Directed arc list; undirected edges become two antiparallel arcs."""
        if self.directed:
            return list(self.edges)
        out: list[tuple[int, int]] = []
        for u, v in self.edges:
            out.append((u, v))
            out.append((v, u))
        return out
