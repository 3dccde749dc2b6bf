"""Concrete domain adapters implementing the oracle contracts."""

from .dagdp import DagDpOracle
from .explicit import ExplicitOracle
from .graphs import GraphData
from .matching import MatchingOracle
from .matroid import (
    GraphicMatroid,
    Matroid,
    MatroidBaseOracle,
    PartitionMatroid,
    UniformMatroid,
)
from .mincut import MinCutOracle, MinCutPoset, build_mincut_poset
from .vertex_cover import VertexCoverOracle

__all__ = [
    "DagDpOracle",
    "ExplicitOracle",
    "GraphData",
    "GraphicMatroid",
    "MatchingOracle",
    "Matroid",
    "MatroidBaseOracle",
    "MinCutOracle",
    "MinCutPoset",
    "PartitionMatroid",
    "UniformMatroid",
    "VertexCoverOracle",
    "build_mincut_poset",
]
