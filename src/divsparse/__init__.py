"""Max-distance sparsifiers of implicit combinatorial solution domains.

The library computes small subfamilies of a solution domain that preserve
all achievable Hamming-distance profiles (max-distance sparsifiers) and
solves diversification (max-min, max-sum) and clustering (k-center,
k-sum-of-radii) problems exactly on top of them, for domains given only
through optimization and exact-extension oracles.  A brute-force engine
validates every component on small instances.
"""

from .core import (
    CapabilityError,
    DomainOracle,
    ExtensionOutcome,
    ExtensionQuery,
    Found,
    GuardError,
    MASK_WIDTH_LIMIT,
    NOT_FOUND,
    NotFound,
    OracleContext,
    SetFamily,
    SoundnessError,
    SparsifierReport,
    SubsetMask,
    TrivialSparsifier,
    distance,
    pm1_weight,
)
from .limited import (
    ClusterResult,
    FarSetMemo,
    LimitedSparsifyParams,
    approx_far_set,
    cluster_or_trivial,
    default_cluster_radius,
    default_trials,
    dk_sparsify,
)
from .rng import SplitMix64
from .solvers import (
    GloballyInfeasible,
    ProblemSpec,
    SolveAnswer,
    min_cluster_radius,
    solve,
)
from .sunflower import SmallSparsifyParams, k_sparsify

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "ClusterResult",
    "DomainOracle",
    "ExtensionOutcome",
    "ExtensionQuery",
    "FarSetMemo",
    "Found",
    "GloballyInfeasible",
    "GuardError",
    "LimitedSparsifyParams",
    "MASK_WIDTH_LIMIT",
    "NOT_FOUND",
    "NotFound",
    "OracleContext",
    "ProblemSpec",
    "SetFamily",
    "SmallSparsifyParams",
    "SolveAnswer",
    "SoundnessError",
    "SparsifierReport",
    "SplitMix64",
    "SubsetMask",
    "TrivialSparsifier",
    "approx_far_set",
    "cluster_or_trivial",
    "default_cluster_radius",
    "default_trials",
    "distance",
    "dk_sparsify",
    "k_sparsify",
    "min_cluster_radius",
    "pm1_weight",
    "solve",
]
