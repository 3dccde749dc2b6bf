"""Concrete domain adapters implementing the oracle contracts.

Importing the package loads none of them: ``_HOMES`` maps each public
name to the submodule that defines it, and the module ``__getattr__``
(PEP 562) imports that submodule on the first access to one of its names.
So ``from divsparse.domains import ExplicitOracle`` loads ``explicit``
alone, and a CLI run parses its instance through
``divsparse.instances``, which loads only the adapter of the kind the
instance names.
"""

#: public name -> the submodule that defines it
_HOMES = {
    "DagDpOracle": "dagdp",
    "ExplicitOracle": "explicit",
    "GraphData": "graphs",
    "GraphicMatroid": "matroid",
    "MatchingOracle": "matching",
    "Matroid": "matroid",
    "MatroidBaseOracle": "matroid",
    "MinCutOracle": "mincut",
    "MinCutPoset": "mincut",
    "PartitionMatroid": "matroid",
    "UniformMatroid": "matroid",
    "VertexCoverOracle": "vertex_cover",
    "build_mincut_poset": "mincut",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module: ``-X importtime`` reports
    # only imports made through the former
    module = __import__(_HOMES[name], globals(), fromlist=[name], level=1)
    value = getattr(module, name)
    globals()[name] = value  # later lookups skip this hook
    return value
