"""Three-channel (fuzzy / polar neutrosophic) semantic nets.

Vertices and edges carry truth/indeterminacy/falsehood or positivity/
neutrality/negativity degree triples.  The package covers construction and
validation, membership-matrix and adjacency-tensor extraction, a small net
description DSL, JSON and DOT output, and polarity-driven neighbor
selection.

Names are re-exported lazily: ``import polarnet`` loads no submodule, and
the first use of a name imports only its home module.
"""
import importlib

# Each public name, by the submodule that defines it.
_HOMES = {
    "analysis": ("NormalizedTriple", "Polarity", "RankedNeighbor",
                 "SelectionResult", "combine", "net_polarity", "normalize",
                 "polar_select", "polarity_score"),
    "core": ("DEFAULT_SCALE", "ChannelTriple", "Edge", "GraphClass",
             "NetError", "NetMode", "NeutroValue", "Order", "SemanticNet",
             "Vertex", "Violation"),
    "dsl": ("ParseError", "format_net", "parse_net"),
    "io": ("SchemaError", "from_json", "to_dot", "to_json"),
    "matrix": ("AdjacencyTensor", "MembershipMatrix", "adjacency_tensor",
               "from_matrices", "membership_matrix"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [
    "DEFAULT_SCALE",
    "AdjacencyTensor",
    "ChannelTriple",
    "Edge",
    "GraphClass",
    "MembershipMatrix",
    "NetError",
    "NetMode",
    "NeutroValue",
    "NormalizedTriple",
    "Order",
    "ParseError",
    "Polarity",
    "RankedNeighbor",
    "SchemaError",
    "SelectionResult",
    "SemanticNet",
    "Vertex",
    "Violation",
    "adjacency_tensor",
    "combine",
    "format_net",
    "from_json",
    "from_matrices",
    "membership_matrix",
    "net_polarity",
    "normalize",
    "parse_net",
    "polar_select",
    "polarity_score",
    "to_dot",
    "to_json",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the home module of a public name on its first use (PEP 562)."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
