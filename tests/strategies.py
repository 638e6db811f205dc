"""Shared hypothesis strategies that generate valid semantic nets."""
from __future__ import annotations

import string

from hypothesis import strategies as st

from polarnet.core import ChannelTriple, NetMode, NeutroValue, SemanticNet

LABEL_FIRST = string.ascii_letters + "_"
LABEL_REST = string.ascii_letters + string.digits + "_"
# Free-text fields (net names, edge labels) deliberately include quote,
# backslash and whitespace characters to exercise escaping.
TEXT_ALPHABET = string.ascii_letters + string.digits + " _-#\"\\()>,.\n\t"

labels = st.builds(
    lambda first, rest: first + rest,
    st.sampled_from(LABEL_FIRST),
    st.text(alphabet=LABEL_REST, max_size=7),
)

texts = st.text(alphabet=TEXT_ALPHABET, max_size=12)

coefficients = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                         allow_nan=False)

scale_components = st.floats(min_value=0.25, max_value=8.0, allow_nan=False)

scales = st.tuples(scale_components, scale_components, scale_components)


def degrees(maximum: float, crisp: bool) -> st.SearchStrategy[float]:
    if crisp:
        return st.sampled_from([0.0, maximum])
    return st.one_of(
        st.just(0.0),
        st.just(maximum),
        st.floats(min_value=0.0, max_value=maximum, allow_nan=False),
    )


@st.composite
def channel_values(draw, maximum: float, crisp: bool,
                   indeterminate_ok: bool = True) -> NeutroValue:
    if indeterminate_ok and draw(st.integers(0, 3)) == 0:
        return NeutroValue.indeterminacy(draw(coefficients))
    return NeutroValue.determinate(draw(degrees(maximum, crisp)))


@st.composite
def triples(draw, scale: tuple[float, float, float], crisp: bool,
            indeterminate_ok: bool = True, nonzero: bool = False) -> ChannelTriple:
    triple = ChannelTriple(
        draw(channel_values(scale[0], crisp, indeterminate_ok)),
        draw(channel_values(scale[1], crisp, indeterminate_ok)),
        draw(channel_values(scale[2], crisp, indeterminate_ok)),
    )
    if nonzero and triple.is_zero:
        triple = ChannelTriple(NeutroValue.determinate(scale[0]),
                               triple.c2, triple.c3)
    return triple


def scaled_copy(net: SemanticNet, factor: float) -> SemanticNet:
    """Copy a net with every degree and all channel maxima times ``factor``.

    Indeterminacy coefficients are not degrees and stay unchanged.
    """

    def scale_triple(triple: ChannelTriple) -> ChannelTriple:
        return ChannelTriple(*(
            v if v.indeterminate else NeutroValue.determinate(v.magnitude * factor)
            for v in triple))

    scaled = SemanticNet(net.mode, net.name,
                         tuple(s * factor for s in net.scale),
                         directed=net.directed)
    for v in net.vertices:
        scaled.add_vertex(v.label, scale_triple(v.membership),
                          indeterminate=v.indeterminate)
    for e in net.edges:
        scaled.add_edge(e.src, e.dst, scale_triple(e.weight),
                        label=e.label, indeterminate=e.indeterminate)
    return scaled


def scales_exactly(net: SemanticNet, factor: float) -> bool:
    """True when ``scaled_copy(net, factor)`` is an exact scaling of ``net``.

    That holds when every determinate degree x has ``(x * factor) / factor
    == x``; a power-of-two factor breaks it only at the edges of the float
    range, where 5e-324 * 0.5 underflows to 0.
    """
    triples = [v.membership for v in net.vertices] + [e.weight for e in net.edges]
    return all(v.indeterminate or (v.magnitude * factor) / factor == v.magnitude
               for triple in triples for v in triple)


@st.composite
def nets(draw, modes: list[NetMode] | None = None, max_vertices: int = 6,
         allow_zero_weight_edges: bool = False, derived_flags: bool = False,
         indeterminate_ok: bool = True, allow_undirected: bool = True,
         min_vertices: int = 0) -> SemanticNet:
    """A valid net built through the checked constructors."""
    mode = draw(st.sampled_from(modes if modes is not None else list(NetMode)))
    crisp = mode is NetMode.PNSN
    scale = draw(scales)
    directed = draw(st.booleans()) if allow_undirected else True
    net = SemanticNet(mode, draw(texts), scale, directed=directed)
    for label in draw(st.lists(labels, unique=True, min_size=min_vertices,
                               max_size=max_vertices)):
        membership = draw(triples(scale, crisp, indeterminate_ok))
        flag = (membership.has_indeterminate if derived_flags
                else draw(st.booleans()))
        net.add_vertex(label, membership, indeterminate=flag)
    n = len(net.vertices)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    for src, dst in chosen:
        weight = draw(triples(scale, crisp, indeterminate_ok,
                              nonzero=not allow_zero_weight_edges))
        flag = weight.has_indeterminate if derived_flags else draw(st.booleans())
        net.add_edge(src, dst, weight, label=draw(texts), indeterminate=flag)
    return net
