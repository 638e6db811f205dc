"""Shared hypothesis strategies: valid semantic nets, and ``.pnet`` and JSON
texts near them for differential and totality properties; and the three
example nets that the fixture files mirror."""
from __future__ import annotations

import json
import re
import string
from pathlib import Path

from hypothesis import strategies as st

from polarnet.core import ChannelTriple, NetMode, NeutroValue, SemanticNet
from polarnet.dsl import format_net
from polarnet.io import to_json

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
                         tuple(s * factor for s in net.scale))
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
         indeterminate_ok: bool = True, min_vertices: int = 0) -> SemanticNet:
    """A valid net built through the checked constructors."""
    mode = draw(st.sampled_from(modes if modes is not None else list(NetMode)))
    crisp = mode is NetMode.PNSN
    scale = draw(scales)
    net = SemanticNet(mode, draw(texts), scale)
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


FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_TEXTS = [path.read_text(encoding="utf-8")
                 for path in sorted(FIXTURES_DIR.glob("*.pnet"))]


# The three example nets built through the library, mirrored by the
# fixtures/*.pnet files: S1 is fuzzy neutrosophic (weather at night), S2 is
# polar neutrosophic with crisp degrees (parts of an atom), S3 is polar fuzzy
# neutrosophic (Bob's health).

def s1() -> SemanticNet:
    """FNSN: night is fairly cold, somewhat hazy, not raining."""
    net = SemanticNet(NetMode.FNSN, "S1")
    night = net.add_vertex("night", (3.0, 0, 0))
    cold = net.add_vertex("cold", (3.0, 0, 0))
    hazy = net.add_vertex("hazy", (3.0, 0, 0))
    raining = net.add_vertex("raining", (0, 0, 1.0))
    net.add_edge(night, cold, (2.4, 0, 0), label="rather")
    net.add_edge(night, hazy, (0, 1.4, 0), label="somewhat")
    net.add_edge(night, raining, (0, 0, 1.0), label="not")
    return net


def s2() -> SemanticNet:
    """PNSN: an atom has protons, neutrons, electrons with crisp charges."""
    net = SemanticNet(NetMode.PNSN, "S2")
    protons = net.add_vertex("protons", (3.0, 0, 0))
    positive = net.add_vertex("positive", (3.0, 0, 0))
    neutrons = net.add_vertex("neutrons", (0, 2.0, 0))
    neutral = net.add_vertex("neutral", (0, 2.0, 0))
    electrons = net.add_vertex("electrons", (0, 0, 1.0))
    negative = net.add_vertex("negative", (0, 0, 1.0))
    atom = net.add_vertex("atom", (0, 2.0, 0))
    net.add_edge(protons, positive, (0, 2.0, 0), label="are")
    net.add_edge(neutrons, neutral, (0, 2.0, 0), label="are")
    net.add_edge(electrons, negative, (0, 2.0, 0), label="are")
    net.add_edge(atom, protons, (0, 2.0, 0), label="has")
    net.add_edge(atom, neutrons, (0, 2.0, 0), label="has")
    net.add_edge(atom, electrons, (0, 2.0, 0), label="has")
    return net


def s3() -> SemanticNet:
    """PFNSN: Bob is quite healthy, rather plump, slightly anaemic."""
    net = SemanticNet(NetMode.PFNSN, "S3")
    bob = net.add_vertex("Bob", (3.0, 0, 0))
    healthy = net.add_vertex("healthy", (3.0, 0, 0))
    plump = net.add_vertex("plump", (3.0, 0, 0))
    anaemic = net.add_vertex("anaemic", (0, 0, 1.0))
    net.add_edge(bob, healthy, (2.7, 0, 0), label="quite")
    net.add_edge(bob, plump, (0, 1.4, 0), label="rather")
    net.add_edge(bob, anaemic, (0, 0, 0.3), label="slightly")
    return net


# Replacements for one number or label of a statement line: values the
# parser must reject or read differently, and labels that are unknown,
# already taken, or not identifiers.  "٣" is ARABIC-INDIC DIGIT THREE, a
# digit to the tokenizer's \d and to float().
ODD_NUMBERS = ["1e999", "2I", "0.5.2", "Ix", "I", "1.", ".5", "1e", "1e5",
               "1I", "0", "00", "1_0", "٣", "1٣", "-1", "+1", ""]
ODD_LABELS = ["zz", "a", "b", "vertex", "edge", "label", "I", "indeterminate",
              "1a", "é", "a-b", ""]
INSERTED = [" ", "\t", "#", "\r", "(", ")", ",", '"', "\\", "-", ">", "->", "I",
            "0", ".", "e", "_", "x", "٣", "é", "\xa0", "\x0b", "\x0c"]
_NUMBER_RE = re.compile(r"(?<![\w.])(?:\d+(?:\.\d*)?(?:e[+-]?\d+)?I?|I)(?![\w.])")
_WORD_RE = re.compile(r"[A-Za-z_]\w*")


@st.composite
def mutated_pnet(draw) -> str:
    """``.pnet`` text near the valid language: a canonical or fixture text
    with a few line-level mutations.  Much of it still parses."""
    if draw(st.booleans()):
        text = format_net(draw(nets()))
    else:
        text = draw(st.sampled_from(FIXTURE_TEXTS))
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 4))):
        if not lines:
            break
        statements = [k for k, line in enumerate(lines)
                      if not line.startswith("net ")]
        if statements and draw(st.integers(0, 4)):
            i = draw(st.sampled_from(statements))
        else:
            i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        pos = draw(st.integers(0, len(line)))
        kind = draw(st.sampled_from(
            ["insert", "delete", "truncate", "number", "label", "comment",
             "duplicate", "drop", "swap"]))
        if kind == "insert":
            line = line[:pos] + draw(st.sampled_from(INSERTED)) + line[pos:]
        elif kind == "delete":
            line = line[:pos] + line[pos + 1:]
        elif kind == "truncate":
            line = line[:pos]
        elif kind in ("number", "label"):
            pattern = _NUMBER_RE if kind == "number" else _WORD_RE
            spans = [m.span() for m in pattern.finditer(line)]
            if spans:
                start, end = draw(st.sampled_from(spans))
                new = draw(st.sampled_from(ODD_NUMBERS if kind == "number"
                                           else ODD_LABELS))
                line = line[:start] + new + line[end:]
        elif kind == "comment":
            line = line[:pos] + draw(st.sampled_from([" # x", "#", "\t#\"("]))
        elif kind == "duplicate":
            lines.insert(i, line)
        elif kind == "drop":
            del lines[i]
            continue
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], line
            continue
        lines[i] = line
    return "\n".join(lines)


# 2**1024 is an integer literal beyond the float range.
json_scalars = (st.none() | st.booleans() | st.integers() | st.just(2**1024)
                | st.floats() | st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12)


def _json_slots(doc, path=()):
    """Paths of every value inside a decoded JSON document."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_slots(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _json_slots(value, path + (k,))


@st.composite
def json_documents(draw) -> str:
    """JSON text: an arbitrary value, or a valid net document with one value
    replaced by an arbitrary one or a key removed."""
    if draw(st.integers(0, 3)) == 0:
        return json.dumps(draw(json_values))
    doc = json.loads(to_json(draw(nets(max_vertices=3))))
    path = draw(st.sampled_from(list(_json_slots(doc))))
    if not path:
        return json.dumps(draw(json_values))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_scalars | json_values)
    return json.dumps(doc)
