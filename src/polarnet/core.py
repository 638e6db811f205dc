"""Core domain types for three-channel semantic nets.

A semantic net is a directed labeled graph whose vertices and edges each
carry a triple of degrees.  Depending on the net mode the channels are read
as truth/indeterminacy/falsehood (FNSN) or positivity/neutrality/negativity
(PNSN, PFNSN).  Each channel entry is either a determinate degree bounded
by the net's per-channel scale, or a scaled indeterminacy n*I with
coefficient n in (0, 1].

Nets are built single-writer through ``add_vertex``/``add_edge``, the only
way to add elements, so every net is valid by construction; a finished net
is safe to share across threads for reads.  The one thing a read stores in a
net, ``analysis.net_polarity``'s snapshot of its terms, is replaced whole by
one assignment and never changed in place, so reads stay thread-safe.

This module is the one place that checks the invariants.  Construction
enforces entry domain and range, label syntax, names and edge labels that
encode as UTF-8, unique labels, no loops and no duplicate edges; it raises
a :class:`NetError` whose ``kind`` and ``channel`` say which invariant broke
and where, and the ``.pnet`` and JSON loaders turn those into locations in
their input without checking again.
PNSN crispness depends on the mode, so ``validate`` alone checks it.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterator, NamedTuple, Union

__all__ = [
    "DEFAULT_SCALE",
    "NetError",
    "NetMode",
    "NeutroValue",
    "ChannelTriple",
    "Vertex",
    "Edge",
    "GraphClass",
    "Violation",
    "Order",
    "SemanticNet",
    "entry_problem",
    "scale_problem",
    "fmt_number",
    "is_valid_label",
]

#: Channel maxima implied by "complete" memberships in the example nets:
#: fully positive/true = 3.0, fully neutral = 2.0, fully negative/false = 1.0.
DEFAULT_SCALE = (3.0, 2.0, 1.0)

# Labels double as DSL identifiers and matrix row names, so they are
# restricted to identifier syntax (multi-word phrases use underscores).
_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# A net name or edge label is any text that encodes as UTF-8.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


class NetError(ValueError):
    """Raised when a construction step would break a net invariant.

    ``kind`` names the invariant: "scale", "coefficient", "non-finite",
    "range", "label", "lone surrogate" (in a net name or edge label),
    "duplicate label", "loop" or "duplicate edge"; it is None for other
    errors, such as an unknown vertex id.  ``channel`` is the
    1-based channel of a scale or entry problem once it is known, else None.
    """

    def __init__(self, message: str, kind: str | None = None,
                 channel: int | None = None):
        super().__init__(message)
        self.kind = kind
        self.channel = channel


def is_valid_label(label: object) -> bool:
    """True when ``label`` can name a vertex (identifier syntax)."""
    return isinstance(label, str) and bool(_LABEL_RE.match(label))


class NetMode(Enum):
    """How the three channels of a net are interpreted."""

    FNSN = "FNSN"   # fuzzy neutrosophic: (t, i, f), degrees anywhere in range
    PNSN = "PNSN"   # polar neutrosophic: (p, u, n), degrees crisp (0 or max)
    PFNSN = "PFNSN"  # polar fuzzy neutrosophic: (p, u, n), degrees in range

    @property
    def channel_names(self) -> tuple[str, str, str]:
        if self is NetMode.FNSN:
            return ("t", "i", "f")
        return ("p", "u", "n")


def _float(x: int | float) -> float:
    """``float(x)``; an int beyond the float range becomes an infinity of its
    sign, so the finiteness checks reject it as they reject ``1e999``.  The
    JSON loader passes its ints here unconverted."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def fmt_number(x: float) -> str:
    """Format a degree with minimal digits; exact under float round-trip."""
    if abs(x) < 1e16 and x == int(x):
        return str(int(x))
    return repr(x)


def _entry_text(magnitude: float, indeterminate: bool) -> str:
    """The text of a channel entry: a degree, ``nI``, or ``I`` for 1*I."""
    if indeterminate:
        return "I" if magnitude == 1.0 else fmt_number(magnitude) + "I"
    return fmt_number(magnitude)


# The value types below are frozen, slotted dataclasses whose hand-written
# ``__init__`` stores each field through its slot descriptor, bound once after
# the class; the generated one calls ``object.__setattr__`` per field.  ``==``,
# ``hash``, ``repr``, pickling and ``dataclasses.replace`` stay generated.

@dataclass(frozen=True, slots=True, init=False)
class NeutroValue:
    """One channel entry: a determinate degree, or an indeterminacy n*I."""

    magnitude: float
    indeterminate: bool = False

    def __init__(self, magnitude: float, indeterminate: bool = False) -> None:
        if type(magnitude) is not float or type(indeterminate) is not bool:
            if (not isinstance(magnitude, (int, float)) or type(magnitude) is bool
                    or type(indeterminate) is not bool):
                raise TypeError(f"a degree must be a number and indeterminate "
                                f"a bool, got {magnitude!r} and {indeterminate!r}")
            magnitude = _float(magnitude)
        # "or 0.0" stores -0.0 as 0.0, so equal values print and serialize
        # alike, and keeps any other float object without copying it
        _set_magnitude(self, magnitude or 0.0)
        _set_value_flag(self, indeterminate)
        if not (0.0 < magnitude <= 1.0 if indeterminate
                else 0.0 <= magnitude < math.inf):  # also NaN
            raise entry_problem(None, self)

    @classmethod
    def determinate(cls, value: float) -> "NeutroValue":
        return cls(value)

    @classmethod
    def indeterminacy(cls, coefficient: float = 1.0) -> "NeutroValue":
        """A scaled indeterminacy; bare I is coefficient 1.0."""
        return cls(coefficient, indeterminate=True)

    @property
    def is_zero(self) -> bool:
        return not self.indeterminate and self.magnitude == 0.0

    def __str__(self) -> str:
        return _entry_text(self.magnitude, self.indeterminate)


_set_magnitude = NeutroValue.magnitude.__set__
_set_value_flag = NeutroValue.indeterminate.__set__

ValueLike = Union[NeutroValue, float, int]


@dataclass(frozen=True, slots=True, init=False)
class ChannelTriple:
    """Three channel entries, read as (t, i, f) or (p, u, n) by net mode."""

    c1: NeutroValue
    c2: NeutroValue
    c3: NeutroValue

    def __init__(self, c1: NeutroValue, c2: NeutroValue,
                 c3: NeutroValue) -> None:
        _set_c1(self, c1)
        _set_c2(self, c2)
        _set_c3(self, c3)

    @classmethod
    def of(cls, c1: ValueLike, c2: ValueLike, c3: ValueLike) -> "ChannelTriple":
        """Build a triple, coercing plain numbers to determinate entries."""
        return cls(*[v if isinstance(v, NeutroValue) else NeutroValue(v)
                     for v in (c1, c2, c3)])

    @classmethod
    def zero(cls) -> "ChannelTriple":
        return cls.of(0.0, 0.0, 0.0)

    def __iter__(self) -> Iterator[NeutroValue]:
        yield self.c1
        yield self.c2
        yield self.c3

    @property
    def is_zero(self) -> bool:
        # An indeterminacy's coefficient is positive, so an entry is zero
        # exactly when its magnitude is.
        return not (self.c1.magnitude or self.c2.magnitude or self.c3.magnitude)

    @property
    def has_indeterminate(self) -> bool:
        return self.c1.indeterminate or self.c2.indeterminate or self.c3.indeterminate

    def __str__(self) -> str:
        # A determinate entry is written inline, with no Python call: its
        # magnitude is finite, at least 0 and never -0.0, and for every such
        # float ``repr(m).removesuffix(".0")`` is exactly ``fmt_number(m)``.
        # Zero, the most common entry, skips even that.
        a, b, c = self.c1, self.c2, self.c3
        a = (_entry_text(a.magnitude, True) if a.indeterminate
             else repr(a.magnitude).removesuffix(".0") if a.magnitude else "0")
        b = (_entry_text(b.magnitude, True) if b.indeterminate
             else repr(b.magnitude).removesuffix(".0") if b.magnitude else "0")
        c = (_entry_text(c.magnitude, True) if c.indeterminate
             else repr(c.magnitude).removesuffix(".0") if c.magnitude else "0")
        return f"({a}, {b}, {c})"


_set_c1 = ChannelTriple.c1.__set__
_set_c2 = ChannelTriple.c2.__set__
_set_c3 = ChannelTriple.c3.__set__


TripleLike = Union[ChannelTriple, tuple, list]


def _coerce_triple(triple: TripleLike) -> ChannelTriple:
    if isinstance(triple, ChannelTriple):
        return triple
    if not isinstance(triple, (tuple, list)):
        raise TypeError(f"a channel triple must be a ChannelTriple, tuple or "
                        f"list, got {triple!r}")
    if len(triple) != 3:
        raise NetError(f"channel triple needs 3 entries, got {len(triple)}")
    return ChannelTriple.of(*triple)


@dataclass(frozen=True, slots=True, init=False)
class Vertex:
    """A labeled node; ``indeterminate`` marks an N_k node."""

    id: int
    label: str
    membership: ChannelTriple
    indeterminate: bool = False

    def __init__(self, id: int, label: str, membership: ChannelTriple,
                 indeterminate: bool = False) -> None:
        _set_vertex_id(self, id)
        _set_vertex_label(self, label)
        _set_membership(self, membership)
        _set_vertex_flag(self, indeterminate)


_set_vertex_id = Vertex.id.__set__
_set_vertex_label = Vertex.label.__set__
_set_membership = Vertex.membership.__set__
_set_vertex_flag = Vertex.indeterminate.__set__


@dataclass(frozen=True, slots=True, init=False)
class Edge:
    """A directed relation between two vertices, src -> dst."""

    src: int
    dst: int
    weight: ChannelTriple
    label: str = ""
    indeterminate: bool = False

    def __init__(self, src: int, dst: int, weight: ChannelTriple,
                 label: str = "", indeterminate: bool = False) -> None:
        _set_src(self, src)
        _set_dst(self, dst)
        _set_weight(self, weight)
        _set_edge_label(self, label)
        _set_edge_flag(self, indeterminate)


_set_src = Edge.src.__set__
_set_dst = Edge.dst.__set__
_set_weight = Edge.weight.__set__
_set_edge_label = Edge.label.__set__
_set_edge_flag = Edge.indeterminate.__set__


@dataclass(frozen=True, slots=True)
class GraphClass:
    """Graph-theoretic classification flags of a net."""

    has_indeterminate_vertex: bool
    has_indeterminate_edge: bool
    is_point_graph: bool
    is_edge_graph: bool
    is_strongly_neutrosophic: bool
    is_neutrosophic_simple: bool

    def flags(self) -> dict[str, bool]:
        """Flags as an ordered name -> value mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True, slots=True)
class Violation:
    """One well-formedness finding from ``SemanticNet.validate``."""

    message: str
    severity: str = "error"  # "error" | "warning"

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


def entry_problem(k: int | None, value: NeutroValue,
                  mx: float = math.inf) -> NetError | None:
    """The first problem of ``value`` as the channel ``k`` entry, or None.

    An indeterminacy needs a coefficient in (0, 1].  A determinate degree
    must be a finite nonnegative real no larger than the channel maximum
    ``mx``.  The check is the same in every mode.  A value built outside its
    domain words the failure with ``k`` None; a net and ``analysis.normalize``
    pass the channel and its maximum to word a degree above scale.  A valid
    entry allocates nothing.
    """
    m = value.magnitude
    if value.indeterminate:
        if 0.0 < m <= 1.0:
            return None
        kind, text = "coefficient", f"indeterminacy coefficient {m!r} outside (0, 1]"
    elif not 0.0 <= m < math.inf:  # also NaN
        kind, text = ("non-finite",
                      f"determinate degree {m!r} is not a finite nonnegative real")
    elif m > mx:
        kind, text = ("range",
                      f"degree {fmt_number(m)} exceeds scale {fmt_number(mx)}")
    else:
        return None
    if k is not None:
        text = f"channel {k} {text}"
    return NetError(text, kind, k)


def scale_problem(triple: ChannelTriple,
                  scale: tuple[float, float, float]) -> NetError | None:
    """The range error of the first determinate degree of ``triple`` above
    its channel maximum in ``scale``, or None.

    Values check their own type, coefficient and finiteness when built, so
    one compare per channel is the whole check; ``entry_problem`` words a
    failure.  ``analysis.normalize`` checks the range here; construction
    makes the same compares inline and calls this only to word a failure.
    """
    s1, s2, s3 = scale
    a, b, c = triple.c1, triple.c2, triple.c3
    if a.magnitude > s1 and not a.indeterminate:
        return entry_problem(1, a, s1)
    if b.magnitude > s2 and not b.indeterminate:
        return entry_problem(2, b, s2)
    if c.magnitude > s3 and not c.indeterminate:
        return entry_problem(3, c, s3)
    return None


_STRUCTURE_TEXT = {
    "label": "label {!r} must be an identifier "
             "(letters, digits, underscore; not starting with a digit)",
    "duplicate label": "duplicate vertex label {!r}",
    "loop": "loop on vertex {!r} rejected",
    "duplicate edge": "duplicate edge {!r} -> {!r}",
    "lone surrogate": "lone surrogate in string",
}


def _structure_error(kind: str, *labels: object) -> NetError:
    """The ``kind`` text, loop or duplicate problem, worded for its labels."""
    return NetError(_STRUCTURE_TEXT[kind].format(*labels), kind)


class Order(NamedTuple):
    """Vertex counts: ordinary, indeterminate, and their total."""

    ordinary: int
    indeterminate: int
    total: int


class SemanticNet:
    """A mode-tagged directed net of vertices and weighted edges.

    ``scale`` holds the per-channel maxima for determinate degrees.  Vertex
    insertion order is significant: it defines matrix row/column order, and
    a vertex's id is its position in ``vertices``.

    A net is valid by construction: the constructor takes only mode, name
    and scale, and ``add_vertex``/``add_edge`` either add one element or raise
    a :class:`NetError` and leave the net unchanged.  ``vertices`` and
    ``edges`` are read-only tuples, copied on each read, and ``mode``,
    ``name`` and ``scale`` cannot be reassigned.  Private lookup indexes and
    ``net_polarity``'s snapshot stay out of ``==`` and ``repr``; nets compare
    by value and are unhashable, and ``copy.copy`` gives an independent net
    without a snapshot.
    """

    def __init__(self, mode: NetMode, name: str = "",
                 scale: tuple[float, float, float] = DEFAULT_SCALE):
        if not (isinstance(mode, NetMode) and isinstance(name, str)):
            raise TypeError(f"mode must be a NetMode and name a str, "
                            f"got {mode!r} and {name!r}")
        if not (isinstance(scale, (tuple, list)) and all(
                isinstance(s, (int, float)) and type(s) is not bool
                for s in scale)):
            raise TypeError(f"scale must be 3 numbers, got {scale!r}")
        if not name.isascii() and _SURROGATE_RE.search(name):
            raise _structure_error("lone surrogate")
        if len(scale) != 3:
            raise NetError(f"scale needs 3 components, got {len(scale)}")
        scale = tuple(_float(s) for s in scale)
        for k, s in enumerate(scale, start=1):
            if not 0.0 < s < math.inf:  # also NaN
                raise NetError(f"channel {k} scale must be positive and "
                               f"finite, got {fmt_number(s)}", "scale", k)
        self._mode = mode
        self._name = name
        self._scale = scale
        self._vertices: list[Vertex] = []
        self._edges: list[Edge] = []
        self._by_label: dict[str, Vertex] = {}
        self._out: dict[int, dict[int, Edge]] = {}
        self._terms = None  # net_polarity's snapshot; see analysis

    @property
    def mode(self) -> NetMode:
        return self._mode

    @property
    def name(self) -> str:
        return self._name

    @property
    def scale(self) -> tuple[float, float, float]:
        return self._scale

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(self._vertices)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._edges)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self._mode, self._name, self._scale, self._vertices, self._edges)
                == (other._mode, other._name, other._scale, other._vertices,
                    other._edges))

    def __copy__(self) -> SemanticNet:
        twin = type(self)(self._mode, self._name, self._scale)
        twin._vertices = self._vertices.copy()
        twin._edges = self._edges.copy()
        twin._by_label = self._by_label.copy()
        twin._out = {src: out.copy() for src, out in self._out.items()}
        return twin

    def __repr__(self) -> str:
        return (f"SemanticNet(mode={self.mode!r}, name={self.name!r}, "
                f"scale={self._scale!r}, vertices={self.vertices!r}, "
                f"edges={self.edges!r})")

    # -- construction -----------------------------------------------------

    def add_vertex(self, label: str, membership: TripleLike,
                   indeterminate: bool = False) -> int:
        """Append a vertex and return its id (the insertion index)."""
        if type(indeterminate) is not bool:
            raise TypeError(f"indeterminate must be a bool, got {indeterminate!r}")
        if not is_valid_label(label):
            raise _structure_error("label", label)
        if label in self._by_label:
            raise _structure_error("duplicate label", label)
        vid = len(self._vertices)
        vertex = Vertex(vid, label, self._in_scale(membership), indeterminate)
        self._vertices.append(vertex)
        self._by_label[label] = vertex
        return vid

    def add_edge(self, src: int, dst: int, weight: TripleLike, label: str = "",
                 indeterminate: bool = False) -> Edge:
        """Append a directed edge src -> dst and return it."""
        if not (isinstance(label, str) and type(indeterminate) is bool):
            raise TypeError(f"label must be a str and indeterminate a bool, "
                            f"got {label!r} and {indeterminate!r}")
        if not label.isascii() and _SURROGATE_RE.search(label):
            raise _structure_error("lone surrogate")
        vertices = self._vertices
        n = len(vertices)
        if not (type(src) is int and type(dst) is int
                and 0 <= src < n and 0 <= dst < n):
            # ``vertex`` raises for a bad id; an int subclass is stored as
            # the plain id of the vertex it names
            src = self.vertex(src).id
            dst = self.vertex(dst).id
        if src == dst:
            raise _structure_error("loop", vertices[src].label)
        out = self._out.get(src)
        if out is not None and dst in out:
            raise _structure_error("duplicate edge", vertices[src].label,
                                   vertices[dst].label)
        edge = Edge(src, dst, self._in_scale(weight), label, indeterminate)
        if out is None:
            out = self._out[src] = {}
        out[dst] = edge
        self._edges.append(edge)
        return edge

    # -- lookup -----------------------------------------------------------

    def vertex(self, vid: int) -> Vertex:
        """The vertex with id ``vid``, in O(1); a bool is not a vertex id."""
        if (isinstance(vid, int) and type(vid) is not bool
                and 0 <= vid < len(self._vertices)):
            return self._vertices[vid]
        raise NetError(f"unknown vertex id {vid}")

    def find_vertex(self, label: str) -> Vertex | None:
        """The vertex labeled ``label``, or None; O(1)."""
        return self._by_label.get(label)

    def out_edges(self, vid: int) -> list[Edge]:
        """Edges leaving ``vid`` in insertion order; O(out-degree)."""
        out = self._out.get(vid)
        return list(out.values()) if out and type(vid) is not bool else []

    def has_edge(self, src: int, dst: int) -> bool:
        """True when an edge src -> dst exists; O(1)."""
        return dst in self._out.get(src, ()) and bool not in (type(src), type(dst))

    # -- inspection -------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Return the findings of this net's mode, per vertex then per edge.

        Construction enforces every other rule in all modes.  Under PNSN each
        determinate degree that is neither 0 nor its channel maximum is an
        error.  In every mode an edge with an all-zero weight, which the
        adjacency tensor cannot carry, draws a warning after its errors.
        """
        scale, vertices = self._scale, self._vertices
        s1, s2, s3 = scale

        def non_crisp(where: str, triple: ChannelTriple) -> list[Violation]:
            return [Violation(f"{where}: channel {k} non-crisp degree "
                              f"{fmt_number(val.magnitude)} "
                              f"(PNSN requires 0 or {fmt_number(mx)})")
                    for k, (val, mx) in enumerate(zip(triple, scale), start=1)
                    if val.magnitude not in (0.0, mx) and not val.indeterminate]

        def edge_name(e: Edge) -> str:
            return f"edge {vertices[e.src].label!r} -> {vertices[e.dst].label!r}"

        # Each triple is tested on its entries directly; the findings are
        # worded only for a triple that has one.
        out: list[Violation] = []
        crisp = self._mode is NetMode.PNSN
        if crisp:
            for v in vertices:
                m = v.membership
                a, b, c = m.c1, m.c2, m.c3
                if ((a.magnitude and a.magnitude != s1 and not a.indeterminate)
                        or (b.magnitude and b.magnitude != s2 and not b.indeterminate)
                        or (c.magnitude and c.magnitude != s3 and not c.indeterminate)):
                    out += non_crisp(f"vertex {v.label!r}", m)
        for e in self._edges:
            w = e.weight
            a, b, c = w.c1, w.c2, w.c3
            if crisp and (
                    (a.magnitude and a.magnitude != s1 and not a.indeterminate)
                    or (b.magnitude and b.magnitude != s2 and not b.indeterminate)
                    or (c.magnitude and c.magnitude != s3 and not c.indeterminate)):
                out += non_crisp(edge_name(e), w)
            if not (a.magnitude or b.magnitude or c.magnitude):
                out.append(Violation(
                    f"{edge_name(e)} has an all-zero weight and "
                    "cannot be reconstructed from the adjacency tensor",
                    severity="warning"))
        return out

    def classify(self) -> GraphClass:
        """Classification flags; a pure function of the indeterminate marks.

        ``is_neutrosophic_simple`` is always True: a net is simple when no
        loop or multi-edge touches an indeterminate vertex, and construction
        rejects every loop and every second edge between the same pair.
        """
        has_iv = any(v.indeterminate for v in self._vertices)
        has_ie = any(e.indeterminate for e in self._edges)
        return GraphClass(
            has_indeterminate_vertex=has_iv,
            has_indeterminate_edge=has_ie,
            is_point_graph=has_iv,
            is_edge_graph=has_ie,
            is_strongly_neutrosophic=has_iv and has_ie,
            is_neutrosophic_simple=True,
        )

    def order(self) -> Order:
        """Counts of ordinary and indeterminate vertices."""
        ind = sum(1 for v in self._vertices if v.indeterminate)
        total = len(self._vertices)
        return Order(total - ind, ind, total)

    # -- internals ----------------------------------------------------------

    def _in_scale(self, triple: TripleLike) -> ChannelTriple:
        """``triple`` as a ChannelTriple; raises its first degree above scale.
        Crispness is left to ``validate``."""
        if type(triple) is not ChannelTriple:
            triple = _coerce_triple(triple)
        s1, s2, s3 = self._scale
        a, b, c = triple.c1, triple.c2, triple.c3
        if ((a.magnitude > s1 and not a.indeterminate)
                or (b.magnitude > s2 and not b.indeterminate)
                or (c.magnitude > s3 and not c.indeterminate)):
            raise scale_problem(triple, self._scale)
        return triple
