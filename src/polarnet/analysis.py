"""Normalization, polarity scoring, neighbor selection, and net summaries.

Degrees are mapped onto a common [0, 1] domain by dividing each determinate
channel value by that channel's scale maximum.  Indeterminacy entries
contribute 0 and raise a flag instead of folding into the neutral channel:
"unknown" is kept distinct from "known neutral".  Edge and vertex triples
compose by channel-wise mean, which preserves contributions that live in
different channels (a min or product would annihilate them).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import ChannelTriple, NetError, SemanticNet, fmt_number, scale_problem

__all__ = [
    "Polarity",
    "NormalizedTriple",
    "RankedNeighbor",
    "SelectionResult",
    "normalize",
    "combine",
    "polarity_score",
    "polar_select",
    "net_polarity",
]

#: |score| above which a net summary is labeled positive/negative.
DEFAULT_LABEL_THRESHOLD = 0.1


class Polarity(Enum):
    """A polarity class, used both as selection preference and net label."""

    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"


@dataclass(frozen=True, slots=True)
class NormalizedTriple:
    """Channel degrees rescaled to [0, 1], read as (p, u, n)."""

    p: float
    u: float
    n: float
    has_indeterminacy: bool = False

    def __str__(self) -> str:
        parts = ", ".join(fmt_number(x) for x in (self.p, self.u, self.n))
        return f"({parts})"


@dataclass(frozen=True, slots=True)
class RankedNeighbor:
    """One out-neighbor with its combined triple and polarity score."""

    vertex_id: int
    combined: NormalizedTriple
    score: float


@dataclass(frozen=True, slots=True)
class SelectionResult:
    """Out-neighbors of a vertex, ordered by the requested preference."""

    ranked: tuple[RankedNeighbor, ...]


def normalize(triple: ChannelTriple,
              scale: tuple[float, float, float]) -> NormalizedTriple:
    """Map a channel triple onto [0, 1] by the per-channel maxima.

    Indeterminacy entries contribute 0 to their component and set
    ``has_indeterminacy``.  It takes any triple and any scale, so a degree
    above its maximum raises core's range error.
    """
    if problem := scale_problem(triple, scale):
        raise problem
    return NormalizedTriple(*[0.0 if val.indeterminate else val.magnitude / mx
                              for val, mx in zip(triple, scale)],
                            has_indeterminacy=triple.has_indeterminate)


def combine(edge: NormalizedTriple, neighbor: NormalizedTriple) -> NormalizedTriple:
    """Channel-wise mean of two normalized triples."""
    return NormalizedTriple(
        (edge.p + neighbor.p) / 2.0,
        (edge.u + neighbor.u) / 2.0,
        (edge.n + neighbor.n) / 2.0,
        has_indeterminacy=edge.has_indeterminacy or neighbor.has_indeterminacy,
    )


def polarity_score(triple: NormalizedTriple) -> float:
    """Net polarity in [-1, 1]: positivity minus negativity."""
    return triple.p - triple.n


def polar_select(net: SemanticNet, vertex_id: int,
                 preference: Polarity) -> SelectionResult:
    """Rank the out-neighbors of a vertex by polarity.

    Each neighbor's combined triple is the mean of the normalized edge
    weight and the normalized neighbor membership.  Ordering: POSITIVE by
    score descending, NEGATIVE by score ascending, NEUTRAL by neutrality
    descending; ties prefer lower neutrality (for the polar preferences),
    then lexicographic label.

    The scores are ``polarity_score(combine(normalize(weight),
    normalize(membership)))`` written out on the raw entries, with the same
    floating-point expressions in the same order, on entries that
    construction already put within ``net.scale``.
    """
    net.vertex(vertex_id)
    if preference is Polarity.POSITIVE:
        def key(item): return (-item[1].score, item[1].combined.u, item[0])
    elif preference is Polarity.NEGATIVE:
        def key(item): return (item[1].score, item[1].combined.u, item[0])
    elif preference is Polarity.NEUTRAL:
        def key(item): return (-item[1].combined.u, item[0])
    else:
        raise NetError(f"unknown preference {preference!r}")
    s1, s2, s3 = net.scale
    vertices = net._vertices
    entries = []
    # ``vertex`` has rejected a bad id, so the out-edges are read in place
    for e in net._out.get(vertex_id, {}).values():
        neighbor = vertices[e.dst]
        w, m = e.weight, neighbor.membership
        w1, w2, w3, m1, m2, m3 = w.c1, w.c2, w.c3, m.c1, m.c2, m.c3
        p = ((0.0 if w1.indeterminate else w1.magnitude / s1)
             + (0.0 if m1.indeterminate else m1.magnitude / s1)) / 2.0
        u = ((0.0 if w2.indeterminate else w2.magnitude / s2)
             + (0.0 if m2.indeterminate else m2.magnitude / s2)) / 2.0
        n = ((0.0 if w3.indeterminate else w3.magnitude / s3)
             + (0.0 if m3.indeterminate else m3.magnitude / s3)) / 2.0
        combined = NormalizedTriple(p, u, n, has_indeterminacy=(
            w.has_indeterminate or m.has_indeterminate))
        entries.append((neighbor.label,
                        RankedNeighbor(neighbor.id, combined, p - n)))
    entries.sort(key=key)  # stable: edge insertion order breaks exact ties
    return SelectionResult(ranked=tuple(item[1] for item in entries))


def net_polarity(net: SemanticNet) -> tuple[NormalizedTriple, Polarity]:
    """Summarize a whole net as one normalized triple and a polarity label.

    The summary is the channel-wise mean over the normalized memberships of
    all vertices and the normalized weights of all edges.  The label is
    positive when the summary score exceeds ``DEFAULT_LABEL_THRESHOLD``,
    negative below its negation, else neutral.

    Each channel is the builtin ``sum`` of the per-entry ``normalize``
    terms, memberships then weights, so the summary is bit-identical to
    summing normalized triples (Python 3.12+ compensates that sum).
    Construction already put every entry within ``net.scale``.
    """
    if not net._vertices:
        raise NetError("empty net has no polarity")
    triples = [v.membership for v in net._vertices] + [e.weight for e in net._edges]
    s1, s2, s3 = net.scale
    count = len(triples)
    summary = NormalizedTriple(
        sum([0.0 if t.c1.indeterminate else t.c1.magnitude / s1
             for t in triples]) / count,
        sum([0.0 if t.c2.indeterminate else t.c2.magnitude / s2
             for t in triples]) / count,
        sum([0.0 if t.c3.indeterminate else t.c3.magnitude / s3
             for t in triples]) / count,
        has_indeterminacy=any(t.has_indeterminate for t in triples),
    )
    score = polarity_score(summary)
    if score > DEFAULT_LABEL_THRESHOLD:
        label = Polarity.POSITIVE
    elif score < -DEFAULT_LABEL_THRESHOLD:
        label = Polarity.NEGATIVE
    else:
        label = Polarity.NEUTRAL
    return summary, label
