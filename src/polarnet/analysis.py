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

from .core import ChannelTriple, NetError, SemanticNet, entry_problem, fmt_number

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


@dataclass(frozen=True)
class NormalizedTriple:
    """Channel degrees rescaled to [0, 1], read as (p, u, n)."""

    p: float
    u: float
    n: float
    has_indeterminacy: bool = False

    def __str__(self) -> str:
        parts = ", ".join(fmt_number(x) for x in (self.p, self.u, self.n))
        return f"({parts})"


@dataclass(frozen=True)
class RankedNeighbor:
    """One out-neighbor with its combined triple and polarity score."""

    vertex_id: int
    combined: NormalizedTriple
    score: float


@dataclass(frozen=True)
class SelectionResult:
    """Out-neighbors of a vertex, ordered by the requested preference."""

    ranked: tuple[RankedNeighbor, ...]


def normalize(triple: ChannelTriple,
              scale: tuple[float, float, float]) -> NormalizedTriple:
    """Map a channel triple onto [0, 1] by the per-channel maxima.

    Indeterminacy entries contribute 0 to their component and set
    ``has_indeterminacy``.  A degree above its maximum raises core's
    range error; the one compare per channel keeps this hot path cheap.
    """
    components = []
    flag = False
    for k, (val, mx) in enumerate(zip(triple, scale), start=1):
        if val.indeterminate:
            components.append(0.0)
            flag = True
        else:
            if val.magnitude > mx:
                raise entry_problem(k, val, mx)
            components.append(val.magnitude / mx)
    return NormalizedTriple(*components, has_indeterminacy=flag)


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
    """
    net.vertex(vertex_id)
    scale = net.scale
    entries = []
    for e in net.out_edges(vertex_id):
        neighbor = net.vertex(e.dst)
        combined = combine(normalize(e.weight, scale),
                           normalize(neighbor.membership, scale))
        entries.append((neighbor.label,
                        RankedNeighbor(neighbor.id, combined,
                                       polarity_score(combined))))
    if preference is Polarity.POSITIVE:
        def key(item): return (-item[1].score, item[1].combined.u, item[0])
    elif preference is Polarity.NEGATIVE:
        def key(item): return (item[1].score, item[1].combined.u, item[0])
    elif preference is Polarity.NEUTRAL:
        def key(item): return (-item[1].combined.u, item[0])
    else:
        raise NetError(f"unknown preference {preference!r}")
    entries.sort(key=key)  # stable: edge insertion order breaks exact ties
    return SelectionResult(ranked=tuple(item[1] for item in entries))


def net_polarity(net: SemanticNet) -> tuple[NormalizedTriple, Polarity]:
    """Summarize a whole net as one normalized triple and a polarity label.

    The summary is the channel-wise mean over the normalized memberships of
    all vertices and the normalized weights of all edges.  The label is
    positive when the summary score exceeds ``DEFAULT_LABEL_THRESHOLD``,
    negative below its negation, else neutral.
    """
    vertices, scale = net.vertices, net.scale
    if not vertices:
        raise NetError("empty net has no polarity")
    triples = [normalize(v.membership, scale) for v in vertices]
    triples += [normalize(e.weight, scale) for e in net.edges]
    count = len(triples)
    summary = NormalizedTriple(
        sum(t.p for t in triples) / count,
        sum(t.u for t in triples) / count,
        sum(t.n for t in triples) / count,
        has_indeterminacy=any(t.has_indeterminacy for t in triples),
    )
    score = polarity_score(summary)
    if score > DEFAULT_LABEL_THRESHOLD:
        label = Polarity.POSITIVE
    elif score < -DEFAULT_LABEL_THRESHOLD:
        label = Polarity.NEGATIVE
    else:
        label = Polarity.NEUTRAL
    return summary, label
