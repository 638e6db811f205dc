"""Seeded generator of semantic nets, kept as plain models.

A model is the benchmark's own description of a net: it never touches
polarnet.  The generator writes models as ``.pnet`` and JSON text with its
own serializers, and the checker (``ref.py``) compares polarnet's outputs
against the model.

Entries are ``("d", x)`` for a determinate degree and ``("i", n)`` for the
indeterminacy n*I.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

MODES = ("FNSN", "PNSN", "PFNSN")
SCALES = ((3.0, 2.0, 1.0), (1.0, 1.0, 1.0), (10.0, 5.0, 2.5), (100.0, 40.0, 7.5))

#: Share of channel entries that are indeterminacies n*I.
INDETERMINATE_SHARE = 0.05
MEAN_OUT_DEGREE = 4

# Net names and edge labels carry quotes, backslashes and control escapes so
# that both text formats' escaping is exercised.
_NAME_PARTS = ("night", 'say "rather"', "back\\slash", "tab\there", "plain",
               "line\nbreak", "q\"b\\", "weather")
_EDGE_WORDS = ("rather", "somewhat", "not", 'very "much"', "a\\b", "", "",
               "slightly", "is_a", "part\tof")
_WORDS = ("sun", "rain", "cold", "hazy", "calm", "storm", "wind", "snow",
          "dusk", "dawn", "fog", "heat", "frost", "hail", "mist", "glow")


@dataclass
class NetModel:
    mode: str
    name: str
    scale: tuple
    labels: list = field(default_factory=list)
    memberships: list = field(default_factory=list)
    vertex_marks: list = field(default_factory=list)
    # (src, dst, label, weight, indeterminate), src/dst are positions.
    edges: list = field(default_factory=list)
    # Derived: out-edge indexes per vertex and the (src, dst) pair set.
    out: list = field(default_factory=list)
    pairs: set = field(default_factory=set)
    # Vertex positions by hub rank: rank 0 draws the most out-edges.
    hub_order: list = field(default_factory=list)

    def add_vertex(self, label, membership, mark):
        self.labels.append(label)
        self.memberships.append(membership)
        self.vertex_marks.append(mark)
        self.out.append([])
        return len(self.labels) - 1

    def add_edge(self, src, dst, label, weight, mark):
        self.out[src].append(len(self.edges))
        self.pairs.add((src, dst))
        self.edges.append((src, dst, label, weight, mark))


def _entry(rng: random.Random, mode: str, mx: float, zero_share: float):
    if rng.random() < INDETERMINATE_SHARE:
        return ("i", rng.choice((1.0, 0.5, 0.25, round(rng.uniform(0.01, 1.0), 2))))
    if rng.random() < zero_share:
        return ("d", 0.0)
    if mode == "PNSN":
        return ("d", mx)
    return ("d", min(mx, round(rng.uniform(0.0, mx), 3)))


def _triple(rng, mode, scale, zero_share=0.45):
    while True:
        t = tuple(_entry(rng, mode, mx, zero_share) for mx in scale)
        # All-zero weights draw a validate() warning; avoid them everywhere.
        if any(e != ("d", 0.0) for e in t):
            return t


def _mark(rng, triple):
    has_i = any(kind == "i" for kind, _ in triple)
    return rng.random() < (0.7 if has_i else 0.02)


def zipf_weights(n: int) -> list[float]:
    """Zipf weights with exponent 1 for ranks 0 .. n-1."""
    return [1.0 / (rank + 1) for rank in range(n)]


def popularity_order(net: NetModel) -> list:
    """Vertex positions by query popularity, most popular first.

    Popularity is decoupled from out-degree by a fixed interleave of the
    hub order (a golden-ratio stride, starting mid-way), so every seed puts
    hubs at the same popularity ranks and queries cost the same on every
    seed.  A random permutation would let one seed make a hub its most
    popular vertex and run many times slower than another.
    """
    n = len(net.hub_order)
    stride = max(1, round(0.618 * n))
    while math.gcd(stride, n) != 1:
        stride += 1
    return [net.hub_order[(p * stride + n // 2) % n] for p in range(n)]


def new_label(rng: random.Random, taken: set) -> str:
    while True:
        label = f"{rng.choice(_WORDS)}_{rng.randrange(1 << 20):x}"
        if label not in taken:
            taken.add(label)
            return label


def new_vertex(rng, net: NetModel, taken: set):
    """Draw a vertex (label, membership, mark) that is valid for ``net``."""
    membership = _triple(rng, net.mode, net.scale)
    return new_label(rng, taken), membership, _mark(rng, membership)


def new_edge_weight(rng, net: NetModel):
    weight = _triple(rng, net.mode, net.scale)
    return rng.choice(_EDGE_WORDS), weight, _mark(rng, weight)


def out_degrees(n: int, n_edges: int) -> list[int]:
    """Out-degree of each hub rank: Zipf shares of ``n_edges``, capped at
    ``n - 1``, rounded by largest remainder.  Fixed for a given size, so
    every seed draws nets of the same shape and cost."""
    cap = max(n - 1, 0)
    weights = zipf_weights(n)
    capped = 0  # Zipf weights fall with rank, so capped ranks are a prefix
    while True:
        left = n_edges - cap * capped
        free = sum(weights[capped:])
        shares = [float(cap)] * capped + [left * w / free for w in weights[capped:]]
        if capped == n or shares[capped] <= cap:
            break
        capped += 1
    degrees = [int(s) for s in shares]
    spare = sorted((r for r in range(n) if degrees[r] < cap),
                   key=lambda r: (degrees[r] - shares[r], r))
    for r in spare[:n_edges - sum(degrees)]:
        degrees[r] += 1
    return degrees


def hub_positions(n: int) -> list[int]:
    """Vertex positions by hub rank: a fixed golden-ratio stride, so that
    the hubs sit at the same positions on every seed (lookups scan the
    vertex list, so a hub's position sets its cost)."""
    stride = max(1, round(0.382 * n))
    while math.gcd(stride, n) != 1:
        stride += 1
    return [(r * stride + n // 3) % n for r in range(n)]


def make_net(rng: random.Random, n_vertices: int, mode: str) -> NetModel:
    """A net with hub-skewed out-degree of mean ``MEAN_OUT_DEGREE``.

    The shape (mode, size, each hub's position and out-degree) is fixed by
    the caller's schedule; the seed draws the contents: name, scale,
    labels, degrees, destinations, edge order and marks.
    """
    name = " ".join(rng.sample(_NAME_PARTS, 2))
    net = NetModel(mode, name, rng.choice(SCALES))
    taken: set = set()
    for _ in range(n_vertices):
        net.add_vertex(*new_vertex(rng, net, taken))
    n = n_vertices
    net.hub_order = hub_positions(n)
    degrees = out_degrees(n, min(MEAN_OUT_DEGREE * n, n * (n - 1) // 2))
    pairs = []
    for src, degree in zip(net.hub_order, degrees):
        # Destinations are uniform over the other vertices.
        pairs += [(src, d + (d >= src)) for d in rng.sample(range(n - 1), degree)]
    rng.shuffle(pairs)
    for src, dst in pairs:
        net.add_edge(src, dst, *new_edge_weight(rng, net))
    return net


# -- serializers -------------------------------------------------------------

def num(x: float) -> str:
    """Minimal exact decimal for a degree (integers without a point)."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def entry_text(entry) -> str:
    kind, x = entry
    if kind == "d":
        return num(x)
    return "I" if x == 1.0 else num(x) + "I"


def triple_text(triple) -> str:
    return "(" + ", ".join(entry_text(e) for e in triple) + ")"


_PNET_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def pnet_quote(text: str) -> str:
    return '"' + "".join(_PNET_ESCAPES.get(c, c) for c in text) + '"'


def to_pnet(net: NetModel, canonical: bool = False) -> str:
    """The net as ``.pnet`` text.

    The canonical form is the one the library documents for its formatter:
    header with explicit scale, vertices then edges in insertion order,
    minimal numbers, empty edge labels omitted, no comments.  The
    non-canonical form adds comment lines, a blank line and trailing
    comments.
    """
    lines = [] if canonical else ["# generated net", ""]
    lines.append(f"net {net.mode.lower()} {pnet_quote(net.name)} scale "
                 + " ".join(num(s) for s in net.scale))
    for label, membership, mark in zip(net.labels, net.memberships,
                                       net.vertex_marks):
        line = f"vertex {label} {triple_text(membership)}"
        lines.append(line + " indeterminate" if mark else line)
    for k, (src, dst, label, weight, mark) in enumerate(net.edges):
        line = f"edge {net.labels[src]} -> {net.labels[dst]}"
        if label:
            line += f" label {pnet_quote(label)}"
        line += f" {triple_text(weight)}"
        if mark:
            line += " indeterminate"
        if not canonical and k % 97 == 5:
            line += "   # relation"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _entry_json(entry) -> dict:
    kind, x = entry
    return {kind: x}


def to_json_doc(net: NetModel) -> str:
    """The net as a JSON document, with external ids that are not positions."""
    ext = [3 * i + 1 for i in range(len(net.labels))]
    doc = {
        "mode": net.mode,
        "name": net.name,
        "scale": list(net.scale),
        "vertices": [
            {"id": ext[i], "label": label, "indeterminate": mark,
             "membership": [_entry_json(e) for e in membership]}
            for i, (label, membership, mark) in enumerate(
                zip(net.labels, net.memberships, net.vertex_marks))
        ],
        "edges": [
            {"src": ext[src], "dst": ext[dst], "label": label,
             "indeterminate": mark, "weight": [_entry_json(e) for e in weight]}
            for src, dst, label, weight, mark in net.edges
        ],
    }
    return json.dumps(doc, indent=1)


# -- size schedules ----------------------------------------------------------

#: One ingest deck, as (vertices, mode): 14 sentence-sized nets (70%), 5
#: of 50-500 vertices (25%) and one of 1000 (5%).  Shapes are fixed so that
#: every seed does the same amount of work; the seed draws the contents and
#: the order.  Sizes are spread rather than repeated.  The machine this runs
#: on switches between a fast and a slow phase about 1.4x apart; when many
#: ops share one cost, the median or p90 jumps between the two phases'
#: values as their shares shift.  With costs spread in steps smaller than
#: that, both move smoothly with the shares, as the throughput does.
INGEST_DECK = tuple(zip((2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 17, 20,
                         60, 150, 250, 300, 350, 1000), MODES * 7))

#: One cli deck, as (vertices, mode, file format, command), where a command
#: of None is drawn by the seed.  The 16 small files come in both formats.
#: Four large files get fixed commands, so every seed does the same large
#: work; their sizes are spread, as in the ingest deck, so that the p90 op
#: falls among costs that differ in small steps.
CLI_DECK = tuple((n, mode, fmt, None) for fmt in (".pnet", ".json")
                 for n, mode in zip((2, 4, 6, 9, 12, 16, 20, 60), MODES * 3)) + (
    (300, "FNSN", ".pnet", "validate"), (400, "PNSN", ".pnet", "render"),
    (500, "PFNSN", ".pnet", "convert"), (800, "FNSN", ".json", "render"))

#: The query workload's nets, one per mode.
QUERY_SIZES = {"FNSN": 500, "PNSN": 1000, "PFNSN": 2000}


def smoke_size(n: int) -> int:
    """Minimal sizes for the self-test: same shape, tiny nets."""
    return min(n, 12)
