"""Reference results computed from the benchmark's own net models.

Everything here follows polarnet's documented rules and reads only
``gen.NetModel`` values; it never calls polarnet.  ``compare_*`` functions
take polarnet's outputs and return a list of mismatch descriptions (empty
when the output is correct).
"""
from __future__ import annotations

import json

from gen import NetModel, entry_text, to_pnet, triple_text

TOLERANCE = 1e-9
CLASS_FLAGS = ("has_indeterminate_vertex", "has_indeterminate_edge",
               "is_point_graph", "is_edge_graph", "is_strongly_neutrosophic",
               "is_neutrosophic_simple")


# -- documented rules ----------------------------------------------------------

def normalize(triple, scale):
    """Divide by the channel scale; n*I gives 0 and sets the flag."""
    comps = []
    flag = False
    for (kind, x), mx in zip(triple, scale):
        if kind == "i":
            comps.append(0.0)
            flag = True
        else:
            comps.append(x / mx)
    return comps[0], comps[1], comps[2], flag


def classify(net: NetModel) -> dict:
    has_iv = any(net.vertex_marks)
    has_ie = any(e[4] for e in net.edges)
    # Generated nets have no loops and no duplicate edges, so they are simple.
    return dict(zip(CLASS_FLAGS, (has_iv, has_ie, has_iv, has_ie,
                                  has_iv and has_ie, True)))


def polar_select(net: NetModel, vid: int, preference: str) -> list:
    """Ranked out-neighbors as (vertex id, (p, u, n, flag), score).

    Combined triple: channel-wise mean of the normalized edge weight and
    neighbor membership; score p - n.  Positive: score descending; negative:
    score ascending; neutral: u descending.  Ties: lower u, then label.
    """
    rows = []
    for k in net.out[vid]:
        _, dst, _, weight, _ = net.edges[k]
        ep, eu, en, ef = normalize(weight, net.scale)
        vp, vu, vn, vf = normalize(net.memberships[dst], net.scale)
        c = ((ep + vp) / 2.0, (eu + vu) / 2.0, (en + vn) / 2.0, ef or vf)
        rows.append((dst, c, c[0] - c[2]))
    label = net.labels
    if preference == "positive":
        rows.sort(key=lambda r: (-r[2], r[1][1], label[r[0]]))
    elif preference == "negative":
        rows.sort(key=lambda r: (r[2], r[1][1], label[r[0]]))
    else:
        rows.sort(key=lambda r: (-r[1][1], label[r[0]]))
    return rows


def net_polarity(net: NetModel, threshold: float = 0.1):
    """Mean normalized triple over all memberships and weights, and label."""
    triples = [normalize(m, net.scale) for m in net.memberships]
    triples += [normalize(e[3], net.scale) for e in net.edges]
    count = len(triples)
    p = sum(t[0] for t in triples) / count
    u = sum(t[1] for t in triples) / count
    n = sum(t[2] for t in triples) / count
    score = p - n
    label = ("positive" if score > threshold
             else "negative" if score < -threshold else "neutral")
    return (p, u, n), label


# -- reference text renderings --------------------------------------------------

def _dot_escape(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r"))


def dot(net: NetModel) -> str:
    """DOT as documented: normalized vertex triples to two decimals, N_k
    prefixes and dotted style for indeterminate vertices, raw edge triples."""
    out = [f'digraph "{_dot_escape(net.name)}" {{' if net.name else "digraph {"]
    count = 0
    for label, membership, mark in zip(net.labels, net.memberships,
                                       net.vertex_marks):
        p, u, n, _ = normalize(membership, net.scale)
        text = _dot_escape(label)
        if mark:
            count += 1
            text = f"N_{count} {text}"
        attrs = f'label="{text}\\n({p:.2f}, {u:.2f}, {n:.2f})"'
        if mark:
            attrs += ", style=dotted"
        out.append(f'  "{_dot_escape(label)}" [{attrs}];')
    for src, dst, label, weight, mark in net.edges:
        text = _dot_escape(f"{label} {triple_text(weight)}" if label
                           else triple_text(weight))
        attrs = f'label="{text}"' + (", style=dotted" if mark else "")
        out.append(f'  "{_dot_escape(net.labels[src])}" -> '
                   f'"{_dot_escape(net.labels[dst])}" [{attrs}];')
    out.append("}")
    return "\n".join(out) + "\n"


def _g(x: float) -> str:
    return f"{x:.6g}"


def cli_select(net: NetModel, vid: int, preference: str) -> str:
    return "".join(
        f"{rank}. {net.labels[dst]} score={_g(score)} "
        f"({_g(c[0])}, {_g(c[1])}, {_g(c[2])})\n"
        for rank, (dst, c, score) in enumerate(
            polar_select(net, vid, preference), start=1))


def cli_polarity(net: NetModel) -> str:
    (p, u, n), label = net_polarity(net)
    return f"summary ({_g(p)}, {_g(u)}, {_g(n)})\nlabel {label}\n"


def cli_classify(net: NetModel) -> str:
    return "".join(f"{k}={'true' if v else 'false'}\n"
                   for k, v in classify(net).items())


def _table(rows: list) -> str:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join([row[0].ljust(widths[0])]
                  + [cell.rjust(widths[c]) for c, cell in enumerate(row[1:], 1)]
                  ).rstrip()
        for row in rows)


def cli_matrices(net: NetModel) -> str:
    channels = ("t", "i", "f") if net.mode == "FNSN" else ("p", "u", "n")
    blocks = [_table([["membership", *channels]]
                     + [[label, *(entry_text(e) for e in m)]
                        for label, m in zip(net.labels, net.memberships)])]
    n = len(net.labels)
    for k in range(3):
        grid = [["0"] * n for _ in range(n)]
        for src, dst, _, weight, _ in net.edges:
            grid[src][dst] = entry_text(weight[k])
        blocks.append(_table([[f"A_ij{k + 1}", *net.labels]]
                             + [[label, *grid[i]]
                                for i, label in enumerate(net.labels)]))
    return "\n\n".join(blocks) + "\n"


# -- comparisons against polarnet objects ---------------------------------------

def _entry_of(value) -> tuple:
    return ("i" if value.indeterminate else "d", value.magnitude)


def triple_of(triple) -> tuple:
    return (_entry_of(triple.c1), _entry_of(triple.c2), _entry_of(triple.c3))


def matrices_model(net: NetModel) -> NetModel:
    """The net that ``from_matrices`` must rebuild: no edge labels, edges in
    row-major (src, dst) order, marks wherever a triple holds n*I."""
    def mark(t):
        return any(kind == "i" for kind, _ in t)
    out = NetModel(net.mode, net.name, net.scale)
    for label, m in zip(net.labels, net.memberships):
        out.add_vertex(label, m, mark(m))
    for src, dst, _, w, _ in sorted(net.edges, key=lambda e: (e[0], e[1])):
        out.add_edge(src, dst, "", w, mark(w))
    return out


def compare_net(obj, net: NetModel) -> list:
    """Compare a polarnet ``SemanticNet`` with the model, field by field."""
    if obj.mode.value != net.mode:
        return [f"mode {obj.mode.value} != {net.mode}"]
    if obj.name != net.name or tuple(obj.scale) != net.scale:
        return ["name or scale differs"]
    if len(obj.vertices) != len(net.labels) or len(obj.edges) != len(net.edges):
        return [f"size {len(obj.vertices)}/{len(obj.edges)} != "
                f"{len(net.labels)}/{len(net.edges)}"]
    for pos, v in enumerate(obj.vertices):
        if (v.id, v.label, triple_of(v.membership), v.indeterminate) != (
                pos, net.labels[pos], net.memberships[pos],
                net.vertex_marks[pos]):
            return [f"vertex {pos} differs"]
    for k, e in enumerate(obj.edges):
        if (e.src, e.dst, e.label, triple_of(e.weight), e.indeterminate) != \
                net.edges[k]:
            return [f"edge {k} differs"]
    return []


def _json_entry(obj) -> tuple:
    (kind, x), = obj.items()
    return (kind, x)


def compare_json_text(text: str, net: NetModel) -> list:
    """Read a JSON document back with ``json.loads`` and compare it."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"invalid JSON: {exc}"]
    if (doc.get("mode"), doc.get("name"), tuple(doc.get("scale", ()))) != (
            net.mode, net.name, net.scale):
        return ["JSON header differs"]
    verts = [(v["label"], tuple(_json_entry(e) for e in v["membership"]),
              v["indeterminate"]) for v in doc["vertices"]]
    if verts != list(zip(net.labels, net.memberships, net.vertex_marks)):
        return ["JSON vertices differ"]
    pos = {v["id"]: i for i, v in enumerate(doc["vertices"])}
    edges = [(pos[e["src"]], pos[e["dst"]], e["label"],
              tuple(_json_entry(x) for x in e["weight"]), e["indeterminate"])
             for e in doc["edges"]]
    if edges != net.edges:
        return ["JSON edges differ"]
    return []


def compare_text(text: str, expected: str, what: str) -> list:
    if text == expected:
        return []
    line = next((i for i, (a, b) in enumerate(
        zip(text.split("\n"), expected.split("\n")), 1) if a != b), None)
    return [f"{what} differs (first at line {line})"]


def compare_pnet_text(text: str, net: NetModel) -> list:
    return compare_text(text, to_pnet(net, canonical=True), "pnet")


def compare_selection(result, expected: list) -> list:
    """Compare a polarnet ``SelectionResult`` with a reference ranking."""
    ranked = result.ranked
    if [r.vertex_id for r in ranked] != [row[0] for row in expected]:
        return ["ranking order differs"]
    for r, (_, c, score) in zip(ranked, expected):
        got = r.combined
        if (abs(got.p - c[0]) > TOLERANCE or abs(got.u - c[1]) > TOLERANCE
                or abs(got.n - c[2]) > TOLERANCE or got.has_indeterminacy != c[3]
                or abs(r.score - score) > TOLERANCE):
            return ["ranking values differ"]
    return []


def compare_polarity(result, net: NetModel) -> list:
    summary, label = result
    (p, u, n), exp_label = net_polarity(net)
    if (abs(summary.p - p) > TOLERANCE or abs(summary.u - u) > TOLERANCE
            or abs(summary.n - n) > TOLERANCE or label.value != exp_label):
        return ["net polarity differs"]
    return []


def compare_classify(result, net: NetModel) -> list:
    if result.flags() != classify(net):
        return ["classification flags differ"]
    return []

