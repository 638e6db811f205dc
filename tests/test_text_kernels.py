"""The text layer against frozen copies of its former implementations.

``format_net``, ``to_dot``, ``parse_net`` and ``from_json`` share values,
write determinate entries inline and check well-formed elements inline.
The ``matrices`` command writes its tables from the tensor's stored entries.
The reference copies below build and check each entry on its own, and write
every cell of the dense tables, as the library once did, and must give
byte-identical text, an equal net, or an error of the same type with the
same location and message.  The token parser and the small helpers the
copies call (``_tokenize``, ``_field``, ``_located``, …) are shared, not
copied.
"""
from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarnet.analysis import normalize
from polarnet.cli import _cmd_matrices
from polarnet.core import (ChannelTriple, NetError, NetMode, NeutroValue,
                           SemanticNet, entry_problem, fmt_number)
from polarnet.dsl import (ParseError, _Cursor, _ESCAPE_SEQ, _ESCAPES,
                          _EDGE_LINE, _parse_edge, _parse_header, _parse_vertex,
                          _quote, _tokenize, _VERTEX_LINE, format_net, parse_net)
from polarnet.io import (SchemaError, _dot_escape, _field, _located, from_json,
                         to_dot, to_json)
from polarnet.matrix import adjacency_tensor, membership_matrix

import strategies as fixtures
from strategies import _json_slots, json_documents, mutated_pnet, nets
from test_io import _nets_with_any_text, _with_text
from test_scale import large_net

# -- reference copies --------------------------------------------------------

_set_magnitude = NeutroValue.magnitude.__set__
_set_flag = NeutroValue.indeterminate.__set__


def ref_value(magnitude, indeterminate=False) -> NeutroValue:
    """``NeutroValue(magnitude, indeterminate)`` as its former ``__init__``:
    type test, conversion, then ``entry_problem`` on every value."""
    if (not isinstance(magnitude, (int, float)) or type(magnitude) is bool
            or type(indeterminate) is not bool):
        raise TypeError(f"a degree must be a number and indeterminate a "
                        f"bool, got {magnitude!r} and {indeterminate!r}")
    try:
        x = float(magnitude)
    except OverflowError:
        x = math.inf if magnitude > 0 else -math.inf
    value = object.__new__(NeutroValue)
    _set_magnitude(value, x or 0.0)
    _set_flag(value, indeterminate)
    problem = entry_problem(None, value)
    if problem:
        raise problem
    return value


def ref_entry_text(value: NeutroValue) -> str:
    if value.indeterminate:
        if value.magnitude == 1.0:
            return "I"
        return fmt_number(value.magnitude) + "I"
    return fmt_number(value.magnitude)


def ref_triple_text(triple: ChannelTriple) -> str:
    return f"({', '.join(ref_entry_text(v) for v in triple)})"


def ref_format_net(net: SemanticNet) -> str:
    lines = [f"net {net.mode.value.lower()} {_quote(net.name)} scale "
             + " ".join(fmt_number(s) for s in net.scale)]
    vertices = net.vertices
    for v in vertices:
        line = f"vertex {v.label} {ref_triple_text(v.membership)}"
        if v.indeterminate:
            line += " indeterminate"
        lines.append(line)
    for e in net.edges:
        line = f"edge {vertices[e.src].label} -> {vertices[e.dst].label}"
        if e.label:
            line += f" label {_quote(e.label)}"
        line += f" {ref_triple_text(e.weight)}"
        if e.indeterminate:
            line += " indeterminate"
        lines.append(line)
    return "\n".join(lines) + "\n"


def ref_to_dot(net: SemanticNet) -> str:
    out = ["digraph {"] if not net.name else [
        f'digraph "{_dot_escape(net.name)}" {{']
    indeterminate_count = 0
    vertices, scale = net.vertices, net.scale
    for v in vertices:
        norm = normalize(v.membership, scale)
        text, style = v.label, ""
        if v.indeterminate:
            indeterminate_count += 1
            text, style = f"N_{indeterminate_count} {text}", ", style=dotted"
        out.append(f'  "{v.label}" [label="{text}\\n({norm.p:.2f}, {norm.u:.2f}, '
                   f'{norm.n:.2f})"{style}];')
    for e in net.edges:
        weight = ref_triple_text(e.weight)
        text = _dot_escape(f"{e.label} {weight}" if e.label else weight)
        style = ", style=dotted" if e.indeterminate else ""
        out.append(f'  "{vertices[e.src].label}" -> "{vertices[e.dst].label}" '
                   f'[label="{text}"{style}];')
    out.append("}")
    return "\n".join(out) + "\n"


def _ref_table(rows: list[list[str]]) -> str:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(widths[c]) for c, cell in enumerate(row[1:], start=1)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def ref_cmd_matrices(net: SemanticNet) -> tuple[int, str]:
    """``cli._cmd_matrices`` as it once was: every cell of the dense tables,
    each table held whole to size its columns, and the document joined."""
    mm = membership_matrix(net)
    tensor = adjacency_tensor(net)
    channels = net.mode.channel_names
    blocks = []
    rows = [["membership", *channels]]
    rows += [[label, *(str(v) for v in row)]
             for label, row in zip(mm.labels, mm.rows)]
    blocks.append(_ref_table(rows))
    for k in range(3):
        rows = [[f"A_ij{k + 1}", *tensor.labels]]
        rows += [[label, *(str(v) for v in tensor.slices[k][i])]
                 for i, label in enumerate(tensor.labels)]
        blocks.append(_ref_table(rows))
    return 0, "\n\n".join(blocks) + "\n"


def _ref_pnet_value(text: str) -> NeutroValue:
    if text[-1] == "I":
        return ref_value(float(text[:-1] or 1.0), True)
    return ref_value(float(text))


def _ref_pnet_triple(texts, values) -> ChannelTriple:
    return ChannelTriple(*[values.get(text) or values.setdefault(
        text, _ref_pnet_value(text)) for text in texts])


def _ref_add_statement(net, line, values) -> bool:
    try:
        m = _VERTEX_LINE.fullmatch(line)
        if m is not None:
            label, *texts, flag = m.groups()
            net.add_vertex(label, _ref_pnet_triple(texts, values),
                           indeterminate=flag is not None)
            return True
        m = _EDGE_LINE.fullmatch(line)
        if m is None:
            return False
        src_label, dst_label, label, *texts, flag = m.groups()
        src = net.find_vertex(src_label)
        dst = net.find_vertex(dst_label)
        if src is None or dst is None:
            return False
        if label and "\\" in label:
            label = _ESCAPE_SEQ.sub(lambda esc: _ESCAPES[esc.group(1)], label)
        net.add_edge(src.id, dst.id, _ref_pnet_triple(texts, values),
                     label=label or "", indeterminate=flag is not None)
        return True
    except NetError:
        return False


def ref_parse_net(source: str) -> SemanticNet:
    net = None
    values: dict = {}
    for lineno, raw in enumerate(source.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        if net is not None and _ref_add_statement(net, line, values):
            continue
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno, line)
        head = tokens[0]
        if net is None:
            if head.kind != "word" or head.text != "net":
                raise ParseError(lineno, head.col, "net header expected")
            cur.pos += 1
            net = _parse_header(cur)
        elif head.kind == "word" and head.text == "net":
            raise ParseError(lineno, head.col, "duplicate net header")
        elif head.kind == "word" and head.text == "vertex":
            cur.pos += 1
            _parse_vertex(cur, net)
        elif head.kind == "word" and head.text == "edge":
            cur.pos += 1
            _parse_edge(cur, net)
        else:
            raise ParseError(lineno, head.col,
                             f"statement expected (vertex or edge), "
                             f"found {head.text!r}")
        cur.expect_end()
    if net is None:
        raise ParseError(1, 1, "net header expected")
    return net


def _ref_json_triple(obj, key, path, values) -> ChannelTriple:
    entries = _field(obj, key, path, list)
    if len(entries) != 3:
        raise SchemaError(f"{path}.{key}",
                          f"3 channel entries expected, got {len(entries)}")
    triple = []
    for k, entry in enumerate(entries):
        if type(entry) is not dict:
            problem = "object expected"
        elif len(entry) != 1 or not ((flag := "i" in entry) or "d" in entry):
            problem = 'exactly one of "d" or "i" expected'
        elif type(x := entry["i" if flag else "d"]) not in (int, float):
            problem = "number expected"
        else:
            flagged = (x, flag)
            try:
                triple.append(values.get(flagged)
                              or values.setdefault(flagged, ref_value(x, flag)))
                continue
            except NetError as exc:
                problem = str(exc)
        raise SchemaError(f"{path}.{key}[{k}]", problem)
    return ChannelTriple(*triple)


def _ref_known_keys(obj, path, known) -> None:
    """An object's keys, checked after its fields: the first unknown one."""
    for key in obj:
        if key not in known:
            raise SchemaError(path, f"unknown field {json.dumps(key)}")


def ref_from_json(text: str) -> SemanticNet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"malformed JSON: {exc.msg} "
                          f"(line {exc.lineno} column {exc.colno})") from exc
    except RecursionError:
        raise SchemaError("$", "malformed JSON: arrays or objects nested "
                          "too deeply") from None
    except ValueError as exc:
        raise SchemaError("$", f"malformed JSON: {exc}") from exc
    if type(doc) is not dict:
        raise SchemaError("$", "object expected")
    mode_name = _field(doc, "mode", "$", str)
    try:
        mode = NetMode(mode_name)
    except ValueError:
        raise SchemaError("$.mode", f"unknown mode {mode_name!r} "
                          "(expected FNSN, PNSN or PFNSN)") from None
    name = _field(doc, "name", "$", str)
    scale = _field(doc, "scale", "$", list)
    if len(scale) != 3:
        raise SchemaError("$.scale", f"3 components expected, got {len(scale)}")
    if bad := [k for k, s in enumerate(scale) if type(s) not in (int, float)]:
        raise SchemaError(f"$.scale[{bad[0]}]", "number expected")
    try:
        net = SemanticNet(mode, name, scale)
    except NetError as exc:
        raise _located(exc, "$", "scale") from exc
    if doc.get("directed", True) is not True:
        raise SchemaError("$.directed", "only directed nets are supported")
    _ref_known_keys(doc, "$", ("mode", "name", "scale", "vertices", "edges",
                               "directed"))

    id_map: dict = {}
    values: dict = {}
    for i, obj in enumerate(_field(doc, "vertices", "$", list)):
        path = f"$.vertices[{i}]"
        if type(obj) is not dict:
            raise SchemaError(path, "object expected")
        ext_id = _field(obj, "id", path, int)
        if ext_id in id_map:
            raise SchemaError(f"{path}.id", f"duplicate vertex id {ext_id}")
        label = _field(obj, "label", path, str)
        indeterminate = _field(obj, "indeterminate", path, bool, False)
        membership = _ref_json_triple(obj, "membership", path, values)
        _ref_known_keys(obj, path, ("id", "label", "indeterminate", "membership"))
        try:
            id_map[ext_id] = net.add_vertex(label, membership, indeterminate)
        except NetError as exc:
            raise _located(exc, path, "membership") from exc

    for i, obj in enumerate(_field(doc, "edges", "$", list)):
        path = f"$.edges[{i}]"
        if type(obj) is not dict:
            raise SchemaError(path, "object expected")
        src = _field(obj, "src", path, int)
        if src not in id_map:
            raise SchemaError(f"{path}.src", f"unknown vertex id {src}")
        dst = _field(obj, "dst", path, int)
        if dst not in id_map:
            raise SchemaError(f"{path}.dst", f"unknown vertex id {dst}")
        label = _field(obj, "label", path, str, "")
        indeterminate = _field(obj, "indeterminate", path, bool, False)
        weight = _ref_json_triple(obj, "weight", path, values)
        _ref_known_keys(obj, path, ("src", "dst", "label", "indeterminate", "weight"))
        try:
            net.add_edge(id_map[src], id_map[dst], weight, label, indeterminate)
        except NetError as exc:
            raise _located(exc, path, "weight") from exc
    return net


# -- comparison ----------------------------------------------------------------

def _outcome(load, text):
    """The loaded net, or the error's type, location and message."""
    try:
        return load(text)
    except ParseError as exc:
        return ParseError, exc.line, exc.column, exc.message
    except SchemaError as exc:
        return SchemaError, exc.path, exc.message


def assert_loads_alike(load, ref_load, text):
    got, expected = _outcome(load, text), _outcome(ref_load, text)
    assert got == expected
    if isinstance(got, SemanticNet):
        assert format_net(got) == ref_format_net(expected)


def assert_writes_alike(net):
    assert format_net(net) == ref_format_net(net)
    assert to_dot(net) == ref_to_dot(net)


# -- the writers -------------------------------------------------------------

@given(st.one_of(nets(), _nets_with_any_text()))
@example(_with_text(fixtures.s1(), 'a"b\\c\nd\re', ['q"\\\r\n\t', "", "\u00e9"]))
@example(fixtures.s1())
@example(fixtures.s2())
@example(fixtures.s3())
def test_writers_match_the_reference(net):
    assert_writes_alike(net)


def test_writers_match_the_reference_on_a_large_net():
    net = large_net(1)
    assert_writes_alike(net)
    assert_loads_alike(parse_net, ref_parse_net, format_net(net))
    assert_loads_alike(from_json, ref_from_json, to_json(net))


def test_a_shared_value_prints_alike_in_every_entry():
    net = SemanticNet(NetMode.PFNSN, "x", (3, 2, 1))
    half, one = NeutroValue(0.5, True), NeutroValue(1.0, True)
    net.add_vertex("a", (half, NeutroValue(0.5), one))
    net.add_vertex("b", (1e-7, one, half), indeterminate=True)
    net.add_edge(0, 1, (NeutroValue(0.5), half, one), "w\\\"x\n")
    assert_writes_alike(net)
    assert format_net(net).splitlines()[1:] == [
        "vertex a (0.5I, 0.5, I)", "vertex b (1e-07, I, 0.5I) indeterminate",
        'edge a -> b label "w\\\\\\"x\\n" (0.5, 0.5I, I)']


def assert_matrices_alike(net):
    code, pieces = _cmd_matrices(net, None)
    assert (code, "".join(pieces)) == ref_cmd_matrices(net)


@st.composite
def _nets_with_long_labels(draw):
    """A net whose vertex labels are lengthened, some past their cells."""
    net = draw(nets(allow_zero_weight_edges=True))
    out = SemanticNet(net.mode, net.name, net.scale)
    for i, v in enumerate(net.vertices):  # the index keeps labels unique
        label = f"{v.label}_{'x' * draw(st.integers(0, 40))}{i}"
        out.add_vertex(label, v.membership, v.indeterminate)
    for e in net.edges:
        out.add_edge(e.src, e.dst, e.weight, e.label, e.indeterminate)
    return out


def _vertices_only(*labels):
    net = SemanticNet(NetMode.PNSN, "v")
    for label in labels:
        net.add_vertex(label, (3, 0, 0), True)
    return net


def _one_zero_edge():
    net = _vertices_only("a", "b")
    net.add_edge(0, 1, (0, 0, 0))
    return net


@given(st.one_of(nets(allow_zero_weight_edges=True), _nets_with_long_labels()))
@example(SemanticNet(NetMode.FNSN, ""))
@example(_vertices_only("a", "b"))
@example(_vertices_only("a" * 60))
@example(_one_zero_edge())
@example(fixtures.s1())
@example(fixtures.s2())
@example(fixtures.s3())
def test_matrices_match_the_reference(net):
    assert_matrices_alike(net)


def test_matrices_match_the_reference_on_the_800_vertex_net():
    assert_matrices_alike(large_net(seed=800, vertices=800, edges=3200))


_entries = st.one_of(
    st.builds(NeutroValue, st.floats(min_value=0.0, allow_nan=False,
                                     allow_infinity=False)),
    st.builds(NeutroValue.indeterminacy,
              st.floats(min_value=0.0, max_value=1.0, exclude_min=True)))


@given(_entries, _entries, _entries)
@example(NeutroValue(1e15), NeutroValue(1e16 - 2), NeutroValue(1e16))
@example(NeutroValue(2.0 ** 53 + 2), NeutroValue(5e-324), NeutroValue(1e308))
@example(NeutroValue.indeterminacy(), NeutroValue.indeterminacy(0.5),
         NeutroValue(0.0))
def test_a_triple_prints_as_the_reference_over_the_whole_float_range(a, b, c):
    triple = ChannelTriple(a, b, c)
    assert str(triple) == ref_triple_text(triple)


# -- the .pnet loader ------------------------------------------------------------

@settings(max_examples=400)
@given(st.one_of(mutated_pnet(), nets().map(format_net),
                 _nets_with_any_text().map(format_net)))
@example('net pfnsn "x"\nvertex a (1, 0, 0)\n  edge a -> a (0, 0, 0)\n')
@example('net pfnsn "x"\nvertex a (1, 0, 0)\n\tvertex b (I, 0, 0)\nedge a -> b (0, 0, 1)')
@example('net pfnsn "x"\nvertex a (1, 0, 0)\nvertex b (1, 0, 0)\n'
         'edgea -> b (0, 0, 1)\nedge a -> b (0, 0, 1)')
@example('net pfnsn "x"\nvertexa (1, 0, 0)\n')
@example('net pfnsn "x"\nvertex a (1, 0, 2I)\n')
@example('net pfnsn "x"\nvertex a (1, 0, 1e999)\n')
@example('net pfnsn "x"\nvertex a (1, 0, 0)\nedge a -> zz (0, 0, 1)\n')
@example('net pfnsn "x"\nvertex edge (1, 0, 0)\nvertex vertex (0, 0, 1)\n'
         'edge edge -> vertex label "a\\tb" (0.5I, I, 1) indeterminate # c\r\n')
def test_parse_net_matches_the_reference(text):
    assert_loads_alike(parse_net, ref_parse_net, text)


# -- the JSON loader -------------------------------------------------------------

# Raw JSON texts written in place of a value: wrong types, non-finite and
# out-of-range numbers, an integer over the 4300-digit limit, negative zero,
# ``1`` and ``1.0``, and lone surrogates.
RAW_VALUES = ["true", "false", "null", '"1"', "[]", "{}", '{"d": 1, "i": 1}',
              "NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" * 4301,
              "1" + "0" * 400, "-0.0", "-0", "0", "1", "1.0", "-1", "2", "0.5",
              "1e-320", '"\\ud800"', '"x\\udfff"', '"\\ud83d\\ude00"', '"a"',
              '"FNSN"', '{"d": 0.5}', '[{"d": 1}, {"d": 0}, {"i": 1}]']
EXTRA_KEYS = ["x", "d", "i", "id", "label", "indeterminate", "directed"]


def _entry_paths(doc):
    return [path for path in _json_slots(doc)
            if len(path) == 4 and path[2] in ("membership", "weight")]


@st.composite
def mutated_json(draw) -> str:
    """A valid document with one to three values replaced by raw JSON texts,
    keys removed or added, or two entries of one flag set to ``1`` and
    ``1.0``."""
    doc = json.loads(to_json(draw(nets(max_vertices=4))))
    raws: list[str] = []

    def raw(text):
        raws.append(text)
        return f"@raw{len(raws) - 1}@"

    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_slots(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["replace", "delete", "extra", "pair"]))
        entries = _entry_paths(doc)
        if kind == "pair" and len(entries) >= 2:
            flag = draw(st.sampled_from("di"))
            texts = draw(st.permutations(["1", "1.0"]))
            for entry, text in zip(draw(st.lists(st.sampled_from(entries),
                                                 min_size=2, max_size=2,
                                                 unique=True)), texts):
                owner = doc
                for key in entry[:-1]:
                    owner = owner[key]
                owner[entry[-1]] = {flag: raw(text)}
        elif not path:
            return draw(st.sampled_from(RAW_VALUES))
        elif kind == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif kind == "extra" and isinstance(parent, dict):
            parent[draw(st.sampled_from(EXTRA_KEYS))] = raw(
                draw(st.sampled_from(RAW_VALUES)))
        else:
            parent[path[-1]] = raw(draw(st.sampled_from(RAW_VALUES)))
    return _dumps(doc, *raws)


def _dumps(doc, *raws: str) -> str:
    """``doc`` as JSON text, with the k-th raw text in place of "@raw<k>@"."""
    text = json.dumps(doc)
    for k, value in enumerate(raws):
        text = text.replace(f'"@raw{k}@"', value)
    return text


def _s1_edited(edit, *raws: str) -> str:
    doc = json.loads(to_json(fixtures.s1()))
    edit(doc)
    return _dumps(doc, *raws)


def _s1_with(path, raw: str, flag: str | None = None) -> str:
    """S1's document with ``raw`` at ``path``, as the entry ``{flag: raw}``
    when a flag is given."""
    def edit(doc):
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = "@raw0@" if flag is None else {flag: "@raw0@"}
    return _s1_edited(edit, raw)


def _large_edited(edit, *raws: str) -> str:
    """The document of a 300-vertex, 1200-edge net, edited near its end."""
    doc = json.loads(to_json(large_net(3, vertices=300, edges=1200)))
    edit(doc)
    return _dumps(doc, *raws)


def _last_edge_repeated(doc):
    doc["edges"].append(dict(doc["edges"][-1]))


def _last_entry_above_scale(doc):
    doc["edges"][-1]["weight"][2] = {"d": "@raw0@"}


def _one_then_one_point_zero(doc):
    doc["vertices"][0]["membership"][0] = {"d": "@raw0@"}
    doc["vertices"][1]["membership"][0] = {"d": "@raw1@"}


@settings(max_examples=400)
@given(st.one_of(mutated_json(), json_documents()))
@example(_s1_with(("vertices", 1, "id"), "true"))
@example(_s1_with(("edges", 0, "src"), "true"))
@example(_s1_with(("vertices", 0, "membership", 1), "NaN", "d"))
@example(_s1_with(("vertices", 0, "membership", 1), "NaN", "i"))
@example(_s1_with(("edges", 2, "weight", 0), "1e999", "d"))
@example(_s1_with(("edges", 2, "weight", 0), "1" * 4301, "d"))
@example(_s1_with(("vertices", 3, "membership", 0), "-0.0", "d"))
@example(_s1_with(("vertices", 3, "membership", 0), "true", "d"))
@example(_s1_with(("vertices", 3, "membership", 0), "0", "i"))
@example(_s1_with(("edges", 1, "label"), '"\\ud800"'))
@example(_s1_with(("edges", 1, "label"), '"\\u00e9\\udfff"'))
@example(_s1_with(("edges", 1, "label"), '"\\u00e9t\\u00e9"'))
@example(_s1_with(("vertices", 2, "label"), '"night"'))
@example(_s1_with(("edges", 0, "dst"), "0"))
@example(_s1_with(("edges", 2, "dst"), "1"))
@example(_s1_with(("edges", 0, "weight", 0), "2.9", "d"))
@example(_s1_edited(lambda doc: doc["vertices"][0].pop("label")))
@example(_s1_edited(lambda doc: doc["edges"][0].pop("weight")))
@example(_s1_edited(lambda doc: doc["edges"][0]["weight"][1].update(i=1)))
@example(_s1_edited(lambda doc: doc["vertices"][1].update(extra=[1])))
@example(_s1_edited(lambda doc: doc.update(directd=False)))
@example(_s1_edited(lambda doc: doc["edges"][0]["weight"].pop()))
@example(_s1_edited(_one_then_one_point_zero, "1", "1.0"))
@example(_s1_edited(_one_then_one_point_zero, "1.0", "1"))
@example(_large_edited(_last_edge_repeated))
@example(_large_edited(_last_entry_above_scale, "1.5"))
@example(_s1_with(("vertices", 3), "1", "d"))
@example(_s1_with(("edges", 2), "1", "d"))
@example('{"d": 1}')
@example(_s1_with(("scale", 0), "1", "d"))
@example(_s1_with(("name",), "1", "d"))
@example(_s1_with(("mode",), "1", "d"))
@example(_s1_with(("directed",), "1", "d"))
@example(_s1_with(("edges", 2, "weight", 2), '{"d": 1, "i": 1}'))
@example(_s1_with(("edges", 2, "weight", 2), "NaN", "d"))
@example(_s1_with(("edges", 2, "weight", 2), "0", "i"))
@example(_s1_with(("edges", 2, "weight", 2), "true", "d"))
def test_from_json_matches_the_reference(text):
    assert_loads_alike(from_json, ref_from_json, text)


# -- NeutroValue on its fast path --------------------------------------------

@pytest.mark.parametrize("args,message", [
    ((True,), "a degree must be a number and indeterminate a bool, "
              "got True and False"),
    (("1",), "a degree must be a number and indeterminate a bool, "
             "got '1' and False"),
    ((1, 1), "a degree must be a number and indeterminate a bool, "
             "got 1 and 1"),
    ((0.5, None), "a degree must be a number and indeterminate a bool, "
                  "got 0.5 and None"),
], ids=["bool", "str", "int-with-int-flag", "float-with-none-flag"])
def test_value_type_errors_keep_their_text(args, message):
    with pytest.raises(TypeError) as info:
        NeutroValue(*args)
    assert str(info.value) == message
    with pytest.raises(TypeError) as ref:
        ref_value(*args)
    assert str(ref.value) == message


@pytest.mark.parametrize("magnitude", [-0.0, -0, 0, 0.0])
def test_negative_zero_is_stored_as_zero(magnitude):
    value = NeutroValue(magnitude)
    assert value.magnitude == 0.0 and math.copysign(1.0, value.magnitude) == 1.0
    assert type(value.magnitude) is float


@pytest.mark.parametrize("args,kind,message", [
    ((math.inf,), "non-finite",
     "determinate degree inf is not a finite nonnegative real"),
    ((-math.inf,), "non-finite",
     "determinate degree -inf is not a finite nonnegative real"),
    ((math.nan,), "non-finite",
     "determinate degree nan is not a finite nonnegative real"),
    ((-0.5,), "non-finite",
     "determinate degree -0.5 is not a finite nonnegative real"),
    ((10**400,), "non-finite",
     "determinate degree inf is not a finite nonnegative real"),
    ((0, True), "coefficient", "indeterminacy coefficient 0.0 outside (0, 1]"),
    ((-0.0, True), "coefficient", "indeterminacy coefficient 0.0 outside (0, 1]"),
    ((1.5, True), "coefficient", "indeterminacy coefficient 1.5 outside (0, 1]"),
    ((math.nan, True), "coefficient",
     "indeterminacy coefficient nan outside (0, 1]"),
    ((math.inf, True), "coefficient",
     "indeterminacy coefficient inf outside (0, 1]"),
])
def test_domain_errors_keep_their_kind_and_text(args, kind, message):
    for build in (NeutroValue, ref_value):
        with pytest.raises(NetError) as info:
            build(*args)
        assert (info.value.kind, info.value.channel, str(info.value)) == (
            kind, None, message)


@given(st.one_of(st.floats(), st.integers(-3, 3), st.just(10**400)),
       st.booleans())
def test_values_build_as_the_reference(magnitude, flag):
    try:
        expected = ref_value(magnitude, flag)
    except NetError as exc:
        with pytest.raises(NetError) as info:
            NeutroValue(magnitude, flag)
        assert (info.value.kind, str(info.value)) == (exc.kind, str(exc))
        return
    value = NeutroValue(magnitude, flag)
    assert value == expected
    assert repr(value.magnitude) == repr(expected.magnitude)
    assert str(value) == ref_entry_text(expected)
