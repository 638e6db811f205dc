import json
import math
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polarnet.core import NetError, NetMode, SemanticNet
from polarnet.dsl import ParseError, parse_net
from polarnet.io import SchemaError, from_json, to_dot, to_json
from polarnet.matrix import adjacency_tensor

import strategies as fixtures
from strategies import json_documents, nets


def check_dot_well_formed(text):
    """Minimal DOT checks: balanced braces and terminated quoted strings."""
    depth = 0
    in_string = False
    escaped = False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            assert depth >= 0, "unbalanced closing brace"
    assert not in_string, "unterminated string"
    assert depth == 0, "unbalanced braces"


class TestToJson:
    def test_s3_document_shape(self, s3_net):
        doc = json.loads(to_json(s3_net))
        assert doc["mode"] == "PFNSN"
        assert len(doc["vertices"]) == 4
        assert list(doc) == ["mode", "name", "scale", "vertices", "edges"]
        assert doc["vertices"][0] == {
            "id": 0, "label": "Bob", "indeterminate": False,
            "membership": [{"d": 3.0}, {"d": 0.0}, {"d": 0.0}],
        }

    def test_empty_net(self):
        doc = json.loads(to_json(SemanticNet(NetMode.FNSN, "x")))
        assert doc["vertices"] == [] and doc["edges"] == []

    def test_roundtrip_fixture(self, s2_net):
        assert from_json(to_json(s2_net)) == s2_net

    def test_deterministic_for_equal_nets(self):
        assert to_json(fixtures.s1()) == to_json(fixtures.s1())


# (mutate, path, message) for a broken copy of S1's document.  These cases
# are named "<lambda>-<path>", as pytest names a lambda and a string, so
# their test ids stay stable; later cases have their own names.
_SCHEMA_CASES = [
    (lambda d: d.update(mode=3), "$.mode", "string expected"),
    (lambda d: d.update(mode="XXX"), "$.mode",
     "unknown mode 'XXX' (expected FNSN, PNSN or PFNSN)"),
    (lambda d: d.update(name=None), "$.name", "string expected"),
    (lambda d: d.update(scale=[3, 2]), "$.scale", "3 components expected, got 2"),
    (lambda d: d.update(scale=[3, 0, 1]), "$.scale[1]",
     "channel 2 scale must be positive and finite, got 0"),
    (lambda d: d.update(vertices={}), "$.vertices", "array expected"),
    (lambda d: d["vertices"][0].update(id="zero"), "$.vertices[0].id",
     "integer expected"),
    (lambda d: d["vertices"][0].update(label=4), "$.vertices[0].label",
     "string expected"),
    (lambda d: d["vertices"][0].update(label="not a word"), "$.vertices[0].label",
     "label 'not a word' must be an identifier "
     "(letters, digits, underscore; not starting with a digit)"),
    (lambda d: d["vertices"][1].update(label="night"), "$.vertices[1].label",
     "duplicate vertex label 'night'"),
    (lambda d: d["vertices"][0].update(membership=[{"d": 1}, {"d": 1}]),
     "$.vertices[0].membership", "3 channel entries expected, got 2"),
    (lambda d: d["vertices"][0]["membership"].__setitem__(1, {"x": 1}),
     "$.vertices[0].membership[1]", 'exactly one of "d" or "i" expected'),
    (lambda d: d["vertices"][0]["membership"].__setitem__(0, {"d": 99.0}),
     "$.vertices[0].membership[0]", "channel 1 degree 99 exceeds scale 3"),
    (lambda d: d["vertices"][0]["membership"].__setitem__(2, {"i": 1.5}),
     "$.vertices[0].membership[2]", "indeterminacy coefficient 1.5 outside (0, 1]"),
    (lambda d: d["edges"][0].update(dst=77), "$.edges[0].dst", "unknown vertex id 77"),
    (lambda d: d["edges"][0].update(dst=0), "$.edges[0]",
     "loop on vertex 'night' rejected"),
    (lambda d: d["edges"][1].update(src=0, dst=1), "$.edges[1]",
     "duplicate edge 'night' -> 'cold'"),
    (lambda d: d["edges"][0]["weight"].__setitem__(0, {"d": 50}),
     "$.edges[0].weight[0]", "channel 1 degree 50 exceeds scale 3"),
]
_MORE_SCHEMA_CASES = {
    "scale-true": (lambda d: d.update(scale=[3, 2, True]), "$.scale[2]",
                   "number expected"),
    "directed-1": (lambda d: d.update(directed=1), "$.directed",
                   "only directed nets are supported"),
    "vertex-array": (lambda d: d["vertices"].__setitem__(0, [0]), "$.vertices[0]",
                     "object expected"),
    "id-true": (lambda d: d["vertices"][0].update(id=True), "$.vertices[0].id",
                "integer expected"),
    "vertex-indeterminate-1": (lambda d: d["vertices"][0].update(indeterminate=1),
                               "$.vertices[0].indeterminate", "boolean expected"),
    "membership-object": (lambda d: d["vertices"][0].update(membership={}),
                          "$.vertices[0].membership", "array expected"),
    "entry-d-and-i": (
        lambda d: d["vertices"][0]["membership"].__setitem__(1, {"d": 0, "i": 1}),
        "$.vertices[0].membership[1]", 'exactly one of "d" or "i" expected'),
    "entry-empty": (lambda d: d["vertices"][0]["membership"].__setitem__(1, {}),
                    "$.vertices[0].membership[1]",
                    'exactly one of "d" or "i" expected'),
    "degree-true": (
        lambda d: d["vertices"][0]["membership"].__setitem__(0, {"d": True}),
        "$.vertices[0].membership[0]", "number expected"),
    "coefficient-string": (
        lambda d: d["vertices"][0]["membership"].__setitem__(0, {"i": "1"}),
        "$.vertices[0].membership[0]", "number expected"),
    "degree-huge-integer": (
        lambda d: d["vertices"][0]["membership"].__setitem__(0, {"d": 10**400}),
        "$.vertices[0].membership[0]",
        "determinate degree inf is not a finite nonnegative real"),
    "edge-string": (lambda d: d["edges"].__setitem__(0, "e"), "$.edges[0]",
                    "object expected"),
    "src-true": (lambda d: d["edges"][0].update(src=True), "$.edges[0].src",
                 "integer expected"),
    "edge-label-null": (lambda d: d["edges"][0].update(label=None),
                        "$.edges[0].label", "string expected"),
    "edge-indeterminate-no": (lambda d: d["edges"][0].update(indeterminate="no"),
                              "$.edges[0].indeterminate", "boolean expected"),
    "entry-number": (lambda d: d["edges"][0]["weight"].__setitem__(2, 0.5),
                     "$.edges[0].weight[2]", "object expected"),
}
_MORE_SCHEMA_CASES.update(
    (f"missing-{key}", (lambda d, key=key: d.pop(key), f"$.{key}", "missing field"))
    for key in ("mode", "name", "scale", "vertices", "edges"))
_MORE_SCHEMA_CASES.update(
    (f"missing-vertex-{key}", (lambda d, key=key: d["vertices"][0].pop(key),
                               f"$.vertices[0].{key}", "missing field"))
    for key in ("id", "label", "membership"))
_MORE_SCHEMA_CASES.update(
    (f"missing-edge-{key}", (lambda d, key=key: d["edges"][0].pop(key),
                             f"$.edges[0].{key}", "missing field"))
    for key in ("src", "dst", "weight"))


class TestFromJson:
    def test_serialized_fixture_reproduces_tensor(self, s1_net):
        rebuilt = from_json(to_json(s1_net))
        tensor = adjacency_tensor(rebuilt)
        assert tensor.slices[0][0][1].magnitude == 2.4
        assert tensor.slices[1][0][2].magnitude == 1.4
        assert tensor.slices[2][0][3].magnitude == 1.0

    def test_empty_object_reports_mode_path(self):
        with pytest.raises(SchemaError) as info:
            from_json("{}")
        assert info.value.path == "$.mode"

    def test_dangling_edge_endpoint_reports_path(self, s1_net):
        doc = json.loads(to_json(s1_net))
        doc["edges"][0]["src"] = 99
        with pytest.raises(SchemaError) as info:
            from_json(json.dumps(doc))
        assert info.value.path == "$.edges[0].src"

    def test_malformed_json(self):
        with pytest.raises(SchemaError) as info:
            from_json("{nope")
        assert info.value.path == "$"
        assert "malformed JSON" in info.value.message

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a": ' * 100_000,
                                      "[" * 100_000 + "]" * 100_000])
    def test_deep_nesting_is_a_schema_error(self, text):
        with pytest.raises(SchemaError) as info:
            from_json(text)
        assert info.value.path == "$"
        assert "nested too deeply" in info.value.message

    @pytest.mark.parametrize(
        "mutate,path,message",
        _SCHEMA_CASES + list(_MORE_SCHEMA_CASES.values()),
        ids=[f"<lambda>-{path}" for _, path, _ in _SCHEMA_CASES]
        + list(_MORE_SCHEMA_CASES))
    def test_schema_violations_report_paths(self, s1_net, mutate, path, message):
        doc = json.loads(to_json(s1_net))
        mutate(doc)
        with pytest.raises(SchemaError) as info:
            from_json(json.dumps(doc))
        assert (info.value.path, info.value.message) == (path, message)

    def test_non_object_document_rejected(self):
        with pytest.raises(SchemaError) as info:
            from_json("[]")
        assert (info.value.path, info.value.message) == ("$", "object expected")

    def test_undirected_document_rejected(self, s1_net):
        doc = json.loads(to_json(s1_net))
        doc["directed"] = False
        with pytest.raises(SchemaError) as info:
            from_json(json.dumps(doc))
        assert info.value.path == "$.directed"

    def test_duplicate_vertex_id_rejected(self, s1_net):
        doc = json.loads(to_json(s1_net))
        doc["vertices"][1]["id"] = 0
        with pytest.raises(SchemaError) as info:
            from_json(json.dumps(doc))
        assert info.value.path == "$.vertices[1].id"

    def test_non_sequential_ids_are_remapped(self, s1_net):
        doc = json.loads(to_json(s1_net))
        for v in doc["vertices"]:
            v["id"] += 10
        for e in doc["edges"]:
            e["src"] += 10
            e["dst"] += 10
        assert from_json(json.dumps(doc)) == s1_net

    def test_optional_flags_default(self):
        doc = {"mode": "FNSN", "name": "x", "scale": [3, 2, 1],
               "vertices": [{"id": 0, "label": "a",
                             "membership": [{"d": 0}, {"d": 0}, {"d": 0}]}],
               "edges": []}
        net = from_json(json.dumps(doc))
        assert not net.vertices[0].indeterminate

    def test_optional_edge_fields_default(self):
        doc = {"mode": "FNSN", "name": "x", "scale": [3, 2, 1], "directed": True,
               "vertices": [{"id": 7, "label": label,
                             "membership": [{"d": 0}, {"d": 0}, {"d": 0}]}
                            for label in ("a", "b")],
               "edges": [{"src": 7, "dst": 7, "weight": [{"d": 1}, {"d": 0}, {"d": 0}]}]}
        doc["vertices"][1]["id"] = -3
        doc["edges"][0]["dst"] = -3
        (edge,) = from_json(json.dumps(doc)).edges
        assert (edge.src, edge.dst, edge.label, edge.indeterminate) == (0, 1, "", False)

    def test_negative_zero_degree_loads_as_zero(self):
        def text(zero):
            return json.dumps({
                "mode": "PFNSN", "name": "z", "scale": [3, 2, 1],
                "vertices": [{"id": 0, "label": "a",
                              "membership": [{"d": zero}, {"d": 0}, {"d": 1}]}],
                "edges": []})
        negative, positive = from_json(text(-0.0)), from_json(text(0.0))
        assert '"d": -0.0' in text(-0.0)
        assert negative == positive
        assert to_json(negative) == to_json(positive)


class TestToDot:
    def test_s1_edge_labels_carry_raw_degrees(self, s1_net):
        dot = to_dot(s1_net)
        assert dot.startswith('digraph "S1" {')
        assert 'rather (2.4, 0, 0)' in dot
        assert '"night" -> "cold"' in dot

    def test_indeterminate_edge_is_dotted(self):
        net = SemanticNet(NetMode.FNSN, "x")
        a = net.add_vertex("a", (0, 0, 0))
        b = net.add_vertex("b", (0, 0, 0))
        net.add_edge(a, b, (0, 1, 0), indeterminate=True)
        edge_line = next(line for line in to_dot(net).splitlines() if "->" in line)
        assert "style=dotted" in edge_line

    def test_indeterminate_vertices_get_numbered_prefix(self):
        net = SemanticNet(NetMode.FNSN, "x")
        net.add_vertex("a", (0, 0, 0), indeterminate=True)
        net.add_vertex("b", (0, 0, 0))
        net.add_vertex("c", (0, 0, 0), indeterminate=True)
        dot = to_dot(net)
        assert 'label="N_1 a\\n' in dot
        assert 'label="N_2 c\\n' in dot
        a_line = next(line for line in dot.splitlines() if '"a"' in line)
        assert "style=dotted" in a_line

    def test_node_labels_show_normalized_triple(self, s3_net):
        dot = to_dot(s3_net)
        assert 'label="anaemic\\n(0.00, 0.00, 1.00)"' in dot

    def test_empty_net_has_no_node_lines(self):
        dot = to_dot(SemanticNet(NetMode.FNSN, "x"))
        assert dot == 'digraph "x" {\n}\n'
        check_dot_well_formed(dot)

    def test_deterministic_for_equal_nets(self):
        assert to_dot(fixtures.s3()) == to_dot(fixtures.s3())


@given(nets())
def test_json_roundtrip_equality(net):
    assert from_json(to_json(net)) == net


def _ref_entry(value):
    return {"i": value.magnitude} if value.indeterminate else {"d": value.magnitude}


def ref_doc(net):
    """The document as the dict that ``json.dumps(..., indent=2)`` wrote
    before ``to_json`` wrote the layout itself: the reference for it."""
    return {
        "mode": net.mode.value,
        "name": net.name,
        "scale": list(net.scale),
        "vertices": [
            {
                "id": v.id,
                "label": v.label,
                "indeterminate": v.indeterminate,
                "membership": [_ref_entry(x) for x in v.membership],
            }
            for v in net.vertices
        ],
        "edges": [
            {
                "src": e.src,
                "dst": e.dst,
                "label": e.label,
                "indeterminate": e.indeterminate,
                "weight": [_ref_entry(x) for x in e.weight],
            }
            for e in net.edges
        ],
    }


# Characters that ensure_ascii escapes: quote, backslash, control
# characters, DEL, U+2028/U+2029, non-ASCII and an astral character, which
# is written as a surrogate pair.
_ESCAPED = '"\\\x00\x08\t\n\x1f\x7f\u2028\u2029é\U0001F600'
_ANY_TEXT = st.text(st.one_of(st.sampled_from(_ESCAPED), st.characters()))


def _with_text(net, name, labels):
    """``net`` rebuilt with another name and edge labels."""
    out = SemanticNet(net.mode, name, net.scale)
    for v in net.vertices:
        out.add_vertex(v.label, v.membership, v.indeterminate)
    for e, label in zip(net.edges, labels):
        out.add_edge(e.src, e.dst, e.weight, label, e.indeterminate)
    return out


@st.composite
def _nets_with_any_text(draw):
    net = draw(nets())
    return _with_text(net, draw(_ANY_TEXT),
                      draw(st.lists(_ANY_TEXT, min_size=len(net.edges),
                                    max_size=len(net.edges))))


def _vertices_only():
    net = SemanticNet(NetMode.PNSN, "v")
    net.add_vertex("a", (3, 0, 0), True)
    net.add_vertex("b", (0, 0, 0))
    return net


@given(st.one_of(nets(), _nets_with_any_text()))
@example(SemanticNet(NetMode.FNSN, ""))
@example(_vertices_only())
@example(_with_text(fixtures.s1(), _ESCAPED, [_ESCAPED, "", "\U0010FFFF"]))
@example(fixtures.s2())
@example(fixtures.s3())
def test_to_json_writes_the_stdlib_indent_2_layout(net):
    assert to_json(net) == json.dumps(ref_doc(net), indent=2,
                                      allow_nan=False) + "\n"


@given(nets())
def test_dot_output_is_well_formed(net):
    check_dot_well_formed(to_dot(net))


@pytest.mark.parametrize("mutate,path", [
    (lambda text: text.replace("3.0", "Infinity", 1), "$.scale[0]"),
    (lambda text: text.replace("2.0", "NaN", 1), "$.scale[1]"),
    (lambda text: text.replace("1.0", "1e999", 1), "$.scale[2]"),
    (lambda text: text.replace("1.0", "1" + "0" * 400, 1), "$.scale[2]"),
    (lambda text: text.replace('{"d": 0.0}', '{"d": Infinity}', 1),
     "$.vertices[0].membership[1]"),
    (lambda text: text.replace('{"d": 2.4}', '{"d": -Infinity}', 1),
     "$.edges[0].weight[0]"),
])
def test_non_finite_numbers_report_paths(s1_net, mutate, path):
    text = mutate(json.dumps(json.loads(to_json(s1_net))))
    with pytest.raises(SchemaError) as info:
        from_json(text)
    assert info.value.path == path
    assert "finite" in info.value.message


def _both_formats(vertices, edges):
    """One small FNSN net as ``.pnet`` text and as a JSON document, written
    from value texts such as "9.9", "2I" or "1e999" that may be invalid."""
    def entry(text):
        return {"i": float(text[:-1])} if text.endswith("I") else {"d": float(text)}
    ids = {label: i for i, (label, _) in enumerate(vertices)}
    pnet = ['net fnsn "x" scale 3 2 1']
    pnet += [f"vertex {label} ({', '.join(values)})" for label, values in vertices]
    pnet += [f"edge {src} -> {dst} ({', '.join(values)})"
             for src, dst, values in edges]
    doc = {"mode": "FNSN", "name": "x", "scale": [3, 2, 1],
           "vertices": [{"id": i, "label": label,
                         "membership": [entry(v) for v in values]}
                        for i, (label, values) in enumerate(vertices)],
           "edges": [{"src": ids[src], "dst": ids[dst],
                      "weight": [entry(v) for v in values]}
                     for src, dst, values in edges]}
    return "\n".join(pnet) + "\n", json.dumps(doc)


_ZERO = ("0", "0", "0")


@pytest.mark.parametrize("vertices,edges,line,column,path,message", [
    ([("a", _ZERO), ("b", ("0", "9.9", "0"))], [], 3, 14,
     "$.vertices[1].membership[1]", "channel 2 degree 9.9 exceeds scale 2"),
    ([("a", _ZERO), ("b", ("0", "0", "2I"))], [], 3, 17,
     "$.vertices[1].membership[2]",
     "indeterminacy coefficient 2.0 outside (0, 1]"),
    ([("a", _ZERO), ("b", _ZERO)], [("a", "b", ("1e999", "0", "0"))], 4, 14,
     "$.edges[0].weight[0]",
     "determinate degree inf is not a finite nonnegative real"),
    ([("a", _ZERO), ("a", _ZERO)], [], 3, 8,
     "$.vertices[1].label", "duplicate vertex label 'a'"),
    ([("a", _ZERO), ("b", _ZERO)], [("a", "a", _ZERO)], 4, 11,
     "$.edges[0]", "loop on vertex 'a' rejected"),
    ([("a", _ZERO), ("b", _ZERO)], [("a", "b", _ZERO), ("a", "b", _ZERO)], 5, 6,
     "$.edges[1]", "duplicate edge 'a' -> 'b'"),
], ids=["range", "coefficient", "non-finite", "duplicate-label", "loop",
        "duplicate-edge"])
def test_both_formats_word_an_invariant_error_alike(vertices, edges, line,
                                                    column, path, message):
    pnet, document = _both_formats(vertices, edges)
    with pytest.raises(ParseError) as parsed:
        parse_net(pnet)
    with pytest.raises(SchemaError) as loaded:
        from_json(document)
    assert (parsed.value.line, parsed.value.column) == (line, column)
    assert loaded.value.path == path
    assert parsed.value.message == loaded.value.message == message


@pytest.mark.parametrize("error,fields", [
    (ParseError(3, 14, "channel 2 degree 9.9 exceeds scale 2"),
     {"line": 3, "column": 14,
      "message": "channel 2 degree 9.9 exceeds scale 2"}),
    (SchemaError("$.edges[1]", "duplicate edge 'a' -> 'b'"),
     {"path": "$.edges[1]", "message": "duplicate edge 'a' -> 'b'"}),
    (NetError("channel 2 degree 9.9 exceeds scale 2", "range", 2),
     {"kind": "range", "channel": 2}),
], ids=["ParseError", "SchemaError", "NetError"])
def test_load_errors_survive_pickling(error, fields):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert {name: getattr(copy, name) for name in fields} == fields
    assert str(copy) == str(error)


def test_to_json_never_writes_non_finite_numbers():
    net = SemanticNet(NetMode.FNSN, "x")
    net._scale = (math.inf, 2.0, 1.0)  # no public way to build this net
    with pytest.raises(ValueError):
        to_json(net)


@given(json_documents())
def test_from_json_is_total(text):
    try:
        result = from_json(text)
    except SchemaError:
        return
    assert isinstance(result, SemanticNet)


def _raw_document(memberships, weights=()):
    """An FNSN document, scale 3 2 1, with one vertex ``v<i>`` per membership
    and one edge ``v<i> -> v<i+1>`` per weight, each entry written as its
    JSON text so that ``1`` and ``1.0`` or ``0.0`` and ``-0.0`` stay apart."""
    vertices = ", ".join(
        f'{{"id": {i}, "label": "v{i}", "membership": [{", ".join(m)}]}}'
        for i, m in enumerate(memberships))
    edges = ", ".join(
        f'{{"src": {i}, "dst": {i + 1}, "weight": [{", ".join(w)}]}}'
        for i, w in enumerate(weights))
    return (f'{{"mode": "FNSN", "name": "x", "scale": [3, 2, 1], '
            f'"vertices": [{vertices}], "edges": [{edges}]}}')


def test_equal_entries_share_one_value_within_a_load():
    text = _raw_document(
        [['{"d": 1}', '{"d": 0}', '{"i": 0.5}'],
         ['{"d": 1.0}', '{"d": 0.5}', '{"i": 0.5}']],
        [['{"d": 1}', '{"d": 0.0}', '{"d": 0}']])
    net = from_json(text)
    a, b = (v.membership for v in net.vertices)
    w = net.edges[0].weight
    assert a.c1 is b.c1 is w.c1  # 1 and 1.0 are one value
    assert a.c2 is w.c2 is w.c3
    assert a.c3 is b.c3
    assert b.c2 is not a.c3 and b.c2 != a.c3  # the flag is part of the key
    again = from_json(text)
    assert again == net
    assert again.vertices[0].membership.c1 is not a.c1
    assert again.edges[0].weight.c2 is not w.c2


@pytest.mark.parametrize("first,second", [("0.0", "-0.0"), ("-0.0", "0.0"),
                                          ("0", "-0.0")])
def test_negative_zero_loads_as_zero_whichever_comes_first(first, second):
    net = from_json(_raw_document(
        [[f'{{"d": {first}}}', f'{{"d": {second}}}', f'{{"d": {second}}}']]))
    entries = list(net.vertices[0].membership)
    assert all(math.copysign(1.0, v.magnitude) == 1.0 for v in entries)
    assert '"d": -0.0' not in to_json(net)


@pytest.mark.parametrize("memberships,path", [
    ([['{"d": 0}', '{"d": NaN}', '{"d": NaN}'],
      ['{"d": NaN}', '{"d": 0}', '{"d": 0}']], "$.vertices[0].membership[1]"),
    ([['{"d": 1}', '{"d": 0}', '{"d": 0}'],
      ['{"d": 0}', '{"d": 1}', '{"d": NaN}']], "$.vertices[1].membership[2]"),
    ([['{"i": NaN}', '{"i": NaN}', '{"d": 0}']], "$.vertices[0].membership[0]"),
], ids=["first-of-three", "after-valid-values", "indeterminate"])
def test_a_repeated_nan_is_rejected_at_its_own_path(memberships, path):
    text = _raw_document(memberships)
    for _ in range(2):  # a failed load leaves nothing behind for the next
        with pytest.raises(SchemaError) as info:
            from_json(text)
        assert info.value.path == path
        assert "nan" in info.value.message


def test_a_shared_value_above_scale_is_located_at_its_own_entry():
    net = SemanticNet(NetMode.FNSN, "x", (3, 2, 1))
    with pytest.raises(NetError) as core_error:
        net.add_vertex("v1", (2, 0, 2))
    text = _raw_document([['{"d": 2}', '{"d": 0}', '{"d": 0}'],
                          ['{"d": 2}', '{"d": 0}', '{"d": 2}']])
    with pytest.raises(SchemaError) as info:
        from_json(text)
    assert info.value.path == "$.vertices[1].membership[2]"
    assert info.value.message == str(core_error.value) == \
        "channel 3 degree 2 exceeds scale 1"
