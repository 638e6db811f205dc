import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polarnet.analysis import Polarity, polar_select
from polarnet.core import (
    ChannelTriple,
    Edge,
    NetError,
    NetMode,
    NeutroValue,
    SemanticNet,
    Vertex,
    Violation,
    entry_problem,
    fmt_number,
)
from polarnet.dsl import format_net, parse_net

import strategies as fixtures
from strategies import coefficients, nets, triples


class TestNeutroValue:
    def test_determinate_stores_degree(self):
        v = NeutroValue.determinate(2.4)
        assert v.magnitude == 2.4
        assert not v.indeterminate

    @pytest.mark.parametrize("bad", [-0.1, -5.0, float("nan")])
    def test_determinate_rejects_non_nonnegative(self, bad):
        with pytest.raises(NetError):
            NeutroValue.determinate(bad)

    def test_bare_indeterminacy_has_coefficient_one(self):
        assert NeutroValue.indeterminacy().magnitude == 1.0

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, float("nan")])
    def test_coefficient_outside_unit_interval_rejected(self, bad):
        with pytest.raises(NetError):
            NeutroValue.indeterminacy(bad)

    @pytest.mark.parametrize("value,expected", [
        (NeutroValue.determinate(2.4), "2.4"),
        (NeutroValue.determinate(3.0), "3"),
        (NeutroValue.determinate(0.0), "0"),
        (NeutroValue.indeterminacy(), "I"),
        (NeutroValue.indeterminacy(0.5), "0.5I"),
    ])
    def test_str(self, value, expected):
        assert str(value) == expected


class TestChannelTriple:
    def test_of_coerces_numbers(self):
        t = ChannelTriple.of(2.4, 0, 0)
        assert t.c1 == NeutroValue.determinate(2.4)
        assert t.c3.is_zero

    def test_zero_and_indeterminate_flags(self):
        assert ChannelTriple.zero().is_zero
        mixed = ChannelTriple.of(NeutroValue.indeterminacy(0.5), 0, 0)
        assert not mixed.is_zero
        assert mixed.has_indeterminate

    def test_str(self):
        t = ChannelTriple.of(2.4, NeutroValue.indeterminacy(0.5), 0)
        assert str(t) == "(2.4, 0.5I, 0)"


_T = ChannelTriple(NeutroValue(1.0), NeutroValue(0.5, True), NeutroValue(0.0))
_T_REPR = ("ChannelTriple(c1=NeutroValue(magnitude=1.0, indeterminate=False), "
           "c2=NeutroValue(magnitude=0.5, indeterminate=True), "
           "c3=NeutroValue(magnitude=0.0, indeterminate=False))")


# Each value type with every field by keyword, the fields that have a
# default, a replacement for its first field, and its repr.
@pytest.mark.parametrize("cls,kwargs,defaults,first,expected_repr", [
    (NeutroValue, {"magnitude": 0.5, "indeterminate": True},
     {"indeterminate": False}, 0.25,
     "NeutroValue(magnitude=0.5, indeterminate=True)"),
    (ChannelTriple, {"c1": _T.c1, "c2": _T.c2, "c3": _T.c3}, {},
     NeutroValue(2.0), _T_REPR),
    (Vertex, {"id": 3, "label": "a", "membership": _T, "indeterminate": True},
     {"indeterminate": False}, 4,
     f"Vertex(id=3, label='a', membership={_T_REPR}, indeterminate=True)"),
    (Edge, {"src": 0, "dst": 1, "weight": _T, "label": "x",
            "indeterminate": True},
     {"label": "", "indeterminate": False}, 2,
     f"Edge(src=0, dst=1, weight={_T_REPR}, label='x', indeterminate=True)"),
], ids=["NeutroValue", "ChannelTriple", "Vertex", "Edge"])
def test_value_types_are_frozen_dataclasses(cls, kwargs, defaults, first,
                                            expected_repr):
    value = cls(**kwargs)
    twin = cls(*kwargs.values())
    assert value == twin and value is not twin and hash(value) == hash(twin)
    assert repr(value) == expected_repr
    assert not hasattr(value, "__dict__")
    names = list(kwargs)
    assert [f.name for f in dataclasses.fields(cls)] == names
    assert [getattr(value, name) for name in names] == list(kwargs.values())
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, kwargs[name])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(value, protocol))
        assert type(loaded) is cls and loaded == value
        assert hash(loaded) == hash(value)
    for duplicate in (copy.copy(value), copy.deepcopy(value)):
        assert type(duplicate) is cls and duplicate == value
    as_tuple = tuple(kwargs.values())
    assert value != as_tuple and as_tuple != value
    required = {k: v for k, v in kwargs.items() if k not in defaults}
    assert cls(**required) == cls(**required, **defaults)
    changed = dataclasses.replace(value, **{names[0]: first})
    assert type(changed) is cls and changed != value
    assert getattr(changed, names[0]) == first
    assert [getattr(changed, name) for name in names[1:]] == \
        list(kwargs.values())[1:]
    assert dataclasses.replace(value) == value


def test_replace_checks_a_value_as_construction_does():
    with pytest.raises(NetError, match="coefficient 1.5 outside"):
        dataclasses.replace(NeutroValue(0.5, True), magnitude=1.5)
    assert dataclasses.replace(NeutroValue(2.5), magnitude=-0.0) == NeutroValue(0.0)


class TestNetConstruction:
    def test_new_net_is_empty_with_default_scale(self):
        net = SemanticNet(NetMode.PFNSN, "S3")
        assert net.scale == (3.0, 2.0, 1.0)
        assert net.vertices == () and net.edges == ()

    def test_nonpositive_scale_reports_channel(self):
        with pytest.raises(NetError, match="channel 1"):
            SemanticNet(NetMode.PNSN, "x", (0, 1, 1))
        with pytest.raises(NetError, match="channel 3"):
            SemanticNet(NetMode.PNSN, "x", (1, 1, -2))

    def test_add_vertex_returns_insertion_index(self):
        net = SemanticNet(NetMode.FNSN, "S1")
        assert net.add_vertex("night", (3.0, 0, 0)) == 0
        assert net.add_vertex("raining", (0, 0, 1.0)) == 1
        assert net.vertex(1).membership == ChannelTriple.of(0, 0, 1.0)

    def test_duplicate_label_rejected(self):
        net = SemanticNet(NetMode.FNSN, "x")
        net.add_vertex("night", (0, 0, 0))
        with pytest.raises(NetError, match="duplicate"):
            net.add_vertex("night", (1, 0, 0))

    def test_out_of_range_degree_reports_channel_and_limit(self):
        net = SemanticNet(NetMode.FNSN, "x", (3, 2, 1))
        with pytest.raises(NetError, match=r"channel 1.*exceeds scale 3"):
            net.add_vertex("cold", (9.0, 0, 0))

    @pytest.mark.parametrize("bad", ["", "night sky", "3cold", "a-b", "a.b"])
    def test_non_identifier_labels_rejected(self, bad):
        net = SemanticNet(NetMode.FNSN, "x")
        with pytest.raises(NetError, match="identifier"):
            net.add_vertex(bad, (0, 0, 0))

    def test_add_edge_stores_direction(self):
        net = SemanticNet(NetMode.FNSN, "x")
        a = net.add_vertex("night", (3, 0, 0))
        b = net.add_vertex("cold", (3, 0, 0))
        edge = net.add_edge(a, b, (2.4, 0, 0), label="rather")
        assert (edge.src, edge.dst) == (a, b)
        assert net.out_edges(a) == [edge]
        assert net.out_edges(b) == []

    def test_edge_errors(self):
        net = SemanticNet(NetMode.FNSN, "x")
        a = net.add_vertex("a", (0, 0, 0))
        b = net.add_vertex("b", (0, 0, 0))
        with pytest.raises(NetError, match="unknown vertex"):
            net.add_edge(a, 7, (0, 0, 0))
        with pytest.raises(NetError, match="loop"):
            net.add_edge(a, a, (0, 0, 0))
        net.add_edge(a, b, (1, 0, 0))
        with pytest.raises(NetError, match="duplicate edge"):
            net.add_edge(a, b, (2, 0, 0))
        with pytest.raises(NetError, match=r"channel 2.*exceeds scale 2"):
            net.add_edge(b, a, (0, 5, 0))


class TestValidate:
    def test_crisp_net_validates_clean(self, s2_net):
        assert s2_net.validate() == []

    def test_fuzzy_degrees_violate_crisp_mode(self, s3_net):
        as_pnsn = parse_net(format_net(s3_net).replace("pfnsn", "pnsn", 1))
        messages = [v.message for v in as_pnsn.validate()]
        assert any("non-crisp degree 2.7" in m for m in messages)
        assert len(messages) == 3  # 2.7, 1.4 and 0.3 are all non-crisp

    def test_fuzzy_mode_accepts_same_degrees(self, s3_net):
        assert s3_net.validate() == []

    def test_out_of_range_degree_reported(self):
        net = SemanticNet(NetMode.FNSN, "x")
        with pytest.raises(NetError) as info:
            net.add_vertex("a", ChannelTriple.of(0, 5, 0))
        assert str(info.value) == "channel 2 degree 5 exceeds scale 2"
        assert net.vertices == () and net.validate() == []

    def test_zero_weight_edge_is_a_warning(self):
        net = SemanticNet(NetMode.FNSN, "x")
        a = net.add_vertex("a", (1, 0, 0))
        b = net.add_vertex("b", (1, 0, 0))
        net.add_edge(a, b, (0, 0, 0))
        violations = net.validate()
        assert [v.severity for v in violations] == ["warning"]
        assert "all-zero weight" in violations[0].message

    def test_structural_invariants_rechecked(self):
        # An edge to a missing vertex, once a validate finding, cannot be built.
        net = SemanticNet(NetMode.FNSN, "x")
        a = net.add_vertex("a", (1, 0, 0))
        with pytest.raises(NetError, match="unknown vertex id 9"):
            net.add_edge(a, 9, ChannelTriple.zero())
        assert net.edges == () and net.validate() == []

    @pytest.mark.parametrize("construct,text", [
        (lambda net, w: net.add_vertex("not a word", w),
         "label 'not a word' must be an identifier "
         "(letters, digits, underscore; not starting with a digit)"),
        (lambda net, w: net.add_vertex("a", w), "duplicate vertex label 'a'"),
        (lambda net, w: net.add_edge(0, 0, w), "loop on vertex 'a' rejected"),
        (lambda net, w: net.add_edge(0, 1, w), "duplicate edge 'a' -> 'b'"),
    ], ids=["label", "duplicate-label", "loop", "duplicate-edge"])
    def test_structural_findings_word_construction_errors(self, construct,
                                                          text):
        # The structural faults that validate once reported are construction
        # errors worded as validate worded them.
        weight = ChannelTriple.of(1, 0, 0)
        built = SemanticNet(NetMode.FNSN, "x")
        built.add_vertex("a", weight)
        built.add_vertex("b", weight)
        built.add_edge(0, 1, weight)
        before = _rebuilt(built)
        with pytest.raises(NetError) as info:
            construct(built, weight)
        assert str(info.value) == text
        assert built == before and built.validate() == []


class TestClassify:
    def test_fixtures_have_no_indeterminate_elements(self, s1_net, s2_net, s3_net):
        for net in (s1_net, s2_net, s3_net):
            flags = net.classify()
            assert not flags.has_indeterminate_vertex
            assert not flags.has_indeterminate_edge
            assert not flags.is_point_graph
            assert not flags.is_edge_graph
            assert not flags.is_strongly_neutrosophic
            assert flags.is_neutrosophic_simple

    def test_indeterminate_vertex_makes_point_graph(self):
        net = SemanticNet(NetMode.FNSN, "x")
        net.add_vertex("a", (0, 0, 0), indeterminate=True)
        flags = net.classify()
        assert flags.is_point_graph and not flags.is_edge_graph
        assert not flags.is_strongly_neutrosophic

    def test_indeterminate_edge_makes_edge_graph(self):
        net = SemanticNet(NetMode.FNSN, "x")
        a = net.add_vertex("a", (0, 0, 0))
        b = net.add_vertex("b", (0, 0, 0))
        net.add_edge(a, b, (0, 1, 0), indeterminate=True)
        flags = net.classify()
        assert flags.is_edge_graph and not flags.is_point_graph

    def test_both_kinds_make_strongly_neutrosophic(self):
        net = SemanticNet(NetMode.FNSN, "x")
        a = net.add_vertex("a", (0, 0, 0), indeterminate=True)
        b = net.add_vertex("b", (0, 0, 0))
        net.add_edge(a, b, (0, 1, 0), indeterminate=True)
        assert net.classify().is_strongly_neutrosophic

    def test_loop_on_indeterminate_vertex_is_rejected(self):
        net = SemanticNet(NetMode.FNSN, "x")
        a = net.add_vertex("a", (0, 0, 0), indeterminate=True)
        with pytest.raises(NetError, match="loop"):
            net.add_edge(a, a, (1, 0, 0))
        assert net.classify().is_neutrosophic_simple

    def test_loop_on_ordinary_vertex_keeps_simplicity(self):
        net = SemanticNet(NetMode.FNSN, "x")
        a = net.add_vertex("a", (0, 0, 0))
        with pytest.raises(NetError, match="loop"):
            net.add_edge(a, a, (1, 0, 0))
        assert net.classify().is_neutrosophic_simple


class TestOrder:
    def test_fixture_counts(self, s2_net):
        assert s2_net.order() == (7, 0, 7)

    def test_empty(self):
        assert SemanticNet(NetMode.FNSN, "x").order() == (0, 0, 0)

    def test_mixed_counts(self):
        net = SemanticNet(NetMode.FNSN, "x")
        net.add_vertex("a", (0, 0, 0))
        net.add_vertex("b", (0, 0, 0))
        net.add_vertex("c", (0, 0, 0), indeterminate=True)
        assert net.order() == (2, 1, 3)


@given(nets())
def test_constructed_nets_have_no_error_violations(net):
    assert [v for v in net.validate() if v.severity == "error"] == []


@given(nets(allow_zero_weight_edges=False))
def test_constructed_nets_without_zero_edges_validate_clean(net):
    assert net.validate() == []


@given(nets(), st.sampled_from(["p", "q", "zz9"]))
def test_adding_determinate_vertex_never_changes_flags(net, label):
    before = net.classify()
    if net.find_vertex(label) is None:
        net.add_vertex(label, (0, 0, 0))
    assert net.classify() == before


@given(nets(max_vertices=4))
def test_order_tracks_vertex_additions(net):
    total = net.order().total
    assert total == len(net.vertices)
    net.add_vertex("fresh_vertex_xq", (0, 0, 0))
    assert net.order().total == total + 1
    if len(net.vertices) >= 2 and not any(
            e.src == net.vertices[-1].id and e.dst == net.vertices[0].id
            for e in net.edges):
        net.add_edge(net.vertices[-1].id, net.vertices[0].id, (0, 0, 0))
        assert net.order().total == total + 1


@given(triples((3.0, 2.0, 1.0), crisp=False))
def test_triple_iteration_yields_three_entries(triple):
    values = list(triple)
    assert len(values) == 3
    assert ChannelTriple(*values) == triple


@given(triples((3.0, 2.0, 1.0), crisp=False))
def test_triple_flags_agree_with_their_entries(triple):
    assert triple.is_zero == all(v.is_zero for v in triple)
    assert triple.has_indeterminate == any(v.indeterminate for v in triple)


@given(triples((3.0, 2.0, 1.0), crisp=False))
def test_triple_str_joins_the_str_of_its_entries(triple):
    assert str(triple) == "({}, {}, {})".format(*(str(v) for v in triple))


def _rebuilt(net, name=None, mode=None):
    """An equal net built afresh through ``add_vertex``/``add_edge``, or one
    that differs only by ``name`` or ``mode``."""
    twin = SemanticNet(net.mode if mode is None else mode,
                       net.name if name is None else name, net.scale)
    for v in net.vertices:
        twin.add_vertex(v.label, v.membership, v.indeterminate)
    for e in net.edges:
        twin.add_edge(e.src, e.dst, e.weight, e.label, e.indeterminate)
    return twin


def _assert_lookups_match_linear_scans(net):
    vertices, edges = net.vertices, net.edges
    n = len(vertices)
    for vid in range(n):
        assert net.vertex(vid) is next(v for v in vertices if v.id == vid)
        assert net.out_edges(vid) == [e for e in edges if e.src == vid]
        for dst in range(n + 1):
            assert net.has_edge(vid, dst) == any(
                e.src == vid and e.dst == dst for e in edges)
    for v in vertices:
        assert net.find_vertex(v.label) is next(
            w for w in vertices if w.label == v.label)
    assert net.find_vertex("never_drawn_label") is None
    for bad in (-1, n):
        with pytest.raises(NetError, match="unknown vertex"):
            net.vertex(bad)


@st.composite
def _additions(draw, net):
    """An ``add_vertex`` or ``add_edge`` call on ``net``, often an invalid one:
    a bad or taken label, a loop, a missing endpoint or a duplicate pair."""
    n = len(net.vertices)
    if draw(st.booleans()):
        taken = [v.label for v in net.vertices]
        label = draw(st.sampled_from(["fresh_vertex", "not a label", *taken]))
        return "add_vertex", (label, (1, 0, 0))
    if net.edges and draw(st.booleans()):
        e = draw(st.sampled_from(net.edges))
        return "add_edge", (e.src, e.dst, (1, 0, 0))
    return "add_edge", (draw(st.integers(-1, n)), draw(st.integers(-1, n)),
                        (1, 0, 0))


@given(nets(), st.data())
def test_indexed_lookups_match_linear_scans(net, data):
    _assert_lookups_match_linear_scans(net)
    for _ in range(data.draw(st.integers(1, 5))):
        method, args = data.draw(_additions(net))
        before = _rebuilt(net)
        try:
            getattr(net, method)(*args)
        except NetError:
            assert net == before
        else:
            assert len(net.vertices) + len(net.edges) == \
                len(before.vertices) + len(before.edges) + 1
        _assert_lookups_match_linear_scans(net)
        assert net.classify().is_neutrosophic_simple


def test_lookup_indexes_stay_out_of_equality_and_repr():
    built = fixtures.s1()
    assert built.has_edge(0, 1) and built.find_vertex("night") is not None
    twin = _rebuilt(built)
    assert twin == built
    assert repr(built) == (
        f"SemanticNet(mode={NetMode.FNSN!r}, name='S1', scale=(3.0, 2.0, 1.0), "
        f"vertices={built.vertices!r}, edges={built.edges!r})")
    assert _rebuilt(built, name="S1b") != built
    with pytest.raises(TypeError):
        hash(built)


def test_raw_net_back_door_is_closed():
    net = fixtures.s1()
    before = _rebuilt(net)
    vertex = Vertex(4, "fresh", ChannelTriple.zero())
    edge = Edge(0, 0, ChannelTriple.zero())
    with pytest.raises(AttributeError):
        net.vertices.append(vertex)
    with pytest.raises(AttributeError):
        net.edges.append(edge)
    with pytest.raises(TypeError):
        SemanticNet(NetMode.FNSN, vertices=[vertex])
    with pytest.raises(TypeError):
        SemanticNet(NetMode.FNSN, "x", (3, 2, 1), [vertex], [edge])
    with pytest.raises(AttributeError):
        net.scale = (3.0, 2.0, math.inf)
    with pytest.raises(AttributeError):
        net.mode = "PNSN"
    with pytest.raises(AttributeError):
        net.name = 5
    with pytest.raises(AttributeError):
        net.vertices = (vertex,)
    with pytest.raises(AttributeError):
        net.edges = (edge,)
    with pytest.raises(TypeError):
        dataclasses.replace(net, mode=NetMode.PNSN)
    assert net == before and net.validate() == []


@pytest.mark.parametrize("mode,name", [
    ("PNSN", "x"), (NetMode.PNSN.value, "x"), (NetMode.FNSN, 5),
    (NetMode.FNSN, None), (None, ""),
])
def test_constructor_rejects_mode_or_name_of_wrong_type(mode, name):
    with pytest.raises(TypeError, match="mode must be a NetMode and name a str"):
        SemanticNet(mode, name)


@pytest.mark.parametrize("call", [
    lambda net: SemanticNet(NetMode.FNSN, "x\ud800"),
    lambda net: SemanticNet(NetMode.FNSN, "\udfff", (0, 1, 1)),
    lambda net: net.add_edge(0, 1, (1, 0, 0), label="\udc00"),
    lambda net: net.add_edge(0, 0, (9, 0, 0), label="a\ud83d\ude00"),
], ids=["name", "name-before-scale", "edge-label", "edge-label-first"])
def test_a_lone_surrogate_in_a_name_or_edge_label_is_rejected(call):
    net = SemanticNet(NetMode.FNSN, "x")
    net.add_vertex("a", (0, 0, 0))
    net.add_vertex("b", (0, 0, 0))
    before = copy.copy(net)
    with pytest.raises(NetError) as info:
        call(net)
    assert (info.value.kind, info.value.channel) == ("lone surrogate", None)
    assert str(info.value) == "lone surrogate in string"
    assert net == before and net._out == before._out


def test_text_that_encodes_as_utf8_is_kept():
    net = SemanticNet(NetMode.FNSN, "x\U0001F600\u00e9\x00")
    net.add_vertex("a", (0, 0, 0))
    net.add_vertex("b", (0, 0, 0))
    edge = net.add_edge(0, 1, (1, 0, 0), label="\ufffd\U0010FFFF")
    assert (net.name, edge.label) == ("x\U0001F600\u00e9\x00", "\ufffd\U0010FFFF")


@pytest.mark.parametrize("scale", ["321", b"321"], ids=["str", "bytes"])
def test_constructor_rejects_a_string_scale(scale):
    with pytest.raises(TypeError, match="scale must be 3 numbers"):
        SemanticNet(NetMode.FNSN, "x", scale)


@pytest.mark.parametrize("method,args", [
    ("add_vertex", ("c", (True, 0, 0))),
    ("add_vertex", ("c", (0, 0, False))),
    ("add_vertex", ("c", (0, 0, 0), "no")),
    ("add_vertex", ("c", (0, 0, 0), 1)),
    ("add_edge", (0, 1, (0, 0, 0), 5)),
    ("add_edge", (0, 1, (0, 0, 0), "", "no")),
    ("add_edge", (0, 1, (True, 0, 0))),
], ids=["vertex-degree-true", "vertex-degree-false", "vertex-flag-str",
        "vertex-flag-int", "edge-label-int", "edge-flag-str", "edge-degree-true"])
def test_construction_rejects_values_of_wrong_type(method, args):
    net = SemanticNet(NetMode.FNSN, "x")
    net.add_vertex("a", (0, 0, 0))
    net.add_vertex("b", (0, 0, 0))
    before = _rebuilt(net)
    with pytest.raises(TypeError):
        getattr(net, method)(*args)
    assert net == before


@pytest.mark.parametrize("args", [(True, 0.5), (0.5, 1), (0.5, "no")])
def test_entry_rejects_a_bool_degree_or_a_non_bool_flag(args):
    with pytest.raises(TypeError):
        NeutroValue(*args)


class _Id(int):
    """An int subclass, as a caller's own id type might be."""


def test_edge_endpoints_are_stored_as_the_vertex_ids():
    net = SemanticNet(NetMode.FNSN, "x")
    net.add_vertex("a", (0, 0, 0))
    net.add_vertex("b", (0, 0, 0))
    edge = net.add_edge(_Id(1), _Id(0), (1, 0, 0))
    assert (edge.src, edge.dst) == (1, 0)
    assert type(edge.src) is int and type(edge.dst) is int
    assert net.out_edges(1) == [edge] and net.has_edge(1, 0)


def test_a_bool_is_not_a_vertex_id():
    net = fixtures.s1()  # night -> cold is edge 0 -> 1
    before = _rebuilt(net)
    for flag in (False, True):
        with pytest.raises(NetError, match=f"^unknown vertex id {flag}$"):
            net.vertex(flag)
        with pytest.raises(NetError, match=f"^unknown vertex id {flag}$"):
            polar_select(net, flag, Polarity.POSITIVE)
        assert net.out_edges(flag) == []
    for src, dst in [(False, 1), (0, True), (False, True)]:
        assert not net.has_edge(src, dst)
        with pytest.raises(NetError, match="^unknown vertex id"):
            net.add_edge(src, dst, (1, 0, 0))
    assert net == before and net.has_edge(0, 1) and net.out_edges(0)


def _reference_in_scale(net, triple):
    """``SemanticNet._in_scale`` from before its unrolled range check,
    with the ``_coerce_triple`` it called, kept as the reference."""
    if not isinstance(triple, ChannelTriple):
        if not isinstance(triple, (tuple, list)):
            raise TypeError(f"a channel triple must be a ChannelTriple, "
                            f"tuple or list, got {triple!r}")
        if len(triple) != 3:
            raise NetError(f"channel triple needs 3 entries, got {len(triple)}")
        triple = ChannelTriple.of(*triple)
    for k, (val, mx) in enumerate(zip(triple, net.scale), start=1):
        if val.magnitude > mx and not val.indeterminate:
            raise entry_problem(k, val, mx)
    return triple


def _reference_add_edge(net, src, dst, weight, label="", indeterminate=False):
    """``SemanticNet.add_edge`` from before it checked plain ids itself,
    when it looked both ends up through ``vertex`` and asked ``has_edge``."""
    if not (isinstance(label, str) and type(indeterminate) is bool):
        raise TypeError(f"label must be a str and indeterminate a bool, "
                        f"got {label!r} and {indeterminate!r}")
    source = net.vertex(src)
    target = net.vertex(dst)
    if src == dst:
        raise NetError(f"loop on vertex {source.label!r} rejected", "loop")
    if net.has_edge(src, dst):
        raise NetError(f"duplicate edge {source.label!r} -> {target.label!r}",
                       "duplicate edge")
    edge = Edge(source.id, target.id, _reference_in_scale(net, weight), label,
                indeterminate)
    net._edges.append(edge)
    net._out.setdefault(edge.src, {})[edge.dst] = edge
    return edge


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the error it raises, as comparable
    fields: the type, text, ``kind`` and ``channel`` of an error."""
    try:
        return "ok", call(*args)
    except (NetError, TypeError) as exc:
        return (type(exc), str(exc), getattr(exc, "kind", None),
                getattr(exc, "channel", None))


_EDGE_SCALES = [(3.0, 2.0, 1.0), (0.5, 1.0, 0.25)]


@st.composite
def _edge_calls(draw, n, scale):
    """Arguments of one ``add_edge`` call on a net of ``n`` vertices: valid,
    or with an unknown, negative, ``bool`` or int-subclass id, a loop or
    duplicate pair, a degree above scale, a bad entry or triple, or a label
    or flag of the wrong type."""
    valid = st.integers(0, n - 1)
    ids = st.one_of(*[valid] * 6, st.integers(-2, n + 1), st.booleans(),
                    st.integers(-1, n).map(_Id))

    def entries(mx):
        return st.one_of(
            st.floats(0.0, mx), st.floats(0.0, mx), st.floats(0.0, 1.5 * mx),
            st.sampled_from([0, 1, 0.25, -1.0, True]),
            coefficients.map(NeutroValue.indeterminacy))

    triple = st.tuples(*map(entries, scale))
    weight = draw(st.one_of(
        triple, triple, triple.map(list),
        st.tuples(*(st.floats(0.0, 1.5 * mx) for mx in scale)).map(
            lambda degrees: ChannelTriple.of(*degrees)),
        st.lists(entries(min(scale)), min_size=2, max_size=4),
        st.just("100")))
    label = draw(st.sampled_from(["", "rather"] * 4 + [5]))
    flag = draw(st.sampled_from([False, True] * 4 + ["no"]))
    return draw(ids), draw(ids), weight, label, flag


@given(st.data())
def test_add_edge_matches_the_reference_step_by_step(data):
    scale = data.draw(st.sampled_from(_EDGE_SCALES))
    n = data.draw(st.integers(1, 5))
    net = SemanticNet(NetMode.PFNSN, "x", scale)
    for i in range(n):
        net.add_vertex(f"v{i}", (0, 0, 0))
    reference = copy.copy(net)
    ids = range(-1, n + 1)
    for _ in range(data.draw(st.integers(1, 12))):
        args = data.draw(_edge_calls(n, scale))
        before = copy.copy(net)
        got = _outcome(net.add_edge, *args)
        expected = _outcome(_reference_add_edge, reference, *args)
        assert got == expected
        if got[0] == "ok":
            assert type(got[1].src) is int and type(got[1].dst) is int
        else:
            assert net == before and net._out == before._out
        assert net == reference and repr(net) == repr(reference)
        assert net._out == reference._out
        assert [net.out_edges(v) for v in ids] == \
            [reference.out_edges(v) for v in ids]
        assert [net.has_edge(s, d) for s in ids for d in ids] == \
            [reference.has_edge(s, d) for s in ids for d in ids]
        assert copy.copy(net) == copy.copy(reference) == net


@pytest.mark.parametrize("args,error", [
    ((5, 7, (9, 0, 0), 1), "label must be a str and indeterminate a bool, "
                           "got 1 and False"),
    ((5, 7, (9, 0, 0)), "unknown vertex id 5"),
    ((0, 7, (9, 0, 0)), "unknown vertex id 7"),
    ((True, 1, (9, 0, 0)), "unknown vertex id True"),
    ((0, 0, (9, 0, 0)), "loop on vertex 'a' rejected"),
    ((_Id(0), 0, (9, 0, 0)), "loop on vertex 'a' rejected"),
    ((0, 1, (9, 0, 0)), "duplicate edge 'a' -> 'b'"),
    ((_Id(0), _Id(1), "100"), "duplicate edge 'a' -> 'b'"),
    ((1, 0, (0, 0, 9)), "channel 3 degree 9 exceeds scale 1"),
], ids=["type", "src", "dst", "bool", "loop", "subclass-loop", "duplicate",
        "subclass-duplicate", "weight"])
def test_add_edge_reports_the_first_failed_check(args, error):
    net = SemanticNet(NetMode.FNSN, "x")
    net.add_vertex("a", (0, 0, 0))
    net.add_vertex("b", (0, 0, 0))
    net.add_edge(0, 1, (1, 0, 0))
    before = copy.copy(net)
    with pytest.raises((NetError, TypeError)) as info:
        net.add_edge(*args)
    assert str(info.value) == error
    assert net == before and net._out == before._out


@pytest.mark.parametrize("call", [
    lambda net: NeutroValue("2"),
    lambda net: NeutroValue.indeterminacy("0.5"),
    lambda net: ChannelTriple.of("1", 0, 0),
    lambda net: net.add_vertex("c", ("1", 0, 0)),
    lambda net: net.add_vertex("c", ("zz", 0, 0)),
    lambda net: net.add_vertex("c", {1.0: 0, 0.0: 1, 2.0: 2}),
    lambda net: net.add_vertex("c", "100"),
    lambda net: net.add_edge(0, 1, (0, None, 0)),
    lambda net: net.add_edge(0, 1, range(3)),
    lambda net: SemanticNet(NetMode.FNSN, "y", ("3", "2", "1")),
    lambda net: SemanticNet(NetMode.FNSN, "y", (True, 2, 1)),
    lambda net: SemanticNet(NetMode.FNSN, "y", {3.0: 0, 2.0: 0, 1.0: 0}),
    lambda net: SemanticNet(NetMode.FNSN, "y", iter((3, 2, 1))),
], ids=["value-str", "coefficient-str", "triple-of-str", "vertex-degree-str",
        "vertex-degree-word", "vertex-dict", "vertex-str", "edge-degree-none",
        "edge-range", "scale-str-items", "scale-bool-item", "scale-dict",
        "scale-iterator"])
def test_values_of_the_wrong_type_raise_type_error(call):
    net = SemanticNet(NetMode.FNSN, "x")
    net.add_vertex("a", (0, 0, 0))
    net.add_vertex("b", (0, 0, 0))
    before = _rebuilt(net)
    with pytest.raises(TypeError):
        call(net)
    assert net == before


def test_number_subclasses_are_stored_as_plain_floats():
    class Degree(float):
        pass

    net = SemanticNet(NetMode.FNSN, "x", [_Id(3), Degree(2.0), 1])
    net.add_vertex("a", [Degree(2.5), _Id(1), 0])
    assert net.scale == (3.0, 2.0, 1.0)
    assert all(type(s) is float for s in net.scale)
    assert [type(v.magnitude) for v in net.vertex(0).membership] == [float] * 3


def test_copy_is_independent_of_its_original():
    net = fixtures.s1()
    before = _rebuilt(net)
    twin = copy.copy(net)
    assert twin == net and twin is not net
    night = twin.find_vertex("night").id
    x = twin.add_vertex("x", (0, 0, 0))
    twin.add_edge(night, x, (1, 0, 0))
    twin.add_edge(x, night, (0, 0, 1))
    assert net == before
    assert net.find_vertex("x") is None and not net.has_edge(night, x)
    assert [e.dst for e in net.out_edges(night)] == \
        [e.dst for e in before.out_edges(night)]
    assert twin.find_vertex("x").id == x and twin.has_edge(x, night)
    assert all(a is b for a, b in zip(twin.vertices, net.vertices))
    assert all(a is b for a, b in zip(twin.edges, net.edges))


def test_negative_zero_degree_is_stored_as_zero():
    assert math.copysign(1.0, NeutroValue(-0.0).magnitude) == 1.0


def _reference_entry_problem(k, value, mx, mode):
    """The text of ``entry_problem`` from when it took the mode and also
    checked PNSN crispness, kept as the reference for ``validate``."""
    m = value.magnitude
    if value.indeterminate:
        if 0.0 < m <= 1.0:
            return None
        text = f"indeterminacy coefficient {m!r} outside (0, 1]"
    elif not 0.0 <= m < math.inf:
        text = f"determinate degree {m!r} is not a finite nonnegative real"
    elif m > mx:
        text = f"degree {fmt_number(m)} exceeds scale {fmt_number(mx)}"
    elif mode is NetMode.PNSN and m != 0.0 and m != mx:
        text = (f"non-crisp degree {fmt_number(m)} "
                f"(PNSN requires 0 or {fmt_number(mx)})")
    else:
        return None
    return f"channel {k} {text}"


def _reference_validate(net):
    """``validate`` from when it ran the full entry check on every entry in
    every mode, then warned of each all-zero edge weight."""
    out = []

    def entry_violations(what, triple):
        for k, (val, mx) in enumerate(zip(triple, net.scale), start=1):
            problem = _reference_entry_problem(k, val, mx, net.mode)
            if problem:
                out.append(Violation(f"{what}: {problem}"))

    for v in net.vertices:
        entry_violations(f"vertex {v.label!r}", v.membership)
    labels = [v.label for v in net.vertices]
    for e in net.edges:
        where = f"edge {labels[e.src]!r} -> {labels[e.dst]!r}"
        entry_violations(where, e.weight)
        if e.weight.is_zero:
            out.append(Violation(
                f"{where} has an all-zero weight and cannot be "
                "reconstructed from the adjacency tensor",
                severity="warning"))
    return out


# Fuzzy nets rebuilt under every mode: under PNSN their degrees give
# non-crisp findings, and zero weights give warnings in every mode.
@given(nets(modes=[NetMode.FNSN, NetMode.PFNSN], allow_zero_weight_edges=True))
@example(fixtures.s3())
def test_validate_matches_the_full_entry_check_in_every_mode(net):
    for mode in NetMode:
        twin = _rebuilt(net, mode=mode)
        assert twin.validate() == _reference_validate(twin)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_determinate_rejects_infinity(self, bad):
        with pytest.raises(NetError, match="finite"):
            NeutroValue.determinate(bad)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_scale_rejects_non_finite(self, bad):
        with pytest.raises(NetError, match="channel 2 scale must be positive "
                                           "and finite"):
            SemanticNet(NetMode.FNSN, "x", (3, bad, 1))

    # An int beyond the float range gets the error 1e999 gets, not the
    # OverflowError of float().
    @pytest.mark.parametrize("construct,kind,text", [
        (lambda: NeutroValue(10**400), "non-finite",
         "determinate degree inf is not a finite nonnegative real"),
        (lambda: NeutroValue(-10**400), "non-finite",
         "determinate degree -inf is not a finite nonnegative real"),
        (lambda: NeutroValue(10**400, True), "coefficient",
         "indeterminacy coefficient inf outside (0, 1]"),
        (lambda: SemanticNet(NetMode.FNSN, "x", (10**400, 2, 1)), "scale",
         "channel 1 scale must be positive and finite, got inf"),
    ], ids=["degree", "negative-degree", "coefficient", "scale"])
    def test_int_beyond_float_range_rejected(self, construct, kind, text):
        with pytest.raises(NetError) as info:
            construct()
        assert (str(info.value), info.value.kind) == (text, kind)
