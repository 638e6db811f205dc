import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarnet import dsl
from polarnet.core import NetMode, NeutroValue, SemanticNet
from polarnet.dsl import ParseError, format_net, parse_net

import strategies as fixtures
from strategies import FIXTURE_TEXTS, mutated_pnet, nets


class TestParseFixtures:
    @pytest.mark.parametrize("name,builder", [
        ("s1.pnet", fixtures.s1),
        ("s2.pnet", fixtures.s2),
        ("s3.pnet", fixtures.s3),
    ])
    def test_files_match_programmatic_nets(self, fixtures_dir, name, builder):
        text = (fixtures_dir / name).read_text(encoding="utf-8")
        assert parse_net(text) == builder()

    def test_crlf_accepted(self, fixtures_dir):
        text = (fixtures_dir / "s1.pnet").read_text(encoding="utf-8")
        assert parse_net(text.replace("\n", "\r\n")) == fixtures.s1()


class TestParseBasics:
    def test_header_only_gives_empty_net(self):
        net = parse_net('net fnsn "empty"\n')
        assert net.mode is NetMode.FNSN
        assert net.name == "empty"
        assert net.scale == (3.0, 2.0, 1.0)
        assert net.vertices == () and net.edges == ()

    def test_comments_and_blank_lines_ignored(self):
        net = parse_net('\n# heading\nnet pnsn "x"  # trailing\n\nvertex a (0, 0, 0)\n')
        assert len(net.vertices) == 1

    def test_explicit_scale(self):
        net = parse_net('net pfnsn "x" scale 5 4 3')
        assert net.scale == (5.0, 4.0, 3.0)

    def test_indeterminacy_values(self):
        net = parse_net('net fnsn "x"\nvertex a (I, 0.5I, 0) indeterminate\n')
        vertex = net.vertices[0]
        assert vertex.indeterminate
        assert vertex.membership.c1 == NeutroValue.indeterminacy(1.0)
        assert vertex.membership.c2 == NeutroValue.indeterminacy(0.5)

    def test_header_rejects_undirected(self):
        with pytest.raises(ParseError) as info:
            parse_net('net fnsn "x" scale 3 2 1 undirected')
        assert (info.value.line, info.value.column) == (1, 26)
        assert info.value.message == "unexpected trailing token 'undirected'"

    def test_edge_without_label(self):
        net = parse_net('net fnsn "x"\nvertex a (0,0,0)\nvertex b (0,0,0)\n'
                        'edge a -> b (1, 0, 0)\n')
        assert net.edges[0].label == ""

    def test_quoted_escapes(self):
        net = parse_net('net fnsn "a\\"b\\\\c\\nd"\n')
        assert net.name == 'a"b\\c\nd'


class TestParseErrors:
    @pytest.mark.parametrize("source,line,message_part", [
        ('edge A -> B (1,0,0)', 1, "net header expected"),
        ('vertex a (1,0,0)', 1, "net header expected"),
        ('', 1, "net header expected"),
        ('# only a comment\n', 1, "net header expected"),
        ('net foo "x"', 1, "unknown net mode"),
        ('net fnsn "x"\nnet fnsn "y"', 2, "duplicate net header"),
        ('net fnsn "x"\nvertex a (0,0,0)\nvertex a (1,0,0)', 3, "duplicate vertex"),
        ('net fnsn "x"\nvertex a (0,0,0)\nedge a -> b (0,0,0)', 3, "unknown vertex 'b'"),
        ('net fnsn "x"\nvertex a (0,0,0)\nedge a -> a (0,0,0)', 3, "loop"),
        ('net fnsn "x"\nvertex a (0,0,0)\nvertex b (0,0,0)\n'
         'edge a -> b (0,0,0)\nedge a -> b (1,0,0)', 5, "duplicate edge"),
        ('net fnsn "x"\nvertex a (9.9, 0, 0)', 2, "exceeds scale 3"),
        ('net fnsn "x"\nvertex a (2I, 0, 0)', 2, "outside (0, 1]"),
        ('net fnsn "x"\nvertex a (0; 0, 0)', 2, "unexpected character"),
        ('net fnsn "x6', 1, "unterminated string"),
        ('net fnsn "x" scale 0 1 1', 1, "channel 1 scale must be positive"),
        ('net fnsn "x" extra', 1, "unexpected trailing token"),
        ('net fnsn "x"\nfrobnicate a (0,0,0)', 2, "statement expected"),
        ('net fnsn "x"\nvertex a (0,0)', 2, "','"),
        ('net fnsn "x"\nvertex a (0.5.2, 0, 0)', 2, "malformed number"),
    ])
    def test_error_location_and_message(self, source, line, message_part):
        with pytest.raises(ParseError) as info:
            parse_net(source)
        assert info.value.line == line
        assert message_part in info.value.message

    @pytest.mark.parametrize("value,message_part", [
        ("\u0663", "unexpected character"),  # ARABIC-INDIC DIGIT THREE
        ("1\u0663", "malformed number"),
    ])
    def test_non_ascii_digits_rejected(self, value, message_part):
        with pytest.raises(ParseError) as info:
            parse_net(f'net fnsn "x"\nvertex a ({value}, 0, 0)')
        assert (info.value.line, info.value.column) == (2, 11)
        assert message_part in info.value.message

    def test_error_column_points_at_offending_token(self):
        source = 'net fnsn "x"\nvertex alpha (9.9, 0, 0)'
        with pytest.raises(ParseError) as info:
            parse_net(source)
        assert (info.value.line, info.value.column) == (2, 15)

    def test_str_is_machine_parseable(self):
        with pytest.raises(ParseError) as info:
            parse_net('net foo "x"')
        assert str(info.value).startswith("1:5: ")


class TestFormat:
    def test_canonical_header(self, s1_net):
        assert format_net(s1_net).splitlines()[0] == 'net fnsn "S1" scale 3 2 1'

    def test_empty_net_is_header_only(self):
        net = SemanticNet(NetMode.PNSN, "bare")
        assert format_net(net) == 'net pnsn "bare" scale 3 2 1\n'

    def test_s2_roundtrip(self, s2_net):
        assert parse_net(format_net(s2_net)) == s2_net

    def test_matches_fixture_file_modulo_comments(self, fixtures_dir, s3_net):
        text = (fixtures_dir / "s3.pnet").read_text(encoding="utf-8")
        canonical = [line for line in text.splitlines()
                     if line.strip() and not line.startswith("#")]
        assert format_net(s3_net).splitlines() == canonical


@given(nets())
def test_roundtrip_equality(net):
    assert parse_net(format_net(net)) == net


@given(st.text(max_size=300))
def test_parser_is_total(source):
    try:
        result = parse_net(source)
    except ParseError:
        return
    assert isinstance(result, SemanticNet)


@given(st.text(alphabet=st.characters(), max_size=120))
def test_parser_is_total_over_arbitrary_unicode(source):
    try:
        parse_net(source)
    except ParseError:
        pass


def _statement_lines(text):
    for i, line in enumerate(text.splitlines(), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield i, line


def test_single_line_corruption_is_reported_on_that_line(fixtures_dir):
    text = (fixtures_dir / "s3.pnet").read_text(encoding="utf-8")
    lines = text.splitlines()
    for lineno, _ in _statement_lines(text):
        corrupted = lines.copy()
        corrupted[lineno - 1] += " @@"
        with pytest.raises(ParseError) as info:
            parse_net("\n".join(corrupted))
        assert info.value.line == lineno


@pytest.mark.parametrize("source,line,column,message_part", [
    ('net fnsn "x" scale 1e999 2 1', 1, 20,
     "channel 1 scale must be positive and finite, got inf"),
    ('net fnsn "x"\nvertex a (1e999, 0, 0)', 2, 11, "not a finite nonnegative real"),
    ('net fnsn "x"\nvertex a (0, 0, 0)\nvertex b (0, 0, 0)\n'
     'edge a -> b (0, 0, 1e400)', 4, 20, "not a finite nonnegative real"),
])
def test_non_finite_numbers_are_located_errors(source, line, column, message_part):
    with pytest.raises(ParseError) as info:
        parse_net(source)
    assert (info.value.line, info.value.column) == (line, column)
    assert message_part in info.value.message


@pytest.mark.parametrize("source,line,column", [
    ('net fnsn "x\ud800"', 1, 10),
    ('net fnsn "\udfff" scale 0 1 1', 1, 10),
    ('net fnsn "x"\nvertex a (0, 0, 0)\nvertex b (0, 0, 0)\n'
     'edge a -> b label "r\udc00" (1, 0, 0)', 4, 19),
    ('net fnsn "x"\nvertex a (0, 0, 0)\n'
     'edge a -> a label "\ud800" (9, 0, 0)', 3, 19),
], ids=["name", "name-before-scale", "edge-label", "edge-label-first"])
def test_a_lone_surrogate_in_a_quoted_string_is_located(source, line, column):
    """``parse_net`` of a str can hold what no UTF-8 file can: core's error is
    located at the quoted token."""
    with pytest.raises(ParseError) as info:
        parse_net(source)
    assert (info.value.line, info.value.column, info.value.message) == (
        line, column, "lone surrogate in string")


def _outcome(source):
    try:
        return parse_net(source)
    except ParseError as exc:
        return (exc.line, exc.column, exc.message)


def _token_path_outcome(source):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsl, "_add_statement", lambda net, line, values: False)
        return _outcome(source)


@settings(max_examples=400)
@given(mutated_pnet())
@example('net fnsn "x"\nvertex a (1٣, 0, 0)')
@example('net fnsn "x"\nvertex a (٣, 0, 0)\nvertex b (0, 0, 0)')
@example('net fnsn "x"\nvertex a (1e٣, 0, 0)')
@example('net fnsn "x"\nvertex a (0, 0, 0)\nvertex b (0, 0, 0)\n'
         'edge a -> b label "x\\ty\\\\n\\"#" (0, 0, 1) indeterminate # c')
@example('net fnsn "x"\nvertex a(0,0,0)indeterminate#c\nvertex b ( I , 1I , .5 )\n'
         'edge a->b label"" (1.,0,0)\nedge b -> a label "é" (1e-5, 0, 0)\r')
@example('net fnsn "x"\nvertex a (,0, 0)\nvertex b (I0, 0, 0)')
@example('net fnsn "x"\n\x0bvertex a (0, 0, 0)')
@example('net fnsn "x"\nvertex a (0, 0, 0) indeterminate\x0c')
@example('net fnsn "x"\nvertex a (0,\xa00, 0)\nvertex b (0, 0, 0)\r\r')
@example('net fnsn "x"\nvertexa (0, 0, 0)\nvertex a (0, 0, 0) indeterminatex')
@example('net fnsn "x"\nvertex a (0, 0, 0)\nvertex b (0, 0, 0)\n'
         'edge a -> blabel "x" (0, 0, 1)\nedge a -> b label (0, 0, 1)')
def test_statement_fast_path_agrees_with_token_parser(source):
    assert _outcome(source) == _token_path_outcome(source)


def _parse_counting_fast_path(text):
    """Parse ``text``; also return how many lines the fast path added."""
    added = []
    original = dsl._add_statement

    def counting(*args):
        added.append(original(*args))
        return added[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsl, "_add_statement", counting)
        net = parse_net(text)
    return net, added.count(True)


@given(nets())
def test_fast_path_reads_every_canonical_statement(net):
    parsed, fast = _parse_counting_fast_path(format_net(net))
    assert parsed == net
    assert fast == len(net.vertices) + len(net.edges)


@pytest.mark.parametrize("text", FIXTURE_TEXTS)
def test_fast_path_reads_every_fixture_statement(text):
    net, fast = _parse_counting_fast_path(text)
    assert fast == len(net.vertices) + len(net.edges) > 0
