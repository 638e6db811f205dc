"""Line-oriented net description language: parser and canonical formatter.

One statement per line; ``#`` starts a comment; blank lines are ignored.
The header must be the first statement::

    header : "net" MODE QUOTED_NAME [ "scale" NUM NUM NUM ]
    MODE   : "fnsn" | "pnsn" | "pfnsn"
    vertex : "vertex" IDENT triple [ "indeterminate" ]
    edge   : "edge" IDENT "->" IDENT [ "label" QUOTED ] triple [ "indeterminate" ]
    triple : "(" value "," value "," value ")"
    value  : NUM | NUM "I" | "I"

IDENT is an identifier (letters, digits, underscore; not starting with a
digit).  NUM is a nonnegative decimal written with ASCII digits; "0.5I"
denotes the indeterminacy 0.5*I and a bare "I" has coefficient 1.  Quoted
strings support the escapes \\" \\\\ \\n \\r \\t.  Files are UTF-8 with LF or
CRLF line endings; a lone CR is no line break but a character, which only
a quoted string or a comment may hold.  The suggested extension is ``.pnet``.

Every input either parses to a net or raises :class:`ParseError` with a
1-based line and column.  The parser resolves vertex names (an unknown edge
endpoint is its own error); core checks every net invariant, and its error
is reported at the token it concerns: a channel problem at the value, a
duplicate label at the label, a loop at the destination and a duplicate
edge at the source.  Messages are core's, so they read the same as JSON's.

After the header, a line's first word picks the vertex or the edge
pattern, and a well-formed line is read with that one regex match; equal
value texts share one value.  The header, every other line, and every line
that would fail (no match, an unknown endpoint, or any error from core) go
through the token parser, which alone raises :class:`ParseError`, so errors
are located and worded the same whichever way a line was first tried.  It
reads each token with one pattern, made of the same number and identifier
pieces as the line patterns, and both ways decode escapes with one helper.

``format_net`` writes each line from one f-string, a triple as
``str(triple)``, and keeps no text between lines.  It joins ``_pnet_lines``,
which yields the lines in order, and which the CLI writes as they come.
"""
from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from .core import (DEFAULT_SCALE, ChannelTriple, NetError, NetMode, NeutroValue,
                   SemanticNet, fmt_number)

__all__ = ["ParseError", "parse_net", "format_net"]

_MODES = {m.value.lower(): m for m in NetMode}
_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}

# Whole-line patterns for well-formed vertex and edge statements.  They
# accept only lines the tokenizer reads the same way: ASCII digits and
# letters, blanks and tabs as the only whitespace, a blank between adjacent
# words, and no letter, digit, '_' or '.' right after a number.
_VALUE = rf"({_NUM}I?(?![\w.])|I)"
_TRIPLE = rf"\([ \t]*{_VALUE}[ \t]*,[ \t]*{_VALUE}[ \t]*,[ \t]*{_VALUE}[ \t]*\)"
_TAIL = r"(?:[ \t]*(indeterminate))?[ \t]*(?:#.*)?"
_QUOTED_BODY = (r'((?:[^"\\]|\\['
                + "".join(re.escape(c) for c in _ESCAPES) + r'])*)')
_VERTEX_LINE = re.compile(
    rf"[ \t]*vertex[ \t]+({_IDENT})[ \t]*{_TRIPLE}{_TAIL}", re.ASCII)
_EDGE_LINE = re.compile(
    rf"[ \t]*edge[ \t]+({_IDENT})[ \t]*->[ \t]*({_IDENT})"
    rf'(?:[ \t]+label[ \t]*"{_QUOTED_BODY}")?[ \t]*{_TRIPLE}{_TAIL}', re.ASCII)
_ESCAPE_SEQ = re.compile(r"\\(.)", re.DOTALL)
# One token after optional blanks; group 1 marks where it starts.
_TOKEN_RE = re.compile(r'[ \t]*()(?:(#.*)?\Z|([(),]|->)|"((?:[^"\\]|\\.)*)("?)'
                       rf"|({_NUM})(I?)|({_IDENT}))", re.ASCII | re.DOTALL)
_UNESCAPES = str.maketrans({char: "\\" + esc for esc, char in _ESCAPES.items()})


class ParseError(Exception):
    """A syntax or semantic error located in the input text."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message

    def __reduce__(self):
        # Exception pickles only the formatted text, which __init__ cannot
        # take back; rebuild from the fields so the error crosses processes.
        return type(self), (self.line, self.column, self.message)


class _Token(NamedTuple):
    """One token of a statement line."""

    kind: str  # word | num | inum | quoted | ( | ) | , | ->
    text: str  # as written; a quoted string keeps its quotes
    col: int  # 1-based
    string: str | None = None  # a quoted string's decoded text


def _unescape(body: str, lineno: int = 0, offset: int = 0) -> str:
    """``body`` with its escapes decoded; the first unknown one, met only by the
    token parser, is an error on line ``lineno``, ``body`` being at ``offset``."""
    for esc in _ESCAPE_SEQ.finditer(body):
        if esc.group(1) not in _ESCAPES:
            raise ParseError(lineno, offset + esc.end(),
                             f"unknown escape '\\{esc.group(1)}'")
    return _ESCAPE_SEQ.sub(lambda esc: _ESCAPES[esc.group(1)], body)


def _tokenize(line: str, lineno: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while True:
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            col = len(line) - len(line[pos:].lstrip(" \t")) + 1
            raise ParseError(lineno, col, "expected '->'" if line[col - 1] == "-"
                             else f"unexpected character {line[col - 1]!r}")
        start = m.start(1)
        pos = m.end()
        text = line[start:pos]
        group = m.lastindex  # the last group of the alternative that matched
        if group <= 2:  # end of line or a comment
            return tokens
        if group == 3:  # ( ) , ->
            tokens.append(_Token(text, text, start + 1))
        elif group == 5:  # a string: 4 is its body, 5 its closing quote
            string = _unescape(m.group(4), lineno, start + 1)
            if not m.group(5):  # the body ends at the line's end or last backslash
                raise ParseError(lineno, pos + 1, "dangling escape in string"
                                 if pos < len(line) else "unterminated string")
            tokens.append(_Token("quoted", text, start + 1, string))
        elif group == 7:  # a number: 6 is its digits, 7 an "I"
            if pos < len(line) and (line[pos].isalnum() or line[pos] in "_."):
                raise ParseError(lineno, start + 1, f"malformed number starting "
                                 f"at {line[start:pos + 1]!r}")
            tokens.append(_Token("inum" if m.group(7) else "num", text, start + 1))
        else:  # group 8, a word
            tokens.append(_Token("word", text, start + 1))


class _Cursor:
    """Token stream for one statement line."""

    def __init__(self, tokens: list[_Token], lineno: int, line: str):
        self.tokens = tokens
        self.lineno = lineno
        self.line = line
        self.pos = 0

    def peek(self) -> _Token | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def _fail(self, message: str, tok: _Token | None = None) -> ParseError:
        col = tok.col if tok is not None else len(self.line) + 1
        return ParseError(self.lineno, col, message)

    def take(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            found = f", found {tok.text!r}" if tok is not None else ""
            raise self._fail(f"{what} expected{found}", tok)
        self.pos += 1
        return tok

    def accept_keyword(self, keyword: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.kind == "word" and tok.text == keyword:
            self.pos += 1
            return True
        return False

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise self._fail(f"unexpected trailing token {tok.text!r}", tok)


def _parse_value(cur: _Cursor) -> tuple[NeutroValue, _Token]:
    tok = cur.peek()
    if tok is None:
        raise cur._fail("degree value expected")
    if not (tok.kind in ("num", "inum") or tok.kind == "word" and tok.text == "I"):
        raise cur._fail(f"degree value expected, found {tok.text!r}", tok)
    cur.pos += 1
    try:
        return _value(tok.text), tok
    except NetError as exc:
        raise ParseError(cur.lineno, tok.col, str(exc)) from exc


def _parse_triple(cur: _Cursor) -> tuple[ChannelTriple, list[_Token]]:
    cur.take("(", "'('")
    values: list[NeutroValue] = []
    tokens: list[_Token] = []
    for k in range(3):
        if k:
            cur.take(",", "','")
        val, tok = _parse_value(cur)
        values.append(val)
        tokens.append(tok)
    cur.take(")", "')'")
    return ChannelTriple(*values), tokens


def _parse_header(cur: _Cursor) -> SemanticNet:
    mode_tok = cur.take("word", "net mode")
    mode = _MODES.get(mode_tok.text)
    if mode is None:
        raise ParseError(cur.lineno, mode_tok.col,
                         f"unknown net mode {mode_tok.text!r} "
                         "(expected fnsn, pnsn or pfnsn)")
    name = cur.take("quoted", "quoted net name")
    tokens = ([cur.take("num", f"channel {k} scale") for k in range(1, 4)]
              if cur.accept_keyword("scale") else [])
    try:
        return SemanticNet(mode, name.string,
                           tuple(float(tok.text) for tok in tokens) or DEFAULT_SCALE)
    except NetError as exc:
        tok = name if exc.channel is None else tokens[exc.channel - 1]
        raise ParseError(cur.lineno, tok.col, str(exc)) from exc


def _located(cur: _Cursor, exc: NetError, values: list[_Token],
             label: _Token, dst: _Token | None = None,
             quoted: _Token | None = None) -> ParseError:
    """Core's ``exc`` at the token it concerns: a channel's value, the
    destination of a loop, the quoted edge label, else the vertex label or
    edge source."""
    if exc.channel is not None:
        tok = values[exc.channel - 1]
    elif exc.kind == "loop":
        tok = dst
    elif exc.kind == "lone surrogate":
        tok = quoted
    else:
        tok = label
    return ParseError(cur.lineno, tok.col, str(exc))


def _parse_vertex(cur: _Cursor, net: SemanticNet) -> None:
    ident = cur.take("word", "vertex label")
    triple, tokens = _parse_triple(cur)
    indeterminate = cur.accept_keyword("indeterminate")
    try:
        net.add_vertex(ident.text, triple, indeterminate=indeterminate)
    except NetError as exc:
        raise _located(cur, exc, tokens, ident) from exc


def _parse_edge(cur: _Cursor, net: SemanticNet) -> None:
    src_tok = cur.take("word", "source vertex label")
    cur.take("->", "'->'")
    dst_tok = cur.take("word", "destination vertex label")
    quoted = None
    if cur.accept_keyword("label"):
        quoted = cur.take("quoted", "quoted edge label")
    triple, tokens = _parse_triple(cur)
    indeterminate = cur.accept_keyword("indeterminate")
    src = net.find_vertex(src_tok.text)
    if src is None:
        raise ParseError(cur.lineno, src_tok.col,
                         f"unknown vertex {src_tok.text!r}")
    dst = net.find_vertex(dst_tok.text)
    if dst is None:
        raise ParseError(cur.lineno, dst_tok.col,
                         f"unknown vertex {dst_tok.text!r}")
    try:
        net.add_edge(src.id, dst.id, triple, label=quoted.string if quoted else "",
                     indeterminate=indeterminate)
    except NetError as exc:
        raise _located(cur, exc, tokens, src_tok, dst_tok, quoted) from exc


def _value(text: str) -> NeutroValue:
    if text[-1] == "I":  # a bare "I" has coefficient 1
        return NeutroValue(float(text[:-1] or 1.0), True)
    return NeutroValue(float(text))


class _Values(dict):
    """Values by their text, each built at its first lookup.  Values are
    immutable, so one parse shares a value among equal texts."""

    __slots__ = ()

    def __missing__(self, text: str) -> NeutroValue:
        value = self[text] = _value(text)
        return value


def _add_statement(net: SemanticNet, line: str, values: _Values) -> bool:
    """Add a well-formed vertex or edge line to ``net`` with one match.

    The line's first word picks the pattern.  Returns False, leaving ``net``
    unchanged, for any other line, including one naming an unknown vertex
    or one that core rejects; the token parser then reads that line and
    reports its error at the offending token.
    """
    head = line.lstrip(" \t")
    try:
        if head.startswith("edge"):
            m = _EDGE_LINE.fullmatch(line)
            if m is None:
                return False
            src_label, dst_label, label, t1, t2, t3, flag = m.groups()
            by_label = net._by_label
            src = by_label.get(src_label)
            dst = by_label.get(dst_label)
            if src is None or dst is None:
                return False
            if label and "\\" in label:
                label = _unescape(label)
            net.add_edge(src.id, dst.id,
                         ChannelTriple(values[t1], values[t2], values[t3]),
                         label or "", flag is not None)
            return True
        if head.startswith("vertex"):
            m = _VERTEX_LINE.fullmatch(line)
            if m is None:
                return False
            label, t1, t2, t3, flag = m.groups()
            net.add_vertex(label, ChannelTriple(values[t1], values[t2], values[t3]),
                           flag is not None)
            return True
        return False
    except NetError:
        return False


def parse_net(source: str) -> SemanticNet:
    """Parse net description text into a :class:`SemanticNet`.

    Raises:
        ParseError: on the first syntax or semantic violation, carrying the
            1-based line and column of the offending token.
    """
    net: SemanticNet | None = None
    values = _Values()
    for lineno, raw in enumerate(source.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        if net is not None and _add_statement(net, line, values):
            continue
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno, line)
        head = tokens[0]
        if net is None:
            if not cur.accept_keyword("net"):
                raise ParseError(lineno, head.col, "net header expected")
            net = _parse_header(cur)
        elif cur.accept_keyword("net"):
            raise ParseError(lineno, head.col, "duplicate net header")
        elif cur.accept_keyword("vertex"):
            _parse_vertex(cur, net)
        elif cur.accept_keyword("edge"):
            _parse_edge(cur, net)
        else:
            raise ParseError(lineno, head.col,
                             f"statement expected (vertex or edge), "
                             f"found {head.text!r}")
        cur.expect_end()
    if net is None:
        raise ParseError(1, 1, "net header expected")
    return net


def _quote(text: str) -> str:
    return '"' + text.translate(_UNESCAPES) + '"'


def format_net(net: SemanticNet) -> str:
    """Render a net in canonical form; the output re-parses to an equal net.

    Canonical means: header with explicit scale, vertices then edges in
    insertion order, numbers printed with minimal digits, empty edge labels
    omitted.
    """
    return "".join(_pnet_lines(net))


def _pnet_lines(net: SemanticNet) -> Iterator[str]:
    """``format_net``'s text in order, one line at a time."""
    text = ChannelTriple.__str__
    vertices = net._vertices
    yield (f"net {net.mode.value.lower()} {_quote(net.name)} scale "
           f"{' '.join(fmt_number(s) for s in net.scale)}\n")
    for v in vertices:
        yield (f"vertex {v.label} {text(v.membership)}"
               f"{' indeterminate' if v.indeterminate else ''}\n")
    for e in net._edges:
        yield (f"edge {vertices[e.src].label} -> {vertices[e.dst].label}"
               f"{f' label {_quote(e.label)}' if e.label else ''} {text(e.weight)}"
               f"{' indeterminate' if e.indeterminate else ''}\n")
