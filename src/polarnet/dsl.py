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
CRLF line endings; the suggested extension is ``.pnet``.

Every input either parses to a net or raises :class:`ParseError` with a
1-based line and column.  The parser resolves vertex names (an unknown edge
endpoint is its own error); core checks every net invariant, and its error
is reported at the token it concerns: a channel problem at the value, a
duplicate label at the label, a loop at the destination and a duplicate
edge at the source.  Messages are core's, so they read the same as JSON's.

After the header, a well-formed vertex or edge line is read with one regex
match.  The header, every other line, and every line that would fail (no
match, an unknown endpoint, or any error from core) go through the token
parser, which alone raises :class:`ParseError`, so errors are located and
worded the same whichever way a line was first tried.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (ChannelTriple, NetError, NetMode, NeutroValue, SemanticNet,
                   fmt_number)

__all__ = ["ParseError", "parse_net", "format_net"]

_MODES = {m.value.lower(): m for m in NetMode}
_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_NUM_RE = re.compile(_NUM, re.ASCII)
_WORD_RE = re.compile(_IDENT)
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
_ESCAPE_SEQ = re.compile(r"\\(.)")
_UNESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
                            "\t": "\\t"})


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


@dataclass(frozen=True)
class _Token:
    kind: str  # word | num | inum | quoted | ( | ) | , | ->
    text: str
    col: int  # 1-based
    value: float | None = None
    string: str | None = None


def _tokenize(line: str, lineno: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(line)
    while pos < n:
        ch = line[pos]
        if ch in " \t":
            pos += 1
            continue
        if ch == "#":
            break
        col = pos + 1
        if ch in "(),":
            tokens.append(_Token(ch, ch, col))
            pos += 1
            continue
        if ch == "-":
            if pos + 1 < n and line[pos + 1] == ">":
                tokens.append(_Token("->", "->", col))
                pos += 2
                continue
            raise ParseError(lineno, col, "expected '->'")
        if ch == '"':
            pos += 1
            out: list[str] = []
            while pos < n:
                c = line[pos]
                if c == "\\":
                    if pos + 1 >= n:
                        raise ParseError(lineno, pos + 1,
                                         "dangling escape in string")
                    esc = line[pos + 1]
                    if esc not in _ESCAPES:
                        raise ParseError(lineno, pos + 2,
                                         f"unknown escape '\\{esc}'")
                    out.append(_ESCAPES[esc])
                    pos += 2
                    continue
                if c == '"':
                    pos += 1
                    break
                out.append(c)
                pos += 1
            else:
                raise ParseError(lineno, n + 1, "unterminated string")
            tokens.append(_Token("quoted", line[col - 1:pos], col,
                                 string="".join(out)))
            continue
        m = _NUM_RE.match(line, pos)
        if m:
            text = m.group(0)
            end = m.end()
            kind = "num"
            if end < n and line[end] == "I":
                kind = "inum"
                end += 1
                text = line[pos:end]
            if end < n and (line[end].isalnum() or line[end] in "_."):
                raise ParseError(lineno, col, f"malformed number starting "
                                 f"at {line[pos:end + 1]!r}")
            tokens.append(_Token(kind, text, col, value=float(m.group(0))))
            pos = end
            continue
        m = _WORD_RE.match(line, pos)
        if m:
            tokens.append(_Token("word", m.group(0), col))
            pos = m.end()
            continue
        raise ParseError(lineno, col, f"unexpected character {ch!r}")
    return tokens


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
    if tok.kind == "num":
        make, number = NeutroValue.determinate, tok.value
    elif tok.kind == "inum":
        make, number = NeutroValue.indeterminacy, tok.value
    elif tok.kind == "word" and tok.text == "I":
        make, number = NeutroValue.indeterminacy, 1.0
    else:
        raise cur._fail(f"degree value expected, found {tok.text!r}", tok)
    cur.pos += 1
    try:
        return make(number), tok
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
    name = cur.take("quoted", "quoted net name").string
    if not cur.accept_keyword("scale"):
        return SemanticNet(mode, name)
    tokens = [cur.take("num", f"channel {k} scale") for k in range(1, 4)]
    try:
        return SemanticNet(mode, name, tuple(tok.value for tok in tokens))
    except NetError as exc:
        raise ParseError(cur.lineno, tokens[exc.channel - 1].col, str(exc)) from exc


def _located(cur: _Cursor, exc: NetError, values: list[_Token],
             label: _Token, dst: _Token | None = None) -> ParseError:
    """Core's ``exc`` at the token it concerns: a channel's value, the
    destination of a loop, else the vertex label or edge source."""
    if exc.channel is not None:
        tok = values[exc.channel - 1]
    elif exc.kind == "loop":
        tok = dst
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
    label = ""
    if cur.accept_keyword("label"):
        label = cur.take("quoted", "quoted edge label").string
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
        net.add_edge(src.id, dst.id, triple, label=label,
                     indeterminate=indeterminate)
    except NetError as exc:
        raise _located(cur, exc, tokens, src_tok, dst_tok) from exc


def _value(text: str) -> NeutroValue:
    if text == "I":
        return NeutroValue.indeterminacy(1.0)
    if text[-1] == "I":
        return NeutroValue.indeterminacy(float(text[:-1]))
    return NeutroValue.determinate(float(text))


def _triple(texts: list[str], values: dict[str, NeutroValue]) -> ChannelTriple:
    # Values are immutable, so one parse shares a value among equal texts.
    return ChannelTriple(*[values.get(text) or values.setdefault(text, _value(text))
                           for text in texts])


def _add_statement(net: SemanticNet, line: str,
                   values: dict[str, NeutroValue]) -> bool:
    """Add a well-formed vertex or edge line to ``net`` with one match.

    Returns False, leaving ``net`` unchanged, for any other line, including
    one naming an unknown vertex or one that core rejects; the token parser
    then reads that line and reports its error at the offending token.
    """
    try:
        m = _VERTEX_LINE.fullmatch(line)
        if m is not None:
            label, *texts, flag = m.groups()
            net.add_vertex(label, _triple(texts, values),
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
        net.add_edge(src.id, dst.id, _triple(texts, values), label=label or "",
                     indeterminate=flag is not None)
        return True
    except NetError:
        return False


def parse_net(source: str) -> SemanticNet:
    """Parse net description text into a :class:`SemanticNet`.

    Raises:
        ParseError: on the first syntax or semantic violation, carrying the
            1-based line and column of the offending token.
    """
    net: SemanticNet | None = None
    values: dict[str, NeutroValue] = {}
    lines = source.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        if net is not None and _add_statement(net, line, values):
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


def _quote(text: str) -> str:
    return '"' + text.translate(_UNESCAPES) + '"'


def format_net(net: SemanticNet) -> str:
    """Render a net in canonical form; the output re-parses to an equal net.

    Canonical means: header with explicit scale, vertices then edges in
    insertion order, numbers printed with minimal digits, empty edge labels
    omitted.
    """
    lines = [f"net {net.mode.value.lower()} {_quote(net.name)} scale "
             + " ".join(fmt_number(s) for s in net.scale)]
    vertices = net.vertices
    for v in vertices:
        line = f"vertex {v.label} {v.membership}"
        if v.indeterminate:
            line += " indeterminate"
        lines.append(line)
    for e in net.edges:
        line = f"edge {vertices[e.src].label} -> {vertices[e.dst].label}"
        if e.label:
            line += f" label {_quote(e.label)}"
        line += f" {e.weight}"
        if e.indeterminate:
            line += " indeterminate"
        lines.append(line)
    return "\n".join(lines) + "\n"
