"""The ``.pnet`` tokenizer against a frozen copy of its former implementation.

``dsl._tokenize`` reads each token with one regex match.  The reference
below walks the line one character at a time, as the tokenizer once did.
For every line both must give the same tokens (kind, text, column and
decoded string) or the same :class:`ParseError` (line, column and message).
"""
from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarnet.dsl import ParseError, _Token, _tokenize, parse_net

from strategies import mutated_pnet

# -- reference copy ------------------------------------------------------------

_REF_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
_REF_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}


def ref_tokenize(line: str, lineno: int) -> list[_Token]:
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
                    if esc not in _REF_ESCAPES:
                        raise ParseError(lineno, pos + 2,
                                         f"unknown escape '\\{esc}'")
                    out.append(_REF_ESCAPES[esc])
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
        m = _REF_NUM_RE.match(line, pos)
        if m:
            end = m.end()
            kind = "num"
            if end < n and line[end] == "I":
                kind, end = "inum", end + 1
            if end < n and (line[end].isalnum() or line[end] in "_."):
                raise ParseError(lineno, col, f"malformed number starting "
                                 f"at {line[pos:end + 1]!r}")
            tokens.append(_Token(kind, line[pos:end], col))
            pos = end
            continue
        m = _REF_WORD_RE.match(line, pos)
        if m:
            tokens.append(_Token("word", m.group(0), col))
            pos = m.end()
            continue
        raise ParseError(lineno, col, f"unexpected character {ch!r}")
    return tokens


# -- comparison ----------------------------------------------------------------

def _outcome(tokenize, line, lineno):
    """The tokens' fields, or the error's line, column and message."""
    try:
        return [(t.kind, t.text, t.col, t.string) for t in tokenize(line, lineno)]
    except ParseError as exc:
        return exc.line, exc.column, exc.message


# Characters the tokenizer treats apart, and some it must reject: "٣" is
# ARABIC-INDIC DIGIT THREE, a digit to str.isalnum and to \d without ASCII.
_ALPHABET = list(' "\\#(),->.Ie\t\r0123456789azAZ_é٣\ud800')


@st.composite
def pnet_lines(draw) -> str:
    """A line of a mutated ``.pnet`` text, or a line of odd characters."""
    if draw(st.booleans()):
        return draw(st.sampled_from(draw(mutated_pnet()).split("\n")))
    return draw(st.text(alphabet=_ALPHABET, max_size=30))


@settings(max_examples=1000)
@given(pnet_lines(), st.integers(1, 5))
@example('net fnsn "a\\', 1)  # dangling escape
@example('net fnsn "a\\q"', 1)  # unknown escape
@example('net fnsn "a\\qb', 1)  # the unknown escape before the missing quote
@example('net fnsn "x6', 1)  # unterminated string
@example("edge a - b (1, 0, 0)", 4)  # a bare "-"
@example("vertex a (0,\r0, 0)", 2)  # unexpected character
@example("vertex a (0.5Ix, 0, 0)", 2)  # malformed number
@example('\tedge a->b label "x\\ty\\\\n\\"#" (0, .5I, I) # "c', 3)
def test_tokenize_matches_the_reference(line, lineno):
    assert _outcome(_tokenize, line, lineno) == _outcome(ref_tokenize, line, lineno)


@pytest.mark.parametrize("source,line,column,message", [
    ('net fnsn "a\\', 1, 12, "dangling escape in string"),
    ('net fnsn "a\\q"', 1, 13, "unknown escape '\\q'"),
    ('net fnsn "a\\qb', 1, 13, "unknown escape '\\q'"),
    ('net fnsn "x"\nvertex a (0, 0, 0)\nvertex b (0, 0, 0)\n'
     "edge a - b (1, 0, 0)", 4, 8, "expected '->'"),
    ('net fnsn "x"\nvertex a (0,\r0, 0)', 2, 13, "unexpected character '\\r'"),
    ('net fnsn "x"\nvertex a (0.5Ix, 0, 0)', 2, 11,
     "malformed number starting at '0.5Ix'"),
    ('net fnsn "x"\n\tvertex a (0, 0, 0) extra', 2, 21,
     "unexpected trailing token 'extra'"),
], ids=["dangling-escape", "unknown-escape", "escape-before-quote", "bare-dash",
        "carriage-return", "malformed-number", "trailing-token"])
def test_a_token_error_is_located(source, line, column, message):
    with pytest.raises(ParseError) as info:
        parse_net(source)
    assert (info.value.line, info.value.column, info.value.message) == (
        line, column, message)
