"""Lossless JSON serialization and DOT rendering of semantic nets.

``to_json`` writes the document as ``json.dumps(doc, indent=2)`` would, with
keys in a fixed order so equal nets give byte-equal output: two-space
indents, ASCII only with ``\\uXXXX`` escapes, and one trailing newline.  In
short::

    { "mode": "FNSN|PNSN|PFNSN", "name": "...", "scale": [3.0, 2.0, 1.0],
      "vertices": [ { "id": 0, "label": "night", "indeterminate": false,
                      "membership": [ {"d": 3.0}, {"d": 0.0}, {"d": 0.0} ] } ],
      "edges":    [ { "src": 0, "dst": 1, "label": "rather", "indeterminate": false,
                      "weight": [ {"d": 2.4}, {"d": 0.0}, {"d": 0.0} ] } ] }

A channel entry is ``{"d": x}`` for a determinate degree or ``{"i": n}``
for the indeterminacy n*I, with x and n numbers.  ``mode``, ``name`` and
``label`` are strings, ``scale`` is three numbers, ``id``, ``src`` and
``dst`` are integers (``true`` is none) and ``indeterminate`` is a boolean.
Optional: ``indeterminate`` (default false), an edge's ``label`` (default
"") and ``directed``, which must be true if present.  Vertex ids, which
``src`` and ``dst`` refer to, are any distinct integers; the loaded net
renumbers them by insertion position.  Documents are untrusted on input.
The loader checks the schema and resolves vertex ids; core checks every net
invariant, and its error is reported at the JSON path it concerns, like
``$.edges[0].weight[1]``, with the message the ``.pnet`` parser gives.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .analysis import normalize
from .core import ChannelTriple, NetError, NetMode, NeutroValue, SemanticNet

__all__ = ["SchemaError", "to_json", "from_json", "to_dot"]


class SchemaError(ValueError):
    """A malformed or invariant-breaking JSON document."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def __reduce__(self):
        # Exception pickles only the formatted text, which __init__ cannot
        # take back; rebuild from the fields so the error crosses processes.
        return type(self), (self.path, self.message)


def _entries(triple: ChannelTriple) -> str:
    """The ``membership`` or ``weight`` array of a vertex or an edge."""
    a, b, c = triple.c1, triple.c2, triple.c3
    return (f'[\n        {{\n          "{"i" if a.indeterminate else "d"}": '
            f'{a.magnitude!r}\n        }},\n        {{\n          '
            f'"{"i" if b.indeterminate else "d"}": {b.magnitude!r}\n        }},'
            f'\n        {{\n          "{"i" if c.indeterminate else "d"}": '
            f'{c.magnitude!r}\n        }}\n      ]')


def _array(items: str) -> str:
    return f"[\n{items}\n  ]" if items else "[]"


def to_json(net: SemanticNet) -> str:
    """Serialize a net to its canonical JSON document.  Construction keeps
    every number finite; a non-finite scale raises ``ValueError``."""
    scale = net.scale
    if not all(map(math.isfinite, scale)):
        raise ValueError(f"JSON cannot write the non-finite scale {scale!r}")
    vertices = ",\n".join(
        f'    {{\n      "id": {v.id},\n      "label": {_quote(v.label)},\n'
        f'      "indeterminate": {"true" if v.indeterminate else "false"},\n'
        f'      "membership": {_entries(v.membership)}\n    }}'
        for v in net._vertices)
    edges = ",\n".join(
        f'    {{\n      "src": {e.src},\n      "dst": {e.dst},\n'
        f'      "label": {_quote(e.label)},\n'
        f'      "indeterminate": {"true" if e.indeterminate else "false"},\n'
        f'      "weight": {_entries(e.weight)}\n    }}'
        for e in net._edges)
    return (f'{{\n  "mode": "{net.mode.value}",\n  "name": {_quote(net.name)},\n'
            f'  "scale": [\n    {scale[0]!r},\n    {scale[1]!r},\n'
            f'    {scale[2]!r}\n  ],\n  "vertices": {_array(vertices)},\n'
            f'  "edges": {_array(edges)}\n}}\n')


_MISSING = object()
_KIND_WORDS = {dict: "object", list: "array", str: "string", bool: "boolean",
               int: "integer"}


def _field(obj: dict, key: str, path: str, kind: type,
           default: Any = _MISSING) -> Any:
    """``obj[key]`` (``default`` when absent) if its type is exactly ``kind``;
    ``json.loads`` builds exact types, so ``true`` is no integer here."""
    value = obj.get(key, default)
    if type(value) is kind:
        return value
    raise SchemaError(f"{path}.{key}", "missing field" if value is _MISSING
                      else f"{_KIND_WORDS[kind]} expected")


def _number(value: Any) -> float | None:
    """A JSON number as a float, else None.  Core rejects the non-finite
    floats that NaN, Infinity and 1e999 load as, and the caller locates it."""
    if type(value) is not int:
        return value if type(value) is float else None
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        return math.inf


def _triple(obj: dict, key: str, path: str,
            values: dict[tuple[float, bool], NeutroValue]) -> ChannelTriple:
    """The channel entries ``obj[key]`` of the element at ``path``.

    Values are immutable, so one load shares a value among equal entries
    through ``values``, keyed by number and flag as ``NeutroValue`` takes
    them.  Only a value that was built is stored: a NaN, which no value
    holds, never hits, and each bad entry fails at its own path.
    """
    entries = _field(obj, key, path, list)
    if len(entries) != 3:
        raise SchemaError(f"{path}.{key}",
                          f"3 channel entries expected, got {len(entries)}")
    triple = []
    for k, entry in enumerate(entries):
        if type(entry) is not dict:
            problem = "object expected"
        elif len(entry) != 1 or ("d" not in entry and "i" not in entry):
            problem = 'exactly one of "d" or "i" expected'
        elif (x := _number(entry.get("d", entry.get("i")))) is None:
            problem = "number expected"
        else:
            flagged = (x, "i" in entry)
            try:
                triple.append(values.get(flagged)
                              or values.setdefault(flagged, NeutroValue(*flagged)))
                continue
            except NetError as exc:
                problem = str(exc)
        raise SchemaError(f"{path}.{key}[{k}]", problem)
    return ChannelTriple(*triple)


def from_json(text: str) -> SemanticNet:
    """Load a net; a :class:`SchemaError` locates the first problem in ``text``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"malformed JSON: {exc.msg} "
                          f"(line {exc.lineno} column {exc.colno})") from exc
    except RecursionError:
        raise SchemaError("$", "malformed JSON: arrays or objects nested "
                          "too deeply") from None
    if type(doc) is not dict:
        raise SchemaError("$", "object expected")
    mode_name = _field(doc, "mode", "$", str)
    try:
        mode = NetMode(mode_name)
    except ValueError:
        raise SchemaError("$.mode", f"unknown mode {mode_name!r} "
                          "(expected FNSN, PNSN or PFNSN)") from None
    name = _field(doc, "name", "$", str)
    scale = tuple(map(_number, _field(doc, "scale", "$", list)))
    if len(scale) != 3:
        raise SchemaError("$.scale", f"3 components expected, got {len(scale)}")
    if None in scale:
        raise SchemaError(f"$.scale[{scale.index(None)}]", "number expected")
    try:
        net = SemanticNet(mode, name, scale)
    except NetError as exc:
        raise _located(exc, "$", "scale") from exc
    if doc.get("directed", True) is not True:
        raise SchemaError("$.directed", "only directed nets are supported")

    id_map: dict[int, int] = {}
    values: dict[tuple[float, bool], NeutroValue] = {}
    for i, obj in enumerate(_field(doc, "vertices", "$", list)):
        path = f"$.vertices[{i}]"
        if type(obj) is not dict:
            raise SchemaError(path, "object expected")
        ext_id = _field(obj, "id", path, int)
        if ext_id in id_map:
            raise SchemaError(f"{path}.id", f"duplicate vertex id {ext_id}")
        label = _field(obj, "label", path, str)
        indeterminate = _field(obj, "indeterminate", path, bool, False)
        membership = _triple(obj, "membership", path, values)
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
        weight = _triple(obj, "weight", path, values)
        try:
            net.add_edge(id_map[src], id_map[dst], weight, label, indeterminate)
        except NetError as exc:
            raise _located(exc, path, "weight") from exc
    return net


def _located(exc: NetError, path: str, triple_key: str) -> SchemaError:
    """Core's ``exc`` at the path it concerns: the channel entry under
    ``triple_key`` (a scale, membership or weight), the vertex label, else
    the vertex or edge itself."""
    if exc.channel is not None:
        path = f"{path}.{triple_key}[{exc.channel - 1}]"
    elif exc.kind in ("label", "duplicate label"):
        path = f"{path}.label"
    return SchemaError(path, str(exc))


def _dot_escape(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r"))


def to_dot(net: SemanticNet) -> str:
    """Render a net as a DOT graph document.

    Vertices show their label and normalized triple (two decimals);
    indeterminate vertices are dotted and prefixed N_1, N_2, ...  Edges show
    the relation word and raw degree triple; indeterminate edges are dotted.
    Vertex labels go unescaped: they are identifiers, with nothing to escape.
    """
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
        text = _dot_escape(f"{e.label} {e.weight}" if e.label else str(e.weight))
        style = ", style=dotted" if e.indeterminate else ""
        out.append(f'  "{vertices[e.src].label}" -> "{vertices[e.dst].label}" '
                   f'[label="{text}"{style}];')
    out.append("}")
    return "\n".join(out) + "\n"
