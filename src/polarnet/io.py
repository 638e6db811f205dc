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
``label`` are strings (a name or edge label holds no lone surrogate),
``scale`` is three numbers, ``id``, ``src`` and ``dst`` are integers
(``true`` is none) and ``indeterminate`` is a boolean.
Optional: ``indeterminate`` (default false), an edge's ``label`` (default
"") and ``directed``, which must be true if present.  Vertex ids, which
``src`` and ``dst`` refer to, are any distinct integers; the loaded net
renumbers them by insertion position.  Documents are untrusted on input.
The loader checks the schema and resolves vertex ids; core checks every net
invariant, and its error is reported at the JSON path it concerns, like
``$.edges[0].weight[1]``, with the message the ``.pnet`` parser gives.  A
well-formed vertex or edge passes a few inline type tests and is added at
once; any other is checked field by field, so the first problem is found
and worded the same either way.  Equal numbers under one flag share one
value within a load.

``to_dot`` writes each line from one f-string, formats each distinct
channel entry once per call and normalizes a membership inline, so it
imports no ``analysis``.
"""
from __future__ import annotations

from typing import Any

from .core import (ChannelTriple, NetError, NetMode, NeutroValue, SemanticNet,
                   triple_formatter)

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
    every number finite, so each is written as its ``repr``."""
    from json.encoder import encode_basestring_ascii as _quote
    scale = net.scale
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


def _text(obj: dict, key: str, path: str, default: Any = _MISSING) -> str:
    """``_field`` for a name or edge label, which output encodes as UTF-8, so
    it cannot hold the lone surrogate that a JSON escape can spell."""
    text = _field(obj, key, path, str, default)
    try:
        text.encode()
    except UnicodeEncodeError:
        raise SchemaError(f"{path}.{key}", "lone surrogate in string") from None
    return text


def _shared(entries: Any, det: dict[float, NeutroValue],
            ind: dict[float, NeutroValue]) -> ChannelTriple | None:
    """The triple of a well-formed ``membership`` or ``weight`` array whose
    entries all build, else None; ``_triple`` then words the problem.

    Numbers go to core as ``json.loads`` built them.  Values are immutable,
    so one load shares a value among equal entries through ``det`` and
    ``ind``, keyed by number, one dict per flag.  Only a value that was built
    is stored: a NaN never hits, and each bad entry fails at its path.
    """
    if type(entries) is not list or len(entries) != 3:
        return None
    triple = []
    for entry in entries:
        if type(entry) is not dict or len(entry) != 1:
            return None
        if "d" in entry:
            x, values, flag = entry["d"], det, False
        elif "i" in entry:
            x, values, flag = entry["i"], ind, True
        else:
            return None
        # the type test comes first: ``true`` would hit the value of 1
        if type(x) is not float and type(x) is not int:
            return None
        value = values.get(x)
        if value is None:
            try:
                value = values[x] = NeutroValue(x, flag)
            except NetError:
                return None
        triple.append(value)
    return ChannelTriple(*triple)


def _triple(obj: dict, key: str, path: str, det: dict[float, NeutroValue],
            ind: dict[float, NeutroValue]) -> ChannelTriple:
    """The channel entries ``obj[key]`` of the element at ``path``, through
    ``_shared``; raises the first problem at its path."""
    entries = _field(obj, key, path, list)
    if len(entries) != 3:
        raise SchemaError(f"{path}.{key}",
                          f"3 channel entries expected, got {len(entries)}")
    for k, entry in enumerate(entries):
        if type(entry) is not dict:
            problem = "object expected"
        elif len(entry) != 1 or not ((flag := "i" in entry) or "d" in entry):
            problem = 'exactly one of "d" or "i" expected'
        elif type(x := entry["i" if flag else "d"]) not in (int, float):
            problem = "number expected"
        else:
            try:
                NeutroValue(x, flag)
                continue
            except NetError as exc:
                problem = str(exc)
        raise SchemaError(f"{path}.{key}[{k}]", problem)
    return _shared(entries, det, ind)


def from_json(text: str) -> SemanticNet:
    """Load a net; a :class:`SchemaError` locates the first problem in ``text``."""
    import json
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"malformed JSON: {exc.msg} "
                          f"(line {exc.lineno} column {exc.colno})") from exc
    except RecursionError:
        raise SchemaError("$", "malformed JSON: arrays or objects nested "
                          "too deeply") from None
    except ValueError as exc:  # an integer literal over the digit limit
        raise SchemaError("$", f"malformed JSON: {exc}") from exc
    if type(doc) is not dict:
        raise SchemaError("$", "object expected")
    mode_name = _field(doc, "mode", "$", str)
    try:
        mode = NetMode(mode_name)
    except ValueError:
        raise SchemaError("$.mode", f"unknown mode {mode_name!r} "
                          "(expected FNSN, PNSN or PFNSN)") from None
    name = _text(doc, "name", "$")
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

    # An element that passes the inline type tests is added at once; any
    # other is checked field by field, and its first problem raised at its
    # path, in the order the fields are read.
    id_map: dict[int, int] = {}
    det: dict[float, NeutroValue] = {}
    ind: dict[float, NeutroValue] = {}
    for i, obj in enumerate(_field(doc, "vertices", "$", list)):
        if not (type(obj) is dict and type(ext_id := obj.get("id")) is int
                and ext_id not in id_map
                and type(label := obj.get("label")) is str
                and type(flag := obj.get("indeterminate", False)) is bool
                and (membership := _shared(obj.get("membership"), det, ind))
                is not None):
            path = f"$.vertices[{i}]"
            if type(obj) is not dict:
                raise SchemaError(path, "object expected")
            ext_id = _field(obj, "id", path, int)
            if ext_id in id_map:
                raise SchemaError(f"{path}.id", f"duplicate vertex id {ext_id}")
            label = _field(obj, "label", path, str)
            flag = _field(obj, "indeterminate", path, bool, False)
            membership = _triple(obj, "membership", path, det, ind)
        try:
            id_map[ext_id] = net.add_vertex(label, membership, flag)
        except NetError as exc:
            raise _located(exc, f"$.vertices[{i}]", "membership") from exc

    for i, obj in enumerate(_field(doc, "edges", "$", list)):
        # an ASCII label needs no surrogate check
        if not (type(obj) is dict and type(src := obj.get("src")) is int
                and src in id_map and type(dst := obj.get("dst")) is int
                and dst in id_map
                and type(label := obj.get("label", "")) is str and label.isascii()
                and type(flag := obj.get("indeterminate", False)) is bool
                and (weight := _shared(obj.get("weight"), det, ind)) is not None):
            path = f"$.edges[{i}]"
            if type(obj) is not dict:
                raise SchemaError(path, "object expected")
            src = _field(obj, "src", path, int)
            if src not in id_map:
                raise SchemaError(f"{path}.src", f"unknown vertex id {src}")
            dst = _field(obj, "dst", path, int)
            if dst not in id_map:
                raise SchemaError(f"{path}.dst", f"unknown vertex id {dst}")
            label = _text(obj, "label", path, "")
            flag = _field(obj, "indeterminate", path, bool, False)
            weight = _triple(obj, "weight", path, det, ind)
        try:
            net.add_edge(id_map[src], id_map[dst], weight, label, flag)
        except NetError as exc:
            raise _located(exc, f"$.edges[{i}]", "weight") from exc
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
    Vertex labels go unescaped: they are identifiers, with nothing to escape,
    and so does a triple's text.

    A membership is normalized as ``analysis.normalize`` does it, inline:
    ``magnitude / s_k``, or 0.0 for an indeterminacy.  Construction keeps
    each degree within its scale.
    """
    weight_text = triple_formatter()
    s1, s2, s3 = net.scale
    out = ["digraph {"] if not net.name else [
        f'digraph "{_dot_escape(net.name)}" {{']
    indeterminate_count = 0
    vertices = net._vertices
    for v in vertices:
        a, b, c = v.membership.c1, v.membership.c2, v.membership.c3
        p = 0.0 if a.indeterminate else a.magnitude / s1
        u = 0.0 if b.indeterminate else b.magnitude / s2
        n = 0.0 if c.indeterminate else c.magnitude / s3
        text, style = v.label, ""
        if v.indeterminate:
            indeterminate_count += 1
            text, style = f"N_{indeterminate_count} {text}", ", style=dotted"
        out.append(f'  "{v.label}" [label="{text}\\n({p:.2f}, {u:.2f}, {n:.2f})"'
                   f'{style}];')
    out += [f'  "{vertices[e.src].label}" -> "{vertices[e.dst].label}" [label="'
            f'{f"{_dot_escape(e.label)} " if e.label else ""}{weight_text(e.weight)}"'
            f'{", style=dotted" if e.indeterminate else ""}];'
            for e in net._edges]
    out.append("}")
    return "\n".join(out) + "\n"
