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
``$.edges[0].weight[1]``, with the message the ``.pnet`` parser gives.

A load decodes the document once, each well-formed channel entry straight
into its value, so the entry objects are freed as the decoder makes them,
and equal numbers under one flag share one value.  Each vertex and edge is
added from a few inline type tests and then released from the document, so
the net grows into the memory the document gives back.  Only an element
that fails a test is read again, field by field, to word its first problem.
An object the loader reads may not repeat a key, ``$: duplicate key "mode"``,
nor hold one it does not read, ``$.vertices[0]: unknown field "x"``, which is
checked after its fields: last in the header, before core's checks elsewhere.

``to_dot`` writes each line from one f-string, a weight as ``str(triple)``,
and normalizes a membership inline, so it imports no ``analysis``.

``_json_pieces`` and ``_dot_lines`` yield each document in pieces, in order;
``to_json`` and ``to_dot`` join them, and the CLI writes them as they come.
"""
from __future__ import annotations

from typing import Any, Iterator

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


def _json_pieces(net: SemanticNet) -> Iterator[str]:
    """``to_json``'s document in order: the header, each vertex and each edge
    with the separator before it, the text between the arrays and the end."""
    from json.encoder import encode_basestring_ascii as _quote
    scale = net.scale
    yield (f'{{\n  "mode": "{net.mode.value}",\n  "name": {_quote(net.name)},\n'
           f'  "scale": [\n    {scale[0]!r},\n    {scale[1]!r},\n'
           f'    {scale[2]!r}\n  ],\n  "vertices": [')
    sep = "\n"
    for v in net._vertices:
        yield (f'{sep}    {{\n      "id": {v.id},\n      "label": {_quote(v.label)},\n'
               f'      "indeterminate": {"true" if v.indeterminate else "false"},\n'
               f'      "membership": {_entries(v.membership)}\n    }}')
        sep = ",\n"
    yield ("\n  ]" if net._vertices else "]") + ',\n  "edges": ['
    sep = "\n"
    for e in net._edges:
        yield (f'{sep}    {{\n      "src": {e.src},\n      "dst": {e.dst},\n'
               f'      "label": {_quote(e.label)},\n'
               f'      "indeterminate": {"true" if e.indeterminate else "false"},\n'
               f'      "weight": {_entries(e.weight)}\n    }}')
        sep = ",\n"
    yield ("\n  ]" if net._edges else "]") + "\n}\n"


def to_json(net: SemanticNet) -> str:
    """Serialize a net to its canonical JSON document.  Construction keeps
    every number finite, so each is written as its ``repr``."""
    return "".join(_json_pieces(net))


_MISSING = object()
_KIND_WORDS = {dict: "object", list: "array", str: "string", bool: "boolean",
               int: "integer"}
_DOC_KEYS = frozenset({"mode", "name", "scale", "vertices", "edges", "directed"})
_VERTEX_KEYS = frozenset({"id", "label", "indeterminate", "membership"})
_EDGE_KEYS = frozenset({"src", "dst", "label", "indeterminate", "weight"})


def _field(obj: dict, key: str, path: str, kind: type,
           default: Any = _MISSING) -> Any:
    """``obj[key]`` (``default`` when absent) if its type is exactly ``kind``;
    ``json.loads`` builds exact types, so ``true`` is no integer here."""
    value = obj.get(key, default)
    if type(value) is kind:
        return value
    raise SchemaError(f"{path}.{key}", "missing field" if value is _MISSING
                      else f"{_KIND_WORDS[kind]} expected")


class _RepeatedKey(str):
    """The first key that an object repeats, decoded in place of the object."""


def _pairs_hook():
    """A ``json.loads`` object pairs hook that turns each well-formed channel
    entry into its value, and an object that repeats a key into that key as
    a :class:`_RepeatedKey`; any other object is built as ``json.loads``
    builds it.

    A well-formed entry has exactly one key, ``"d"`` or ``"i"``, whose number
    builds a value.  Values are immutable, so one load shares a value among
    equal entries through ``det`` and ``ind``, keyed by number, one dict per
    flag.  Only a value that was built is stored: a NaN never hits, and a bad
    entry stays an object for ``_triple`` to word.
    """
    det: dict[float, NeutroValue] = {}
    ind: dict[float, NeutroValue] = {}

    def hook(pairs: list[tuple[str, Any]]) -> Any:
        if len(pairs) == 1:
            key, x = pairs[0]
            values = det if key == "d" else ind if key == "i" else None
            # the type test comes first: ``true`` would hit the value of 1
            if values is None or (type(x) is not float and type(x) is not int):
                return {key: x}
            value = values.get(x)
            if value is None:
                try:
                    value = values[x] = NeutroValue(x, values is ind)
                except NetError:
                    return {key: x}
            return value
        obj = dict(pairs)
        if len(obj) == len(pairs):
            return obj
        seen = set()
        for key, _ in pairs:
            if key in seen:
                return _RepeatedKey(key)
            seen.add(key)

    return hook


def _object(obj: Any, path: str) -> dict:
    """The object at ``path`` as ``json.loads`` would give it: a value the
    hook made is turned back into its one-key object.  Raises for an object
    that repeats a key, and for anything else that is not an object."""
    if type(obj) is NeutroValue:
        return {"i" if obj.indeterminate else "d": obj.magnitude}
    if type(obj) is _RepeatedKey:
        from json.encoder import encode_basestring_ascii as _quote
        raise SchemaError(path, f"duplicate key {_quote(obj)}")
    if type(obj) is not dict:
        raise SchemaError(path, "object expected")
    return obj


def _known_keys(obj: dict, path: str, keys: frozenset) -> None:
    """Raises for the first key of ``obj`` that is not in ``keys``."""
    if unknown := [key for key in obj if key not in keys]:
        from json.encoder import encode_basestring_ascii as _quote
        raise SchemaError(path, f"unknown field {_quote(unknown[0])}")


def _triple(obj: dict, key: str, path: str) -> ChannelTriple:
    """The channel entries ``obj[key]`` of the element at ``path``; raises
    the first problem at its path."""
    entries = _field(obj, key, path, list)
    if len(entries) != 3:
        raise SchemaError(f"{path}.{key}",
                          f"3 channel entries expected, got {len(entries)}")
    values = []
    for k, entry in enumerate(entries):
        if type(entry) is NeutroValue:
            values.append(entry)
            continue
        entry = _object(entry, f"{path}.{key}[{k}]")
        if len(entry) != 1 or not ((flag := "i" in entry) or "d" in entry):
            problem = 'exactly one of "d" or "i" expected'
        elif type(x := entry["i" if flag else "d"]) not in (int, float):
            problem = "number expected"
        else:
            try:
                values.append(NeutroValue(x, flag))
                continue
            except NetError as exc:
                problem = str(exc)
        raise SchemaError(f"{path}.{key}[{k}]", problem)
    return ChannelTriple(*values)


def from_json(text: str) -> SemanticNet:
    """Load a net; a :class:`SchemaError` locates the first problem in ``text``."""
    import json
    try:
        doc = json.loads(text, object_pairs_hook=_pairs_hook())
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"malformed JSON: {exc.msg} "
                          f"(line {exc.lineno} column {exc.colno})") from exc
    except RecursionError:
        raise SchemaError("$", "malformed JSON: arrays or objects nested "
                          "too deeply") from None
    except ValueError as exc:  # an integer literal over the digit limit
        raise SchemaError("$", f"malformed JSON: {exc}") from exc
    doc = _object(doc, "$")
    net = _header(doc)
    # Each element whose inline tests pass is added as it stands; any other
    # is read field by field, which raises its first schema problem.
    id_map: dict[int, int] = {}
    vertices = _field(doc, "vertices", "$", list)
    for i, obj in enumerate(vertices):
        if (type(obj) is dict and obj.keys() <= _VERTEX_KEYS
                and type(ext_id := obj.get("id")) is int
                and ext_id not in id_map
                and type(label := obj.get("label")) is str
                and type(flag := obj.get("indeterminate", False)) is bool
                and type(m := obj.get("membership")) is list and len(m) == 3
                and type(m[0]) is NeutroValue and type(m[1]) is NeutroValue
                and type(m[2]) is NeutroValue):
            membership = ChannelTriple(*m)
        else:
            ext_id, label, flag, membership = _read_vertex(
                obj, f"$.vertices[{i}]", id_map)
        try:
            id_map[ext_id] = net.add_vertex(label, membership, flag)
        except NetError as exc:
            raise _located(exc, f"$.vertices[{i}]", "membership") from exc
        vertices[i] = None
    edges = _field(doc, "edges", "$", list)
    for i, obj in enumerate(edges):
        if (type(obj) is dict and obj.keys() <= _EDGE_KEYS
                and type(src := obj.get("src")) is int
                and src in id_map and type(dst := obj.get("dst")) is int
                and dst in id_map
                and type(label := obj.get("label", "")) is str
                and type(flag := obj.get("indeterminate", False)) is bool
                and type(w := obj.get("weight")) is list and len(w) == 3
                and type(w[0]) is NeutroValue and type(w[1]) is NeutroValue
                and type(w[2]) is NeutroValue):
            weight = ChannelTriple(*w)
        else:
            src, dst, label, flag, weight = _read_edge(
                obj, f"$.edges[{i}]", id_map)
        try:
            net.add_edge(id_map[src], id_map[dst], weight, label, flag)
        except NetError as exc:
            raise _located(exc, f"$.edges[{i}]", "weight") from exc
        edges[i] = None
    return net


def _header(doc: dict) -> SemanticNet:
    """The empty net that the document's mode, name and scale describe."""
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
    _known_keys(doc, "$", _DOC_KEYS)
    return net


def _read_vertex(obj: Any, path: str, id_map: dict[int, int]
                 ) -> tuple[int, str, bool, ChannelTriple]:
    """The id, label, flag and membership of the vertex at ``path``, read
    field by field; raises its first problem at its path."""
    obj = _object(obj, path)
    ext_id = _field(obj, "id", path, int)
    if ext_id in id_map:
        raise SchemaError(f"{path}.id", f"duplicate vertex id {ext_id}")
    vertex = (ext_id, _field(obj, "label", path, str),
              _field(obj, "indeterminate", path, bool, False),
              _triple(obj, "membership", path))
    _known_keys(obj, path, _VERTEX_KEYS)
    return vertex


def _read_edge(obj: Any, path: str, id_map: dict[int, int]
               ) -> tuple[int, int, str, bool, ChannelTriple]:
    """The source and target ids, label, flag and weight of the edge at
    ``path``, read field by field; raises its first problem at its path."""
    obj = _object(obj, path)
    src = _field(obj, "src", path, int)
    if src not in id_map:
        raise SchemaError(f"{path}.src", f"unknown vertex id {src}")
    dst = _field(obj, "dst", path, int)
    if dst not in id_map:
        raise SchemaError(f"{path}.dst", f"unknown vertex id {dst}")
    edge = (src, dst, _field(obj, "label", path, str, ""),
            _field(obj, "indeterminate", path, bool, False),
            _triple(obj, "weight", path))
    _known_keys(obj, path, _EDGE_KEYS)
    return edge


def _located(exc: NetError, path: str, triple_key: str) -> SchemaError:
    """Core's ``exc`` at the path it concerns: the channel entry under
    ``triple_key`` (a scale, membership or weight), the net name, the vertex
    or edge label, else the vertex or edge itself."""
    if exc.channel is not None:
        path = f"{path}.{triple_key}[{exc.channel - 1}]"
    elif exc.kind in ("label", "duplicate label", "lone surrogate"):
        path = f"{path}.{'name' if path == '$' else 'label'}"
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
    return "".join(_dot_lines(net))


def _dot_lines(net: SemanticNet) -> Iterator[str]:
    """``to_dot``'s document in order, one line at a time."""
    weight_text = ChannelTriple.__str__
    s1, s2, s3 = net.scale
    yield f'digraph "{_dot_escape(net.name)}" {{\n' if net.name else "digraph {\n"
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
        yield (f'  "{v.label}" [label="{text}\\n({p:.2f}, {u:.2f}, {n:.2f})"'
               f'{style}];\n')
    for e in net._edges:
        yield (f'  "{vertices[e.src].label}" -> "{vertices[e.dst].label}" [label="'
               f'{f"{_dot_escape(e.label)} " if e.label else ""}'
               f'{weight_text(e.weight)}"'
               f'{", style=dotted" if e.indeterminate else ""}];\n')
    yield "}\n"
