"""Lossless JSON serialization and DOT rendering of semantic nets.

The JSON document layout (key order is fixed so equal nets give byte-equal
output)::

    { "mode": "FNSN|PNSN|PFNSN", "name": "...", "scale": [3.0, 2.0, 1.0],
      "vertices": [ { "id": 0, "label": "night", "indeterminate": false,
                      "membership": [ {"d": 3.0}, {"d": 0.0}, {"d": 0.0} ] } ],
      "edges":    [ { "src": 0, "dst": 1, "label": "rather", "indeterminate": false,
                      "weight": [ {"d": 2.4}, {"d": 0.0}, {"d": 0.0} ] } ] }

A channel entry is ``{"d": x}`` for a determinate degree or ``{"i": n}``
for the indeterminacy n*I.  Nets are directed, so ``"directed": false`` is
rejected.  Documents are untrusted on input.  The loader checks the schema
and resolves vertex ids; core checks every net invariant, and its error is
reported at the JSON path it concerns, like ``$.edges[0].weight[1]``, with
the same message as the ``.pnet`` parser gives.
"""
from __future__ import annotations

import json
import math
from typing import Any

from .analysis import normalize
from .core import NetError, NetMode, NeutroValue, SemanticNet

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


def _encode_value(value: NeutroValue) -> dict[str, float]:
    if value.indeterminate:
        return {"i": value.magnitude}
    return {"d": value.magnitude}


def to_json(net: SemanticNet) -> str:
    """Serialize a net to its canonical JSON document."""
    doc: dict[str, Any] = {
        "mode": net.mode.value,
        "name": net.name,
        "scale": list(net.scale),
        "vertices": [
            {
                "id": v.id,
                "label": v.label,
                "indeterminate": v.indeterminate,
                "membership": [_encode_value(x) for x in v.membership],
            }
            for v in net.vertices
        ],
        "edges": [
            {
                "src": e.src,
                "dst": e.dst,
                "label": e.label,
                "indeterminate": e.indeterminate,
                "weight": [_encode_value(x) for x in e.weight],
            }
            for e in net.edges
        ],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing field")
    return obj[key]


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, "object expected")
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, "array expected")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, "string expected")
    return value


def _boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(path, "boolean expected")
    return value


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, "number expected")
    # NaN, Infinity and 1e999 load as non-finite floats; core rejects them
    # as degrees and scales, and the caller reports that at ``path``.
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        return math.inf


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "integer expected")
    return value


def _decode_triple(value: Any, path: str) -> list[NeutroValue]:
    entries = _array(value, path)
    if len(entries) != 3:
        raise SchemaError(path, f"3 channel entries expected, got {len(entries)}")
    out = []
    for k, entry in enumerate(entries):
        epath = f"{path}[{k}]"
        obj = _object(entry, epath)
        keys = set(obj)
        if keys == {"d"}:
            ctor = NeutroValue.determinate
        elif keys == {"i"}:
            ctor = NeutroValue.indeterminacy
        else:
            raise SchemaError(epath, 'exactly one of "d" or "i" expected')
        try:
            out.append(ctor(_number(next(iter(obj.values())), epath)))
        except NetError as exc:
            raise SchemaError(epath, str(exc)) from exc
    return out


def from_json(text: str) -> SemanticNet:
    """Parse and re-validate a JSON document into a :class:`SemanticNet`.

    Raises:
        SchemaError: for malformed JSON, schema violations, or invariant
            violations, with the JSON path of the offending element.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"malformed JSON: {exc.msg} "
                          f"(line {exc.lineno} column {exc.colno})") from exc
    except RecursionError:
        raise SchemaError("$", "malformed JSON: arrays or objects nested "
                          "too deeply") from None
    root = _object(doc, "$")
    mode_name = _string(_get(root, "mode", "$"), "$.mode")
    try:
        mode = NetMode(mode_name)
    except ValueError:
        raise SchemaError("$.mode", f"unknown mode {mode_name!r} "
                          "(expected FNSN, PNSN or PFNSN)") from None
    name = _string(_get(root, "name", "$"), "$.name")
    scale_arr = _array(_get(root, "scale", "$"), "$.scale")
    if len(scale_arr) != 3:
        raise SchemaError("$.scale", f"3 components expected, got {len(scale_arr)}")
    scale = tuple(_number(component, f"$.scale[{k}]")
                  for k, component in enumerate(scale_arr))
    try:
        net = SemanticNet(mode, name, scale)
    except NetError as exc:
        raise _located(exc, "$", "scale") from exc
    if root.get("directed", True) is not True:
        raise SchemaError("$.directed", "only directed nets are supported")

    id_map: dict[int, int] = {}
    for i, item in enumerate(_array(_get(root, "vertices", "$"), "$.vertices")):
        path = f"$.vertices[{i}]"
        obj = _object(item, path)
        ext_id = _integer(_get(obj, "id", path), f"{path}.id")
        if ext_id in id_map:
            raise SchemaError(f"{path}.id", f"duplicate vertex id {ext_id}")
        label = _string(_get(obj, "label", path), f"{path}.label")
        indeterminate = _boolean(obj.get("indeterminate", False),
                                 f"{path}.indeterminate")
        triple = _decode_triple(_get(obj, "membership", path),
                                f"{path}.membership")
        try:
            id_map[ext_id] = net.add_vertex(label, tuple(triple),
                                            indeterminate=indeterminate)
        except NetError as exc:
            raise _located(exc, path, "membership") from exc

    for i, item in enumerate(_array(_get(root, "edges", "$"), "$.edges")):
        path = f"$.edges[{i}]"
        obj = _object(item, path)
        src = _integer(_get(obj, "src", path), f"{path}.src")
        if src not in id_map:
            raise SchemaError(f"{path}.src", f"unknown vertex id {src}")
        dst = _integer(_get(obj, "dst", path), f"{path}.dst")
        if dst not in id_map:
            raise SchemaError(f"{path}.dst", f"unknown vertex id {dst}")
        label = _string(obj.get("label", ""), f"{path}.label")
        indeterminate = _boolean(obj.get("indeterminate", False),
                                 f"{path}.indeterminate")
        triple = _decode_triple(_get(obj, "weight", path), f"{path}.weight")
        try:
            net.add_edge(id_map[src], id_map[dst], tuple(triple), label=label,
                         indeterminate=indeterminate)
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
    """
    out = ["digraph {"] if not net.name else [
        f'digraph "{_dot_escape(net.name)}" {{']
    indeterminate_count = 0
    vertices, scale = net.vertices, net.scale
    for v in vertices:
        norm = normalize(v.membership, scale)
        text = _dot_escape(v.label)
        attrs = []
        if v.indeterminate:
            indeterminate_count += 1
            text = f"N_{indeterminate_count} {text}"
        attrs.append(f'label="{text}\\n({norm.p:.2f}, {norm.u:.2f}, {norm.n:.2f})"')
        if v.indeterminate:
            attrs.append("style=dotted")
        out.append(f'  "{_dot_escape(v.label)}" [{", ".join(attrs)}];')
    for e in net.edges:
        text = _dot_escape(f"{e.label} {e.weight}" if e.label else str(e.weight))
        attrs = [f'label="{text}"']
        if e.indeterminate:
            attrs.append("style=dotted")
        out.append(f'  "{_dot_escape(vertices[e.src].label)}" -> '
                   f'"{_dot_escape(vertices[e.dst].label)}" [{", ".join(attrs)}];')
    out.append("}")
    return "\n".join(out) + "\n"
