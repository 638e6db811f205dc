"""Spans around polarnet's public functions, patched in from outside.

Each wrapped function is replaced under every name it is looked up by:
class attributes for ``SemanticNet`` methods, and module globals in every
``polarnet`` module that bound the function (``io`` binds ``normalize``,
``cli`` binds ``adjacency_tensor``, and so on).  Nothing under ``src/`` is
edited.  A span is (name, start_ns, end_ns, parent span index, operation
id); spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import gzip
import time

#: The wrapped functions, as (module, name).  ``core`` entries are methods
#: of ``SemanticNet``.
WRAPPED = (
    ("core", "add_vertex"), ("core", "add_edge"), ("core", "vertex"),
    ("core", "find_vertex"), ("core", "out_edges"), ("core", "validate"),
    ("core", "classify"),
    ("dsl", "parse_net"), ("dsl", "format_net"),
    ("io", "from_json"), ("io", "to_json"), ("io", "to_dot"),
    ("matrix", "membership_matrix"), ("matrix", "adjacency_tensor"),
    ("matrix", "from_matrices"),
    ("analysis", "normalize"), ("analysis", "polar_select"),
    ("analysis", "net_polarity"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in WRAPPED)


class Tracer:
    """Records spans and per-name call counts and self time."""

    def __init__(self):
        self.spans: list = []
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.total_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.op_id = -1
        self.parsed_lines = 0  # lines of text handed to dsl.parse_net
        self._stack: list = []  # [span index, child ns] per open span
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spent = end - start
                if stack:
                    stack[-1][1] += spent
                self.calls[name] += 1
                self.self_ns[name] += spent - frame[1]
                self.total_ns[name] += spent
                spans[frame[0]] = (name, start, end, parent, self.op_id)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every wrapped name where polarnet looks it up."""
        import polarnet
        from polarnet import analysis, cli, core, dsl, io, matrix
        modules = {"core": core, "dsl": dsl, "io": io, "matrix": matrix,
                   "analysis": analysis, "cli": cli}
        namespaces = [polarnet, *modules.values()]
        for mod_name, fn_name in WRAPPED:
            name = f"{mod_name}.{fn_name}"
            if mod_name == "core":
                owner = core.SemanticNet
                original = owner.__dict__[fn_name]
                self._set(owner, fn_name, original, self.wrap(name, original))
                continue
            original = getattr(modules[mod_name], fn_name)
            wrapper = self.wrap(name, original)
            if name == "dsl.parse_net":
                wrapper = self._count_lines(wrapper)
            for ns in namespaces:
                if getattr(ns, fn_name, None) is original:
                    self._set(ns, fn_name, original, wrapper)

    def _count_lines(self, parse):
        def counted(source, *args, **kwargs):
            self.parsed_lines += source.count("\n")
            return parse(source, *args, **kwargs)
        return counted

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        """Write spans as gzip'd CSV: name,start_ns,end_ns,parent,op."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start_ns,end_ns,parent,op\n")
            for span in self.spans:
                out.write("%s,%d,%d,%d,%d\n" % span)
