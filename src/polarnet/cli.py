"""Command-line interface.

Exit codes: 0 on success, 1 on domain errors (parse or validation failures),
2 on usage errors (bad flags, missing or unrecognized files) and on output
that cannot be written.  Diagnostics go to stderr, data to stdout as UTF-8
whatever the locale.  A reader that closes stdout early ends the output
quietly, with the command's own exit code.

``read_net`` is the one way a net file is read, and ``write_output`` the one
way output is written, here and in ``scripts/``.
Beyond ``core``, it and each command import what they use when they run,
so one ``python -m polarnet`` process loads only the modules its command and
input format need.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import NetError, SemanticNet

__all__ = ["ReadError", "main", "read_net", "write_output"]

_FORMATS = {".pnet": "pnet", ".json": "json"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarnet",
        description="Inspect, convert and analyze three-channel semantic nets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file", help="input net (.pnet or .json)")
        sp.add_argument("--format", choices=["pnet", "json"],
                        help="input format (default: by file extension)")
        return sp

    add("validate", "check a net file and list violations")
    add("classify", "print graph classification flags")
    add("matrices", "print the membership matrix and adjacency tensor")
    sp = add("render", "emit a DOT graph document")
    sp.add_argument("-o", "--output", help="write to file instead of stdout")
    sp = add("select", "rank a vertex's out-neighbors by polarity")
    sp.add_argument("--vertex", required=True, help="source vertex label")
    sp.add_argument("--prefer", required=True,
                    choices=["positive", "neutral", "negative"])
    add("polarity", "print the whole-net polarity summary and label")
    sp = add("convert", "convert between the .pnet and JSON formats")
    sp.add_argument("--to", required=True, choices=["json", "pnet"],
                    dest="target")
    sp.add_argument("-o", "--output", help="write to file instead of stdout")
    return parser


class ReadError(Exception):
    """A net file that cannot be read: the CLI prints it and exits ``code``."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def read_net(path: str | os.PathLike[str], fmt: str | None = None) -> SemanticNet:
    """Read the net in ``path`` as ``fmt`` ("pnet" or "json"), else by suffix.

    A leading byte order mark is skipped.  Every failure raises ReadError.
    """
    path = Path(path)
    fmt = fmt or _FORMATS.get(path.suffix)
    if fmt is None:
        raise ReadError(f"cannot infer format of {path} (use --format pnet|json)", 2)
    if not path.is_file():
        raise ReadError(f"no such file: {path}", 2)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ReadError(f"{path} is not valid UTF-8: {exc}", 1) from exc
    except OSError as exc:
        raise ReadError(f"cannot read {path}: {exc}", 2) from exc
    if fmt == "pnet":
        from .dsl import ParseError as LoadError, parse_net as load
    else:
        from .io import SchemaError as LoadError, from_json as load
    try:
        return load(text)
    except LoadError as exc:
        raise ReadError(str(exc), 1) from exc  # line:col: or $.json.path: …


def write_output(text: str, output: str | os.PathLike[str] | None = None) -> int:
    """Write ``text`` as UTF-8 to the file ``output``, else to stdout.

    All data leaves the CLI here.  Returns 2, after a ``cannot write …``
    message on stderr, when it cannot be written; returns 0 when stdout's
    reader has gone, ending the output quietly.
    """
    if output is None and sys.stdout is None:  # started with stdout closed
        print("cannot write <stdout>: it is closed", file=sys.stderr)
        return 2
    try:
        if output is not None:
            Path(output).write_text(text, encoding="utf-8")
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.buffer.write(text.encode("utf-8"))
            sys.stdout.buffer.flush()
        else:  # a text-only stream, such as io.StringIO
            sys.stdout.write(text)
    except OSError as exc:
        if output is None and isinstance(exc, BrokenPipeError):
            # The reader is gone: end quietly, and point stdout at devnull so
            # that the flush at interpreter exit does not fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 0
        print(f"cannot write {output or '<stdout>'}: {exc}", file=sys.stderr)
        return 2
    return 0


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(widths[c]) for c, cell in enumerate(row[1:], start=1)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _cmd_validate(net: SemanticNet, args: argparse.Namespace) -> tuple[int, str]:
    violations = net.validate()
    if not violations:
        return 0, "OK\n"
    return 1, "".join(f"{violation}\n" for violation in violations)


def _cmd_classify(net: SemanticNet, args: argparse.Namespace) -> tuple[int, str]:
    return 0, "".join(f"{flag}={'true' if value else 'false'}\n"
                      for flag, value in net.classify().flags().items())


def _cmd_matrices(net: SemanticNet, args: argparse.Namespace) -> tuple[int, str]:
    from .matrix import adjacency_tensor, membership_matrix
    mm = membership_matrix(net)
    tensor = adjacency_tensor(net)
    channels = net.mode.channel_names
    blocks = []
    rows = [["membership", *channels]]
    rows += [[label, *(str(v) for v in row)]
             for label, row in zip(mm.labels, mm.rows)]
    blocks.append(_table(rows))
    for k in range(3):
        rows = [[f"A_ij{k + 1}", *tensor.labels]]
        rows += [[label, *(str(v) for v in tensor.slices[k][i])]
                 for i, label in enumerate(tensor.labels)]
        blocks.append(_table(rows))
    return 0, "\n\n".join(blocks) + "\n"


def _cmd_render(net: SemanticNet, args: argparse.Namespace) -> tuple[int, str]:
    from .io import to_dot
    return 0, to_dot(net)


def _cmd_select(net: SemanticNet, args: argparse.Namespace) -> tuple[int, str]:
    from .analysis import Polarity, polar_select
    vertex = net.find_vertex(args.vertex)
    if vertex is None:
        print(f"unknown vertex label: {args.vertex}", file=sys.stderr)
        return 1, ""
    result = polar_select(net, vertex.id, Polarity(args.prefer))
    lines = []
    for rank, item in enumerate(result.ranked, start=1):
        t = item.combined
        lines.append(f"{rank}. {net.vertex(item.vertex_id).label} "
                     f"score={_fmt(item.score)} "
                     f"({_fmt(t.p)}, {_fmt(t.u)}, {_fmt(t.n)})\n")
    return 0, "".join(lines)


def _cmd_polarity(net: SemanticNet, args: argparse.Namespace) -> tuple[int, str]:
    from .analysis import net_polarity
    try:
        summary, label = net_polarity(net)
    except NetError as exc:
        print(str(exc), file=sys.stderr)
        return 1, ""
    return 0, (f"summary ({_fmt(summary.p)}, {_fmt(summary.u)}, {_fmt(summary.n)})\n"
               f"label {label.value}\n")


def _cmd_convert(net: SemanticNet, args: argparse.Namespace) -> tuple[int, str]:
    if args.target == "json":
        from .io import to_json
        return 0, to_json(net)
    from .dsl import format_net
    return 0, format_net(net)


# Each command returns its exit code and the text it writes to stdout.
_COMMANDS = {"validate": _cmd_validate, "classify": _cmd_classify,
             "matrices": _cmd_matrices, "render": _cmd_render,
             "select": _cmd_select, "polarity": _cmd_polarity,
             "convert": _cmd_convert}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        net = read_net(args.file, args.format)
    except ReadError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    code, text = _COMMANDS[args.command](net, args)
    return write_output(text, getattr(args, "output", None)) or code
