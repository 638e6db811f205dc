"""Command-line interface.

Exit codes: 0 on success, 1 on domain errors (parse errors, or ``validate``
findings of which at least one is an error), 2 on usage errors (bad flags,
missing or unrecognized files) and on output that cannot be written.
``validate`` prints every finding, and exits 0 when all of them are
warnings.  Diagnostics go to stderr, data to stdout as UTF-8 whatever the
locale.  A reader that closes stdout early ends the output quietly, with the
command's own exit code.

``read_net`` is the one way a net file is read, and ``write_output`` the one
way output is written, here and in ``scripts/``.  The latter takes a
document in pieces and writes them as they are made, so no command's peak
memory grows with its output beyond the net, ``matrices`` included.
Beyond ``core``, it and each command import what they use when they run,
so one ``python -m polarnet`` process loads only the modules its command and
input format need.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

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

    A leading byte order mark is skipped; line ends reach the loader as they
    are, so a lone CR is no line break.  Every failure raises ReadError.
    """
    path = Path(path)
    fmt = fmt or _FORMATS.get(path.suffix)
    if fmt is None:
        raise ReadError(f"cannot infer format of {path} (use --format pnet|json)", 2)
    if not path.is_file():
        raise ReadError(f"no such file: {path}", 2)
    try:
        with path.open(encoding="utf-8-sig", newline="") as file:
            text = file.read()
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


def _batches(pieces: Iterable[str], size: int = 1 << 15) -> Iterator[str]:
    """``pieces`` joined in order into runs of about ``size`` characters."""
    batch, length = [], 0
    for piece in pieces:
        batch.append(piece)
        length += len(piece)
        if length >= size:
            yield "".join(batch)
            batch, length = [], 0
    yield "".join(batch)


def write_output(pieces: str | Iterable[str],
                 output: str | os.PathLike[str] | None = None) -> int:
    """Write ``pieces``, one str or an iterable of them, as UTF-8 to the file
    ``output``, else to stdout.

    All data leaves the CLI here, a bounded run at a time, so no document is
    joined or encoded whole.  Returns 2, after a ``cannot write …`` message
    on stderr, when any write fails; returns 0 when stdout's reader has
    gone, ending the output quietly.
    """
    if isinstance(pieces, str):
        pieces = (pieces,)
    if output is None and sys.stdout is None:  # started with stdout closed
        print("cannot write <stdout>: it is closed", file=sys.stderr)
        return 2
    try:
        if output is not None:
            with open(output, "w", encoding="utf-8") as file:
                file.writelines(pieces)
        elif hasattr(sys.stdout, "buffer"):
            # runs go straight into stdout's own buffer: a text layer over it
            # would flush again, and fail again, when detached after an error
            buffer = sys.stdout.buffer
            buffer.writelines(batch.encode("utf-8") for batch in _batches(pieces))
            buffer.flush()
        else:  # a text-only stream, such as io.StringIO
            sys.stdout.writelines(pieces)
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


# Each command returns its exit code and its stdout text: a str, or pieces.
_Output = tuple[int, Iterable[str]]


def _cmd_validate(net: SemanticNet, args: argparse.Namespace) -> _Output:
    violations = net.validate()
    if not violations:
        return 0, "OK\n"
    code = 1 if any(v.severity == "error" for v in violations) else 0
    return code, [f"{violation}\n" for violation in violations]


def _cmd_classify(net: SemanticNet, args: argparse.Namespace) -> _Output:
    return 0, [f"{flag}={'true' if value else 'false'}\n"
               for flag, value in net.classify().flags().items()]


def _matrix_lines(net: SemanticNet) -> Iterator[str]:
    """The membership matrix, then the tensor's three slices, as four tables.

    A table is written from its stored cells alone, a line at a time: each
    line is a copy of one padded row of zeros with the row's stored cells put
    in.  A column is as wide as the longest of its heading and its stored
    texts; headings are non-empty, so a "0" never widens one.
    """
    from .matrix import _CHANNELS, adjacency_tensor, membership_matrix
    mm = membership_matrix(net)
    tensor = adjacency_tensor(net)
    for k in range(4):
        if k == 0:
            corner, headings = "membership", net.mode.channel_names
            rows = [list(enumerate(map(str, row))) for row in mm.rows]
        else:
            corner, headings, channel = f"A_ij{k}", tensor.labels, _CHANNELS[k - 1]
            rows = [[(j, text) for j, triple in row
                     if (text := str(channel(triple))) != "0"]
                    for row in tensor.entries]
            yield "\n"
        widths = [len(heading) for heading in headings]
        for row in rows:
            for j, text in row:
                widths[j] = max(widths[j], len(text))
        labels = (corner, *tensor.labels)
        label_width = max(map(len, labels))
        zeros = ["0".rjust(width) for width in widths]
        for label, row in zip(labels, (enumerate(headings), *rows)):
            line = [label.ljust(label_width), *zeros]
            for j, text in row:
                line[j + 1] = text.rjust(widths[j])
            yield "  ".join(line).rstrip() + "\n"


def _cmd_matrices(net: SemanticNet, args: argparse.Namespace) -> _Output:
    return 0, _matrix_lines(net)


def _cmd_render(net: SemanticNet, args: argparse.Namespace) -> _Output:
    from .io import _dot_lines
    return 0, _dot_lines(net)


def _cmd_select(net: SemanticNet, args: argparse.Namespace) -> _Output:
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
    return 0, lines


def _cmd_polarity(net: SemanticNet, args: argparse.Namespace) -> _Output:
    from .analysis import net_polarity
    try:
        summary, label = net_polarity(net)
    except NetError as exc:
        print(str(exc), file=sys.stderr)
        return 1, ""
    return 0, (f"summary ({_fmt(summary.p)}, {_fmt(summary.u)}, {_fmt(summary.n)})\n"
               f"label {label.value}\n")


def _cmd_convert(net: SemanticNet, args: argparse.Namespace) -> _Output:
    if args.target == "json":
        from .io import _json_pieces
        return 0, _json_pieces(net)
    from .dsl import _pnet_lines
    return 0, _pnet_lines(net)


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
    code, pieces = _COMMANDS[args.command](net, args)
    return write_output(pieces, getattr(args, "output", None)) or code
