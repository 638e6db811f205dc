"""CLI output on the bundled fixtures, compared byte for byte with tests/golden/.

Each golden file is the transcript of every command on one fixture, read
once as ``.pnet`` and once as the JSON that ``convert --to json`` makes of
it, with ``select`` run for every vertex and every preference.  After an
intended change of output, rewrite the files with::

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from polarnet.cli import main
from polarnet.dsl import parse_net

from strategies import FIXTURES_DIR

GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = ("s1", "s2", "s3")
FORMATS = ("pnet", "json")


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _commands(net_file: Path) -> list[list[str]]:
    path = str(net_file)
    commands = [["validate", path], ["classify", path], ["matrices", path],
                ["render", path], ["polarity", path],
                ["convert", path, "--to", "json"],
                ["convert", path, "--to", "pnet"]]
    source = FIXTURES_DIR / f"{net_file.stem}.pnet"
    net = parse_net(source.read_text(encoding="utf-8"))
    for vertex in net.vertices:
        for prefer in ("positive", "neutral", "negative"):
            commands.append(["select", path, "--vertex", vertex.label,
                             "--prefer", prefer])
    return commands


def transcript(name: str, fmt: str, workdir: Path) -> str:
    """Every command's exit code, stdout and stderr on one fixture."""
    net_file = FIXTURES_DIR / f"{name}.pnet"
    if fmt == "json":
        net_file = workdir / f"{name}.json"
        code, _, err = _run(["convert", str(FIXTURES_DIR / f"{name}.pnet"),
                             "--to", "json", "-o", str(net_file)])
        assert (code, err) == (0, "")
    blocks = []
    for argv in _commands(net_file):
        code, out, err = _run(argv)
        shown = " ".join([argv[0], net_file.name, *argv[2:]])
        blocks.append(f"$ polarnet {shown}\n[exit {code}]\n{out}")
        if err:
            blocks.append(f"[stderr]\n{err}")
    return "".join(blocks)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", NAMES)
def test_cli_output_matches_golden(tmp_path, name, fmt):
    expected = (GOLDEN / f"{name}.{fmt}.txt").read_bytes()
    assert transcript(name, fmt, tmp_path).encode("utf-8") == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            for fmt in FORMATS:
                target = GOLDEN / f"{name}.{fmt}.txt"
                target.write_bytes(transcript(name, fmt, Path(tmp)).encode("utf-8"))
                print(f"wrote {target}", file=sys.stderr)
