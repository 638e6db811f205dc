"""The example scripts read net files as the CLI does."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polarnet.cli import main

ROOT = Path(__file__).resolve().parent.parent
BOM = b"\xef\xbb\xbf"


def _script(name, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120)


def _report(path):
    return _script("polarity_report.py", path)


def test_polarity_report_reads_a_byte_order_mark_as_the_cli_does(tmp_path,
                                                                 fixtures_dir):
    source = fixtures_dir / "s3.pnet"
    marked = tmp_path / "s3.pnet"
    marked.write_bytes(BOM + source.read_bytes())
    plain, bom = _report(source), _report(marked)
    assert plain.returncode == 0, plain.stderr
    assert (bom.returncode, bom.stdout, bom.stderr) == (0, plain.stdout, "")


def test_render_fixtures_reads_a_byte_order_mark_as_the_cli_does(tmp_path,
                                                                 fixtures_dir):
    source = fixtures_dir / "s3.pnet"
    for name, prefix in (("plain", b""), ("bom", BOM)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "s3.pnet").write_bytes(prefix + source.read_bytes())
        child = _script("render_fixtures.py", "--fixtures", tmp_path / name,
                        "-o", tmp_path / f"{name}_dot")
        assert (child.returncode, child.stderr) == (0, ""), child.stderr
    plain, bom = (tmp_path / f"{name}_dot" / "s3.dot" for name in ("plain", "bom"))
    assert bom.read_bytes() == plain.read_bytes()


# Each bad input as a file name and its bytes; None makes no file.
BAD_INPUTS = {
    "missing": ("missing.pnet", None),
    "parse-error": ("bad.pnet", b"vertex a (0,0,0)\n"),
    "schema-error": ("bad.json", b'{"mode": 1}'),
    "not-utf8": ("bad.pnet", b"ab\xffc"),
    "empty-net": ("empty.pnet", b'net pfnsn "x"\n'),
    "unknown-suffix": ("s1.txt", b'net fnsn "x"\n'),
}


def _cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err.splitlines()[0]


def _assert_fails_as(child, expected):
    assert "Traceback" not in child.stderr
    assert (child.returncode, child.stderr.splitlines()[0]) == expected
    assert child.stdout == ""


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_polarity_report_fails_as_the_cli_does(capsys, tmp_path, case):
    name, data = BAD_INPUTS[case]
    path = tmp_path / name
    if data is not None:
        path.write_bytes(data)
    expected = _cli(capsys, "polarity", str(path))
    assert expected[0] in (1, 2)
    _assert_fails_as(_report(path), expected)


@pytest.mark.parametrize("case", ["missing", "parse-error", "not-utf8"])
def test_render_fixtures_fails_as_the_cli_does(capsys, tmp_path, case):
    """It reads only ``*.pnet``, so a schema error cannot reach it; a
    directory named like a fixture stands in for a missing file."""
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    name, data = BAD_INPUTS[case]
    path = fixtures / name
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    expected = _cli(capsys, "render", str(path))
    assert expected[0] in (1, 2)
    _assert_fails_as(_script("render_fixtures.py", "--fixtures", fixtures,
                             "-o", tmp_path / "dot"), expected)
