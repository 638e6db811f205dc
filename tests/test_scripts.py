"""The example scripts read net files as the CLI does."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _report(path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "polarity_report.py"), str(path)],
        capture_output=True, text=True, env=env, timeout=120)


def test_polarity_report_reads_a_byte_order_mark_as_the_cli_does(tmp_path,
                                                                 fixtures_dir):
    source = fixtures_dir / "s3.pnet"
    marked = tmp_path / "s3.pnet"
    marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    plain, bom = _report(source), _report(marked)
    assert plain.returncode == 0, plain.stderr
    assert (bom.returncode, bom.stdout, bom.stderr) == (0, plain.stdout, "")
