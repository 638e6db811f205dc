import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarnet.cli import main
from polarnet.core import NetMode, SemanticNet
from polarnet.dsl import format_net
from polarnet.io import to_dot, to_json

from strategies import json_documents, mutated_pnet


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(fixtures_dir, name):
    return str(fixtures_dir / name)


class TestValidate:
    def test_clean_file_prints_ok(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "validate", fixture(fixtures_dir, "s2.pnet"))
        assert (code, out, err) == (0, "OK\n", "")

    def test_range_violation_reported_with_position_and_limit(self, capsys, tmp_path):
        bad = tmp_path / "s3_corrupted.pnet"
        bad.write_text('net pfnsn "S3" scale 3 2 1\nvertex Bob (9.9, 0, 0)\n',
                       encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert re.match(r"^2:\d+: ", err)
        assert "exceeds scale 3" in err

    def test_mode_violations_listed_on_stdout(self, capsys, tmp_path, s3_net):
        from polarnet.io import to_json
        doc = json.loads(to_json(s3_net))
        doc["mode"] = "PNSN"
        path = tmp_path / "s3_as_pnsn.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "non-crisp degree 2.7" in out
        assert len(out.splitlines()) == 3


class TestClassify:
    def test_flag_lines(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "classify", fixture(fixtures_dir, "s1.pnet"))
        assert code == 0
        assert out.splitlines() == [
            "has_indeterminate_vertex=false",
            "has_indeterminate_edge=false",
            "is_point_graph=false",
            "is_edge_graph=false",
            "is_strongly_neutrosophic=false",
            "is_neutrosophic_simple=true",
        ]


class TestMatrices:
    def test_s1_tensor_placement(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "matrices", fixture(fixtures_dir, "s1.pnet"))
        assert code == 0
        blocks = out.split("\n\n")
        assert len(blocks) == 4
        slice1 = blocks[1].splitlines()
        header = slice1[0].split()
        assert header[0] == "A_ij1"
        night_row = next(line.split() for line in slice1[1:]
                         if line.split()[0] == "night")
        assert night_row[header.index("cold")] == "2.4"
        slice2 = blocks[2].splitlines()
        header2 = slice2[0].split()
        night_row2 = next(line.split() for line in slice2[1:]
                          if line.split()[0] == "night")
        assert night_row2[header2.index("hazy")] == "1.4"

    def test_indeterminate_entries_use_i_notation(self, capsys, tmp_path):
        path = tmp_path / "i.pnet"
        path.write_text('net fnsn "x"\nvertex a (I, 0.5I, 0)\n', encoding="utf-8")
        code, out, _ = run(capsys, "matrices", str(path))
        assert code == 0
        membership_row = out.split("\n\n")[0].splitlines()[1].split()
        assert membership_row == ["a", "I", "0.5I", "0"]


class TestRender:
    def test_stdout(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "render", fixture(fixtures_dir, "s1.pnet"))
        assert code == 0
        assert out.startswith('digraph "S1" {')
        assert "rather (2.4, 0, 0)" in out

    def test_output_file(self, capsys, fixtures_dir, tmp_path):
        target = tmp_path / "s1.dot"
        code, out, _ = run(capsys, "render", fixture(fixtures_dir, "s1.pnet"),
                           "-o", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8").startswith('digraph "S1" {')


class TestSelect:
    def test_positive_preference_ranks_healthy_first(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "select", fixture(fixtures_dir, "s3.pnet"),
                           "--vertex", "Bob", "--prefer", "positive")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("1. healthy ")
        scores = [float(re.search(r"score=(\S+)", line).group(1))
                  for line in lines]
        assert scores == pytest.approx([0.95, 0.5, -0.65], abs=1e-9)

    def test_negative_preference_reverses(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "select", fixture(fixtures_dir, "s3.pnet"),
                           "--vertex", "Bob", "--prefer", "negative")
        assert code == 0
        assert out.splitlines()[0].startswith("1. anaemic ")

    def test_unknown_vertex_is_domain_error(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "select", fixture(fixtures_dir, "s3.pnet"),
                           "--vertex", "nobody", "--prefer", "positive")
        assert code == 1
        assert "unknown vertex label" in err


    def test_negative_zero_degree_prints_as_zero(self, capsys, tmp_path):
        doc = {"mode": "PFNSN", "name": "z", "scale": [3, 2, 1],
               "vertices": [
                   {"id": 0, "label": "a",
                    "membership": [{"d": 3}, {"d": 0}, {"d": 0}]},
                   {"id": 1, "label": "b",
                    "membership": [{"d": -0.0}, {"d": 0}, {"d": 1}]}],
               "edges": [{"src": 0, "dst": 1,
                          "weight": [{"d": -0.0}, {"d": 0}, {"d": 0}]}]}
        path = tmp_path / "z.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "select", str(path), "--vertex", "a",
                           "--prefer", "positive")
        assert (code, out) == (0, "1. b score=-0.5 (0, 0, 0.5)\n")


class TestPolarity:
    def test_balanced_fixture(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "polarity", fixture(fixtures_dir, "s2.pnet"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("summary (")
        assert lines[1] == "label neutral"


class TestConvert:
    def test_json_fixed_point(self, capsys, fixtures_dir, tmp_path):
        json1 = tmp_path / "one.json"
        pnet1 = tmp_path / "one.pnet"
        json2 = tmp_path / "two.json"
        assert run(capsys, "convert", fixture(fixtures_dir, "s2.pnet"),
                   "--to", "json", "-o", str(json1))[0] == 0
        assert run(capsys, "convert", str(json1), "--to", "pnet",
                   "-o", str(pnet1))[0] == 0
        assert run(capsys, "convert", str(pnet1), "--to", "json",
                   "-o", str(json2))[0] == 0
        assert json1.read_bytes() == json2.read_bytes()

    def test_pnet_output_reparses(self, capsys, fixtures_dir, s1_net):
        code, out, _ = run(capsys, "convert", fixture(fixtures_dir, "s1.pnet"),
                           "--to", "json")
        assert code == 0
        from polarnet.io import from_json
        assert from_json(out) == s1_net

    def test_format_override(self, capsys, tmp_path, s1_net):
        from polarnet.dsl import format_net
        odd = tmp_path / "net.txt"
        odd.write_text(format_net(s1_net), encoding="utf-8")
        code, out, _ = run(capsys, "convert", str(odd), "--format", "pnet",
                           "--to", "pnet")
        assert code == 0 and out == format_net(s1_net)


class TestErrorHandling:
    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "no_such_file.pnet")
        assert code == 2
        assert "no such file" in err

    def test_unknown_extension_without_format_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "net.xyz"
        path.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2
        assert "--format" in err

    def test_parse_error_exits_one_with_location(self, capsys, tmp_path):
        path = tmp_path / "bad.pnet"
        path.write_text("vertex a (0,0,0)\n", encoding="utf-8")
        code, out, err = run(capsys, "render", str(path))
        assert code == 1 and out == ""
        assert re.match(r"^1:\d+: ", err)

    def test_bad_usage_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2


def test_output_is_deterministic(capsys, fixtures_dir):
    first = run(capsys, "matrices", fixture(fixtures_dir, "s3.pnet"))
    second = run(capsys, "matrices", fixture(fixtures_dir, "s3.pnet"))
    assert first == second


@pytest.mark.parametrize("name,text,location", [
    ("inf_scale.pnet", 'net fnsn "x" scale 3 1e999 1\n', "1:22: "),
    ("inf_degree.pnet", 'net fnsn "x"\nvertex a (1e999, 0, 0)\n', "2:11: "),
    ("inf_scale.json", '{"mode": "FNSN", "name": "x", "scale": [3, Infinity, 1],'
     ' "vertices": [], "edges": []}', "$.scale[1]: "),
])
def test_non_finite_input_exits_one_with_location(capsys, tmp_path, name, text,
                                                  location):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    for command, *options in (["validate"], ["polarity"],
                              ["convert", "--to", "json"]):
        code, out, err = run(capsys, command, str(path), *options)
        assert (code, out) == (1, "")
        assert err.startswith(location) and "finite" in err


def test_deeply_nested_json_exits_one_with_location(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("$: ") and "nested too deeply" in err


def _s1_document(tmp_path, s1_net, replace, by):
    """S1's JSON form with the text ``replace`` swapped for ``by``."""
    path = tmp_path / "s1.json"
    text = json.dumps(json.loads(to_json(s1_net)))
    assert replace in text
    path.write_text(text.replace(replace, by, 1), encoding="utf-8")
    return str(path)


def test_json_integer_over_the_digit_limit_exits_one_with_location(
        capsys, tmp_path, s1_net):
    path = _s1_document(tmp_path, s1_net, '{"d": 2.4}', '{"d": ' + "1" * 5000 + "}")
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (1, "")
    assert err.startswith("$") and "Traceback" not in err


@pytest.mark.parametrize("command", [["validate"], ["render"],
                                     ["convert", "--to", "pnet"]])
@pytest.mark.parametrize("replace,by,location", [
    ('"name": "', '"name": "x\\ud800', "$.name: "),
    ('"label": "rather"', '"label": "\\udfff"', "$.edges[0].label: "),
], ids=["name", "edge-label"])
def test_json_lone_surrogate_exits_one_with_location(capsys, tmp_path, s1_net,
                                                     command, replace, by,
                                                     location):
    path = _s1_document(tmp_path, s1_net, replace, by)
    code, out, err = run(capsys, command[0], path, *command[1:])
    assert (code, out) == (1, "")
    assert err == f"{location}lone surrogate in string\n"


_COMMANDS = [["validate"], ["classify"], ["matrices"], ["render"], ["polarity"],
             ["convert", "--to", "json"], ["convert", "--to", "pnet"],
             ["validate", "--format", "pnet"], ["validate", "--format", "json"]]


@st.composite
def cli_runs(draw):
    """A fuzzed .pnet or .json file and a command line to run on it."""
    name, text = draw(st.one_of(
        mutated_pnet().map(lambda text: ("net.pnet", text)),
        json_documents().map(lambda text: ("net.json", text))))
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        data = draw(st.binary(max_size=40))
    labels = re.findall(r"[A-Za-z_]\w*", text) or ["nobody"]
    command = draw(st.sampled_from(_COMMANDS + [["select"]]))
    if command == ["select"]:
        command = ["select", "--vertex", draw(st.sampled_from(labels)),
                   "--prefer", draw(st.sampled_from(["positive", "neutral",
                                                     "negative", "up"]))]
    return name, data, command


@settings(max_examples=150, deadline=None)
@given(cli_runs())
def test_cli_is_total_over_fuzzed_files(case):
    name, data, command = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        argv = [command[0], str(path), *command[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
                assert code == 2 and "up" in argv
    assert code in (0, 1, 2)


# -- stdout in a child process, where capsys cannot reach ----------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def _polarnet(argv, stdout, env=(), **options):
    """Run ``python -m polarnet`` in a child with ``stdout`` and extra ``env``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "polarnet", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120,
                          env={**os.environ, "PYTHONPATH": path, **dict(env)},
                          **options)


@pytest.mark.parametrize("argv", [["matrices"], ["convert", "--to", "json"]],
                         ids=["matrices", "convert-json"])
def test_closed_stdout_ends_quietly(fixtures_dir, argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        child = _polarnet([argv[0], fixture(fixtures_dir, "s1.pnet"), *argv[1:]],
                          write_end)
    finally:
        os.close(write_end)
    assert b"Traceback" not in child.stderr
    assert (child.returncode, child.stderr) == (0, b"")


@pytest.mark.parametrize("argv,emit", [
    (["convert", "--to", "pnet"], format_net),
    (["render"], to_dot),
], ids=["convert-pnet", "render"])
def test_ascii_locale_still_writes_utf8(tmp_path, argv, emit):
    net = SemanticNet(NetMode.PFNSN, "café")
    a = net.add_vertex("a", (3, 0, 0))
    b = net.add_vertex("b", (0, 2, 0))
    net.add_edge(a, b, (1.5, 0, 0), label="très")
    path = tmp_path / "u.pnet"
    path.write_text(format_net(net), encoding="utf-8")
    child = _polarnet([argv[0], str(path), *argv[1:]], subprocess.PIPE,
                      {"PYTHONIOENCODING": "ascii"})
    assert b"Traceback" not in child.stderr
    assert (child.returncode, child.stdout) == (0, emit(net).encode("utf-8"))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_stdout_write_exits_two(fixtures_dir):
    with open("/dev/full", "wb") as full:
        child = _polarnet(["convert", fixture(fixtures_dir, "s1.pnet"), "--to",
                           "json"], full)
    assert child.returncode == 2
    assert child.stderr.decode().startswith("cannot write <stdout>: ")


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
def test_closed_stdout_descriptor_exits_two(fixtures_dir):
    child = _polarnet(["classify", fixture(fixtures_dir, "s1.pnet")], None,
                      preexec_fn=lambda: os.close(1))
    assert child.returncode == 2
    assert child.stderr == b"cannot write <stdout>: it is closed\n"
