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
from polarnet.dsl import ParseError, format_net, parse_net
from polarnet.io import SchemaError, from_json, to_dot, to_json

from strategies import json_documents, mutated_pnet
from test_scale import large_net


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


# -- reading the input file: each failure's exact stderr and exit code ----------

def test_missing_file_message_and_code(capsys, tmp_path):
    path = tmp_path / "missing.pnet"
    assert run(capsys, "classify", str(path)) == (2, "", f"no such file: {path}\n")


def test_unknown_extension_message_and_code(capsys, tmp_path):
    path = tmp_path / "net.txt"
    path.write_text('net fnsn "x"\n', encoding="utf-8")
    assert run(capsys, "classify", str(path)) == (
        2, "", f"cannot infer format of {path} (use --format pnet|json)\n")


@pytest.mark.parametrize("name", ["bad.pnet", "bad.json"])
def test_file_that_is_not_utf8_message_and_code(capsys, tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b'ab\xffc')
    assert run(capsys, "classify", str(path)) == (
        1, "", f"{path} is not valid UTF-8: 'utf-8' codec can't decode byte "
               "0xff in position 2: invalid start byte\n")


def test_unreadable_file_message_and_code(capsys, tmp_path, monkeypatch,
                                          fixtures_dir):
    path = tmp_path / "s1.pnet"
    path.write_bytes((fixtures_dir / "s1.pnet").read_bytes())

    def refuse(self, *args, **kwargs):  # file modes do not stop root
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "open", refuse)
    assert run(capsys, "classify", str(path)) == (
        2, "", f"cannot read {path}: [Errno 13] Permission denied\n")


@pytest.mark.parametrize("suffix", [".pnet", ".json"])
def test_byte_order_mark_is_ignored(capsys, tmp_path, s3_net, suffix):
    text = to_json(s3_net) if suffix == ".json" else format_net(s3_net)
    plain, marked = tmp_path / f"plain{suffix}", tmp_path / f"marked{suffix}"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for command in (["convert", "--to", "json"], ["polarity"]):
        expected = run(capsys, command[0], str(plain), *command[1:])
        assert expected[0] == 0 and expected[1]
        assert run(capsys, command[0], str(marked), *command[1:]) == expected


_NET = ('net fnsn "x"\nvertex a (1, 0, 0)\nvertex b (0, 1, 0)\n'
        'edge a -> b (1, 0, 0)\n')
_FILES_BY_LINE_END = {
    "lf.pnet": _NET.encode(),
    "crlf.pnet": _NET.replace("\n", "\r\n").encode(),
    "bom-crlf.pnet": b"\xef\xbb\xbf" + _NET.replace("\n", "\r\n").encode(),
    "cr-in-line.pnet": b'net fnsn "x"\nvertex a (0,\r0, 0)\n',
    "cr-in-name.pnet": b'net fnsn "a\rb"\nvertex a (1, 0, 0)\n',
    "cr-in-json.json": b'{\r"mode": "FNSN",\r"name": "x",\r ]\n',
}


@pytest.mark.parametrize("name", _FILES_BY_LINE_END)
def test_a_file_reads_as_the_library_reads_its_text(capsys, tmp_path, name):
    data = _FILES_BY_LINE_END[name]
    path = tmp_path / name
    path.write_bytes(data)
    load = from_json if name.endswith(".json") else parse_net
    try:
        expected = (0, to_json(load(data.decode("utf-8-sig"))), "")
    except (ParseError, SchemaError) as exc:
        expected = (1, "", f"{exc}\n")
    assert run(capsys, "convert", str(path), "--to", "json") == expected


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


def test_validate_exits_zero_on_warnings_alone_and_one_on_an_error(
        capsys, tmp_path, fixtures_dir):
    warned = tmp_path / "zero_weight.pnet"
    warned.write_text('net pfnsn "z"\nvertex a (3, 0, 0)\nvertex b (0, 0, 1)\n'
                      "edge a -> b (0, 0, 0)\nedge b -> a (0, 0, 1)\n",
                      encoding="utf-8")
    code, out, err = run(capsys, "validate", str(warned))
    assert (code, out, err) == (
        0, "warning: edge 'a' -> 'b' has an all-zero weight and cannot be "
           "reconstructed from the adjacency tensor\n", "")
    s3 = Path(fixture(fixtures_dir, "s3.pnet")).read_text(encoding="utf-8")
    relabelled = tmp_path / "s3_pnsn.pnet"
    relabelled.write_text(s3.replace("net pfnsn", "net pnsn", 1), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(relabelled))
    assert (code, err) == (1, "")
    assert out == (
        "error: edge 'Bob' -> 'healthy': channel 1 non-crisp degree 2.7 (PNSN requires 0 or 3)\n"
        "error: edge 'Bob' -> 'plump': channel 2 non-crisp degree 1.4 (PNSN requires 0 or 2)\n"
        "error: edge 'Bob' -> 'anaemic': channel 3 non-crisp degree 0.3 (PNSN requires 0 or 1)\n")


# -- output written as it is made ----------------------------------------------

@pytest.fixture(scope="module")
def large_pnet(tmp_path_factory):
    """A .pnet file whose JSON form is over 1 MiB."""
    path = tmp_path_factory.mktemp("large") / "large.pnet"
    net = large_net(seed=800, vertices=800, edges=3200)
    path.write_text(format_net(net), encoding="utf-8")
    assert len(to_json(net)) >= 2**20
    return path


def test_a_reader_that_goes_away_mid_stream_ends_the_output_quietly(large_pnet):
    read_end, write_end = os.pipe()
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "polarnet", "convert", str(large_pnet),
             "--to", "json"], stdout=write_end, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path})
    finally:
        os.close(write_end)
    try:
        assert os.read(read_end, 4096).startswith(b'{\n  "mode": "PFNSN"')
    finally:
        os.close(read_end)  # the reader is gone after its first read
    _, err = child.communicate(timeout=120)
    assert b"Traceback" not in err
    assert (child.returncode, err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_large_output_that_cannot_be_written_exits_two(large_pnet):
    with open("/dev/full", "wb") as full:
        child = _polarnet(["convert", str(large_pnet), "--to", "json"], full)
    assert b"Traceback" not in child.stderr
    assert child.returncode == 2
    assert child.stderr.decode().startswith("cannot write <stdout>: ")


@pytest.mark.parametrize("argv", [["convert", "--to", "json"],
                                  ["convert", "--to", "pnet"], ["render"]],
                         ids=["convert-json", "convert-pnet", "render"])
@pytest.mark.parametrize("source", ["s3.pnet", "large"])
def test_an_output_file_holds_the_bytes_of_stdout(tmp_path, fixtures_dir,
                                                  large_pnet, argv, source):
    path = str(large_pnet) if source == "large" else fixture(fixtures_dir, source)
    if argv == ["convert", "--to", "pnet"]:
        json_path = tmp_path / "net.json"
        code = main(["convert", path, "--to", "json", "-o", str(json_path)])
        assert code == 0
        path = str(json_path)
    target = tmp_path / "out"
    stdout = _polarnet([argv[0], path, *argv[1:]], subprocess.PIPE)
    to_file = _polarnet([argv[0], path, *argv[1:], "-o", str(target)],
                        subprocess.PIPE)
    assert (stdout.returncode, stdout.stderr) == (0, b"")
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
    assert target.read_bytes() == stdout.stdout
