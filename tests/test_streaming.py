"""Output written as it is made: each writer's pieces join to its text, and
writing them holds a bounded share of the document at a time."""
import contextlib
import io
import os
import tracemalloc

import pytest

from polarnet.cli import _matrix_lines, write_output
from polarnet.dsl import _pnet_lines, format_net
from polarnet.io import _dot_lines, _json_pieces, to_dot, to_json

import strategies as fixtures
from test_scale import large_net

WRITERS = [(to_json, _json_pieces), (to_dot, _dot_lines), (format_net, _pnet_lines)]
NETS = {"s1": fixtures.s1, "s2": fixtures.s2, "s3": fixtures.s3,
        "large": lambda: large_net(seed=1)}


@pytest.mark.parametrize("name", NETS)
@pytest.mark.parametrize("write,pieces", WRITERS,
                         ids=["to_json", "to_dot", "format_net"])
def test_a_writer_is_the_join_of_its_pieces(name, write, pieces):
    net = NETS[name]()
    assert write(net) == "".join(pieces(net))


@pytest.fixture(scope="module")
def net_800():
    return large_net(seed=800, vertices=800, edges=3200)


def _peak(call):
    call()  # imports and first-call caches stay outside the trace
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _write_peak(pieces, tmp_path, target):
    output = None if target == "stdout" else tmp_path / "net.out"
    # stdout as a process has it: a text layer over a buffer over a file
    with open(os.devnull, "wb") as sink, \
            contextlib.redirect_stdout(io.TextIOWrapper(sink, encoding="ascii")):
        return _peak(lambda: write_output(pieces(), output))


@pytest.mark.parametrize("target", ["stdout", "file"])
def test_writing_json_peaks_at_a_quarter_of_its_length(tmp_path, net_800,
                                                       target):
    peak = _write_peak(lambda: _json_pieces(net_800), tmp_path, target)
    # Joining and encoding the whole document held three copies of it.
    assert peak <= len(to_json(net_800)) / 4


@pytest.mark.parametrize("target", ["stdout", "file"])
@pytest.mark.parametrize("write,pieces", WRITERS[1:], ids=["dot", "pnet"])
def test_writing_dot_and_pnet_peaks_at_half_their_length(tmp_path, net_800,
                                                          write, pieces, target):
    peak = _write_peak(lambda: pieces(net_800), tmp_path, target)
    # A cache of the text of every distinct entry held about 2.7 times it.
    assert peak <= len(write(net_800)) / 2


@pytest.mark.parametrize("target", ["stdout", "file"])
def test_writing_matrices_peaks_at_an_eighth_of_its_length(tmp_path, net_800,
                                                           target):
    peak = _write_peak(lambda: _matrix_lines(net_800), tmp_path, target)
    # A text for every cell of the dense tables, held whole, took four times it.
    assert peak <= sum(map(len, _matrix_lines(net_800))) / 8


def test_a_str_is_written_as_one_piece(tmp_path):
    class Stream(io.StringIO):
        def write(self, text):
            self.calls = getattr(self, "calls", 0) + 1
            return super().write(text)

    out = Stream()
    with contextlib.redirect_stdout(out):
        assert write_output("digraph {\n}\n") == 0
    assert (out.getvalue(), out.calls) == ("digraph {\n}\n", 1)
