"""Round trips of a net far larger than the Hypothesis nets.

Correctness and a memory bound only: no timing is asserted.
"""
import random
import tracemalloc

from polarnet.core import ChannelTriple, NetMode, NeutroValue, SemanticNet
from polarnet.dsl import format_net, parse_net
from polarnet.io import from_json, to_json
from polarnet.matrix import adjacency_tensor, from_matrices, membership_matrix

VERTICES = 2000
EDGES = 8000
SCALE = (3.0, 2.0, 1.0)


def _value(rng: random.Random, maximum: float) -> NeutroValue:
    roll = rng.random()
    if roll < 0.05:
        return NeutroValue.indeterminacy(rng.choice([1.0, 0.5, 0.25]))
    if roll < 0.4:
        return NeutroValue.determinate(0.0)
    return NeutroValue.determinate(rng.uniform(0.0, maximum))


def _triple(rng: random.Random) -> ChannelTriple:
    return ChannelTriple(*(_value(rng, mx) for mx in SCALE))


def large_net(seed: int, vertices: int = VERTICES,
              edges: int = EDGES) -> SemanticNet:
    rng = random.Random(seed)
    net = SemanticNet(NetMode.PFNSN, 'big "net"\twith\\escapes', SCALE)
    for i in range(vertices):
        net.add_vertex(f"v{i}_{rng.randrange(10**6)}", _triple(rng),
                       indeterminate=rng.random() < 0.05)
    while len(net.edges) < edges:
        src, dst = rng.randrange(vertices), rng.randrange(vertices)
        if src == dst or net.has_edge(src, dst):
            continue
        net.add_edge(src, dst, _triple(rng),
                     label=rng.choice(["", "rather", 'a "b"']),
                     indeterminate=rng.random() < 0.05)
    return net


def test_large_net_round_trips_through_pnet_and_json():
    net = large_net(seed=2014)
    assert (len(net.vertices), len(net.edges)) == (VERTICES, EDGES)
    assert [v for v in net.validate() if v.severity == "error"] == []
    assert parse_net(format_net(net)) == net
    assert from_json(to_json(net)) == net


def test_a_json_load_peaks_at_most_twice_the_net_it_returns():
    net = large_net(seed=800, vertices=800, edges=3200)
    text = to_json(net)
    from_json(text)  # imports json outside the trace
    tracemalloc.start()
    try:
        loaded = from_json(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == net
    # The decoded document, with an object for each of its 12 000 channel
    # entries, would take about four times the net.
    assert peak <= 2 * retained


def test_large_net_round_trips_through_the_matrices():
    net = large_net(seed=2014)
    tracemalloc.start()
    try:
        tensor = adjacency_tensor(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rebuilt = from_matrices(net.mode, net.name, net.scale,
                            membership_matrix(net), tensor)
    expected = sorted(((e.src, e.dst, e.weight) for e in net.edges
                       if not e.weight.is_zero), key=lambda e: e[:2])
    assert 0 < len(expected) < EDGES  # some weights are all-zero
    assert [(e.src, e.dst, e.weight) for e in rebuilt.edges] == expected
    assert all(e.label == "" for e in rebuilt.edges)
    assert sum(map(len, tensor.entries)) == len(expected)
    # The dense 3 x V x V tensor would need more than 90 MiB.
    assert peak < 8 * 2**20
