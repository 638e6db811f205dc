import copy
import dataclasses
import pickle

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from polarnet.core import ChannelTriple, NetError, NetMode, NeutroValue, SemanticNet
from polarnet.analysis import (
    DEFAULT_LABEL_THRESHOLD,
    NormalizedTriple,
    Polarity,
    RankedNeighbor,
    SelectionResult,
    combine,
    net_polarity,
    normalize,
    polar_select,
    polarity_score,
)

from strategies import nets, scaled_copy, triples
from test_scale import large_net

SCALE = (3.0, 2.0, 1.0)


def brute_force_ranking(net, vertex_id):
    """Independent oracle: rank out-neighbors by score, plain arithmetic."""
    rows = []
    for e in net.edges:
        if e.src != vertex_id:
            continue
        neighbor = next(v for v in net.vertices if v.id == e.dst)
        channels = []
        for ev, nv, mx in zip(e.weight, neighbor.membership, net.scale):
            e_norm = 0.0 if ev.indeterminate else ev.magnitude / mx
            n_norm = 0.0 if nv.indeterminate else nv.magnitude / mx
            channels.append((e_norm + n_norm) / 2.0)
        rows.append((neighbor.label, tuple(channels), channels[0] - channels[2]))
    rows.sort(key=lambda r: (-r[2], r[1][1], r[0]))
    return rows


class TestNormalize:
    def test_full_positive_maps_to_one(self):
        result = normalize(ChannelTriple.of(3.0, 0, 0), SCALE)
        assert result == NormalizedTriple(1.0, 0.0, 0.0)
        assert not result.has_indeterminacy

    def test_zero_triple(self):
        assert normalize(ChannelTriple.zero(), SCALE) == \
            NormalizedTriple(0.0, 0.0, 0.0)

    def test_indeterminate_entry_contributes_zero_and_flags(self):
        triple = ChannelTriple.of(NeutroValue.indeterminacy(0.5), 1.0, 0)
        result = normalize(triple, SCALE)
        assert (result.p, result.u, result.n) == (0.0, 0.5, 0.0)
        assert result.has_indeterminacy

    def test_value_exceeding_scale_rejected(self):
        with pytest.raises(NetError, match="exceeds"):
            normalize(ChannelTriple.of(9.0, 0, 0), SCALE)


class TestCombine:
    def test_mean_of_positive_channels(self):
        # hand-computed: (0.9 + 1.0) / 2 = 0.95
        result = combine(NormalizedTriple(0.9, 0, 0), NormalizedTriple(1.0, 0, 0))
        assert result == NormalizedTriple(0.95, 0.0, 0.0)

    def test_mixed_channels_both_survive(self):
        # hand-computed: p = (0 + 1)/2 = 0.5, u = (0.7 + 0)/2 = 0.35
        result = combine(NormalizedTriple(0, 0.7, 0), NormalizedTriple(1.0, 0, 0))
        assert result == NormalizedTriple(0.5, 0.35, 0.0)

    def test_flag_is_disjunction(self):
        flagged = NormalizedTriple(0, 0, 0, has_indeterminacy=True)
        assert combine(flagged, NormalizedTriple(0, 0, 0)).has_indeterminacy
        assert not combine(NormalizedTriple(0, 0, 0),
                           NormalizedTriple(0, 0, 0)).has_indeterminacy

    @given(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False),
           st.floats(0, 1, allow_nan=False))
    def test_idempotent(self, p, u, n):
        x = NormalizedTriple(p, u, n)
        assert combine(x, x) == x


class TestPolarityScore:
    @pytest.mark.parametrize("triple,expected", [
        (NormalizedTriple(0.95, 0, 0), 0.95),
        (NormalizedTriple(0, 0, 0.65), -0.65),
        (NormalizedTriple(0.4, 1.0, 0.4), 0.0),
    ])
    def test_examples(self, triple, expected):
        assert polarity_score(triple) == pytest.approx(expected, abs=1e-12)


class TestPolarSelect:
    def test_positive_ranking_matches_oracle(self, s3_net):
        oracle = brute_force_ranking(s3_net, 0)
        assert [row[0] for row in oracle] == ["healthy", "plump", "anaemic"]
        result = polar_select(s3_net, 0, Polarity.POSITIVE)
        got = [(s3_net.vertex(r.vertex_id).label, r.score) for r in result.ranked]
        assert [g[0] for g in got] == [row[0] for row in oracle]
        for (_, score), row in zip(got, oracle):
            assert score == pytest.approx(row[2], abs=1e-12)
        # frozen values, confirmed against the oracle above
        assert got[0][1] == pytest.approx(0.95, abs=1e-9)
        assert got[1][1] == pytest.approx(0.5, abs=1e-9)
        assert got[2][1] == pytest.approx(-0.65, abs=1e-9)

    def test_negative_reverses_positive_ranking(self, s3_net):
        pos = polar_select(s3_net, 0, Polarity.POSITIVE)
        neg = polar_select(s3_net, 0, Polarity.NEGATIVE)
        assert [r.vertex_id for r in neg.ranked] == \
            [r.vertex_id for r in reversed(pos.ranked)]

    def test_neutral_prefers_high_neutrality_then_label(self, s3_net):
        result = polar_select(s3_net, 0, Polarity.NEUTRAL)
        labels = [s3_net.vertex(r.vertex_id).label for r in result.ranked]
        # plump has u=0.35; healthy and anaemic tie at u=0, label order decides
        assert labels == ["plump", "anaemic", "healthy"]

    def test_vertex_without_out_neighbors_gives_empty_ranking(self, s3_net):
        assert polar_select(s3_net, 3, Polarity.POSITIVE).ranked == ()

    def test_unknown_vertex_rejected(self, s3_net):
        with pytest.raises(NetError, match="unknown vertex"):
            polar_select(s3_net, 99, Polarity.POSITIVE)
        with pytest.raises(NetError, match="unknown vertex"):
            polar_select(s3_net, 99, "positive")

    def test_unknown_preference_rejected_before_ranking(self, s3_net):
        # Ranking this net would raise a range error first.
        s3_net._scale = (1.0, 1.0, 1.0)
        with pytest.raises(NetError, match="unknown preference 'positive'"):
            polar_select(s3_net, 0, "positive")


class TestNetPolarity:
    def test_balanced_fixture_is_neutral(self, s2_net):
        summary, label = net_polarity(s2_net)
        # oracle: 7 vertices and 6 edges, two full-p and two full-n entries
        assert summary.p == pytest.approx(2 / 13, abs=1e-12)
        assert summary.u == pytest.approx(9 / 13, abs=1e-12)
        assert summary.n == pytest.approx(2 / 13, abs=1e-12)
        assert polarity_score(summary) == pytest.approx(0.0, abs=1e-9)
        assert label is Polarity.NEUTRAL

    def test_single_fully_positive_vertex(self):
        net = SemanticNet(NetMode.PFNSN, "x")
        net.add_vertex("a", (3.0, 0, 0))
        summary, label = net_polarity(net)
        assert summary == NormalizedTriple(1.0, 0.0, 0.0)
        assert label is Polarity.POSITIVE

    def test_single_zero_vertex_is_neutral(self):
        net = SemanticNet(NetMode.PFNSN, "x")
        net.add_vertex("a", (0, 0, 0))
        summary, label = net_polarity(net)
        assert summary == NormalizedTriple(0.0, 0.0, 0.0)
        assert label is Polarity.NEUTRAL

    def test_empty_net_rejected(self):
        with pytest.raises(NetError, match="empty"):
            net_polarity(SemanticNet(NetMode.PFNSN, "x"))


# powers of two keep degree/scale quotients bit-identical
@given(nets(min_vertices=1), st.integers(-3, 6), st.sampled_from(list(Polarity)))
def test_ranking_invariant_under_common_scaling(net, exponent, preference):
    factor = 2.0 ** exponent
    scaled = scaled_copy(net, factor)
    for v in net.vertices:
        before = [r.vertex_id for r in polar_select(net, v.id, preference).ranked]
        after = [r.vertex_id for r in polar_select(scaled, v.id, preference).ranked]
        assert before == after


@given(triples((3.0, 2.0, 1.0), crisp=False))
def test_score_bounds(triple):
    result = normalize(triple, SCALE)
    score = polarity_score(result)
    assert -1.0 <= score <= 1.0
    if result.p == result.n:
        assert score == 0.0


@given(nets(min_vertices=1))
def test_selection_covers_exactly_the_out_neighbors(net):
    for v in net.vertices:
        result = polar_select(net, v.id, Polarity.POSITIVE)
        got = sorted(r.vertex_id for r in result.ranked)
        expected = sorted(e.dst for e in net.edges if e.src == v.id)
        assert got == expected


@given(nets(min_vertices=2))
def test_positive_and_negative_reverse_when_scores_distinct(net):
    vertex = net.vertices[0]
    pos = polar_select(net, vertex.id, Polarity.POSITIVE)
    scores = [r.score for r in pos.ranked]
    assume(len(set(scores)) == len(scores))
    neg = polar_select(net, vertex.id, Polarity.NEGATIVE)
    assert [r.vertex_id for r in neg.ranked] == \
        [r.vertex_id for r in reversed(pos.ranked)]


@given(nets(min_vertices=1))
def test_label_follows_threshold_rule(net):
    summary, label = net_polarity(net)
    score = polarity_score(summary)
    if score > 0.1:
        assert label is Polarity.POSITIVE
    elif score < -0.1:
        assert label is Polarity.NEGATIVE
    else:
        assert label is Polarity.NEUTRAL


def test_result_types_are_frozen_values():
    combined = NormalizedTriple(0.5, 0.25, 0.0, has_indeterminacy=True)
    ranked = RankedNeighbor(2, combined, 0.5)
    result = SelectionResult((ranked,))
    combined_repr = ("NormalizedTriple(p=0.5, u=0.25, n=0.0, "
                     "has_indeterminacy=True)")
    ranked_repr = (f"RankedNeighbor(vertex_id=2, combined={combined_repr}, "
                   "score=0.5)")
    for value, text, field in [
            (combined, combined_repr, "p"),
            (ranked, ranked_repr, "score"),
            (result, f"SelectionResult(ranked=({ranked_repr},))", "ranked")]:
        assert repr(value) == text
        twin = pickle.loads(pickle.dumps(value))
        assert twin == value and hash(twin) == hash(value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, 1)
    assert str(combined) == "(0.5, 0.25, 0)"
    assert combined != NormalizedTriple(0.5, 0.25, 0.0)
    assert combined != (0.5, 0.25, 0.0, True)
    assert hash(combined) == hash(NormalizedTriple(0.5, 0.25, 0.0, True))


# The normalize-based kernels as they were before scores were computed from
# the raw entries; the kernels must give equal results and raise equal errors.
def ref_polar_select(net, vertex_id, preference):
    net.vertex(vertex_id)
    scale = net.scale
    entries = []
    for e in net.out_edges(vertex_id):
        neighbor = net.vertex(e.dst)
        combined = combine(normalize(e.weight, scale),
                           normalize(neighbor.membership, scale))
        entries.append((neighbor.label,
                        RankedNeighbor(neighbor.id, combined,
                                       polarity_score(combined))))
    if preference is Polarity.POSITIVE:
        def key(item): return (-item[1].score, item[1].combined.u, item[0])
    elif preference is Polarity.NEGATIVE:
        def key(item): return (item[1].score, item[1].combined.u, item[0])
    elif preference is Polarity.NEUTRAL:
        def key(item): return (-item[1].combined.u, item[0])
    else:
        raise NetError(f"unknown preference {preference!r}")
    entries.sort(key=key)
    return SelectionResult(ranked=tuple(item[1] for item in entries))


def ref_net_polarity(net):
    vertices, scale = net.vertices, net.scale
    if not vertices:
        raise NetError("empty net has no polarity")
    triples = [normalize(v.membership, scale) for v in vertices]
    triples += [normalize(e.weight, scale) for e in net.edges]
    count = len(triples)
    summary = NormalizedTriple(
        sum(t.p for t in triples) / count,
        sum(t.u for t in triples) / count,
        sum(t.n for t in triples) / count,
        has_indeterminacy=any(t.has_indeterminacy for t in triples),
    )
    score = polarity_score(summary)
    if score > DEFAULT_LABEL_THRESHOLD:
        label = Polarity.POSITIVE
    elif score < -DEFAULT_LABEL_THRESHOLD:
        label = Polarity.NEGATIVE
    else:
        label = Polarity.NEUTRAL
    return summary, label


def _outcome(function, *args):
    """The result of a call, or its NetError's text, kind and channel."""
    try:
        result = function(*args)
    except NetError as error:
        return str(error), error.kind, error.channel
    return result, repr(result)  # the repr tells -0.0 from 0.0


def assert_kernels_match_reference(net):
    assert _outcome(net_polarity, net) == _outcome(ref_net_polarity, net)
    for v in net.vertices:
        for preference in Polarity:
            assert (_outcome(polar_select, net, v.id, preference)
                    == _outcome(ref_polar_select, net, v.id, preference))


# A shrunk scale, set behind construction's back, puts entries above it, so
# both kernels must name the same first entry as the reference.
@given(nets(), st.integers(-3, 6), st.sampled_from([1.0, 0.75, 0.5]))
def test_kernels_match_the_normalize_reference(net, exponent, shrink):
    scaled = scaled_copy(net, 2.0 ** exponent)
    for candidate in (net, scaled):
        assert_kernels_match_reference(candidate)
        shrunk = copy.copy(candidate)
        shrunk._scale = tuple(s * shrink for s in candidate.scale)
        assert_kernels_match_reference(shrunk)


def test_kernels_match_the_normalize_reference_on_a_large_net():
    assert_kernels_match_reference(large_net(1))
