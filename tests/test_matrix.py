import copy
from dataclasses import replace

import pytest
from hypothesis import given

from polarnet.core import (
    ChannelTriple,
    NetError,
    NetMode,
    NeutroValue,
    SemanticNet,
)
from polarnet.matrix import (
    AdjacencyTensor,
    MembershipMatrix,
    adjacency_tensor,
    from_matrices,
    membership_matrix,
)

from strategies import nets

Z = NeutroValue.determinate(0.0)


def t(a, b, c):
    return ChannelTriple.of(a, b, c)


class TestMembershipMatrix:
    def test_s1_rows(self, s1_net):
        mm = membership_matrix(s1_net)
        assert mm.labels == ("night", "cold", "hazy", "raining")
        assert mm.rows == (t(3, 0, 0), t(3, 0, 0), t(3, 0, 0), t(0, 0, 1.0))

    def test_s3_rows(self, s3_net):
        mm = membership_matrix(s3_net)
        assert mm.labels == ("Bob", "healthy", "plump", "anaemic")
        assert mm.rows == (t(3, 0, 0), t(3, 0, 0), t(3, 0, 0), t(0, 0, 1.0))

    def test_empty_net(self):
        mm = membership_matrix(SemanticNet(NetMode.FNSN, "x"))
        assert mm.labels == () and mm.rows == ()

    def test_row_count_must_match_labels(self):
        with pytest.raises(NetError):
            MembershipMatrix(("a", "b"), (t(0, 0, 0),))


class TestAdjacencyTensor:
    def test_s1_nonzeros(self, s1_net):
        tensor = adjacency_tensor(s1_net)
        assert tensor.slices[0][0][1] == NeutroValue.determinate(2.4)
        assert tensor.slices[1][0][2] == NeutroValue.determinate(1.4)
        assert tensor.slices[2][0][3] == NeutroValue.determinate(1.0)
        nonzero = {(k, i, j)
                   for k in range(3) for i in range(4) for j in range(4)
                   if not tensor.slices[k][i][j].is_zero}
        assert nonzero == {(0, 0, 1), (1, 0, 2), (2, 0, 3)}

    def test_s3_nonzeros(self, s3_net):
        tensor = adjacency_tensor(s3_net)
        assert tensor.triple(0, 1) == t(2.7, 0, 0)
        assert tensor.triple(0, 2) == t(0, 1.4, 0)
        assert tensor.triple(0, 3) == t(0, 0, 0.3)

    def test_no_edges_gives_zero_slices(self):
        net = SemanticNet(NetMode.FNSN, "x")
        net.add_vertex("a", (0, 0, 0))
        net.add_vertex("b", (0, 0, 0))
        tensor = adjacency_tensor(net)
        assert all(v is Z or v.is_zero
                   for sl in tensor.slices for row in sl for v in row)

    @pytest.mark.parametrize("src,dst", [(0, -1), (-1, 0), (0, 2)])
    def test_edge_to_missing_vertex_rejected(self, src, dst):
        net = SemanticNet(NetMode.FNSN, "x")
        net.add_vertex("a", (1, 0, 0))
        net.add_vertex("b", (1, 0, 0))
        with pytest.raises(NetError, match="unknown vertex id"):
            net.add_edge(src, dst, t(1, 0, 0))
        assert adjacency_tensor(net).entries == ((), ())

    def test_slices_must_be_square(self):
        with pytest.raises(NetError, match="slice"):
            AdjacencyTensor.from_slices(("a", "b"), (((Z,),), ((Z,),), ((Z,),)))


class TestFromMatrices:
    def test_roundtrip_of_fixture(self, s1_net):
        rebuilt = from_matrices(s1_net.mode, s1_net.name, s1_net.scale,
                                membership_matrix(s1_net),
                                adjacency_tensor(s1_net))
        assert [v.label for v in rebuilt.vertices] == \
            [v.label for v in s1_net.vertices]
        assert [v.membership for v in rebuilt.vertices] == \
            [v.membership for v in s1_net.vertices]
        assert len(rebuilt.edges) == 3
        assert all(e.label == "" for e in rebuilt.edges)
        assert {(e.src, e.dst): e.weight for e in rebuilt.edges} == \
            {(e.src, e.dst): e.weight for e in s1_net.edges}

    def test_empty_matrices_give_empty_net(self):
        net = from_matrices(NetMode.FNSN, "x", (3, 2, 1),
                            MembershipMatrix((), ()),
                            AdjacencyTensor.from_slices((), ((), (), ())))
        assert net.vertices == () and net.edges == ()

    def test_dimension_mismatch_rejected(self):
        membership = MembershipMatrix(
            ("a", "b", "c", "d"),
            (t(0, 0, 0), t(0, 0, 0), t(0, 0, 0), t(0, 0, 0)))
        row3 = (Z, Z, Z)
        tensor3 = AdjacencyTensor.from_slices(
            ("a", "b", "c"), tuple((row3, row3, row3) for _ in range(3)))
        with pytest.raises(NetError, match="mismatch"):
            from_matrices(NetMode.FNSN, "x", (3, 2, 1), membership, tensor3)

    def test_indeterminate_entries_set_flags(self):
        half_i = NeutroValue.indeterminacy(0.5)
        membership = MembershipMatrix(
            ("a", "b"), (ChannelTriple(half_i, Z, Z), t(1, 0, 0)))
        slice1 = ((Z, half_i), (Z, Z))
        zero = ((Z, Z), (Z, Z))
        tensor = AdjacencyTensor.from_slices(("a", "b"), (slice1, zero, zero))
        net = from_matrices(NetMode.FNSN, "x", (3, 2, 1), membership, tensor)
        assert net.vertices[0].indeterminate and not net.vertices[1].indeterminate
        assert net.edges[0].indeterminate


@given(nets())
def test_extraction_is_non_mutating(net):
    snapshot = copy.deepcopy(net)
    first = (membership_matrix(net), adjacency_tensor(net))
    second = (membership_matrix(net), adjacency_tensor(net))
    assert first == second
    assert net == snapshot


@given(nets())
def test_membership_rows_follow_insertion_order(net):
    mm = membership_matrix(net)
    assert list(mm.labels) == [v.label for v in net.vertices]
    assert list(mm.rows) == [v.membership for v in net.vertices]


@given(nets(allow_zero_weight_edges=False))
def test_tensor_sparsity_matches_edge_count(net):
    tensor = adjacency_tensor(net)
    n = len(tensor.labels)
    nonzero_positions = {(i, j) for i in range(n) for j in range(n)
                         if not tensor.triple(i, j).is_zero}
    assert len(nonzero_positions) == len(net.edges)


@given(nets(derived_flags=True, allow_zero_weight_edges=False))
def test_matrices_roundtrip_up_to_edge_labels(net):
    rebuilt = from_matrices(net.mode, net.name, net.scale,
                            membership_matrix(net), adjacency_tensor(net))
    assert rebuilt.vertices == net.vertices
    expected_edges = sorted((replace(e, label="") for e in net.edges),
                            key=lambda e: (e.src, e.dst))
    assert rebuilt.edges == tuple(expected_edges)
    assert (rebuilt.mode, rebuilt.name, rebuilt.scale) == \
        (net.mode, net.name, net.scale)


@given(nets(allow_zero_weight_edges=False))
def test_matrices_roundtrip_preserves_structure_and_weights(net):
    rebuilt = from_matrices(net.mode, net.name, net.scale,
                            membership_matrix(net), adjacency_tensor(net))
    assert [v.label for v in rebuilt.vertices] == [v.label for v in net.vertices]
    assert [v.membership for v in rebuilt.vertices] == \
        [v.membership for v in net.vertices]
    assert {(e.src, e.dst): e.weight for e in rebuilt.edges} == \
        {(e.src, e.dst): e.weight for e in net.edges}


@given(nets(allow_zero_weight_edges=True))
def test_dense_view_agrees_with_sparse_store(net):
    tensor = adjacency_tensor(net)
    n = len(tensor.labels)
    assert AdjacencyTensor.from_slices(tensor.labels, tensor.slices) == tensor
    slices = tensor.slices
    assert len(slices) == 3
    assert all(len(sl) == n and all(len(row) == n for row in sl)
               for sl in slices)
    for i in range(n):
        for j in range(n):
            assert tensor.triple(i, j) == ChannelTriple(
                slices[0][i][j], slices[1][i][j], slices[2][i][j])
    for i in (-1, n):
        with pytest.raises(NetError, match="outside"):
            tensor.triple(i, 0)
