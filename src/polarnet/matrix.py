"""Membership matrix and adjacency tensor extraction, plus the inverse.

The membership matrix mirrors vertex memberships row by row in insertion
order.  The adjacency tensor stacks three |V| x |V| slices, one per channel;
rows index edge sources, columns destinations.  Both are plain nested tuples
of ``NeutroValue`` so extraction is non-mutating and results are comparable.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import ChannelTriple, NetMode, NetError, NeutroValue, SemanticNet

__all__ = [
    "MembershipMatrix",
    "AdjacencyTensor",
    "membership_matrix",
    "adjacency_tensor",
    "from_matrices",
]

_ZERO = NeutroValue.determinate(0.0)


@dataclass(frozen=True)
class MembershipMatrix:
    """|V| x 3 matrix of per-vertex channel triples, in insertion order."""

    labels: tuple[str, ...]
    rows: tuple[ChannelTriple, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.rows):
            raise NetError(
                f"membership matrix has {len(self.labels)} labels "
                f"but {len(self.rows)} rows")


@dataclass(frozen=True)
class AdjacencyTensor:
    """Three |V| x |V| slices of edge weights; slices[k][src][dst]."""

    labels: tuple[str, ...]
    slices: tuple[tuple[tuple[NeutroValue, ...], ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.slices) != 3:
            raise NetError(f"adjacency tensor needs 3 slices, got {len(self.slices)}")
        for k, sl in enumerate(self.slices, start=1):
            if len(sl) != n or any(len(row) != n for row in sl):
                raise NetError(f"slice {k} is not {n} x {n}")

    def triple(self, i: int, j: int) -> ChannelTriple:
        """The (i, j) entry assembled across the three slices."""
        return ChannelTriple(self.slices[0][i][j],
                             self.slices[1][i][j],
                             self.slices[2][i][j])


def membership_matrix(net: SemanticNet) -> MembershipMatrix:
    """Extract the membership vertex matrix of ``net``."""
    return MembershipMatrix(
        labels=tuple(v.label for v in net.vertices),
        rows=tuple(v.membership for v in net.vertices),
    )


def adjacency_tensor(net: SemanticNet) -> AdjacencyTensor:
    """Extract the 3-slice adjacency tensor of ``net``."""
    index = {v.id: pos for pos, v in enumerate(net.vertices)}
    n = len(net.vertices)
    grids = [[[_ZERO] * n for _ in range(n)] for _ in range(3)]
    for e in net.edges:
        i, j = index[e.src], index[e.dst]
        for k, val in enumerate(e.weight):
            grids[k][i][j] = val
    return AdjacencyTensor(
        labels=tuple(v.label for v in net.vertices),
        slices=tuple(tuple(tuple(row) for row in grid) for grid in grids),
    )


def from_matrices(mode: NetMode, name: str, scale: tuple[float, float, float],
                  membership: MembershipMatrix,
                  tensor: AdjacencyTensor) -> SemanticNet:
    """Rebuild a net from its extracted matrices.

    One vertex per membership row and one edge per (i, j) whose channel
    triple is not all-zero.  The tensor carries no relation words, so edge
    labels come back empty; indeterminate flags are set wherever a triple
    contains an indeterminacy entry.
    """
    if membership.labels != tensor.labels:
        raise NetError(
            f"label mismatch between membership matrix {list(membership.labels)} "
            f"and tensor {list(tensor.labels)}")
    net = SemanticNet(mode, name, scale)
    for label, row in zip(membership.labels, membership.rows):
        net.add_vertex(label, row, indeterminate=row.has_indeterminate)
    for i, rows in enumerate(zip(*tensor.slices)):
        for j, (c1, c2, c3) in enumerate(zip(*rows)):
            if c1.is_zero and c2.is_zero and c3.is_zero:
                continue
            triple = ChannelTriple(c1, c2, c3)
            net.add_edge(i, j, triple, indeterminate=triple.has_indeterminate)
    return net
