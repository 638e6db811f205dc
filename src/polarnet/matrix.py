"""Membership matrix and adjacency tensor extraction, plus the inverse.

The membership matrix mirrors vertex memberships row by row in insertion
order.  The adjacency tensor stacks three |V| x |V| slices, one per channel;
rows index edge sources, columns destinations.  It stores only its nonzero
entries, by row in increasing column order, and rejects any other entry;
extraction and reconstruction take O(V + E) time and memory.
``AdjacencyTensor.slices`` reads it densely, building a row of ``NeutroValue``
only when that row is indexed.  Both results are immutable and comparable,
so extraction is non-mutating.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import attrgetter

from .core import ChannelTriple, Edge, NetMode, NetError, NeutroValue, SemanticNet

__all__ = [
    "MembershipMatrix",
    "AdjacencyTensor",
    "membership_matrix",
    "adjacency_tensor",
    "from_matrices",
]

_ZERO = NeutroValue.determinate(0.0)
_CHANNELS = (attrgetter("c1"), attrgetter("c2"), attrgetter("c3"))


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
    """Three |V| x |V| slices of edge weights, stored by nonzero entries.

    ``entries[i]`` holds the ``(j, triple)`` pairs of source row ``i`` whose
    triple is not all-zero, in increasing column ``j``; any other entry
    raises ``NetError``, as the dense view would misread it.  Every cell not
    stored is zero.
    """

    labels: tuple[str, ...]
    entries: tuple[tuple[tuple[int, ChannelTriple], ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n != len(self.entries):
            raise NetError(
                f"adjacency tensor has {n} labels but {len(self.entries)} rows")
        for i, row in enumerate(self.entries):
            last = -1
            for j, triple in row:
                if not (type(j) is int and last < j < n):
                    raise NetError(f"adjacency tensor row {i}: column {j!r} "
                                   f"is not an int in [{last + 1}, {n})")
                if type(triple) is not ChannelTriple or triple.is_zero:
                    raise NetError(
                        f"adjacency tensor row {i}, column {j}: {triple!r} "
                        f"is not a nonzero ChannelTriple")
                last = j

    @property
    def slices(self) -> tuple[_DenseSlice, _DenseSlice, _DenseSlice]:
        """Read-only dense view: ``slices[k][i][j]`` is channel k+1 of (i, j).

        A slice's length is |V| in O(1); indexing a row builds its |V| values.
        """
        return tuple(_DenseSlice(self, channel) for channel in _CHANNELS)


class _DenseSlice(Sequence):
    """One channel of an adjacency tensor as |V| rows of |V| values."""

    __slots__ = ("_tensor", "_channel")

    def __init__(self, tensor: AdjacencyTensor,
                 channel: Callable[[ChannelTriple], NeutroValue]):
        self._tensor = tensor
        self._channel = channel

    def __len__(self) -> int:
        return len(self._tensor.labels)

    def __getitem__(self, i: int) -> tuple[NeutroValue, ...]:
        entries = self._tensor.entries[i]
        row = [_ZERO] * len(self)
        for j, triple in entries:
            row[j] = self._channel(triple)
        return tuple(row)


def membership_matrix(net: SemanticNet) -> MembershipMatrix:
    """Extract the membership vertex matrix of ``net``."""
    return MembershipMatrix(
        labels=tuple(v.label for v in net.vertices),
        rows=tuple(v.membership for v in net.vertices),
    )


def adjacency_tensor(net: SemanticNet) -> AdjacencyTensor:
    """Extract the 3-slice adjacency tensor of ``net``; O(V + E).

    Edges with a nonzero weight are bucketed by destination, and the buckets
    are then read in column order, so every row comes out sorted without a
    comparison sort.
    """
    labels = tuple(v.label for v in net.vertices)
    n = len(labels)
    columns: list[list[Edge]] = [[] for _ in range(n)]
    for e in net.edges:
        if not e.weight.is_zero:
            columns[e.dst].append(e)
    rows: list[list[tuple[int, ChannelTriple]]] = [[] for _ in range(n)]
    for j, column in enumerate(columns):
        for e in column:
            rows[e.src].append((j, e.weight))
    return AdjacencyTensor(labels=labels, entries=tuple(map(tuple, rows)))


def from_matrices(mode: NetMode, name: str, scale: tuple[float, float, float],
                  membership: MembershipMatrix,
                  tensor: AdjacencyTensor) -> SemanticNet:
    """Rebuild a net from its extracted matrices; O(V + E).

    One vertex per membership row and one edge per stored tensor entry, in
    row-major order.  The tensor carries no relation words, so edge labels
    come back empty; indeterminate flags are set wherever a triple contains
    an indeterminacy entry.
    """
    if membership.labels != tensor.labels:
        raise NetError(
            f"label mismatch between membership matrix {list(membership.labels)} "
            f"and tensor {list(tensor.labels)}")
    net = SemanticNet(mode, name, scale)
    for label, row in zip(membership.labels, membership.rows):
        net.add_vertex(label, row, indeterminate=row.has_indeterminate)
    for i, row in enumerate(tensor.entries):
        for j, triple in row:
            net.add_edge(i, j, triple, indeterminate=triple.has_indeterminate)
    return net
