"""Overlap graph of redistribution licenses (Section 3.2 / Figure 3).

Two redistribution licenses *overlap* when every constraint axis overlaps
-- geometrically, when their hyper-rectangles intersect.  The paper encodes
the pairwise relation as an ``N x N`` adjacency matrix ``Adj`` and treats
licenses as vertices of an undirected graph; connected components of that
graph are the *groups* that make validation equations separable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

from repro.errors import GroupingError
from repro.geometry.box import Box
from repro.licenses.pool import LicensePool

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    import networkx as nx

__all__ = ["OverlapGraph", "overlap_adjacency"]


def overlap_adjacency(boxes: Sequence[Box]) -> List[List[int]]:
    """Return the paper's adjacency matrix ``Adj`` for license boxes.

    ``Adj[i][j] == 1`` iff boxes ``i`` and ``j`` (0-based here) overlap on
    every axis.  The diagonal is 0, matching Figure 3 of the paper.
    """
    n = len(boxes)
    adjacency = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if boxes[i].overlaps(boxes[j]):
                adjacency[i][j] = 1
                adjacency[j][i] = 1
    return adjacency


class OverlapGraph:
    """The undirected overlap graph over a pool's licenses.

    Vertices are **1-based** license indexes (matching ``L_D^i``); edges are
    the pairwise-overlap relation.

    Examples
    --------
    >>> from repro.workloads.scenarios import figure2_pool
    >>> graph = OverlapGraph.from_pool(figure2_pool())
    >>> sorted(graph.neighbors(2))
    [1, 4]
    """

    def __init__(self, adjacency: Sequence[Sequence[int]]):
        n = len(adjacency)
        for row_number, row in enumerate(adjacency):
            if len(row) != n:
                raise GroupingError(
                    f"adjacency matrix must be square; row {row_number} "
                    f"has {len(row)} entries, expected {n}"
                )
            if row[row_number]:
                raise GroupingError(
                    f"adjacency diagonal must be 0 (row {row_number})"
                )
        for i in range(n):
            for j in range(i + 1, n):
                if adjacency[i][j] != adjacency[j][i]:
                    raise GroupingError(
                        f"adjacency must be symmetric; mismatch at ({i}, {j})"
                    )
        self._adjacency = [list(row) for row in adjacency]
        self._n = n

    @classmethod
    def from_boxes(cls, boxes: Sequence[Box]) -> "OverlapGraph":
        """Build the graph from license constraint boxes."""
        return cls(overlap_adjacency(boxes))

    @classmethod
    def from_pool(cls, pool: LicensePool) -> "OverlapGraph":
        """Build the graph from a license pool."""
        return cls.from_boxes(pool.boxes())

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Return the number of vertices (licenses)."""
        return self._n

    @property
    def adjacency(self) -> List[List[int]]:
        """Return a copy of the adjacency matrix (0-based rows/cols)."""
        return [list(row) for row in self._adjacency]

    def are_overlapping(self, i: int, j: int) -> bool:
        """Return ``True`` if licenses ``i`` and ``j`` (1-based) overlap."""
        self._check_vertex(i)
        self._check_vertex(j)
        return bool(self._adjacency[i - 1][j - 1])

    def neighbors(self, i: int) -> Iterator[int]:
        """Yield the 1-based neighbors of license ``i``."""
        self._check_vertex(i)
        for j, connected in enumerate(self._adjacency[i - 1], start=1):
            if connected:
                yield j

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each undirected edge once as ``(i, j)`` with ``i < j``."""
        for i in range(self._n):
            row = self._adjacency[i]
            for j in range(i + 1, self._n):
                if row[j]:
                    yield (i + 1, j + 1)

    def edge_count(self) -> int:
        """Return the number of undirected edges."""
        return sum(1 for _ in self.edges())

    def to_networkx(self) -> nx.Graph:
        """Export to a :class:`networkx.Graph` with 1-based node labels.

        Used by the cross-check in :mod:`repro.core.grouping` and handy for
        users who want to visualize the overlap structure.  networkx is
        imported on first call, so serving never loads it.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(1, self._n + 1))
        graph.add_edges_from(self.edges())
        return graph

    def _check_vertex(self, i: int) -> None:
        if not 1 <= i <= self._n:
            raise GroupingError(f"vertex {i} out of range 1..{self._n}")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"OverlapGraph(n={self._n}, edges={self.edge_count()})"
