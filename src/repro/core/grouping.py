"""Group formation: connected components of the overlap graph (Algorithm 3).

The paper identifies *disconnected groups* of redistribution licenses by
depth-first search over the overlap graph: each connected component is one
group, groups are discovered in ascending order of their smallest license
index, and the arrays ``Group`` (membership rows) and ``GroupSize`` record
the result.

Implementation note: the paper's ``Depth_first(i, k)`` subroutine scans
neighbors only for ``j > i`` ("for j=i+1 to N"), which misses components
reachable through a *lower-indexed* neighbor of an interior vertex (e.g.
edges {1-3, 2-3}: starting at 1 visits 3, but 3 never looks back at 2).
We implement the textbook DFS over all neighbors -- the result the paper's
figures clearly intend -- and cross-check against networkx's
``connected_components`` in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.errors import GroupingError
from repro.core.overlap import OverlapGraph

__all__ = [
    "GroupStructure",
    "form_groups",
    "form_groups_networkx",
    "form_groups_paper_literal",
]


@dataclass(frozen=True)
class GroupStructure:
    """The outcome of Algorithm 3: a partition of licenses into groups.

    Attributes
    ----------
    groups:
        Tuple of frozensets of 1-based license indexes, ordered by each
        group's smallest member (the discovery order of Algorithm 3).
    n:
        Total number of licenses.
    """

    groups: Tuple[FrozenSet[int], ...]
    n: int

    def __post_init__(self) -> None:
        seen: set = set()
        for group in self.groups:
            if not group:
                raise GroupingError("groups must be non-empty")
            if group & seen:
                raise GroupingError(f"groups are not disjoint: {sorted(group & seen)}")
            seen |= group
        if seen != set(range(1, self.n + 1)):
            raise GroupingError(
                f"groups must partition 1..{self.n}, got {sorted(seen)}"
            )

    # -- paper-notation views -------------------------------------------
    @property
    def count(self) -> int:
        """Return ``g``, the number of groups."""
        return len(self.groups)

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Return the paper's ``GroupSize`` array: ``N_k`` per group."""
        return tuple(len(group) for group in self.groups)

    def membership_matrix(self) -> List[List[int]]:
        """Return the paper's ``Group`` array: ``N`` rows of ``N`` 0/1
        entries; row ``k`` marks the members of group ``k+1`` (unused rows
        are all zeros, as in Algorithm 3)."""
        matrix = [[0] * self.n for _ in range(self.n)]
        for row, group in enumerate(self.groups):
            for index in group:
                matrix[row][index - 1] = 1
        return matrix

    def group_of(self, index: int) -> int:
        """Return the 0-based group id holding 1-based license ``index``."""
        for group_id, group in enumerate(self.groups):
            if index in group:
                return group_id
        raise GroupingError(f"license index {index} out of range 1..{self.n}")

    def group_lookup(self) -> Dict[int, int]:
        """Return a ``{license index: group id}`` dict for bulk lookups."""
        lookup: Dict[int, int] = {}
        for group_id, group in enumerate(self.groups):
            for index in group:
                lookup[index] = group_id
        return lookup

    def masks(self) -> Tuple[int, ...]:
        """Return each group as a bitmask over the global index space."""
        out = []
        for group in self.groups:
            mask = 0
            for index in group:
                mask |= 1 << (index - 1)
            out.append(mask)
        return tuple(out)

    def sorted_members(self, group_id: int) -> Tuple[int, ...]:
        """Return group members ascending (the local-index order used by
        Algorithm 5's ``position`` array)."""
        return tuple(sorted(self.groups[group_id]))


def form_groups(graph: OverlapGraph) -> GroupStructure:
    """Run Algorithm 3: DFS group formation over the overlap graph.

    Returns groups ordered by smallest member index, exactly as the
    paper's loop ``for i = 1..N: if Visited[i] = 0`` discovers them.
    """
    n = graph.n
    visited = [False] * (n + 1)  # 1-based
    groups: List[FrozenSet[int]] = []
    for start in range(1, n + 1):
        if visited[start]:
            continue
        # Iterative DFS (the paper recurses; large N would blow the stack).
        members = []
        stack = [start]
        visited[start] = True
        while stack:
            vertex = stack.pop()
            members.append(vertex)
            for neighbor in graph.neighbors(vertex):
                if not visited[neighbor]:
                    visited[neighbor] = True
                    stack.append(neighbor)
        groups.append(frozenset(members))
    return GroupStructure(tuple(groups), n)


def form_groups_paper_literal(graph: OverlapGraph) -> GroupStructure:
    """Algorithm 3 exactly as printed, including its forward-only scan.

    The paper's ``Depth_first(i, k)`` subroutine iterates ``for j = i+1 to
    N``, so a vertex never revisits *lower-indexed* neighbours.  On most
    graphs (in particular all of the paper's figures) this coincides with
    connected components, but on e.g. edges ``{1-3, 2-3}`` vertex 2 is
    only reachable from 1 through the higher-indexed 3, and the literal
    algorithm splits one component into two.

    Kept for scholarship: ``tests/core/test_grouping.py`` demonstrates the
    divergence, and :func:`form_groups` implements the intended semantics
    (cross-checked against networkx).

    Note: the result may violate the connected-component invariant, so it
    is returned as a raw tuple of frozensets, NOT a validated
    :class:`GroupStructure` substitute for the pipeline.
    """
    n = graph.n
    visited = [False] * (n + 1)
    groups: List[FrozenSet[int]] = []

    def depth_first(vertex: int, members: List[int]) -> None:
        members.append(vertex)
        visited[vertex] = True
        # The paper's scan starts at j = i+1: forward neighbours only.
        for neighbor in range(vertex + 1, n + 1):
            if graph.are_overlapping(vertex, neighbor) and not visited[neighbor]:
                depth_first(neighbor, members)

    for start in range(1, n + 1):
        if not visited[start]:
            members: List[int] = []
            depth_first(start, members)
            groups.append(frozenset(members))
    return GroupStructure(tuple(groups), n)


def form_groups_networkx(graph: OverlapGraph) -> GroupStructure:
    """Reference implementation via :func:`networkx.connected_components`.

    Must produce the same partition as :func:`form_groups`; kept as a
    cross-check and for users already holding a networkx graph.  networkx
    is imported on first call, so serving never loads it.
    """
    import networkx as nx

    components = nx.connected_components(graph.to_networkx())
    groups = sorted((frozenset(component) for component in components), key=min)
    return GroupStructure(tuple(groups), graph.n)
