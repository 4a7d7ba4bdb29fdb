"""Max-flow feasibility oracle for aggregate validation.

An extension beyond the paper that doubles as a correctness oracle.  The
``2^N - 1`` validation equations are exactly the Gale-Hoffman / deficiency-
Hall conditions for a transportation problem:

* every aggregated log entry ``(S, C[S])`` is a *demand* of ``C[S]`` counts
  that must be routed to redistribution licenses **within** ``S``;
* every license ``j`` has *capacity* ``A_j``.

A feasible routing exists **iff** for every subset ``S`` of licenses, the
total demand that can only go inside ``S`` (i.e. ``C⟨S⟩``, the sum of
``C[T]`` over ``T ⊆ S``) does not exceed ``A[S]`` -- which is Equation 1.
By max-flow/min-cut, feasibility is equivalent to the max flow of the
network below saturating all demands::

    source --C[S]--> (set S) --∞--> (license j ∈ S) --A_j--> sink

So a *polynomial* algorithm answers the yes/no validation question that the
paper's engines answer by checking exponentially many equations.  The
equation-based engines remain the paper's object of study (and report
*which* sets are violated, which the flow verdict does not); the oracle
property-checks all of them.

networkx is imported inside the methods that build and solve the network,
so it loads when an oracle first runs, never on import: the serving path
does not use it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.errors import ValidationError
from repro.logstore.log import ValidationLog
from repro.validation.bitset import indexes_of

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    import networkx as nx

__all__ = ["FlowFeasibilityOracle"]

_SOURCE = "source"
_SINK = "sink"


class FlowFeasibilityOracle:
    """Polynomial yes/no aggregate validation via max-flow.

    Examples
    --------
    >>> oracle = FlowFeasibilityOracle([100, 50])
    >>> oracle.feasible({0b01: 80, 0b11: 60})   # 80 into L1, 60 anywhere
    True
    >>> oracle.feasible({0b01: 120})            # 120 > A_1
    False
    """

    engine_name = "flow"

    def __init__(self, aggregates: Sequence[int]):
        if not aggregates:
            raise ValidationError("aggregate array must be non-empty")
        if any(a < 0 for a in aggregates):
            raise ValidationError(f"aggregates must be non-negative: {aggregates!r}")
        self._aggregates = list(aggregates)
        self._n = len(aggregates)

    @property
    def n(self) -> int:
        """Return the number of redistribution licenses ``N``."""
        return self._n

    # ------------------------------------------------------------------
    # Network construction
    # ------------------------------------------------------------------
    def build_network(self, counts_by_mask: Dict[int, int]) -> nx.DiGraph:
        """Build the transportation network for aggregated log counts."""
        import networkx as nx

        universe = (1 << self._n) - 1
        graph = nx.DiGraph()
        graph.add_node(_SOURCE)
        graph.add_node(_SINK)
        for j in range(1, self._n + 1):
            graph.add_edge(("lic", j), _SINK, capacity=self._aggregates[j - 1])
        for mask, count in counts_by_mask.items():
            if mask == 0 or mask & ~universe:
                raise ValidationError(
                    f"log references mask {mask:#b} outside universe N={self._n}"
                )
            if count < 0:
                raise ValidationError(f"negative count for mask {mask:#b}")
            graph.add_edge(_SOURCE, ("set", mask), capacity=count)
            for j in indexes_of(mask):
                # Unbounded inner edges: omit 'capacity' => infinite in networkx.
                graph.add_edge(("set", mask), ("lic", j))
        return graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def max_routable(self, counts_by_mask: Dict[int, int]) -> int:
        """Return the maximum demand that can be feasibly assigned."""
        import networkx as nx

        graph = self.build_network(counts_by_mask)
        value, _ = nx.maximum_flow(graph, _SOURCE, _SINK)
        return int(value)

    def feasible(self, counts_by_mask: Dict[int, int]) -> bool:
        """Return ``True`` iff all validation equations hold (all issued
        counts can be routed within their allowed license sets)."""
        demand = sum(counts_by_mask.values())
        if demand == 0:
            return True
        return self.max_routable(counts_by_mask) >= demand

    def feasible_log(self, log: ValidationLog) -> bool:
        """Feasibility check on a raw log."""
        return self.feasible(log.counts_by_mask())

    def assignment(
        self, counts_by_mask: Dict[int, int]
    ) -> Tuple[bool, Dict[Tuple[int, int], int]]:
        """Return ``(feasible, routing)`` where ``routing[(mask, j)]`` is how
        many counts of demand-set ``mask`` a max flow routes to license
        ``j``.  When infeasible the routing is a best-effort partial
        assignment (it maximizes routed demand)."""
        import networkx as nx

        graph = self.build_network(counts_by_mask)
        value, flows = nx.maximum_flow(graph, _SOURCE, _SINK)
        routing: Dict[Tuple[int, int], int] = {}
        for node, edges in flows.items():
            if isinstance(node, tuple) and node[0] == "set":
                mask = node[1]
                for target, amount in edges.items():
                    if amount and isinstance(target, tuple) and target[0] == "lic":
                        routing[(mask, target[1])] = int(amount)
        demand = sum(counts_by_mask.values())
        return int(value) >= demand, routing

    def remaining_capacity(
        self, counts_by_mask: Dict[int, int], target_mask: int
    ) -> int:
        """Return the largest extra count a *new* issuance with set
        ``target_mask`` could carry while keeping validation feasible.

        Implemented as a parametric flow question: route all existing
        demand, then measure residual capacity reachable from the target
        set's licenses.  Returns 0 when the current log is already
        infeasible.
        """
        universe = (1 << self._n) - 1
        if target_mask == 0 or target_mask & ~universe:
            raise ValidationError(f"target mask {target_mask:#b} out of range")
        demand = sum(counts_by_mask.values())
        # Binary search on the answer using feasibility of (log + x@target).
        # Upper bound: total aggregate capacity.
        high = sum(self._aggregates)
        low = 0
        while low < high:
            middle = (low + high + 1) // 2
            probe = dict(counts_by_mask)
            probe[target_mask] = probe.get(target_mask, 0) + middle
            if self.max_routable(probe) >= demand + middle:
                low = middle
            else:
                high = middle - 1
        # If even x=0 is infeasible (log already invalid), report 0.
        if low == 0 and demand and self.max_routable(counts_by_mask) < demand:
            return 0
        return low
