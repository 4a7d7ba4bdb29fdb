"""Headroom queries: how many more counts can a set still absorb?

When a new license is about to be issued against a set ``S``, only the
equations for **supersets** ``T ⊇ S`` tighten (a record with set ``S``
contributes to ``C⟨T⟩`` exactly when ``S ⊆ T``).  The maximum extra count is
therefore::

    headroom(S) = min over T ⊇ S of ( A[T] - C⟨T⟩ )

This module computes it by direct superset enumeration against a validation
tree.  Within the paper's grouped structure the enumeration can be
restricted to supersets inside ``S``'s own group (cross-group supersets are
redundant by Theorem 2), which :class:`repro.core.validator.GroupedValidator`
exploits; here the restriction is an optional ``universe_mask``.

A query costs ``2^(|universe| - |S|)`` equations and nothing per mask
outside them: each enumerated ``T`` pays one tree-walk subset sum for its
LHS ``C⟨T⟩`` and O(1) for its RHS ``A⟨T⟩``, which a low-bit recurrence
over the free bits carries from the previous ``T``.  No ``2^N`` table of
``A`` is built, so a group-restricted query over a large pool is as cheap
as the same query over the group alone.

On a *feasible* log the result agrees with the max-flow answer
(:meth:`repro.validation.flow.FlowFeasibilityOracle.remaining_capacity`);
both are property-tested against each other.  On an already-infeasible log
the two definitions intentionally differ: the flow answer is 0 ("nothing
keeps the log feasible"), while :func:`headroom` still reports the local
slack of the target's own superset equations (violations elsewhere in the
lattice do not poison unrelated sets).  Online sessions only ever query
feasible logs, where the distinction vanishes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import ValidationError
from repro.validation.bitset import indexes_of, iter_supersets, popcount
from repro.validation.tree import ValidationTree

__all__ = ["headroom"]


def headroom(
    tree: ValidationTree,
    aggregates: Sequence[int],
    target_mask: int,
    universe_mask: Optional[int] = None,
) -> int:
    """Return the maximum extra count issuable against ``target_mask``.

    Parameters
    ----------
    tree:
        Validation tree built over the current log.
    aggregates:
        The aggregate array ``A`` (length ``N``).
    target_mask:
        Bitmask of the set ``S`` the prospective license matched.
    universe_mask:
        Restrict the superset enumeration to this universe.  Defaults to
        all ``N`` licenses; pass the target's group mask for the grouped
        (and equivalent, by Theorem 2) computation.

    Returns
    -------
    int
        ``min_{S ⊆ T ⊆ universe} (A[T] - C⟨T⟩)``, floored at 0 (a log that
        is already over capacity yields no headroom).

    The cost is ``2^(|universe| - |S|)`` subset sums on the tree plus
    O(1) per enumerated ``T`` for ``A[T]``: the RHS is never tabulated
    over the whole array, so only the enumerated supersets are paid for.
    """
    n = len(aggregates)
    full = (1 << n) - 1
    if target_mask == 0 or target_mask & ~full:
        raise ValidationError(f"target mask {target_mask:#b} out of range for N={n}")
    universe = full if universe_mask is None else universe_mask
    if universe & ~full:
        raise ValidationError(f"universe mask {universe:#b} out of range for N={n}")
    if target_mask & ~universe:
        raise ValidationError(
            f"target mask {target_mask:#b} not inside universe {universe:#b}"
        )
    # iter_supersets visits T = target | F for the submasks F of the free
    # bits in increasing order, so consecutive F differ by setting their
    # lowest bit f and clearing every free bit below f:
    #   A[T_next] = A[T] + step[f],  step[f] = A[f] - A[free bits below f].
    rhs = sum(aggregates[index - 1] for index in indexes_of(target_mask))
    step: Dict[int, int] = {}
    below = 0
    for index in indexes_of(universe & ~target_mask):
        value = aggregates[index - 1]
        step[1 << (index - 1)] = value - below
        below += value
    best: Optional[int] = None
    for superset in iter_supersets(target_mask, universe):
        free = superset ^ target_mask
        if free:
            rhs += step[free & -free]
        slack = rhs - tree.subset_sum(superset)
        if best is None or slack < best:
            best = slack
            if best <= 0:
                break
    assert best is not None  # at least target_mask itself is enumerated
    return max(best, 0)


def superset_count(target_mask: int, universe_mask: int) -> int:
    """Return how many equations :func:`headroom` examines:
    ``2^(|universe| - |target|)``."""
    free = universe_mask & ~target_mask
    return 1 << popcount(free)
