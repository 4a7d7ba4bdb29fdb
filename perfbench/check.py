"""Verdict checks against ground truth that shares no code with the kernels.

* Every request gets exactly one verdict, for its own id and count.
* Each verdict names the request's true match set, recomputed here by
  plain box containment (not through the service's matcher or cache),
  and an empty set is an ``instance`` rejection.
* The accepted set passes :class:`FlowFeasibilityOracle`, the max-flow
  form of the validation equations, which neither the ``tree`` nor the
  ``dense`` kernel uses.
* In process, the verdict stream is also byte-identical to
  :meth:`ValidationService.process` over the same stream.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence

from repro import LicensePool, ValidationLog
from repro.validation.flow import FlowFeasibilityOracle


def true_match_sets(pool: LicensePool, stream) -> List[FrozenSet[int]]:
    """Return the 1-based indexes of the licenses containing each request."""
    boxes = [(index, lic.box) for index, lic in pool.enumerate()]
    return [
        frozenset(index for index, box in boxes if box.contains(usage.box))
        for usage in stream
    ]


def signature(outcomes) -> bytes:
    """The verdict stream as bytes, for byte-identity comparisons."""
    return "\n".join(repr(outcome) for outcome in outcomes).encode()


def violations(
    pool: LicensePool,
    stream,
    outcomes: Sequence[Optional[object]],
    match_sets: Sequence[FrozenSet[int]],
    journal: Optional[ValidationLog] = None,
) -> List[str]:
    """Return a description of every wrong verdict (empty when correct).

    ``outcomes[i]`` is the verdict on ``stream[i]``, or ``None`` for a
    request that failed without one (counted elsewhere as a failure).
    ``journal`` holds issuances the service started with; they count
    against the aggregates too.
    """
    if len(outcomes) != len(stream):
        return [f"{len(outcomes)} verdict slot(s) for {len(stream)} request(s)"]
    problems: List[str] = []
    accepted = ValidationLog(journal or ())
    for usage, outcome, truth in zip(stream, outcomes, match_sets):
        if outcome is None:
            continue
        where = usage.license_id
        if (outcome.usage_id, outcome.count) != (usage.license_id, usage.count):
            problems.append(f"{where}: verdict is for {outcome.usage_id}")
            continue
        if frozenset(outcome.license_set) != truth:
            problems.append(
                f"{where}: match set {sorted(outcome.license_set)} != "
                f"{sorted(truth)}"
            )
        if not truth and (outcome.accepted or outcome.rejection_reason != "instance"):
            problems.append(f"{where}: matches nothing but was not an instance rejection")
        if outcome.accepted:
            accepted.record(sorted(truth), usage.count, usage.license_id)
    if accepted and not FlowFeasibilityOracle(pool.aggregate_array()).feasible_log(
        accepted
    ):
        problems.append(
            f"the {len(accepted)} accepted request(s) exceed the aggregates "
            "(max-flow oracle)"
        )
    return problems
