"""Group shards: the coordinator's queues and the executors' shard state.

A shard has two halves with one owner each:

* :class:`ShardQueue` is the coordinator's half: a bounded FIFO of the
  requests routed to the shard, with the capacity (backpressure) and
  routing checks.  It holds no equation state.
* :class:`GroupShard` is the executor's half: the
  :class:`~repro.core.incremental.GroupSlice` state of every overlap
  group assigned to the shard, built only by
  :meth:`GroupShard.from_spec` -- in process by the serial executor, in
  a worker process by the resident one.

All mutations of a group's equation state happen inside its shard's
(single-threaded) processing loop, so requests touching *different*
shards validate concurrently while per-group state stays race-free --
the serving-architecture reading of Theorem 2: disconnected groups
share no validation equations, hence no state, hence no locks.

Admission runs in batches: the requests taken from the queue are split
into runs of up to ``batch_size``, each admitted or rejected by an exact
group-restricted headroom query, and every batch ends with **one**
incremental revalidation pass over the slices it dirtied.  The
per-request decision is exact either way; the batch pass is the
authority's periodic Algorithm 2 audit, and batching amortizes its
``Σ_dirty (2^{N_k} - 1)`` equation cost over the whole batch instead of
paying it per request.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.errors import ServiceError, ServiceOverloadedError
from repro.core.grouping import GroupStructure
from repro.core.incremental import GroupSlice
from repro.core.kernel import KERNEL_DENSE

__all__ = [
    "GroupShard",
    "ShardQueue",
    "ShardRequest",
    "ShardResult",
    "ShardSpec",
    "ShardStats",
]

#: Rejection reason reported for headroom shortfalls at admission.
REASON_EQUATION = "equation"


@dataclass(frozen=True)
class ShardRequest:
    """One admission request routed to a shard.

    ``seq`` is the service-wide submission sequence number; per-shard FIFO
    processing of ascending ``seq`` values is what makes verdict streams
    independent of the shard count.
    """

    seq: int
    usage_id: str
    group_id: int
    members: Tuple[int, ...]
    count: int
    #: ``time.perf_counter()`` stamps taken by the service's ``submit``:
    #: when matching began, and when the matched request was enqueued.
    received: float
    enqueued: float


@dataclass(frozen=True)
class ShardResult:
    """The shard's verdict on one request."""

    seq: int
    usage_id: str
    group_id: int
    members: Tuple[int, ...]
    count: int
    accepted: bool
    #: ``None`` when accepted, else a rejection reason code.
    reason: str | None
    #: Headroom observed at admission time (before any insert).
    headroom: int
    #: The request's stamps, echoed back for the service's timing views.
    received: float
    enqueued: float
    #: When admission of this request began (its queue wait ended) and
    #: when its verdict was reached, on the same clock.
    dequeued: float
    decided: float


@dataclass
class ShardStats:
    """Aggregate accounting of one processing drain."""

    processed: int = 0
    batches: int = 0
    equations_checked: int = 0
    audit_violations: int = 0
    #: Admissions answered by a dense headroom kernel (O(1) table probes).
    kernel_fast_path_hits: int = 0
    #: Admissions that *asked* for the dense kernel but were answered by
    #: the tree walk because the group exceeded the kernel cap.
    kernel_fallback: int = 0
    #: One plain tuple per batch, ``(size, started, ended, revalidations)``,
    #: where each revalidation is ``(group_id, equations_checked,
    #: violations, started, ended)``; stamps are ``time.perf_counter()``.
    batch_timings: List[
        Tuple[int, float, float, Tuple[Tuple[int, int, int, float, float], ...]]
    ] = field(default_factory=list)


@dataclass(frozen=True)
class ShardSpec:
    """Everything an executor needs to build one shard's state.

    Both executors build their shards from specs -- the serial one in
    process at construction, the resident one inside its workers at
    start-up -- so a group's equation state has one build path and one
    owner; the coordinator keeps only the :class:`ShardQueue`.  A spec
    is small and static: the group structure, the aggregates, config
    scalars, and the shard's share of the journal, which
    :meth:`GroupShard.from_spec` replays into the slices it builds.
    """

    shard_id: int
    group_ids: Tuple[int, ...]
    batch_size: int
    kernel: str
    kernel_cap: int
    structure: GroupStructure
    aggregates: Tuple[int, ...]
    #: Already-admitted records ``(group_id, members, count)`` to replay.
    preloads: Tuple[Tuple[int, Tuple[int, ...], int], ...]


class ShardQueue:
    """The coordinator's bounded FIFO of one shard's routed requests.

    An executor empties it with :meth:`take_pending` and hands the
    requests to the :class:`GroupShard` it built for the same shard id;
    after a failed drain it puts them back with :meth:`requeue`.
    """

    def __init__(
        self, shard_id: int, group_ids: Iterable[int], capacity: int
    ) -> None:
        if capacity < 1:
            raise ServiceError(f"queue_capacity must be >= 1, got {capacity}")
        self.shard_id: int = shard_id
        #: The 0-based ids of the groups routed here, ascending.
        self.group_ids: Tuple[int, ...] = tuple(sorted(group_ids))
        self._owned: FrozenSet[int] = frozenset(self.group_ids)
        self._capacity: int = capacity
        self._pending: Deque[ShardRequest] = deque()

    @property
    def depth(self) -> int:
        """Return the current pending-queue depth."""
        return len(self._pending)

    def enqueue(self, request: ShardRequest) -> None:
        """Queue a request, enforcing the bounded-queue backpressure.

        Raises
        ------
        ServiceOverloadedError
            When the queue already holds ``capacity`` requests.
        ServiceError
            When the request's group is not routed to this shard.
        """
        if len(self._pending) >= self._capacity:
            raise ServiceOverloadedError(self.shard_id, len(self._pending))
        if request.group_id not in self._owned:
            raise ServiceError(
                f"request {request.usage_id} for group {request.group_id + 1} "
                f"routed to shard {self.shard_id}, which owns groups "
                f"{[g + 1 for g in self.group_ids]}"
            )
        self._pending.append(request)

    def take_pending(self) -> List[ShardRequest]:
        """Empty the queue and return its requests in FIFO order.

        This list is the drain's work for the shard: the serial executor
        passes it to :meth:`GroupShard.process_pending`, the resident one
        ships it to the owning worker.  The queue is left empty so a
        failed drain can :meth:`requeue` it atomically.
        """
        taken = list(self._pending)
        self._pending.clear()
        return taken

    def requeue(self, requests: Sequence[ShardRequest]) -> None:
        """Put back requests taken by :meth:`take_pending` (front of the
        queue, original order) after a failed drain -- capacity checks
        are skipped because the requests were already admitted to the
        queue once."""
        self._pending.extendleft(reversed(list(requests)))


class GroupShard:
    """One shard's equation state and its batched admission loop (see
    the module docstring); built by :meth:`from_spec`."""

    def __init__(
        self, shard_id: int, slices: Dict[int, GroupSlice], batch_size: int
    ):
        if batch_size < 1:
            raise ServiceError(f"batch_size must be >= 1, got {batch_size}")
        self.shard_id = shard_id
        self._slices = slices
        self._batch_size = batch_size

    @classmethod
    def from_spec(cls, spec: ShardSpec) -> "GroupShard":
        """Build a shard from its spec.

        Every group's slice is built from the aggregates, then the
        spec's preloads are inserted into it unchecked: a journal record
        was admitted in a previous life, so no headroom check is run.
        """
        slices = {
            group_id: GroupSlice(
                spec.structure,
                list(spec.aggregates),
                group_id,
                kernel=spec.kernel,
                kernel_cap=spec.kernel_cap,
            )
            for group_id in spec.group_ids
        }
        for group_id, members, count in spec.preloads:
            if group_id not in slices:
                raise ServiceError(
                    f"group {group_id + 1} is not owned by shard {spec.shard_id}"
                )
            slices[group_id].insert(members, count)
        return cls(spec.shard_id, slices, spec.batch_size)

    def process_pending(
        self, requests: Sequence[ShardRequest]
    ) -> Tuple[List[ShardResult], ShardStats]:
        """Admit ``requests`` in FIFO batches; return verdicts + batch
        accounting.

        ``requests`` is what this shard's :class:`ShardQueue` held, in
        queue order.  Only this shard's slices are touched, and FIFO
        order is preserved, so verdicts depend only on the submission
        order within each group.
        """
        results: List[ShardResult] = []
        stats = ShardStats(processed=len(requests))
        clock = time.perf_counter
        size = self._batch_size
        for start in range(0, len(requests), size):
            batch = requests[start : start + size]
            batch_started = clock()
            touched: Dict[int, GroupSlice] = {}
            # Dense-kernel batch prefetch: answer every headroom query of
            # the batch with one vectorized H-table gather per group.  A
            # prefetched value is only *used* while the slice's mutation
            # counter still matches the gather -- an interleaved insert
            # (accepted earlier request in the same group) invalidates the
            # rest of that group's prefetch, which falls back to fresh O(1)
            # lookups.  Verdicts are therefore byte-identical to strictly
            # sequential processing.
            prefetched: Dict[int, Tuple[int, Dict[int, int]]] = {}
            by_group: Dict[int, List[int]] = {}
            for position, request in enumerate(batch):
                by_group.setdefault(request.group_id, []).append(position)
            for group_id, positions in by_group.items():
                gslice = self._slices[group_id]
                if gslice.kernel_name != KERNEL_DENSE or len(positions) < 2:
                    continue
                slacks = gslice.headroom_batch(
                    [batch[position].members for position in positions]
                )
                prefetched[group_id] = (
                    gslice.version,
                    dict(zip(positions, slacks)),
                )
            for position, request in enumerate(batch):
                dequeued = clock()
                gslice = self._slices[request.group_id]
                cached = prefetched.get(request.group_id)
                if cached is not None and cached[0] == gslice.version:
                    slack = cached[1][position]
                else:
                    slack = gslice.headroom(request.members)
                if gslice.kernel_name == KERNEL_DENSE:
                    stats.kernel_fast_path_hits += 1
                elif gslice.kernel_fallback:
                    stats.kernel_fallback += 1
                accepted = slack >= request.count
                if accepted:
                    gslice.insert(request.members, request.count)
                    touched[request.group_id] = gslice
                results.append(
                    ShardResult(
                        seq=request.seq,
                        usage_id=request.usage_id,
                        group_id=request.group_id,
                        members=request.members,
                        count=request.count,
                        accepted=accepted,
                        reason=None if accepted else REASON_EQUATION,
                        headroom=slack,
                        received=request.received,
                        enqueued=request.enqueued,
                        dequeued=dequeued,
                        decided=clock(),
                    )
                )
            # One incremental revalidation pass per batch: the audit cost
            # is paid once for every slice the batch dirtied.
            stats.batches += 1
            revalidations = []
            for gslice in touched.values():
                reval_started = clock()
                report, checked = gslice.revalidate()
                stats.equations_checked += checked
                stats.audit_violations += len(report.violations)
                revalidations.append(
                    (
                        gslice.group_id,
                        checked,
                        len(report.violations),
                        reval_started,
                        clock(),
                    )
                )
            stats.batch_timings.append(
                (len(batch), batch_started, clock(), tuple(revalidations))
            )
        return results, stats
