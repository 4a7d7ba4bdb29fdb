"""Group shards: serialized per-group work queues with batched admission.

A :class:`GroupShard` owns the :class:`~repro.core.incremental.GroupSlice`
state of every overlap group assigned to it.  All mutations of a group's
equation state happen inside its shard's (single-threaded) processing
loop, so requests touching *different* shards validate concurrently while
per-group state stays race-free -- the serving-architecture reading of
Theorem 2: disconnected groups share no validation equations, hence no
state, hence no locks.

Admission runs in batches: up to ``batch_size`` pending requests are
drained, each admitted or rejected by an exact group-restricted headroom
query, and the batch ends with **one** incremental revalidation pass over
the slices it dirtied.  The per-request decision is exact either way; the
batch pass is the authority's periodic Algorithm 2 audit, and batching
amortizes its ``Σ_dirty (2^{N_k} - 1)`` equation cost over the whole
batch instead of paying it per request.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Sequence, Tuple

from repro.errors import ServiceError, ServiceOverloadedError
from repro.core.grouping import GroupStructure
from repro.core.incremental import GroupSlice
from repro.core.kernel import KERNEL_DENSE

__all__ = [
    "GroupShard",
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
    accepted: int = 0
    rejected: int = 0
    batches: int = 0
    equations_checked: int = 0
    audit_violations: int = 0
    #: Admissions answered by a dense headroom kernel (O(1) table probes).
    kernel_fast_path_hits: int = 0
    #: Admissions that *asked* for the dense kernel but were answered by
    #: the tree walk because the group exceeded the kernel cap.
    kernel_fallback: int = 0
    per_group: Dict[int, int] = field(default_factory=dict)
    #: One plain tuple per batch, ``(size, started, ended, revalidations)``,
    #: where each revalidation is ``(group_id, equations_checked,
    #: violations, started, ended)``; stamps are ``time.perf_counter()``.
    batch_timings: List[
        Tuple[int, float, float, Tuple[Tuple[int, int, int, float, float], ...]]
    ] = field(default_factory=list)


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker process needs to rebuild one shard in place.

    The resident executor ships a spec **once** at startup instead of
    pickling live shard state per drain: the worker builds the shard's
    :class:`~repro.core.incremental.GroupSlice` objects -- trees and
    dense tables alike -- from the (small, static) group structure +
    aggregates, then replays ``preloads`` into them.  The worker is
    then the only owner of that state; only pipes cross processes.
    """

    shard_id: int
    group_ids: Tuple[int, ...]
    batch_size: int
    queue_capacity: int
    kernel: str
    kernel_cap: int
    structure: GroupStructure
    aggregates: Tuple[int, ...]
    #: Already-admitted records ``(group_id, members, count)`` to replay.
    preloads: Tuple[Tuple[int, Tuple[int, ...], int], ...]


class GroupShard:
    """One serialized lane of the service (see module docstring)."""

    def __init__(
        self,
        shard_id: int,
        slices: Dict[int, GroupSlice],
        batch_size: int,
        queue_capacity: int,
    ):
        if batch_size < 1:
            raise ServiceError(f"batch_size must be >= 1, got {batch_size}")
        if queue_capacity < 1:
            raise ServiceError(f"queue_capacity must be >= 1, got {queue_capacity}")
        self.shard_id = shard_id
        self._slices = slices
        self._batch_size = batch_size
        self._capacity = queue_capacity
        self._pending: Deque[ShardRequest] = deque()
        #: Replayed records, kept so a :class:`ShardSpec` built later can
        #: carry them to a worker (coordinator side only; workers never
        #: re-record the preloads they replay).
        self._preloads: List[Tuple[int, Tuple[int, ...], int]] = []

    @classmethod
    def from_spec(cls, spec: ShardSpec) -> "GroupShard":
        """Rebuild a shard inside a worker process from its spec.

        Every group's slice is built from the aggregates and the spec's
        preloads are replayed into it, so the resulting equation state
        is byte-identical to the coordinator's at spec time.
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
        shard = cls(
            spec.shard_id, slices, spec.batch_size, spec.queue_capacity
        )
        for group_id, members, count in spec.preloads:
            shard.preload(group_id, members, count)
        # Replayed records are the coordinator's provenance, not this
        # worker's; keep the worker-side list empty.
        shard._preloads.clear()
        return shard

    # ------------------------------------------------------------------
    # Queue management (called from the service coordinator only)
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Return the current pending-queue depth."""
        return len(self._pending)

    @property
    def group_ids(self) -> Tuple[int, ...]:
        """Return the 0-based group ids assigned to this shard."""
        return tuple(sorted(self._slices))

    def enqueue(self, request: ShardRequest) -> None:
        """Queue a request, enforcing the bounded-queue backpressure.

        Raises
        ------
        ServiceOverloadedError
            When the queue already holds ``queue_capacity`` requests.
        """
        if len(self._pending) >= self._capacity:
            raise ServiceOverloadedError(self.shard_id, len(self._pending))
        if request.group_id not in self._slices:
            raise ServiceError(
                f"request {request.usage_id} for group {request.group_id + 1} "
                f"routed to shard {self.shard_id}, which owns groups "
                f"{[g + 1 for g in self.group_ids]}"
            )
        self._pending.append(request)

    def preload(self, group_id: int, members: Sequence[int], count: int) -> None:
        """Insert an already-validated record into a group's state.

        Used when replaying a restarting authority's journal: the record
        was admitted in a previous life, so no headroom check is run.
        """
        if group_id not in self._slices:
            raise ServiceError(
                f"group {group_id + 1} is not owned by shard {self.shard_id}"
            )
        self._slices[group_id].insert(members, count)
        self._preloads.append((group_id, tuple(members), count))

    def take_pending(self) -> List[ShardRequest]:
        """Drain and return the pending queue (coordinator side).

        The resident executor ships exactly this list -- the batch --
        across the process boundary; the shard's own queue is left empty
        so a failed drain can repopulate it atomically.
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

    @property
    def preloads(self) -> Tuple[Tuple[int, Tuple[int, ...], int], ...]:
        """Return replayed records recorded by :meth:`preload` (the
        coordinator reads these when building a :class:`ShardSpec`)."""
        return tuple(self._preloads)

    # ------------------------------------------------------------------
    # Processing (runs inside the executor worker)
    # ------------------------------------------------------------------
    def process_pending(self) -> Tuple[List[ShardResult], ShardStats]:
        """Drain the queue in batches; return verdicts + batch accounting.

        Safe to run on a worker thread/process: only this shard's slices
        are touched.  FIFO order is preserved, so verdicts depend only on
        the submission order within each group.
        """
        results: List[ShardResult] = []
        stats = ShardStats()
        clock = time.perf_counter
        while self._pending:
            batch = [
                self._pending.popleft()
                for _ in range(min(self._batch_size, len(self._pending)))
            ]
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
                    stats.accepted += 1
                else:
                    stats.rejected += 1
                stats.processed += 1
                stats.per_group[request.group_id] = (
                    stats.per_group.get(request.group_id, 0) + 1
                )
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
