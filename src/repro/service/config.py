"""Configuration for the validation service.

One frozen dataclass so a service's behaviour is fully determined by
``(pool, initial log, config)`` -- the property the determinism tests
lean on (the same workload must produce byte-identical verdict streams
for every shard count and executor backend).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServiceError
from repro.core.kernel import KERNEL_NAMES, KERNEL_TREE
from repro.validation.limits import DEFAULT_KERNEL_CAP, DENSE_TABLE_MAX_N

__all__ = ["ServiceConfig", "EXECUTOR_BACKENDS"]

#: Recognized executor backends (see :mod:`repro.service.executor`).
EXECUTOR_BACKENDS = ("serial", "resident")


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of a :class:`repro.service.ValidationService`.

    Attributes
    ----------
    shards:
        Number of worker lanes.  Groups are assigned round-robin
        (``group_id % shards``); a shard count above the group count is
        clamped, since a shard without groups has nothing to do.
    batch_size:
        Maximum requests coalesced into one admission batch.  Each batch
        ends with a single incremental revalidation pass over the groups
        it touched, so larger batches amortize the
        ``Σ_dirty (2^{N_k} - 1)`` equation cost over more requests.
    queue_capacity:
        Bound on each shard's pending queue.  Submitting to a full shard
        raises :class:`repro.errors.ServiceOverloadedError` -- explicit
        backpressure instead of unbounded memory growth.
    executor:
        ``"serial"`` (the default: drains run in the caller, zero
        overhead) or ``"resident"`` (long-lived worker processes that
        own their shards' state, trees and dense tables alike -- only
        pending batches and verdicts cross the pipes, O(batch) IPC per
        drain).  A failed resident executor refuses every later
        request with :class:`repro.errors.ServiceError`.  A wire
        server drains both on its event loop: a serial drain as plain
        CPU work, a resident one by awaiting the worker pipes that
        :meth:`~repro.service.ValidationService.dispatch` returns.
    workers:
        Worker-process count for the resident backend; ``0`` (default)
        means one worker per shard.  Ignored by the serial backend.
    match_cache_size:
        LRU entries for instance-match memoization; 0 disables caching.
    latency_window:
        Sample window of the latency histogram (exact quantiles are
        computed over the most recent this-many requests).
    kernel:
        Per-group equation engine: ``"tree"`` (the validation-tree walk
        of [10], the default) or ``"dense"`` (the resident-table
        :class:`repro.core.kernel.DenseHeadroomKernel` -- O(1) admission
        headroom, delta revalidation).  Verdict streams are
        byte-identical for both; only the cost model differs.
    kernel_cap:
        Largest ``N_k`` served by the dense kernel; groups above it fall
        back to the tree walk (counted by the ``kernel_fallback``
        metric).  Bounded by
        :data:`repro.validation.limits.DENSE_TABLE_MAX_N`, the shared
        ceiling for every dense per-mask table.
    """

    shards: int = 1
    batch_size: int = 32
    queue_capacity: int = 1024
    executor: str = "serial"
    workers: int = 0
    match_cache_size: int = 4096
    latency_window: int = 65536
    kernel: str = KERNEL_TREE
    kernel_cap: int = DEFAULT_KERNEL_CAP

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ServiceError(f"shards must be >= 1, got {self.shards}")
        if self.batch_size < 1:
            raise ServiceError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.queue_capacity < 1:
            raise ServiceError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.executor not in EXECUTOR_BACKENDS:
            raise ServiceError(
                f"unknown executor {self.executor!r}; "
                f"choose from {', '.join(EXECUTOR_BACKENDS)}"
            )
        if self.workers < 0:
            raise ServiceError(
                f"workers must be >= 0 (0 = one per shard), got {self.workers}"
            )
        if self.match_cache_size < 0:
            raise ServiceError(
                f"match_cache_size must be >= 0, got {self.match_cache_size}"
            )
        if self.latency_window < 1:
            raise ServiceError(
                f"latency_window must be >= 1, got {self.latency_window}"
            )
        if self.kernel not in KERNEL_NAMES:
            raise ServiceError(
                f"unknown kernel {self.kernel!r}; "
                f"choose from {', '.join(KERNEL_NAMES)}"
            )
        if not 0 <= self.kernel_cap <= DENSE_TABLE_MAX_N:
            raise ServiceError(
                f"kernel_cap must be in [0, {DENSE_TABLE_MAX_N}], "
                f"got {self.kernel_cap}"
            )
