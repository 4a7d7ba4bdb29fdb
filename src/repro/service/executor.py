"""Executor backends: how shard drains are scheduled onto hardware.

Both backends obey the same contract: given the shards that currently
have pending work, run each shard's :meth:`GroupShard.process_pending`
exactly once, never running the same shard from two workers, and return
``[(shard_id, (results, stats))]`` in ascending shard id.  Because one
drain of one shard is a single task, per-shard serialization is
structural -- no locks needed.

A drain has two halves.  ``dispatch(shards)`` ships work without
waiting and returns the pipes whose replies are outstanding;
``drain(shards)`` ships whatever is left and collects every result.  A
caller that must not block (the wire server's event loop) waits for the
returned pipes to become readable in between.

* :class:`SerialExecutor` (backend name ``serial``) -- runs shards
  in-caller, ascending shard id.  The reference backend: zero overhead,
  fully deterministic scheduling.  It has no pipes: ``dispatch`` ships
  nothing and the whole drain is CPU work in ``drain``.
* :class:`~repro.service.resident.ResidentProcessExecutor` (backend
  name ``resident``) -- long-lived workers own their shards' state, only
  pending batches and verdicts cross the pipe: O(batch) IPC per drain.
  See :mod:`repro.service.resident`.

Both backends produce identical verdict streams for identical inputs
(the determinism and parity tests pin this).
"""

from __future__ import annotations

from multiprocessing.connection import Connection
from typing import List, Tuple

from repro.service.shard import GroupShard, ShardResult, ShardStats

__all__ = ["SerialExecutor"]

#: One shard's drain output.
DrainOutput = Tuple[List[ShardResult], ShardStats]


class SerialExecutor:
    """Run busy shards one after another in the calling thread."""

    name = "serial"

    def dispatch(self, shards: List[GroupShard]) -> List[Connection]:
        """Ship nothing: serial drains run in :meth:`drain`."""
        return []

    def drain(self, shards: List[GroupShard]) -> List[Tuple[int, DrainOutput]]:
        """Drain each shard; return ``[(shard_id, (results, stats))]``."""
        return [(shard.shard_id, shard.process_pending()) for shard in shards]

    def close(self) -> None:
        """No resources to release."""
