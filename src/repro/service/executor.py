"""Executor backends: who builds shard state, and how drains run on it.

Both backends build one :class:`~repro.service.shard.GroupShard` per
:class:`~repro.service.shard.ShardSpec` with
:meth:`GroupShard.from_spec`, at construction, and obey the same drain
contract: given the coordinator's queues that hold requests, run each
queue's requests through its shard's :meth:`GroupShard.process_pending`
exactly once, never running the same shard from two workers, and
return ``[(shard_id, (results, stats))]`` in ascending shard id.
Because one drain of one shard is a single task, per-shard
serialization is structural -- no locks needed.

A drain has two halves.  ``dispatch(queues)`` ships work without
waiting and returns the pipes whose replies are outstanding;
``drain(queues)`` ships whatever is left and collects every result.  A
caller that must not block (the wire server's event loop) waits for the
returned pipes to become readable in between.

* :class:`SerialExecutor` (backend name ``serial``) -- owns its shards
  in process and runs them in the caller, ascending shard id.  The
  reference backend: zero overhead, fully deterministic scheduling.  It
  has no pipes: ``dispatch`` ships nothing and the whole drain is CPU
  work in ``drain``.
* :class:`~repro.service.resident.ResidentProcessExecutor` (backend
  name ``resident``) -- long-lived workers build and own their shards,
  only pending batches and verdicts cross the pipe: O(batch) IPC per
  drain.  See :mod:`repro.service.resident`.

Both backends produce identical verdict streams for identical inputs
(the determinism and parity tests pin this).
"""

from __future__ import annotations

from multiprocessing.connection import Connection
from typing import List, Sequence, Tuple

from repro.service.shard import GroupShard, ShardQueue, ShardSpec
from repro.service.shard import ShardResult, ShardStats

__all__ = ["SerialExecutor"]

#: One shard's drain output.
DrainOutput = Tuple[List[ShardResult], ShardStats]


class SerialExecutor:
    """Own every shard in process; drain them in the calling thread."""

    name = "serial"

    def __init__(self, specs: Sequence[ShardSpec]):
        self._shards = {spec.shard_id: GroupShard.from_spec(spec) for spec in specs}

    def dispatch(self, queues: List[ShardQueue]) -> List[Connection]:
        """Ship nothing: serial drains run in :meth:`drain`."""
        return []

    def drain(self, queues: List[ShardQueue]) -> List[Tuple[int, DrainOutput]]:
        """Drain each queue into its shard; return ``[(shard_id, output)]``."""
        return [
            (
                queue.shard_id,
                self._shards[queue.shard_id].process_pending(queue.take_pending()),
            )
            for queue in queues
        ]

    def close(self) -> None:
        """No resources to release."""
