"""Executor backends: how shard drains are scheduled onto hardware.

Both backends obey the same contract: given the shards that currently
have pending work, run each shard's :meth:`GroupShard.process_pending`
exactly once, never running the same shard from two workers, and return
``{shard_id: (results, stats)}``.  Because one drain of one shard is a
single task, per-shard serialization is structural -- no locks needed.

* :class:`SerialExecutor` (backend name ``serial``) -- runs shards
  in-caller, ascending shard id.  The reference backend: zero overhead,
  fully deterministic scheduling.
* :class:`~repro.service.resident.ResidentProcessExecutor` (backend
  name ``resident``) -- long-lived workers own their shards' state, only
  pending batches and verdicts cross the pipe: O(batch) IPC per drain.
  See :mod:`repro.service.resident`.

Both backends produce identical verdict streams for identical inputs
(the determinism and parity tests pin this).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.service.shard import GroupShard, ShardResult, ShardStats

__all__ = ["SerialExecutor"]

#: One shard's drain output.
DrainOutput = Tuple[List[ShardResult], ShardStats]


class SerialExecutor:
    """Run busy shards one after another in the calling thread."""

    name = "serial"

    def drain(self, shards: List[GroupShard]) -> Dict[int, DrainOutput]:
        """Drain each shard; return ``{shard_id: (results, stats)}``."""
        return {shard.shard_id: shard.process_pending() for shard in shards}

    def close(self) -> None:
        """No resources to release."""
