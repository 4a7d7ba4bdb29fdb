"""The serving layer: concurrent group-sharded license validation.

Turns Theorem 2's group independence into a serving architecture: each
disconnected overlap group is assigned to a shard with a serialized,
bounded work queue; shards drain concurrently under a configurable
executor; admission is batched so each batch pays one incremental
revalidation pass; match results and group tables are cached; and every
decision is accounted in a metrics registry with latency percentiles and
pluggable event hooks.
"""

from repro.errors import ServiceError, ServiceOverloadedError
from repro.service.cache import GroupTables, LRUCache, MatchCache, request_key
from repro.service.config import ServiceConfig
from repro.service.executor import SerialExecutor
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.service import ValidationService
from repro.service.shard import GroupShard, ShardRequest, ShardResult, ShardStats

__all__ = [
    "Counter",
    "Gauge",
    "GroupShard",
    "GroupTables",
    "Histogram",
    "LRUCache",
    "MatchCache",
    "MetricsRegistry",
    "SerialExecutor",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloadedError",
    "ShardRequest",
    "ShardResult",
    "ShardStats",
    "ValidationService",
    "request_key",
]
