"""Resident shard workers: each worker process owns its shards' state.

The ``resident`` executor backend builds shard state inside worker
processes, once, at startup, so that a drain costs O(batch) IPC, not
O(state) -- a dense group's mutable ``C``/``H`` int64 tables alone
reach 16 MiB at ``kernel_cap=20``, and none of it crosses a process
boundary or exists in the coordinator:

* Each long-lived worker process permanently owns a fixed set of
  shards, built in-worker once at startup, each from its
  :class:`~repro.service.shard.ShardSpec` (small, static: group
  structure, aggregates, and the shard's share of the journal) by
  :meth:`~repro.service.shard.GroupShard.from_spec` -- the one build
  path, which the serial executor runs in process.  The coordinator
  keeps only each shard's :class:`~repro.service.shard.ShardQueue`.
* A drain ships only the pending :class:`ShardRequest` batches, encoded
  as compact tuples over a per-worker pipe, and gets back
  :class:`ShardResult` rows plus :class:`ShardStats` -- per-drain IPC
  is O(batch size) regardless of group size (the benchmark's
  ``bytes_shipped_per_drain`` counter pins this).

Ownership and ordering contract (see DESIGN.md "Serving architecture"):

* A shard is mutated by exactly one worker, always from its message
  loop -- per-shard serialization is structural, as in the serial
  backend, so verdict streams are byte-identical to serial.
* Drains are two-phase, and the phases are separate calls:
  :meth:`~ResidentProcessExecutor.dispatch` sends every involved worker
  its batch and returns the workers' pipes, and
  :meth:`~ResidentProcessExecutor.drain` collects every reply, sending
  first whatever was not yet sent.  Workers run concurrently, and a
  caller on an event loop waits for the pipes to become readable between
  the two calls, so it never blocks in the receive.
* On any worker error the coordinator requeues the taken requests (its
  queues return to exactly the pre-dispatch state), marks the
  executor failed -- the erroring worker's state can no longer be
  trusted -- and raises :class:`~repro.errors.ServiceError` carrying the
  worker traceback.
* Shutdown: workers exit on the ``close`` message, or on end-of-file
  once the coordinator's ends of their pipes are closed (each worker
  first closes the copies of those ends it inherited).
"""

from __future__ import annotations

import pickle
import threading
import traceback
from multiprocessing import Pipe, Process
from multiprocessing.connection import Connection
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.service.executor import DrainOutput
from repro.service.shard import (
    GroupShard,
    ShardQueue,
    ShardRequest,
    ShardResult,
    ShardSpec,
    ShardStats,
)

__all__ = [
    "ResidentProcessExecutor",
    "decode_request",
    "decode_result",
    "decode_stats",
    "encode_request",
    "encode_result",
    "encode_stats",
]

#: Wire rows are plain tuples; pickle protocol pinned for stable framing.
_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Compact wire aliases (documentation only -- everything is tuples).
RequestRow = Tuple[int, str, int, Tuple[int, ...], int, float, float]
ResultRow = Tuple[
    int, str, int, Tuple[int, ...], int, bool, object, int,
    float, float, float, float,
]


# ----------------------------------------------------------------------
# Wire format: requests / results / stats as compact tuples
# ----------------------------------------------------------------------
def encode_request(request: ShardRequest) -> RequestRow:
    """Flatten one pending request into its wire tuple."""
    return (
        request.seq,
        request.usage_id,
        request.group_id,
        request.members,
        request.count,
        request.received,
        request.enqueued,
    )


def decode_request(row: RequestRow) -> ShardRequest:
    """Rebuild a :class:`ShardRequest` from its wire tuple."""
    return ShardRequest(
        seq=row[0],
        usage_id=row[1],
        group_id=row[2],
        members=tuple(row[3]),
        count=row[4],
        received=row[5],
        enqueued=row[6],
    )


def encode_result(result: ShardResult) -> Tuple[object, ...]:
    """Flatten one verdict into its wire tuple."""
    return (
        result.seq,
        result.usage_id,
        result.group_id,
        result.members,
        result.count,
        result.accepted,
        result.reason,
        result.headroom,
        result.received,
        result.enqueued,
        result.dequeued,
        result.decided,
    )


def decode_result(row: Sequence[object]) -> ShardResult:
    """Rebuild a :class:`ShardResult` from its wire tuple."""
    return ShardResult(*row)  # type: ignore[arg-type]


def encode_stats(stats: ShardStats) -> Tuple[object, ...]:
    """Flatten one drain's :class:`ShardStats` into its wire tuple.

    The counters travel as scalars and ``batch_timings`` -- already plain
    tuples -- as is, so the payload stays deterministic and O(batch).
    """
    return (
        stats.processed,
        stats.batches,
        stats.equations_checked,
        stats.audit_violations,
        stats.kernel_fast_path_hits,
        stats.kernel_fallback,
        tuple(stats.batch_timings),
    )


def decode_stats(row: Sequence[object]) -> ShardStats:
    """Rebuild :class:`ShardStats` from its wire tuple."""
    return ShardStats(
        processed=row[0],  # type: ignore[arg-type]
        batches=row[1],  # type: ignore[arg-type]
        equations_checked=row[2],  # type: ignore[arg-type]
        audit_violations=row[3],  # type: ignore[arg-type]
        kernel_fast_path_hits=row[4],  # type: ignore[arg-type]
        kernel_fallback=row[5],  # type: ignore[arg-type]
        batch_timings=list(row[6]),  # type: ignore[call-overload]
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(
    conn: Connection,
    specs: Sequence[ShardSpec],
    coordinator_ends: Sequence[Connection],
) -> None:
    """Message loop of one resident worker process.

    Closes the coordinator's pipe ends it inherited, builds its shards
    from the specs, acknowledges readiness, then serves drains until the
    ``close`` message or a dropped pipe.  Every reply is one pickled
    tuple; errors travel back as ``("error", traceback)`` so the
    coordinator can raise them as :class:`ServiceError`.
    """
    # A forked worker holds copies of the coordinator's end of its own
    # pipe and of every earlier worker's; while any copy is open, that
    # pipe never reaches end-of-file when the coordinator goes away.
    for end in coordinator_ends:
        end.close()
    shards: Dict[int, GroupShard] = {}
    try:
        try:
            for spec in specs:
                shards[spec.shard_id] = GroupShard.from_spec(spec)
        except BaseException:
            conn.send_bytes(
                pickle.dumps(("error", traceback.format_exc()), _PROTOCOL)
            )
            return
        conn.send_bytes(pickle.dumps(("ready", sorted(shards)), _PROTOCOL))
        while True:
            try:
                payload = conn.recv_bytes()
            except (EOFError, OSError):
                break  # coordinator vanished; daemon exit
            message = pickle.loads(payload)
            kind = message[0]
            if kind == "close":
                conn.send_bytes(pickle.dumps(("closed",), _PROTOCOL))
                break
            if kind == "drain":
                try:
                    sections: List[Tuple[int, object, object]] = []
                    for shard_id, rows in message[1]:
                        results, stats = shards[shard_id].process_pending(
                            [decode_request(row) for row in rows]
                        )
                        sections.append(
                            (
                                shard_id,
                                tuple(encode_result(r) for r in results),
                                encode_stats(stats),
                            )
                        )
                    reply = pickle.dumps(("done", sections), _PROTOCOL)
                except BaseException:
                    reply = pickle.dumps(
                        ("error", traceback.format_exc()), _PROTOCOL
                    )
                conn.send_bytes(reply)
                continue
            conn.send_bytes(
                pickle.dumps(
                    ("error", f"unknown message kind {kind!r}"), _PROTOCOL
                )
            )
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class ResidentProcessExecutor:
    """Drain shards on long-lived worker processes that own their state.

    Construction ships each worker its :class:`ShardSpec` set exactly
    once (fork inherits it; spawn and forkserver pickle it -- either
    way, specs are O(config + journal share), never live kernel tables),
    and each worker builds its shards from them; it blocks until every
    worker acknowledges readiness.  Thereafter :meth:`dispatch` and
    :meth:`drain` empty the coordinator's queues and move only pending
    batches and verdicts.  ``on_fail``, when given, is
    called once, when a drain fails and the executor stops accepting
    work.
    """

    name = "resident"

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        max_workers: int,
        on_fail: Optional[Callable[[], None]] = None,
    ):
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        if not specs:
            raise ServiceError("resident executor needs at least one shard spec")
        self._lock = threading.Lock()
        workers = min(max_workers, len(specs))
        #: shard_id -> worker index (round-robin over ascending shard id).
        self._owner: Dict[int, int] = {
            spec.shard_id: position % workers
            for position, spec in enumerate(
                sorted(specs, key=lambda spec: spec.shard_id)
            )
        }
        assignments: List[List[ShardSpec]] = [[] for _ in range(workers)]
        for spec in sorted(specs, key=lambda spec: spec.shard_id):
            assignments[self._owner[spec.shard_id]].append(spec)
        self._conns: List[Connection] = []
        self._procs: List[Process] = []
        self._failed = False
        self._closed = False
        self._on_fail = on_fail
        #: Batches sent and not yet collected, one ``(worker, [(queue,
        #: taken requests)])`` entry per message, in send order (a worker
        #: answers its messages in the order it received them).
        self._in_flight: List[
            Tuple[int, List[Tuple[ShardQueue, List[ShardRequest]]]]
        ] = []
        #: IPC bytes of the drain in progress (sends so far + replies).
        self._shipped = 0
        self._drains = 0
        self._bytes_shipped_total = 0
        self._last_drain_bytes = 0
        try:
            for worker_specs in assignments:
                parent_conn, child_conn = Pipe()
                proc = Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        tuple(worker_specs),
                        (*self._conns, parent_conn),
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
            for conn in self._conns:
                ack = self._recv(conn)
                if ack[0] != "ready":
                    raise ServiceError(
                        f"resident worker failed to start: {ack[1]}"
                    )
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Return the number of resident worker processes."""
        return len(self._procs)

    @property
    def drains(self) -> int:
        """Return how many drains this executor has served."""
        return self._drains

    @property
    def last_drain_bytes(self) -> int:
        """Return the IPC bytes (requests out + replies in) of the most
        recent drain -- the O(batch) quantity the benchmark records."""
        return self._last_drain_bytes

    @property
    def bytes_shipped_total(self) -> int:
        """Return cumulative IPC bytes across all drains."""
        return self._bytes_shipped_total

    # ------------------------------------------------------------------
    # Contract methods
    # ------------------------------------------------------------------
    def dispatch(self, queues: List[ShardQueue]) -> List[Connection]:
        """Send each queue's pending batch to its owning worker; return
        the pipes of every worker with a reply outstanding.

        The first phase of :meth:`drain`, callable on its own so that an
        event loop can wait for the returned pipes to become readable
        (``loop.add_reader(pipe.fileno(), ...)``) before :meth:`drain`
        collects replies that are already there.  With nothing to send,
        nothing is checked: the pipes of earlier sends (or ``[]``) are
        returned.
        """
        with self._lock:
            if queues:
                self._send_locked(queues)
            workers = sorted({worker for worker, _sections in self._in_flight})
            return [self._conns[worker] for worker in workers]

    def drain(self, queues: List[ShardQueue]) -> List[Tuple[int, DrainOutput]]:
        """Send what :meth:`dispatch` has not, then collect every reply.

        Returns ``[(shard_id, (results, stats))]`` in ascending shard id,
        one entry per shard per message (a shard answers twice when more
        requests reached it between :meth:`dispatch` and this call).  All
        sends happen before any receive, so workers overlap.  On any
        failure the taken requests are requeued (the queues return to
        exactly their pre-dispatch state) and the executor is marked
        failed -- worker state may have diverged and no further drains
        are accepted.
        """
        with self._lock:
            self._send_locked(queues)
            outputs: List[Tuple[int, DrainOutput]] = []
            try:
                for worker, _sections in self._in_flight:
                    reply, size = self._recv_sized(self._conns[worker])
                    self._shipped += size
                    if reply[0] != "done":
                        raise ServiceError(
                            f"resident worker {worker} drain failed: {reply[1]}"
                        )
                    for shard_id, result_rows, stats_row in reply[1]:
                        results = [decode_result(row) for row in result_rows]
                        outputs.append((shard_id, (results, decode_stats(stats_row))))
            except BaseException:
                self._fail_locked()
                raise
            self._in_flight.clear()
            self._drains += 1
            self._last_drain_bytes = self._shipped
            self._bytes_shipped_total += self._shipped
            self._shipped = 0
            # Stable: a shard's two answers keep their message order.
            outputs.sort(key=lambda output: output[0])
            return outputs

    def _send_locked(self, queues: List[ShardQueue]) -> None:
        """Take and send the pending batch of every queue in ``queues``
        (one message per owning worker); the caller holds the lock."""
        if self._failed or self._closed:
            raise ServiceError(
                "resident executor is closed or failed; restart the service"
            )
        by_worker: Dict[int, List[ShardQueue]] = {}
        for queue in queues:
            worker = self._owner.get(queue.shard_id)
            if worker is None:
                raise ServiceError(
                    f"shard {queue.shard_id} has no resident worker "
                    f"(executor built for shards {sorted(self._owner)})"
                )
            by_worker.setdefault(worker, []).append(queue)
        try:
            for worker, owned in sorted(by_worker.items()):
                sections = [(queue, queue.take_pending()) for queue in owned]
                self._in_flight.append((worker, sections))
                batches = [
                    (queue.shard_id, tuple(map(encode_request, rows)))
                    for queue, rows in sections
                ]
                payload = pickle.dumps(("drain", batches), _PROTOCOL)
                self._shipped += len(payload)
                self._send(self._conns[worker], payload)
        except BaseException:
            self._fail_locked()
            raise

    def _fail_locked(self) -> None:
        """Requeue every request taken by an uncollected send, newest
        message first so each queue regains its original order, and
        refuse further drains; the caller holds the lock."""
        self._failed = True
        if self._on_fail is not None:
            self._on_fail()
        for _worker, sections in reversed(self._in_flight):
            for queue, rows in sections:
                queue.requeue(rows)
        self._in_flight.clear()
        self._shipped = 0

    def close(self) -> None:
        """Stop every worker: polite ``close`` message, join, then
        terminate stragglers.  Safe to call repeatedly."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            payload = pickle.dumps(("close",), _PROTOCOL)
            for conn in self._conns:
                try:
                    conn.send_bytes(payload)
                except (BrokenPipeError, OSError):
                    pass
            for conn in self._conns:
                try:
                    if conn.poll(1.0):
                        conn.recv_bytes()
                except (EOFError, OSError):
                    pass
            for proc in self._procs:
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                    proc.join(timeout=1.0)
            for conn in self._conns:
                conn.close()

    # ------------------------------------------------------------------
    # Pipe helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _send(conn: Connection, payload: bytes) -> None:
        try:
            conn.send_bytes(payload)
        except (BrokenPipeError, OSError) as exc:
            raise ServiceError(f"resident worker pipe broken: {exc}") from exc

    @classmethod
    def _recv(cls, conn: Connection) -> Tuple[object, ...]:
        return cls._recv_sized(conn)[0]

    @staticmethod
    def _recv_sized(conn: Connection) -> Tuple[Tuple[object, ...], int]:
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise ServiceError(
                f"resident worker died mid-drain: {exc}"
            ) from exc
        return pickle.loads(payload), len(payload)
