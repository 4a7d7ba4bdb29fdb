"""Cross-process distributed tracing: context carriers and assembly.

The wire layer (:mod:`repro.net`) crosses a real process boundary, so a
single admission request produces spans in *two* journals: the client's
(``wire_request`` spans emitted by :class:`repro.net.client.AdmissionClient`)
and the server's (``request``/``match``/``queue_wait``/``admission`` spans
emitted by :class:`repro.service.ValidationService`).  This module holds
the pieces that stitch them back together:

* :class:`TraceContext` -- the (trace id, parent span id) pair carried in
  REQUEST frames.  It duck-types as a :class:`~repro.obs.trace.Tracer`
  parent, so the server can hang its ``request`` span directly under the
  client's wire span.
* :class:`ServerTiming` -- the compact per-request phase breakdown
  (queue wait / match / admission / revalidate, in microseconds) echoed
  in RESPONSE frames, plus shard id and kernel name.
* :func:`assemble` -- merge the two journals into one span forest with
  collision-free ids and clock-skew alignment, ready for the existing
  ASCII/JSON exporters.

Span and trace ids are deterministic seeded counters (see
:mod:`repro.obs.trace`), so two independent processes can emit the *same*
ids.  The assembler therefore namespaces ids by origin (``c:`` client,
``s:`` server) while preserving the shared trace ids that make a request
one trace across the boundary.

Both journals are recorded against each process's own monotonic clock,
whose zero points are unrelated.  For every matched pair (client wire
span <-> the server request span it parents) the midpoint rule

    ``offset = client.start + (client.duration - server.duration) / 2
    - server.start``

estimates the clock offset: it assumes the wire delay is split evenly
between the outbound and inbound halves, exactly like NTP's round-trip
estimator.  The median over all matched pairs is applied to every server
span so the merged timeline is causally plausible (server spans nest
inside the client spans that caused them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.obs.export import render_span_tree
from repro.obs.trace import SpanRecord

__all__ = [
    "TIMING_PHASES",
    "TraceContext",
    "ServerTiming",
    "AssembledTrace",
    "assemble",
    "assemble_files",
    "validate_trace_id",
]

#: The four phase fields of a :class:`ServerTiming`, in pipeline order.
TIMING_PHASES = ("queue_us", "match_us", "admission_us", "revalidate_us")

#: Maximum accepted length of a trace/span id on the wire.
MAX_ID_LENGTH = 64

_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789._:-"
)


def validate_trace_id(value: object, *, label: str = "id") -> str:
    """Return ``value`` if it is a well-formed wire trace/span id.

    Ids must be non-empty strings of at most :data:`MAX_ID_LENGTH`
    characters drawn from ``[A-Za-z0-9._:-]``; anything else raises
    :class:`~repro.errors.ProtocolError` so corrupt frames are rejected
    at the codec layer instead of poisoning journals.
    """
    if not isinstance(value, str):
        raise ProtocolError(f"trace {label} must be a string, got {type(value).__name__}")
    if not value:
        raise ProtocolError(f"trace {label} must be non-empty")
    if len(value) > MAX_ID_LENGTH:
        raise ProtocolError(
            f"trace {label} exceeds {MAX_ID_LENGTH} characters ({len(value)})"
        )
    if not set(value) <= _ID_CHARS:
        raise ProtocolError(f"trace {label} contains invalid characters: {value!r}")
    return value


@dataclass(frozen=True)
class TraceContext:
    """Wire representation of a span's identity, propagated in REQUEST
    frames.

    Exposes ``trace_id``/``span_id`` attributes, which is exactly the
    duck-typed parent contract of :meth:`repro.obs.trace.Tracer.start_span`
    -- pass a ``TraceContext`` as ``parent=`` and the new span joins the
    remote trace.

    Examples
    --------
    >>> ctx = TraceContext("t00000000", "s00000001")
    >>> ctx.trace_id, ctx.span_id
    ('t00000000', 's00000001')
    """

    trace_id: str
    span_id: str

    def __post_init__(self) -> None:
        validate_trace_id(self.trace_id, label="trace_id")
        validate_trace_id(self.span_id, label="span_id")


@dataclass(frozen=True)
class ServerTiming:
    """Per-request server-side phase breakdown echoed in RESPONSE frames.

    All phases are integer microseconds; ``shard_id`` is ``-1`` for
    requests rejected before reaching a shard (e.g. instance-cap
    rejections, which never queue).  ``revalidate_us`` is not a share
    of the batch pass: it is the full time the request's group spent
    revalidating during the drain that completed the request, which is
    how long its verdict waited for revalidation.
    """

    queue_us: int
    match_us: int
    admission_us: int
    revalidate_us: int
    shard_id: int
    kernel: str

    @property
    def total_us(self) -> int:
        """Sum of all measured server phases (microseconds)."""
        return self.queue_us + self.match_us + self.admission_us + self.revalidate_us

    def to_dict(self) -> Dict[str, object]:
        """Return the JSON payload shape used on the wire."""
        return {
            "queue_us": self.queue_us,
            "match_us": self.match_us,
            "admission_us": self.admission_us,
            "revalidate_us": self.revalidate_us,
            "shard_id": self.shard_id,
            "kernel": self.kernel,
        }


@dataclass
class AssembledTrace:
    """Result of merging a client and a server journal.

    ``records`` is the merged, id-namespaced, clock-aligned span list
    (sorted by ``(trace_id, start, span_id)``), suitable for
    :func:`repro.obs.export.render_span_tree`.
    """

    records: List[SpanRecord] = field(default_factory=list)
    clock_offset: float = 0.0
    matched_pairs: int = 0
    cross_traces: int = 0
    client_spans: int = 0
    server_spans: int = 0

    def render(self, *, max_traces: Optional[int] = None) -> str:
        """ASCII span forest of the merged journals."""
        header = (
            f"assembled {self.client_spans} client + {self.server_spans} server "
            f"spans; {self.cross_traces} cross-process trace(s), "
            f"{self.matched_pairs} matched pair(s), "
            f"clock offset {self.clock_offset * 1e3:+.3f} ms"
        )
        tree = render_span_tree(self.records, max_traces=max_traces)
        return header + "\n\n" + tree

    def to_json(self) -> Dict[str, object]:
        """JSON payload: summary plus every merged span record."""
        return {
            "clock_offset": self.clock_offset,
            "matched_pairs": self.matched_pairs,
            "cross_traces": self.cross_traces,
            "client_spans": self.client_spans,
            "server_spans": self.server_spans,
            "spans": [record.to_dict() for record in self.records],
        }


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _is_remote(record: SpanRecord) -> bool:
    """Whether this server span was parented under a *remote* context.

    Both processes draw ids from identical seeded counters, so a parent
    id existing in the other journal proves nothing -- the service marks
    remotely-parented spans with a ``remote_parent`` attribute at submit
    time, and that marker is the assembler's source of truth.
    """
    return bool(record.attrs.get("remote_parent")) and record.parent_id is not None


def _matched_pairs(
    client_records: Sequence[SpanRecord],
    server_records: Sequence[SpanRecord],
) -> List[Tuple[SpanRecord, SpanRecord]]:
    """Pairs (client wire span, server span remotely parented under it)."""
    client_by_id = {record.span_id: record for record in client_records}
    pairs: List[Tuple[SpanRecord, SpanRecord]] = []
    for record in server_records:
        if not _is_remote(record):
            continue
        client_span = client_by_id.get(record.parent_id)
        if client_span is not None and client_span.trace_id == record.trace_id:
            pairs.append((client_span, record))
    return pairs


def estimate_clock_offset(
    client_records: Sequence[SpanRecord],
    server_records: Sequence[SpanRecord],
) -> Tuple[float, int]:
    """Median midpoint-rule offset to add to server timestamps.

    Returns ``(offset_seconds, matched_pair_count)``; the offset is 0.0
    when no server span is remotely parented under a client span.
    """
    pairs = _matched_pairs(client_records, server_records)
    if not pairs:
        return 0.0, 0
    offsets = [
        client_span.start
        + (client_span.duration - server_span.duration) / 2.0
        - server_span.start
        for client_span, server_span in pairs
    ]
    return _median(offsets), len(pairs)


def _namespace(prefix: str, span_id: str) -> str:
    return f"{prefix}{span_id}"


def assemble(
    client_records: Sequence[SpanRecord],
    server_records: Sequence[SpanRecord],
    *,
    align_clocks: bool = True,
) -> AssembledTrace:
    """Merge client and server span journals into one coherent forest.

    Span ids are namespaced by origin (``c:`` / ``s:``) because both
    tracers draw from deterministic counters and may emit identical ids.
    Cross-process parent links (server spans the service marked
    ``remote_parent`` at submit time) are rewritten to the client
    namespace, so the server's request subtree hangs under the client's
    wire span.  Trace ids are kept shared exactly for the server
    subtrees rooted at a remote-parented span (those *are* the
    cross-process traces) and namespaced ``s:`` otherwise, so the
    server's internal root traces (drain batches and friends) cannot
    collide with client trace ids -- even when the seeded counters make
    them textually equal.

    Server timestamps are shifted by the median midpoint-rule clock
    offset (see module docstring) when ``align_clocks`` is true.
    """
    client_ids = {record.span_id for record in client_records}
    server_ids = {record.span_id for record in server_records}
    # Server spans genuinely part of a propagated trace: the
    # remote-parented spans plus their server-side descendants.  Trace
    # ids are compared per *subtree*, not per id -- a server-local root
    # trace can textually collide with a client trace id (both counters
    # start at zero) and must stay a separate trace.
    children: Dict[str, List[str]] = {}
    for record in server_records:
        if record.parent_id is not None and not _is_remote(record):
            children.setdefault(record.parent_id, []).append(record.span_id)
    shared_spans: set = set()
    frontier = [
        record.span_id for record in server_records if _is_remote(record)
    ]
    while frontier:
        span_id = frontier.pop()
        if span_id in shared_spans:
            continue
        shared_spans.add(span_id)
        frontier.extend(children.get(span_id, ()))

    offset = 0.0
    matched = 0
    if align_clocks:
        offset, matched = estimate_clock_offset(client_records, server_records)

    merged: List[SpanRecord] = []
    cross_traces = set()
    for record in client_records:
        parent = record.parent_id
        merged.append(
            SpanRecord(
                trace_id=record.trace_id,
                span_id=_namespace("c:", record.span_id),
                parent_id=(
                    _namespace("c:", parent)
                    if parent is not None and parent in client_ids
                    else parent
                ),
                name=record.name,
                start=record.start,
                duration=record.duration,
                attrs=dict(record.attrs),
            )
        )
    for record in server_records:
        parent = record.parent_id
        if parent is None:
            new_parent: Optional[str] = None
        elif _is_remote(record):
            if parent in client_ids:
                new_parent = _namespace("c:", parent)
                cross_traces.add(record.trace_id)
            else:
                # Remote parent whose client journal is missing: keep
                # the raw id; render_span_tree promotes it to a root.
                new_parent = parent
        elif parent in server_ids:
            new_parent = _namespace("s:", parent)
        else:
            new_parent = parent
        merged.append(
            SpanRecord(
                trace_id=(
                    record.trace_id
                    if record.span_id in shared_spans
                    else _namespace("s:", record.trace_id)
                ),
                span_id=_namespace("s:", record.span_id),
                parent_id=new_parent,
                name=record.name,
                start=record.start + offset,
                duration=record.duration,
                attrs=dict(record.attrs),
            )
        )

    merged.sort(key=lambda record: (record.trace_id, record.start, record.span_id))
    return AssembledTrace(
        records=merged,
        clock_offset=offset,
        matched_pairs=matched,
        cross_traces=len(cross_traces),
        client_spans=len(client_records),
        server_spans=len(server_records),
    )


def assemble_files(
    client_path: str,
    server_path: str,
    *,
    align_clocks: bool = True,
) -> AssembledTrace:
    """Load two trace JSONL journals from disk and :func:`assemble` them."""
    from repro.obs.export import load_trace_jsonl

    return assemble(
        load_trace_jsonl(client_path),
        load_trace_jsonl(server_path),
        align_clocks=align_clocks,
    )
