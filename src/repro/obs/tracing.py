"""Per-request span tracing with a bounded in-memory trace store.

A *trace* is every span recorded under one trace ID — usually one request's
journey through :class:`~repro.serving.service.LatencyService` (queue-wait,
coalesce/memo-hit/stacked-simulate/simulate, fulfill).  The client supplies
the trace ID on :class:`~repro.serving.api.LatencyRequest` (or the
``X-Trace-Id`` HTTP header) so its own trace continues inside the service;
requests without one are keyed by their integer ticket ID, so
``GET /v1/trace/<ticket-id>`` works for every fulfilled request either way.

Design constraints, in order:

1. **Hot-path cost.**  The warm serving path fulfills a request in ~15 µs;
   tracing rides it at well under a microsecond by storing one flat tuple
   per request, a whole dispatcher batch under one lock
   (:meth:`Tracer.record_deferred`).  Span tuples, span IDs, dataclasses and
   trees are materialized only at read time — the read path is an HTTP
   endpoint, not the dispatcher.
2. **Bounded memory.**  At most ``max_traces`` traces are held (FIFO
   eviction) and at most ``max_spans_per_trace`` spans accumulate under one
   ID; overflow spans are counted-and-dropped, never grown.
3. **No-op when off.**  ``Tracer(enabled=False)`` (or ``tracer=None`` on the
   service) short-circuits every record call before any allocation.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

__all__ = ["Span", "SpanBatch", "Tracer", "new_trace_id"]

#: Trace keys: client-supplied strings, or int ticket IDs for auto-keyed
#: requests (never formatted on the hot path).
TraceKey = Union[str, int]

#: One span inside a :meth:`Tracer.record_batch` call:
#: ``(name, start_seconds, end_seconds, attributes-or-None)``.
SpanBatch = Tuple[Tuple[str, float, float, Optional[Mapping[str, Any]]], ...]


def new_trace_id() -> str:
    """A fresh 32-hex-char trace ID (for clients that want one made up)."""
    return uuid.uuid4().hex


@dataclass(frozen=True)
class Span:
    """One timed operation inside a trace (materialized at read time)."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start_seconds: float
    end_seconds: float
    attributes: Mapping[str, Any] = field(default_factory=dict)

    @property
    def duration_seconds(self) -> float:
        return self.end_seconds - self.start_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_seconds": self.start_seconds,
            "end_seconds": self.end_seconds,
            "duration_seconds": self.duration_seconds,
            "attributes": dict(self.attributes),
        }


class _SpanHandle:
    """What :meth:`Tracer.span` yields: identity plus an attribute bag."""

    __slots__ = ("trace_id", "span_id", "attributes")

    def __init__(self, trace_id: TraceKey, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id
        self.attributes: Dict[str, Any] = {}


class Tracer:
    """Bounded trace store; every record call is cheap or a no-op.

    Internal storage per trace is one ``[span_count, *entries]`` list where
    an entry is a raw batch (from :meth:`record_batch` — span IDs assigned
    lazily at read), a deferred entry (from :meth:`record_deferred` —
    expanded into a raw batch at read) or an explicit span tuple (from
    :meth:`record_span`, which allocates an ID eagerly so callers can nest
    under it).
    """

    def __init__(
        self,
        enabled: bool = True,
        max_traces: int = 1024,
        max_spans_per_trace: int = 512,
    ):
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        if max_spans_per_trace < 1:
            raise ValueError("max_spans_per_trace must be >= 1")
        self.enabled = enabled
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self._lock = threading.Lock()
        self._traces: Dict[TraceKey, list] = {}
        #: Trace keys in first-record order, for FIFO eviction.
        self._order: "deque[TraceKey]" = deque()
        self._ids = itertools.count(1)
        self._dropped_spans = 0
        self._evicted_traces = 0

    # -- recording ---------------------------------------------------------
    def record_batch(self, trace_key: TraceKey, batch: SpanBatch) -> None:
        """Append one request's spans in a single lock acquisition.

        ``batch[0]`` is the root span; every later entry becomes its child.
        The batch must be a pre-built tuple — the whole point is that the
        hot path does no per-span work here.
        """
        if not self.enabled:
            return
        with self._lock:
            self._append(trace_key, batch, len(batch))

    def record_deferred(self, entries: Iterable[tuple], spans: int) -> None:
        """Record many requests' compact entries under one lock acquisition.

        Each entry is a flat ``(expand, trace_key, *fields)`` tuple, where
        ``expand(entry)`` returns the entry's :data:`SpanBatch` of ``spans``
        spans; it runs only when the trace is read.  The hot path thus keeps
        one tuple per request instead of one per span — the serving
        dispatcher records a whole fulfilled batch this way.
        """
        if not self.enabled:
            return
        with self._lock:
            for entry in entries:
                self._append(entry[1], entry, spans)

    def _append(self, trace_key: TraceKey, entry: tuple, spans: int) -> None:
        """Store one entry of ``spans`` spans (caller holds the lock)."""
        bucket = self._traces.get(trace_key)
        if bucket is None:
            if len(self._traces) >= self.max_traces:
                del self._traces[self._order.popleft()]
                self._evicted_traces += 1
            self._traces[trace_key] = [spans, entry]
            self._order.append(trace_key)
        elif bucket[0] < self.max_spans_per_trace:
            bucket[0] += spans
            bucket.append(entry)
        else:
            self._dropped_spans += spans

    def record_span(
        self,
        trace_key: TraceKey,
        name: str,
        start_seconds: float,
        end_seconds: float,
        parent_id: Optional[str] = None,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> Optional[str]:
        """Record one explicit span; returns its span ID (None when disabled)."""
        if not self.enabled:
            return None
        span_id = f"{next(self._ids):012x}"
        entry = (span_id, parent_id, name, start_seconds, end_seconds, attributes)
        with self._lock:
            self._append(trace_key, entry, 1)
        return span_id

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: Optional[TraceKey] = None,
        parent_id: Optional[str] = None,
    ):
        """Time a block as one span: ``with tracer.span("prefetch") as s:``."""
        handle = _SpanHandle(
            trace_id if trace_id is not None else new_trace_id(),
            f"{next(self._ids):012x}" if self.enabled else "",
        )
        start = time.perf_counter()
        try:
            yield handle
        finally:
            if self.enabled:
                end = time.perf_counter()
                entry = (
                    handle.span_id,
                    parent_id,
                    name,
                    start,
                    end,
                    dict(handle.attributes) or None,
                )
                with self._lock:
                    self._append(handle.trace_id, entry, 1)

    # -- reads -------------------------------------------------------------
    def find(self, raw_key: str) -> Optional[TraceKey]:
        """Resolve an over-the-wire key: exact string, else integer form."""
        with self._lock:
            if raw_key in self._traces:
                return raw_key
            if raw_key.lstrip("-").isdigit() and int(raw_key) in self._traces:
                return int(raw_key)
        return None

    def trace(self, trace_key: TraceKey) -> Tuple[Span, ...]:
        """Materialize every span recorded under ``trace_key`` (may be empty)."""
        with self._lock:
            bucket = self._traces.get(trace_key)
            entries = bucket[1:] if bucket is not None else []
        spans: List[Span] = []
        trace_str = str(trace_key)
        lazy = itertools.count(1)
        for entry in entries:
            if callable(entry[0]):  # deferred entry
                entry = entry[0](entry)
            if entry and isinstance(entry[0], tuple):  # raw batch
                root_id = f"b{next(lazy):08x}"
                for i, (name, start, end, attrs) in enumerate(entry):
                    spans.append(
                        Span(
                            trace_id=trace_str,
                            span_id=root_id if i == 0 else f"{root_id}.{i}",
                            parent_id=None if i == 0 else root_id,
                            name=name,
                            start_seconds=start,
                            end_seconds=end,
                            attributes=dict(attrs) if attrs else {},
                        )
                    )
            else:  # explicit span tuple
                span_id, parent_id, name, start, end, attrs = entry
                spans.append(
                    Span(
                        trace_id=trace_str,
                        span_id=span_id,
                        parent_id=parent_id,
                        name=name,
                        start_seconds=start,
                        end_seconds=end,
                        attributes=dict(attrs) if attrs else {},
                    )
                )
        return tuple(spans)

    def trace_tree(self, trace_key: TraceKey) -> List[Dict[str, Any]]:
        """Spans nested parent -> children (roots listed in record order)."""
        spans = self.trace(trace_key)
        nodes = {span.span_id: {**span.to_dict(), "children": []} for span in spans}
        roots: List[Dict[str, Any]] = []
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id else None
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        return roots

    def to_dict(self, trace_key: TraceKey) -> Dict[str, Any]:
        """JSON payload for ``GET /v1/trace/<id>``."""
        spans = self.trace(trace_key)
        return {
            "trace_id": str(trace_key),
            "span_count": len(spans),
            "spans": [span.to_dict() for span in spans],
            "tree": self.trace_tree(trace_key),
        }

    def trace_keys(self) -> Tuple[TraceKey, ...]:
        with self._lock:
            return tuple(self._traces)

    @property
    def dropped_spans(self) -> int:
        return self._dropped_spans

    @property
    def evicted_traces(self) -> int:
        return self._evicted_traces

    def __len__(self) -> int:
        return len(self._traces)

    def __contains__(self, trace_key: TraceKey) -> bool:
        return trace_key in self._traces

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._order.clear()
