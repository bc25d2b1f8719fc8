"""Thread-safe service accounting: hit rates, queue depth, latency histograms.

One :class:`ServiceStats` instance lives inside every
:class:`~repro.serving.service.LatencyService`.  Submission-side counters are
updated under the service lock by client threads; fulfillment-side counters
and the per-backend latency histograms are updated by the dispatcher.  All
reads go through :meth:`ServiceStats.snapshot`, which copies under the lock,
so callers never observe a torn update.

Latency distributions are :class:`repro.obs.metrics.Histogram` families with
fixed exponential buckets — **constant memory per backend** no matter how
many requests flow through (the old per-backend sample reservoirs grew a
2048-deque each and answered percentiles from a sampled window; the
histograms answer from every observation ever made, at bounded-relative-error
bucket resolution with exact min/max edges).  :meth:`ServiceStats.fill_metrics`
contributes everything here to a :class:`~repro.obs.metrics.MetricsRegistry`
for Prometheus exposition (``/metrics?format=prom``).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
)
from .api import BackendServiceStats, RequestLogRecord

#: Bucket ladder for service-latency histograms: 1 µs doubling to ~9 min,
#: wide enough for memo hits and cold multi-minute simulations alike.
SERVICE_LATENCY_BUCKETS = exponential_buckets(start=1e-6, factor=2.0, count=40)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    Explicit edge behavior — cluster reports are built from real serving
    logs of arbitrary size, so the edges are contractual, not accidental:

    * empty input returns ``0.0`` (a report over zero samples reads as zero
      latency, never a crash),
    * a single sample is every percentile of itself,
    * ``q=0`` returns the minimum and ``q=100`` the maximum,
    * ``q`` outside [0, 100] (or NaN) raises ``ValueError`` — a silent
      clamp would mask a caller bug as a plausible latency number.
    """
    q = float(q)
    if math.isnan(q) or not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q!r}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


class ServiceStats:
    """Counters and histograms behind :meth:`LatencyService.capacity_report`.

    ``request_log_limit`` bounds the structured per-request log (oldest
    records fall out FIFO); ``None`` keeps every record — the right setting
    when the log will be exported as a :class:`~repro.cluster.trace.RequestTrace`
    for cluster replay, where a truncated trace would misrepresent the
    traffic.

    The latency histogram family is *private* to this instance (not in the
    process-wide :data:`repro.obs.metrics.REGISTRY`): many services live in
    one test process, and registering each would collide on the metric name.
    :meth:`fill_metrics` contributes it to a caller-supplied registry at
    scrape time instead.
    """

    def __init__(self, request_log_limit: Optional[int] = None) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.errors = 0
        self.coalesced = 0
        self.memo_hits = 0
        self.simulations = 0
        self.batches = 0
        self.busy_seconds = 0.0
        self.queue_depth = 0
        self.peak_queue_depth = 0
        self.timeouts = 0
        self.late_results = 0
        self.stacked_batches = 0
        self.stacked_points = 0
        self._latency = Histogram(
            "repro_serving_request_duration_seconds",
            "Submit-to-fulfillment service time, by backend.",
            labelnames=("backend",),
            buckets=SERVICE_LATENCY_BUCKETS,
        )
        self._backends: Dict[str, Histogram] = {}
        self._request_log: Deque[RequestLogRecord] = deque(maxlen=request_log_limit)

    # ------------------------------------------------------------- submission
    def record_submit(self, coalesced: bool, queue_depth: int) -> None:
        with self._lock:
            self.submitted += 1
            if coalesced:
                self.coalesced += 1
            self.queue_depth = queue_depth
            self.peak_queue_depth = max(self.peak_queue_depth, queue_depth)

    # ------------------------------------------------------------ fulfillment
    def record_batch(self, busy_seconds: float, queue_depth: int) -> None:
        with self._lock:
            self.batches += 1
            self.busy_seconds += float(busy_seconds)
            self.queue_depth = queue_depth

    def record_result(
        self,
        backend: str,
        service_seconds: float,
        error: bool = False,
        memo_hit: bool = False,
    ) -> None:
        with self._lock:
            self.completed += 1
            if error:
                self.errors += 1
            if memo_hit:
                self.memo_hits += 1
            histogram = self._backends.get(backend)
            if histogram is None:
                histogram = self._backends[backend] = self._latency.labels(
                    backend=backend
                )
        histogram.observe(float(service_seconds))

    def record_simulations(self, count: int) -> None:
        with self._lock:
            self.simulations += int(count)

    def record_timeout(self) -> None:
        """A ``result()`` call gave up waiting (the ticket stays claimable)."""
        with self._lock:
            self.timeouts += 1

    def record_late_result(self) -> None:
        """A request completed after every waiter had timed out on it."""
        with self._lock:
            self.late_results += 1

    def record_request(self, record: RequestLogRecord) -> None:
        """Append one fulfilled request to the structured request log."""
        with self._lock:
            self._request_log.append(record)

    def request_log(self) -> Tuple[RequestLogRecord, ...]:
        """Snapshot of the structured request log (fulfillment order)."""
        with self._lock:
            return tuple(self._request_log)

    def record_stacked(self, batches: int, points: int) -> None:
        """A shape-bucketed batch priced ``points`` lengths in one stacked pass."""
        with self._lock:
            self.stacked_batches += int(batches)
            self.stacked_points += int(points)

    # ------------------------------------------------------------------ reads
    @property
    def hit_rate(self) -> float:
        with self._lock:
            if self.completed <= 0:
                return 0.0
            return (self.coalesced + self.memo_hits) / self.completed

    def _summary(self, name: str, histogram: Histogram) -> BackendServiceStats:
        return BackendServiceStats(
            backend=name,
            requests=histogram.count,
            mean_seconds=histogram.mean,
            p50_seconds=histogram.quantile(50.0),
            p99_seconds=histogram.quantile(99.0),
        )

    def backend_summaries(self) -> List[BackendServiceStats]:
        with self._lock:
            backends = sorted(self._backends.items())
        return [self._summary(name, histogram) for name, histogram in backends]

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            backends = dict(self._backends)
            out: Dict[str, object] = {
                "submitted": self.submitted,
                "completed": self.completed,
                "errors": self.errors,
                "coalesced": self.coalesced,
                "memo_hits": self.memo_hits,
                "simulations": self.simulations,
                "batches": self.batches,
                "busy_seconds": self.busy_seconds,
                "queue_depth": self.queue_depth,
                "peak_queue_depth": self.peak_queue_depth,
                "timeouts": self.timeouts,
                "late_results": self.late_results,
                "stacked_batches": self.stacked_batches,
                "stacked_points": self.stacked_points,
            }
        out["backends"] = {
            name: self._summary(name, histogram)
            for name, histogram in backends.items()
        }
        return out

    # ------------------------------------------------------------- exposition
    def fill_metrics(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Contribute every counter plus the live latency family to ``registry``.

        Counters and gauges are materialized fresh from the current values
        (they are plain ints on the hot path; typed metric objects would buy
        nothing but lock traffic), while the histogram family is registered
        live — its buckets are already exposition-shaped.
        """
        with self._lock:
            values = (
                ("requests_submitted_total", Counter, self.submitted,
                 "Requests accepted by submit()."),
                ("requests_completed_total", Counter, self.completed,
                 "Requests fulfilled (ok or error)."),
                ("errors_total", Counter, self.errors,
                 "Requests fulfilled with an error."),
                ("coalesced_total", Counter, self.coalesced,
                 "Requests attached to an in-flight duplicate."),
                ("memo_hits_total", Counter, self.memo_hits,
                 "Requests answered from the session memo."),
                ("simulations_total", Counter, self.simulations,
                 "Fresh simulator runs."),
                ("batches_total", Counter, self.batches,
                 "Dispatcher execution batches."),
                ("busy_seconds_total", Counter, self.busy_seconds,
                 "Dispatcher busy time, seconds."),
                ("timeouts_total", Counter, self.timeouts,
                 "result() calls that gave up waiting."),
                ("late_results_total", Counter, self.late_results,
                 "Requests completed after every waiter timed out."),
                ("stacked_batches_total", Counter, self.stacked_batches,
                 "Shape-bucketed batches priced in one stacked pass."),
                ("stacked_points_total", Counter, self.stacked_points,
                 "(backend, length) points covered by stacked passes."),
                ("queue_depth", Gauge, self.queue_depth,
                 "Requests queued right now."),
                ("peak_queue_depth", Gauge, self.peak_queue_depth,
                 "High-water queue depth."),
            )
        for suffix, kind, value, help_text in values:
            metric = kind(f"repro_serving_{suffix}", help_text, registry=registry)
            if kind is Counter:
                metric.inc(float(value))
            else:
                metric.set(float(value))
        registry.register(self._latency)
        return registry

    def metrics_registry(self) -> MetricsRegistry:
        """A fresh registry holding this service's metrics (scrape-time view)."""
        return self.fill_metrics(MetricsRegistry())
