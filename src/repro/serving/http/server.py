"""Async HTTP front door over :class:`~repro.serving.service.LatencyService`.

Stdlib only — ``asyncio.start_server`` plus hand-rolled HTTP/1.1 framing, no
external dependencies — so the serving stack's throughput and SLO numbers can
be measured across a real socket path.  One :class:`LatencyFrontDoor` wraps
one service:

* **validation** — every request body is checked against the versioned JSON
  schema in :mod:`repro.serving.wire`; malformed bodies get a 400 with a
  machine-readable :class:`~repro.serving.wire.ErrorBody` code,
* **backpressure** — bounded per-tenant pending queues (plus a global
  bound): a tenant over its bound gets **429** with a ``Retry-After`` header
  instead of unbounded queue growth,
* **priority classes and deadlines** — ``priority`` / ``deadline_seconds``
  on the wire map straight onto the dispatcher's
  :func:`~repro.serving.api.dispatch_order_key` ordering, so EDF semantics
  hold through the socket,
* **ticket lifecycle on the wire** — submit returns a ticket (202); results
  are claimed by polling (200 consumes, 202 pending, 404 unknown/consumed,
  **410 Gone** for reaped tickets) or streamed (``/v1/stream``, chunked
  NDJSON in completion order),
* **observability** — ``/metrics`` exposes the full
  :class:`~repro.serving.stats.ServiceStats` snapshot plus the HTTP layer's
  own counters (``?format=prom`` renders Prometheus text exposition
  instead); ``/healthz`` for probes; ``/v1/log`` exports the structured
  request log, ready for
  :meth:`repro.cluster.trace.RequestTrace.from_serving_log`; when the
  service carries a :class:`~repro.obs.tracing.Tracer`, requests are traced
  under their body ``trace_id`` (or the ``X-Trace-Id`` header — body wins)
  and ``GET /v1/trace/<id>`` returns the recorded span tree,
* **clean shutdown** — :meth:`LatencyFrontDoor.shutdown` stops admitting
  (503 ``"draining"``), waits for every in-flight ticket to fulfill, gives
  clients a claim grace window, and reports exactly what happened
  (``unfulfilled`` is the dropped-ticket count; 0 on a clean drain).

The front door never polls the service: it registers a
:meth:`~repro.serving.service.LatencyService.add_result_listener` callback
that wakes the event loop (``call_soon_threadsafe``) as the dispatcher
fulfills batches.

Endpoints (all bodies JSON, see :mod:`repro.serving.wire`):

==========================  ====================================================
``POST /v1/submit``         WireRequest -> 202 ``{"ticket_id": n}``
``POST /v1/batch``          ``{"requests": [...]}`` -> 202 ``{"ticket_ids": []}``
``POST /v1/query``          WireRequest -> 200 WireResponse (synchronous;
                            ``?timeout_seconds=`` caps the wait, 202 on timeout)
``GET /v1/result/<id>``     200 WireResponse (consumes) | 202 pending | 404 | 410
                            (``?wait_seconds=`` long-polls)
``GET /v1/stream``          ``?tickets=1,2,3`` -> chunked NDJSON, completion order
``GET /v1/log``             structured request log (wire format)
``GET /v1/trace/<id>``      recorded span tree for one trace | 404
``POST /v1/reap``           reap fulfilled-but-unclaimed tickets -> 410 afterwards
``GET /metrics``            service + HTTP counters (``?format=prom`` for
                            Prometheus text exposition)
``GET /healthz``            200 ok | 503 draining (+ version, schema_version)
==========================  ====================================================
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ... import __version__
from ...obs import prom
from ...obs.metrics import Gauge, MetricsRegistry
from ..service import LatencyService
from ..wire import (
    SCHEMA_VERSION,
    ErrorBody,
    WireFormatError,
    WireRequest,
    WireResponse,
    _parse_json,
    backend_stats_to_dict,
    capacity_report_to_dict,
    request_log_to_json,
)

#: Largest accepted request body; bigger gets a 413.
MAX_BODY_BYTES = 1 << 20

#: Cap on ``wait_seconds`` / ``timeout_seconds`` long-poll parameters.
MAX_WAIT_SECONDS = 120.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class _HttpRequest:
    method: str
    path: str
    query: Dict[str, List[str]]
    headers: Dict[str, str]
    body: bytes

    def param(self, name: str) -> Optional[str]:
        values = self.query.get(name)
        return values[0] if values else None


@dataclass
class _Response:
    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Tuple[Tuple[str, str], ...] = ()


@dataclass
class _HttpTicket:
    """HTTP-side bookkeeping for one submitted service ticket."""

    id: int
    tenant: str
    event: asyncio.Event = field(default_factory=asyncio.Event)
    submitted_at: float = 0.0
    fulfilled_at: Optional[float] = None


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class LatencyFrontDoor:
    """One HTTP listener over one :class:`LatencyService`.

    ``service=None`` builds a service from the remaining keyword arguments
    (``ppm_config``, ``workers``, ``length_bucket_size``, …) and owns it —
    :meth:`shutdown` closes it.  A caller-supplied service is shared, not
    owned: tests stage priority batches on an ``autostart=False`` service
    and start its dispatcher when they choose; :meth:`shutdown` leaves it
    running.

    ``max_pending_per_tenant`` / ``max_pending_total`` bound *pending*
    (submitted, not yet fulfilled) tickets — the backpressure quota freed as
    the dispatcher fulfills work, not as clients claim it.
    ``reap_after_seconds`` is how long a fulfilled result may sit unclaimed
    before a reap pass (the background loop when ``reap_interval_seconds >
    0``, or an explicit ``POST /v1/reap``) abandons and reaps it via the
    service's own :meth:`~repro.serving.service.LatencyService.abandon` /
    :meth:`~repro.serving.service.LatencyService.reap_abandoned` machinery.
    """

    def __init__(
        self,
        service: Optional[LatencyService] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending_per_tenant: int = 256,
        max_pending_total: int = 4096,
        retry_after_seconds: float = 0.05,
        reap_after_seconds: float = 300.0,
        reap_interval_seconds: float = 0.0,
        drain_timeout_seconds: float = 120.0,
        claim_grace_seconds: float = 2.0,
        **service_kwargs: Any,
    ) -> None:
        if service is not None and service_kwargs:
            raise ValueError(
                "service and service-construction kwargs are mutually exclusive"
            )
        self._owns_service = service is None
        self.service = service if service is not None else LatencyService(**service_kwargs)
        self.host = host
        self._requested_port = int(port)
        self.port: Optional[int] = None
        self.max_pending_per_tenant = int(max_pending_per_tenant)
        self.max_pending_total = int(max_pending_total)
        self.retry_after_seconds = float(retry_after_seconds)
        self.reap_after_seconds = float(reap_after_seconds)
        self.reap_interval_seconds = float(reap_interval_seconds)
        self.drain_timeout_seconds = float(drain_timeout_seconds)
        self.claim_grace_seconds = float(claim_grace_seconds)

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._reaper_task: Optional[asyncio.Task] = None
        self._tickets: Dict[int, _HttpTicket] = {}
        #: Terminal tickets: id -> "consumed" | "reaped" (404 vs 410).
        self._closed: Dict[int, str] = {}
        self._tenant_pending: Dict[str, int] = {}
        self._draining = False
        self._drain_report: Optional[Dict[str, Any]] = None
        self._consumed_count = 0
        self._reaped_count = 0
        self._started_at = time.perf_counter()

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> "LatencyFrontDoor":
        """Bind the listener and register the fulfillment listener."""
        self._loop = asyncio.get_running_loop()
        self.service.add_result_listener(self._listener)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port, limit=MAX_BODY_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.reap_interval_seconds > 0:
            self._reaper_task = self._loop.create_task(self._reaper_loop())
        return self

    async def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        """Stop admitting, drain in-flight tickets, close down; returns the drain report.

        The report's contract: ``unfulfilled`` counts tickets that never got
        a response (0 on a clean drain — the "zero dropped tickets"
        invariant the smoke pins), ``unclaimed`` counts fulfilled responses
        no client collected within the claim grace window.
        """
        if self._drain_report is not None:
            return self._drain_report
        self._draining = True
        pending = [t for t in self._tickets.values() if not t.event.is_set()]
        report: Dict[str, Any] = {"pending_at_shutdown": len(pending)}
        if drain and pending:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*(t.event.wait() for t in pending)),
                    timeout=self.drain_timeout_seconds,
                )
            except asyncio.TimeoutError:
                pass
        if drain:
            # Claim grace: clients holding tickets get a window to collect
            # fulfilled results before the listener goes away.
            deadline = self._loop.time() + self.claim_grace_seconds
            while self._loop.time() < deadline and self._tickets:
                await asyncio.sleep(0.02)
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            self._reaper_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._owns_service:
            # close() joins the dispatcher thread; keep the loop responsive.
            await self._loop.run_in_executor(None, self.service.close)
        report["unfulfilled"] = sum(
            1 for t in self._tickets.values() if not t.event.is_set()
        )
        report["unclaimed"] = sum(1 for t in self._tickets.values() if t.event.is_set())
        report["consumed"] = self._consumed_count
        report["reaped"] = self._reaped_count
        self._drain_report = report
        return report

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------- fulfillment
    def _listener(self, ticket_ids: Tuple[int, ...]) -> None:
        # Dispatcher thread -> event loop.  After loop shutdown the
        # call_soon_threadsafe raises; the service swallows listener errors,
        # and a closed front door has nothing left to wake.
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._on_fulfilled, ticket_ids)

    def _on_fulfilled(self, ticket_ids: Tuple[int, ...]) -> None:
        now = self._loop.time()
        for ticket_id in ticket_ids:
            ticket = self._tickets.get(ticket_id)
            if ticket is None or ticket.event.is_set():
                continue
            ticket.fulfilled_at = now
            ticket.event.set()
            remaining = self._tenant_pending.get(ticket.tenant, 1) - 1
            if remaining <= 0:
                self._tenant_pending.pop(ticket.tenant, None)
            else:
                self._tenant_pending[ticket.tenant] = remaining

    def _pending_total(self) -> int:
        return sum(self._tenant_pending.values())

    # --------------------------------------------------------------- admission
    def _admit(self, wire_request: WireRequest, count: int = 1) -> Optional[_Response]:
        """The 429/503 gate; ``None`` means admitted."""
        if self._draining:
            return self._error(503, "draining", "server is draining; not accepting work")
        tenant = wire_request.tenant
        tenant_pending = self._tenant_pending.get(tenant, 0)
        if (
            tenant_pending + count > self.max_pending_per_tenant
            or self._pending_total() + count > self.max_pending_total
        ):
            retry_after = self.retry_after_seconds
            return self._error(
                429,
                "backpressure",
                f"tenant {tenant!r} has {tenant_pending} pending requests "
                f"(bound {self.max_pending_per_tenant}); retry later",
                retry_after_seconds=retry_after,
                headers=(("Retry-After", f"{retry_after:.3f}"),),
            )
        return None

    def _submit_one(self, wire_request: WireRequest) -> int:
        """Admitted request -> service ticket + HTTP bookkeeping.

        No ``await`` between ``service.submit`` and the ticket registration:
        the fulfillment callback runs on this same loop, so it cannot observe
        the gap.
        """
        ticket_id = self.service.submit(wire_request.to_latency())
        self._tickets[ticket_id] = _HttpTicket(
            id=ticket_id, tenant=wire_request.tenant, submitted_at=self._loop.time()
        )
        self._tenant_pending[wire_request.tenant] = (
            self._tenant_pending.get(wire_request.tenant, 0) + 1
        )
        return ticket_id

    # -------------------------------------------------------------- consumption
    def _consume(self, ticket_id: int) -> Optional[WireResponse]:
        """Claim a fulfilled ticket (service-side consume included)."""
        ticket = self._tickets.pop(ticket_id, None)
        if ticket is None:
            return None
        try:
            response = self.service.poll(ticket_id)
        except KeyError:
            response = None
        self._closed[ticket_id] = "consumed"
        if response is None:
            return None
        self._consumed_count += 1
        return WireResponse.from_latency(response, tenant=ticket.tenant)

    def _reap_pass(self) -> List[int]:
        """Abandon + reap fulfilled tickets unclaimed past ``reap_after_seconds``."""
        now = self._loop.time()
        overdue = [
            ticket_id
            for ticket_id, ticket in self._tickets.items()
            if ticket.fulfilled_at is not None
            and now - ticket.fulfilled_at >= self.reap_after_seconds
        ]
        for ticket_id in overdue:
            self.service.abandon(ticket_id)
        reaped: List[int] = []
        for response in self.service.reap_abandoned():
            ticket_id = response.request_id
            if ticket_id in self._tickets:
                self._tickets.pop(ticket_id)
                self._closed[ticket_id] = "reaped"
                self._reaped_count += 1
                reaped.append(ticket_id)
        return reaped

    async def _reaper_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(self.reap_interval_seconds)
                self._reap_pass()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------ HTTP plumbing
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                if request.method == "GET" and request.path == "/v1/stream":
                    await self._stream_results(request, writer)
                    break  # streams always close the connection
                response = await self._dispatch(request)
                keep_alive = request.headers.get("connection", "").lower() != "close"
                self._write_response(writer, response, keep_alive=keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except Exception:
            # A handler bug must not kill the server; best-effort 500.
            try:
                self._write_response(
                    writer,
                    self._error(500, "internal_error", "internal server error"),
                    keep_alive=False,
                )
                await writer.drain()
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[_HttpRequest]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        except asyncio.LimitOverrunError:
            return None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            return _HttpRequest(method, "__too_large__", {}, headers, b"")
        if length:
            body = await reader.readexactly(length)
        parts = urlsplit(target)
        return _HttpRequest(
            method=method.upper(),
            path=parts.path,
            query=parse_qs(parts.query),
            headers=headers,
            body=body,
        )

    def _write_response(
        self, writer: asyncio.StreamWriter, response: _Response, keep_alive: bool
    ) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        head = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{name}: {value}" for name, value in response.headers)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body)

    def _error(
        self,
        status: int,
        code: str,
        message: str,
        retry_after_seconds: Optional[float] = None,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> _Response:
        body = ErrorBody(
            code=code, message=message, retry_after_seconds=retry_after_seconds
        )
        return _Response(status=status, body=body.to_json().encode("utf-8"), headers=headers)

    # ---------------------------------------------------------------- dispatch
    async def _dispatch(self, request: _HttpRequest) -> _Response:
        if request.path == "__too_large__":
            return self._error(413, "payload_too_large", "request body too large")
        try:
            if request.method == "POST" and request.path == "/v1/submit":
                return self._handle_submit(request)
            if request.method == "POST" and request.path == "/v1/batch":
                return self._handle_batch(request)
            if request.method == "POST" and request.path == "/v1/query":
                return await self._handle_query(request)
            if request.method == "GET" and request.path.startswith("/v1/result/"):
                return await self._handle_result(request)
            if request.method == "POST" and request.path == "/v1/reap":
                return self._handle_reap()
            if request.method == "GET" and request.path == "/v1/log":
                return _Response(
                    200, request_log_to_json(self.service.request_log()).encode("utf-8")
                )
            if request.method == "GET" and request.path.startswith("/v1/trace/"):
                return self._handle_trace(request)
            if request.method == "GET" and request.path == "/metrics":
                return self._handle_metrics(request)
            if request.method == "GET" and request.path == "/healthz":
                return self._handle_healthz()
        except WireFormatError as exc:
            return self._error(400, exc.code, exc.message)
        except (ValueError, RuntimeError) as exc:
            return self._error(400, "invalid_request", str(exc))
        return self._error(404, "not_found", f"no route {request.method} {request.path}")

    @staticmethod
    def _with_trace(wire_request: WireRequest, request: _HttpRequest) -> WireRequest:
        """Fold the ``X-Trace-Id`` header into the request; the body wins."""
        if wire_request.trace_id is not None:
            return wire_request
        header = request.headers.get("x-trace-id", "").strip()
        if not header:
            return wire_request
        return replace(wire_request, trace_id=header)

    @staticmethod
    def _trace_headers(wire_request: WireRequest) -> Tuple[Tuple[str, str], ...]:
        """Echo the effective trace id back so clients can correlate."""
        if wire_request.trace_id is None:
            return ()
        return (("X-Trace-Id", wire_request.trace_id),)

    def _handle_submit(self, request: _HttpRequest) -> _Response:
        wire_request = self._with_trace(WireRequest.from_json(request.body), request)
        rejected = self._admit(wire_request)
        if rejected is not None:
            return rejected
        ticket_id = self._submit_one(wire_request)
        return _Response(
            202,
            _json_bytes(
                {
                    "schema_version": SCHEMA_VERSION,
                    "ticket_id": ticket_id,
                    "tenant": wire_request.tenant,
                }
            ),
            headers=self._trace_headers(wire_request),
        )

    def _handle_batch(self, request: _HttpRequest) -> _Response:
        payload = _parse_json(request.body, "batch body") if request.body else None
        if not isinstance(payload, dict) or not isinstance(payload.get("requests"), list):
            raise WireFormatError(
                "invalid_field", 'batch body must be {"requests": [WireRequest, ...]}'
            )
        wire_requests = [
            self._with_trace(WireRequest.from_dict(item), request)
            for item in payload["requests"]
        ]
        if not wire_requests:
            raise WireFormatError("invalid_field", "batch must contain at least one request")
        # All-or-nothing admission per tenant: a half-admitted batch would
        # leave the client guessing which tickets exist.
        counts: Dict[str, int] = {}
        for wire_request in wire_requests:
            counts[wire_request.tenant] = counts.get(wire_request.tenant, 0) + 1
        for wire_request in wire_requests:
            rejected = self._admit(wire_request, count=counts[wire_request.tenant])
            if rejected is not None:
                return rejected
        ticket_ids = [self._submit_one(wire_request) for wire_request in wire_requests]
        return _Response(
            202,
            _json_bytes({"schema_version": SCHEMA_VERSION, "ticket_ids": ticket_ids}),
        )

    async def _handle_query(self, request: _HttpRequest) -> _Response:
        wire_request = self._with_trace(WireRequest.from_json(request.body), request)
        rejected = self._admit(wire_request)
        if rejected is not None:
            return rejected
        timeout = self._wait_param(request, "timeout_seconds", default=MAX_WAIT_SECONDS)
        ticket_id = self._submit_one(wire_request)
        ticket = self._tickets[ticket_id]
        try:
            await asyncio.wait_for(ticket.event.wait(), timeout)
        except asyncio.TimeoutError:
            return _Response(
                202,
                _json_bytes(
                    {
                        "schema_version": SCHEMA_VERSION,
                        "status": "pending",
                        "ticket_id": ticket_id,
                    }
                ),
                headers=(("Retry-After", f"{self.retry_after_seconds:.3f}"),),
            )
        response = self._consume(ticket_id)
        if response is None:
            return self._error(404, "already_consumed", f"ticket {ticket_id} already claimed")
        return _Response(
            200,
            response.to_json().encode("utf-8"),
            headers=self._trace_headers(wire_request),
        )

    async def _handle_result(self, request: _HttpRequest) -> _Response:
        try:
            ticket_id = int(request.path.rsplit("/", 1)[1])
        except ValueError:
            return self._error(400, "invalid_field", "ticket id must be an integer")
        closed = self._closed.get(ticket_id)
        if closed == "reaped":
            return self._error(
                410, "reaped", f"ticket {ticket_id} was reaped (fulfilled but unclaimed)"
            )
        if closed == "consumed":
            return self._error(404, "already_consumed", f"ticket {ticket_id} already claimed")
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            return self._error(404, "unknown_ticket", f"no such ticket {ticket_id}")
        wait = self._wait_param(request, "wait_seconds", default=0.0)
        if not ticket.event.is_set() and wait > 0:
            try:
                await asyncio.wait_for(ticket.event.wait(), wait)
            except asyncio.TimeoutError:
                pass
        if not ticket.event.is_set():
            return _Response(
                202,
                _json_bytes(
                    {
                        "schema_version": SCHEMA_VERSION,
                        "status": "pending",
                        "ticket_id": ticket_id,
                    }
                ),
                headers=(("Retry-After", f"{self.retry_after_seconds:.3f}"),),
            )
        response = self._consume(ticket_id)
        if response is None:
            return self._error(404, "already_consumed", f"ticket {ticket_id} already claimed")
        return _Response(200, response.to_json().encode("utf-8"))

    def _handle_reap(self) -> _Response:
        reaped = self._reap_pass()
        return _Response(
            200, _json_bytes({"schema_version": SCHEMA_VERSION, "reaped": reaped})
        )

    def _handle_trace(self, request: _HttpRequest) -> _Response:
        raw = request.path.rsplit("/", 1)[1]
        tracer = getattr(self.service, "tracer", None)
        if tracer is None:
            return self._error(
                404, "tracing_disabled", "service has no tracer attached"
            )
        key = tracer.find(raw)
        if key is None:
            return self._error(404, "unknown_trace", f"no trace {raw!r}")
        payload = tracer.to_dict(key)
        payload["schema_version"] = SCHEMA_VERSION
        return _Response(200, _json_bytes(payload))

    def _http_gauges(self, registry: "MetricsRegistry") -> None:
        """Contribute the front door's own counters to a scrape registry."""
        rows = (
            ("pending", "Submitted tickets not yet fulfilled.",
             sum(1 for t in self._tickets.values() if not t.event.is_set())),
            ("fulfilled_unclaimed", "Fulfilled tickets awaiting a claim.",
             sum(1 for t in self._tickets.values() if t.event.is_set())),
            ("consumed_total", "Tickets claimed by clients.", self._consumed_count),
            ("reaped_total", "Fulfilled-but-unclaimed tickets reaped.", self._reaped_count),
            ("draining", "1 while the server is draining.", int(self._draining)),
        )
        for suffix, help_text, value in rows:
            Gauge(f"repro_http_{suffix}", help_text, registry=registry).set(float(value))

    def _handle_metrics(self, request: _HttpRequest) -> _Response:
        if request.param("format") == "prom":
            registry = self.service.stats.fill_metrics(MetricsRegistry())
            self._http_gauges(registry)
            return _Response(
                200,
                prom.render(registry).encode("utf-8"),
                content_type=prom.CONTENT_TYPE,
            )
        snapshot = self.service.stats.snapshot()
        snapshot["backends"] = {
            name: backend_stats_to_dict(row)
            for name, row in snapshot["backends"].items()  # type: ignore[union-attr]
        }
        payload = {
            "schema_version": SCHEMA_VERSION,
            "service": snapshot,
            "capacity": capacity_report_to_dict(self.service.capacity_report()),
            "http": {
                "pending": sum(
                    1 for t in self._tickets.values() if not t.event.is_set()
                ),
                "fulfilled_unclaimed": sum(
                    1 for t in self._tickets.values() if t.event.is_set()
                ),
                "consumed": self._consumed_count,
                "reaped": self._reaped_count,
                "draining": self._draining,
                "tenants": dict(sorted(self._tenant_pending.items())),
            },
        }
        return _Response(200, _json_bytes(payload))

    def _handle_healthz(self) -> _Response:
        status = "draining" if self._draining else "ok"
        body = _json_bytes(
            {
                "schema_version": SCHEMA_VERSION,
                "status": status,
                "uptime_seconds": time.perf_counter() - self._started_at,
                "version": __version__,
            }
        )
        return _Response(503 if self._draining else 200, body)

    def _wait_param(self, request: _HttpRequest, name: str, default: float) -> float:
        raw = request.param(name)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise WireFormatError("invalid_field", f"{name} must be a number") from None
        return max(0.0, min(value, MAX_WAIT_SECONDS))

    # ---------------------------------------------------------------- streaming
    async def _stream_results(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        """Chunked NDJSON of WireResponses in completion order (consumes each)."""
        raw = request.param("tickets") or ""
        try:
            ticket_ids = [int(part) for part in raw.split(",") if part != ""]
        except ValueError:
            self._write_response(
                writer,
                self._error(400, "invalid_field", "tickets must be comma-separated integers"),
                keep_alive=False,
            )
            await writer.drain()
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        async def _one(ticket_id: int) -> str:
            ticket = self._tickets.get(ticket_id)
            if ticket is None:
                status = self._closed.get(ticket_id)
                code = {
                    "reaped": "reaped",
                    "consumed": "already_consumed",
                }.get(status, "unknown_ticket")
                return ErrorBody(
                    code=code, message=f"ticket {ticket_id}: {code}"
                ).to_json()
            await ticket.event.wait()
            response = self._consume(ticket_id)
            if response is None:
                return ErrorBody(
                    code="already_consumed", message=f"ticket {ticket_id} already claimed"
                ).to_json()
            return response.to_json()

        pending = {asyncio.ensure_future(_one(ticket_id)) for ticket_id in ticket_ids}
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    line = (task.result() + "\n").encode("utf-8")
                    writer.write(b"%x\r\n" % len(line) + line + b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            for task in pending:
                task.cancel()


def create_front_door(**kwargs: Any) -> LatencyFrontDoor:
    """Factory twin of :class:`LatencyFrontDoor` (same keyword arguments)."""
    return LatencyFrontDoor(**kwargs)


# ------------------------------------------------------------ thread embedding
class FrontDoorHandle:
    """A front door running on its own event-loop thread (tests, loadgen, smoke)."""

    def __init__(
        self, door: LatencyFrontDoor, loop: asyncio.AbstractEventLoop, thread: threading.Thread
    ) -> None:
        self.door = door
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.door.host

    @property
    def port(self) -> int:
        assert self.door.port is not None
        return self.door.port

    def stop(self, drain: bool = True, timeout: float = 300.0) -> Dict[str, Any]:
        """Shut the server down from the calling thread; returns the drain report."""
        future = asyncio.run_coroutine_threadsafe(self.door.shutdown(drain), self._loop)
        report = future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30.0)
        return report


def serve_in_thread(**kwargs: Any) -> FrontDoorHandle:
    """Start a :class:`LatencyFrontDoor` on a daemon thread; returns its handle.

    The thread owns a fresh event loop; the handle's :meth:`FrontDoorHandle.stop`
    drains and joins it.  Raises whatever :meth:`LatencyFrontDoor.start`
    raised (bad port, bad service kwargs) in the calling thread.
    """
    door = LatencyFrontDoor(**kwargs)
    ready = threading.Event()
    holder: Dict[str, Any] = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop
        try:
            loop.run_until_complete(door.start())
        except Exception as exc:  # surface bind/config errors to the caller
            holder["error"] = exc
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="latency-front-door", daemon=True)
    thread.start()
    if not ready.wait(timeout=60.0):
        raise RuntimeError("front door failed to start within 60s")
    if "error" in holder:
        raise holder["error"]
    return FrontDoorHandle(door, holder["loop"], thread)
