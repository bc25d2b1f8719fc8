"""Latency-serving layer: concurrent, multi-tenant queries over `repro.sim`.

The third layer of the simulation stack: PR 1 made one simulation cheap
(columnar engine), PR 2 made repeated simulations cheap (sessions, sweeps,
disk cache), and this package makes *concurrent* simulations cheap — a
request/response front end that coalesces duplicate in-flight work and
shards unique work across the sweep process pool.

Facade
------
This module is the package's one documented import surface, organized in
three tiers:

* **service** — :func:`create_service` / :class:`LatencyService` (the
  engine), :class:`LatencyRequest` / :class:`LatencyResponse` (the typed
  in-process API), :class:`CapacityReport` / :class:`BackendServiceStats` /
  :class:`ServiceStats` (observability), :class:`RequestLogRecord` (the
  structured traffic log shared with :mod:`repro.cluster`),
* **wire** — the versioned JSON twins for crossing process boundaries:
  :class:`WireRequest` / :class:`WireResponse` / :class:`ErrorBody`, all
  stamped with :data:`SCHEMA_VERSION` and validated strictly
  (:class:`WireFormatError` carries a machine-readable code),
* **HTTP** — the socket front door lives one level down in
  :mod:`repro.serving.http` (server, client, trace-driven load harness);
  it is not re-exported here because it drags in asyncio plumbing most
  in-process callers never need.

Factories follow the repo-wide ``create_*`` convention
(:func:`repro.sim.backend.create_backend`,
:func:`repro.cluster.routing.create_router`,
:func:`repro.cluster.scheduler.create_scheduler`,
:func:`repro.cluster.trace.create_trace`): :func:`create_service` is the
keyword-for-keyword twin of the :class:`LatencyService` constructor.

Usage
-----
Synchronous convenience path::

    from repro.serving import create_service

    with create_service() as service:               # PPMConfig.paper()
        report = service.query("lightnobel", 1410)  # SimReport

Batch submit/poll with coalescing (duplicates share one simulation)::

    from repro.serving import LatencyRequest, create_service

    with create_service(workers=2) as service:
        tickets = service.submit_batch(
            [LatencyRequest("h100", 800)] * 16      # -> exactly 1 simulation
            + [("lightnobel", n) for n in (300, 800, 1410)]
        )
        responses = [service.result(t) for t in tickets]
        service.capacity_report().queries_per_second

Over the wire (one schema for HTTP bodies, logs, and archived reports)::

    from repro.serving import WireRequest, WireResponse

    body = WireRequest(backend="h100", sequence_length=800).to_json()
    response = WireResponse.from_json(http_body)    # lossless round trip

Figure entry points (``latency_breakdown``, ``compare_hardware_on_lengths``,
``hardware_dse``, ``EndToEndComparison``) accept ``service=`` to route their
latency numbers through one shared service instance.
"""

from .api import (
    BackendServiceStats,
    CapacityReport,
    LatencyRequest,
    LatencyResponse,
    LatencyServiceError,
    RequestLogRecord,
)
from .service import LatencyService, create_service
from .stats import ServiceStats
from .wire import (
    SCHEMA_VERSION,
    ErrorBody,
    WireFormatError,
    WireRequest,
    WireResponse,
)

__all__ = [
    "BackendServiceStats",
    "CapacityReport",
    "ErrorBody",
    "LatencyRequest",
    "LatencyResponse",
    "LatencyService",
    "LatencyServiceError",
    "RequestLogRecord",
    "SCHEMA_VERSION",
    "ServiceStats",
    "WireFormatError",
    "WireRequest",
    "WireResponse",
    "create_service",
]
