"""Wire-format round trips and the redesigned public facade.

The wire contract: every in-process API type —
``LatencyRequest``/``LatencyResponse``, ``CapacityReport``,
``RequestLogRecord`` — serializes to its JSON wire twin and back
*losslessly*, every payload carries ``schema_version``, and validation is
strict (unknown fields, wrong types, and foreign schema versions are
rejected with stable error codes).  The exact JSON bytes of one instance
of every wire type are pinned, a hypothesis property checks lossless
round trips, and a table pins the error code of each malformed payload.
Facade tests pin the ``create_*`` factory family.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.api import (
    BackendServiceStats,
    CapacityReport,
    LatencyRequest,
    LatencyResponse,
    RequestLogRecord,
)
from repro.serving.wire import (
    SCHEMA_VERSION,
    ErrorBody,
    WireFormatError,
    WireRequest,
    WireResponse,
    backend_stats_from_dict,
    backend_stats_to_dict,
    capacity_report_from_dict,
    capacity_report_to_dict,
    log_record_from_dict,
    log_record_to_dict,
    request_log_from_json,
    request_log_to_json,
    sim_report_from_dict,
    sim_report_to_dict,
)
from repro.sim.backend import SimReport


def _sim_report() -> SimReport:
    return SimReport(
        backend="lightnobel",
        sequence_length=48,
        total_seconds=0.125,
        phase_seconds={"ppm": 0.1, "pairformer": 0.025},
        subphase_seconds={"ppm/attention": 0.06, "ppm/transition": 0.04},
        out_of_memory=False,
        details={"recycles": 3.0},
    )


class TestWireRequest:
    def test_json_round_trip(self):
        request = WireRequest(
            backend="h100",
            sequence_length=800,
            include_recycles=True,
            priority=2,
            deadline_seconds=1.5,
            tenant="team-a",
        )
        assert WireRequest.from_json(request.to_json()) == request

    def test_latency_round_trip(self):
        latency = LatencyRequest(
            backend="h100-chunk",
            sequence_length=300,
            include_recycles=False,
            priority=1,
            deadline_seconds=0.75,
        )
        wire = WireRequest.from_latency(latency, tenant="t")
        assert wire.tenant == "t"
        assert wire.to_latency() == latency

    def test_defaults_are_curl_friendly(self):
        # Minimal body: just a length.  Version defaults to current.
        wire = WireRequest.from_json('{"sequence_length": 24}')
        assert wire.backend == "lightnobel"
        assert wire.schema_version == SCHEMA_VERSION
        assert wire.to_latency().sequence_length == 24

    @pytest.mark.parametrize("deadline", [math.nan, math.inf, -math.inf])
    def test_latency_request_rejects_non_finite_deadline(self, deadline):
        with pytest.raises(ValueError, match="deadline_seconds"):
            LatencyRequest(sequence_length=24, deadline_seconds=deadline)

    def test_non_string_backend_is_unserializable(self):
        from repro.hardware import LightNobelConfig

        latency = LatencyRequest(backend=LightNobelConfig(), sequence_length=24)
        with pytest.raises(WireFormatError) as excinfo:
            WireRequest.from_latency(latency)
        assert excinfo.value.code == "unserializable_backend"

    @pytest.mark.parametrize(
        "payload, code",
        [
            ("{not json", "invalid_json"),
            ('{"sequence_length": 24, "nope": 1}', "unknown_field"),
            ('{"backend": "h100"}', "missing_field"),
            ('{"sequence_length": 0}', "invalid_field"),
            ('{"sequence_length": true}', "invalid_field"),
            ('{"sequence_length": 24, "deadline_seconds": -1}', "invalid_field"),
            ('{"sequence_length": 24, "deadline_seconds": NaN}', "invalid_field"),
            ('{"sequence_length": 24, "deadline_seconds": Infinity}', "invalid_field"),
            ('{"sequence_length": 24, "deadline_seconds": -Infinity}', "invalid_field"),
            ('{"sequence_length": 24, "schema_version": 99}', "unsupported_schema_version"),
        ],
    )
    def test_strict_validation(self, payload, code):
        with pytest.raises(WireFormatError) as excinfo:
            WireRequest.from_json(payload)
        assert excinfo.value.code == code


class TestWireResponse:
    def test_full_round_trip_with_report(self):
        latency = LatencyResponse(
            request_id=7,
            request=LatencyRequest(backend="lightnobel", sequence_length=48),
            report=_sim_report(),
            coalesced=True,
            queue_seconds=0.002,
            service_seconds=0.01,
            completed_index=3,
        )
        wire = WireResponse.from_latency(latency, tenant="t")
        rebuilt = WireResponse.from_json(wire.to_json())
        assert rebuilt == wire
        assert rebuilt.ok
        # Lossless back to the in-process type, SimReport included.
        assert rebuilt.to_latency() == latency

    def test_error_response_round_trip(self):
        latency = LatencyResponse(
            request_id=9,
            request=LatencyRequest(sequence_length=24),
            error="backend exploded",
            service_seconds=0.5,
        )
        wire = WireResponse.from_latency(latency)
        rebuilt = WireResponse.from_json(wire.to_json())
        assert not rebuilt.ok
        assert rebuilt.to_latency() == latency

    def test_sim_report_round_trip_is_lossless(self):
        report = _sim_report()
        assert sim_report_from_dict(sim_report_to_dict(report)) == report

    def test_unknown_field_rejected(self):
        wire = WireResponse.from_latency(
            LatencyResponse(request_id=0, request=LatencyRequest(sequence_length=24))
        )
        payload = json.loads(wire.to_json())
        payload["surprise"] = 1
        with pytest.raises(WireFormatError) as excinfo:
            WireResponse.from_dict(payload)
        assert excinfo.value.code == "unknown_field"


class TestErrorBody:
    def test_round_trip(self):
        body = ErrorBody(code="backpressure", message="slow down", retry_after_seconds=0.05)
        assert ErrorBody.from_json(body.to_json()) == body

    @pytest.mark.parametrize("retry_after", ["NaN", "Infinity"])
    def test_non_finite_retry_after_rejected(self, retry_after):
        text = '{"code": "backpressure", "message": "m", "retry_after_seconds": %s}' % retry_after
        with pytest.raises(WireFormatError) as excinfo:
            ErrorBody.from_json(text)
        assert excinfo.value.code == "invalid_field"

    def test_version_is_stamped(self):
        assert json.loads(ErrorBody(code="x", message="y").to_json())[
            "schema_version"
        ] == SCHEMA_VERSION


class TestOperatorTypes:
    def test_capacity_report_round_trip(self):
        report = CapacityReport(
            requests=10,
            completed=9,
            errors=1,
            coalesced=2,
            memo_hits=3,
            simulations=4,
            queue_depth=0,
            peak_queue_depth=5,
            wall_seconds=1.5,
            busy_seconds=0.75,
            queries_per_second=12.0,
            backends=(
                BackendServiceStats(
                    backend="lightnobel",
                    requests=9,
                    mean_seconds=0.01,
                    p50_seconds=0.009,
                    p99_seconds=0.02,
                ),
            ),
            timed_out=1,
            late_results=1,
            pool_rebuilds=0,
            stacked_batches=2,
            stacked_points=6,
        )
        assert capacity_report_from_dict(capacity_report_to_dict(report)) == report

    def test_backend_stats_round_trip(self):
        row = BackendServiceStats(
            backend="h100", requests=4, mean_seconds=0.1, p50_seconds=0.09, p99_seconds=0.3
        )
        assert backend_stats_from_dict(backend_stats_to_dict(row)) == row

    def test_log_record_round_trip(self):
        record = RequestLogRecord(
            ticket_id=3,
            backend="lightnobel",
            sequence_length=96,
            priority=1,
            deadline_seconds=2.5,
            arrival_seconds=0.125,
            outcome="ok",
            coalesced=True,
            queue_seconds=0.001,
            service_seconds=0.004,
        )
        assert log_record_from_dict(log_record_to_dict(record)) == record

    def test_request_log_json_round_trip(self):
        records = [
            RequestLogRecord(
                ticket_id=i,
                backend="lightnobel",
                sequence_length=24 + i,
                priority=0,
                deadline_seconds=None,
                arrival_seconds=float(i),
                outcome="ok",
            )
            for i in range(4)
        ]
        rebuilt = request_log_from_json(request_log_to_json(records))
        assert rebuilt == records

    def test_request_log_feeds_cluster_trace(self):
        from repro.cluster.trace import RequestTrace

        records = [
            RequestLogRecord(
                ticket_id=i,
                backend="lightnobel",
                sequence_length=48,
                priority=0,
                deadline_seconds=1.0,
                arrival_seconds=0.5 + 0.25 * i,
                outcome="ok",
            )
            for i in range(3)
        ]
        trace = RequestTrace.from_serving_log(request_log_from_json(request_log_to_json(records)))
        again = RequestTrace.from_serving_log(request_log_from_json(request_log_to_json(records)))
        assert trace.config_digest() == again.config_digest()
        assert len(trace) == 3


# --------------------------------------------------------- pinned wire bytes
def _numpy_sim_report() -> SimReport:
    """A report as backends build it: numpy scalars, one empty map."""
    return SimReport(
        backend="lightnobel",
        sequence_length=48,
        total_seconds=np.float64(0.125),
        phase_seconds={"ppm": np.float64(0.1), "pairformer": np.float64(0.025)},
        subphase_seconds={},
        out_of_memory=False,
        details={"recycles": np.float64(3.0)},
    )


def _stats_row() -> BackendServiceStats:
    return BackendServiceStats(
        backend="h100", requests=4, mean_seconds=0.1, p50_seconds=0.09, p99_seconds=0.3
    )


def _log_records():
    return [
        RequestLogRecord(
            ticket_id=3,
            backend="lightnobel",
            sequence_length=96,
            priority=1,
            deadline_seconds=2.5,
            arrival_seconds=0.125,
            outcome="ok",
            coalesced=True,
            queue_seconds=0.001,
            service_seconds=0.004,
            trace_id="t-9",
        ),
        RequestLogRecord(
            ticket_id=4,
            backend="h100",
            sequence_length=24,
            priority=0,
            deadline_seconds=None,
            arrival_seconds=0.5,
            outcome="error",
        ),
    ]


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True)


_SIM_REPORT_JSON = (
    '{"backend": "lightnobel", "details": {"recycles": 3.0}, "out_of_memory": false, '
    '"phase_seconds": {"pairformer": 0.025, "ppm": 0.1}, "schema_version": 1, '
    '"sequence_length": 48, "subphase_seconds": {}, "total_seconds": 0.125}'
)
_STATS_JSON = (
    '{"backend": "h100", "mean_seconds": 0.1, "p50_seconds": 0.09, '
    '"p99_seconds": 0.3, "requests": 4}'
)
_LOG_RECORD_JSON = (
    '{"arrival_seconds": 0.125, "backend": "lightnobel", "coalesced": true, '
    '"deadline_seconds": 2.5, "outcome": "ok", "priority": 1, "queue_seconds": 0.001, '
    '"schema_version": 1, "sequence_length": 96, "service_seconds": 0.004, '
    '"ticket_id": 3, "trace_id": "t-9"}'
)

PINNED_BYTES = {
    "ErrorBody": (
        lambda: ErrorBody(
            code="backpressure", message="slow down", retry_after_seconds=0.05
        ).to_json(),
        '{"code": "backpressure", "message": "slow down", "retry_after_seconds": 0.05, '
        '"schema_version": 1}',
    ),
    "WireRequest": (
        lambda: WireRequest(
            backend="h100",
            sequence_length=800,
            include_recycles=True,
            priority=2,
            deadline_seconds=1.5,
            tenant="team-a",
            trace_id="trace-1",
        ).to_json(),
        '{"backend": "h100", "deadline_seconds": 1.5, "include_recycles": true, '
        '"priority": 2, "schema_version": 1, "sequence_length": 800, "tenant": "team-a", '
        '"trace_id": "trace-1"}',
    ),
    # The client's /v1/batch body is not key-sorted: to_dict() order shows.
    "WireRequest batch body": (
        lambda: json.dumps({"requests": [WireRequest(sequence_length=24).to_dict()]}),
        '{"requests": [{"schema_version": 1, "backend": "lightnobel", "sequence_length": 24, '
        '"include_recycles": null, "priority": 0, "deadline_seconds": null, '
        '"tenant": "default", "trace_id": null}]}',
    ),
    "WireResponse": (
        lambda: WireResponse(
            ticket_id=7,
            request=WireRequest(sequence_length=48, tenant="t"),
            report=_numpy_sim_report(),
            coalesced=True,
            queue_seconds=0.002,
            service_seconds=0.01,
            completed_index=3,
        ).to_json(),
        '{"coalesced": true, "completed_index": 3, "error": null, "queue_seconds": 0.002, '
        '"report": ' + _SIM_REPORT_JSON + ', "request": {"backend": "lightnobel", '
        '"deadline_seconds": null, "include_recycles": null, "priority": 0, '
        '"schema_version": 1, "sequence_length": 48, "tenant": "t", "trace_id": null}, '
        '"schema_version": 1, "service_seconds": 0.01, "ticket_id": 7}',
    ),
    "SimReport": (lambda: _dumps(sim_report_to_dict(_numpy_sim_report())), _SIM_REPORT_JSON),
    # Rows nest inside a CapacityReport, so they carry no schema_version.
    "BackendServiceStats": (lambda: _dumps(backend_stats_to_dict(_stats_row())), _STATS_JSON),
    "CapacityReport": (
        lambda: _dumps(
            capacity_report_to_dict(
                CapacityReport(
                    requests=10,
                    completed=9,
                    errors=1,
                    coalesced=2,
                    memo_hits=3,
                    simulations=4,
                    queue_depth=0,
                    peak_queue_depth=5,
                    wall_seconds=1.5,
                    busy_seconds=0.75,
                    queries_per_second=12.0,
                    backends=(_stats_row(),),
                    timed_out=1,
                    late_results=1,
                    pool_rebuilds=0,
                    stacked_batches=2,
                    stacked_points=6,
                )
            )
        ),
        '{"backends": [' + _STATS_JSON + '], "busy_seconds": 0.75, "coalesced": 2, '
        '"completed": 9, "errors": 1, "late_results": 1, "memo_hits": 3, '
        '"peak_queue_depth": 5, "pool_rebuilds": 0, "queries_per_second": 12.0, '
        '"queue_depth": 0, "requests": 10, "schema_version": 1, "simulations": 4, '
        '"stacked_batches": 2, "stacked_points": 6, "timed_out": 1, "wall_seconds": 1.5}',
    ),
    "RequestLogRecord": (lambda: _dumps(log_record_to_dict(_log_records()[0])), _LOG_RECORD_JSON),
    "request log": (
        lambda: request_log_to_json(_log_records()),
        '{"records": [' + _LOG_RECORD_JSON + ', {"arrival_seconds": 0.5, "backend": "h100", '
        '"coalesced": false, "deadline_seconds": null, "outcome": "error", "priority": 0, '
        '"queue_seconds": 0.0, "schema_version": 1, "sequence_length": 24, '
        '"service_seconds": 0.0, "ticket_id": 4, "trace_id": null}], "schema_version": 1}',
    ),
}


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_BYTES))
    def test_json_bytes_are_pinned(self, name):
        encode, expected = PINNED_BYTES[name]
        assert encode() == expected


# ------------------------------------------------------ round-trip property
_names = st.text(min_size=1, max_size=8)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_any_floats = _floats | _floats.map(np.float64)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_counts = st.integers(min_value=0, max_value=2**40)
_any_counts = _counts | _counts.map(np.int64)
_lengths = st.integers(min_value=1, max_value=100_000)
_float_maps = st.dictionaries(_names, _any_floats, max_size=4)

_wire_requests = st.builds(
    WireRequest,
    backend=_names,
    sequence_length=_lengths,
    include_recycles=st.none() | st.booleans(),
    priority=st.integers(-(2**31), 2**31),
    deadline_seconds=st.none() | _positive,
    tenant=_names,
    trace_id=st.none() | _names,
)
_sim_reports = st.builds(
    SimReport,
    backend=_names,
    sequence_length=_lengths | _lengths.map(np.int64),
    total_seconds=_any_floats,
    phase_seconds=_float_maps,
    subphase_seconds=_float_maps,
    out_of_memory=st.booleans() | st.booleans().map(np.bool_),
    details=_float_maps,
)
_stats_rows = st.builds(
    BackendServiceStats,
    backend=_names,
    requests=_any_counts,
    mean_seconds=_any_floats,
    p50_seconds=_any_floats,
    p99_seconds=_any_floats,
)
_log_record_strategy = st.builds(
    RequestLogRecord,
    ticket_id=_any_counts,
    backend=_names,
    sequence_length=_lengths | _lengths.map(np.int64),
    priority=st.integers(-(2**31), 2**31),
    deadline_seconds=st.none() | _positive,
    arrival_seconds=_any_floats,
    outcome=_names,
    coalesced=st.booleans(),
    queue_seconds=_any_floats,
    service_seconds=_any_floats,
    trace_id=st.none() | _names,
)


def _via_json(to_dict, from_dict):
    return lambda value: from_dict(json.loads(_dumps(to_dict(value))))


ROUND_TRIPS = {
    "ErrorBody": (
        st.builds(
            ErrorBody,
            code=_names,
            message=_names,
            retry_after_seconds=st.none() | _positive | _positive.map(np.float64),
        ),
        lambda body: ErrorBody.from_json(body.to_json()),
    ),
    "WireRequest": (_wire_requests, lambda request: WireRequest.from_json(request.to_json())),
    "WireResponse": (
        st.builds(
            WireResponse,
            ticket_id=_counts,
            request=_wire_requests,
            report=st.none() | _sim_reports,
            # The one string field the wire lets be empty.
            error=st.none() | st.text(max_size=8),
            coalesced=st.booleans(),
            queue_seconds=_any_floats,
            service_seconds=_any_floats,
            completed_index=st.integers(-1, 2**31),
        ),
        lambda response: WireResponse.from_json(response.to_json()),
    ),
    "SimReport": (_sim_reports, _via_json(sim_report_to_dict, sim_report_from_dict)),
    "BackendServiceStats": (_stats_rows, _via_json(backend_stats_to_dict, backend_stats_from_dict)),
    "CapacityReport": (
        st.builds(
            CapacityReport,
            requests=_any_counts,
            completed=_any_counts,
            errors=_any_counts,
            coalesced=_any_counts,
            memo_hits=_any_counts,
            simulations=_any_counts,
            queue_depth=_any_counts,
            peak_queue_depth=_any_counts,
            wall_seconds=_any_floats,
            busy_seconds=_any_floats,
            queries_per_second=_any_floats,
            backends=st.lists(_stats_rows, max_size=3).map(tuple),
            timed_out=_any_counts,
            late_results=_any_counts,
            pool_rebuilds=_any_counts,
            stacked_batches=_any_counts,
            stacked_points=_any_counts,
        ),
        _via_json(capacity_report_to_dict, capacity_report_from_dict),
    ),
    "RequestLogRecord": (_log_record_strategy, _via_json(log_record_to_dict, log_record_from_dict)),
    "request log": (
        st.lists(_log_record_strategy, max_size=3),
        lambda records: request_log_from_json(request_log_to_json(records)),
    ),
}


class TestRoundTripProperty:
    @pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_json_round_trip_is_lossless(self, name, data):
        strategy, round_trip = ROUND_TRIPS[name]
        value = data.draw(strategy)
        assert round_trip(value) == value


# ------------------------------------------------------ invalid payload table
_REQUEST = {"sequence_length": 24}
_REPORT = {"backend": "h100", "sequence_length": 24, "total_seconds": 0.5}
_ROW = {"backend": "h100", "requests": 1, "mean_seconds": 0.1, "p50_seconds": 0.1,
        "p99_seconds": 0.1}
_CAPACITY = {
    name: 0
    for name in (
        "requests", "completed", "errors", "coalesced", "memo_hits", "simulations",
        "queue_depth", "peak_queue_depth", "wall_seconds", "busy_seconds",
        "queries_per_second",
    )
}
_LOG = {"ticket_id": 0, "backend": "h100", "sequence_length": 24, "priority": 0,
        "deadline_seconds": None, "arrival_seconds": 0.0, "outcome": "ok"}
_ERROR = {"code": "x", "message": "y"}

DECODERS = {
    "ErrorBody": ErrorBody.from_dict,
    "WireRequest": WireRequest.from_dict,
    "WireResponse": WireResponse.from_dict,
    "SimReport": sim_report_from_dict,
    "BackendServiceStats": backend_stats_from_dict,
    "CapacityReport": capacity_report_from_dict,
    "RequestLogRecord": log_record_from_dict,
    "request log": lambda payload: request_log_from_json(json.dumps(payload)),
}


def _with(base, **changes):
    payload = dict(base)
    payload.update(changes)
    return payload


def _without(base, name):
    return {key: value for key, value in base.items() if key != name}


INVALID_PAYLOADS = [
    # ErrorBody
    ("ErrorBody", [], "invalid_field"),
    ("ErrorBody", _with(_ERROR, nope=1), "unknown_field"),
    ("ErrorBody", _with(_ERROR, schema_version=2), "unsupported_schema_version"),
    ("ErrorBody", _with(_ERROR, schema_version=True), "unsupported_schema_version"),
    ("ErrorBody", _without(_ERROR, "code"), "invalid_field"),
    ("ErrorBody", _with(_ERROR, code=""), "invalid_field"),
    ("ErrorBody", _with(_ERROR, message=7), "invalid_field"),
    ("ErrorBody", _with(_ERROR, retry_after_seconds=0), "invalid_field"),
    ("ErrorBody", _with(_ERROR, retry_after_seconds="1"), "invalid_field"),
    # WireRequest
    ("WireRequest", "[1]", "invalid_field"),
    ("WireRequest", {}, "missing_field"),
    ("WireRequest", _with(_REQUEST, nope=1, schema_version=2), "unknown_field"),
    ("WireRequest", {"schema_version": 2}, "unsupported_schema_version"),
    ("WireRequest", {"sequence_length": None}, "invalid_field"),
    ("WireRequest", {"sequence_length": 2.0}, "invalid_field"),
    ("WireRequest", _with(_REQUEST, backend=None), "invalid_field"),
    ("WireRequest", _with(_REQUEST, backend=""), "invalid_field"),
    ("WireRequest", _with(_REQUEST, include_recycles=1), "invalid_field"),
    ("WireRequest", _with(_REQUEST, priority=1.5), "invalid_field"),
    ("WireRequest", _with(_REQUEST, priority=True), "invalid_field"),
    ("WireRequest", _with(_REQUEST, deadline_seconds=True), "invalid_field"),
    ("WireRequest", _with(_REQUEST, deadline_seconds=0), "invalid_field"),
    ("WireRequest", _with(_REQUEST, tenant=""), "invalid_field"),
    ("WireRequest", _with(_REQUEST, trace_id=""), "invalid_field"),
    # WireResponse
    ("WireResponse", None, "invalid_field"),
    ("WireResponse", {"request": _REQUEST}, "invalid_field"),
    ("WireResponse", {"ticket_id": -1, "request": _REQUEST}, "invalid_field"),
    ("WireResponse", {"ticket_id": 0}, "missing_field"),
    ("WireResponse", {"ticket_id": 0, "request": None}, "invalid_field"),
    ("WireResponse", {"ticket_id": 0, "request": _with(_REQUEST, x=1)}, "unknown_field"),
    ("WireResponse", {"ticket_id": 0, "request": _REQUEST, "report": "x"}, "invalid_field"),
    ("WireResponse", {"ticket_id": 0, "request": _REQUEST, "report": {}}, "invalid_field"),
    ("WireResponse", {"ticket_id": 0, "request": _REQUEST,
                      "report": _with(_REPORT, schema_version=2)}, "unsupported_schema_version"),
    ("WireResponse", {"ticket_id": 0, "request": _REQUEST, "error": 5}, "invalid_field"),
    ("WireResponse", {"ticket_id": 0, "request": _REQUEST, "coalesced": 1}, "invalid_field"),
    ("WireResponse", {"ticket_id": 0, "request": _REQUEST, "queue_seconds": "0"},
     "invalid_field"),
    ("WireResponse", {"ticket_id": 0, "request": _REQUEST, "completed_index": 1.0},
     "invalid_field"),
    ("WireResponse", {"ticket_id": 0, "request": _REQUEST, "schema_version": 0},
     "unsupported_schema_version"),
    ("WireResponse", {"ticket_id": 0, "request": _REQUEST, "ok": True}, "unknown_field"),
    # Several faults: `error` is checked before the nested request.
    ("WireResponse", {"ticket_id": 0, "request": {}, "error": 5}, "invalid_field"),
    # SimReport
    ("SimReport", "report", "invalid_field"),
    ("SimReport", _with(_REPORT, extra=1), "unknown_field"),
    ("SimReport", _with(_REPORT, schema_version="1"), "unsupported_schema_version"),
    ("SimReport", _without(_REPORT, "backend"), "invalid_field"),
    ("SimReport", _without(_REPORT, "sequence_length"), "invalid_field"),
    ("SimReport", _without(_REPORT, "total_seconds"), "invalid_field"),
    ("SimReport", _with(_REPORT, sequence_length=0), "invalid_field"),
    ("SimReport", _with(_REPORT, total_seconds=None), "invalid_field"),
    ("SimReport", _with(_REPORT, phase_seconds=[]), "invalid_field"),
    ("SimReport", _with(_REPORT, phase_seconds=None), "invalid_field"),
    ("SimReport", _with(_REPORT, phase_seconds={"": 1.0}), "invalid_field"),
    ("SimReport", _with(_REPORT, subphase_seconds={"a": "x"}), "invalid_field"),
    ("SimReport", _with(_REPORT, details={"a": True}), "invalid_field"),
    ("SimReport", _with(_REPORT, out_of_memory=None), "invalid_field"),
    ("SimReport", _with(_REPORT, out_of_memory=0), "invalid_field"),
    # BackendServiceStats
    ("BackendServiceStats", [_ROW], "invalid_field"),
    ("BackendServiceStats", _with(_ROW, schema_version=1), "unknown_field"),
    ("BackendServiceStats", _with(_ROW, requests=-1), "invalid_field"),
    ("BackendServiceStats", _with(_ROW, requests=1.0), "invalid_field"),
    ("BackendServiceStats", _without(_ROW, "mean_seconds"), "invalid_field"),
    ("BackendServiceStats", _with(_ROW, p99_seconds=False), "invalid_field"),
    ("BackendServiceStats", _with(_ROW, backend=""), "invalid_field"),
    # CapacityReport
    ("CapacityReport", 3, "invalid_field"),
    ("CapacityReport", _with(_CAPACITY, extra=0), "unknown_field"),
    ("CapacityReport", _with(_CAPACITY, schema_version=2), "unsupported_schema_version"),
    ("CapacityReport", _with(_CAPACITY, backends="x"), "invalid_field"),
    ("CapacityReport", _with(_CAPACITY, backends=None), "invalid_field"),
    ("CapacityReport", _with(_CAPACITY, backends=[_with(_ROW, schema_version=1)]),
     "unknown_field"),
    ("CapacityReport", _with(_CAPACITY, backends=["row"]), "invalid_field"),
    ("CapacityReport", _with(_CAPACITY, requests="1"), "invalid_field"),
    ("CapacityReport", _with(_CAPACITY, timed_out=None), "invalid_field"),
    ("CapacityReport", _with(_CAPACITY, wall_seconds=True), "invalid_field"),
    # Several faults: every scalar is checked before the rows.
    ("CapacityReport", _with(_CAPACITY, backends=[_with(_ROW, x=1)], stacked_points="1"),
     "invalid_field"),
    # RequestLogRecord
    ("RequestLogRecord", (), "invalid_field"),
    ("RequestLogRecord", _with(_LOG, tenant="t"), "unknown_field"),
    ("RequestLogRecord", _with(_LOG, schema_version=None), "unsupported_schema_version"),
    ("RequestLogRecord", _without(_LOG, "ticket_id"), "invalid_field"),
    ("RequestLogRecord", _without(_LOG, "backend"), "invalid_field"),
    ("RequestLogRecord", _with(_LOG, ticket_id=-1), "invalid_field"),
    ("RequestLogRecord", _with(_LOG, sequence_length=0), "invalid_field"),
    ("RequestLogRecord", _with(_LOG, deadline_seconds=0.0), "invalid_field"),
    ("RequestLogRecord", _with(_LOG, deadline_seconds="1"), "invalid_field"),
    ("RequestLogRecord", _with(_LOG, arrival_seconds=None), "invalid_field"),
    ("RequestLogRecord", _with(_LOG, outcome=""), "invalid_field"),
    ("RequestLogRecord", _with(_LOG, coalesced="yes"), "invalid_field"),
    ("RequestLogRecord", _with(_LOG, trace_id=5), "invalid_field"),
    # the request-log envelope
    ("request log", [], "invalid_field"),
    ("request log", {"records": {}}, "invalid_field"),
    ("request log", {"records": [], "extra": 1}, "unknown_field"),
    ("request log", {"records": [], "schema_version": 2}, "unsupported_schema_version"),
    ("request log", {"records": [_without(_LOG, "backend")]}, "invalid_field"),
    ("request log", {"records": [_with(_LOG, extra=1)]}, "unknown_field"),
]

INVALID_JSON = {
    "ErrorBody": ErrorBody.from_json,
    "WireRequest": WireRequest.from_json,
    "WireResponse": WireResponse.from_json,
    "request log": request_log_from_json,
}


class TestInvalidPayloads:
    @pytest.mark.parametrize(
        "name, payload, code",
        INVALID_PAYLOADS,
        ids=[f"{name}-{index}" for index, (name, _p, _c) in enumerate(INVALID_PAYLOADS)],
    )
    def test_error_code_is_pinned(self, name, payload, code):
        with pytest.raises(WireFormatError) as excinfo:
            DECODERS[name](payload)
        assert excinfo.value.code == code

    @pytest.mark.parametrize("name", sorted(INVALID_JSON))
    @pytest.mark.parametrize("text", ["{not json", b"\xff\xfe", ""])
    def test_malformed_json(self, name, text):
        with pytest.raises(WireFormatError) as excinfo:
            INVALID_JSON[name](text)
        assert excinfo.value.code == "invalid_json"


class TestFacade:
    def test_create_service_factory(self, tiny_config):
        from repro.serving import create_service

        with create_service(
            ppm_config=tiny_config, use_disk_cache=False, autostart=False
        ) as service:
            ticket = service.submit(("lightnobel", 24))
            service.start()
            assert service.result(ticket, timeout=120.0).ok

    def test_create_trace_factory(self):
        from repro.cluster import TRACE_GENERATORS, create_trace, poisson_trace

        assert set(TRACE_GENERATORS) == {"poisson", "bursty", "diurnal"}
        via_factory = create_trace(
            "poisson", rate_rps=10.0, num_requests=8, length_pool=(24, 48), seed=5
        )
        direct = poisson_trace(rate_rps=10.0, num_requests=8, length_pool=(24, 48), seed=5)
        assert via_factory.config_digest() == direct.config_digest()

    def test_create_trace_unknown_kind(self):
        from repro.cluster import create_trace

        with pytest.raises(ValueError, match="unknown trace kind"):
            create_trace("sawtooth", rate_rps=1.0, num_requests=1, length_pool=(24,))

    def test_serving_facade_exports_wire_types(self):
        import repro.serving as serving

        for name in ("WireRequest", "WireResponse", "ErrorBody", "WireFormatError",
                     "SCHEMA_VERSION", "create_service"):
            assert name in serving.__all__

    def test_unknown_attribute_still_raises(self):
        import repro.serving as serving

        with pytest.raises(AttributeError):
            serving.definitely_not_a_name
