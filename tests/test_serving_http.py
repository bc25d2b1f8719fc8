"""End-to-end socket tests for the HTTP front door.

Everything here goes through real TCP connections against a
:func:`repro.serving.http.serve_in_thread` server (stdlib ``http.client``
for plain request/response, the package's own async client for streaming):
submit/poll parity with a direct simulation session, malformed-body 400s,
per-tenant backpressure 429s, priority ordering observed on the wire,
``/metrics`` parity with ``ServiceStats``, the 410-Gone reap path, and a
subprocess SIGTERM test proving shutdown drains in-flight tickets.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import http.client

import pytest

from repro.ppm import PPMConfig
from repro.serving import LatencyService, WireRequest, WireResponse
from repro.serving.http import FrontDoorClient, serve_in_thread
from repro.serving.wire import request_log_from_json
from repro.sim import SimulationSession

TIMEOUT = 120.0


def call(
    handle, method: str, path: str, body=None
):
    """One plain-HTTP round trip; returns (status, headers dict, parsed JSON)."""
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=TIMEOUT)
    try:
        payload = None if body is None else json.dumps(body).encode()
        if isinstance(body, (str, bytes)):
            payload = body if isinstance(body, bytes) else body.encode()
        conn.request(method, path, payload, {"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        parsed = json.loads(raw) if raw else None
        return response.status, dict(response.getheaders()), parsed
    finally:
        conn.close()


@pytest.fixture(scope="module")
def door():
    """One shared front door (owned tiny-config service) for read-mostly tests."""
    handle = serve_in_thread(
        ppm_config=PPMConfig.tiny(), use_disk_cache=False, max_pending_per_tenant=64
    )
    yield handle
    report = handle.stop(drain=True)
    assert report["unfulfilled"] == 0


class TestSubmitPoll:
    def test_submit_then_result_matches_direct_session(self, door):
        status, _, payload = call(
            door, "POST", "/v1/submit", {"backend": "lightnobel", "sequence_length": 24}
        )
        assert status == 202
        ticket = payload["ticket_id"]
        status, _, payload = call(door, "GET", f"/v1/result/{ticket}?wait_seconds=60")
        assert status == 200
        response = WireResponse.from_dict(payload)
        assert response.ok and response.ticket_id == ticket
        direct = SimulationSession(
            ppm_config=PPMConfig.tiny(), use_disk_cache=False
        ).simulate(24, backend="lightnobel")
        assert response.report.total_seconds == direct.total_seconds

    def test_consumed_ticket_is_gone(self, door):
        _, _, payload = call(door, "POST", "/v1/submit", {"sequence_length": 24})
        ticket = payload["ticket_id"]
        status, _, _ = call(door, "GET", f"/v1/result/{ticket}?wait_seconds=60")
        assert status == 200
        status, _, payload = call(door, "GET", f"/v1/result/{ticket}")
        assert status == 404
        assert payload["code"] == "already_consumed"

    def test_unknown_ticket_404(self, door):
        status, _, payload = call(door, "GET", "/v1/result/999999")
        assert status == 404
        assert payload["code"] == "unknown_ticket"

    def test_pending_poll_returns_202_with_retry_after(self, door):
        # wait_seconds=0 on a fresh ticket races fulfillment; a staged
        # service would be deterministic but the 202 shape matters more here.
        _, _, payload = call(door, "POST", "/v1/submit", {"sequence_length": 40})
        ticket = payload["ticket_id"]
        status, headers, payload = call(door, "GET", f"/v1/result/{ticket}")
        if status == 202:
            assert payload["status"] == "pending"
            assert "Retry-After" in headers
            status, _, _ = call(door, "GET", f"/v1/result/{ticket}?wait_seconds=60")
        assert status == 200

    def test_query_is_synchronous(self, door):
        status, _, payload = call(
            door, "POST", "/v1/query", {"backend": "h100", "sequence_length": 24}
        )
        assert status == 200
        response = WireResponse.from_dict(payload)
        assert response.ok
        assert response.request.backend == "h100"

    def test_healthz(self, door):
        status, _, payload = call(door, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"


class TestStream:
    def test_batch_then_stream_collects_everything(self, door):
        requests = [
            WireRequest(backend="lightnobel", sequence_length=n, tenant="stream")
            for n in (24, 32, 40, 48, 56)
        ]

        async def go():
            async with FrontDoorClient(door.host, door.port) as client:
                tickets = await client.submit_batch(requests)
                results = []
                async for item in client.stream_results(tickets):
                    results.append(item)
                return tickets, results

        tickets, results = asyncio.run(go())
        assert len(tickets) == len(requests)
        assert all(isinstance(r, WireResponse) and r.ok for r in results)
        assert {r.ticket_id for r in results} == set(tickets)
        assert {r.request.sequence_length for r in results} == {24, 32, 40, 48, 56}

    def test_stream_reports_unknown_tickets_inline(self, door):
        from repro.serving import ErrorBody

        async def go():
            async with FrontDoorClient(door.host, door.port) as client:
                return [item async for item in client.stream_results([987654])]

        (item,) = asyncio.run(go())
        assert isinstance(item, ErrorBody)
        assert item.code == "unknown_ticket"


class TestValidation:
    @pytest.mark.parametrize(
        "body, code",
        [
            ("{not valid json", "invalid_json"),
            ('{"backend": "lightnobel"}', "missing_field"),
            ('{"sequence_length": 24, "surprise": true}', "unknown_field"),
            ('{"sequence_length": 24, "schema_version": 42}', "unsupported_schema_version"),
            ('{"sequence_length": 0}', "invalid_field"),
            ('{"sequence_length": 24, "priority": "high"}', "invalid_field"),
        ],
    )
    def test_malformed_submit_is_400(self, door, body, code):
        status, _, payload = call(door, "POST", "/v1/submit", body)
        assert status == 400
        assert payload["code"] == code

    def test_batch_requires_requests_list(self, door):
        status, _, payload = call(door, "POST", "/v1/batch", {"requests": "nope"})
        assert status == 400
        assert payload["code"] == "invalid_field"

    def test_malformed_batch_is_invalid_json(self, door):
        status, _, payload = call(door, "POST", "/v1/batch", "{not json")
        assert status == 400
        assert payload["code"] == "invalid_json"

    def test_unknown_route_404(self, door):
        status, _, payload = call(door, "GET", "/v2/nothing")
        assert status == 404
        assert payload["code"] == "not_found"


class TestBackpressure:
    def test_tenant_quota_yields_429_with_retry_after(self, tiny_config):
        # Staged service: the dispatcher is not running, so pending requests
        # accumulate deterministically against the tenant bound.
        service = LatencyService(
            ppm_config=tiny_config, use_disk_cache=False, autostart=False
        )
        handle = serve_in_thread(service=service, max_pending_per_tenant=2)
        try:
            for n in (24, 32):
                status, _, _ = call(
                    handle, "POST", "/v1/submit",
                    {"sequence_length": n, "tenant": "greedy"},
                )
                assert status == 202
            status, headers, payload = call(
                handle, "POST", "/v1/submit",
                {"sequence_length": 40, "tenant": "greedy"},
            )
            assert status == 429
            assert payload["code"] == "backpressure"
            assert payload["retry_after_seconds"] > 0
            assert float(headers["Retry-After"]) > 0
            # Per-tenant isolation: another tenant is still admitted.
            status, _, _ = call(
                handle, "POST", "/v1/submit",
                {"sequence_length": 40, "tenant": "patient"},
            )
            assert status == 202
            # Quota frees on fulfillment, not on claim.
            service.start()
            deadline = time.time() + TIMEOUT
            while time.time() < deadline:
                _, _, metrics = call(handle, "GET", "/metrics")
                if metrics["http"]["pending"] == 0:
                    break
                time.sleep(0.02)
            status, _, _ = call(
                handle, "POST", "/v1/submit",
                {"sequence_length": 48, "tenant": "greedy"},
            )
            assert status == 202
        finally:
            handle.stop(drain=True)
            service.close()

    def test_batch_admission_is_all_or_nothing(self, tiny_config):
        service = LatencyService(
            ppm_config=tiny_config, use_disk_cache=False, autostart=False
        )
        handle = serve_in_thread(service=service, max_pending_per_tenant=3)
        try:
            body = {
                "requests": [
                    {"sequence_length": n, "tenant": "batcher"} for n in (24, 32, 40, 48)
                ]
            }
            status, _, payload = call(handle, "POST", "/v1/batch", body)
            assert status == 429
            _, _, metrics = call(handle, "GET", "/metrics")
            # Nothing was half-admitted.
            assert metrics["http"]["pending"] == 0
            body["requests"] = body["requests"][:3]
            status, _, payload = call(handle, "POST", "/v1/batch", body)
            assert status == 202
            assert len(payload["ticket_ids"]) == 3
        finally:
            service.start()
            handle.stop(drain=True)
            service.close()


class TestPriorityOnTheWire:
    def test_priority_order_observed_in_completed_index(self, tiny_config):
        service = LatencyService(
            ppm_config=tiny_config, use_disk_cache=False, autostart=False, max_batch=1
        )
        handle = serve_in_thread(service=service, max_pending_per_tenant=64)
        try:
            low = []
            for n in (24, 32, 40):
                _, _, payload = call(
                    handle, "POST", "/v1/submit",
                    {"backend": "lightnobel", "sequence_length": n},
                )
                low.append(payload["ticket_id"])
            _, _, payload = call(
                handle, "POST", "/v1/submit",
                {"backend": "h100", "sequence_length": 24, "priority": 3},
            )
            high = payload["ticket_id"]
            service.start()
            responses = {}
            for ticket in low + [high]:
                status, _, payload = call(
                    handle, "GET", f"/v1/result/{ticket}?wait_seconds=60"
                )
                assert status == 200
                responses[ticket] = WireResponse.from_dict(payload)
            # Submitted last, dispatched first — visible on the wire.
            assert responses[high].completed_index < min(
                responses[t].completed_index for t in low
            )
            low_order = [responses[t].completed_index for t in low]
            assert low_order == sorted(low_order)
        finally:
            handle.stop(drain=True)
            service.close()


class TestMetricsAndLog:
    def test_metrics_parity_with_service_stats(self, tiny_config):
        service = LatencyService(ppm_config=tiny_config, use_disk_cache=False)
        handle = serve_in_thread(service=service)
        try:
            for n in (24, 32, 40):
                status, _, _ = call(
                    handle, "POST", "/v1/query", {"sequence_length": n}
                )
                assert status == 200
            _, _, metrics = call(handle, "GET", "/metrics")
            snap = service.stats.snapshot()
            for key in ("submitted", "completed", "errors", "coalesced", "simulations"):
                assert metrics["service"][key] == snap[key]
            report = service.capacity_report()
            assert metrics["capacity"]["completed"] == report.completed
            assert metrics["capacity"]["requests"] == report.requests
            served = {row["backend"] for row in metrics["capacity"]["backends"]}
            assert "lightnobel" in served
            assert metrics["http"]["consumed"] == 3
            assert metrics["http"]["pending"] == 0
            assert metrics["http"]["draining"] is False
        finally:
            handle.stop(drain=True)
            service.close()

    def test_log_round_trip_is_digest_stable(self, tiny_config):
        from repro.cluster import RequestTrace

        service = LatencyService(ppm_config=tiny_config, use_disk_cache=False)
        handle = serve_in_thread(service=service)
        try:
            for n in (24, 32):
                call(
                    handle, "POST", "/v1/query",
                    {"sequence_length": n, "deadline_seconds": 30.0},
                )
            status, _, payload = call(handle, "GET", "/v1/log")
            assert status == 200
            records = request_log_from_json(json.dumps(payload))
            assert len(records) == 2
            first = RequestTrace.from_serving_log(records)
            second = RequestTrace.from_serving_log(records)
            assert first.config_digest() == second.config_digest()
            assert len(first) == 2
        finally:
            handle.stop(drain=True)
            service.close()


class TestReap:
    def test_unclaimed_ticket_becomes_410_gone(self, tiny_config):
        service = LatencyService(ppm_config=tiny_config, use_disk_cache=False)
        # reap_after_seconds=0: fulfilled-unclaimed tickets are immediately
        # overdue once a reap pass runs (explicit POST /v1/reap here).
        handle = serve_in_thread(service=service, reap_after_seconds=0.0)
        try:
            _, _, payload = call(handle, "POST", "/v1/submit", {"sequence_length": 24})
            ticket = payload["ticket_id"]
            deadline = time.time() + TIMEOUT
            while time.time() < deadline:
                _, _, metrics = call(handle, "GET", "/metrics")
                if metrics["http"]["fulfilled_unclaimed"] >= 1:
                    break
                time.sleep(0.02)
            status, _, payload = call(handle, "POST", "/v1/reap")
            assert status == 200
            assert ticket in payload["reaped"]
            status, _, payload = call(handle, "GET", f"/v1/result/{ticket}")
            assert status == 410
            assert payload["code"] == "reaped"
            # The reap consumed the ticket service-side too (not a drop):
            # the response was completed and the ticket table is empty.
            report = service.capacity_report()
            assert report.completed == 1
            _, _, metrics = call(handle, "GET", "/metrics")
            assert metrics["http"]["reaped"] == 1
            assert metrics["http"]["fulfilled_unclaimed"] == 0
        finally:
            handle.stop(drain=True)
            service.close()


class TestShutdownDrains:
    def test_sigterm_drains_in_flight_tickets(self, tmp_path):
        """``python -m repro.serving.http`` exits 0 with zero unfulfilled tickets."""
        env = dict(os.environ)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serving.http",
                "--ppm", "tiny", "--port", "0", "--claim-grace-seconds", "0.2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("listening "), line
            _, host, port = line.split()
            conn = http.client.HTTPConnection(host, int(port), timeout=TIMEOUT)
            tickets = []
            for n in (24, 32, 40, 48):
                conn.request(
                    "POST", "/v1/submit",
                    json.dumps({"sequence_length": n}).encode(),
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 202
                tickets.append(json.loads(response.read())["ticket_id"])
            conn.close()
            # SIGTERM lands while tickets are (potentially) in flight; the
            # server must fulfill all of them before exiting.
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        drain_lines = [l for l in out.splitlines() if l.startswith("drain ")]
        assert drain_lines, out
        report = json.loads(drain_lines[-1][len("drain "):])
        assert report["unfulfilled"] == 0
        assert report["pending_at_shutdown"] + report["unclaimed"] + report[
            "consumed"
        ] >= 0  # shape check: all counters present
        assert report["unclaimed"] == len(tickets)  # nothing was claimed, nothing lost
