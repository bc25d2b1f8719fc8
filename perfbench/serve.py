"""Workload ``serve-http-warm``: open-loop HTTP traffic on a warm server.

A paper-config ``python -m repro.serving.http`` server runs in its own
process.  This process is the only client: it opens at most ``nproc`` (and
at most two) keep-alive connections and replays a seeded Poisson schedule
over the ``bench_serving`` keys (3 backends x 3 lengths).  Every key is
priced during set-up, so the measured path is HTTP framing, the JSON wire
codec, ``LatencyService`` dispatch and the session memo: no op-table build
and no pricing.

The loop is open: request *i* is due at its scheduled time whether or not
earlier ones finished.  A request waits for a free connection when both are
busy, and its latency runs from when it was due to when its response
arrived, so queueing and client stalls are counted.  How late the client
itself sent (sleep overshoot, interpreter lock) is reported separately as
``loadgen.late_p99_ms``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import (
    ROOT,
    Deadline,
    NoSpans,
    Outcome,
    child_env,
    median,
    proc_peak_rss_mb,
    quantile,
    tail_quantile,
)
from repro.ppm.config import PPMConfig
from repro.serving import LatencyService
from repro.serving.wire import WireRequest, WireResponse, sim_report_to_dict
from repro.sim import SimulationSession

BACKENDS = ("lightnobel", "h100", "h100-chunk")
LENGTHS = (200, 400, 800)
KEYS = tuple((backend, n) for backend in BACKENDS for n in LENGTHS)
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

#: Offered rates of the two latency measurements: light load, and about
#: half of the saturation rate of a 2-core host.
NOMINAL_RPS = 300.0
LOADED_RPS = 1200.0
#: Latency limit on the tail percentile that defines the sustainable rate.
TAIL_LIMIT_MS = 25.0
#: Rates tried while searching for the highest rate that meets the limit.
COARSE_RPS = (400.0, 800.0, 1600.0, 3200.0)
BISECT_STEPS = 3
RUNG_SECONDS = 1.0
#: Wall time the rate search needs at most (coarse rungs plus bisection).
SEARCH_BUDGET_S = (len(COARSE_RPS) + BISECT_STEPS) * (RUNG_SECONDS + 0.2)
WARMUP_REQUESTS = 300
SETUPS = 3
SOCKET_TIMEOUT_S = 60.0

#: Per-layer metrics of this workload and the end-to-end metric each should
#: move.  This workload is run by hand (see ``run.py``); on the listed
#: workloads these layers should move nothing.
LAYERS = {
    "serving.http.overhead_us": "main_ms, second_ms on serve-http-warm",
    "serving.wire.decode_us": "main_ms, second_ms on serve-http-warm",
    "serving.wire.encode_us": "main_ms, second_ms on serve-http-warm",
    "serving.service.query_us": "main_ms, second_ms on serve-http-warm",
    "sim.session.memo_hit_us": "main_ms, second_ms on serve-http-warm",
    "serving.memo_hit_ratio": "main_ms, second_ms on serve-http-warm",
    "serving.coalesced": "main_ms, second_ms on serve-http-warm",
    "serving.peak_queue_depth": "main_ms, second_ms on serve-http-warm",
    "serving.http.rejected_429": "main_ms, second_ms on serve-http-warm",
    "loadgen.late_p99_ms": "none: client lateness, not server latency",
}


# ---------------------------------------------------------------- HTTP client
class HttpConnection:
    """One blocking keep-alive HTTP/1.1 connection (Content-Length bodies)."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=SOCKET_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.sock.sendall(head + body)
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head_bytes, _, rest = self.buffer.partition(b"\r\n\r\n")
        lines = head_bytes.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        self.buffer = rest
        while len(self.buffer) < length:
            self._fill()
        payload, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, payload

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


# --------------------------------------------------------------------- server
class Server:
    """``python -m repro.serving.http --ppm paper`` in a child process."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serving.http",
                "--ppm",
                "paper",
                "--max-pending-per-tenant",
                "100000",
                "--max-pending-total",
                "100000",
                "--claim-grace-seconds",
                "0.2",
            ],
            cwd=str(ROOT),
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self._line("listening", 60.0)
        if line is None:
            self.kill()
            raise RuntimeError("server did not report its listening address")
        _, self.host, port = line.split()
        self.port = int(port)

    def _line(self, prefix: str, timeout: float) -> Optional[str]:
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            ready, _, _ = select.select([self.proc.stdout], [], [], end - time.monotonic())
            if not ready:
                break
            line = self.proc.stdout.readline()
            if not line:
                return None
            if line.startswith(prefix):
                return line.strip()
        return None

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> Dict[str, Any]:
        """SIGTERM, wait for the drain report, reap the process."""
        self.proc.send_signal(signal.SIGTERM)
        line = self._line("drain ", 60.0)
        try:
            self.proc.wait(timeout=30.0)
        finally:
            self.kill()
        if line is None:
            return {"unfulfilled": -1}
        report = json.loads(line[len("drain "):])
        report["exit_code"] = self.proc.returncode
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30.0)
        self.proc.stdout.close()


def _bodies() -> List[bytes]:
    return [
        WireRequest(backend=backend, sequence_length=n, tenant="bench").to_json().encode()
        for backend, n in KEYS
    ]


def _expected_reports() -> List[Any]:
    """Each key priced directly by a fresh ``SimulationSession``, as wire JSON."""
    session = SimulationSession(ppm_config=PPMConfig.paper(), use_disk_cache=False)
    return [
        json.loads(json.dumps(sim_report_to_dict(session.simulate(n, backend=backend))))
        for backend, n in KEYS
    ]


# ------------------------------------------------------------------ open loop
def poisson_schedule(rng: random.Random, rate: float, count: int) -> List[Tuple[float, int]]:
    """``count`` (due offset seconds, key index) pairs at Poisson ``rate``."""
    out, clock = [], 0.0
    for _ in range(count):
        clock += rng.expovariate(rate)
        out.append((clock, rng.randrange(len(KEYS))))
    return out


def open_loop(
    server: Server,
    schedule: Sequence[Tuple[float, int]],
    bodies: Sequence[bytes],
    spans=NoSpans(),
) -> List[Tuple[float, float, int, bytes]]:
    """Replay ``schedule``; per request (latency s, lateness s, status, body).

    Each connection thread takes the next request in due order, sleeps until
    it is due, sends it and waits for the response.
    """
    start = time.perf_counter() + 0.01
    due = [start + offset for offset, _ in schedule]
    results: List[Any] = [None] * len(schedule)
    order = itertools.count()

    def connection() -> None:
        conn = HttpConnection(server.host, server.port)
        ready = time.perf_counter()
        try:
            while True:
                i = next(order)
                if i >= len(schedule):
                    return
                wait = due[i] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                try:
                    with spans.span("serving.http.request"):
                        status, body = conn.request(
                            "POST", "/v1/query", bodies[schedule[i][1]]
                        )
                except OSError:
                    status, body = -1, b""
                    conn.close()
                    conn = HttpConnection(server.host, server.port)
                done = time.perf_counter()
                results[i] = (done - due[i], sent - max(due[i], ready), status, body)
                ready = done
        finally:
            conn.close()

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=SOCKET_TIMEOUT_S + due[-1] - time.perf_counter())
        if thread.is_alive():
            raise RuntimeError("open-loop connection thread did not finish")
    return results


def _grade(results, schedule, expected, outcome: Outcome) -> List[float]:
    """Count failures (HTTP error or wrong report); return latencies, ms."""
    latencies = []
    for (latency, _late, status, body), (_offset, key) in zip(results, schedule):
        outcome.attempted += 1
        ok = status == 200 and json.loads(body)["report"] == expected[key]
        outcome.check("http_reports_equal_direct_session", ok)
        if not ok:
            outcome.failed += 1
        latencies.append(latency * 1e3)
    return latencies


def _tail(latencies: Sequence[float]) -> Tuple[str, float]:
    """(name, value) of the highest percentile with ten samples beyond it."""
    q = tail_quantile(len(latencies))
    return f"p{round(q * 100)}", round(quantile(latencies, q), 3)


def _rung(server, rng, rate, bodies, expected, outcome) -> float:
    """Offer ``rate`` for one rung; return its tail latency, ms.

    A backlog that grows over the rung (completions falling behind the
    offered rate) counts as missing the limit.
    """
    count = max(300, int(rate * RUNG_SECONDS))
    schedule = poisson_schedule(rng, rate, count)
    results = open_loop(server, schedule, bodies)
    latencies = _grade(results, schedule, expected, outcome)
    tail = quantile(latencies, tail_quantile(len(latencies)))
    last_quarter = latencies[-max(1, count // 4):]
    if median(last_quarter) > TAIL_LIMIT_MS:
        tail = max(tail, median(last_quarter))
    return tail


def max_sustainable_rps(server, rng, bodies, expected, outcome) -> Tuple[float, List]:
    """Highest offered rate whose tail latency meets ``TAIL_LIMIT_MS``.

    Doubles the rate until a rung misses the limit, bisects the bracket,
    then interpolates linearly in tail latency inside the final bracket.
    """
    rungs = []
    low, low_tail, high, high_tail = None, None, None, None
    for rate in COARSE_RPS:
        tail = _rung(server, rng, rate, bodies, expected, outcome)
        rungs.append((rate, tail))
        if tail <= TAIL_LIMIT_MS:
            low, low_tail = rate, tail
        else:
            high, high_tail = rate, tail
            break
    if high is None:
        return low, rungs
    if low is None:
        return high * TAIL_LIMIT_MS / high_tail, rungs
    for _ in range(BISECT_STEPS):
        rate = (low + high) / 2.0
        tail = _rung(server, rng, rate, bodies, expected, outcome)
        rungs.append((rate, tail))
        if tail <= TAIL_LIMIT_MS:
            low, low_tail = rate, tail
        else:
            high, high_tail = rate, tail
    fraction = (TAIL_LIMIT_MS - low_tail) / max(high_tail - low_tail, 1e-9)
    return low + (high - low) * min(1.0, max(0.0, fraction)), rungs


# ------------------------------------------------------------- in-process arm
def _in_process_layers(schedule, bodies, results, spans) -> None:
    """Time the layers under the socket path on the same request sequence."""
    session = SimulationSession(ppm_config=PPMConfig.paper(), use_disk_cache=False)
    with LatencyService(ppm_config=PPMConfig.paper(), use_disk_cache=False) as service:
        for backend, n in KEYS:
            session.simulate(n, backend=backend)
            service.query(backend, n, timeout=600.0)
        for _offset, key in schedule:
            backend, n = KEYS[key]
            with spans.span("serving.service.query"):
                service.query(backend, n, timeout=600.0)
    for _offset, key in schedule:
        backend, n = KEYS[key]
        with spans.span("sim.session.memo_hit"):
            session.simulate(n, backend=backend)
    texts = [body.decode() for body in bodies]
    for _offset, key in schedule:
        with spans.span("serving.wire.decode"):
            WireRequest.from_json(texts[key])
    responses = [WireResponse.from_json(body) for _l, _t, _s, body in results]
    for response in responses:
        with spans.span("serving.wire.encode"):
            response.to_json()


def _service_counters(server: Server) -> Dict[str, Any]:
    conn = HttpConnection(server.host, server.port)
    try:
        status, body = conn.request("GET", "/metrics")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET /metrics returned {status}")
    return json.loads(body)["service"]


# ------------------------------------------------------------------- workload
def run(seed: int, seconds: float, spans=NoSpans(), probe: bool = False) -> Outcome:
    """One pass of the workload; ``probe`` keeps only what the layers need."""
    outcome = Outcome()
    rng = random.Random(seed)
    bodies = _bodies()
    expected = _expected_reports()
    deadline = Deadline(seconds)

    setup_s, drains, rss = [], [], []
    server = None
    for attempt in range(1 if probe else SETUPS):
        started = time.perf_counter()
        with spans.span("serve.setup"):
            server = Server()
            try:
                conn = HttpConnection(server.host, server.port)
                for key, body in enumerate(bodies):
                    status, payload = conn.request("POST", "/v1/query", body)
                    outcome.check(
                        "http_reports_equal_direct_session",
                        status == 200 and json.loads(payload)["report"] == expected[key],
                    )
                conn.close()
            except BaseException:
                server.kill()
                raise
        setup_s.append(time.perf_counter() - started)
        if attempt < (0 if probe else SETUPS - 1):
            rss.append(server.peak_rss_mb())
            drains.append(server.stop())

    try:
        open_loop(server, poisson_schedule(rng, NOMINAL_RPS, WARMUP_REQUESTS), bodies)
        phase_s = max(2.0, deadline.left() - (0.0 if probe else SEARCH_BUDGET_S))
        count = max(500, int(NOMINAL_RPS * phase_s * (1.0 if probe else 0.6)))
        schedule = poisson_schedule(rng, NOMINAL_RPS, count)
        before = _service_counters(server)
        with spans.span("serve.nominal"):
            results = open_loop(server, schedule, bodies, spans)
        after = _service_counters(server)
        latencies = _grade(results, schedule, expected, outcome)
        outcome.e2e["main_ms"] = (median(latencies), len(latencies))
        tails = {NOMINAL_RPS: _tail(latencies)}
        rungs = []
        if not probe:
            loaded_schedule = poisson_schedule(rng, LOADED_RPS, int(LOADED_RPS * phase_s * 0.4))
            with spans.span("serve.loaded"):
                loaded = _grade(
                    open_loop(server, loaded_schedule, bodies), loaded_schedule, expected, outcome
                )
            outcome.e2e["second_ms"] = (median(loaded), len(loaded))
            tails[LOADED_RPS] = _tail(loaded)
            with spans.span("serve.search"):
                max_rps, rungs = max_sustainable_rps(server, rng, bodies, expected, outcome)
        rss.append(server.peak_rss_mb())
    finally:
        drains.append(server.stop())

    for drain in drains:
        outcome.check("drain_unfulfilled_zero", drain.get("unfulfilled") == 0)
    outcome.e2e["setup_s"] = (median(setup_s), len(setup_s))
    outcome.e2e["peak_rss_mb"] = (max(rss), len(rss))
    outcome.context = {
        "loop": "open",
        "process": "server in its own process, one client process",
        "connections": CONNECTIONS,
        "nominal_rps": NOMINAL_RPS,
        "loaded_rps": LOADED_RPS,
        "nominal_requests": len(schedule),
        "tail_ms_by_rate": {rate: list(tail) for rate, tail in tails.items()},
        "tail_limit_ms": TAIL_LIMIT_MS,
        "max_sustainable_rps": None if probe else round(max_rps, 1),
        "search_rungs_rps_tail_ms": [(round(r, 1), round(t, 3)) for r, t in rungs],
        "keys": [f"{backend}@{n}" for backend, n in KEYS],
    }

    if spans.enabled:
        with spans.span("serve.in_process"):
            _in_process_layers(schedule, bodies, results, spans)
        own = spans.self_seconds()
        in_process_us = median(own["serving.service.query"]) * 1e6
        delta = {k: after[k] - before[k] for k in ("submitted", "memo_hits", "coalesced")}
        outcome.layers.update(
            {
                "serving.http.overhead_us": median(latencies) * 1e3 - in_process_us,
                "serving.wire.decode_us": median(own["serving.wire.decode"]) * 1e6,
                "serving.wire.encode_us": median(own["serving.wire.encode"]) * 1e6,
                "serving.service.query_us": in_process_us,
                "sim.session.memo_hit_us": median(own["sim.session.memo_hit"]) * 1e6,
                "serving.memo_hit_ratio": delta["memo_hits"] / max(1, delta["submitted"]),
                "serving.coalesced": delta["coalesced"],
                "serving.peak_queue_depth": after["peak_queue_depth"],
                "serving.http.rejected_429": sum(1 for r in results if r[2] == 429),
                "loadgen.late_p99_ms": quantile([r[1] for r in results], 0.99) * 1e3,
            }
        )
    return outcome
