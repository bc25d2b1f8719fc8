"""Perf guard: observability must ride the warm serving path at <= 5% cost.

The tracing hot path is one flat tuple per fulfilled request, recorded for
the whole dispatcher batch under one lock
(:meth:`repro.obs.tracing.Tracer.record_deferred`); this benchmark holds it
to that promise.  One warm paper-config service serves the multi-tenant
request stream of ``bench_serving`` once per round, in ``PAIRS`` pairs of
one tracer-off and one tracer-on round.  The two modes alternate which runs
first, so warm-up and allocator state favour neither.  A round is timed in
process CPU seconds, which a neighbour taking the CPU does not inflate, and
the guard takes the median over pairs of the on/off ratio: the two rounds of
a pair run back to back, so slower drift on a shared host cancels within
each pair.  That median must stay within the 5% CI budget.  Emits
``BENCH_obs_overhead.json``.

The DES timeline recorder is measured the same way (micro replay with and
without a recorder attached) and reported alongside — informational, since
a replay is an offline analysis, not a serving hot path.
"""

import statistics
import time

from conftest import emit_bench_json, print_table

from repro.cluster import FleetSpec, Request, RequestTrace, replay_trace_outcomes
from repro.obs.timeline import TimelineRecorder
from repro.obs.tracing import Tracer
from repro.serving import LatencyRequest, LatencyService

#: Relative warm-path slowdown the tracer is allowed (the CI guard).
MAX_TRACING_OVERHEAD = 0.05

SEQUENCE_LENGTHS = (200, 400, 800)
BACKENDS = ("lightnobel", "h100", "h100-chunk")
DUPLICATION = 8
#: Interleaved (tracer off, tracer on) round pairs; a round serves the
#: request stream once.
PAIRS = 600


def request_stream():
    unique = [
        LatencyRequest(backend=backend, sequence_length=n)
        for backend in BACKENDS
        for n in SEQUENCE_LENGTHS
    ]
    return unique * DUPLICATION


def test_tracing_overhead_on_warm_path(paper_config):
    requests = request_stream()
    tracer = Tracer(max_traces=256)
    with LatencyService(ppm_config=paper_config, use_disk_cache=False) as service:
        service.query_batch(requests, timeout=600.0)  # warm the memo first

        def one_round(traced: bool) -> float:
            service.tracer = tracer if traced else None
            start = time.process_time()
            service.query_batch(requests, timeout=600.0)
            return time.process_time() - start

        times = {False: [], True: []}
        for pair in range(PAIRS):
            # Alternate which mode goes first, so neither always inherits
            # the other's cache and allocator state.
            for traced in (False, True) if pair % 2 == 0 else (True, False):
                times[traced].append(one_round(traced))
        stats = service.capacity_report()

    overhead = statistics.median(
        on / off for off, on in zip(times[False], times[True])
    ) - 1.0
    t_off, t_on = statistics.median(times[False]), statistics.median(times[True])
    per_request_off = t_off / len(requests)
    per_request_on = t_on / len(requests)

    print_table(
        "Tracing overhead: warm LatencyService, tracer off vs on",
        [
            ("mode", "round CPU ms (median of %d)" % PAIRS, "per-request us"),
            ("tracer off", f"{t_off * 1e3:8.3f}", f"{per_request_off * 1e6:7.2f}"),
            ("tracer on", f"{t_on * 1e3:8.3f}", f"{per_request_on * 1e6:7.2f}"),
        ],
    )
    print(
        f"  overhead (median of paired ratios): {overhead * 100:.2f}% "
        f"(budget {MAX_TRACING_OVERHEAD * 100:.0f}%), "
        f"{len(tracer)} traces held, {tracer.evicted_traces} evicted"
    )

    # Sanity: every round was pure memo (no simulator runs to pollute timing).
    assert stats.errors == 0
    assert overhead <= MAX_TRACING_OVERHEAD, (
        f"tracing slows the warm path {overhead * 100:.2f}% "
        f"(> {MAX_TRACING_OVERHEAD * 100:.0f}% budget)"
    )

    # Timeline recorder: micro replay with vs without (informational).
    trace = RequestTrace(
        name="obs-bench",
        requests=tuple(
            Request(
                id=i,
                arrival_seconds=0.01 * i,
                sequence_length=32,
                priority=0,
                deadline_seconds=0.01 * i + 5.0,
            )
            for i in range(2000)
        ),
        seed=0,
        offered_rps=100.0,
    )
    fleet = FleetSpec.homogeneous("lightnobel", 4)
    times = {(0, 32): 0.05}

    def replay_round(with_recorder: bool):
        recorder = TimelineRecorder() if with_recorder else None
        start = time.perf_counter()
        result = replay_trace_outcomes(
            trace, fleet, service_times=times, timeline=recorder
        )
        return time.perf_counter() - start, result, recorder

    bare_times, recorded_times = [], []
    baseline = recorded = recorder = None
    for _ in range(5):
        t, baseline, _ = replay_round(False)
        bare_times.append(t)
        t, recorded, recorder = replay_round(True)
        recorded_times.append(t)
    assert baseline == recorded  # recording never perturbs the replay
    t_bare, t_recorded = min(bare_times), min(recorded_times)
    timeline_overhead = (t_recorded - t_bare) / t_bare
    print(
        f"  DES timeline: {t_bare * 1e3:.1f} ms bare vs "
        f"{t_recorded * 1e3:.1f} ms recording {len(recorder)} events "
        f"({timeline_overhead * 100:+.1f}%)"
    )

    emit_bench_json(
        "obs_overhead",
        {
            "requests_per_round": len(requests),
            "rounds": PAIRS,
            "warm_round_seconds_tracer_off": t_off,
            "warm_round_seconds_tracer_on": t_on,
            "per_request_us_tracer_off": per_request_off * 1e6,
            "per_request_us_tracer_on": per_request_on * 1e6,
            "tracing_overhead": overhead,
            "tracing_overhead_budget": MAX_TRACING_OVERHEAD,
            "timeline_replay_seconds_bare": t_bare,
            "timeline_replay_seconds_recording": t_recorded,
            "timeline_overhead": timeline_overhead,
            "timeline_events": len(recorder),
        },
    )
