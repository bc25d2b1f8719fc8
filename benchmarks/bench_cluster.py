"""Perf: discrete-event replay throughput of the cluster simulator.

Replays a 4,000-request bursty trace against a 6-worker fleet under FIFO and
EDF and measures *replay* events/second — the pure-Python event loop that
every planner grid cell pays, with the service-time prefetch done once up
front (the prefetch cost is the sim layer's business and is guarded by
``bench_perf_simulator.py``/``bench_serving.py``).  Guards a conservative
floor so a regression in the event loop (accidental O(n^2) queue handling,
per-event simulator calls) fails CI rather than silently making capacity
planning 100x slower.

Each guard times its replays in interleaved rounds and compares medians (see
:mod:`_timing`), so drift on a shared host hits every side alike.
"""

from _timing import interleaved_medians
from conftest import emit_bench_json, print_table

from repro.cluster import (
    AdmissionController,
    Autoscaler,
    FaultSchedule,
    FleetSpec,
    RecoveryPolicy,
    SLOPolicy,
    bursty_trace,
    mixture_lengths,
    prefetch_service_times,
    replay_trace,
)
from repro.ppm import PPMConfig
from repro.sim import SimulationSession

NUM_REQUESTS = 4000
FLEET_SIZE = 6
POLICIES = ("fifo", "edf")

#: Conservative floor for replayed events/second (two events per request).
#: The loop sustains well over 100k events/s on developer hardware; the
#: guard fires only on an order-of-magnitude regression.
MIN_EVENTS_PER_SECOND = 10_000.0

#: Interleaved timing rounds per guard.
ROUNDS = 9


def median_events_per_second(replays):
    """``{label: (report, events / median seconds)}`` over interleaved rounds.

    Replays are deterministic, so one untimed replay gives each report.
    """
    reports = {label: replay() for label, replay in replays.items()}
    seconds = interleaved_medians(*replays.values(), rounds=ROUNDS)
    return {
        label: (reports[label], reports[label].events_processed / elapsed)
        for label, elapsed in zip(replays, seconds)
    }


def build_inputs():
    pool, weights = mixture_lengths([(32, 0.6), (96, 0.25), (160, 0.15)])
    trace = bursty_trace(
        rate_rps=500.0,
        num_requests=NUM_REQUESTS,
        length_pool=pool,
        length_weights=weights,
        slo=SLOPolicy(base_seconds=0.035, per_residue_seconds=2.0e-4),
        seed=11,
    )
    fleet = FleetSpec.homogeneous("h100-chunk", FLEET_SIZE)
    session = SimulationSession(ppm_config=PPMConfig.tiny(), use_disk_cache=False)
    times = prefetch_service_times(trace, fleet, session=session)
    return trace, fleet, times


def test_cluster_replay_throughput(benchmark):
    trace, fleet, times = build_inputs()

    def replay(policy):
        return lambda: replay_trace(
            trace,
            fleet,
            scheduler=policy,
            service_times=times,
            same_length_reuse_discount=0.25,
        )

    results = benchmark.pedantic(
        median_events_per_second,
        args=({policy: replay(policy) for policy in POLICIES},),
        rounds=1,
        iterations=1,
    )

    rows = [
        ("policy", "events", f"events/s (median of {ROUNDS})", "p99 (ms)", "SLO", "util")
    ]
    for policy, (report, eps) in results.items():
        rows.append(
            (
                policy,
                report.events_processed,
                f"{eps:10.0f}",
                f"{report.p99_latency_seconds * 1e3:7.2f}",
                f"{report.slo_attainment:.3f}",
                f"{report.utilization['h100-chunk']:.3f}",
            )
        )
    print_table(
        f"Cluster replay throughput ({NUM_REQUESTS} requests, {FLEET_SIZE} workers)",
        rows,
    )

    emit_bench_json(
        "cluster_replay",
        {
            "num_requests": NUM_REQUESTS,
            "fleet_size": FLEET_SIZE,
            "rounds": ROUNDS,
            "events_per_second": {
                policy: eps for policy, (report, eps) in results.items()
            },
            "events_processed": {
                policy: report.events_processed
                for policy, (report, eps) in results.items()
            },
        },
    )

    for policy, (report, eps) in results.items():
        assert report.completed == NUM_REQUESTS
        assert eps >= MIN_EVENTS_PER_SECOND, (
            f"{policy} replay throughput regressed: {eps:.0f} events/s "
            f"< {MIN_EVENTS_PER_SECOND:.0f}"
        )


#: The closed-loop path pays per-event fault lookups, generation checks and
#: autoscaler ticks; it must stay within 2x of the healthy event loop so
#: scenario-grid planning (which replays faults per cell) stays interactive.
MAX_FAULT_SLOWDOWN = 2.0


def test_faulty_replay_stays_within_2x_of_healthy(benchmark):
    trace, fleet, times = build_inputs()
    faults = FaultSchedule.generate(
        FLEET_SIZE,
        trace.duration_seconds,
        seed=7,
        crashes_per_worker=1.0,
        mean_downtime_seconds=trace.duration_seconds * 0.05,
        detection_lag_seconds=0.002,
        stragglers_per_worker=1.0,
        mean_straggle_seconds=trace.duration_seconds * 0.05,
    )
    closed_loop = dict(
        faults=faults,
        recovery=RecoveryPolicy(max_retries=2, backoff_base_seconds=0.005),
        admission=AdmissionController(max_queue_depth=16 * FLEET_SIZE),
        autoscaler=Autoscaler(
            min_workers=FLEET_SIZE,
            max_workers=2 * FLEET_SIZE,
            interval_seconds=0.05,
            scale_up_lag_seconds=0.1,
            slo_target=0.95,
        ),
    )

    def replay(kwargs):
        return lambda: replay_trace(
            trace,
            fleet,
            scheduler="edf",
            service_times=times,
            same_length_reuse_discount=0.25,
            **kwargs,
        )

    results = benchmark.pedantic(
        median_events_per_second,
        args=({"healthy": replay({}), "faulty": replay(closed_loop)},),
        rounds=1,
        iterations=1,
    )

    rows = [
        ("path", "events", f"events/s (median of {ROUNDS})", "completed", "retried", "SLO")
    ]
    for label, (report, eps) in results.items():
        rows.append(
            (
                label,
                report.events_processed,
                f"{eps:10.0f}",
                report.completed,
                report.retried,
                f"{report.slo_attainment:.3f}",
            )
        )
    print_table(
        f"Fault-aware replay overhead ({NUM_REQUESTS} requests, {FLEET_SIZE} workers)",
        rows,
    )

    healthy_eps = results["healthy"][1]
    faulty_eps = results["faulty"][1]
    emit_bench_json(
        "cluster_faulty_replay",
        {
            "num_requests": NUM_REQUESTS,
            "fleet_size": FLEET_SIZE,
            "rounds": ROUNDS,
            "healthy_events_per_second": healthy_eps,
            "faulty_events_per_second": faulty_eps,
            "fault_slowdown": healthy_eps / faulty_eps if faulty_eps else None,
        },
    )
    assert faulty_eps >= MIN_EVENTS_PER_SECOND
    assert faulty_eps * MAX_FAULT_SLOWDOWN >= healthy_eps, (
        f"fault-aware event loop too slow: {faulty_eps:.0f} events/s vs "
        f"{healthy_eps:.0f} healthy (> {MAX_FAULT_SLOWDOWN:.0f}x slowdown)"
    )
