"""Workload ``cluster-plan``: capacity planning, then a faulty closed loop.

The trace is the pinned ``scenario_trace`` diurnal shape with a flash crowd,
scaled to ``NUM_REQUESTS`` requests, on the pinned tiny PPM config and the
pinned two-chip ``h100-chunk`` worker.  Each repetition:

1. ``plan_capacity`` over ``FLEET_SIZES`` x the four scheduling policies;
2. one replay of the same trace on the planned fleet under the pinned
   faulty closed loop: ``scenario_faults``, bounded retries,
   ``scenario_controllers`` admission control and autoscaler.

Nearly all of the host time is the DES event loop, and the faulty pass runs
the loop's crash, retry and autoscaler branches, so a lean healthy path that
slows the closed loop shows here.  ``main_ms`` and ``second_ms`` are the
mean plan grid and faulty replay of the run (see ``common``).
"""

from __future__ import annotations

import time

from common import Deadline, NoSpans, Outcome, mean, median, own_peak_rss_mb
from repro.cluster import (
    FleetSpec,
    RecoveryPolicy,
    plan_capacity,
    prefetch_service_times,
    replay_trace,
)
from repro.cluster.fleet import MultiChipVariant
from repro.cluster.scenarios import scenario_controllers, scenario_faults, scenario_trace
from repro.ppm.config import PPMConfig
from repro.ppm.op_table import clear_workload_caches
from repro.sim import SimulationSession

NUM_REQUESTS = 10_000
PROBE_REQUESTS = 2_000
FLEET_SIZES = (2, 3, 4, 6)
POLICIES = ("fifo", "sjf", "bucketed", "edf")
SLO_TARGET = 0.99
REUSE_DISCOUNT = 0.25
MIN_REPEATS = 3

LAYERS = {
    **{
        f"cluster.des.{policy}.events_per_s": "main_ms on cluster-plan"
        for policy in POLICIES
    },
    "cluster.des.faulty.events_per_s": "second_ms on cluster-plan",
    "cluster.des.events_processed": "main_ms, second_ms on cluster-plan",
    "cluster.des.retried": "second_ms on cluster-plan",
    "cluster.des.shed": "second_ms on cluster-plan",
    "cluster.prefetch_s": "setup_s on cluster-plan",
    "cluster.trace.generate_s": "setup_s on cluster-plan",
}


def _setup(seed: int, num_requests: int, spans):
    """Trace plus service-time prefetch, from cold op-table caches."""
    clear_workload_caches()
    with spans.span("cluster.trace.generate"):
        trace = scenario_trace(seed=seed, num_requests=num_requests)
    base = FleetSpec.homogeneous(MultiChipVariant(base="h100-chunk", chips=2), 1)
    session = SimulationSession(ppm_config=PPMConfig.tiny(), backends=(), use_disk_cache=False)
    with spans.span("cluster.prefetch"):
        times = prefetch_service_times(trace, base, session=session)
    return trace, base, session, times


def _faulty(trace, fleet, times, seed: int):
    workers = fleet.num_workers
    admission, autoscaler = scenario_controllers(workers, SLO_TARGET)
    return replay_trace(
        trace,
        fleet,
        scheduler="edf",
        service_times=times,
        same_length_reuse_discount=REUSE_DISCOUNT,
        faults=scenario_faults(workers, trace.duration_seconds, seed=seed),
        recovery=RecoveryPolicy(max_retries=2, backoff_base_seconds=0.005),
        admission=admission,
        autoscaler=autoscaler,
    )


def run(seed: int, seconds: float, spans=NoSpans(), probe: bool = False) -> Outcome:
    """Set-up, plan grid and faulty replay, repeated until time runs out.

    Every repetition sets up afresh, so set-up samples spread over the run
    like the timings they sit beside, and the trace and service times can be
    checked for determinism too.
    """
    outcome = Outcome()
    num_requests = PROBE_REQUESTS if probe else NUM_REQUESTS
    deadline = Deadline(seconds)
    setup_s, plan_s, faulty_s = [], [], []
    first_inputs = first_plan = first_faulty = None
    while len(plan_s) < (1 if probe else MIN_REPEATS) or not (probe or deadline.expired()):
        started = time.perf_counter()
        with spans.span("cluster.setup"):
            trace, base, session, times = _setup(seed, num_requests, spans)
        setup_s.append(time.perf_counter() - started)

        started = time.perf_counter()
        with spans.span("cluster.plan"):
            plan = plan_capacity(
                trace,
                base_fleet=base,
                fleet_sizes=FLEET_SIZES,
                policies=POLICIES,
                slo_target=SLO_TARGET,
                session=session,
                same_length_reuse_discount=REUSE_DISCOUNT,
            )
        plan_s.append(time.perf_counter() - started)
        minimal = plan.minimal_fleet()
        outcome.check("planner_found_a_fleet", minimal is not None)
        fleet = base.with_size(minimal.fleet.num_workers if minimal else max(FLEET_SIZES))

        started = time.perf_counter()
        with spans.span("cluster.faulty"):
            faulty = _faulty(trace, fleet, times, seed)
        faulty_s.append(time.perf_counter() - started)

        outcome.attempted += len(plan.points) + 1
        if first_plan is None:
            first_inputs, first_plan, first_faulty = (trace, times), plan, faulty
        same_inputs = outcome.check("setup_deterministic", (trace, times) == first_inputs)
        same_plan = outcome.check(
            "plan_reports_identical_across_repeats", plan.points == first_plan.points
        )
        same_fleet = outcome.check("minimal_fleet_stable", minimal == first_plan.minimal_fleet())
        same_faulty = outcome.check(
            "faulty_report_identical_across_repeats", faulty == first_faulty
        )
        if not (same_inputs and same_plan and same_fleet):
            outcome.failed += len(plan.points)
        outcome.failed += 0 if same_faulty else 1

    outcome.e2e["main_ms"] = (mean(plan_s) * 1e3, len(plan_s))
    outcome.e2e["second_ms"] = (mean(faulty_s) * 1e3, len(faulty_s))
    outcome.e2e["setup_s"] = (median(setup_s), len(setup_s))
    outcome.e2e["peak_rss_mb"] = (own_peak_rss_mb(), 1)
    minimal = first_plan.minimal_fleet()
    outcome.context = {
        "loop": "simulated open-loop arrivals; host runs one replay at a time",
        "requests": len(trace),
        "fleet_sizes": FLEET_SIZES,
        "policies": POLICIES,
        "slo_target": SLO_TARGET,
        "minimal_fleet": None if minimal is None else [minimal.fleet.num_workers, minimal.policy],
        "faulty_slo_attainment": first_faulty.slo_attainment,
        "plan_ms_each": [round(t * 1e3, 1) for t in plan_s],
        "faulty_ms_each": [round(t * 1e3, 1) for t in faulty_s],
    }

    if spans.enabled:
        size = fleet.num_workers
        for policy in POLICIES:
            with spans.span(f"cluster.des.{policy}"):
                report = replay_trace(
                    trace,
                    base.with_size(size),
                    scheduler=policy,
                    service_times=times,
                    same_length_reuse_discount=REUSE_DISCOUNT,
                )
            seconds_spent = spans.self_seconds()[f"cluster.des.{policy}"][-1]
            outcome.layers[f"cluster.des.{policy}.events_per_s"] = (
                report.events_processed / seconds_spent
            )
        own = spans.self_seconds()
        outcome.layers.update(
            {
                "cluster.des.faulty.events_per_s": first_faulty.events_processed
                / median(own["cluster.faulty"]),
                "cluster.des.events_processed": first_faulty.events_processed,
                "cluster.des.retried": first_faulty.retried,
                "cluster.des.shed": first_faulty.shed,
                "cluster.prefetch_s": median(own["cluster.prefetch"]),
                "cluster.trace.generate_s": median(own["cluster.trace.generate"]),
            }
        )
    return outcome
