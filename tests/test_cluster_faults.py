"""Closed-loop cluster resilience: faults, recovery, admission, autoscaling.

Three layers of assurance on the PR 6 machinery:

* **invariants** — retry counts never exceed the recovery budget, backoff is
  monotone, admission conserves requests (admitted + shed == offered), the
  autoscaler never leaves its [min, max] band, and the drop split always
  sums to the total;
* **bit-determinism** — fault schedules generate identically per seed, and
  a faulty (or fully closed-loop) replay produces the identical report and
  outcome log on every run;
* **goldens** — the pinned scenario suite replays to pinned numbers, a
  hypothesis sweep shows the zero-fault path reproduces the plain replay
  *exactly*, and the headline resilience experiment holds: the fleet the
  planner sizes for healthy traffic misses the 99% SLO once faults arrive,
  while the same fleet behind admission control + autoscaling meets it —
  with dollars-per-million quantifying the gap.

Micro-tests drive the event loop with hand-built traces and synthetic
service times (no simulator), so crash/restart/straggler/degraded-link
semantics are asserted against exact arithmetic.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ADMIT_ALL,
    AdmissionController,
    Autoscaler,
    ClusterScenario,
    DegradedLinkWindow,
    FAIL_FAST,
    FaultSchedule,
    FleetSpec,
    MultiChipVariant,
    NO_FAULTS,
    RecoveryPolicy,
    Request,
    RequestTrace,
    SLOPolicy,
    StragglerWindow,
    WorkerCrash,
    WorkerGroup,
    WorkerHealth,
    diurnal_trace,
    mixture_lengths,
    named_scenario,
    plan_capacity_under_scenarios,
    poisson_trace,
    prefetch_service_times,
    replay_trace,
    replay_trace_outcomes,
    resilience_experiment,
    robust_minimal_fleet,
    scenario_suite,
)
from repro.obs.timeline import TimelineRecorder
from repro.ppm import PPMConfig
from repro.sim import SimulationSession

RELATIVE_TOLERANCE = 1e-9

PINNED_MIX = [(32, 0.6), (96, 0.25), (160, 0.15)]
PINNED_SLO = SLOPolicy(base_seconds=0.035, per_residue_seconds=2.0e-4)

#: scenario -> (slo_attainment, p99 latency, completed, shed, failed,
#:              retried, downtime, availability, mean_fleet, peak_fleet,
#:              cost_per_million) on the 4-node multi-chip fleet, captured
#: from the initial closed-loop implementation.  Regenerate deliberately
#: with:  PYTHONPATH=src python -c \
#:   "import tests.test_cluster_faults as t; t.regenerate()"
SCENARIO_GOLDENS = {
    "diurnal": (
        0.8711111111111111, 0.11216863964898005,
        900, 0, 0, 0,
        0.0, 1.0,
        4.0, 4, 38.81307457188736,
    ),
    "flash-crowd": (
        0.9277777777777778, 0.05918461910322392,
        838, 62, 0, 0,
        0.0, 1.0,
        4.0, 4, 41.68468629438977,
    ),
    "faulty": (
        0.9422222222222222, 0.058961508004947705,
        849, 51, 0, 1,
        0.327066264804305, 0.9615575658173159,
        4.438187584853842, 9, 45.65186546686136,
    ),
}

#: The headline resilience-experiment goldens (planned fleet, then
#: (slo, cost $/M) for healthy / faulty-fixed / faulty-closed-loop).
RESILIENCE_GOLDENS = {
    "planned_workers": 6,
    "healthy": (1.0, 58.21961185783105),
    "faulty_fixed": (0.9244444444444444, 58.21961185783105),
    "faulty_controlled": (1.0, 60.85171062326314),
}


@pytest.fixture(scope="module")
def tiny_session():
    return SimulationSession(ppm_config=PPMConfig.tiny(), use_disk_cache=False)


def scenario_fleet(size=4):
    return FleetSpec.homogeneous(MultiChipVariant(base="h100-chunk", chips=2), size)


@pytest.fixture(scope="module")
def scenario_times(tiny_session):
    """One shared service-time prefetch for every scenario replay."""
    trace = scenario_suite()[0].trace
    return prefetch_service_times(trace, scenario_fleet(1), session=tiny_session)


def regenerate() -> None:  # pragma: no cover - maintenance helper
    session = SimulationSession(ppm_config=PPMConfig.tiny(), use_disk_cache=False)
    fleet = scenario_fleet(4)
    suite = scenario_suite(num_workers=4)
    times = prefetch_service_times(suite[0].trace, fleet, session=session)
    for sc in suite:
        r = sc.replay(fleet, service_times=times, same_length_reuse_discount=0.25)
        print(f'    "{sc.name}": (')
        print(f"        {r.slo_attainment!r}, {r.p99_latency_seconds!r},")
        print(f"        {r.completed}, {r.shed}, {r.failed}, {r.retried},")
        print(f"        {r.downtime_seconds!r}, {r.availability!r},")
        print(f"        {r.mean_fleet_size!r}, {r.peak_fleet_size}, "
              f"{r.cost_per_million_requests!r},")
        print("    ),")
    summary = resilience_experiment(session=session)
    print("planned:", summary.planned_workers)
    for tag, report in (
        ("healthy", summary.healthy),
        ("faulty_fixed", summary.faulty_fixed),
        ("faulty_controlled", summary.faulty_controlled),
    ):
        print(f'    "{tag}": ({report.slo_attainment!r}, '
              f"{report.cost_per_million_requests!r}),")


# ------------------------------------------------------------- micro helpers
def micro_trace(arrivals, length=32, priority=None, deadline_slack=None, name="micro"):
    """Hand-built trace with exact arrival instants (no RNG involved)."""
    requests = []
    for i, t in enumerate(arrivals):
        p = 0 if priority is None else priority[i]
        requests.append(
            Request(
                id=i,
                arrival_seconds=float(t),
                sequence_length=length,
                priority=p,
                deadline_seconds=(
                    None if deadline_slack is None else float(t) + deadline_slack
                ),
            )
        )
    duration = max(arrivals) if arrivals else 0.0
    return RequestTrace(
        name=name,
        requests=tuple(requests),
        seed=0,
        offered_rps=len(arrivals) / duration if duration > 0 else float(len(arrivals)),
    )


MICRO_TIMES = {(0, 32): 1.0}  # one group, one length, one second per request


def micro_fleet(size):
    return FleetSpec.homogeneous("lightnobel", size)


# ------------------------------------------------------------ the fault model
class TestFaultModel:
    def test_crash_validation(self):
        with pytest.raises(ValueError):
            WorkerCrash(worker_id=-1, at_seconds=0.0)
        with pytest.raises(ValueError):
            WorkerCrash(worker_id=0, at_seconds=1.0, restart_after_seconds=0.0)
        with pytest.raises(ValueError):
            WorkerCrash(worker_id=0, at_seconds=1.0, detection_lag_seconds=-0.1)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            StragglerWindow(worker_id=0, start_seconds=2.0, end_seconds=1.0)
        with pytest.raises(ValueError):
            StragglerWindow(worker_id=0, start_seconds=0.0, end_seconds=1.0,
                            slowdown_factor=0.5)
        with pytest.raises(ValueError):
            DegradedLinkWindow(group_index=0, start_seconds=0.0, end_seconds=1.0,
                               bandwidth_factor=0.0)

    def test_overlapping_stragglers_multiply(self):
        schedule = FaultSchedule(
            stragglers=(
                StragglerWindow(0, 0.0, 2.0, slowdown_factor=2.0),
                StragglerWindow(0, 1.0, 3.0, slowdown_factor=3.0),
                StragglerWindow(1, 0.0, 3.0, slowdown_factor=5.0),
            )
        )
        assert schedule.slowdown_at(0, 0.5) == pytest.approx(2.0)
        assert schedule.slowdown_at(0, 1.5) == pytest.approx(6.0)
        assert schedule.slowdown_at(0, 2.5) == pytest.approx(3.0)
        assert schedule.slowdown_at(0, 3.5) == pytest.approx(1.0)
        assert schedule.straggling_workers(1.5) == frozenset({0, 1})

    def test_overlapping_degraded_links_take_worst_factor(self):
        schedule = FaultSchedule(
            degraded_links=(
                DegradedLinkWindow(0, 0.0, 2.0, bandwidth_factor=0.5),
                DegradedLinkWindow(0, 1.0, 3.0, bandwidth_factor=0.25),
            )
        )
        assert schedule.link_factor_at(0, 0.5) == pytest.approx(0.5)
        assert schedule.link_factor_at(0, 1.5) == pytest.approx(0.25)
        assert schedule.link_factor_at(1, 1.5) == pytest.approx(1.0)

    def test_generate_is_bit_deterministic_per_seed(self):
        kwargs = dict(num_workers=4, duration_seconds=10.0, seed=7,
                      degraded_link_groups=(0,))
        a = FaultSchedule.generate(**kwargs)
        b = FaultSchedule.generate(**kwargs)
        assert a == b
        assert a.config_digest() == b.config_digest()
        c = FaultSchedule.generate(**{**kwargs, "seed": 8})
        assert a.config_digest() != c.config_digest()

    def test_empty_schedule_is_falsy(self):
        assert not NO_FAULTS
        assert not FaultSchedule()
        assert FaultSchedule(crashes=(WorkerCrash(0, 1.0),))


class TestRecoveryPolicy:
    def test_backoff_is_monotone(self):
        policy = RecoveryPolicy(max_retries=5, backoff_base_seconds=0.05,
                                backoff_multiplier=2.0)
        delays = [policy.backoff_seconds(i) for i in range(6)]
        assert delays == sorted(delays)
        assert delays[0] == pytest.approx(0.05)
        assert delays[3] == pytest.approx(0.05 * 8)

    def test_gives_up_at_the_bound(self):
        policy = RecoveryPolicy(max_retries=2)
        assert not policy.gives_up(0)
        assert not policy.gives_up(1)
        assert policy.gives_up(2)
        assert FAIL_FAST.gives_up(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_multiplier=0.5)


# ---------------------------------------------------------- crash semantics
class TestCrashSemantics:
    def test_crash_requeues_in_flight_request_with_backoff_and_warmup(self):
        # One worker, 1 s services.  req0 dispatches at t=0; the worker dies
        # at t=0.5 (detect +0.1, restart +1.0, warm-up 0.25).  req0 requeues
        # at 0.6 + 0.05 backoff, behind req1 (arrived 0.1).  The worker
        # returns at 1.5; req1 pays the warm-up (finish 1.5+1.25=2.75), req0
        # follows (finish 3.75).
        trace = micro_trace([0.0, 0.1])
        faults = FaultSchedule(crashes=(
            WorkerCrash(0, at_seconds=0.5, restart_after_seconds=1.0,
                        detection_lag_seconds=0.1, warmup_seconds=0.25),
        ))
        recovery = RecoveryPolicy(max_retries=2, backoff_base_seconds=0.05)
        report, outcomes = replay_trace_outcomes(
            trace, micro_fleet(1), service_times=dict(MICRO_TIMES),
            faults=faults, recovery=recovery,
        )
        assert report.completed == 2 and report.dropped == 0
        assert report.retried == 1
        assert report.downtime_seconds == pytest.approx(1.0)
        by_id = {o.request_id: o for o in outcomes}
        assert by_id[0].retries == 1
        assert by_id[1].retries == 0
        assert by_id[1].finish_seconds == pytest.approx(2.75)
        assert by_id[0].finish_seconds == pytest.approx(3.75)
        assert report.makespan_seconds == pytest.approx(3.75)
        # The dead second is not billed as busy time.
        busy = report.utilization["lightnobel"] * report.makespan_seconds
        assert busy == pytest.approx(0.5 + 1.25 + 1.0)

    def test_fail_fast_drops_the_lost_request(self):
        trace = micro_trace([0.0])
        faults = FaultSchedule(crashes=(
            WorkerCrash(0, at_seconds=0.5, restart_after_seconds=1.0),
        ))
        report, outcomes = replay_trace_outcomes(
            trace, micro_fleet(1), service_times=dict(MICRO_TIMES),
            faults=faults, recovery=FAIL_FAST,
        )
        assert report.completed == 0
        assert report.failed == 1 and report.dropped == 1
        assert report.retried == 0
        assert outcomes[0].drop_reason == "failed"

    def test_retries_never_exceed_the_budget(self):
        # The worker dies 0.2 s into every service attempt and restarts
        # quickly, so one request crashes repeatedly until the budget is
        # spent: exactly max_retries requeues, then a failed drop.
        max_retries = 3
        crashes = tuple(
            WorkerCrash(0, at_seconds=0.2 + 0.5 * i, restart_after_seconds=0.1,
                        detection_lag_seconds=0.01)
            for i in range(10)
        )
        report, outcomes = replay_trace_outcomes(
            micro_trace([0.0]), micro_fleet(1), service_times=dict(MICRO_TIMES),
            faults=FaultSchedule(crashes=crashes),
            recovery=RecoveryPolicy(max_retries=max_retries,
                                    backoff_base_seconds=0.01),
        )
        assert report.retried == max_retries
        assert report.failed == 1
        assert all(o.retries <= max_retries for o in outcomes)

    def test_permanently_dead_fleet_starves_queued_requests(self):
        trace = micro_trace([0.0, 0.1, 0.2])
        faults = FaultSchedule(crashes=(
            WorkerCrash(0, at_seconds=0.15, restart_after_seconds=None),
        ))
        report, outcomes = replay_trace_outcomes(
            trace, micro_fleet(1), service_times=dict(MICRO_TIMES),
            faults=faults, recovery=FAIL_FAST,
        )
        assert report.completed == 0
        assert report.failed == 3 and report.dropped == 3
        reasons = sorted(o.drop_reason for o in outcomes)
        assert reasons == ["failed", "starved", "starved"]
        assert report.availability < 1.0

    def test_straggler_reroutes_to_healthy_worker(self):
        # Two idle workers, worker 0 straggling 10x.  The first request must
        # land on healthy worker 1 (1 s), the second has no choice (10 s).
        trace = micro_trace([0.0, 0.0])
        faults = FaultSchedule(stragglers=(
            StragglerWindow(0, 0.0, 100.0, slowdown_factor=10.0),
        ))
        report, outcomes = replay_trace_outcomes(
            trace, micro_fleet(2), service_times=dict(MICRO_TIMES),
            faults=faults,
        )
        finishes = sorted(o.finish_seconds for o in outcomes)
        assert finishes[0] == pytest.approx(1.0)
        assert finishes[1] == pytest.approx(10.0)

    def test_degraded_link_charges_the_interconnect_delta(self):
        trace = micro_trace([0.0])
        faults = FaultSchedule(degraded_links=(
            DegradedLinkWindow(0, 0.0, 100.0, bandwidth_factor=0.5),
        ))
        report, outcomes = replay_trace_outcomes(
            trace, micro_fleet(1), service_times=dict(MICRO_TIMES),
            communication_times={(0, 32): 0.1},
            faults=faults,
        )
        # 1.0 s service + 0.1 * (1/0.5 - 1) = 0.1 s extra interconnect.
        assert outcomes[0].finish_seconds == pytest.approx(1.1)

    def test_crash_on_idle_worker_removes_it_until_restart(self):
        # Worker crashes while idle at t=0.5; request arrives at 1.0 and
        # must wait for the 2.0 restart.
        trace = micro_trace([1.0])
        faults = FaultSchedule(crashes=(
            WorkerCrash(0, at_seconds=0.5, restart_after_seconds=1.5),
        ))
        report, outcomes = replay_trace_outcomes(
            trace, micro_fleet(1), service_times=dict(MICRO_TIMES),
            faults=faults,
        )
        assert outcomes[0].start_seconds == pytest.approx(2.0)
        assert report.downtime_seconds == pytest.approx(1.5)


# ---------------------------------------------------------------- tie order
class TestEventTieOrder:
    """Control events against arrivals at one instant (exact binary times).

    Recoveries and scale-ups land before a same-instant arrival (capacity
    that returns at t serves traffic arriving at t); retries and autoscaler
    ticks land after it.  A queued-then-served arrival would leave a
    nonzero ``max_queue_depth`` even when its start time is unchanged.
    """

    def test_arrival_at_a_recovery_instant_is_served_at_that_instant(self):
        # The idle worker dies at 0.5 and is back at exactly 2.0.
        faults = FaultSchedule(crashes=(
            WorkerCrash(0, at_seconds=0.5, restart_after_seconds=1.5),
        ))
        report, outcomes = replay_trace_outcomes(
            micro_trace([2.0]), micro_fleet(1), service_times=dict(MICRO_TIMES),
            faults=faults,
        )
        assert outcomes[0].start_seconds == 2.0
        assert report.max_queue_depth == 0

    def test_arrival_at_a_scale_up_instant_is_served_at_that_instant(self):
        # The first tick (0.5) sees one worker under a two-worker floor and
        # requests one more, arriving at exactly 1.0 while worker 0 is busy.
        scaler = Autoscaler(min_workers=2, max_workers=2, interval_seconds=0.5,
                            scale_up_lag_seconds=0.5)
        report, outcomes = replay_trace_outcomes(
            micro_trace([0.0, 1.0]), micro_fleet(1), service_times={(0, 32): 4.0},
            autoscaler=scaler,
        )
        by_id = {o.request_id: o for o in outcomes}
        assert by_id[1].start_seconds == 1.0
        assert report.max_queue_depth == 0
        assert report.peak_fleet_size == 2

    def test_retry_at_an_arrival_instant_queues_behind_the_arrival(self):
        # req0 dies with its worker at 0.5 (restart 0.75) and retries at
        # exactly 1.0, when req1 arrives: req1 takes the idle worker first.
        faults = FaultSchedule(crashes=(
            WorkerCrash(0, at_seconds=0.5, restart_after_seconds=0.25,
                        detection_lag_seconds=0.0),
        ))
        report, outcomes = replay_trace_outcomes(
            micro_trace([0.0, 1.0]), micro_fleet(1), service_times=dict(MICRO_TIMES),
            faults=faults, recovery=RecoveryPolicy(backoff_base_seconds=0.5),
        )
        assert [o.request_id for o in outcomes] == [1, 0]
        assert [o.start_seconds for o in outcomes] == [1.0, 2.0]
        assert outcomes[1].retries == 1 and report.retried == 1

    def test_autoscaler_tick_at_an_arrival_instant_sees_the_arrival(self):
        # The tick at exactly 1.0 counts req1 (queued behind busy worker 0)
        # and scales up by 1.5; a tick ordered first would wait until 2.0.
        scaler = Autoscaler(min_workers=1, max_workers=2, interval_seconds=1.0,
                            scale_up_queue_per_worker=0.5,
                            scale_down_queue_per_worker=0.25,
                            scale_up_lag_seconds=0.5)
        report, outcomes = replay_trace_outcomes(
            micro_trace([0.0, 1.0]), micro_fleet(1), service_times={(0, 32): 4.0},
            autoscaler=scaler,
        )
        by_id = {o.request_id: o for o in outcomes}
        assert by_id[1].start_seconds == 1.5
        assert report.peak_fleet_size == 2


# --------------------------------------------------------- admission control
class TestAdmissionControl:
    def test_depth_limits_scale_with_priority(self):
        ctl = AdmissionController(max_queue_depth=10, priority_depth_fraction=0.5)
        assert ctl.depth_limit(0) == 5
        assert ctl.depth_limit(1) == 10
        assert ctl.depth_limit(7) == 10
        assert ADMIT_ALL.depth_limit(0) is None
        assert ADMIT_ALL.admits(0, 10**9)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=4, priority_depth_fraction=0.0)

    def test_conservation_and_priority_aware_shedding(self):
        # One slow worker, a burst of 12 simultaneous arrivals alternating
        # priorities.  Queue bound 4 (priority 0 sheds at depth >= 2).
        arrivals = [0.0] * 12
        priorities = [i % 2 for i in range(12)]
        trace = micro_trace(arrivals, priority=priorities)
        report, outcomes = replay_trace_outcomes(
            trace, micro_fleet(1), service_times=dict(MICRO_TIMES),
            admission=AdmissionController(max_queue_depth=4,
                                          priority_depth_fraction=0.5),
        )
        assert report.admitted + report.shed == report.requests
        assert report.completed + report.dropped == report.requests
        assert report.shed == sum(report.shed_by_priority.values())
        assert report.shed_by_priority.get(0, 0) >= report.shed_by_priority.get(1, 0)
        shed_outcomes = [o for o in outcomes if o.drop_reason == "shed"]
        assert len(shed_outcomes) == report.shed
        assert all(o.finish_seconds == o.arrival_seconds for o in shed_outcomes)

    def test_admit_all_is_the_open_loop_path(self):
        trace = micro_trace([0.0, 0.1, 0.2, 0.3])
        plain = replay_trace_outcomes(
            trace, micro_fleet(2), service_times=dict(MICRO_TIMES),
        )
        gated = replay_trace_outcomes(
            trace, micro_fleet(2), service_times=dict(MICRO_TIMES),
            admission=ADMIT_ALL,
        )
        assert plain == gated


# ---------------------------------------------------------------- autoscaler
class TestAutoscaler:
    def test_validation(self):
        with pytest.raises(ValueError):
            Autoscaler(min_workers=0)
        with pytest.raises(ValueError):
            Autoscaler(min_workers=4, max_workers=2)
        with pytest.raises(ValueError):
            Autoscaler(scale_up_queue_per_worker=1.0, scale_down_queue_per_worker=1.0)
        with pytest.raises(ValueError):
            Autoscaler(slo_target=1.5)

    @given(
        queue_depth=st.integers(min_value=0, max_value=500),
        active=st.integers(min_value=1, max_value=32),
        pending=st.integers(min_value=0, max_value=8),
        attainment=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_desired_delta_respects_the_band(self, queue_depth, active, pending, attainment):
        scaler = Autoscaler(min_workers=2, max_workers=12, slo_target=0.95)
        delta = scaler.desired_delta(queue_depth, active, pending, attainment)
        provisioned = active + pending
        target = provisioned + delta
        assert target >= min(provisioned, scaler.min_workers)
        assert target <= max(provisioned, scaler.max_workers)
        if provisioned < scaler.min_workers:
            assert target == scaler.min_workers
        if delta > 0 and provisioned >= scaler.min_workers:
            assert target <= scaler.max_workers
        if delta < 0:
            assert active + delta >= scaler.min_workers

    def test_replay_never_exceeds_the_band(self):
        # A big simultaneous burst on one worker forces scale-up pressure far
        # beyond the ceiling; the fleet must stop at max_workers.
        trace = micro_trace([0.01 * i for i in range(60)])
        scaler = Autoscaler(
            min_workers=1, max_workers=4, interval_seconds=0.05,
            scale_up_queue_per_worker=2.0, scale_up_lag_seconds=0.1,
        )
        report = replay_trace(
            trace, micro_fleet(1), service_times=dict(MICRO_TIMES),
            autoscaler=scaler,
        )
        assert report.peak_fleet_size <= scaler.max_workers
        assert report.peak_fleet_size > 1  # it did scale
        assert report.mean_fleet_size >= scaler.min_workers - 1e-9
        assert report.completed == report.requests
        assert report.worker_hours * 3600.0 == pytest.approx(
            report.mean_fleet_size * report.makespan_seconds
        )

    def test_autoscaler_scales_each_group_of_a_mixed_fleet(self):
        from repro.cluster import WorkerGroup

        # A burst of short requests feasible on both groups: each group's
        # scaler sees the shared backlog and both may grow, but neither may
        # leave its own [min, max] band and every request must complete.
        fleet = FleetSpec(groups=(WorkerGroup("lightnobel", 1),
                                  WorkerGroup("h100", 1)), name="mixed")
        trace = micro_trace([0.01 * i for i in range(40)])
        scaler = Autoscaler(
            min_workers=1, max_workers=3, interval_seconds=0.05,
            scale_up_queue_per_worker=2.0, scale_up_lag_seconds=0.1,
        )
        report = replay_trace(
            trace, fleet,
            service_times={(0, 32): 1.0, (1, 32): 0.5},
            autoscaler=scaler,
            router="memory-fit",
        )
        assert report.completed == report.requests
        assert report.peak_fleet_size > 2  # some group did scale up
        assert report.peak_fleet_size <= 2 * scaler.max_workers
        assert report.worker_hours * 3600.0 == pytest.approx(
            report.mean_fleet_size * report.makespan_seconds
        )

    def test_per_group_autoscalers_must_share_a_tick_interval(self):
        from repro.cluster import WorkerGroup

        fleet = FleetSpec(groups=(WorkerGroup("lightnobel", 1),
                                  WorkerGroup("h100", 1)), name="mixed")
        with pytest.raises(ValueError, match="interval"):
            replay_trace(
                micro_trace([0.0]), fleet,
                service_times={(0, 32): 1.0, (1, 32): 1.0},
                autoscaler=(
                    Autoscaler(interval_seconds=0.5),
                    Autoscaler(interval_seconds=0.25),
                ),
            )

    def test_scale_down_retires_idle_workers_and_stops_billing(self):
        # Four workers, a single early request, long quiet tail: the scaler
        # should shrink toward min_workers and the mean fleet must land
        # strictly below the starting size.
        trace = micro_trace([0.0, 5.0])
        scaler = Autoscaler(
            min_workers=1, max_workers=4, interval_seconds=0.25,
            scale_down_queue_per_worker=0.5,
        )
        report = replay_trace(
            trace, micro_fleet(4), service_times=dict(MICRO_TIMES),
            autoscaler=scaler,
        )
        assert report.completed == 2
        assert report.mean_fleet_size < 4.0
        assert report.peak_fleet_size == 4


# ------------------------------------------------------------- determinism
class TestDeterminism:
    def test_faulty_replay_is_bit_deterministic(self):
        pool, weights = mixture_lengths(PINNED_MIX)
        trace = poisson_trace(
            rate_rps=200.0, num_requests=300, length_pool=pool,
            length_weights=weights, slo=PINNED_SLO, seed=5,
        )
        times = {(0, n): 0.004 + n * 1e-5 for n, _ in PINNED_MIX}
        faults = FaultSchedule.generate(3, trace.duration_seconds, seed=9,
                                        mean_downtime_seconds=0.2)
        kwargs = dict(
            service_times=times, faults=faults,
            recovery=RecoveryPolicy(backoff_base_seconds=0.005),
            admission=AdmissionController(max_queue_depth=48),
            autoscaler=Autoscaler(min_workers=3, max_workers=6,
                                  interval_seconds=0.05,
                                  scale_up_lag_seconds=0.1,
                                  slo_target=0.95),
        )
        first = replay_trace_outcomes(trace, micro_fleet(3), "edf", **kwargs)
        again = replay_trace_outcomes(trace, micro_fleet(3), "edf", **kwargs)
        assert first == again
        report, _ = first
        assert report.completed + report.dropped == report.requests
        assert report.dropped == report.oom_dropped + report.shed + report.failed

    @given(
        seed=st.integers(min_value=0, max_value=30),
        policy=st.sampled_from(["fifo", "sjf", "bucketed", "edf"]),
        discount=st.sampled_from([0.0, 0.25]),
    )
    @settings(max_examples=24, deadline=None)
    def test_zero_faults_reproduce_the_plain_replay_exactly(
        self, seed, policy, discount
    ):
        pool, weights = mixture_lengths(PINNED_MIX)
        trace = poisson_trace(
            rate_rps=150.0, num_requests=80, length_pool=pool,
            length_weights=weights, slo=PINNED_SLO, seed=seed,
        )
        times = {(0, n): 0.004 + n * 1e-5 for n, _ in PINNED_MIX}
        plain = replay_trace_outcomes(
            trace, micro_fleet(2), policy, service_times=times,
            same_length_reuse_discount=discount,
        )
        closed = replay_trace_outcomes(
            trace, micro_fleet(2), policy, service_times=times,
            same_length_reuse_discount=discount,
            faults=NO_FAULTS, recovery=RecoveryPolicy(), admission=ADMIT_ALL,
        )
        assert plain == closed

    @given(
        seed=st.integers(min_value=0, max_value=30),
        policy=st.sampled_from(["fifo", "sjf", "bucketed", "edf"]),
        faulty=st.booleans(),
        admission=st.booleans(),
        autoscaled=st.booleans(),
        routed=st.booleans(),
        recorded=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_report_without_outcomes_matches_the_outcome_replay(
        self, seed, policy, faulty, admission, autoscaled, routed, recorded
    ):
        # replay_trace skips the per-request records; its report must not
        # move by a bit in any mode of the loop.
        pool, weights = mixture_lengths(PINNED_MIX)
        trace = poisson_trace(
            rate_rps=200.0, num_requests=120, length_pool=pool,
            length_weights=weights, slo=PINNED_SLO, seed=seed,
        )
        if routed:
            # A cheap group that cannot hold the longest length.
            fleet = FleetSpec(groups=(
                WorkerGroup("h100", 2, cost_per_hour=8.0),
                WorkerGroup("a100", 2, cost_per_hour=3.0),
            ))
            times = {(0, n): 0.004 + n * 1e-5 for n, _ in PINNED_MIX}
            times.update({(1, n): 0.003 + n * 2e-5 for n, _ in PINNED_MIX})
            times[(1, 160)] = None
        else:
            fleet = micro_fleet(3)
            times = {(0, n): 0.004 + n * 1e-5 for n, _ in PINNED_MIX}
        kwargs = dict(service_times=times, same_length_reuse_discount=0.25)
        if faulty:
            kwargs["faults"] = FaultSchedule.generate(
                fleet.num_workers, trace.duration_seconds, seed=seed,
                mean_downtime_seconds=0.05, mean_straggle_seconds=0.05,
                degraded_link_groups=(0,),
            )
            kwargs["recovery"] = RecoveryPolicy(backoff_base_seconds=0.005)
            kwargs["communication_times"] = {
                (gi, n): 0.001 for gi in range(len(fleet.groups)) for n, _ in PINNED_MIX
            }
        if admission:
            kwargs["admission"] = AdmissionController(max_queue_depth=12)
        if autoscaled:
            kwargs["autoscaler"] = Autoscaler(
                min_workers=1, max_workers=4, interval_seconds=0.05,
                scale_up_lag_seconds=0.02, slo_target=0.95,
            )
        if routed:
            kwargs["router"] = "cost-greedy"
        bare_timeline = TimelineRecorder() if recorded else None
        full_timeline = TimelineRecorder() if recorded else None
        report = replay_trace(trace, fleet, policy, timeline=bare_timeline, **kwargs)
        full, outcomes = replay_trace_outcomes(
            trace, fleet, policy, timeline=full_timeline, **kwargs
        )
        assert report == full
        assert len(outcomes) == report.requests
        if recorded:
            assert bare_timeline.events == full_timeline.events


# ------------------------------------------------------------------ goldens
class TestScenarioGoldens:
    @pytest.mark.parametrize("name", sorted(SCENARIO_GOLDENS))
    def test_pinned_scenario_numbers(self, name, tiny_session, scenario_times):
        scenario = named_scenario(name, num_workers=4)
        report = scenario.replay(
            scenario_fleet(4), service_times=scenario_times,
            session=tiny_session,  # degraded-link comm times need the config
            same_length_reuse_discount=0.25,
        )
        (slo, p99, completed, shed, failed, retried,
         downtime, availability, mean_fleet, peak_fleet, cost) = SCENARIO_GOLDENS[name]
        approx = lambda x: pytest.approx(x, rel=RELATIVE_TOLERANCE)
        assert report.slo_attainment == approx(slo)
        assert report.p99_latency_seconds == approx(p99)
        assert report.completed == completed
        assert report.shed == shed
        assert report.failed == failed
        assert report.retried == retried
        assert report.downtime_seconds == approx(downtime)
        assert report.availability == approx(availability)
        assert report.mean_fleet_size == approx(mean_fleet)
        assert report.peak_fleet_size == peak_fleet
        assert report.cost_per_million_requests == approx(cost)
        assert report.dropped == report.oom_dropped + report.shed + report.failed
        assert report.completed + report.dropped == report.requests

    def test_suite_is_replay_deterministic(self, tiny_session, scenario_times):
        scenario = named_scenario("faulty", num_workers=4)
        first = scenario.replay_outcomes(
            scenario_fleet(4), service_times=scenario_times,
            session=tiny_session, same_length_reuse_discount=0.25,
        )
        again = scenario.replay_outcomes(
            scenario_fleet(4), service_times=scenario_times,
            session=tiny_session, same_length_reuse_discount=0.25,
        )
        assert first == again

    def test_scenario_digests_are_stable_and_distinct(self):
        suite_a = scenario_suite()
        suite_b = scenario_suite()
        digests_a = [s.config_digest() for s in suite_a]
        digests_b = [s.config_digest() for s in suite_b]
        assert digests_a == digests_b
        assert len(set(digests_a)) == len(digests_a)

    def test_diurnal_trace_is_seeded_and_flash_raises_local_rate(self):
        pool, weights = mixture_lengths(PINNED_MIX)
        kwargs = dict(
            rate_rps=200.0, num_requests=400, length_pool=pool,
            length_weights=weights, slo=PINNED_SLO,
            period_seconds=1.0, amplitude=0.5,
            flash_at_seconds=0.5, flash_duration_seconds=0.2, flash_factor=8.0,
            seed=3,
        )
        a = diurnal_trace(**kwargs)
        b = diurnal_trace(**kwargs)
        assert a == b
        arrivals = [r.arrival_seconds for r in a]
        assert arrivals == sorted(arrivals)
        flash = sum(1 for t in arrivals if 0.5 <= t < 0.7)
        before = sum(1 for t in arrivals if 0.3 <= t < 0.5)
        assert flash > 2 * max(before, 1)  # the crowd actually flashed

    def test_planner_scenario_sweep_and_robust_fleet(self, tiny_session, scenario_times):
        suite = scenario_suite(num_workers=4)
        plans = plan_capacity_under_scenarios(
            suite,
            base_fleet=scenario_fleet(1),
            fleet_sizes=(4, 6, 8),
            policies=("edf",),
            slo_target=0.90,
            session=tiny_session,
            same_length_reuse_discount=0.25,
        )
        assert set(plans) == {s.name for s in suite}
        robust = robust_minimal_fleet(plans)
        assert robust is not None
        # 4 workers survive the closed-loop scenarios but not plain diurnal
        # traffic (no autoscaler there), so the intersection lands on 6.
        assert robust.fleet.num_workers == 6
        healthy_min = plans["diurnal"].minimal_fleet()
        assert healthy_min is not None
        # Surviving every scenario can never need *fewer* workers than the
        # healthy one alone.
        assert robust.fleet.num_workers >= healthy_min.fleet.num_workers


class TestResilienceExperiment:
    @pytest.fixture(scope="class")
    def summary(self, tiny_session):
        return resilience_experiment(session=tiny_session)

    def test_acceptance_fixed_misses_controlled_meets(self, summary):
        assert summary.planned_workers == RESILIENCE_GOLDENS["planned_workers"]
        assert summary.healthy.slo_attainment >= summary.slo_target
        assert not summary.fixed_meets_slo
        assert summary.controlled_meets_slo

    def test_pinned_numbers(self, summary):
        approx = lambda x: pytest.approx(x, rel=RELATIVE_TOLERANCE)
        for tag, report in (
            ("healthy", summary.healthy),
            ("faulty_fixed", summary.faulty_fixed),
            ("faulty_controlled", summary.faulty_controlled),
        ):
            slo, cost = RESILIENCE_GOLDENS[tag]
            assert report.slo_attainment == approx(slo)
            assert report.cost_per_million_requests == approx(cost)

    def test_summary_lines_render(self, summary):
        lines = summary.summary_lines()
        assert len(lines) == 4
        assert "planned fleet" in lines[0]
        assert all("slo=" in line for line in lines[1:])

    def test_resilience_costs_more_but_not_wildly(self, summary):
        healthy = summary.healthy.cost_per_million_requests
        controlled = summary.faulty_controlled.cost_per_million_requests
        assert controlled > healthy  # extra workers cost money
        assert controlled < 2.0 * healthy  # but not a blank check


class TestWorkerHealth:
    def test_enum_values(self):
        assert WorkerHealth.HEALTHY.value == "healthy"
        assert WorkerHealth.DEAD.value == "dead"
        assert WorkerHealth.RETIRED.value == "retired"
        assert WorkerHealth.WARMING.value == "warming"

    def test_degraded_communication_validation(self):
        backend = MultiChipVariant(base="h100-chunk", chips=2).build(PPMConfig.tiny())
        healthy = backend.communication_seconds(64)
        assert backend.degraded_communication_seconds(64, 0.5) == pytest.approx(
            2.0 * healthy
        )
        with pytest.raises(ValueError):
            backend.degraded_communication_seconds(64, 0.0)
        with pytest.raises(ValueError):
            backend.degraded_communication_seconds(64, 1.5)


class TestScenarioObject:
    def test_named_scenario_lookup(self):
        assert named_scenario("diurnal").name == "diurnal"
        with pytest.raises(ValueError, match="unknown scenario"):
            named_scenario("nope")

    def test_scenario_replace_round_trip(self):
        scenario = named_scenario("faulty")
        clone = dataclasses.replace(scenario, name="copy")
        assert clone.trace == scenario.trace
        assert clone.faults == scenario.faults
