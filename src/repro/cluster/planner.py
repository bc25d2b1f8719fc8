"""Capacity planning: the smallest (or cheapest) fleet that meets an SLO.

Every planner question is one grid — (trace or scenario) x fleet x
scheduling policy — replayed cell by cell through
:func:`~repro.cluster.des.replay_trace` and ranked in a
:class:`CapacityPlan`.  The public entry points only choose the grid's axes:

* :func:`plan_capacity` rescales one homogeneous worker group over fleet
  sizes on one trace, answering the operator questions — the **minimal
  fleet size** per policy whose
  :attr:`~repro.cluster.des.ClusterReport.slo_attainment` reaches the
  target (the Fig.-12-style saturation knee, but for SLO capacity instead of
  single-request latency) and the **cheapest plan** overall (a better
  policy often meets the SLO with fewer, or cheaper, workers);
* :func:`compare_fleets` prices *arbitrary* fleets — mixed ones included —
  against each other on one trace: a couple of big-memory nodes
  backstopping a sea of cheap small-memory ones (dispatched through a
  :mod:`repro.cluster.routing` policy) versus the homogeneous alternatives;
* :func:`plan_capacity_under_scenarios` replays the fleet-size grid once
  per :class:`~repro.cluster.scenarios.ClusterScenario`, faults and
  controllers applied, and :func:`robust_minimal_fleet` intersects the
  plans.

The expensive stage — simulating every distinct (backend, length) pair — is
shared across the whole grid: backend specs are deduplicated by content
digest and each distinct trace gets one
:func:`~repro.cluster.des.prefetch_service_times` call (one stacked pass per
backend), because fleet size, policy and faults change queueing, never
per-request service time.  Replays are pure Python and deterministic, so a
plan is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from ..ppm.config import PPMConfig
from ..sim.session import SimulationSession
from .des import ClusterReport, prefetch_service_times, replay_trace
from .fleet import FleetSpec, WorkerGroup, _spec_digest
from .routing import RouterSpec
from .scheduler import SchedulerSpec, scheduler_name
from .trace import RequestTrace

if TYPE_CHECKING:  # optional routing + scenarios, kept import-cycle free
    from ..serving.service import LatencyService
    from .scenarios import ClusterScenario


@dataclass(frozen=True)
class PlanPoint:
    """One (fleet, policy) cell of a planner grid."""

    fleet: FleetSpec
    policy: str
    report: ClusterReport

    def meets(self, slo_target: float) -> bool:
        return self.report.slo_attainment >= slo_target


def _smallest(points: Sequence[PlanPoint]) -> Optional[PlanPoint]:
    """Fewest workers, then cheaper per hour, then higher attainment."""
    return min(
        points,
        key=lambda p: (
            p.fleet.num_workers, p.fleet.cost_per_hour, -p.report.slo_attainment
        ),
        default=None,
    )


def _cheapest(points: Sequence[PlanPoint]) -> Optional[PlanPoint]:
    """Lowest cost per million requests."""
    return min(points, key=lambda p: p.report.cost_per_million_requests, default=None)


@dataclass(frozen=True)
class CapacityPlan:
    """One planner grid over one trace: every (fleet, policy) cell's report."""

    trace_name: str
    slo_target: float
    points: Tuple[PlanPoint, ...]

    def for_policy(self, policy: str) -> List[PlanPoint]:
        return [p for p in self.points if p.policy == policy]

    def policies(self) -> List[str]:
        return list(dict.fromkeys(p.policy for p in self.points))

    def for_fleet(self, name: str) -> List[PlanPoint]:
        return [p for p in self.points if p.fleet.name == name]

    def fleet_names(self) -> List[str]:
        return list(dict.fromkeys(p.fleet.name for p in self.points))

    def meeting(self) -> List[PlanPoint]:
        """Every cell whose attainment reaches the target."""
        return [p for p in self.points if p.meets(self.slo_target)]

    def minimal_fleet(self, policy: Optional[str] = None) -> Optional[PlanPoint]:
        """Smallest fleet meeting the SLO target (optionally for one policy).

        Ties across policies at the same size resolve to the cheaper, then
        higher-attainment, point.
        """
        return _smallest(
            [p for p in self.meeting() if policy is None or p.policy == policy]
        )

    def cheapest_plan(self) -> Optional[PlanPoint]:
        """Lowest cost-per-million cell meeting the SLO target."""
        return _cheapest(self.meeting())

    def cheapest_per_fleet(self) -> Dict[str, Optional[PlanPoint]]:
        """Each fleet's cheapest SLO-meeting cell (None = never meets it)."""
        meeting = self.meeting()
        return {
            name: _cheapest([p for p in meeting if p.fleet.name == name])
            for name in self.fleet_names()
        }

    def attainment_curve(self, policy: str) -> List[Tuple[int, float]]:
        """(fleet size, SLO attainment) pairs — the fleet-size-vs-SLO curve."""
        return [
            (p.fleet.num_workers, p.report.slo_attainment)
            for p in sorted(self.for_policy(policy), key=lambda p: p.fleet.num_workers)
        ]


def _fresh(policy: SchedulerSpec) -> SchedulerSpec:
    """A fresh copy of a scheduler *instance* (names and classes pass through).

    Instances are stateful (bucket cursors, quotas): every grid cell replays
    against its own copy, so a cell's report equals a standalone replay.
    """
    fresh = getattr(policy, "fresh", None)
    return fresh() if callable(fresh) and not isinstance(policy, type) else policy


def _size_sweep(
    base_fleet: Optional[FleetSpec], fleet_sizes: Sequence[int]
) -> List[FleetSpec]:
    """``base_fleet``'s single worker group rescaled to each distinct size."""
    base_fleet = base_fleet or FleetSpec.homogeneous("lightnobel", 1)
    if len(base_fleet.groups) != 1:
        raise ValueError("base_fleet must be homogeneous for a fleet-size sweep")
    sizes = sorted(dict.fromkeys(int(s) for s in fleet_sizes))
    return [base_fleet.with_size(size) for size in sizes]


def _grid(
    runs: Sequence[Tuple[RequestTrace, Mapping[str, object]]],
    fleets: Sequence[FleetSpec],
    policies: Sequence[SchedulerSpec],
    slo_target: float,
    ppm_config: Optional[PPMConfig],
    session: Optional[SimulationSession],
    service: Optional["LatencyService"],
    length_bucket_size: Optional[int],
    **replay_kwargs,
) -> List[CapacityPlan]:
    """One :class:`CapacityPlan` per ``(trace, replay kwargs)`` run.

    Every run replays ``fleets`` x ``policies`` with its own keyword
    arguments (a scenario's faults and controllers) on top of
    ``replay_kwargs``.  Inputs are checked before the prefetch.  Each
    distinct trace *object* is prefetched once over every distinct backend
    spec; the dedupe keys on identity because a trace's content digest is
    not memoized and costs more than a repeat prefetch, which is a session
    memo hit.
    """
    if not 0.0 < slo_target <= 1.0:
        raise ValueError("slo_target must be in (0, 1]")
    if not fleets:
        raise ValueError("the planner grid needs at least one fleet")
    if not policies:
        raise ValueError("the planner grid needs at least one policy")
    # Backend specs deduplicated by content digest: digest -> (index, spec);
    # ``sources`` maps each fleet's groups to their prefetch group index.
    specs: Dict[str, Tuple[int, object]] = {}
    sources = [
        [
            specs.setdefault(_spec_digest(g.backend), (len(specs), g.backend))[0]
            for g in fleet.groups
        ]
        for fleet in fleets
    ]
    prefetch_fleet = FleetSpec(
        groups=tuple(WorkerGroup(backend=spec, count=1) for _, spec in specs.values()),
        name="planner-prefetch",
    )
    shared_by_trace: Dict[int, Mapping] = {}
    plans: List[CapacityPlan] = []
    for trace, run_kwargs in runs:
        if id(trace) not in shared_by_trace:
            shared_by_trace[id(trace)] = prefetch_service_times(
                trace, prefetch_fleet, ppm_config=ppm_config, session=session,
                service=service, length_bucket_size=length_bucket_size,
            )
        shared = shared_by_trace[id(trace)]
        points: List[PlanPoint] = []
        for fleet, fleet_sources in zip(fleets, sources):
            # Re-key the shared table to this fleet's group indices.
            times = {
                (gi, n): seconds
                for gi, src in enumerate(fleet_sources)
                for (s, n), seconds in shared.items()
                if s == src
            }
            for policy in policies:
                report = replay_trace(
                    trace, fleet, scheduler=_fresh(policy), service_times=times,
                    **replay_kwargs, **run_kwargs,
                )
                points.append(PlanPoint(fleet, scheduler_name(policy), report))
        plans.append(CapacityPlan(trace.name, slo_target, tuple(points)))
    return plans


def plan_capacity(
    trace: RequestTrace,
    base_fleet: Optional[FleetSpec] = None,
    fleet_sizes: Sequence[int] = (1, 2, 4, 8),
    policies: Sequence[SchedulerSpec] = ("fifo", "edf"),
    slo_target: float = 0.95,
    ppm_config: Optional[PPMConfig] = None,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
    dispatch_overhead_seconds: float = 0.0,
    same_length_reuse_discount: float = 0.0,
    length_bucket_size: Optional[int] = None,
    router: RouterSpec = None,
) -> CapacityPlan:
    """Sweep ``fleet_sizes`` x ``policies`` over ``trace``; rank against the SLO.

    ``base_fleet`` must be homogeneous (its single worker group is rescaled
    to each size; default: one ``"lightnobel"`` group).  One shared
    service-time prefetch feeds every replay.

    ``length_bucket_size`` forwards to
    :func:`~repro.cluster.des.prefetch_service_times`: the prefetch simulates
    only one (conservative, bucket-max) representative per shape bucket,
    shrinking the planner grid's simulation cost from O(distinct lengths) to
    O(buckets).  Default ``None`` keeps exact per-length pricing.
    """
    (plan,) = _grid(
        [(trace, {})], _size_sweep(base_fleet, fleet_sizes), policies, slo_target,
        ppm_config, session, service, length_bucket_size,
        dispatch_overhead_seconds=dispatch_overhead_seconds,
        same_length_reuse_discount=same_length_reuse_discount,
        router=router,
    )
    return plan


def compare_fleets(
    trace: RequestTrace,
    fleets: Sequence[FleetSpec],
    policies: Sequence[SchedulerSpec] = ("edf",),
    slo_target: float = 0.95,
    router: RouterSpec = None,
    ppm_config: Optional[PPMConfig] = None,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
    dispatch_overhead_seconds: float = 0.0,
    same_length_reuse_discount: float = 0.0,
    length_bucket_size: Optional[int] = None,
) -> CapacityPlan:
    """Price arbitrary (mixed included) fleets against one trace and SLO.

    The mixed-fleet sibling of :func:`plan_capacity`: instead of rescaling
    one homogeneous group, every candidate :class:`~repro.cluster.fleet.FleetSpec`
    replays as-is — heterogeneous groups, per-group costs and all — under
    every policy, with ``router`` applied to each replay (pass e.g.
    ``"cost-greedy"`` so a mixed fleet actually exploits its cheap groups;
    ``None`` replays the group-oblivious baseline).  Read the answer with
    :meth:`CapacityPlan.cheapest_per_fleet` / :meth:`CapacityPlan.cheapest_plan`.
    """
    (plan,) = _grid(
        [(trace, {})], fleets, policies, slo_target,
        ppm_config, session, service, length_bucket_size,
        dispatch_overhead_seconds=dispatch_overhead_seconds,
        same_length_reuse_discount=same_length_reuse_discount,
        router=router,
    )
    return plan


def plan_capacity_under_scenarios(
    scenarios: Sequence["ClusterScenario"],
    base_fleet: Optional[FleetSpec] = None,
    fleet_sizes: Sequence[int] = (1, 2, 4, 8),
    policies: Sequence[SchedulerSpec] = ("fifo", "edf"),
    slo_target: float = 0.95,
    ppm_config: Optional[PPMConfig] = None,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
    dispatch_overhead_seconds: float = 0.0,
    same_length_reuse_discount: float = 0.0,
    length_bucket_size: Optional[int] = None,
) -> Dict[str, CapacityPlan]:
    """One :class:`CapacityPlan` per scenario, sharing prefetches across them.

    The scenario-aware sibling of :func:`plan_capacity`: every
    :class:`~repro.cluster.scenarios.ClusterScenario` replays the full
    (fleet size x policy) grid *with its faults and controllers applied*, so
    a plan answers "how big must the fleet be to survive this situation",
    not just "to serve this traffic".  Scenarios sharing a trace (the pinned
    suite does) share one service-time prefetch.  Feed the result to
    :func:`robust_minimal_fleet` for the fleet that survives *every*
    scenario.
    """
    plans = _grid(
        [(scenario.trace, scenario.controls()) for scenario in scenarios],
        _size_sweep(base_fleet, fleet_sizes), policies, slo_target,
        ppm_config, session, service, length_bucket_size,
        dispatch_overhead_seconds=dispatch_overhead_seconds,
        same_length_reuse_discount=same_length_reuse_discount,
    )
    return {scenario.name: plan for scenario, plan in zip(scenarios, plans)}


def robust_minimal_fleet(
    plans: Mapping[str, CapacityPlan],
    policy: Optional[str] = None,
) -> Optional[PlanPoint]:
    """Smallest (fleet size, policy) cell meeting its target in *every* plan.

    Attainment is not guaranteed monotone in fleet size under faults (a
    bigger fleet draws a different fault overlap), so this intersects the
    grids cell-by-cell rather than taking the max of per-scenario minima.
    Returns the qualifying cell's point from an arbitrary plan (they share
    fleet and policy; reports differ per scenario), or ``None`` when no
    cell survives everywhere.
    """
    if not plans:
        return None
    survivors: Optional[Dict[Tuple[int, str], PlanPoint]] = None
    for plan in plans.values():
        cells = {
            (p.fleet.num_workers, p.policy): p
            for p in plan.meeting()
            if policy is None or p.policy == policy
        }
        if survivors is None:
            survivors = cells
        else:
            survivors = {k: v for k, v in survivors.items() if k in cells}
    return _smallest(list(survivors.values()))
