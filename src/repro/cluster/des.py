"""Deterministic discrete-event replay of a trace against a fleet + policy.

:func:`replay_trace` is the cluster-level sibling of
:meth:`repro.sim.session.SimulationSession.simulate`: where the session
answers "how long does one request take on one chip", the replay answers
"what latency distribution, utilization and SLO attainment does this *fleet*
deliver under this *traffic* with this *scheduler*".

The split keeps replay cheap and bit-deterministic:

1. **Prefetch** — every distinct (worker-group backend, protein length) pair
   is simulated once through the shared
   :class:`~repro.sim.session.SimulationSession` (or a
   :class:`~repro.serving.service.LatencyService`, or sharded across
   :func:`repro.sim.sweep.sweep` with ``workers > 1``) — the only stage that
   touches a simulator.
2. **Replay** — one pure-Python event loop that merges the arrivals, in a
   stable time sort of the trace, with a small heap of completions and (when
   closed-loop features are on) crash / recovery / retry / scale events.
   Ties break on (time, kind, sequence) and idle workers are claimed
   lowest-id-first, so a given (trace, fleet, policy, faults, controllers)
   tuple replays to the bit-identical :class:`ClusterReport` on every run,
   machine and process — the property the golden tests pin.
   :func:`replay_trace` skips the per-request :class:`RequestOutcome`
   records that :func:`replay_trace_outcomes` builds.

Requests whose backend reports out-of-memory at their length are *dropped*
(counted, and counted against SLO attainment), never silently served.
Drops split into three buckets — ``oom_dropped`` (backend cannot serve the
length), ``shed`` (turned away by the :class:`~repro.cluster.control.AdmissionController`),
and ``failed`` (lost to a crash past the retry budget, or starved behind a
permanently dead fleet) — with ``dropped`` remaining their sum, so
``drop_rate`` means what it always did.

``same_length_reuse_discount`` models the shape-reuse effect the lower
layers measure directly (a cached operator table / compiled shape makes a
repeated length far cheaper than a cold one): a request served on a worker
whose *previous* request had the same length runs at a discount, and the
dispatcher prefers shape-matching idle workers.  Length-aware schedulers
form same-length runs and harvest the discount; FIFO interleaves shapes and
mostly does not — the capacity argument for length-bucketed batching.

Closed-loop extensions (all optional; every default preserves the open-loop
replay bit-for-bit):

* ``faults=`` a :class:`~repro.cluster.faults.FaultSchedule` injects worker
  crashes (in-flight work lost, detected after a lag, requeued under the
  ``recovery=`` :class:`~repro.cluster.faults.RecoveryPolicy`), straggler
  windows (dispatch reroutes around them via
  :func:`~repro.cluster.scheduler.select_worker`; an unavoidable straggler
  serves slower), and degraded-link windows (requests on a multi-chip group
  pay the interconnect delta of
  :meth:`~repro.cluster.fleet.MultiChipBackend.degraded_communication_seconds`).
* ``admission=`` an :class:`~repro.cluster.control.AdmissionController`
  bounds the queue with priority-aware shedding.
* ``autoscaler=`` an :class:`~repro.cluster.control.Autoscaler` resizes the
  fleet at fixed simulated-time ticks from observed queue depth and rolling
  SLO attainment, with scale-up lag; the report then prices the replay by
  time-weighted provisioned worker-hours instead of the static fleet rate.

Fault schedules address *base-fleet* worker ids; autoscaled workers never
crash or straggle (the conservative-for-the-autoscaler simplification).
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import Counter, deque
from dataclasses import dataclass, field
from math import inf
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Tuple, TYPE_CHECKING

from ..obs.timeline import TimelineRecorder
from ..ppm.config import PPMConfig
from ..serving.stats import percentile
from ..sim.session import SimulationSession, session_for
from ..sim.sweep import SweepPoint, sweep
from .control import AdmissionController, Autoscaler
from .faults import FaultSchedule, RecoveryPolicy
from .fleet import FleetSpec, MultiChipVariant, WorkerHealth
from .routing import RouterSpec, create_router, group_infos, router_name
from .scheduler import SchedulerSpec, create_scheduler, scheduler_name, select_worker
from .trace import RequestTrace

if TYPE_CHECKING:  # service routing is optional; avoid an import cycle at runtime
    from ..serving.service import LatencyService

#: Event kinds, in tie-break order at one timestamp.  Completions order
#: before arrivals so a worker freed at time t can serve a request arriving
#: at exactly t (the PR 5 invariant — no-fault replays only ever see
#: ``_COMPLETION`` and ``_ARRIVAL``, whose relative order is preserved).
#: Recoveries and arrived scale-ups land *before* arrivals (capacity that
#: comes back at t serves traffic arriving at t); retries land after
#: arrivals (a requeued request queues behind a same-instant fresh arrival);
#: autoscaler ticks observe everything else that happened at their instant.
#: Arrivals never enter the heap: the loop merges the time-sorted trace with
#: it, taking the heap top first iff its (time, kind) sorts before
#: (next arrival time, ``_ARRIVAL``) — the same order, trace position
#: standing in for the sequence number among same-instant arrivals.
_COMPLETION, _RECOVER, _CRASH, _SCALE_UP, _ARRIVAL, _RETRY, _AUTOSCALE = range(7)


@dataclass(frozen=True)
class ClusterReport:
    """Fleet-level outcome of one trace replay (the capacity-planning unit).

    ``utilization`` maps each worker-group label to busy-time over the
    group's provisioned capacity (``makespan * workers`` open-loop;
    time-weighted provisioned seconds under an autoscaler);
    ``slo_attainment`` is the fraction of *all* requests (dropped ones
    included) that completed within their deadline — deadline-free requests
    count as met when completed.  ``cost_per_million_requests`` prices the
    replay at the fleet's hourly rate over the makespan (open-loop) or over
    provisioned worker-hours (autoscaled).

    Resilience accounting: ``dropped == oom_dropped + shed + failed``;
    ``retried`` counts requeues after crashes (a request retried twice
    counts twice); ``downtime_seconds`` is summed worker-seconds spent dead;
    ``availability`` is provisioned-minus-dead over provisioned worker-time.
    ``mean_fleet_size`` / ``peak_fleet_size`` / ``worker_hours`` describe
    the provisioned fleet over time (constant open-loop, varying under an
    autoscaler).
    """

    trace_name: str
    fleet_name: str
    policy: str
    num_workers: int
    requests: int
    completed: int
    dropped: int
    makespan_seconds: float
    offered_rps: float
    throughput_rps: float
    mean_latency_seconds: float
    p50_latency_seconds: float
    p99_latency_seconds: float
    mean_wait_seconds: float
    p99_wait_seconds: float
    slo_attainment: float
    deadlines_missed: int
    max_queue_depth: int
    mean_queue_depth: float
    utilization: Mapping[str, float] = field(default_factory=dict)
    per_priority_attainment: Mapping[int, float] = field(default_factory=dict)
    cost_per_million_requests: float = 0.0
    #: Group-routing policy of the replay ("none" = group-oblivious dispatch).
    router: str = "none"
    events_processed: int = 0
    retried: int = 0
    shed: int = 0
    oom_dropped: int = 0
    failed: int = 0
    downtime_seconds: float = 0.0
    availability: float = 1.0
    mean_fleet_size: float = 0.0
    peak_fleet_size: int = 0
    worker_hours: float = 0.0
    shed_by_priority: Mapping[int, int] = field(default_factory=dict)

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.requests if self.requests else 0.0

    @property
    def admitted(self) -> int:
        """Requests past admission control (the shed-conservation partner)."""
        return self.requests - self.shed


#: (group index, sequence length) -> service seconds, or None when the
#: backend cannot serve that length (out of memory).
ServiceTimes = Dict[Tuple[int, int], Optional[float]]

#: (group index, sequence length) -> healthy per-request interconnect
#: seconds (0.0 for single-chip groups) — the base the degraded-link
#: surcharge scales from.
CommunicationTimes = Dict[Tuple[int, int], float]


def prefetch_service_times(
    trace: RequestTrace,
    fleet: FleetSpec,
    ppm_config: Optional[PPMConfig] = None,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
    workers: Optional[int] = None,
    length_bucket_size: Optional[int] = None,
) -> ServiceTimes:
    """Simulate every distinct (worker-group backend, length) pair once.

    With ``service=`` the pairs route through a shared
    :class:`~repro.serving.service.LatencyService` (its coalescing and worker
    pool apply); otherwise a session serves them via
    :meth:`~repro.sim.session.SimulationSession.simulate_batch` — one stacked
    vectorized pass per backend over the whole length mix (bit-identical to
    the per-length loop) — optionally warmed by a ``workers``-wide
    :func:`repro.sim.sweep.sweep` whose reports are seeded back into the
    session memo/disk cache first.

    ``length_bucket_size`` trades exactness for fewer simulated points: each
    distinct trace length maps to its shape bucket's *longest* member
    (:meth:`RequestTrace.bucketed_lengths`) and only representatives are
    simulated, so every (group, length) entry carries its representative's
    (conservative, never under-priced) service time.  ``None`` (default)
    keeps the exact per-length behavior.
    """
    representative = trace.bucketed_lengths(length_bucket_size)
    lengths = sorted(set(representative.values()))
    specs = [group.backend for group in fleet.groups]
    times: ServiceTimes = {}
    if service is not None:
        if ppm_config is not None and service.session.ppm_config != ppm_config:
            raise ValueError("ppm_config does not match service.session.ppm_config")
        reports = service.query_batch(
            [(spec, n) for spec in specs for n in lengths]
        )
        by_rep = {}
        for gi in range(len(specs)):
            for li, n in enumerate(lengths):
                report = reports[gi * len(lengths) + li]
                by_rep[(gi, n)] = None if report.out_of_memory else report.total_seconds
        for gi in range(len(specs)):
            for n, rep in representative.items():
                times[(gi, n)] = by_rep[(gi, rep)]
        return times
    session = session_for(ppm_config, session, backends=())
    if workers is not None and workers > 1:
        points = [SweepPoint(spec, n) for spec in specs for n in lengths]
        # The session's recycle setting must reach the sweep workers AND the
        # seed keys, or a recycles-enabled session would be warmed with (and
        # then serve) recycle-free reports — breaking pooled ≡ serial parity.
        reports = sweep(
            points,
            ppm_config=session.ppm_config,
            workers=workers,
            include_recycles=session.include_recycles,
        )
        for point, report in zip(points, reports):
            session.seed_report(
                point.backend,
                point.sequence_length,
                report,
                include_recycles=session.include_recycles,
            )
        # The pool already paid for full reports; consume them from the memo
        # rather than re-pricing in-process.
        batch = session.simulate_batch(lengths, backends=specs)
        for gi in range(len(specs)):
            name = batch.backends[gi]
            for n, rep in representative.items():
                report = batch.report(name, rep)
                times[(gi, n)] = None if report.out_of_memory else report.total_seconds
        return times
    # In-process: the planner only reads the scalar total per (group, length),
    # so take the totals-only stacked fast path — one engine pass per backend,
    # no per-length report assembly.
    totals = session.batch_total_seconds(lengths, backends=specs)
    index = {n: j for j, n in enumerate(lengths)}
    for gi in range(len(specs)):
        for n, rep in representative.items():
            times[(gi, n)] = totals[gi][index[rep]]
    return times


def prefetch_communication_seconds(
    trace: RequestTrace,
    fleet: FleetSpec,
    ppm_config: Optional[PPMConfig] = None,
) -> CommunicationTimes:
    """Healthy per-request interconnect time for every (group, length) pair.

    Pure arithmetic (no simulator): multi-chip groups report
    :meth:`~repro.cluster.fleet.MultiChipBackend.communication_seconds`,
    single-chip groups report 0.0 — which is why degraded-link fault windows
    cannot touch them.  The faulty replay charges
    ``comm * (1 / bandwidth_factor - 1)`` on top of the healthy prefetched
    service time, so fault injection never re-simulates anything.
    """
    lengths = trace.distinct_lengths()
    times: CommunicationTimes = {}
    for gi, group in enumerate(fleet.groups):
        spec = group.backend
        backend = None
        if callable(getattr(spec, "communication_seconds", None)):
            backend = spec
        elif isinstance(spec, MultiChipVariant):
            backend = spec.build(ppm_config)
        for n in lengths:
            times[(gi, n)] = (
                backend.communication_seconds(n) if backend is not None else 0.0
            )
    return times


@dataclass(frozen=True)
class RequestOutcome:
    """Per-request record of one replay (policy-invariant tests read these).

    ``drop_reason`` is ``None`` for served requests and one of ``"oom"``,
    ``"shed"``, ``"failed"`` or ``"starved"`` for dropped ones (``"failed"``
    is a crash past the retry budget; ``"starved"`` is a request still
    queued when the replay ends with no worker ever able to serve it — both
    land in the report's ``failed`` bucket).  ``retries`` counts how many
    times a crash requeued this request before it completed or was dropped.
    """

    request_id: int
    sequence_length: int
    priority: int
    arrival_seconds: float
    start_seconds: float
    finish_seconds: float
    met_deadline: bool
    dropped: bool = False
    drop_reason: Optional[str] = None
    retries: int = 0

    @property
    def latency_seconds(self) -> float:
        return self.finish_seconds - self.arrival_seconds

    @property
    def wait_seconds(self) -> float:
        return self.start_seconds - self.arrival_seconds


def replay_trace(
    trace: RequestTrace,
    fleet: FleetSpec,
    scheduler: SchedulerSpec = "fifo",
    ppm_config: Optional[PPMConfig] = None,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
    workers: Optional[int] = None,
    dispatch_overhead_seconds: float = 0.0,
    same_length_reuse_discount: float = 0.0,
    service_times: Optional[ServiceTimes] = None,
    faults: Optional[FaultSchedule] = None,
    recovery: Optional[RecoveryPolicy] = None,
    admission: Optional[AdmissionController] = None,
    autoscaler=None,
    communication_times: Optional[CommunicationTimes] = None,
    router: RouterSpec = None,
    timeline: Optional[TimelineRecorder] = None,
) -> ClusterReport:
    """Replay ``trace`` against ``fleet`` under ``scheduler``; emit a report.

    ``service_times`` short-circuits the prefetch (the planner reuses one
    prefetch across every fleet size and policy it sweeps).
    ``dispatch_overhead_seconds`` is a fixed per-request scheduling cost added
    to every service; ``same_length_reuse_discount`` (in [0, 1)) is the
    service-time fraction saved when a worker serves the same length twice in
    a row (shape/table reuse — 0 models a stateless worker).

    ``router`` selects a group-aware routing policy for heterogeneous fleets
    (:mod:`repro.cluster.routing`): ``None`` keeps the group-oblivious
    baseline (bit-identical to earlier replays), a name/instance routes each
    request to a feasible worker group — requests whose feasible groups are
    all busy wait instead of OOM-dropping.

    ``faults`` / ``recovery`` / ``admission`` / ``autoscaler`` switch on the
    closed-loop extensions (see the module docstring); all default to off,
    in which case the replay is bit-identical to the open-loop one.
    ``autoscaler`` accepts one :class:`~repro.cluster.control.Autoscaler`
    (applied independently to every worker group) or a sequence with one per
    group.

    ``timeline`` attaches a :class:`~repro.obs.timeline.TimelineRecorder`
    that captures the replay's event stream for Chrome trace-event /
    Perfetto export.  Recording is append-only observation — the report is
    bit-identical with or without it.
    """
    return _replay(
        trace, fleet, scheduler, ppm_config, session, service, workers,
        dispatch_overhead_seconds, same_length_reuse_discount, service_times,
        faults, recovery, admission, autoscaler, communication_times, router,
        timeline, None,
    )


def replay_trace_outcomes(
    trace: RequestTrace,
    fleet: FleetSpec,
    scheduler: SchedulerSpec = "fifo",
    ppm_config: Optional[PPMConfig] = None,
    session: Optional[SimulationSession] = None,
    service: Optional["LatencyService"] = None,
    workers: Optional[int] = None,
    dispatch_overhead_seconds: float = 0.0,
    same_length_reuse_discount: float = 0.0,
    service_times: Optional[ServiceTimes] = None,
    faults: Optional[FaultSchedule] = None,
    recovery: Optional[RecoveryPolicy] = None,
    admission: Optional[AdmissionController] = None,
    autoscaler=None,
    communication_times: Optional[CommunicationTimes] = None,
    router: RouterSpec = None,
    timeline: Optional[TimelineRecorder] = None,
) -> Tuple[ClusterReport, Tuple[RequestOutcome, ...]]:
    """:func:`replay_trace` plus the per-request :class:`RequestOutcome` log."""
    outcomes: List[RequestOutcome] = []
    report = _replay(
        trace, fleet, scheduler, ppm_config, session, service, workers,
        dispatch_overhead_seconds, same_length_reuse_discount, service_times,
        faults, recovery, admission, autoscaler, communication_times, router,
        timeline, outcomes,
    )
    return report, tuple(outcomes)


def _replay(
    trace, fleet, scheduler, ppm_config, session, service, workers,
    dispatch_overhead_seconds, same_length_reuse_discount, service_times,
    faults, recovery, admission, autoscaler, communication_times, router,
    timeline, outcomes: Optional[List[RequestOutcome]],
) -> ClusterReport:
    """The one event loop behind both entry points (arguments as there).

    Per-request :class:`RequestOutcome` records are appended to ``outcomes``
    when it is a list, and never built when it is ``None``.
    """
    if not 0.0 <= same_length_reuse_discount < 1.0:
        raise ValueError("same_length_reuse_discount must be in [0, 1)")
    if faults is not None and not faults:
        faults = None  # an empty schedule IS the healthy path, bit-for-bit
    if faults is not None and recovery is None:
        recovery = RecoveryPolicy()
    if admission is not None and admission.max_queue_depth is None:
        admission = None  # admit-everything IS the open-loop path
    num_groups = len(fleet.groups)
    # One Autoscaler applies per-group (the same reactive policy sizing each
    # group independently); a sequence supplies one per group.  All groups
    # share one tick chain, so intervals and attainment windows must agree.
    autoscalers: Optional[List[Autoscaler]] = None
    if autoscaler is not None:
        if isinstance(autoscaler, Autoscaler):
            autoscalers = [autoscaler] * num_groups
        else:
            autoscalers = list(autoscaler)
            if len(autoscalers) != num_groups:
                raise ValueError(
                    f"need one autoscaler per worker group "
                    f"({num_groups}), got {len(autoscalers)}"
                )
        first_scaler = autoscalers[0]
        if any(
            a.interval_seconds != first_scaler.interval_seconds
            or a.attainment_window != first_scaler.attainment_window
            for a in autoscalers
        ):
            raise ValueError(
                "per-group autoscalers must share interval_seconds and "
                "attainment_window (they ride one tick chain)"
            )
    policy = create_scheduler(scheduler)
    router_obj = create_router(router)
    if service_times is None:
        service_times = prefetch_service_times(
            trace, fleet, ppm_config=ppm_config, session=session,
            service=service, workers=workers,
        )
    #: length -> router's group-preference order (None = group-oblivious).
    pref_of: Optional[Dict[int, Tuple[int, ...]]] = None
    if router_obj is not None:
        infos = group_infos(fleet, service_times, trace)
        pref_of = {
            n: tuple(router_obj.preference(n, infos))
            for n in trace.distinct_lengths()
        }
    # Per-group queue-depth signal for multi-group autoscaling: a queued
    # request counts toward every group that could serve its length.  The
    # single-group path reads the whole queue length instead (bit-compat).
    queued_feasible: Optional[List[int]] = None
    feasible_of: Optional[Dict[int, Tuple[int, ...]]] = None
    if autoscalers is not None and num_groups > 1:
        queued_feasible = [0] * num_groups
        feasible_of = {
            n: (
                pref_of[n]
                if pref_of is not None
                else tuple(
                    gi
                    for gi in range(num_groups)
                    if service_times.get((gi, n)) is not None
                )
            )
            for n in trace.distinct_lengths()
        }
    degraded_links = faults is not None and bool(faults.degraded_links)
    if degraded_links and communication_times is None:
        cfg = ppm_config
        if cfg is None and session is not None:
            cfg = session.ppm_config
        if cfg is None and service is not None:
            cfg = service.session.ppm_config
        communication_times = prefetch_communication_seconds(
            trace, fleet, ppm_config=cfg
        )

    group_of = fleet.worker_groups()
    num_workers = len(group_of)
    labels = fleet.group_labels()
    if timeline is not None:
        timeline.configure(
            trace_name=trace.name,
            fleet_name=fleet.name,
            group_labels=labels,
            group_of=tuple(group_of),
        )

    # The heap holds only completions and control events, a few per worker;
    # arrivals merge in from the time-sorted trace (see the event kinds).
    arrivals = sorted(trace.requests, key=attrgetter("arrival_seconds"))
    num_arrivals = len(arrivals)
    next_index = 0
    next_arrival = arrivals[0].arrival_seconds if arrivals else inf
    heappush, heappop = heapq.heappush, heapq.heappop
    events: List[Tuple[float, int, int, object]] = []
    counter = 0
    for crash in faults.crashes if faults is not None else ():
        if crash.worker_id < num_workers:
            heappush(events, (crash.at_seconds, _CRASH, counter, crash))
            counter += 1
    #: Non-tick events still to come, unconsumed arrivals included — the
    #: autoscaler's "is there still anything to react to" signal (ticks
    #: never count themselves, or the loop would self-sustain forever).
    pending_non_tick = num_arrivals + counter
    if autoscalers is not None:
        heappush(events, (first_scaler.interval_seconds, _AUTOSCALE, counter, None))
        counter += 1
    #: Straggler-window edges not yet crossed, latest first.  The straggling
    #: set only changes at an edge (windows are half-open and event time
    #: never decreases), so it is recomputed when the clock crosses one.
    stragglers = faults.stragglers if faults is not None else ()
    edges = sorted(
        {t for w in stragglers for t in (w.start_seconds, w.end_seconds)}, reverse=True
    )
    next_edge = edges.pop() if edges else inf
    straggling: frozenset = frozenset()

    idle: List[int] = list(range(num_workers))  # kept sorted (lowest id first)
    busy_seconds = [0.0] * num_workers
    last_length: List[Optional[int]] = [None] * num_workers
    health: List[WorkerHealth] = [WorkerHealth.HEALTHY] * num_workers
    warmup_extra = [0.0] * num_workers
    provision_start = [0.0] * num_workers
    #: worker -> its (worker, request, start, finish) service, or None.  The
    #: completion event carries the same tuple, so a completion whose entry
    #: is no longer running was orphaned by a crash.
    running: List[Optional[Tuple[int, object, float, float]]] = [None] * num_workers
    down_since: Dict[int, float] = {}
    attempts: Dict[int, int] = {}  # request id -> crash-requeues so far

    latencies: List[float] = []
    waits: List[float] = []
    met_by_priority: Dict[int, int] = {}
    #: Attainment base per class: every request ends once, served or dropped.
    total_by_priority = Counter(r.priority for r in arrivals)
    shed_by_priority: Dict[int, int] = {}
    completed = dropped = deadlines_missed = 0
    retried = shed = oom_dropped = failed = 0
    events_processed = 0
    queue_length = 0  # len(policy), kept locally
    max_queue_depth = 0
    queue_depth_sum = 0
    last_time = trace.duration_seconds
    in_flight = 0
    pending_up = [0] * num_groups  # requested-but-not-yet-arrived, per group
    provisioned_done = [0.0] * num_groups  # retired workers' worker-seconds
    active_count = num_workers  # provisioned (non-retired) workers right now
    peak_fleet = num_workers
    downtime_total = 0.0
    recent_met: deque = deque(
        maxlen=first_scaler.attainment_window if autoscalers else 1
    )
    prefer_shape = same_length_reuse_discount > 0.0
    reuse_factor = 1.0 - same_length_reuse_discount
    push, pop = policy.push, policy.pop

    def note_queued(request, sign: int) -> None:
        """Maintain the per-group feasible-queue counters (multi-group only)."""
        for qgi in feasible_of[request.sequence_length]:
            queued_feasible[qgi] += sign

    def record_drop(request, now: float, reason: str, start: Optional[float] = None) -> None:
        nonlocal dropped, deadlines_missed, shed, oom_dropped, failed
        dropped += 1
        if reason == "shed":
            shed += 1
            shed_by_priority[request.priority] = (
                shed_by_priority.get(request.priority, 0) + 1
            )
        elif reason == "oom":
            oom_dropped += 1
        else:  # "failed" or "starved" — the lost-to-the-fleet bucket
            failed += 1
        if request.deadline_seconds is not None:
            deadlines_missed += 1
        if autoscalers is not None:
            recent_met.append(0)
        if outcomes is not None:
            outcomes.append(RequestOutcome(
                request.id, request.sequence_length, request.priority,
                request.arrival_seconds, now if start is None else start, now,
                False, True, reason, attempts.get(request.id, 0),
            ))
        if timeline is not None:
            timeline.drop(now, request.id, reason)

    while True:
        # The next event: the heap top iff (time, kind) sorts before
        # (next_arrival, _ARRIVAL) — the (time, kind, sequence) tie order.
        if next_index < num_arrivals and (
            not events
            or next_arrival < events[0][0]
            or (next_arrival == events[0][0] and events[0][1] > _ARRIVAL)
        ):
            time_now = next_arrival
            request = arrivals[next_index]
            next_index += 1
            if next_index < num_arrivals:
                next_arrival = arrivals[next_index].arrival_seconds
            pending_non_tick -= 1
            # No makespan update: it starts at the latest arrival already.
            if timeline is not None:
                timeline.arrival(
                    time_now, request.id, request.sequence_length, request.priority
                )
            if admission is not None and not admission.admits(
                request.priority, queue_length
            ):
                record_drop(request, time_now, "shed")
            else:
                push(request)
                queue_length += 1
                if queued_feasible is not None:
                    note_queued(request, 1)
        elif events:
            time_now, kind, _, payload = heappop(events)
            if kind != _AUTOSCALE:
                pending_non_tick -= 1
            if kind == _COMPLETION:
                worker, request, start, _ = payload
                if running[worker] is not payload:
                    continue  # the worker crashed mid-service; the crash handled it
                if time_now > last_time:
                    last_time = time_now
                running[worker] = None
                in_flight -= 1
                insort(idle, worker)
                completed += 1
                latencies.append(time_now - request.arrival_seconds)
                waits.append(start - request.arrival_seconds)
                deadline = request.deadline_seconds
                met = deadline is None or time_now <= deadline + 1e-12
                priority = request.priority
                if met:
                    met_by_priority[priority] = met_by_priority.get(priority, 0) + 1
                else:
                    deadlines_missed += 1
                if autoscalers is not None:
                    recent_met.append(1 if met else 0)
                if outcomes is not None:
                    outcomes.append(RequestOutcome(
                        request.id, request.sequence_length, priority,
                        request.arrival_seconds, start, time_now, met,
                        retries=attempts.get(request.id, 0),
                    ))
                if timeline is not None:
                    timeline.complete(time_now, worker, request.id, met)
            elif kind == _RETRY:
                if time_now > last_time:
                    last_time = time_now
                if timeline is not None:
                    timeline.retry(time_now, payload.id)
                push(payload)  # retries bypass admission: already accepted
                queue_length += 1
                if queued_feasible is not None:
                    note_queued(payload, 1)
            # Control-plane events (crashes, recoveries, scale changes, ticks)
            # move state but not the clock the makespan reads — a restart
            # long after the last request must not inflate it.
            elif kind == _CRASH:
                crash = payload
                w = crash.worker_id
                if health[w] in (WorkerHealth.HEALTHY, WorkerHealth.WARMING):
                    health[w] = WorkerHealth.DEAD
                    down_since[w] = time_now
                    if timeline is not None:
                        timeline.crash(time_now, w)
                    if w in idle:
                        idle.remove(w)
                    victim = running[w]
                    running[w] = None
                    if victim is not None:
                        _, request, start, finish = victim
                        in_flight -= 1
                        if timeline is not None:
                            timeline.abort(time_now, w, request.id)
                        busy_seconds[w] -= finish - time_now  # unserved remainder
                        detect = time_now + crash.detection_lag_seconds
                        used = attempts.get(request.id, 0)
                        if recovery.gives_up(used):
                            record_drop(request, detect, "failed", start=start)
                        else:
                            attempts[request.id] = used + 1
                            retried += 1
                            retry_at = detect + recovery.backoff_seconds(used)
                            heappush(events, (retry_at, _RETRY, counter, request))
                            counter += 1
                            pending_non_tick += 1
                    if crash.restart_after_seconds is not None:
                        restart_at = time_now + crash.restart_after_seconds
                        heappush(events, (restart_at, _RECOVER, counter, crash))
                        counter += 1
                        pending_non_tick += 1
            elif kind == _RECOVER:
                crash = payload
                w = crash.worker_id
                if health[w] is WorkerHealth.DEAD:
                    downtime_total += time_now - down_since.pop(w)
                    warmup_extra[w] = crash.warmup_seconds
                    health[w] = (
                        WorkerHealth.WARMING if crash.warmup_seconds > 0
                        else WorkerHealth.HEALTHY
                    )
                    last_length[w] = None  # restarted cold: no shape to reuse
                    insort(idle, w)
                    if timeline is not None:
                        timeline.recover(time_now, w)
            elif kind == _SCALE_UP:
                up_group = payload if payload is not None else 0
                pending_up[up_group] -= 1
                w = len(group_of)
                group_of.append(up_group)
                busy_seconds.append(0.0)
                last_length.append(None)
                health.append(WorkerHealth.HEALTHY)
                warmup_extra.append(0.0)
                provision_start.append(time_now)
                running.append(None)
                active_count += 1
                peak_fleet = max(peak_fleet, active_count)
                insort(idle, w)
                if timeline is not None:
                    timeline.scale_up(time_now, w, up_group)
            else:  # _AUTOSCALE
                if timeline is not None:
                    timeline.autoscale(time_now)
                window = len(recent_met)
                attainment = sum(recent_met) / window if window else 1.0
                for gi_scale, scaler in enumerate(autoscalers):
                    # A single group reads the whole queue.
                    depth_signal = (
                        queue_length if queued_feasible is None
                        else queued_feasible[gi_scale]
                    )
                    alive = sum(
                        1 for w, h in enumerate(health)
                        if group_of[w] == gi_scale
                        and h in (WorkerHealth.HEALTHY, WorkerHealth.WARMING)
                    )
                    delta = scaler.desired_delta(
                        depth_signal, alive, pending_up[gi_scale], attainment
                    )
                    if delta > 0:
                        arrive = time_now + scaler.scale_up_lag_seconds
                        for _ in range(delta):
                            heappush(events, (arrive, _SCALE_UP, counter, gi_scale))
                            counter += 1
                            pending_non_tick += 1
                            pending_up[gi_scale] += 1
                    elif delta < 0:
                        # Retire idle healthy workers only, highest id first —
                        # never a busy, warming, or dead one (a dead worker may
                        # still owe a restart; retiring it would double-account
                        # its lifetime).
                        retirable = [
                            w for w in reversed(idle)
                            if health[w] is WorkerHealth.HEALTHY
                            and group_of[w] == gi_scale
                        ][:-delta]
                        for w in retirable:
                            idle.remove(w)
                            health[w] = WorkerHealth.RETIRED
                            provisioned_done[gi_scale] += (
                                time_now - provision_start[w]
                            )
                            active_count -= 1
                            if timeline is not None:
                                timeline.retire(time_now, w)
                if pending_non_tick > 0 or queue_length > 0 or in_flight > 0:
                    tick_at = time_now + first_scaler.interval_seconds
                    heappush(events, (tick_at, _AUTOSCALE, counter, None))
                    counter += 1
        else:
            break
        events_processed += 1

        # Dispatch: hand queued requests to idle workers.
        if idle and queue_length:
            if time_now >= next_edge:
                while edges and edges[-1] <= time_now:
                    edges.pop()
                next_edge = edges.pop() if edges else inf
                straggling = faults.straggling_workers(time_now)
            #: Popped requests whose feasible groups are all busy (routed
            #: mode): requeued after the drain so they keep their queue
            #: position and the scheduler can offer the *next* request to
            #: the still-idle workers.
            deferred: List = []
            while idle and queue_length:
                request = pop(time_now)
                queue_length -= 1
                length = request.sequence_length
                if queued_feasible is not None:
                    note_queued(request, -1)
                if pref_of is not None:
                    prefs = pref_of[length]
                    if not prefs:
                        # No group in the fleet can ever hold this length.
                        record_drop(request, time_now, "oom")
                        continue
                    worker = None
                    for candidate_group in prefs:
                        tier = [w for w in idle if group_of[w] == candidate_group]
                        if tier:
                            worker = select_worker(
                                tier, length, last_length, prefer_shape, straggling
                            )
                            idle.remove(worker)
                            break
                    if worker is None:
                        deferred.append(request)
                        continue
                    gi = group_of[worker]
                    seconds = service_times[(gi, length)]
                else:
                    worker = select_worker(
                        idle, length, last_length, prefer_shape, straggling
                    )
                    gi = group_of[worker]
                    seconds = service_times[(gi, length)]
                    if seconds is None:
                        # The claimed worker's group cannot serve this length;
                        # the group-oblivious baseline drops it (pass
                        # ``router=`` to retry other groups).  The worker
                        # itself stays idle.
                        insort(idle, worker)
                        record_drop(request, time_now, "oom")
                        continue
                if last_length[worker] == length:
                    seconds *= reuse_factor
                last_length[worker] = length
                if worker in straggling:
                    seconds *= faults.slowdown_at(worker, time_now)
                if degraded_links:
                    link_factor = faults.link_factor_at(gi, time_now)
                    if link_factor < 1.0:
                        comm = communication_times[(gi, length)]
                        seconds += comm * (1.0 / link_factor - 1.0)
                extra = warmup_extra[worker]
                if extra:  # the first service after a warm restart
                    warmup_extra[worker] = 0.0
                    health[worker] = WorkerHealth.HEALTHY
                finish = time_now + dispatch_overhead_seconds + seconds + extra
                busy_seconds[worker] += dispatch_overhead_seconds + seconds + extra
                entry = (worker, request, time_now, finish)
                running[worker] = entry
                in_flight += 1
                heappush(events, (finish, _COMPLETION, counter, entry))
                counter += 1
                pending_non_tick += 1
                if timeline is not None:
                    timeline.dispatch(time_now, finish, worker, request.id, length)
            # Reversed so repeated requeue-at-head restores the original order.
            for request in reversed(deferred):
                policy.requeue(request)
                queue_length += 1
                if queued_feasible is not None:
                    note_queued(request, 1)
        if queue_length > max_queue_depth:
            max_queue_depth = queue_length
        queue_depth_sum += queue_length
        if timeline is not None:
            timeline.queue_depth(time_now, queue_length)

    makespan = last_time
    # Requests still queued were starved: every worker (routed mode: every
    # worker of their feasible groups) is dead with no restart coming, or
    # retired, so nothing will ever serve them.
    for _ in range(queue_length):
        record_drop(pop(makespan), makespan, "starved")
    for w, since in down_since.items():
        downtime_total += max(0.0, makespan - since)
    total_workers = len(group_of)
    provisioned_by_group = [
        provisioned_done[g]
        + sum(
            max(0.0, makespan - provision_start[w])
            for w in range(total_workers)
            if group_of[w] == g and health[w] is not WorkerHealth.RETIRED
        )
        for g in range(num_groups)
    ]
    provisioned_total = sum(provisioned_by_group)

    requests = len(trace)
    utilization = {}
    for index, label in enumerate(labels):
        members = [w for w, g in enumerate(group_of) if g == index]
        busy = sum(busy_seconds[w] for w in members)
        capacity = (
            len(members) * makespan if autoscalers is None else provisioned_by_group[index]
        )
        utilization[label] = busy / capacity if capacity > 0 else 0.0

    if autoscalers is None:
        hourly = fleet.cost_per_hour
        cost = hourly * (makespan / 3600.0) / completed * 1e6 if completed else 0.0
        worker_hours = num_workers * makespan / 3600.0
        mean_fleet = float(num_workers)
    else:
        # Worker-hours priced per group at that group's per-worker rate; one
        # group reduces to exactly the homogeneous expression of PR 6.
        provisioned_dollars = sum(
            (group.hourly_cost / group.count) * (provisioned_by_group[g] / 3600.0)
            for g, group in enumerate(fleet.groups)
        )
        cost = provisioned_dollars / completed * 1e6 if completed else 0.0
        worker_hours = provisioned_total / 3600.0
        mean_fleet = provisioned_total / makespan if makespan > 0 else float(num_workers)

    attained = sum(met_by_priority.values())
    return ClusterReport(
        trace_name=trace.name,
        fleet_name=fleet.name,
        policy=scheduler_name(scheduler),
        num_workers=num_workers,
        requests=requests,
        completed=completed,
        dropped=dropped,
        makespan_seconds=makespan,
        offered_rps=trace.offered_rps,
        throughput_rps=completed / makespan if makespan > 0 else 0.0,
        mean_latency_seconds=sum(latencies) / len(latencies) if latencies else 0.0,
        p50_latency_seconds=percentile(latencies, 50.0),
        p99_latency_seconds=percentile(latencies, 99.0),
        mean_wait_seconds=sum(waits) / len(waits) if waits else 0.0,
        p99_wait_seconds=percentile(waits, 99.0),
        slo_attainment=attained / requests if requests else 0.0,
        deadlines_missed=deadlines_missed,
        max_queue_depth=max_queue_depth,
        mean_queue_depth=queue_depth_sum / events_processed if events_processed else 0.0,
        utilization=utilization,
        per_priority_attainment={
            priority: met_by_priority.get(priority, 0) / total
            for priority, total in sorted(total_by_priority.items())
        },
        cost_per_million_requests=cost,
        router=router_name(router),
        events_processed=events_processed,
        retried=retried,
        shed=shed,
        oom_dropped=oom_dropped,
        failed=failed,
        downtime_seconds=downtime_total,
        availability=(
            max(0.0, 1.0 - downtime_total / provisioned_total)
            if provisioned_total > 0
            else 1.0
        ),
        mean_fleet_size=mean_fleet,
        peak_fleet_size=peak_fleet,
        worker_hours=worker_hours,
        shed_by_priority=dict(sorted(shed_by_priority.items())),
    )
