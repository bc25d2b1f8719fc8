"""Latency-serving layer: coalescing, ordering, pool-vs-serial parity, stats."""

import threading

import pytest

from repro.analysis import hardware_dse, latency_breakdown
from repro.analysis.latency import compare_hardware_on_lengths
from repro.gpu import EndToEndComparison
from repro.hardware import LightNobelConfig
from repro.ppm import PPMConfig
from repro.serving import (
    LatencyRequest,
    LatencyService,
    LatencyServiceError,
)
from repro.sim import SimulationSession
from repro.sim.backend import AcceleratorBackend

LENGTHS = (24, 40)
TIMEOUT = 120.0


@pytest.fixture()
def config() -> PPMConfig:
    return PPMConfig.tiny()


def make_service(config, **kwargs) -> LatencyService:
    # Disk cache off by default in these tests: several of them count
    # simulations, which a hit from the suite-wide sandbox cache would skip.
    kwargs.setdefault("use_disk_cache", False)
    return LatencyService(ppm_config=config, **kwargs)


@pytest.fixture()
def count_accelerator_sims(monkeypatch):
    """Count how many (backend, length) points the accelerator actually prices.

    A per-table call is one point; a stacked pass prices one point per
    segment — so the count is invariant to whether the service batched.
    """
    calls = {"n": 0}
    original = AcceleratorBackend.simulate_table
    original_stack = AcceleratorBackend.simulate_stack

    def counting(self, table):
        calls["n"] += 1
        return original(self, table)

    def counting_stack(self, stack):
        calls["n"] += stack.num_segments
        return original_stack(self, stack)

    monkeypatch.setattr(AcceleratorBackend, "simulate_table", counting)
    monkeypatch.setattr(AcceleratorBackend, "simulate_stack", counting_stack)
    return calls


class TestCoalescing:
    def test_identical_inflight_requests_share_one_simulation(
        self, config, count_accelerator_sims
    ):
        service = make_service(config, autostart=False)
        tickets = service.submit_batch(
            [LatencyRequest("lightnobel", LENGTHS[0])] * 8
        )
        assert service.queue_depth() == 1  # one unique job for 8 requests
        service.start()
        responses = [service.result(t, timeout=TIMEOUT) for t in tickets]
        assert count_accelerator_sims["n"] == 1
        assert service.stats.simulations == 1
        assert service.stats.coalesced == 7
        assert sum(r.coalesced for r in responses) == 7
        totals = {r.report.total_seconds for r in responses}
        assert len(totals) == 1
        service.close()

    def test_mixed_batch_coalesces_by_key(self, config, count_accelerator_sims):
        service = make_service(config, autostart=False)
        requests = [
            LatencyRequest("lightnobel", n) for n in (LENGTHS * 3)
        ]  # 6 requests, 2 unique keys
        tickets = service.submit_batch(requests)
        assert service.queue_depth() == 2
        service.start()
        for ticket in tickets:
            service.result(ticket, timeout=TIMEOUT).raise_for_error()
        assert count_accelerator_sims["n"] == 2
        assert service.stats.coalesced == 4
        service.close()

    def test_case_variants_of_a_name_coalesce(self, config):
        service = make_service(config, autostart=False)
        service.submit_batch([("H100", LENGTHS[0]), ("h100", LENGTHS[0])])
        assert service.queue_depth() == 1
        service.start()
        service.join(timeout=TIMEOUT)
        assert service.stats.coalesced == 1
        service.close()

    def test_distinct_recycle_flags_do_not_coalesce(self, config):
        service = make_service(config, autostart=False)
        service.submit_batch(
            [
                LatencyRequest("lightnobel", LENGTHS[0], include_recycles=False),
                LatencyRequest("lightnobel", LENGTHS[0], include_recycles=True),
            ]
        )
        assert service.queue_depth() == 2
        # Wait for the late-started drain: left running, it would price
        # these jobs inside the next test's monkeypatched sim counter.
        service.close()

    def test_late_duplicate_is_a_memo_hit(self, config, count_accelerator_sims):
        with make_service(config) as service:
            first = service.query("lightnobel", LENGTHS[0], timeout=TIMEOUT)
            again = service.query("lightnobel", LENGTHS[0], timeout=TIMEOUT)
            assert again.total_seconds == first.total_seconds
            assert count_accelerator_sims["n"] == 1
            assert service.stats.memo_hits == 1
            assert service.stats.coalesced == 0


class TestQueueOrdering:
    def test_jobs_complete_in_submission_order(self, config):
        service = make_service(config, autostart=False)
        requests = [
            LatencyRequest(spec, n)
            for spec in ("lightnobel", "h100", "a100-chunk")
            for n in LENGTHS
        ]
        tickets = service.submit_batch(requests)
        assert service.queue_depth() == len(requests)
        service.start()
        responses = [service.result(t, timeout=TIMEOUT) for t in tickets]
        order = [r.completed_index for r in responses]
        assert order == sorted(order)
        assert len(set(order)) == len(requests)
        service.close()

    def test_coalesced_requests_share_the_completed_index(self, config):
        service = make_service(config, autostart=False)
        tickets = service.submit_batch([("lightnobel", LENGTHS[0])] * 3)
        service.start()
        indices = {
            service.result(t, timeout=TIMEOUT).completed_index for t in tickets
        }
        assert len(indices) == 1
        service.close()

    def test_service_timings_are_ordered(self, config):
        with make_service(config) as service:
            ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[1]))
            response = service.result(ticket, timeout=TIMEOUT)
        assert 0.0 <= response.queue_seconds <= response.service_seconds


class TestWorkerPoolParity:
    def grid(self):
        return [
            (spec, n)
            for spec in ("lightnobel", "h100", "h100-chunk", LightNobelConfig(num_rmpus=8))
            for n in LENGTHS
        ]

    def test_pooled_matches_serial_and_direct_session(self, config):
        with make_service(config, workers=2) as pooled:
            pooled_reports = pooled.query_batch(self.grid(), timeout=TIMEOUT)
        with make_service(config, workers=None) as serial:
            serial_reports = serial.query_batch(self.grid(), timeout=TIMEOUT)
        session = SimulationSession(ppm_config=config, use_disk_cache=False)
        for (spec, n), fast, slow in zip(self.grid(), pooled_reports, serial_reports):
            direct = session.simulate(n, backend=spec)
            assert fast.total_seconds == slow.total_seconds == direct.total_seconds
            assert fast.phase_seconds == direct.phase_seconds

    def test_pooled_results_seed_the_session_memo(self, config):
        with make_service(config, workers=2) as service:
            service.query_batch(self.grid(), timeout=TIMEOUT)
            # Every pooled result must now be a memo hit on the shared session.
            for spec, n in self.grid():
                assert service.session.peek_report(spec, n) is not None

    def test_pool_unsafe_specs_still_served(self, config):
        # A live backend instance cannot be shipped to a worker process; the
        # service must evaluate it serially instead of failing.
        backend = AcceleratorBackend(ppm_config=config)
        backend.unpicklable = threading.Lock()
        with make_service(config, workers=2) as service:
            report = service.query(backend, LENGTHS[0], timeout=TIMEOUT)
        direct = SimulationSession(ppm_config=config, use_disk_cache=False).simulate(
            LENGTHS[0], backend="lightnobel"
        )
        assert report.total_seconds == direct.total_seconds


class TestSynchronousAndErrors:
    def test_query_returns_simreport(self, config):
        with make_service(config) as service:
            report = service.query("h100", LENGTHS[0], timeout=TIMEOUT)
        assert report.backend == "h100"
        assert report.total_seconds > 0

    def test_unknown_backend_is_an_error_response_not_a_crash(self, config):
        with make_service(config) as service:
            ticket = service.submit(LatencyRequest("not-a-backend", LENGTHS[0]))
            response = service.result(ticket, timeout=TIMEOUT)
            assert not response.ok
            assert "not-a-backend" in response.error
            with pytest.raises(LatencyServiceError):
                response.raise_for_error()
            # The service keeps serving after an error.
            assert service.query("h100", LENGTHS[0], timeout=TIMEOUT).total_seconds > 0
            assert service.stats.errors == 1

    def test_nonpositive_length_rejected_at_request_construction(self):
        with pytest.raises(ValueError):
            LatencyRequest("lightnobel", 0)

    def test_poll_semantics(self, config):
        service = make_service(config, autostart=False)
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        assert service.poll(ticket) is None  # not started yet
        service.start()
        service.join(timeout=TIMEOUT)
        response = service.poll(ticket)
        assert response is not None and response.ok
        with pytest.raises(KeyError):  # consumed
            service.poll(ticket)
        service.close()

    def test_submit_after_close_raises(self, config):
        service = make_service(config)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(LatencyRequest("lightnobel", LENGTHS[0]))

    def test_close_drains_pending_requests(self, config):
        service = make_service(config, autostart=False)
        tickets = service.submit_batch([("lightnobel", n) for n in LENGTHS])
        service.start()
        service.close(wait=True)
        for ticket in tickets:
            assert service.result(ticket, timeout=0.0).ok

    def test_close_drains_even_if_dispatcher_never_started(self, config):
        # Regression: close() on a staged-but-never-started service must
        # still fulfill the queued tickets, not strand them forever.
        service = make_service(config, autostart=False)
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        service.close(wait=True)
        assert service.result(ticket, timeout=0.0).ok

    def test_session_settings_rejected_alongside_session(self, config):
        session = SimulationSession(ppm_config=config)
        with pytest.raises(ValueError):
            LatencyService(session=session, use_disk_cache=False)
        with pytest.raises(ValueError):
            LatencyService(session=session, backends=("lightnobel",))

    def test_session_config_mismatch_raises(self, config):
        session = SimulationSession(ppm_config=config)
        with pytest.raises(ValueError):
            LatencyService(ppm_config=PPMConfig.small(), session=session)


class TestStatsAndCapacity:
    def test_counters_and_percentiles(self, config):
        with make_service(config) as service:
            service.query_batch(
                [("lightnobel", n) for n in LENGTHS] * 3, timeout=TIMEOUT
            )
            report = service.capacity_report()
        assert report.requests == 6
        assert report.completed == 6
        assert report.errors == 0
        assert report.simulations == 2
        assert report.coalesced + report.memo_hits == 4
        assert report.hit_rate == pytest.approx(4 / 6)
        assert report.queue_depth == 0
        assert report.peak_queue_depth >= 1
        assert report.busy_seconds > 0
        assert report.queries_per_second > 0
        labels = {row.backend for row in report.backends}
        assert "lightnobel" in labels
        for row in report.backends:
            assert row.requests > 0
            assert 0 <= row.p50_seconds <= row.p99_seconds

    def test_queue_depth_tracks_staged_load(self, config):
        service = make_service(config, autostart=False)
        service.submit_batch([("lightnobel", n) for n in LENGTHS])
        assert service.stats.peak_queue_depth == 2
        service.start()
        service.join(timeout=TIMEOUT)
        assert service.queue_depth() == 0
        service.close()


class TestRewiredEntryPoints:
    def test_latency_breakdown_matches_session_path(self, config):
        with make_service(config) as service:
            via_service = latency_breakdown(LENGTHS[0], config=config, service=service)
        direct = latency_breakdown(
            LENGTHS[0], session=SimulationSession(ppm_config=config, use_disk_cache=False)
        )
        assert via_service.phase_fractions == direct.phase_fractions
        assert via_service.subphase_fractions == direct.subphase_fractions

    def test_compare_hardware_matches_session_path(self, config):
        with make_service(config, workers=2) as service:
            via_service = compare_hardware_on_lengths(
                "dataset", LENGTHS, config=config, service=service
            )
        direct = compare_hardware_on_lengths(
            "dataset",
            LENGTHS,
            session=SimulationSession(ppm_config=config, use_disk_cache=False),
        )
        assert via_service.lightnobel_seconds == direct.lightnobel_seconds
        assert via_service.gpu_seconds == direct.gpu_seconds
        assert via_service.out_of_memory == direct.out_of_memory

    def test_hardware_dse_matches_sweep_path(self, config):
        kwargs = dict(
            sequence_lengths=[LENGTHS[0]],
            rmpu_counts=(8, 32),
            vvpu_counts=(2, 4),
            config=config,
        )
        with make_service(config, workers=2) as service:
            via_service = hardware_dse(service=service, **kwargs)
        direct = hardware_dse(**kwargs)
        for key in ("vvpu_sweep", "rmpu_sweep"):
            assert [p.average_latency_seconds for p in via_service[key]] == [
                p.average_latency_seconds for p in direct[key]
            ]

    def test_end_to_end_comparison_matches_session_path(self, config):
        with make_service(config) as service:
            via_service = EndToEndComparison(service=service).compare(LENGTHS)
        direct = EndToEndComparison(
            session=SimulationSession(ppm_config=config, use_disk_cache=False)
        ).compare(LENGTHS)
        assert via_service == direct

    def test_service_session_mismatch_raises(self, config):
        with make_service(config) as service:
            other = SimulationSession(ppm_config=config)
            with pytest.raises(ValueError):
                latency_breakdown(
                    LENGTHS[0], config=config, session=other, service=service
                )
            with pytest.raises(ValueError):
                hardware_dse(
                    [LENGTHS[0]], config=PPMConfig.small(), service=service
                )

    def test_concurrent_tenants_share_coalesced_work(self, config):
        # Two "tenants" submit overlapping grids from different threads; the
        # service must answer both with consistent numbers and coalesce the
        # overlap whenever the queue still holds the duplicate.
        results = {}

        def tenant(name, service):
            results[name] = [
                r.total_seconds
                for r in service.query_batch(
                    [("lightnobel", n) for n in LENGTHS * 2], timeout=TIMEOUT
                )
            ]

        with make_service(config) as service:
            threads = [
                threading.Thread(target=tenant, args=(i, service)) for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert service.stats.simulations == len(LENGTHS)
        assert results[0] == results[1] == results[2]


class TestWorkerPoolLifecycle:
    """The long-lived worker pool: created once, reused, cleanly shut down."""

    def grid(self):
        return [
            (spec, n)
            for spec in ("lightnobel", "h100", "h100-chunk")
            for n in LENGTHS
        ]

    def test_pool_is_created_lazily_and_reused_across_batches(self, config):
        with make_service(config, workers=2) as service:
            assert service._pool is None  # nothing pooled yet
            service.query_batch(self.grid(), timeout=TIMEOUT)
            first_pool = service._pool
            assert first_pool is not None
            # A second batch of *new* unique keys must reuse the same executor,
            # not stand up a fresh one per batch.
            service.query_batch(
                [("a100", n) for n in LENGTHS] + [("a100-chunk", n) for n in LENGTHS],
                timeout=TIMEOUT,
            )
            assert service._pool is first_pool

    def test_close_shuts_the_pool_down(self, config):
        service = make_service(config, workers=2)
        with service:
            service.query_batch(self.grid(), timeout=TIMEOUT)
            pool = service._pool
            assert pool is not None
        assert service._pool is None
        # The executor is genuinely shut down, not leaked: submitting raises.
        with pytest.raises(RuntimeError):
            pool.submit(int, 0)

    def test_serial_service_never_creates_a_pool(self, config):
        with make_service(config, workers=None) as service:
            service.query_batch(self.grid(), timeout=TIMEOUT)
            assert service._pool is None

    def test_pooled_results_still_match_direct_session(self, config):
        with make_service(config, workers=2) as service:
            reports = service.query_batch(self.grid(), timeout=TIMEOUT)
        session = SimulationSession(ppm_config=config, use_disk_cache=False)
        for (spec, n), report in zip(self.grid(), reports):
            assert report.total_seconds == session.simulate(n, backend=spec).total_seconds


class TestPriorityDeadlineDispatch:
    """LatencyRequest priority/deadline fields steer the dispatcher queue."""

    def test_higher_priority_dispatches_first(self, config):
        service = make_service(config, autostart=False, max_batch=2)
        low = service.submit_batch(
            [LatencyRequest("lightnobel", n) for n in (24, 32, 40, 48)]
        )
        high = service.submit(LatencyRequest("h100", 24, priority=3))
        service.start()
        high_index = service.result(high, timeout=TIMEOUT).completed_index
        low_indices = [
            service.result(t, timeout=TIMEOUT).completed_index for t in low
        ]
        service.close()
        # Submitted last, dispatched first.
        assert high_index < min(low_indices)
        # Default-priority requests keep FIFO order among themselves.
        assert low_indices == sorted(low_indices)

    def test_earlier_deadline_wins_within_a_priority(self, config):
        service = make_service(config, autostart=False, max_batch=1)
        no_deadline = service.submit_batch(
            [LatencyRequest("lightnobel", n) for n in (24, 32, 40)]
        )
        late = service.submit(LatencyRequest("h100", 40, deadline_seconds=60.0))
        soon = service.submit(LatencyRequest("h100", 24, deadline_seconds=0.5))
        service.start()
        soon_index = service.result(soon, timeout=TIMEOUT).completed_index
        late_index = service.result(late, timeout=TIMEOUT).completed_index
        rest = [service.result(t, timeout=TIMEOUT).completed_index for t in no_deadline]
        service.close()
        # Any finite deadline beats no deadline; earlier beats later.
        assert soon_index < late_index
        assert late_index < min(rest)

    def test_priority_beats_deadline(self, config):
        service = make_service(config, autostart=False, max_batch=1)
        deadline = service.submit(
            LatencyRequest("lightnobel", 24, deadline_seconds=0.001)
        )
        priority = service.submit(LatencyRequest("h100", 24, priority=1))
        service.start()
        p = service.result(priority, timeout=TIMEOUT).completed_index
        d = service.result(deadline, timeout=TIMEOUT).completed_index
        service.close()
        assert p < d

    def test_coalesced_duplicate_tightens_job_urgency(self, config):
        service = make_service(config, autostart=False, max_batch=1)
        slow = service.submit(LatencyRequest("lightnobel", 24))
        filler = service.submit(LatencyRequest("lightnobel", 32))
        # A high-priority duplicate of the first job coalesces onto it and
        # must drag the shared job ahead of the filler.
        dup = service.submit(LatencyRequest("lightnobel", 24, priority=9))
        assert service.queue_depth() == 2
        service.start()
        slow_index = service.result(slow, timeout=TIMEOUT).completed_index
        dup_index = service.result(dup, timeout=TIMEOUT).completed_index
        filler_index = service.result(filler, timeout=TIMEOUT).completed_index
        service.close()
        assert slow_index == dup_index  # one shared job
        assert slow_index < filler_index

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            LatencyRequest("lightnobel", 24, deadline_seconds=0.0)
        with pytest.raises(ValueError):
            LatencyRequest("lightnobel", 24, deadline_seconds=-1.0)

    def test_default_requests_still_complete_in_submission_order(self, config):
        # The dispatch-order sort is stable for all-default traffic: this is
        # the same FIFO contract TestQueueOrdering pins, re-checked with a
        # small max_batch so multiple drains happen.
        service = make_service(config, autostart=False, max_batch=2)
        tickets = service.submit_batch(
            [LatencyRequest("lightnobel", n) for n in (24, 32, 40, 48, 56)]
        )
        service.start()
        order = [service.result(t, timeout=TIMEOUT).completed_index for t in tickets]
        service.close()
        assert order == sorted(order)


class TestPoolableVariantSpecs:
    """Duck-typed variant specs only shard when a worker could rebuild them."""

    def test_multichip_over_registry_name_is_poolable(self, config):
        from repro.cluster import MultiChipVariant
        from repro.serving.service import _poolable

        assert _poolable(MultiChipVariant(base="lightnobel", chips=2))
        assert _poolable(MultiChipVariant(base="h100-chunk", chips=4))

    def test_multichip_over_live_backend_is_not_poolable(self, config):
        from repro.cluster import MultiChipVariant
        from repro.serving.service import _poolable
        from repro.sim.backend import AcceleratorBackend

        live = AcceleratorBackend(ppm_config=config)
        assert not _poolable(MultiChipVariant(base=live, chips=2))

    def test_unpoolable_multichip_job_runs_serially_without_pool_teardown(self, config):
        from repro.cluster import MultiChipVariant
        from repro.sim.backend import AcceleratorBackend

        with make_service(config, workers=2) as service:
            # Warm the pool with ordinary poolable work.
            service.query_batch([("h100", n) for n in LENGTHS], timeout=TIMEOUT)
            pool = service._pool
            assert pool is not None
            # A node spec wrapping a live backend cannot rebuild in a worker:
            # it must run serially and leave the healthy pool untouched.
            live_node = MultiChipVariant(base=AcceleratorBackend(ppm_config=config), chips=2)
            report = service.query(live_node, LENGTHS[0], timeout=TIMEOUT)
            assert report.details["chips"] == 2.0
            assert service._pool is pool


class TestServiceResilience:
    """Worker-pool death, result timeouts, and dispatcher crashes stay contained."""

    def grid(self):
        return [("lightnobel", n) for n in LENGTHS] + [("h100", n) for n in LENGTHS]

    def test_broken_pool_is_rebuilt_once_and_the_batch_still_succeeds(
        self, config, monkeypatch
    ):
        import repro.serving.service as service_module

        real_sweep = service_module.sweep
        calls = {"n": 0}

        def dying_sweep(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise BrokenPipeError("worker pool died mid-batch")
            return real_sweep(*args, **kwargs)

        monkeypatch.setattr(service_module, "sweep", dying_sweep)
        with make_service(config, workers=2) as service:
            reports = service.query_batch(self.grid(), timeout=TIMEOUT)
            assert service.stats.pool_rebuilds == 1
            assert service.capacity_report().pool_rebuilds == 1
        session = SimulationSession(ppm_config=config, use_disk_cache=False)
        for (spec, n), report in zip(self.grid(), reports):
            assert report.total_seconds == session.simulate(n, backend=spec).total_seconds

    def test_persistently_broken_pool_degrades_to_serial(self, config, monkeypatch):
        import repro.serving.service as service_module

        def always_broken(*args, **kwargs):
            raise BrokenPipeError("every pool is cursed")

        monkeypatch.setattr(service_module, "sweep", always_broken)
        with make_service(config, workers=2) as service:
            reports = service.query_batch(self.grid(), timeout=TIMEOUT)
            # One rebuild attempt, then the serial fallback — never an error
            # response, never a hang.
            assert service.stats.pool_rebuilds == 1
            assert service.stats.errors == 0
        session = SimulationSession(ppm_config=config, use_disk_cache=False)
        for (spec, n), report in zip(self.grid(), reports):
            assert report.total_seconds == session.simulate(n, backend=spec).total_seconds

    def test_result_timeout_is_counted_and_leaves_the_ticket_claimable(self, config):
        service = make_service(config, autostart=False)
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        with pytest.raises(TimeoutError):
            service.result(ticket, timeout=0.01)  # dispatcher never started
        assert service.stats.timeouts == 1
        assert service.capacity_report().timed_out == 1
        service.start()
        response = service.result(ticket, timeout=TIMEOUT)  # still claimable
        assert response.ok
        service.close()

    def test_dispatcher_survives_an_execute_crash(self, config, monkeypatch):
        service = make_service(config, autostart=False)
        real_execute = service._execute
        calls = {"n": 0}

        def crashing_execute(jobs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("session corrupted")
            return real_execute(jobs)

        monkeypatch.setattr(service, "_execute", crashing_execute)
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        service.start()
        response = service.result(ticket, timeout=TIMEOUT)
        # The crashed batch surfaces as per-request errors, not a hang...
        assert not response.ok
        assert "dispatcher error" in response.error
        assert "session corrupted" in response.error
        # ...and the dispatcher thread is still alive to serve what follows.
        report = service.query("lightnobel", LENGTHS[1], timeout=TIMEOUT)
        assert report.total_seconds > 0
        assert service.stats.errors == 1
        service.close()


class TestPercentileEdgeCases:
    """The explicit contract of repro.serving.stats.percentile."""

    def test_empty_input_is_zero(self):
        from repro.serving.stats import percentile

        assert percentile([], 50.0) == 0.0
        assert percentile((), 0.0) == 0.0
        assert percentile([], 100.0) == 0.0

    def test_single_sample_is_every_percentile(self):
        from repro.serving.stats import percentile

        for q in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert percentile([0.125], q) == 0.125

    def test_q0_is_min_and_q100_is_max(self):
        from repro.serving.stats import percentile

        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 5.0

    def test_nearest_rank_interior(self):
        from repro.serving.stats import percentile

        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50.0) == 2.0  # rank ceil(0.5 * 4) = 2
        assert percentile(values, 99.0) == 4.0

    def test_out_of_range_or_nan_raises(self):
        from repro.serving.stats import percentile

        for bad in (-0.1, 100.1, float("nan")):
            with pytest.raises(ValueError):
                percentile([1.0], bad)

    def test_input_is_not_mutated(self):
        from repro.serving.stats import percentile

        values = [3.0, 1.0, 2.0]
        percentile(values, 50.0)
        assert values == [3.0, 1.0, 2.0]


class TestLateResults:
    """A completion landing after every waiter gave up is counted, not lost."""

    def test_late_result_is_counted_and_reapable(self, config):
        service = make_service(config, autostart=False)
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        with pytest.raises(TimeoutError):
            service.result(ticket, timeout=0.01)  # dispatcher never started
        service.start()
        assert service.join(timeout=TIMEOUT)
        # The completion landed with no waiter attached: counted as late in
        # stats (the satellite-2 leak), response still reclaimable.
        assert service.stats.late_results == 1
        report = service.capacity_report()
        assert report.late_results == 1
        assert report.completed == 1
        reaped = service.reap_abandoned()
        assert len(reaped) == 1
        assert reaped[0].ok
        assert service.reap_abandoned() == []  # consumed, table is clean
        service.close()

    def test_reclaimed_ticket_is_not_reapable_twice(self, config):
        service = make_service(config, autostart=False)
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        with pytest.raises(TimeoutError):
            service.result(ticket, timeout=0.01)
        service.start()
        response = service.result(ticket, timeout=TIMEOUT)  # still claimable
        assert response.ok
        assert service.reap_abandoned() == []  # result() consumed the ticket
        service.close()

    def test_on_time_results_count_no_late_completions(self, config):
        with make_service(config) as service:
            service.query_batch([("lightnobel", n) for n in LENGTHS], timeout=TIMEOUT)
            assert service.stats.late_results == 0
            assert service.capacity_report().late_results == 0
            assert service.reap_abandoned() == []


class TestRequestLog:
    """The structured per-request log behind RequestTrace.from_serving_log."""

    def test_log_records_the_request_annotations(self, config):
        service = make_service(config, autostart=False)
        ticket = service.submit(
            LatencyRequest(
                "lightnobel", LENGTHS[0], priority=1, deadline_seconds=5.0
            )
        )
        service.start()
        service.result(ticket, timeout=TIMEOUT).raise_for_error()
        (record,) = service.request_log()
        assert record.ticket_id == ticket
        assert record.backend == "lightnobel"
        assert record.sequence_length == LENGTHS[0]
        assert record.priority == 1
        assert record.deadline_seconds == 5.0  # relative, as submitted
        assert record.outcome == "ok" and record.ok
        assert record.arrival_seconds >= 0.0
        assert record.queue_seconds >= 0.0
        assert record.service_seconds > 0.0
        service.close()

    def test_log_is_in_fulfillment_order_and_complete(self, config):
        with make_service(config) as service:
            service.query_batch(
                [("lightnobel", n) for n in LENGTHS] * 2, timeout=TIMEOUT
            )
        log = service.request_log()
        assert len(log) == 4
        completed_order = [r.ticket_id for r in log]
        assert len(set(completed_order)) == 4

    def test_request_log_limit_bounds_the_log(self, config):
        service = make_service(config, request_log_limit=3, autostart=False)
        tickets = service.submit_batch(
            [("lightnobel", LENGTHS[i % 2]) for i in range(5)]
        )
        service.start()
        for ticket in tickets:
            service.result(ticket, timeout=TIMEOUT)
        log = service.request_log()
        assert len(log) == 3  # oldest two fell out FIFO
        service.close()

    def test_failed_requests_log_an_error_outcome(self, config, monkeypatch):
        service = make_service(config, autostart=False)
        monkeypatch.setattr(
            service,
            "_execute",
            lambda jobs: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        ticket = service.submit(LatencyRequest("lightnobel", LENGTHS[0]))
        service.start()
        response = service.result(ticket, timeout=TIMEOUT)
        assert not response.ok
        (record,) = service.request_log()
        assert record.outcome == "error"
        assert not record.ok
        service.close()
