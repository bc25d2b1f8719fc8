"""Stacked multi-length operator tables (PR 7): invariants, goldens, parity.

Two independent implementations must agree on every latency number:

* the **legacy per-operator loop** (``simulate_workload_legacy``) — the
  original reference engine,
* the **stacked engine** (``simulate_stack`` / ``simulate_stack_totals``) —
  one ragged table, one vectorized pass over a whole traffic mix.  One
  length (``simulate_table``) is a one-segment stack, and must price as
  that length does inside any mix.

The stacked path must reproduce the pinned goldens of
:mod:`test_sim_goldens` on every registered backend, the totals-only fast
path must be *exactly* equal (``==``, not approx) to the report path, and a
hypothesis sweep over random length mixes (duplicates, singletons, unsorted)
plus shape-bucket boundaries keeps the batching layers honest.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_sim_goldens import (
    BACKENDS as GOLDEN_BACKENDS,
    GOLDENS,
    LENGTHS as GOLDEN_LENGTHS,
    assert_matches_golden,
)

from repro.cluster import (
    FleetSpec,
    mixture_lengths,
    poisson_trace,
    prefetch_service_times,
)
from repro.cluster.fleet import MultiChipVariant
from repro.gpu.gpu_config import get_gpu
from repro.ppm import PPMConfig, get_op_table, get_stacked_table, get_workload
from repro.ppm.op_table import StackedOperatorTable
from repro.serving import LatencyRequest, LatencyService
from repro.serving.api import length_bucket
from repro.sim import SimulationSession, available_backends, create_backend, sweep
from repro.sim.backend import GPUBackend

RELATIVE_TOLERANCE = 1e-9
MIX = (16, 24, 48, 72)
TIMEOUT = 120.0

#: A multi-chip node: composes over its inner backend's stacked pass.
MULTI_CHIP = MultiChipVariant(base="h100-chunk", chips=2)

#: Columns whose stacked concatenation must slice back to the per-length
#: arrays bytewise (everything a backend reads during evaluation).
COLUMNS = (
    "macs",
    "vector_ops",
    "input_elements",
    "output_elements",
    "weight_elements",
    "engine_codes",
    "phase_codes",
    "subphase_codes",
    "group_codes",
    "fusible",
)


@pytest.fixture(scope="module")
def config() -> PPMConfig:
    return PPMConfig.tiny()


@pytest.fixture(scope="module")
def session(config) -> SimulationSession:
    return SimulationSession(ppm_config=config, use_disk_cache=False)


def approx_equal(a: float, b: float) -> bool:
    return abs(a - b) <= RELATIVE_TOLERANCE * max(abs(a), abs(b))


def legacy_report(backend, config: PPMConfig, n: int):
    """The pre-columnar per-operator loop behind ``backend`` for length ``n``."""
    inner = getattr(backend, "inner", None)
    if inner is not None:
        # A multi-chip node: the inner loop's total split over the chips,
        # plus the interconnect time.
        single = legacy_report(inner, config, n).total_seconds
        return SimpleNamespace(
            total_seconds=single * (1.0 / backend.chips)
            + backend.communication_seconds(n)
        )
    workload = get_workload(config, n)
    simulator = getattr(backend, "simulator", None)
    if simulator is not None:
        return simulator.simulate_workload_legacy(workload)
    return backend.model.simulate_workload_legacy(workload, chunked=backend.chunked)


# ---------------------------------------------------------------- invariants
class TestStackInvariants:
    def test_canonicalized_and_shared(self, config):
        stack = get_stacked_table(config, [72, 16, 72, 24, 16])
        assert stack.lengths == (16, 24, 72)
        assert stack.num_segments == 3
        # Any order / duplication of the same length set shares one cached stack.
        assert stack is get_stacked_table(config, (16, 24, 72))

    def test_empty_mix_rejected(self, config):
        with pytest.raises(ValueError):
            get_stacked_table(config, ())

    def test_segments_recover_per_length_columns(self, config):
        stack = get_stacked_table(config, MIX)
        assert len(stack) == sum(len(get_op_table(config, n)) for n in MIX)
        for i, n in enumerate(stack.lengths):
            table = get_op_table(config, n)
            sl = stack.segments[i]
            assert sl == stack.segment(i)
            assert stack.segment_index(n) == i
            for column in COLUMNS:
                stacked = getattr(stack, column)[sl]
                assert np.array_equal(stacked, getattr(table, column)), column
            for engine in table.engines:
                assert np.array_equal(
                    stack.engine_mask(engine)[sl], table.engine_mask(engine)
                )
            for phase in table.phases:
                assert np.array_equal(
                    stack.phase_mask(phase)[sl], table.phase_mask(phase)
                )

    def test_segments_property_matches_offsets_and_is_cached(self, config):
        stack = get_stacked_table(config, MIX)
        bounds = stack.segment_starts.tolist()
        assert stack.segments == tuple(
            slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
        )
        assert stack.segments is stack.segments  # computed once per stack

    def test_weighted_sums_all_matches_per_segment_reduction(self, config):
        stack = get_stacked_table(config, MIX)
        values = np.arange(len(stack), dtype=np.float64) + 0.5
        for key in ("phase", "subphase", "engine"):
            assert stack.segment_weighted_sums_all(
                key, values
            ) == stack.segment_weighted_sums(key, values)

    def test_reduction_plan_is_cached(self, config):
        stack = get_stacked_table(config, MIX)
        assert stack._reduction_plan("phase") is stack._reduction_plan("phase")

    def test_segment_sums_match_slice_sums(self, config):
        stack = get_stacked_table(config, MIX)
        values = np.linspace(0.25, 4.0, len(stack))
        assert stack.segment_sums(values) == [
            float(values[sl].sum()) for sl in stack.segments
        ]

    def test_single_length_stack(self, config):
        stack = get_stacked_table(config, [40])
        assert stack.lengths == (40,)
        assert stack.segments == (slice(0, len(get_op_table(config, 40))),)

    def test_from_tables_preserves_order(self, config):
        # from_tables (the sweep path) keeps caller order; only the
        # get_stacked_table cache canonicalizes.
        tables = [get_op_table(config, n) for n in (48, 16)]
        stack = StackedOperatorTable.from_tables(tables)
        assert stack.lengths == (48, 16)


# ------------------------------------------------------------------- goldens
class TestStackedGoldens:
    """The stacked path reproduces the pinned PR 2 goldens on every backend."""

    def test_stacked_reports_match_pinned_goldens(self, config):
        stack = get_stacked_table(config, GOLDEN_LENGTHS)
        for backend_name in GOLDEN_BACKENDS:
            backend = create_backend(backend_name, config)
            reports = backend.simulate_stack(stack)
            assert [r.sequence_length for r in reports] == list(stack.lengths)
            for report in reports:
                assert_matches_golden(report, backend_name, report.sequence_length)

    def test_totals_fast_path_matches_pinned_goldens(self, config):
        stack = get_stacked_table(config, GOLDEN_LENGTHS)
        for backend_name in GOLDEN_BACKENDS:
            backend = create_backend(backend_name, config)
            for n, (total, oom) in zip(
                stack.lengths, backend.simulate_stack_totals(stack)
            ):
                golden_total, _, golden_oom = GOLDENS[(backend_name, n)]
                assert total == pytest.approx(golden_total, rel=RELATIVE_TOLERANCE)
                assert oom == golden_oom

    def test_legacy_loop_matches_pinned_goldens(self, config):
        for backend_name in GOLDEN_BACKENDS:
            backend = create_backend(backend_name, config)
            for n in GOLDEN_LENGTHS:
                golden_total, _, _ = GOLDENS[(backend_name, n)]
                assert legacy_report(backend, config, n).total_seconds == pytest.approx(
                    golden_total, rel=RELATIVE_TOLERANCE
                )


# -------------------------------------------------------------------- parity
class TestThreeWayParity:
    def test_stacked_per_length_legacy_agree_on_every_backend(self, config):
        stack = get_stacked_table(config, MIX)
        for spec in (*available_backends(), MULTI_CHIP):
            backend = create_backend(spec, config)
            stacked = backend.simulate_stack(stack)
            for n, seg in zip(stack.lengths, stacked):
                one = backend.simulate_table(get_op_table(config, n))
                legacy = legacy_report(backend, config, n)
                assert approx_equal(seg.total_seconds, one.total_seconds)
                assert approx_equal(seg.total_seconds, legacy.total_seconds)
                assert seg.out_of_memory == one.out_of_memory
                assert set(seg.phase_seconds) == set(one.phase_seconds)
                for phase, seconds in one.phase_seconds.items():
                    assert approx_equal(seg.phase_seconds[phase], seconds)
                for sub, seconds in one.subphase_seconds.items():
                    assert approx_equal(seg.subphase_seconds[sub], seconds)

    def test_totals_exactly_equal_stacked_reports(self, config):
        # The totals-only path skips report assembly but must produce the
        # *identical* floats — `==`, not a tolerance.
        stack = get_stacked_table(config, MIX)
        for spec in (*available_backends(), MULTI_CHIP):
            backend = create_backend(spec, config)
            assert backend.simulate_stack_totals(stack) == [
                (r.total_seconds, r.out_of_memory)
                for r in backend.simulate_stack(stack)
            ]


# ------------------------------------------------------- session batch totals
class TestBatchTotalSeconds:
    def test_matches_simulate_exactly_with_duplicates(self, config, session):
        lengths = [48, 16, 48, 24, 16]
        for name, totals in zip(
            ("lightnobel", "h100"),
            session.batch_total_seconds(lengths, backends=["lightnobel", "h100"]),
        ):
            assert totals == [
                session.simulate(n, backend=name).total_seconds for n in lengths
            ]

    def test_single_distinct_length_prices_one_segment_stack(self, config, session):
        totals = session.batch_total_seconds([32, 32], backends=["lightnobel"])
        assert totals == [[session.simulate(32, backend="lightnobel").total_seconds] * 2]

    def test_read_only_on_every_backend(self, config):
        # Nothing is seeded into the report memo, the multi-chip node included.
        for spec in ("h100-chunk", MULTI_CHIP):
            session = SimulationSession(ppm_config=config, use_disk_cache=False)
            session.batch_total_seconds([16, 24, 48], backends=[spec])
            assert session.stats()["reports_in_memory"] == 0

    def test_oom_lengths_map_to_none(self, config):
        # Shrink an H100's HBM until only the shorter half of the mix fits;
        # the totals path must report None exactly where simulate() says OOM.
        lengths = (16, 32, 64, 96)
        probe = GPUBackend("H100", ppm_config=config)
        peaks = sorted(probe.model.peak_memory_bytes(n) for n in lengths)
        cutoff_gb = (peaks[1] + peaks[2]) / 2 / 1e9
        spec = replace(get_gpu("H100"), name="H100-SMALLHBM", memory_gb=cutoff_gb)
        backend = GPUBackend(spec, ppm_config=config, name="h100-smallhbm")
        session = SimulationSession(ppm_config=config, use_disk_cache=False)
        totals = session.batch_total_seconds(lengths, backends=[backend])[0]
        for n, total in zip(lengths, totals):
            report = session.simulate(n, backend="h100-smallhbm")
            if report.out_of_memory:
                assert total is None
            else:
                assert total == report.total_seconds
        assert totals.count(None) == 2  # the cutoff splits the mix in half


# -------------------------------------------------------- hypothesis sweeps
class TestRandomMixes:
    @settings(max_examples=25, deadline=None)
    @given(mix=st.lists(st.integers(min_value=8, max_value=96), min_size=1, max_size=6))
    def test_any_mix_prices_identically_to_per_length(self, mix):
        # Duplicates, singletons, unsorted order — all must canonicalize to
        # one stack whose totals are exactly the per-length totals.
        config = PPMConfig.tiny()
        stack = get_stacked_table(config, mix)
        assert stack.lengths == tuple(sorted(set(mix)))
        session = SimulationSession(ppm_config=config, use_disk_cache=False)
        totals = session.batch_total_seconds(mix, backends=["lightnobel"])[0]
        assert totals == [
            session.simulate(n, backend="lightnobel").total_seconds for n in mix
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4096),
        size=st.one_of(st.none(), st.integers(min_value=0, max_value=256)),
    )
    def test_length_bucket_boundaries(self, n, size):
        bucket = length_bucket(n, size)
        if not size:
            assert bucket == 0  # None/0 = one shared bucket
        else:
            assert bucket == (n - 1) // size
            assert bucket * size < n <= (bucket + 1) * size
            assert length_bucket(n + 1, size) >= bucket  # monotone in length

    @settings(max_examples=30, deadline=None)
    @given(
        lengths=st.lists(
            st.integers(min_value=8, max_value=512), min_size=1, max_size=12, unique=True
        ),
        size=st.integers(min_value=1, max_value=128),
    )
    def test_bucket_representative_is_bucket_max(self, lengths, size):
        pool, weights = mixture_lengths([(n, 1.0) for n in lengths])
        trace = poisson_trace(
            rate_rps=50.0,
            num_requests=40,
            length_pool=pool,
            length_weights=weights,
            seed=1,
        )
        distinct = trace.distinct_lengths()
        mapping = trace.bucketed_lengths(size)
        assert set(mapping) == set(distinct)
        for n, representative in mapping.items():
            assert representative >= n  # conservative: never under-priced
            assert length_bucket(representative, size) == length_bucket(n, size)
            assert representative == max(
                m for m in distinct if length_bucket(m, size) == length_bucket(n, size)
            )
        assert trace.bucketed_lengths(None) == {n: n for n in distinct}


# --------------------------------------------------- serving bucketed batches
class TestBucketedServing:
    def test_bucketed_admission_matches_exact_and_counts_batches(self, config, session):
        lengths = (16, 24, 40, 48, 72, 80)
        requests = [LatencyRequest("lightnobel", n) for n in lengths]
        expected = {
            n: session.simulate(n, backend="lightnobel").total_seconds for n in lengths
        }

        # Queue everything before starting the dispatcher so the whole batch
        # lands in one dispatch: bucket width 32 over 16..80 = three buckets
        # of two lengths, each priced by one stacked pass.
        service = LatencyService(
            ppm_config=config,
            use_disk_cache=False,
            autostart=False,
            length_bucket_size=32,
        )
        tickets = service.submit_batch(requests)
        service.start()
        reports = [
            service.result(t, timeout=TIMEOUT).raise_for_error().report
            for t in tickets
        ]
        capacity = service.capacity_report()
        service.close()

        for n, report in zip(lengths, reports):
            assert report.total_seconds == expected[n]
        assert capacity.stacked_batches == 3
        assert capacity.stacked_points == len(lengths)

    def test_shared_bucket_stacks_the_whole_batch(self, config, session):
        lengths = (16, 40, 72)
        service = LatencyService(
            ppm_config=config, use_disk_cache=False, autostart=False
        )  # length_bucket_size=None: one shared bucket
        tickets = service.submit_batch(
            [LatencyRequest("lightnobel", n) for n in lengths]
        )
        service.start()
        reports = [
            service.result(t, timeout=TIMEOUT).raise_for_error().report
            for t in tickets
        ]
        capacity = service.capacity_report()
        service.close()

        for n, report in zip(lengths, reports):
            assert report.total_seconds == (
                session.simulate(n, backend="lightnobel").total_seconds
            )
        assert capacity.stacked_batches == 1
        assert capacity.stacked_points == len(lengths)


# ------------------------------------------------------- planner and sweeps
class TestPlannerPrefetch:
    def test_bucketed_prefetch_prices_bucket_representatives(self, config):
        pool, weights = mixture_lengths(
            [(n, 1.0) for n in (24, 40, 56, 88, 104, 136)]
        )
        trace = poisson_trace(
            rate_rps=100.0,
            num_requests=200,
            length_pool=pool,
            length_weights=weights,
            seed=7,
        )
        fleet = FleetSpec.homogeneous("lightnobel", 2)

        def fresh():
            return SimulationSession(ppm_config=config, use_disk_cache=False)

        exact = prefetch_service_times(trace, fleet, session=fresh())
        bucketed = prefetch_service_times(
            trace, fleet, session=fresh(), length_bucket_size=64
        )
        mapping = trace.bucketed_lengths(64)
        assert set(bucketed) == set(exact)
        for (group, n), seconds in bucketed.items():
            assert seconds == exact[(group, mapping[n])]


class TestSweepGrouping:
    def test_grouped_sweep_matches_session_exactly(self, config, session):
        points = [
            (backend, n) for backend in ("lightnobel", "h100") for n in (16, 32, 48)
        ]
        results = sweep(points, ppm_config=config, workers=None)
        for (backend, n), report in zip(points, results):
            assert report.total_seconds == (
                session.simulate(n, backend=backend).total_seconds
            )
