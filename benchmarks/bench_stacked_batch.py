"""Perf: stacked multi-length operator tables vs the per-length loop.

The PR 7 tentpole: a traffic mix of N distinct sequence lengths used to cost
N separate columnar evaluations — N x ~40 small numpy ufunc launches plus N
Python-level parameter-grouping passes.  A :class:`StackedOperatorTable`
concatenates the mix into one ragged table (per-length segments recoverable
by offset) and each backend prices the whole mix with ONE vectorized pass.

Two guards:

* the 30-length CI guard — stacked evaluation must beat the per-length loop
  by >= 3x on the tiny config (the overhead-dominated regime every planner
  grid and serving batch runs in),
* bit-parity — every stacked segment report must match its per-length
  counterpart to <= 1e-9 relative on every registered backend.

The headline 50-length measurement and the planner-grid wall-clock
before/after are printed and written to ``BENCH_stacked_batch.json`` for
EXPERIMENTS.md.  Every comparison times its sides in interleaved rounds and
compares medians (see :func:`time_call`).
"""

import statistics
import time

from conftest import emit_bench_json, print_table

from repro.cluster import (
    FleetSpec,
    SLOPolicy,
    bursty_trace,
    mixture_lengths,
    prefetch_service_times,
)
from repro.ppm import PPMConfig, get_op_table, get_stacked_table
from repro.sim import SimulationSession, available_backends, create_backend

#: Totals-only headline floor enforced in CI (measured ~11x; see
#: EXPERIMENTS.md for the recorded run).
MIN_TOTALS_SPEEDUP = 5.0

#: CI guard: stacked pass over a 30-length mix must beat the loop by >= 3x.
GUARD_MIX = 30
MIN_GUARD_SPEEDUP = 3.0

#: Headline measurement recorded in EXPERIMENTS.md.
HEADLINE_MIX = 50


def length_mix(count, start=16, step=8):
    return tuple(start + i * step for i in range(count))


#: Interleaved timing rounds per comparison.
ROUNDS = 21


def time_call(*fns, rounds=ROUNDS):
    """Median seconds of each call in ``fns``, timed in interleaved rounds.

    Every round times each call once, in turn, so drift on a shared host
    hits all of them alike, and the median drops the rounds a neighbour
    stole; a back-to-back minimum lets one side catch a quiet window the
    other misses.
    """
    samples = [[] for _ in fns]
    for _ in range(rounds):
        for fn, times in zip(fns, samples):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return tuple(statistics.median(times) for times in samples)


def assert_parity(per_length, stacked):
    """Stacked segment reports must match per-length reports to <= 1e-9."""
    assert len(per_length) == len(stacked)
    for one, seg in zip(per_length, stacked):
        assert seg.sequence_length == one.sequence_length
        assert abs(seg.total_seconds - one.total_seconds) <= 1e-9 * abs(
            one.total_seconds
        )
        for phase, seconds in one.phase_seconds.items():
            assert abs(seg.phase_seconds[phase] - seconds) <= 1e-9 * abs(seconds)
        assert seg.out_of_memory == one.out_of_memory


def measure_backend(config, backend_name, lengths):
    """(per-length seconds, stacked seconds, speedup) with warm tables."""
    backend = create_backend(backend_name, config)
    tables = [get_op_table(config, n) for n in lengths]
    stack = get_stacked_table(config, lengths)

    per_length_reports = [backend.simulate_table(t) for t in tables]
    stacked_reports = backend.simulate_stack(stack)
    assert_parity(per_length_reports, stacked_reports)

    loop, stacked = time_call(
        lambda: [backend.simulate_table(t) for t in tables],
        lambda: backend.simulate_stack(stack),
    )
    return loop, stacked, loop / stacked


def test_stacked_mix_beats_per_length_loop():
    """CI guard: >= 3x on a 30-length mix; headline 50-length table."""
    config = PPMConfig.tiny()
    guard = length_mix(GUARD_MIX)
    headline = length_mix(HEADLINE_MIX)

    rows = [("backend", "mix", "per-length", "us/length", "stacked", "speedup")]
    results = {}
    for backend_name in ("lightnobel", "h100", "h100-chunk"):
        for label, lengths in (("guard30", guard), ("headline50", headline)):
            loop, stacked, speedup = measure_backend(config, backend_name, lengths)
            results[f"{backend_name}_{label}"] = {
                "per_length_seconds": loop,
                "per_length_us_per_length": loop / len(lengths) * 1e6,
                "stacked_seconds": stacked,
                "speedup": speedup,
            }
            rows.append(
                (
                    backend_name,
                    f"{len(lengths)} lengths",
                    f"{loop * 1e3:8.2f} ms",
                    f"{loop / len(lengths) * 1e6:6.1f}",
                    f"{stacked * 1e3:8.2f} ms",
                    f"{speedup:5.1f}x",
                )
            )
    print_table("Stacked operator tables: one pass prices the whole mix", rows)

    emit_bench_json("stacked_batch", results)

    # The CI perf guard: the overhead-dominated tiny-config regime is where
    # planner grids and serving batches live; stacking must win big there.
    for backend_name in ("lightnobel", "h100"):
        speedup = results[f"{backend_name}_guard30"]["speedup"]
        assert speedup >= MIN_GUARD_SPEEDUP, (
            f"stacked pass only {speedup:.1f}x faster than the per-length loop "
            f"on {backend_name} ({GUARD_MIX} lengths); floor is "
            f"{MIN_GUARD_SPEEDUP:.0f}x"
        )


def test_stacked_totals_headline():
    """Headline: pricing a 50-length mix to service times (the planner shape).

    Before this PR the only API was the per-length full-report loop; the
    planner's prefetch reads nothing but ``total_seconds``/OOM per length, so
    the totals-only stacked pass is the end-to-end before/after of mix
    pricing.  Totals are bit-identical to the per-length reports.
    """
    config = PPMConfig.tiny()
    lengths = length_mix(HEADLINE_MIX)
    backend = create_backend("lightnobel", config)
    tables = [get_op_table(config, n) for n in lengths]
    stack = get_stacked_table(config, lengths)

    reference = [backend.simulate_table(t) for t in tables]
    assert backend.simulate_stack_totals(stack) == [
        (r.total_seconds, r.out_of_memory) for r in reference
    ]

    loop, totals = time_call(
        lambda: [backend.simulate_table(t).total_seconds for t in tables],
        lambda: backend.simulate_stack_totals(stack),
    )

    def session_loop():
        session = SimulationSession(ppm_config=config, use_disk_cache=False)
        return [
            session.simulate(n, backend="lightnobel").total_seconds for n in lengths
        ]

    def session_totals():
        session = SimulationSession(ppm_config=config, use_disk_cache=False)
        return session.batch_total_seconds(lengths, backends=["lightnobel"])

    session_loop()  # warm the process-wide table LRU
    session_before, session_after = time_call(session_loop, session_totals)

    print_table(
        f"Totals-only mix pricing ({HEADLINE_MIX} lengths, lightnobel)",
        [
            ("level", "per-length loop", "stacked totals", "speedup"),
            (
                "backend",
                f"{loop * 1e3:8.2f} ms",
                f"{totals * 1e3:8.2f} ms",
                f"{loop / totals:5.1f}x",
            ),
            (
                "session",
                f"{session_before * 1e3:8.2f} ms",
                f"{session_after * 1e3:8.2f} ms",
                f"{session_before / session_after:5.1f}x",
            ),
        ],
    )
    emit_bench_json(
        "stacked_totals",
        {
            "mix": HEADLINE_MIX,
            "backend_loop_seconds": loop,
            "backend_totals_seconds": totals,
            "backend_speedup": loop / totals,
            "session_loop_seconds": session_before,
            "session_totals_seconds": session_after,
            "session_speedup": session_before / session_after,
        },
    )
    assert loop / totals >= MIN_TOTALS_SPEEDUP, (
        f"totals-only stacked pass only {loop / totals:.1f}x faster than the "
        f"per-length loop ({HEADLINE_MIX} lengths); floor is "
        f"{MIN_TOTALS_SPEEDUP:.0f}x"
    )


def test_stacked_parity_on_every_registered_backend():
    """Stacked == per-length to <= 1e-9 on every registry backend."""
    config = PPMConfig.tiny()
    lengths = length_mix(12)
    tables = [get_op_table(config, n) for n in lengths]
    stack = get_stacked_table(config, lengths)
    for backend_name in available_backends():
        backend = create_backend(backend_name, config)
        assert_parity(
            [backend.simulate_table(t) for t in tables],
            backend.simulate_stack(stack),
        )


def test_planner_prefetch_wall_clock():
    """Planner-grid service-time prefetch: per-length vs stacked vs bucketed."""
    config = PPMConfig.tiny()
    pool, weights = mixture_lengths(
        [(n, 1.0) for n in length_mix(40, start=24, step=8)]
    )
    trace = bursty_trace(
        rate_rps=200.0,
        num_requests=2000,
        length_pool=pool,
        length_weights=weights,
        slo=SLOPolicy(base_seconds=0.05, per_residue_seconds=2.5e-4),
        seed=3,
    )
    fleet = FleetSpec.homogeneous("lightnobel", 4)
    distinct = trace.distinct_lengths()

    def fresh_session():
        return SimulationSession(ppm_config=config, use_disk_cache=False)

    # Warm the process-wide table LRU once so every variant below measures
    # pricing, not graph construction (the regime a planner grid runs in).
    prefetch_service_times(trace, fleet, session=fresh_session())

    def per_length_prefetch():
        # The pre-PR-7 shape: one simulate() call per (group, length) pair.
        session = fresh_session()
        spec = fleet.groups[0].backend
        return {
            (0, n): session.simulate(n, backend=spec).total_seconds
            for n in distinct
        }

    before, after, bucketed = time_call(
        per_length_prefetch,
        lambda: prefetch_service_times(trace, fleet, session=fresh_session()),
        lambda: prefetch_service_times(
            trace, fleet, session=fresh_session(), length_bucket_size=64
        ),
        rounds=7,
    )

    exact = prefetch_service_times(trace, fleet, session=fresh_session())
    reference = per_length_prefetch()
    for n in distinct:
        assert abs(exact[(0, n)] - reference[(0, n)]) <= 1e-9 * reference[(0, n)]

    buckets = len(set(trace.bucketed_lengths(64).values()))
    print_table(
        "Planner service-time prefetch wall-clock",
        [
            ("variant", "points", "seconds", "speedup"),
            ("per-length loop", len(distinct), f"{before * 1e3:8.2f} ms", "1.0x"),
            (
                "stacked prefetch",
                len(distinct),
                f"{after * 1e3:8.2f} ms",
                f"{before / after:5.1f}x",
            ),
            (
                "stacked + bucket64",
                buckets,
                f"{bucketed * 1e3:8.2f} ms",
                f"{before / bucketed:5.1f}x",
            ),
        ],
    )
    emit_bench_json(
        "planner_prefetch",
        {
            "distinct_lengths": len(distinct),
            "buckets_64": buckets,
            "per_length_seconds": before,
            "stacked_seconds": after,
            "bucketed_seconds": bucketed,
            "stacked_speedup": before / after,
            "bucketed_speedup": before / bucketed,
        },
    )
    assert after <= before  # the stacked prefetch must never lose
