"""Perf: columnar (OperatorTable) simulator vs the legacy object-graph path.

Times `LightNobelAccelerator.simulate()` across sequence lengths and a
Fig. 11-style quantization DSE sweep through the accelerator, comparing the
vectorized + LRU-cached columnar engine against the per-operator legacy loop
that rebuilds the operator graph on every call.  Prints the speedup table and
asserts the columnar path is no slower (the repeated-sweep workload must be
at least 5x faster; in practice it is 20-60x).

A second benchmark covers the PR 2 unified simulation layer: a
`SimulationSession.simulate_batch` backed by a warm on-disk table cache
versus the PR 1 per-call path, in the cold-process regime (the LRU is cleared
each round, as a fresh sweep worker would see) and in the warm in-process
regime (where the session's report memo skips even the vectorized engine).
`clear_workload_caches` drops the per-config label cache too, so the cold
side rebuilds the labels as well as the tables.

A third benchmark guards the op-table build itself: the length-parametric
`get_op_table` (labels once per config, one folding block's sizes tiled per
length) against `OperatorTable.from_workload(build_model_ops(...))` over the
lengths of the ``dse-sweep`` perfbench workload, cold each round.

Each comparison times its two sides in interleaved rounds and compares
medians (see :mod:`_timing`).
"""

import tempfile

from _timing import interleaved_medians, interleaved_quartiles
from conftest import emit_bench_json, print_table

from repro.core.aaq import AAQConfig
from repro.hardware import LightNobelAccelerator, LightNobelConfig
from repro.ppm import PPMConfig, clear_workload_caches, get_op_table
from repro.ppm.op_table import OperatorTable
from repro.ppm.workload import build_model_ops
from repro.sim import SimulationSession

SEQUENCE_LENGTHS = (200, 400, 800)

#: Fig. 11-style AAQ design points swept through the accelerator model.
AAQ_SWEEP = tuple(
    AAQConfig.uniform(inlier_bits=bits, outlier_count=outliers)
    for bits in (4, 8)
    for outliers in (0, 4, 16)
)


#: Interleaved timing rounds per comparison.
ROUNDS = 5

#: The lengths ``perfbench/dse.py`` draws for ``dse-sweep`` seed 1.
DSE_SWEEP_LENGTHS = (
    77, 142, 175, 214, 239, 256, 348, 382, 513, 522, 589, 611,
    615, 659, 681, 689, 809, 886, 1013, 1082, 1086, 1410, 1631, 1883,
)


def run_legacy_lengths(config):
    accelerator = LightNobelAccelerator(ppm_config=config)
    return [
        accelerator.simulate_workload_legacy(build_model_ops(config, n)).total_seconds
        for n in SEQUENCE_LENGTHS
    ]


def run_columnar_lengths(config):
    accelerator = LightNobelAccelerator(ppm_config=config)
    return [accelerator.simulate(n).total_seconds for n in SEQUENCE_LENGTHS]


def run_legacy_sweep(config):
    """Legacy DSE: every design point re-simulates a freshly built graph."""
    results = []
    for aaq in AAQ_SWEEP:
        accelerator = LightNobelAccelerator(ppm_config=config, aaq_config=aaq)
        for n in SEQUENCE_LENGTHS:
            results.append(
                accelerator.simulate_workload_legacy(build_model_ops(config, n)).total_seconds
            )
    return results


def run_columnar_sweep(config):
    """Columnar DSE: cached tables, vectorized engine models."""
    results = []
    for aaq in AAQ_SWEEP:
        accelerator = LightNobelAccelerator(ppm_config=config, aaq_config=aaq)
        for n in SEQUENCE_LENGTHS:
            results.append(accelerator.simulate(n).total_seconds)
    return results


def run_hardware_sweep(config):
    """Fig. 12-style hardware sweep on the columnar path."""
    results = []
    for rmpus in (4, 8, 16, 32):
        accelerator = LightNobelAccelerator(
            hw_config=LightNobelConfig(num_rmpus=rmpus), ppm_config=config
        )
        for n in SEQUENCE_LENGTHS:
            results.append(accelerator.simulate(n).total_seconds)
    return results


def test_perf_columnar_vs_legacy(paper_config):
    clear_workload_caches()

    # Warm the table cache once, then measure the steady-state sweep regime.
    run_columnar_lengths(paper_config)
    legacy_single, columnar_single = interleaved_medians(
        lambda: run_legacy_lengths(paper_config),
        lambda: run_columnar_lengths(paper_config),
        rounds=ROUNDS,
    )
    legacy_sweep, columnar_sweep, hardware_sweep = interleaved_medians(
        lambda: run_legacy_sweep(paper_config),
        lambda: run_columnar_sweep(paper_config),
        lambda: run_hardware_sweep(paper_config),
        rounds=ROUNDS,
    )

    single_speedup = legacy_single / columnar_single
    sweep_speedup = legacy_sweep / columnar_sweep
    print_table(
        "Simulator perf: columnar OperatorTable vs legacy object graph",
        [
            ("workload", "legacy", "columnar", "speedup"),
            (
                f"simulate() x {len(SEQUENCE_LENGTHS)} lengths",
                f"{legacy_single * 1e3:8.1f} ms",
                f"{columnar_single * 1e3:8.1f} ms",
                f"{single_speedup:5.1f}x",
            ),
            (
                f"AAQ DSE sweep ({len(AAQ_SWEEP)} configs x {len(SEQUENCE_LENGTHS)} lengths)",
                f"{legacy_sweep * 1e3:8.1f} ms",
                f"{columnar_sweep * 1e3:8.1f} ms",
                f"{sweep_speedup:5.1f}x",
            ),
            (
                "hardware DSE (4 RMPU counts, columnar)",
                "-",
                f"{hardware_sweep * 1e3:8.1f} ms",
                "-",
            ),
        ],
    )

    # Same numbers out of both paths (the whole point of the refactor).
    legacy_values = run_legacy_lengths(paper_config)
    columnar_values = run_columnar_lengths(paper_config)
    for fast, slow in zip(columnar_values, legacy_values):
        assert abs(fast - slow) / slow < 1e-9

    emit_bench_json(
        "perf_simulator",
        {
            "legacy_single_seconds": legacy_single,
            "columnar_single_seconds": columnar_single,
            "single_speedup": single_speedup,
            "legacy_sweep_seconds": legacy_sweep,
            "columnar_sweep_seconds": columnar_sweep,
            "sweep_speedup": sweep_speedup,
            "hardware_sweep_seconds": hardware_sweep,
        },
    )

    # The columnar path must never be slower, and the repeated-sweep
    # workload (the regime every DSE/figure benchmark runs in) must clear
    # the 5x acceptance bar with margin.
    assert columnar_single <= legacy_single
    assert sweep_speedup >= 5.0


def run_percall_cold(config):
    """PR 1 per-call path as a fresh process sees it: rebuild every table."""
    clear_workload_caches()
    accelerator = LightNobelAccelerator(ppm_config=config)
    return [accelerator.simulate(n).total_seconds for n in SEQUENCE_LENGTHS]


def run_session_batch_cold(config, cache_dir):
    """Session batch as a fresh process sees it: tables from the disk cache."""
    clear_workload_caches()
    session = SimulationSession(ppm_config=config, cache_dir=cache_dir)
    batch = session.simulate_batch(SEQUENCE_LENGTHS, backends=["lightnobel"])
    return batch.totals("lightnobel")


def test_perf_session_batch_and_disk_cache(paper_config):
    with tempfile.TemporaryDirectory(prefix="repro-sim-bench-") as cache_dir:
        # Warm the disk cache once (one table build per distinct length).
        run_session_batch_cold(paper_config, cache_dir)

        percall_cold, session_cold = interleaved_medians(
            lambda: run_percall_cold(paper_config),
            lambda: run_session_batch_cold(paper_config, cache_dir),
            rounds=ROUNDS,
        )

        # Warm in-process regime: LRU is hot for the per-call path, the
        # session additionally memoizes whole reports.
        accelerator = LightNobelAccelerator(ppm_config=paper_config)
        session = SimulationSession(ppm_config=paper_config, cache_dir=cache_dir)
        session.simulate_batch(SEQUENCE_LENGTHS, backends=["lightnobel"])
        percall_warm, session_warm = interleaved_medians(
            lambda: [accelerator.simulate(n).total_seconds for n in SEQUENCE_LENGTHS],
            lambda: session.simulate_batch(
                SEQUENCE_LENGTHS, backends=["lightnobel"]
            ).totals("lightnobel"),
            rounds=ROUNDS,
        )

        cold_speedup = percall_cold / session_cold
        warm_speedup = percall_warm / session_warm
        print_table(
            "Sim layer perf: simulate_batch + disk cache vs PR 1 per-call path",
            [
                ("regime", "per-call", "session batch", "speedup"),
                (
                    f"cold process ({len(SEQUENCE_LENGTHS)} lengths, warm disk cache)",
                    f"{percall_cold * 1e3:8.1f} ms",
                    f"{session_cold * 1e3:8.1f} ms",
                    f"{cold_speedup:5.1f}x",
                ),
                (
                    "warm in-process (report memo vs LRU re-evaluation)",
                    f"{percall_warm * 1e3:8.2f} ms",
                    f"{session_warm * 1e3:8.2f} ms",
                    f"{warm_speedup:5.1f}x",
                ),
            ],
        )

        # Identical numbers out of both paths.
        expected = run_percall_cold(paper_config)
        actual = run_session_batch_cold(paper_config, cache_dir)
        for fast, slow in zip(actual, expected):
            assert abs(fast - slow) / slow < 1e-9

        emit_bench_json(
            "session_batch",
            {
                "percall_cold_seconds": percall_cold,
                "session_cold_seconds": session_cold,
                "cold_speedup": cold_speedup,
                "percall_warm_seconds": percall_warm,
                "session_warm_seconds": session_warm,
                "warm_speedup": warm_speedup,
            },
        )

        # The batch + warm-disk-cache path must beat the per-call path
        # measurably in the cold-process regime (the sharded-sweep regime).
        assert cold_speedup >= 1.5
        assert session_warm <= percall_warm * 1.5  # memo path never slower


def build_tables_length_parametric(config):
    """Cold ``get_op_table`` over the sweep: labels and every table rebuilt."""
    clear_workload_caches()
    return [get_op_table(config, n) for n in DSE_SWEEP_LENGTHS]


def build_tables_from_operators(config):
    """The oracle build: the full ``Operator`` graph per length, then encoded."""
    return [OperatorTable.from_workload(build_model_ops(config, n)) for n in DSE_SWEEP_LENGTHS]


def test_perf_op_table_build(paper_config):
    graph, parametric = interleaved_quartiles(
        lambda: build_tables_from_operators(paper_config),
        lambda: build_tables_length_parametric(paper_config),
        rounds=ROUNDS,
    )
    speedup = graph[1] / parametric[1]
    print_table(
        f"Op-table build: {len(DSE_SWEEP_LENGTHS)} dse-sweep lengths, cold, "
        f"median [IQR] of {ROUNDS} interleaved rounds",
        [
            ("build", "median", "IQR", "speedup"),
            *(
                (label, f"{q2 * 1e3:8.1f} ms", f"{(q3 - q1) * 1e3:6.1f} ms", tag)
                for label, (q1, q2, q3), tag in (
                    ("from_workload(build_model_ops)", graph, "-"),
                    ("get_op_table (length-parametric)", parametric, f"{speedup:5.1f}x"),
                )
            ),
        ],
    )
    emit_bench_json(
        "op_table_build",
        {
            "lengths": len(DSE_SWEEP_LENGTHS),
            "from_operators_seconds": graph[1],
            "from_operators_iqr_seconds": graph[2] - graph[0],
            "length_parametric_seconds": parametric[1],
            "length_parametric_iqr_seconds": parametric[2] - parametric[0],
            "speedup": speedup,
        },
    )
    assert speedup >= 5.0
