"""Tests for the columnar operator-table engine and its simulator parity.

The acceptance bar for the columnar refactor: `OperatorTable`-backed
`simulate()` and DSE results must be numerically identical (within 1e-9
relative) to the legacy per-operator object-graph path.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import GPUModel
from repro.hardware import LightNobelAccelerator, LightNobelConfig
from repro.ppm import PPMConfig
from repro.ppm import workload as workload_module
from repro.ppm.op_table import (
    OperatorTable,
    clear_workload_caches,
    get_op_table,
    get_stacked_table,
    get_workload,
    workload_cache_info,
)
from repro.ppm.workload import (
    ENGINE_MATMUL,
    ENGINE_VECTOR,
    PHASE_PAIR,
    PHASE_SEQUENCE,
    SUBPHASE_TRI_ATT,
    build_model_ops,
    model_weight_elements,
)
from repro.analysis.sizes import int8_equivalent_cost
from repro.core import AAQConfig


@pytest.fixture(scope="module")
def paper_config():
    return PPMConfig.paper()


@pytest.fixture(scope="module")
def workload(paper_config):
    return build_model_ops(paper_config, 96)


@pytest.fixture(scope="module")
def table(workload):
    return OperatorTable.from_workload(workload)


REL = 1e-9


def relerr(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestOperatorTable:
    def test_round_trip_preserves_every_operator(self, workload, table):
        restored = table.to_workload()
        assert len(restored.operators) == len(workload.operators) == len(table)
        for original, back in zip(workload.operators, restored.operators):
            assert original == back  # Operator is a frozen dataclass: field-wise

    def test_vectorized_totals_match_object_graph(self, workload, table):
        assert table.total_macs() == pytest.approx(workload.total_macs(), rel=REL)
        assert table.total_vector_ops() == pytest.approx(workload.total_vector_ops(), rel=REL)
        flops = sum(op.flops for op in workload.operators)
        assert table.total_flops() == pytest.approx(flops, rel=REL)

    def test_filter_matches_object_graph(self, workload, table):
        for phase, engine in [(PHASE_PAIR, None), (None, ENGINE_MATMUL),
                              (PHASE_SEQUENCE, ENGINE_VECTOR)]:
            ops = workload.filter(phase=phase, engine=engine)
            sub = table.filter(phase=phase, engine=engine)
            assert len(sub) == len(ops)
            assert sub.total_macs() == pytest.approx(sum(op.macs for op in ops), rel=REL)

    def test_subphase_filter(self, table, workload):
        sub = table.filter(subphase=SUBPHASE_TRI_ATT)
        expected = [op for op in workload.operators if op.subphase == SUBPHASE_TRI_ATT]
        assert len(sub) == len(expected)

    def test_by_phase_matches_object_graph(self, workload, table):
        legacy = workload.by_phase()
        columnar = table.by_phase()
        assert list(columnar) == list(legacy)  # same first-appearance order
        for phase, sub in columnar.items():
            assert len(sub) == len(legacy[phase])

    def test_groupby_sum(self, workload, table):
        sums = table.groupby_sum("phase", "macs")
        for phase, ops in workload.by_phase().items():
            assert sums[phase] == pytest.approx(sum(op.macs for op in ops), rel=REL)
        engine_sums = table.groupby_sum("engine", "vector_ops")
        assert engine_sums[ENGINE_VECTOR] == pytest.approx(
            workload.total_vector_ops(), rel=REL
        )
        with pytest.raises(ValueError):
            table.groupby_sum("nonsense")
        with pytest.raises(ValueError):
            table.column("nonsense")

    def test_columns_are_read_only(self, table):
        with pytest.raises(ValueError):
            table.macs[0] = 1.0


class TestWorkloadCache:
    def test_cache_returns_same_object(self, paper_config):
        clear_workload_caches()
        first = get_op_table(paper_config, 64)
        second = get_op_table(paper_config, 64)
        assert first is second

    def test_workload_cache_shares_operators_but_not_the_list(self, paper_config):
        first = get_workload(paper_config, 64)
        second = get_workload(paper_config, 64)
        assert first.operators[0] is second.operators[0]  # cached, frozen entries
        first.operators.append(first.operators[0])  # caller mutation...
        assert len(get_workload(paper_config, 64).operators) == len(second.operators)

    def test_cache_distinguishes_keys(self, paper_config):
        base = get_op_table(paper_config, 64)
        assert get_op_table(paper_config, 65) is not base
        assert get_op_table(paper_config.with_blocks(2), 64) is not base
        assert get_op_table(paper_config, 64, include_recycles=True) is not base

    def test_model_weight_elements_memoized_value(self, paper_config):
        direct = sum(
            op.weight_elements
            for op in build_model_ops(paper_config, 4).operators
            if op.phase != "input_embedding"
        )
        assert model_weight_elements(paper_config) == pytest.approx(direct, rel=REL)
        assert model_weight_elements(paper_config, include_language_model=True) == pytest.approx(
            direct + paper_config.language_model_params, rel=REL
        )


#: Configs of the length-parametric parity property, by name.
PARITY_CONFIGS = {
    "paper": PPMConfig.paper(),
    "small": PPMConfig.small(),
    "tiny": PPMConfig.tiny(),
    "paper-1-block": PPMConfig.paper().with_blocks(1),
    "paper-chunked": PPMConfig.paper().with_chunking(64, 32),
    "paper-2-recycles": PPMConfig.paper().with_recycles(2),
}


def assert_tables_equal(actual, expected):
    """Every field of two tables equal: label tuples by value, arrays bytewise."""
    for spec in dataclasses.fields(OperatorTable):
        if spec.name == "_memo":
            continue
        a, b = getattr(actual, spec.name), getattr(expected, spec.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), spec.name
        else:
            assert a == b, spec.name


class TestLengthParametricBuild:
    """`get_op_table` builds labels once per config and tiles one block's sizes."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(PARITY_CONFIGS)),
        n=st.integers(min_value=1, max_value=120_000),
        include_recycles=st.booleans(),
    )
    def test_equals_the_operator_graph_column_for_column(self, name, n, include_recycles):
        config = PARITY_CONFIGS[name]
        clear_workload_caches()
        table = get_op_table(config, n, include_recycles)
        assert workload_cache_info()[1].misses == 1
        oracle = OperatorTable.from_workload(build_model_ops(config, n, include_recycles))
        assert_tables_equal(table, oracle)

    def test_one_table_miss_per_new_key(self):
        clear_workload_caches()
        tiny = PPMConfig.tiny()
        keys = [(tiny, 5, False), (tiny, 6, False), (tiny, 5, True), (tiny.with_blocks(3), 5, False)]
        for misses, key in enumerate(keys, start=1):
            get_op_table(*key)
            get_op_table(*key)  # a repeat is a hit
            assert workload_cache_info()[1].misses == misses

    def test_tables_of_one_config_share_labels(self, paper_config):
        a, b = get_op_table(paper_config, 50), get_op_table(paper_config, 60)
        for name in ("names", "engines", "phases", "subphases", "groups", "engine_codes",
                     "phase_codes", "subphase_codes", "group_codes", "fusible"):
            assert getattr(a, name) is getattr(b, name)
        stack = get_stacked_table(paper_config, [50, 60])
        assert stack.phases is a.phases  # the shared-vocab fast path applied

    def test_rejects_non_positive_lengths(self, paper_config):
        with pytest.raises(ValueError):
            get_op_table(paper_config, 0)

    def test_a_block_sized_by_its_index_fails_loudly(self, monkeypatch):
        original = workload_module.build_folding_block_ops

        def indexed(config, n, block=0):
            return [
                dataclasses.replace(op, macs=op.macs * (block + 1))
                for op in original(config, n, block)
            ]

        monkeypatch.setattr(workload_module, "build_folding_block_ops", indexed)
        clear_workload_caches()
        with pytest.raises(AssertionError, match="misprice"):
            get_op_table(PPMConfig.tiny(), 8)


class TestAcceleratorParity:
    @pytest.mark.parametrize("n", [48, 160])
    @pytest.mark.parametrize("tokenwise_mha", [True, False])
    def test_simulate_matches_legacy(self, paper_config, n, tokenwise_mha):
        accelerator = LightNobelAccelerator(ppm_config=paper_config, tokenwise_mha=tokenwise_mha)
        legacy = accelerator.simulate_workload_legacy(build_model_ops(paper_config, n))
        fast = accelerator.simulate(n)
        assert relerr(fast.total_cycles, legacy.total_cycles) < REL
        assert relerr(fast.total_seconds, legacy.total_seconds) < REL
        assert relerr(fast.dram_bytes, legacy.dram_bytes) < REL
        assert set(fast.phase_cycles) == set(legacy.phase_cycles)
        for phase, cycles in legacy.phase_cycles.items():
            assert relerr(fast.phase_cycles[phase], cycles) < REL
        for subphase, cycles in legacy.subphase_cycles.items():
            assert relerr(fast.subphase_cycles[subphase], cycles) < REL

    def test_per_operator_latencies_match_legacy(self, paper_config):
        accelerator = LightNobelAccelerator(ppm_config=paper_config)
        workload = build_model_ops(paper_config, 64)
        legacy = accelerator.simulate_workload_legacy(workload)
        fast = accelerator.simulate_workload(workload)
        assert len(fast.operator_latencies) == len(legacy.operator_latencies)
        for a, b in zip(fast.operator_latencies, legacy.operator_latencies):
            assert a.name == b.name and a.phase == b.phase and a.subphase == b.subphase
            assert a.rmpu_cycles == pytest.approx(b.rmpu_cycles, rel=REL, abs=1e-12)
            assert a.vvpu_cycles == pytest.approx(b.vvpu_cycles, rel=REL, abs=1e-12)
            assert a.memory_cycles == pytest.approx(b.memory_cycles, rel=REL, abs=1e-12)
            assert a.bottleneck == b.bottleneck

    def test_bottleneck_share_matches_legacy(self, paper_config):
        accelerator = LightNobelAccelerator(ppm_config=paper_config)
        workload = build_model_ops(paper_config, 96)
        legacy = accelerator.simulate_workload_legacy(workload).bottleneck_share()
        fast = accelerator.simulate(96).bottleneck_share()
        assert set(fast) == set(legacy)
        for engine, share in legacy.items():
            assert fast[engine] == pytest.approx(share, rel=REL, abs=1e-12)

    def test_dse_sweep_matches_legacy(self, paper_config):
        """Fig. 12-style sweep: every design point identical on both paths."""
        lengths = [48, 96]
        for rmpus in (8, 32):
            hw = LightNobelConfig(num_rmpus=rmpus)
            accelerator = LightNobelAccelerator(hw_config=hw, ppm_config=paper_config)
            legacy = np.mean(
                [
                    accelerator.simulate_workload_legacy(
                        build_model_ops(paper_config, n)
                    ).total_seconds
                    for n in lengths
                ]
            )
            fast = np.mean([accelerator.simulate(n).total_seconds for n in lengths])
            assert relerr(fast, legacy) < REL


class TestGPUParity:
    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("gpu", ["A100", "H100"])
    def test_simulate_matches_legacy(self, paper_config, gpu, chunked):
        model = GPUModel(gpu, ppm_config=paper_config)
        legacy = model.simulate_workload_legacy(build_model_ops(paper_config, 96), chunked=chunked)
        fast = model.simulate(96, chunked=chunked)
        assert relerr(fast.total_seconds, legacy.total_seconds) < REL
        assert relerr(fast.kernel_count, legacy.kernel_count) < REL
        assert fast.out_of_memory == legacy.out_of_memory
        for phase, seconds in legacy.phase_seconds.items():
            assert relerr(fast.phase_seconds[phase], seconds) < REL
        for subphase, seconds in legacy.subphase_seconds.items():
            assert relerr(fast.subphase_seconds[subphase], seconds) < REL


class TestCostModelParity:
    def test_int8_cost_matches_object_graph(self, paper_config, workload, table):
        from repro.ppm.activation_tap import GROUP_C

        for aaq in (None, AAQConfig.paper_optimal()):
            legacy = 0.0
            for op in workload.operators:
                if op.engine == ENGINE_MATMUL and op.macs > 0:
                    if aaq is None:
                        act_bits = 16.0
                    else:
                        group_config = aaq.config_for(op.output_group or GROUP_C)
                        hidden = paper_config.pair_dim
                        outliers = min(group_config.outlier_count, hidden)
                        act_bits = (
                            (hidden - outliers) * group_config.inlier_bits
                            + outliers * group_config.outlier_bits
                        ) / hidden
                    legacy += op.macs * (act_bits / 8.0) * 2.0
                else:
                    legacy += op.vector_ops * 2.0
            assert int8_equivalent_cost(table, aaq) == pytest.approx(legacy, rel=REL)
            # The Workload entry point dispatches through the same columnar code.
            assert int8_equivalent_cost(workload, aaq) == pytest.approx(legacy, rel=REL)
