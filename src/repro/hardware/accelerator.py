"""LightNobel accelerator: cycle-level latency simulation (Section 6).

The simulator consumes the operator graph of :mod:`repro.ppm.workload` and an
AAQ configuration, and models the three pipelined engines of the accelerator:

* RMPU — bit-decomposed matrix throughput with DAL utilization,
* VVPU — vector operations plus runtime quantization (top-k, scaling, packing),
* HBM  — burst-aligned activation traffic at the quantized sizes.

Per the paper, the overall latency of each pipeline stage is the longest of
the engine delays for that stage; the end-to-end latency is their sum.  The
token-wise MHA optimization (Section 5.4) keeps the attention score matrix on
chip, which removes both its DRAM traffic and its quantization cost.

The hot path is columnar and has one entry: :meth:`LightNobelAccelerator.simulate_stack`
evaluates all engine latencies as vectorized expressions over the columns of
a :class:`~repro.ppm.op_table.StackedOperatorTable` (a whole length mix) and
reduces each segment to its report.  One length is a one-segment stack:
:meth:`~LightNobelAccelerator.simulate_table` prices the table's memoized
:meth:`~repro.ppm.op_table.OperatorTable.as_stack`.  The original
per-operator loop is kept as :meth:`simulate_workload_legacy` and serves as
the independent numerical reference for the parity tests and perf
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.aaq import AAQConfig
from ..ppm.activation_tap import GROUP_C
from ..ppm.config import PPMConfig
from ..ppm.op_table import OperatorTable, StackedOperatorTable, get_op_table
from ..ppm.workload import (
    ENGINE_MATMUL,
    PHASE_INPUT_EMBEDDING,
    PHASE_PAIR,
    PHASE_SEQUENCE,
    PHASE_STRUCTURE,
    Operator,
    Workload,
)
from .config import LightNobelConfig
from .memory import HBMModel
from .pe import units_per_mac
from .rmpu import RMPU
from .vvpu import VVPU


@dataclass
class OperatorLatency:
    """Latency contributions of one operator (in cycles)."""

    name: str
    phase: str
    subphase: str
    rmpu_cycles: float
    vvpu_cycles: float
    memory_cycles: float

    @property
    def stage_cycles(self) -> float:
        """Pipeline-stage latency: the slowest engine bounds the stage."""
        return max(self.rmpu_cycles, self.vvpu_cycles, self.memory_cycles)

    @property
    def bottleneck(self) -> str:
        values = {
            "rmpu": self.rmpu_cycles,
            "vvpu": self.vvpu_cycles,
            "memory": self.memory_cycles,
        }
        return max(values, key=values.get)


@dataclass
class _LatencyColumns:
    """Columnar per-operator latencies backing a lazily-built object list."""

    names: Sequence[str]
    phase_codes: np.ndarray
    phases: Tuple[str, ...]
    subphase_codes: np.ndarray
    subphases: Tuple[str, ...]
    rmpu_cycles: np.ndarray
    vvpu_cycles: np.ndarray
    memory_cycles: np.ndarray

    def materialize(self) -> List[OperatorLatency]:
        return [
            OperatorLatency(
                name=name,
                phase=self.phases[p],
                subphase=self.subphases[s],
                rmpu_cycles=float(r),
                vvpu_cycles=float(v),
                memory_cycles=float(m),
            )
            for name, p, s, r, v, m in zip(
                self.names,
                self.phase_codes,
                self.subphase_codes,
                self.rmpu_cycles,
                self.vvpu_cycles,
                self.memory_cycles,
            )
        ]


@dataclass
class LatencyReport:
    """Result of simulating one PPM inference on LightNobel."""

    sequence_length: int
    total_cycles: float
    total_seconds: float
    phase_cycles: Dict[str, float] = field(default_factory=dict)
    subphase_cycles: Dict[str, float] = field(default_factory=dict)
    dram_bytes: float = 0.0
    _latencies: Optional[List[OperatorLatency]] = None
    _columns: Optional[_LatencyColumns] = None

    @property
    def operator_latencies(self) -> List[OperatorLatency]:
        """Per-operator latencies (materialized on demand on the columnar path)."""
        if self._latencies is None:
            self._latencies = self._columns.materialize() if self._columns else []
        return self._latencies

    def phase_seconds(self, clock_hz: float) -> Dict[str, float]:
        return {phase: cycles / clock_hz for phase, cycles in self.phase_cycles.items()}

    def bottleneck_share(self) -> Dict[str, float]:
        """Fraction of stage latency bound by each engine."""
        if self._columns is not None:
            stacked = np.vstack(
                [
                    self._columns.rmpu_cycles,
                    self._columns.vvpu_cycles,
                    self._columns.memory_cycles,
                ]
            )
            stage = stacked.max(axis=0)
            winner = stacked.argmax(axis=0)
            sums = np.bincount(winner, weights=stage, minlength=3)
            total = float(sums.sum()) or 1.0
            return {
                "rmpu": float(sums[0]) / total,
                "vvpu": float(sums[1]) / total,
                "memory": float(sums[2]) / total,
            }
        totals: Dict[str, float] = {"rmpu": 0.0, "vvpu": 0.0, "memory": 0.0}
        for op in self.operator_latencies:
            totals[op.bottleneck] += op.stage_cycles
        total = sum(totals.values()) or 1.0
        return {k: v / total for k, v in totals.items()}


class LightNobelAccelerator:
    """Latency simulator for the LightNobel accelerator."""

    def __init__(
        self,
        hw_config: Optional[LightNobelConfig] = None,
        ppm_config: Optional[PPMConfig] = None,
        aaq_config: Optional[AAQConfig] = None,
        tokenwise_mha: bool = True,
    ) -> None:
        self.hw_config = hw_config or LightNobelConfig.paper()
        self.ppm_config = ppm_config or PPMConfig.paper()
        self.aaq_config = aaq_config or AAQConfig.paper_optimal()
        self.tokenwise_mha = tokenwise_mha
        self.rmpu = RMPU(self.hw_config)
        self.vvpu = VVPU(self.hw_config)
        self.hbm = HBMModel(self.hw_config)

    # ------------------------------------------------------------------ sizing
    def activation_bytes_per_element(self, group: Optional[str]) -> float:
        """Stored bytes per activation element for a given AAQ group."""
        if group is None:
            return self.ppm_config.activation_bytes
        hidden = self.ppm_config.pair_dim
        return self.aaq_config.bits_per_token(hidden, group) / hidden / 8.0

    def operator_dram_bytes(self, op: Operator) -> float:
        """DRAM traffic of one operator under AAQ and token-wise MHA."""
        if op.fusible and self.tokenwise_mha:
            return 0.0
        in_bytes = op.input_elements * self.activation_bytes_per_element(op.output_group or GROUP_C)
        out_bytes = op.output_elements * self.activation_bytes_per_element(op.output_group)
        weight_bytes = op.weight_elements * 2.0  # 16-bit weights, streamed once
        return in_bytes + out_bytes + weight_bytes

    # --------------------------------------------------- per-group constants
    def _group_parameters(
        self, groups: Tuple[Optional[str], ...]
    ) -> Dict[str, np.ndarray]:
        """Per-group scalars of the engine models, indexed by table group code.

        Mirrors, term by term, the arithmetic of :meth:`RMPU.operator_cycles`,
        :meth:`VVPU.quantization_cycles` and :meth:`operator_dram_bytes` so the
        vectorized path is bit-identical to the legacy per-operator loop.
        """
        rmpu_hidden = self.rmpu.config_hidden_dim()
        quant_hidden = self.ppm_config.pair_dim
        units_base = self.rmpu.units_per_cycle()
        count = len(groups)
        avg_units = np.zeros(count)
        rmpu_denominator = np.ones(count)
        quant_cycles_per_token = np.zeros(count)
        bytes_out = np.zeros(count)
        bytes_in = np.zeros(count)
        quantized = np.zeros(count, dtype=bool)
        for code, group in enumerate(groups):
            effective = group or GROUP_C
            quant = self.aaq_config.config_for(effective)
            outliers = min(quant.outlier_count, rmpu_hidden)
            inlier_fraction = (rmpu_hidden - outliers) / rmpu_hidden
            avg_units[code] = (
                inlier_fraction * units_per_mac(quant.inlier_bits, 16.0)
                + (1 - inlier_fraction) * units_per_mac(quant.outlier_bits, 16.0)
            )
            utilization = self.rmpu.utilization_for(quant, rmpu_hidden, 16.0)
            rmpu_denominator[code] = units_base * utilization

            per_token = self.vvpu.timings.quantize_passes
            if quant.outlier_count > 0:
                per_token += self.vvpu.timings.topk_cycles(quant_hidden)
            else:
                per_token += 1
            quant_cycles_per_token[code] = per_token

            bytes_out[code] = self.activation_bytes_per_element(group)
            bytes_in[code] = self.activation_bytes_per_element(effective)
            quantized[code] = group is not None
        return {
            "avg_units": avg_units,
            "rmpu_denominator": rmpu_denominator,
            "quant_cycles_per_token": quant_cycles_per_token,
            "bytes_out": bytes_out,
            "bytes_in": bytes_in,
            "quantized": quantized,
        }

    # -------------------------------------------------------------- simulation
    def simulate_operator(self, op: Operator) -> OperatorLatency:
        """Legacy per-operator reference model (kept for parity checks)."""
        quantize_output = op.output_group is not None and not (op.fusible and self.tokenwise_mha)
        rmpu_cycles = 0.0
        vvpu_cycles = 0.0
        if op.engine == ENGINE_MATMUL:
            rmpu_cycles = self.rmpu.operator_cycles(op, aaq=self.aaq_config)
        else:
            vvpu_cycles = self.vvpu.operator_cycles(op)
        if quantize_output:
            tokens = op.output_elements / self.ppm_config.pair_dim
            group_config = self.aaq_config.config_for(op.output_group)
            vvpu_cycles += self.vvpu.quantization_cycles(
                tokens, self.ppm_config.pair_dim, group_config.outlier_count
            )
        memory_cycles = self.hbm.transfer_cycles(self.operator_dram_bytes(op))
        return OperatorLatency(
            name=op.name,
            phase=op.phase,
            subphase=op.subphase,
            rmpu_cycles=rmpu_cycles,
            vvpu_cycles=vvpu_cycles,
            memory_cycles=memory_cycles,
        )

    def simulate_workload_legacy(self, workload: Workload) -> LatencyReport:
        """Reference implementation: one Python iteration per operator."""
        operator_latencies = [self.simulate_operator(op) for op in workload.operators]
        phase_cycles: Dict[str, float] = {}
        subphase_cycles: Dict[str, float] = {}
        total = 0.0
        dram_bytes = 0.0
        for op, latency in zip(workload.operators, operator_latencies):
            stage = latency.stage_cycles + self.hw_config.per_op_overhead_cycles
            total += stage
            phase_cycles[op.phase] = phase_cycles.get(op.phase, 0.0) + stage
            if op.subphase:
                subphase_cycles[op.subphase] = subphase_cycles.get(op.subphase, 0.0) + stage
            dram_bytes += self.operator_dram_bytes(op)
        total += self.hw_config.pipeline_fill_cycles
        return LatencyReport(
            sequence_length=workload.sequence_length,
            total_cycles=total,
            total_seconds=total / self.hw_config.cycles_per_second,
            phase_cycles=phase_cycles,
            subphase_cycles=subphase_cycles,
            dram_bytes=dram_bytes,
            _latencies=operator_latencies,
        )

    def _engine_cycles(
        self, table: StackedOperatorTable
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rmpu, vvpu, memory, dram) per-operator arrays over stacked columns.

        Every expression is elementwise, so each segment's values are the
        same whatever other lengths share the stack.
        """
        params = self._group_parameters(table.groups)
        g = table.group_codes
        fill = float(self.hw_config.pipeline_fill_cycles)

        # RMPU: bit-decomposed matmul throughput under the group's AAQ scheme.
        is_matmul = table.engine_mask(ENGINE_MATMUL)
        rmpu_cycles = np.where(
            is_matmul & (table.macs > 0),
            (table.macs * params["avg_units"][g]) / params["rmpu_denominator"][g] + fill,
            0.0,
        )

        # VVPU: vector operators plus runtime quantization of quantized outputs.
        vvpu_cycles = np.where(
            ~is_matmul & (table.vector_ops > 0),
            table.vector_ops / self.vvpu.lanes() + fill,
            0.0,
        )
        on_chip = table.fusible & self.tokenwise_mha
        quantize_output = params["quantized"][g] & ~on_chip
        tokens = table.output_elements / self.ppm_config.pair_dim
        vvpus = max(1, self.hw_config.num_vvpus)
        vvpu_cycles = vvpu_cycles + np.where(
            quantize_output, tokens * params["quant_cycles_per_token"][g] / vvpus, 0.0
        )

        # HBM: burst-aligned traffic at the quantized activation sizes.
        dram = np.where(
            on_chip,
            0.0,
            table.input_elements * params["bytes_in"][g]
            + table.output_elements * params["bytes_out"][g]
            + table.weight_elements * 2.0,
        )
        burst = self.hw_config.burst_bytes
        memory_cycles = np.where(
            dram > 0, np.ceil(dram / burst) * burst / self.hbm.bytes_per_cycle, 0.0
        )
        return rmpu_cycles, vvpu_cycles, memory_cycles, dram

    def simulate_table(self, table: OperatorTable) -> LatencyReport:
        """One length is a one-segment stack: price it with :meth:`simulate_stack`."""
        return self.simulate_stack(table.as_stack())[0]

    def simulate_stack(self, stack: StackedOperatorTable) -> List[LatencyReport]:
        """One vectorized pass over a whole length mix; one report per segment.

        The engine arithmetic runs once over the stacked concatenation, the
        phase/subphase reductions once over combined (segment, label) bins,
        and per-segment totals over contiguous slices — all accumulation
        orders are those of the segment alone, so every returned report is
        bit-identical to pricing that length by itself with
        :meth:`simulate_table` (asserted by ``tests/test_stacked_table.py``).
        """
        rmpu, vvpu, memory, dram = self._engine_cycles(stack)
        stage = (
            np.maximum(np.maximum(rmpu, vvpu), memory)
            + self.hw_config.per_op_overhead_cycles
        )
        reports = []
        for table, sl, phase_cycles, subphase_cycles in zip(
            stack.tables,
            stack.segments,
            stack.segment_weighted_sums_all("phase", stage),
            stack.segment_weighted_sums_all("subphase", stage),
        ):
            # Operators outside any subphase carry the empty label; the dict
            # is fresh from the reduction, so it is dropped in place.
            subphase_cycles.pop("", None)
            total = float(stage[sl].sum()) + self.hw_config.pipeline_fill_cycles
            reports.append(
                LatencyReport(
                    sequence_length=table.sequence_length,
                    total_cycles=total,
                    total_seconds=total / self.hw_config.cycles_per_second,
                    phase_cycles=phase_cycles,
                    subphase_cycles=subphase_cycles,
                    dram_bytes=float(dram[sl].sum()),
                    _columns=_LatencyColumns(
                        names=table.names,
                        phase_codes=table.phase_codes,
                        phases=table.phases,
                        subphase_codes=table.subphase_codes,
                        subphases=table.subphases,
                        rmpu_cycles=rmpu[sl],
                        vvpu_cycles=vvpu[sl],
                        memory_cycles=memory[sl],
                    ),
                )
            )
        return reports

    def simulate_stack_totals(self, stack: StackedOperatorTable) -> List[float]:
        """Per-segment ``total_seconds`` only — no report materialization.

        Totals-only consumers (the planner's service-time prefetch prices
        thousands of lengths and reads nothing but the scalar) skip the
        per-segment ``LatencyReport`` assembly entirely.  Each total is the
        same contiguous-slice sum :meth:`simulate_stack` computes
        (``ndarray.sum`` delegates to ``np.add.reduce``), so the floats are
        bit-identical to the full-report path.
        """
        rmpu, vvpu, memory, _ = self._engine_cycles(stack)
        # Same max/max/add chain as the report paths, fused in place (the
        # intermediates are private here, and in-place ufuncs produce the
        # identical floats).
        stage = np.maximum(rmpu, vvpu)
        np.maximum(stage, memory, out=stage)
        stage += self.hw_config.per_op_overhead_cycles
        total = np.add.reduce
        totals = np.fromiter(
            (total(stage[sl]) for sl in stack.segments),
            dtype=np.float64,
            count=stack.num_segments,
        )
        # Elementwise add/divide on float64 matches the per-report scalar
        # arithmetic bit for bit.
        return (
            (totals + self.hw_config.pipeline_fill_cycles)
            / self.hw_config.cycles_per_second
        ).tolist()

    def simulate_workload(self, workload: Workload) -> LatencyReport:
        """Simulate an explicit workload through the columnar engine."""
        return self.simulate_table(OperatorTable.from_workload(workload))

    def simulate(self, sequence_length: int, include_recycles: bool = False) -> LatencyReport:
        """Simulate one inference at ``sequence_length`` residues."""
        table = get_op_table(self.ppm_config, sequence_length, include_recycles=include_recycles)
        return self.simulate_table(table)

    # ------------------------------------------------------------- convenience
    def folding_block_seconds(self, sequence_length: int) -> float:
        """Latency of the Protein Folding Block phases only (Fig. 14b-d metric)."""
        report = self.simulate(sequence_length)
        cycles = report.phase_cycles.get(PHASE_PAIR, 0.0) + report.phase_cycles.get(PHASE_SEQUENCE, 0.0)
        return cycles / self.hw_config.cycles_per_second

    def accelerated_phases(self) -> tuple:
        return (PHASE_PAIR, PHASE_SEQUENCE)

    def unaccelerated_phases(self) -> tuple:
        return (PHASE_INPUT_EMBEDDING, PHASE_STRUCTURE)
