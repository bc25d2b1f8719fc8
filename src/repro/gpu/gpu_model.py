"""Analytical A100/H100 performance and memory model for the PPM baseline.

The paper's GPU measurements (Nsight Systems on real hardware) show two
regimes: without chunking, the Pair-Representation kernels are memory-bound
and peak memory explodes with the attention score matrix; with chunking
(OpenFold-style low-memory attention, the ``Chunk4`` option), peak memory
drops but kernel-launch overhead and reduced tensor-core utilization inflate
latency.  This model captures both regimes per operator of the shared
:mod:`repro.ppm.workload` graph:

* per-op latency = max(compute time, memory time) + kernel launches,
* chunked execution splits pair-phase kernels along the first sequence axis,
  multiplying kernel count, adding intermediate-tensor re-reads and lowering
  tensor-core efficiency,
* peak memory = weights + resident activations (score matrices dominate
  without chunking).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

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
    pair_activation_elements,
    score_matrix_elements,
    sequence_activation_elements,
)
from .gpu_config import GPUSpec, get_gpu

#: Rows processed per chunk under the Chunk4-style low-memory attention.
CHUNK_ROWS = 4

#: Tensor-core efficiency multiplier when kernels are chunked into small tiles.
CHUNK_COMPUTE_PENALTY = 0.55

#: Extra activation traffic factor from re-reading chunked intermediates.
CHUNK_TRAFFIC_FACTOR = 1.4

#: Number of live Pair-Representation copies during a folding block
#: (input, residual, normalized, projections).
RESIDENT_PAIR_COPIES = 6

#: Resident pair copies under chunked execution: chunking removes the score
#: matrix but keeps redundant per-chunk intermediates alive (Section 8.3).
CHUNK_RESIDENT_PAIR_COPIES = 18

#: FP16 bytes per element on the GPU baseline.
FP16_BYTES = 2.0


@dataclass
class GPULatencyReport:
    """Latency breakdown of one PPM inference on a GPU."""

    gpu: str
    sequence_length: int
    chunked: bool
    total_seconds: float
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    subphase_seconds: Dict[str, float] = field(default_factory=dict)
    kernel_count: float = 0.0
    out_of_memory: bool = False

    def folding_block_seconds(self) -> float:
        return self.phase_seconds.get(PHASE_PAIR, 0.0) + self.phase_seconds.get(PHASE_SEQUENCE, 0.0)


class GPUModel:
    """Roofline + kernel-overhead model of ESMFold inference on one GPU."""

    def __init__(
        self,
        gpu: GPUSpec | str = "H100",
        ppm_config: Optional[PPMConfig] = None,
    ) -> None:
        self.gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
        self.ppm_config = ppm_config or PPMConfig.paper()
        self._fits_cache: Dict[Tuple[int, bool], bool] = {}

    # ------------------------------------------------------------------ timing
    def operator_seconds(self, op: Operator, chunked: bool) -> tuple:
        """(seconds, kernel count) for one operator."""
        compute_eff = self.gpu.effective_flops
        chunk_applies = chunked and op.phase == PHASE_PAIR
        if chunk_applies:
            compute_eff *= CHUNK_COMPUTE_PENALTY

        flops = op.flops
        compute_time = flops / compute_eff if op.engine == ENGINE_MATMUL else flops / (
            self.gpu.effective_flops * 0.1
        )

        traffic = (op.input_elements + op.output_elements) * FP16_BYTES + op.weight_elements * FP16_BYTES
        if chunk_applies:
            traffic *= CHUNK_TRAFFIC_FACTOR
        memory_time = traffic / self.gpu.effective_bandwidth

        if chunk_applies:
            # Chunked pair kernels launch one kernel per CHUNK_ROWS rows of the
            # (Ns, Ns, Hz) pair tensor, i.e. roughly Ns / CHUNK_ROWS kernels.
            tokens = max(1.0, op.output_elements / max(self.ppm_config.pair_dim, 1))
            rows = tokens ** 0.5
            kernels = max(1.0, rows / CHUNK_ROWS)
        else:
            kernels = 1.0
        launch_time = kernels * self.gpu.kernel_launch_us * 1e-6
        return max(compute_time, memory_time) + launch_time, kernels

    def simulate_workload_legacy(self, workload: Workload, chunked: bool = False) -> GPULatencyReport:
        """Reference implementation: one Python iteration per operator."""
        phase_seconds: Dict[str, float] = {}
        subphase_seconds: Dict[str, float] = {}
        total = 0.0
        kernels = 0.0
        for op in workload.operators:
            seconds, op_kernels = self.operator_seconds(op, chunked)
            total += seconds
            kernels += op_kernels
            phase_seconds[op.phase] = phase_seconds.get(op.phase, 0.0) + seconds
            if op.subphase:
                subphase_seconds[op.subphase] = subphase_seconds.get(op.subphase, 0.0) + seconds
        oom = not self.fits_in_memory(workload.sequence_length, chunked=chunked)
        return GPULatencyReport(
            gpu=self.gpu.name,
            sequence_length=workload.sequence_length,
            chunked=chunked,
            total_seconds=total,
            phase_seconds=phase_seconds,
            subphase_seconds=subphase_seconds,
            kernel_count=kernels,
            out_of_memory=oom,
        )

    def _operator_columns(
        self, table: StackedOperatorTable, chunked: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(seconds, kernels) per-operator arrays over stacked columns.

        Purely elementwise, so each segment's values are the same whatever
        other lengths share the stack.
        """
        eff = self.gpu.effective_flops
        is_matmul = table.engine_mask(ENGINE_MATMUL)
        chunk_applies = table.phase_mask(PHASE_PAIR) & chunked

        flops = table.flops
        matmul_eff = np.where(chunk_applies, eff * CHUNK_COMPUTE_PENALTY, eff)
        compute_time = np.where(is_matmul, flops / matmul_eff, flops / (eff * 0.1))

        traffic = (
            table.input_elements + table.output_elements
        ) * FP16_BYTES + table.weight_elements * FP16_BYTES
        traffic = np.where(chunk_applies, traffic * CHUNK_TRAFFIC_FACTOR, traffic)
        memory_time = traffic / self.gpu.effective_bandwidth

        tokens = np.maximum(1.0, table.output_elements / max(self.ppm_config.pair_dim, 1))
        kernels = np.where(chunk_applies, np.maximum(1.0, tokens ** 0.5 / CHUNK_ROWS), 1.0)
        seconds = np.maximum(compute_time, memory_time) + kernels * (
            self.gpu.kernel_launch_us * 1e-6
        )
        return seconds, kernels

    def simulate_table(self, table: OperatorTable, chunked: bool = False) -> GPULatencyReport:
        """One length is a one-segment stack: price it with :meth:`simulate_stack`."""
        return self.simulate_stack(table.as_stack(), chunked=chunked)[0]

    def simulate_stack(
        self, stack: StackedOperatorTable, chunked: bool = False
    ) -> List[GPULatencyReport]:
        """One roofline pass over a whole length mix; one report per segment.

        Elementwise arithmetic runs once over the stack, phase/subphase
        reductions once over combined (segment, label) bins, totals over
        contiguous slices — each segment bit-identical to pricing that length
        by itself with :meth:`simulate_table`.
        """
        seconds, kernels = self._operator_columns(stack, chunked)
        # Each total is one contiguous-slice sum: the same pairwise summation
        # the segment's array gets when the length is priced alone.
        total = np.add.reduce
        reports = []
        for table, sl, phase_seconds, subphase_seconds in zip(
            stack.tables,
            stack.segments,
            stack.segment_weighted_sums_all("phase", seconds),
            stack.segment_weighted_sums_all("subphase", seconds),
        ):
            # Operators outside any subphase carry the empty label; the dict
            # is fresh from the reduction, so it is dropped in place.
            subphase_seconds.pop("", None)
            n = table.sequence_length
            reports.append(
                GPULatencyReport(
                    gpu=self.gpu.name,
                    sequence_length=n,
                    chunked=chunked,
                    total_seconds=float(total(seconds[sl])),
                    phase_seconds=phase_seconds,
                    subphase_seconds=subphase_seconds,
                    kernel_count=float(total(kernels[sl])),
                    out_of_memory=not self.fits_in_memory(n, chunked=chunked),
                )
            )
        return reports

    def simulate_stack_totals(
        self, stack: StackedOperatorTable, chunked: bool = False
    ) -> List[float]:
        """Per-segment ``total_seconds`` only — no report materialization.

        Same contiguous-slice sums as :meth:`simulate_stack` (``ndarray.sum``
        delegates to ``np.add.reduce``), so each float is bit-identical to the
        full-report path; memory feasibility is the caller's concern (see
        :meth:`fits_in_memory`, which is memoized).
        """
        seconds, _ = self._operator_columns(stack, chunked)
        total = np.add.reduce
        return np.fromiter(
            (total(seconds[sl]) for sl in stack.segments),
            dtype=np.float64,
            count=stack.num_segments,
        ).tolist()

    def simulate_workload(self, workload: Workload, chunked: bool = False) -> GPULatencyReport:
        """Simulate an explicit workload through the columnar engine."""
        return self.simulate_table(OperatorTable.from_workload(workload), chunked=chunked)

    def simulate(self, sequence_length: int, chunked: bool = False) -> GPULatencyReport:
        table = get_op_table(self.ppm_config, sequence_length)
        return self.simulate_table(table, chunked=chunked)

    # ------------------------------------------------------------------ memory
    def weight_bytes(self, include_language_model: bool = True) -> float:
        """Model weights resident on the GPU (trunk + optionally ESM-2 3B)."""
        config = self.ppm_config
        trunk_params = 690e6  # ESMFold folding trunk + structure module
        total = trunk_params * FP16_BYTES
        if include_language_model:
            total += config.language_model_params * FP16_BYTES
        return total

    def peak_activation_bytes(self, sequence_length: int, chunked: bool = False) -> float:
        """Peak resident activation memory of the Pair-Representation dataflow."""
        config = self.ppm_config
        n = sequence_length
        pair = pair_activation_elements(config, n) * FP16_BYTES
        seq = sequence_activation_elements(config, n) * FP16_BYTES
        resident = RESIDENT_PAIR_COPIES * pair + 2 * seq
        if chunked:
            # Chunking materializes only CHUNK_ROWS rows of the score matrix
            # but keeps redundant per-chunk pair intermediates resident.
            score = score_matrix_elements(config, n) / n * CHUNK_ROWS * FP16_BYTES
            resident = CHUNK_RESIDENT_PAIR_COPIES * pair + 2 * seq + score
        else:
            score = score_matrix_elements(config, n) * FP16_BYTES
            resident += 2.0 * score  # scores + softmax output live simultaneously
        return resident

    def peak_memory_bytes(self, sequence_length: int, chunked: bool = False) -> float:
        return self.weight_bytes() + self.peak_activation_bytes(sequence_length, chunked=chunked)

    def fits_in_memory(self, sequence_length: int, chunked: bool = False) -> bool:
        key = (int(sequence_length), bool(chunked))
        cached = self._fits_cache.get(key)
        if cached is None:
            cached = self._fits_cache[key] = (
                self.peak_memory_bytes(sequence_length, chunked=chunked)
                <= self.gpu.memory_gb * 1e9
            )
        return cached

    def max_sequence_length(self, chunked: bool = False, upper: int = 20000) -> int:
        """Longest sequence that fits in GPU memory (binary search)."""
        low, high = 1, upper
        while low < high:
            mid = (low + high + 1) // 2
            if self.fits_in_memory(mid, chunked=chunked):
                low = mid
            else:
                high = mid - 1
        return low
