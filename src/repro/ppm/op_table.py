"""Columnar (struct-of-arrays) operator-graph engine.

:mod:`repro.ppm.workload` describes one PPM inference as a list of ~3k
:class:`~repro.ppm.workload.Operator` dataclasses.  That representation is
ideal for building and inspecting the graph, but every simulator downstream
(the LightNobel accelerator, the GPU baseline, the cost models) only ever
consumes whole *columns* of it — MAC counts, element counts, phase labels —
and the DSE/length sweeps re-consume the identical graph dozens of times.

:class:`OperatorTable` stores the same graph as numpy columns plus small
per-table string vocabularies (phases, subphases, engines, activation groups)
with integer code arrays, so reductions like "total MACs of the pair dataflow"
are single vectorized expressions instead of Python loops.  Tables convert
losslessly to and from :class:`~repro.ppm.workload.Workload`, and
:func:`get_op_table` / :func:`get_workload` add an LRU cache keyed on
``(config, n, include_recycles)`` so repeated sweeps stop rebuilding the graph.

:class:`StackedOperatorTable` generalizes one table to a whole *traffic mix*:
the tables of many distinct sequence lengths concatenated into one ragged
column set with per-length segment offsets.  A latency backend evaluates its
vectorized expressions once over the full stack and reduces each segment back
to its per-length report, so pricing a mix of hundreds of distinct lengths is
one numpy pass instead of one engine invocation per length.  Each segment's
columns are bytewise the per-length table's columns, so a length prices
bit-identically in any mix.  The stacked pass is the simulators' only
pricing path: one table is priced as its memoized one-segment stack
(:meth:`OperatorTable.as_stack`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .config import PPMConfig
from .workload import Operator, Workload, build_model_ops

#: Column names holding per-operator numeric data.
NUMERIC_COLUMNS = (
    "macs",
    "vector_ops",
    "input_elements",
    "output_elements",
    "weight_elements",
)


def _encode(labels: Sequence) -> Tuple[np.ndarray, Tuple]:
    """Factorize ``labels`` into integer codes plus a first-appearance vocab."""
    vocab: List = []
    index: Dict = {}
    codes = np.empty(len(labels), dtype=np.int64)
    for i, label in enumerate(labels):
        code = index.get(label)
        if code is None:
            code = len(vocab)
            index[label] = code
            vocab.append(label)
        codes[i] = code
    return codes, tuple(vocab)


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _concat(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Read-only concatenation; a single (already frozen) array is shared."""
    if len(arrays) == 1:
        return arrays[0]
    return _freeze(np.concatenate(arrays))


@dataclass(frozen=True, eq=False)
class OperatorTable:
    """One operator graph stored column-wise (struct of arrays)."""

    sequence_length: int
    config: PPMConfig
    names: Tuple[str, ...]
    engines: Tuple[str, ...]
    engine_codes: np.ndarray
    phases: Tuple[str, ...]
    phase_codes: np.ndarray
    subphases: Tuple[str, ...]
    subphase_codes: np.ndarray
    groups: Tuple[Optional[str], ...]
    group_codes: np.ndarray
    macs: np.ndarray
    vector_ops: np.ndarray
    input_elements: np.ndarray
    output_elements: np.ndarray
    weight_elements: np.ndarray
    fusible: np.ndarray
    #: Derived state (the one-segment stack), created empty with the instance
    #: so that caching never adds attributes to it.
    _memo: Dict = field(default_factory=dict, init=False, repr=False)

    # ------------------------------------------------------------ construction
    @classmethod
    def from_operators(
        cls, operators: Sequence[Operator], config: PPMConfig, sequence_length: int
    ) -> "OperatorTable":
        engine_codes, engines = _encode([op.engine for op in operators])
        phase_codes, phases = _encode([op.phase for op in operators])
        subphase_codes, subphases = _encode([op.subphase for op in operators])
        group_codes, groups = _encode([op.output_group for op in operators])
        return cls(
            sequence_length=sequence_length,
            config=config,
            names=tuple(op.name for op in operators),
            engines=engines,
            engine_codes=_freeze(engine_codes),
            phases=phases,
            phase_codes=_freeze(phase_codes),
            subphases=subphases,
            subphase_codes=_freeze(subphase_codes),
            groups=groups,
            group_codes=_freeze(group_codes),
            macs=_freeze(np.array([op.macs for op in operators], dtype=np.float64)),
            vector_ops=_freeze(np.array([op.vector_ops for op in operators], dtype=np.float64)),
            input_elements=_freeze(
                np.array([op.input_elements for op in operators], dtype=np.float64)
            ),
            output_elements=_freeze(
                np.array([op.output_elements for op in operators], dtype=np.float64)
            ),
            weight_elements=_freeze(
                np.array([op.weight_elements for op in operators], dtype=np.float64)
            ),
            fusible=_freeze(np.array([op.fusible for op in operators], dtype=bool)),
        )

    @classmethod
    def from_workload(cls, workload: Workload) -> "OperatorTable":
        return cls.from_operators(workload.operators, workload.config, workload.sequence_length)

    def to_workload(self) -> Workload:
        """Materialize the equivalent object graph (inverse of ``from_workload``)."""
        operators = [
            Operator(
                name=self.names[i],
                engine=self.engines[self.engine_codes[i]],
                phase=self.phases[self.phase_codes[i]],
                subphase=self.subphases[self.subphase_codes[i]],
                macs=float(self.macs[i]),
                vector_ops=float(self.vector_ops[i]),
                input_elements=float(self.input_elements[i]),
                output_elements=float(self.output_elements[i]),
                weight_elements=float(self.weight_elements[i]),
                output_group=self.groups[self.group_codes[i]],
                fusible=bool(self.fusible[i]),
            )
            for i in range(len(self))
        ]
        return Workload(
            sequence_length=self.sequence_length, config=self.config, operators=operators
        )

    def __getstate__(self) -> Dict:
        # The memo is derived state: keep it out of pickles, so disk-cached
        # tables stay byte-for-byte what they were.
        state = dict(self.__dict__)
        del state["_memo"]
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state, _memo={})

    def as_stack(self) -> "StackedOperatorTable":
        """This table as a one-segment :class:`StackedOperatorTable` (memoized).

        The simulators price every table through their stacked pass; the
        stack shares this table's column arrays, so building it copies
        nothing.
        """
        stack = self._memo.get("stack")
        if stack is None:
            stack = self._memo["stack"] = StackedOperatorTable.from_tables((self,))
        return stack

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.names)

    @property
    def flops(self) -> np.ndarray:
        return 2.0 * self.macs + self.vector_ops

    def total_macs(self) -> float:
        return float(np.sum(self.macs))

    def total_vector_ops(self) -> float:
        return float(np.sum(self.vector_ops))

    def total_flops(self) -> float:
        return float(np.sum(self.flops))

    def column(self, name: str) -> np.ndarray:
        if name == "flops":
            return self.flops
        if name not in NUMERIC_COLUMNS:
            raise ValueError(f"unknown numeric column {name!r}")
        return getattr(self, name)

    # ----------------------------------------------------------------- masks
    def engine_mask(self, engine: str) -> np.ndarray:
        if engine not in self.engines:
            return np.zeros(len(self), dtype=bool)
        return self.engine_codes == self.engines.index(engine)

    def phase_mask(self, phase: str) -> np.ndarray:
        if phase not in self.phases:
            return np.zeros(len(self), dtype=bool)
        return self.phase_codes == self.phases.index(phase)

    def subphase_mask(self, subphase: str) -> np.ndarray:
        if subphase not in self.subphases:
            return np.zeros(len(self), dtype=bool)
        return self.subphase_codes == self.subphases.index(subphase)

    def select(self, mask: np.ndarray) -> "OperatorTable":
        """Sub-table of the rows where ``mask`` is True (labels re-factorized)."""
        indices = np.nonzero(np.asarray(mask, dtype=bool))[0]
        engine_codes, engines = _encode([self.engines[self.engine_codes[i]] for i in indices])
        phase_codes, phases = _encode([self.phases[self.phase_codes[i]] for i in indices])
        subphase_codes, subphases = _encode(
            [self.subphases[self.subphase_codes[i]] for i in indices]
        )
        group_codes, groups = _encode([self.groups[self.group_codes[i]] for i in indices])
        return OperatorTable(
            sequence_length=self.sequence_length,
            config=self.config,
            names=tuple(self.names[i] for i in indices),
            engines=engines,
            engine_codes=_freeze(engine_codes),
            phases=phases,
            phase_codes=_freeze(phase_codes),
            subphases=subphases,
            subphase_codes=_freeze(subphase_codes),
            groups=groups,
            group_codes=_freeze(group_codes),
            macs=_freeze(self.macs[indices]),
            vector_ops=_freeze(self.vector_ops[indices]),
            input_elements=_freeze(self.input_elements[indices]),
            output_elements=_freeze(self.output_elements[indices]),
            weight_elements=_freeze(self.weight_elements[indices]),
            fusible=_freeze(self.fusible[indices]),
        )

    def filter(
        self,
        phase: Optional[str] = None,
        engine: Optional[str] = None,
        subphase: Optional[str] = None,
    ) -> "OperatorTable":
        """Sub-table matching the given phase/engine/subphase (AND semantics)."""
        mask = np.ones(len(self), dtype=bool)
        if phase is not None:
            mask &= self.phase_mask(phase)
        if engine is not None:
            mask &= self.engine_mask(engine)
        if subphase is not None:
            mask &= self.subphase_mask(subphase)
        return self.select(mask)

    # --------------------------------------------------------------- groupby
    def _codes_for(self, key: str) -> Tuple[np.ndarray, Tuple]:
        try:
            return {
                "phase": (self.phase_codes, self.phases),
                "subphase": (self.subphase_codes, self.subphases),
                "engine": (self.engine_codes, self.engines),
                "group": (self.group_codes, self.groups),
            }[key]
        except KeyError:
            raise ValueError(
                f"unknown groupby key {key!r}; expected phase/subphase/engine/group"
            ) from None

    def groupby_sum(self, key: str, column: str = "macs") -> Dict:
        """Sum a numeric column per label of ``key`` (phase/subphase/engine/group)."""
        return self.weighted_sums(key, self.column(column))

    def weighted_sums(self, key: str, weights: np.ndarray) -> Dict:
        """Sum an arbitrary per-operator array per label of ``key``.

        Like :meth:`groupby_sum`, but over caller-computed per-operator values
        (e.g. the simulators' stage latencies) instead of a stored column.
        """
        codes, vocab = self._codes_for(key)
        sums = np.bincount(codes, weights=weights, minlength=len(vocab))
        return {label: float(sums[i]) for i, label in enumerate(vocab)}

    def by_phase(self) -> Dict[str, "OperatorTable"]:
        """Sub-table per phase, in first-appearance order (columnar ``by_phase``)."""
        return {phase: self.select(self.phase_codes == code)
                for code, phase in enumerate(self.phases)}

    def phase_sums(self, column: str = "macs") -> Dict[str, float]:
        return self.groupby_sum("phase", column)


def _remap_codes(
    codes: Sequence[np.ndarray], vocabs: Sequence[Tuple]
) -> Tuple[np.ndarray, Tuple]:
    """Concatenate per-table code arrays under one shared (union) vocabulary.

    Fast path: when every table factorized its labels identically (the norm —
    one config emits the same operator sequence at every length), the shared
    vocab *is* the per-table vocab and the codes concatenate untouched.
    Otherwise each table's codes are remapped through a small lookup array
    (vectorized; no per-operator Python).
    """
    first = vocabs[0]
    if all(vocab == first for vocab in vocabs[1:]):
        return _concat(codes), first
    union: List = []
    index: Dict = {}
    remapped: List[np.ndarray] = []
    for table_codes, vocab in zip(codes, vocabs):
        lookup = np.empty(len(vocab), dtype=np.int64)
        for i, label in enumerate(vocab):
            code = index.get(label)
            if code is None:
                code = len(union)
                index[label] = code
                union.append(label)
            lookup[i] = code
        remapped.append(lookup[table_codes])
    return np.concatenate(remapped), tuple(union)


@dataclass(frozen=True, eq=False)
class StackedOperatorTable:
    """Operator tables of many sequence lengths, concatenated column-wise.

    Segment ``i`` (rows ``segment_starts[i]:segment_starts[i+1]``) holds the
    operators of ``lengths[i]`` — bytewise the columns of ``tables[i]`` — so
    any elementwise latency expression evaluated over the stacked columns
    produces, per segment, exactly the values the per-length evaluation
    would.  Label vocabularies are shared across segments (codes remapped at
    build time) so per-group/per-engine parameter gathers also run once.
    """

    config: PPMConfig
    lengths: Tuple[int, ...]
    tables: Tuple[OperatorTable, ...]
    segment_starts: np.ndarray
    engines: Tuple[str, ...]
    engine_codes: np.ndarray
    phases: Tuple[str, ...]
    phase_codes: np.ndarray
    subphases: Tuple[str, ...]
    subphase_codes: np.ndarray
    groups: Tuple[Optional[str], ...]
    group_codes: np.ndarray
    macs: np.ndarray
    vector_ops: np.ndarray
    input_elements: np.ndarray
    output_elements: np.ndarray
    weight_elements: np.ndarray
    fusible: np.ndarray
    #: Derived state (segment slices, reduction plans), created empty with
    #: the instance so that caching never adds attributes to it.
    _memo: Dict = field(default_factory=dict, init=False, repr=False)

    # ------------------------------------------------------------ construction
    @classmethod
    def from_tables(cls, tables: Sequence[OperatorTable]) -> "StackedOperatorTable":
        if not tables:
            raise ValueError("cannot stack zero operator tables")
        config = tables[0].config
        for table in tables[1:]:
            if table.config != config:
                raise ValueError("all stacked tables must share one PPMConfig")
        lengths = tuple(t.sequence_length for t in tables)
        if len(set(lengths)) != len(lengths):
            raise ValueError("stacked lengths must be distinct")
        starts = np.zeros(len(tables) + 1, dtype=np.int64)
        np.cumsum([len(t) for t in tables], out=starts[1:])
        engine_codes, engines = _remap_codes(
            [t.engine_codes for t in tables], [t.engines for t in tables]
        )
        phase_codes, phases = _remap_codes(
            [t.phase_codes for t in tables], [t.phases for t in tables]
        )
        subphase_codes, subphases = _remap_codes(
            [t.subphase_codes for t in tables], [t.subphases for t in tables]
        )
        group_codes, groups = _remap_codes(
            [t.group_codes for t in tables], [t.groups for t in tables]
        )
        return cls(
            config=config,
            lengths=lengths,
            tables=tuple(tables),
            segment_starts=_freeze(starts),
            engines=engines,
            engine_codes=_freeze(engine_codes),
            phases=phases,
            phase_codes=_freeze(phase_codes),
            subphases=subphases,
            subphase_codes=_freeze(subphase_codes),
            groups=groups,
            group_codes=_freeze(group_codes),
            macs=_concat([t.macs for t in tables]),
            vector_ops=_concat([t.vector_ops for t in tables]),
            input_elements=_concat([t.input_elements for t in tables]),
            output_elements=_concat([t.output_elements for t in tables]),
            weight_elements=_concat([t.weight_elements for t in tables]),
            fusible=_concat([t.fusible for t in tables]),
        )

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return int(self.segment_starts[-1])

    @property
    def num_segments(self) -> int:
        return len(self.lengths)

    @property
    def flops(self) -> np.ndarray:
        return 2.0 * self.macs + self.vector_ops

    def segment(self, index: int) -> slice:
        """Row slice of segment ``index`` in the stacked columns."""
        return self.segments[index]

    @property
    def segments(self) -> Tuple[slice, ...]:
        """All segment slices, materialized once per stack."""
        cached = self._memo.get("segments")
        if cached is None:
            bounds = self.segment_starts.tolist()
            cached = self._memo["segments"] = tuple(
                slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
            )
        return cached

    def segment_index(self, sequence_length: int) -> int:
        """Segment holding ``sequence_length`` (raises ``ValueError`` if absent)."""
        return self.lengths.index(int(sequence_length))

    # ----------------------------------------------------------------- masks
    def engine_mask(self, engine: str) -> np.ndarray:
        if engine not in self.engines:
            return np.zeros(len(self), dtype=bool)
        return self.engine_codes == self.engines.index(engine)

    def phase_mask(self, phase: str) -> np.ndarray:
        if phase not in self.phases:
            return np.zeros(len(self), dtype=bool)
        return self.phase_codes == self.phases.index(phase)

    # ------------------------------------------------------------- reductions
    def segment_sums(self, values: np.ndarray) -> List[float]:
        """Per-segment sum of a stacked per-operator array.

        Summed slice by slice (not via ``reduceat``): each slice is the
        contiguous per-length array, so numpy's pairwise summation yields the
        bit-identical total the per-length evaluation computes.
        """
        return [
            float(np.sum(values[self.segment(i)])) for i in range(self.num_segments)
        ]

    def segment_weighted_sums(self, key: str, values: np.ndarray) -> List[Dict]:
        """Per-segment :meth:`OperatorTable.weighted_sums` over stacked values.

        Delegates each segment's reduction to its source table (per-length
        codes and vocab order), so labels and floats match the per-length
        path exactly.
        """
        return [
            self.tables[i].weighted_sums(key, values[self.segment(i)])
            for i in range(self.num_segments)
        ]

    def _stacked_codes_for(self, key: str) -> Tuple[np.ndarray, Tuple]:
        try:
            return {
                "phase": (self.phase_codes, self.phases),
                "subphase": (self.subphase_codes, self.subphases),
                "engine": (self.engine_codes, self.engines),
                "group": (self.group_codes, self.groups),
            }[key]
        except KeyError:
            raise ValueError(
                f"unknown groupby key {key!r}; expected phase/subphase/engine/group"
            ) from None

    def _reduction_plan(self, key: str) -> Tuple[np.ndarray, int, Tuple]:
        """(combined bins, minlength, per-segment label layout) for ``key``.

        Built once per stack and cached: stacks themselves are LRU-cached, so
        repeated pricing of the same length mix skips the bin-index and
        vocab-layout construction entirely.
        """
        plan = self._memo.get(("plan", key))
        if plan is None:
            codes, vocab = self._stacked_codes_for(key)
            width = len(vocab)
            counts = np.diff(self.segment_starts)
            segment_ids = np.repeat(
                np.arange(self.num_segments, dtype=np.int64), counts
            )
            shared_index = {label: code for code, label in enumerate(vocab)}
            layouts = []
            for i, table in enumerate(self.tables):
                _, table_vocab = table._codes_for(key)
                base = i * width
                layouts.append(
                    tuple((label, base + shared_index[label]) for label in table_vocab)
                )
            plan = (
                _freeze(segment_ids * width + codes),
                self.num_segments * width,
                tuple(layouts),
            )
            self._memo[("plan", key)] = plan
        return plan

    def segment_weighted_sums_all(self, key: str, values: np.ndarray) -> List[Dict]:
        """Every segment's ``weighted_sums(key, ...)`` dict from ONE bincount.

        The combined bin index is ``segment * len(vocab) + code``.
        ``np.bincount`` accumulates elements in array order, and each
        (segment, label) bin receives exactly the elements — in exactly the
        order — that the per-length bincount would, so every float matches
        :meth:`segment_weighted_sums` bit for bit.  Each segment's dict is
        built over its source table's own vocab (labels and ordering), so the
        result is interchangeable with the per-length path.
        """
        bins, minlength, layouts = self._reduction_plan(key)
        # One tolist() converts every bin to a Python float (exact for
        # float64), avoiding a numpy-scalar __float__ per (segment, label).
        combined = np.bincount(bins, weights=values, minlength=minlength).tolist()
        return [
            {label: combined[idx] for label, idx in layout}
            for layout in layouts
        ]


# ------------------------------------------------------------------- caching
@lru_cache(maxsize=64)
def _cached_workload(config: PPMConfig, n: int, include_recycles: bool) -> Workload:
    return build_model_ops(config, n, include_recycles=include_recycles)


@lru_cache(maxsize=64)
def _cached_table(config: PPMConfig, n: int, include_recycles: bool) -> OperatorTable:
    return OperatorTable.from_workload(_cached_workload(config, n, include_recycles))


def get_workload(config: PPMConfig, n: int, include_recycles: bool = False) -> Workload:
    """LRU-cached :func:`~repro.ppm.workload.build_model_ops`.

    Returns a fresh :class:`Workload` wrapper around the cached operator list
    (the :class:`Operator` entries are frozen and shared), so mutating the
    returned ``operators`` list cannot poison the cache.
    """
    cached = _cached_workload(config, int(n), bool(include_recycles))
    return Workload(
        sequence_length=cached.sequence_length,
        config=cached.config,
        operators=list(cached.operators),
    )


def get_op_table(config: PPMConfig, n: int, include_recycles: bool = False) -> OperatorTable:
    """LRU-cached columnar operator table for ``(config, n, include_recycles)``."""
    return _cached_table(config, int(n), bool(include_recycles))


@lru_cache(maxsize=32)
def _cached_stack(
    config: PPMConfig, lengths: Tuple[int, ...], include_recycles: bool
) -> StackedOperatorTable:
    return StackedOperatorTable.from_tables(
        [_cached_table(config, n, include_recycles) for n in lengths]
    )


def get_stacked_table(
    config: PPMConfig, lengths: Iterable[int], include_recycles: bool = False
) -> StackedOperatorTable:
    """LRU-cached stacked table over the *distinct, sorted* ``lengths``.

    The stack is canonicalized (sorted, deduplicated) so every caller asking
    for the same length *set* — in any order, with any duplication — shares
    one cached stack; callers look segments up via
    :meth:`StackedOperatorTable.segment_index`.
    """
    canonical = tuple(sorted({int(n) for n in lengths}))
    if not canonical:
        raise ValueError("lengths must contain at least one sequence length")
    return _cached_stack(config, canonical, bool(include_recycles))


def clear_workload_caches() -> None:
    """Drop all cached workloads/tables (mainly for tests and memory pressure)."""
    _cached_stack.cache_clear()
    _cached_table.cache_clear()
    _cached_workload.cache_clear()


def workload_cache_info():
    """(workload, table) LRU statistics, for the perf benchmarks."""
    return _cached_workload.cache_info(), _cached_table.cache_info()
