"""Simulation session: the single entry point for every latency number.

A :class:`SimulationSession` owns, for one :class:`~repro.ppm.config.PPMConfig`:

* the **workload/table cache** — each distinct sequence length builds its
  :class:`~repro.ppm.op_table.OperatorTable` at most once per process (and,
  with the disk cache enabled, at most once per machine),
* the **backend set** — named :class:`~repro.sim.backend.LatencyBackend`
  instances resolved from specs (``"lightnobel"``, ``"h100-chunk"``, a
  :class:`~repro.hardware.config.LightNobelConfig`, ...),
* the **report memo** — one :class:`~repro.sim.backend.SimReport` per
  (backend, length) pair, memoized in memory and optionally persisted to the
  version-stamped disk cache of :mod:`repro.sim.cache`.

:meth:`SimulationSession.simulate_batch` stacks the distinct lengths of a
batch and prices each requested backend over the stack in one pass — the
loop the paper's Figs. 12–16 all run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .._digest import stable_digest
from ..ppm.config import PPMConfig
from ..ppm.op_table import OperatorTable, StackedOperatorTable, get_op_table
from .backend import LatencyBackend, SimReport, create_backend
from .cache import CACHE_DIR_ENV, DiskCache

import os
import weakref

#: Backends a session resolves by default.
DEFAULT_BACKENDS: Tuple[str, ...] = ("lightnobel", "h100")

#: Stacks one session keeps (oldest evicted first): mixes recur within a
#: sweep or a planner grid, but a long-lived server sees a new mix per batch.
_STACK_MEMO_LIMIT = 8

#: Stacks some session of this process holds, by (config, lengths, recycles):
#: sessions pricing the same length set share one stack.
_LIVE_STACKS: "weakref.WeakValueDictionary[Tuple, StackedOperatorTable]" = (
    weakref.WeakValueDictionary()
)


@dataclass
class BatchResult:
    """Result of one :meth:`SimulationSession.simulate_batch` call."""

    lengths: List[int]
    backends: List[str]
    reports: Dict[Tuple[str, int], SimReport] = field(default_factory=dict)

    def report(self, backend: str, sequence_length: int) -> SimReport:
        return self.reports[(backend, int(sequence_length))]

    def totals(self, backend: str) -> List[float]:
        """Total seconds per input length (aligned with ``lengths``)."""
        return [self.report(backend, n).total_seconds for n in self.lengths]

    def folding_seconds(self, backend: str) -> List[float]:
        return [self.report(backend, n).folding_block_seconds for n in self.lengths]

    def mean_total_seconds(self, backend: str) -> float:
        values = self.totals(backend)
        return sum(values) / len(values) if values else 0.0

    def mean_folding_seconds(self, backend: str) -> float:
        values = self.folding_seconds(backend)
        return sum(values) / len(values) if values else 0.0

    def any_out_of_memory(self, backend: str) -> bool:
        return any(self.report(backend, n).out_of_memory for n in self.lengths)


def session_for(
    ppm_config: Optional[PPMConfig],
    session: Optional["SimulationSession"],
    backends: Iterable = (),
) -> "SimulationSession":
    """Reconcile an optional caller-supplied session with a PPM config.

    Figure entry points accept both; passing a session alongside a
    *different* config would silently simulate the session's config, so the
    mismatch raises instead.  With no session, a fresh one is built over
    ``ppm_config`` (default: the paper configuration).
    """
    if session is not None:
        if ppm_config is not None and ppm_config != session.ppm_config:
            raise ValueError(
                "ppm_config does not match session.ppm_config; pass one or the other"
            )
        return session
    return SimulationSession(ppm_config=ppm_config or PPMConfig.paper(), backends=backends)


class SimulationSession:
    """Shared workload cache + backend registry + report memo.

    ``cache_dir`` (or the ``REPRO_SIM_CACHE_DIR`` environment variable)
    enables the on-disk cache; when neither is given the session is purely
    in-memory.  ``use_disk_cache=False`` force-disables it either way.
    """

    def __init__(
        self,
        ppm_config: Optional[PPMConfig] = None,
        backends: Iterable = DEFAULT_BACKENDS,
        cache_dir: Optional[Path | str] = None,
        use_disk_cache: Optional[bool] = None,
        include_recycles: bool = False,
    ) -> None:
        self.ppm_config = ppm_config or PPMConfig.paper()
        self.include_recycles = include_recycles
        if use_disk_cache is None:
            use_disk_cache = cache_dir is not None or bool(os.environ.get(CACHE_DIR_ENV))
        self.cache: Optional[DiskCache] = DiskCache(cache_dir) if use_disk_cache else None
        self._backends: Dict[str, LatencyBackend] = {}
        self._tables: Dict[Tuple[int, bool], OperatorTable] = {}
        self._stacks: Dict[Tuple[Tuple[int, ...], bool], StackedOperatorTable] = {}
        self._reports: Dict[Tuple[str, int, bool], SimReport] = {}
        self._backend_digests: Dict[str, str] = {}
        #: id(backend) -> registered name, the O(1) inverse of ``_backends``
        #: (the per-spec reverse scan was O(backends) on every simulate call).
        self._names_by_id: Dict[int, str] = {}
        self._spec_memo: Dict[object, LatencyBackend] = {}
        for spec in backends:
            self.add_backend(spec)

    # ---------------------------------------------------------------- backends
    def add_backend(self, spec, name: Optional[str] = None) -> LatencyBackend:
        """Resolve ``spec`` and register it under ``name`` (default: its own).

        Without an explicit ``name``, a default name already bound to a
        *different* configuration is disambiguated with the config digest
        (two ``LightNobelConfig`` specs in one batch must not collapse into
        one registration), and a registration with an identical digest is
        reused as-is.  An explicit ``name`` always (re)binds that name.
        """
        backend = create_backend(spec, self.ppm_config)
        digest = backend.config_digest()
        key = name or backend.name
        if name is None:
            existing = self._backend_digests.get(key)
            if existing == digest:
                return self._backends[key]
            if existing is not None:
                key = f"{backend.name}-{digest}"
                backend.name = key
        self._backends[key] = backend
        self._backend_digests[key] = digest
        self._names_by_id[id(backend)] = key
        return backend

    def _name_of(self, backend: LatencyBackend) -> str:
        """Registered name of a resolved backend instance (O(1) reverse map).

        Falls back to a linear scan only if the reverse map went stale (an
        explicit-name rebinding displaced the instance), mirroring the old
        per-call ``next(k for k, v in ...)`` behavior.
        """
        name = self._names_by_id.get(id(backend))
        if name is not None and self._backends.get(name) is backend:
            return name
        return next(k for k, v in self._backends.items() if v is backend)

    def backend(self, spec) -> LatencyBackend:
        """Look up a registered backend by name, or resolve-and-register it."""
        if isinstance(spec, str):
            if spec in self._backends:
                return self._backends[spec]
            if spec.lower() in self._backends:
                return self._backends[spec.lower()]
            return self.add_backend(spec.lower())
        # Memoize hashable specs (frozen configs, backend instances) so a
        # repeated non-string spec does not rebuild a simulator per call.
        try:
            cached = self._spec_memo.get(spec)
            hashable = True
        except TypeError:
            cached, hashable = None, False
        if cached is not None:
            # Guard against displacement by a later explicit-name rebinding:
            # only serve the memo while the instance is still registered.
            if any(v is cached for v in self._backends.values()):
                return cached
        backend = self.add_backend(spec)
        if hashable:
            self._spec_memo[spec] = backend
        return backend

    def backend_names(self) -> Tuple[str, ...]:
        return tuple(self._backends)

    # ------------------------------------------------------------------ tables
    def _table_key(self, sequence_length: int, include_recycles: bool) -> str:
        digest = stable_digest(
            "OperatorTable",
            {
                "ppm": self.ppm_config,
                "n": int(sequence_length),
                "include_recycles": bool(include_recycles),
            },
        )
        return f"table-{digest}"

    def table(
        self, sequence_length: int, include_recycles: Optional[bool] = None
    ) -> OperatorTable:
        """The cached operator table for ``sequence_length``.

        Resolution order: session memo, disk cache, then the process-wide LRU
        builder of :func:`~repro.ppm.op_table.get_op_table` (whose result is
        persisted to disk for the next process).
        """
        include = self.include_recycles if include_recycles is None else include_recycles
        memo_key = (int(sequence_length), bool(include))
        table = self._tables.get(memo_key)
        if table is not None:
            return table
        if self.cache is not None:
            disk_key = self._table_key(sequence_length, include)
            table = self.cache.get(disk_key)
            if table is None:
                table = get_op_table(self.ppm_config, sequence_length, include_recycles=include)
                self.cache.put(disk_key, table)
        else:
            table = get_op_table(self.ppm_config, sequence_length, include_recycles=include)
        self._tables[memo_key] = table
        return table

    def stacked_table(
        self, lengths: Iterable[int], include_recycles: Optional[bool] = None
    ) -> StackedOperatorTable:
        """The cached stacked table over the distinct sorted ``lengths``.

        Per-length tables resolve through :meth:`table` (session memo, disk
        cache, process LRU), so a stack is one concatenation over tables the
        session already owns.  The assembled stack is memoized for the
        latest length sets and shared with the other sessions of the process
        while one holds it.
        """
        include = self.include_recycles if include_recycles is None else include_recycles
        canonical = tuple(sorted({int(n) for n in lengths}))
        memo_key = (canonical, bool(include))
        stack = self._stacks.get(memo_key)
        if stack is None:
            live_key = (self.ppm_config, memo_key)
            stack = _LIVE_STACKS.get(live_key)
            if stack is None:
                stack = _LIVE_STACKS[live_key] = StackedOperatorTable.from_tables(
                    [self.table(n, include) for n in canonical]
                )
            while len(self._stacks) >= _STACK_MEMO_LIMIT:
                self._stacks.pop(next(iter(self._stacks)))
            self._stacks[memo_key] = stack
            for n, table in zip(stack.lengths, stack.tables):
                self._tables.setdefault((n, bool(include)), table)
        return stack

    # -------------------------------------------------------------- simulation
    def _report_key(self, backend_name: str, sequence_length: int, include: bool) -> str:
        digest = stable_digest(
            "SimReport",
            {
                "backend": self._backend_digests[backend_name],
                "n": int(sequence_length),
                "include_recycles": bool(include),
            },
        )
        return f"report-{digest}"

    def simulate(
        self,
        sequence_length: int,
        backend="lightnobel",
        include_recycles: Optional[bool] = None,
    ) -> SimReport:
        """Latency report of one backend at one sequence length (memoized)."""
        # Keyed by the backend's config digest, not its name: re-registering a
        # different config under an existing name must not serve stale reports.
        name, memo_key = self._memo_key(backend, sequence_length, include_recycles)
        include = memo_key[2]
        report = self._reports.get(memo_key)
        if report is not None:
            return self._labeled(report, name)
        disk_key = None
        if self.cache is not None:
            disk_key = self._report_key(name, sequence_length, include)
            report = self.cache.get(disk_key)
        if report is None:
            report = self._backends[name].simulate_table(self.table(sequence_length, include))
            if self.cache is not None and disk_key is not None:
                self.cache.put(disk_key, report)
        self._reports[memo_key] = report
        return self._labeled(report, name)

    def _memo_key(self, spec, sequence_length: int, include_recycles: Optional[bool]):
        """(digest, length, recycles) memo key plus the resolved backend name."""
        name = self._name_of(self.backend(spec))
        include = self.include_recycles if include_recycles is None else include_recycles
        return name, (self._backend_digests[name], int(sequence_length), bool(include))

    @staticmethod
    def _labeled(report: SimReport, name: str) -> SimReport:
        """Report relabeled to the requested registration name.

        The memo is keyed by config digest, so two registrations of the same
        configuration under different names share one entry; the label must
        still follow the name the caller asked for (per-backend serving stats
        bucket by it).
        """
        if report.backend != name:
            report = replace(report, backend=name)
        return report

    def peek_report(
        self,
        backend="lightnobel",
        sequence_length: int = 0,
        include_recycles: Optional[bool] = None,
    ) -> Optional[SimReport]:
        """Memoized/disk-cached report if one exists, without simulating.

        The serving layer uses this to split a drained batch into memo hits
        and jobs that still need a simulator; a disk-cache hit is promoted
        into the in-memory memo on the way out.
        """
        name, memo_key = self._memo_key(backend, sequence_length, include_recycles)
        report = self._reports.get(memo_key)
        if report is None and self.cache is not None:
            report = self.cache.get(self._report_key(name, sequence_length, memo_key[2]))
            if report is not None:
                self._reports[memo_key] = report
        return self._labeled(report, name) if report is not None else None

    def seed_report(
        self,
        backend,
        sequence_length: int,
        report: SimReport,
        include_recycles: Optional[bool] = None,
    ) -> None:
        """Insert an externally computed report into the memo (and disk cache).

        Used by pool-based executors (the serving layer's worker path) whose
        simulations ran in other processes: seeding keeps the shared session
        as warm as if it had simulated the point itself.
        """
        name, memo_key = self._memo_key(backend, sequence_length, include_recycles)
        self._reports[memo_key] = report
        if self.cache is not None:
            self.cache.put(self._report_key(name, sequence_length, memo_key[2]), report)

    def _fill_from_stack(
        self, name: str, lengths: Sequence[int], include: bool
    ) -> None:
        """Seed the memo for every length ``name`` is missing, in ONE engine pass.

        Lengths already memoized (or on disk) are skipped; the remaining ones
        form a :class:`StackedOperatorTable` priced by a single
        ``simulate_stack`` call, and every segment report is seeded into the
        memo/disk cache.
        """
        missing = [
            n
            for n in lengths
            if self.peek_report(name, n, include_recycles=include) is None
        ]
        if not missing:
            return
        stack = self.stacked_table(missing, include)
        reports = self._backends[name].simulate_stack(stack)
        for n in missing:
            self.seed_report(
                name, n, reports[stack.segment_index(n)], include_recycles=include
            )

    def simulate_batch(
        self,
        lengths: Iterable[int],
        backends: Optional[Sequence] = None,
        include_recycles: Optional[bool] = None,
    ) -> BatchResult:
        """Evaluate every backend on every length in one stacked pass per backend.

        The distinct lengths not yet memoized (or on disk) are stacked into
        one :class:`~repro.ppm.op_table.StackedOperatorTable` (built at most
        once per distinct-length set) and each backend prices the whole mix
        with a single vectorized evaluation; results for repeated lengths are
        served from the memo.  Every report is bit-identical to
        :meth:`simulate` on its length.
        """
        lengths = [int(n) for n in lengths]
        include = (
            self.include_recycles if include_recycles is None else bool(include_recycles)
        )
        specs = list(backends) if backends is not None else list(self._backends)
        resolved_names = [self._name_of(self.backend(spec)) for spec in specs]
        distinct = list(dict.fromkeys(lengths))  # preserve order, dedupe
        for name in dict.fromkeys(resolved_names):
            self._fill_from_stack(name, distinct, include)
        result = BatchResult(lengths=lengths, backends=resolved_names)
        for n in distinct:
            for name in resolved_names:
                result.reports[(name, n)] = self.simulate(
                    n, backend=name, include_recycles=include
                )
        return result

    def batch_total_seconds(
        self,
        lengths: Iterable[int],
        backends: Optional[Sequence] = None,
        include_recycles: Optional[bool] = None,
    ) -> List[List[Optional[float]]]:
        """Total latency of every (backend, length) pair; ``None`` where OOM.

        The totals-only path for consumers that read nothing but the scalar
        (the planner's service-time prefetch): each backend prices the
        distinct lengths with one ``simulate_stack_totals`` pass and NO
        per-length report assembly, which is several times faster again than
        :meth:`simulate_batch`.  Each total is bit-identical to
        ``simulate(n, backend).total_seconds``.  Read-only: nothing is seeded
        into the report memo (recomputing is cheaper than materializing the
        reports would be).

        Returns one list per entry of ``backends`` (session registration
        order when omitted), each aligned with ``lengths``.
        """
        lengths = [int(n) for n in lengths]
        include = (
            self.include_recycles if include_recycles is None else bool(include_recycles)
        )
        specs = list(backends) if backends is not None else list(self._backends)
        names = [self._name_of(self.backend(spec)) for spec in specs]
        if not lengths:
            return [[] for _ in names]
        stack = self.stacked_table(lengths, include)
        by_name: Dict[str, Dict[int, Optional[float]]] = {}
        for name in dict.fromkeys(names):
            by_name[name] = {
                n: (None if oom else t)
                for n, (t, oom) in zip(
                    stack.lengths, self._backends[name].simulate_stack_totals(stack)
                )
            }
        return [[by_name[name][n] for n in lengths] for name in names]

    # -------------------------------------------------------------- accounting
    def stats(self) -> Dict[str, object]:
        """Cache/memoization statistics (for benchmarks and debugging)."""
        return {
            "tables_in_memory": len(self._tables),
            "stacks_in_memory": len(self._stacks),
            "reports_in_memory": len(self._reports),
            "backends": self.backend_names(),
            "disk_cache": self.cache.stats() if self.cache is not None else None,
        }

    def clear_memo(self) -> None:
        """Drop the in-memory memo (disk cache entries are kept)."""
        self._tables.clear()
        self._stacks.clear()
        self._reports.clear()
