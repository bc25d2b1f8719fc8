"""Latency backends: one protocol over every simulator that produces seconds.

The accelerator model (:class:`~repro.hardware.accelerator.LightNobelAccelerator`)
and the GPU roofline (:class:`~repro.gpu.gpu_model.GPUModel`) grew up as
unrelated classes with different report shapes (cycles vs seconds, different
phase accessors).  Every figure loop downstream re-implemented the glue.  This
module gives them a single face:

* :class:`SimReport` — the common result shape (seconds, per-phase seconds,
  OOM flag, backend-specific details),
* :class:`LatencyBackend` — the protocol every backend implements: one
  stacked pricing pass over a :class:`~repro.ppm.op_table.StackedOperatorTable`
  (full reports from ``simulate_stack``, scalar totals from
  ``simulate_stack_totals``), ``simulate_table`` for one length — a
  one-segment stack — and a stable ``config_digest`` for cache keys,
* :class:`AcceleratorBackend` / :class:`GPUBackend` — adapters over the two
  existing simulators,
* a registry (:func:`register_backend` / :func:`create_backend`) so a new
  backend — a chunked-GPU variant, a future multi-chip configuration — is one
  class (or one frozen spec) away from every sweep in the repo.

Backends are resolved from *specs*: a registered name (``"lightnobel"``,
``"h100"``, ``"a100-chunk"`` …), a :class:`~repro.hardware.config.LightNobelConfig`,
a :class:`~repro.gpu.gpu_config.GPUSpec`, a frozen :class:`AcceleratorVariant` /
:class:`GPUVariant`, or an already-built backend.  Specs are plain frozen
dataclasses, so sweep points ship cleanly across process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from .._digest import stable_digest
from ..core.aaq import AAQConfig
from ..gpu.gpu_config import GPUSpec, GPUS, get_gpu
from ..gpu.gpu_model import GPUModel
from ..hardware.accelerator import LightNobelAccelerator
from ..hardware.config import LightNobelConfig
from ..ppm.config import PPMConfig
from ..ppm.op_table import OperatorTable, StackedOperatorTable, get_op_table
from ..ppm.workload import PHASE_PAIR, PHASE_SEQUENCE


@dataclass(frozen=True)
class SimReport:
    """Backend-independent latency report for one (backend, length) point."""

    backend: str
    sequence_length: int
    total_seconds: float
    phase_seconds: Mapping[str, float] = field(default_factory=dict)
    subphase_seconds: Mapping[str, float] = field(default_factory=dict)
    out_of_memory: bool = False
    #: Backend-specific scalars (cycles, DRAM bytes, kernel counts, ...).
    details: Mapping[str, float] = field(default_factory=dict)

    @property
    def folding_block_seconds(self) -> float:
        """Latency of the Protein Folding Block phases (the Fig. 14b-d metric)."""
        return self.phase_seconds.get(PHASE_PAIR, 0.0) + self.phase_seconds.get(
            PHASE_SEQUENCE, 0.0
        )


@runtime_checkable
class LatencyBackend(Protocol):
    """Anything that prices operator tables into :class:`SimReport` objects.

    All three pricing methods are required, and there is no fallback: the
    session, sweep and planner layers price every length mix through
    ``simulate_stack`` (full reports) or ``simulate_stack_totals`` (scalars
    only), and ``simulate_table`` prices one length as a one-segment stack.
    Each segment's numbers are bit-identical whichever method, and whichever
    mix, priced it.
    """

    name: str
    ppm_config: PPMConfig

    def simulate_table(self, table: OperatorTable) -> SimReport:
        """Evaluate one cached operator table."""
        ...

    def simulate_stack(self, stack: StackedOperatorTable) -> List[SimReport]:
        """Price a whole length mix in one pass; one report per segment."""
        ...

    def simulate_stack_totals(
        self, stack: StackedOperatorTable
    ) -> List[Tuple[float, bool]]:
        """Per-segment ``(total_seconds, out_of_memory)``, without reports."""
        ...

    def config_digest(self) -> str:
        """Stable hash of everything that affects this backend's numbers."""
        ...


#: Memo for backend config digests keyed by the (hashable, frozen) config
#: values themselves.  Sessions are cheap to create, so the same handful of
#: configurations gets re-digested constantly; the JSON canonicalization
#: behind :func:`stable_digest` is the single largest cost of standing up a
#: session.  Bounded: cleared wholesale if an unexpected config churn ever
#: grows it past the cap.
_DIGEST_MEMO: Dict[Tuple, str] = {}
_DIGEST_MEMO_LIMIT = 256


def _memoized_digest(kind: str, payload: Dict) -> str:
    try:
        key = (kind, tuple(sorted(payload.items())))
        cached = _DIGEST_MEMO.get(key)
    except TypeError:  # unhashable config object — digest it every time
        return stable_digest(kind, payload)
    if cached is None:
        if len(_DIGEST_MEMO) >= _DIGEST_MEMO_LIMIT:
            _DIGEST_MEMO.clear()
        cached = _DIGEST_MEMO[key] = stable_digest(kind, payload)
    return cached


class AcceleratorBackend:
    """Adapter exposing :class:`LightNobelAccelerator` as a :class:`LatencyBackend`."""

    def __init__(
        self,
        ppm_config: Optional[PPMConfig] = None,
        hw_config: Optional[LightNobelConfig] = None,
        aaq_config: Optional[AAQConfig] = None,
        tokenwise_mha: bool = True,
        name: Optional[str] = None,
        simulator: Optional[LightNobelAccelerator] = None,
    ) -> None:
        if simulator is None:
            simulator = LightNobelAccelerator(
                hw_config=hw_config,
                ppm_config=ppm_config,
                aaq_config=aaq_config,
                tokenwise_mha=tokenwise_mha,
            )
        self.simulator = simulator
        self.ppm_config = simulator.ppm_config
        self.name = name or "lightnobel"

    def _to_sim_report(self, report) -> SimReport:
        clock = self.simulator.hw_config.cycles_per_second
        return SimReport(
            backend=self.name,
            sequence_length=report.sequence_length,
            total_seconds=report.total_seconds,
            phase_seconds=report.phase_seconds(clock),
            subphase_seconds={
                sub: cycles / clock for sub, cycles in report.subphase_cycles.items()
            },
            out_of_memory=False,
            details={
                "total_cycles": report.total_cycles,
                "dram_bytes": report.dram_bytes,
            },
        )

    def simulate_table(self, table: OperatorTable) -> SimReport:
        return self._to_sim_report(self.simulator.simulate_table(table))

    def simulate_stack(self, stack: StackedOperatorTable) -> List[SimReport]:
        """One vectorized engine pass over a length mix; reports per segment."""
        return [self._to_sim_report(r) for r in self.simulator.simulate_stack(stack)]

    def simulate_stack_totals(
        self, stack: StackedOperatorTable
    ) -> List[Tuple[float, bool]]:
        """Per-segment ``(total_seconds, out_of_memory)`` without reports."""
        return [(t, False) for t in self.simulator.simulate_stack_totals(stack)]

    def simulate(self, sequence_length: int) -> SimReport:
        """Convenience path when no session manages the table cache."""
        return self.simulate_table(get_op_table(self.ppm_config, sequence_length))

    def config_digest(self) -> str:
        return _memoized_digest(
            type(self).__name__,
            {
                "hw": self.simulator.hw_config,
                "ppm": self.simulator.ppm_config,
                "aaq": self.simulator.aaq_config,
                "tokenwise_mha": self.simulator.tokenwise_mha,
            },
        )


class GPUBackend:
    """Adapter exposing :class:`GPUModel` (± chunking) as a :class:`LatencyBackend`."""

    def __init__(
        self,
        gpu: GPUSpec | str = "H100",
        chunked: bool = False,
        ppm_config: Optional[PPMConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.model = GPUModel(gpu, ppm_config=ppm_config)
        self.chunked = chunked
        self.ppm_config = self.model.ppm_config
        default = self.model.gpu.name.lower() + ("-chunk" if chunked else "")
        self.name = name or default

    def _to_sim_report(self, report) -> SimReport:
        # The GPULatencyReport is built fresh per call and discarded here, so
        # its phase/subphase dicts can be adopted without a defensive copy.
        return SimReport(
            backend=self.name,
            sequence_length=report.sequence_length,
            total_seconds=report.total_seconds,
            phase_seconds=report.phase_seconds,
            subphase_seconds=report.subphase_seconds,
            out_of_memory=report.out_of_memory,
            details={"kernel_count": report.kernel_count},
        )

    def simulate_table(self, table: OperatorTable) -> SimReport:
        return self._to_sim_report(self.model.simulate_table(table, chunked=self.chunked))

    def simulate_stack(self, stack: StackedOperatorTable) -> List[SimReport]:
        """One vectorized roofline pass over a length mix; reports per segment."""
        return [
            self._to_sim_report(r)
            for r in self.model.simulate_stack(stack, chunked=self.chunked)
        ]

    def simulate_stack_totals(
        self, stack: StackedOperatorTable
    ) -> List[Tuple[float, bool]]:
        """Per-segment ``(total_seconds, out_of_memory)`` without reports."""
        fits = self.model.fits_in_memory
        return [
            (t, not fits(n, chunked=self.chunked))
            for t, n in zip(
                self.model.simulate_stack_totals(stack, chunked=self.chunked),
                stack.lengths,
            )
        ]

    def simulate(self, sequence_length: int) -> SimReport:
        """Convenience path when no session manages the table cache."""
        return self.simulate_table(get_op_table(self.ppm_config, sequence_length))

    def fits_in_memory(self, sequence_length: int) -> bool:
        return self.model.fits_in_memory(sequence_length, chunked=self.chunked)

    def config_digest(self) -> str:
        return _memoized_digest(
            type(self).__name__,
            {
                "gpu": self.model.gpu,
                "ppm": self.model.ppm_config,
                "chunked": self.chunked,
            },
        )


# ------------------------------------------------------------ declarative specs
@dataclass(frozen=True)
class AcceleratorVariant:
    """Picklable spec for an accelerator backend (sweep fan-out friendly)."""

    hw_config: Optional[LightNobelConfig] = None
    aaq_config: Optional[AAQConfig] = None
    tokenwise_mha: bool = True
    name: Optional[str] = None

    def build(self, ppm_config: Optional[PPMConfig] = None) -> AcceleratorBackend:
        return AcceleratorBackend(
            ppm_config=ppm_config,
            hw_config=self.hw_config,
            aaq_config=self.aaq_config,
            tokenwise_mha=self.tokenwise_mha,
            name=self.name,
        )


@dataclass(frozen=True)
class GPUVariant:
    """Picklable spec for a GPU backend (sweep fan-out friendly)."""

    gpu: str = "H100"
    chunked: bool = False
    name: Optional[str] = None

    def build(self, ppm_config: Optional[PPMConfig] = None) -> GPUBackend:
        return GPUBackend(
            gpu=self.gpu, chunked=self.chunked, ppm_config=ppm_config, name=self.name
        )


# --------------------------------------------------------------------- registry
BackendFactory = Callable[[Optional[PPMConfig]], LatencyBackend]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a named backend factory (``factory(ppm_config) -> backend``)."""
    _REGISTRY[name.lower()] = factory


def available_backends() -> Tuple[str, ...]:
    """Names resolvable by :func:`create_backend` (sorted)."""
    return tuple(sorted(_REGISTRY))


def _register_defaults() -> None:
    register_backend("lightnobel", lambda ppm: AcceleratorBackend(ppm_config=ppm))
    for gpu_name in GPUS:
        for chunked in (False, True):
            spec = GPUVariant(gpu=gpu_name, chunked=chunked)
            name = gpu_name.lower() + ("-chunk" if chunked else "")
            register_backend(name, spec.build)


_register_defaults()


def create_backend(spec, ppm_config: Optional[PPMConfig] = None) -> LatencyBackend:
    """Resolve a backend spec into a ready :class:`LatencyBackend`.

    Accepts a registered name (case-insensitive; unknown names falling back to
    ``get_gpu`` so plain GPU names always work, with an optional ``-chunk``
    suffix), a :class:`LightNobelConfig`, a :class:`GPUSpec`, a frozen
    :class:`AcceleratorVariant`/:class:`GPUVariant`, or an existing backend
    instance (returned unchanged).
    """
    if isinstance(spec, (AcceleratorVariant, GPUVariant)):
        return spec.build(ppm_config)
    # Any frozen variant-style spec with a build(ppm_config) factory resolves
    # the same way (e.g. repro.cluster.fleet.MultiChipVariant) — new backend
    # families do not need to be enumerated here.
    build = getattr(spec, "build", None)
    if callable(build) and not isinstance(spec, type) and not hasattr(spec, "simulate_table"):
        return build(ppm_config)
    if isinstance(spec, LightNobelConfig):
        return AcceleratorBackend(ppm_config=ppm_config, hw_config=spec)
    if isinstance(spec, GPUSpec):
        return GPUBackend(gpu=spec, ppm_config=ppm_config)
    if isinstance(spec, str):
        key = spec.lower()
        factory = _REGISTRY.get(key)
        if factory is not None:
            return factory(ppm_config)
        chunked = key.endswith("-chunk")
        gpu_name = key[: -len("-chunk")] if chunked else key
        try:
            gpu = get_gpu(gpu_name.upper())
        except ValueError:
            raise ValueError(
                f"unknown backend {spec!r}; expected one of {available_backends()}"
            ) from None
        return GPUBackend(gpu=gpu, chunked=chunked, ppm_config=ppm_config)
    if hasattr(spec, "simulate_table") and hasattr(spec, "config_digest"):
        return spec
    if isinstance(spec, LightNobelAccelerator):
        return AcceleratorBackend(simulator=spec)
    if isinstance(spec, GPUModel):
        return GPUBackend(gpu=spec.gpu, ppm_config=spec.ppm_config)
    raise TypeError(f"cannot build a latency backend from {type(spec).__name__!r}")
