"""Versioned JSON wire format of the serving layer.

The in-process API speaks frozen dataclasses whose fields grew PR-by-PR
(:class:`~repro.serving.api.LatencyRequest`, ``LatencyResponse``,
``CapacityReport``, ``RequestLogRecord``).  This module is the *wire
contract* those types serialize through — the schema the HTTP front door
(:mod:`repro.serving.http`) validates against:

* :class:`WireRequest` / :class:`WireResponse` — the request/response pair a
  client puts on the socket.  Each converts losslessly to and from its
  in-process sibling (``WireRequest.to_latency`` /
  ``WireResponse.from_latency``) and round-trips through JSON exactly
  (``to_json`` / ``from_json``); the only restriction the wire adds is that
  ``backend`` must be a registry *name* — live backend objects and frozen
  config dataclasses are an in-process convenience, not a wire type.
* :class:`ErrorBody` — every non-2xx HTTP response body: a machine-readable
  ``code``, a human-readable ``message``, and (for backpressure) a
  ``retry_after_seconds`` hint mirroring the ``Retry-After`` header.
* converters for the operator-facing types —
  :func:`capacity_report_to_dict` / :func:`capacity_report_from_dict`,
  :func:`log_record_to_dict` / :func:`log_record_from_dict`,
  :func:`request_log_to_json` / :func:`request_log_from_json`, and
  :func:`sim_report_to_dict` / :func:`sim_report_from_dict` — all lossless
  round trips, all carrying ``schema_version``.

Every type goes through one codec.  At import, each wire dataclass gets a
field plan derived from ``dataclasses.fields()`` and its type hints (``int``,
``float``, ``bool``, ``str``, ``Optional[...]``, ``Mapping[str, float]``, a
nested wire dataclass, ``Tuple[nested, ...]``), refined by a small rule
table for what a hint cannot say (minimums, positive finite floats, fields
the wire requires).  One encoder and one decoder walk the plans.

Validation is strict: unknown fields, wrong types, non-positive lengths,
non-finite deadlines and unsupported schema versions raise
:class:`WireFormatError` with a stable ``code``, which the HTTP layer maps
to a 400 with the same code in the :class:`ErrorBody`.  A payload without
``schema_version`` is read as the current :data:`SCHEMA_VERSION`
(curl-friendliness); a payload with a *different* version is rejected rather
than half-parsed.  A field the dataclass gives a default may be omitted; one
without a default may not, except an ``Optional`` field (read as ``null``)
and a nested object (read as ``{}``).
"""

from __future__ import annotations

import collections.abc
import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union
from typing import get_args, get_origin, get_type_hints

from ..sim.backend import SimReport
from .api import BackendServiceStats, CapacityReport, RequestLogRecord
from .api import LatencyRequest, LatencyResponse

#: Version of the wire schema.  Bump when a field changes meaning or shape;
#: additive optional fields do not require a bump.
SCHEMA_VERSION = 1


class WireFormatError(ValueError):
    """A payload failed wire-schema validation.

    ``code`` is a stable machine-readable identifier (``"invalid_json"``,
    ``"unknown_field"``, ``"invalid_field"``, ``"missing_field"``,
    ``"unsupported_schema_version"``, ``"unserializable_backend"``); the HTTP
    layer returns it verbatim in the :class:`ErrorBody` of a 400 response.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


#: ``json.dumps(..., sort_keys=True)`` without building an encoder per call.
_to_json = json.JSONEncoder(sort_keys=True).encode


def _parse_json(text: Any, what: str) -> Any:
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError("invalid_json", f"{what} is not valid UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except (TypeError, ValueError) as exc:
        raise WireFormatError("invalid_json", f"{what} is not valid JSON: {exc}") from None


class _WireType:
    """``to_dict``/``to_json``/``from_dict``/``from_json`` through the codec."""

    def to_dict(self) -> Dict[str, Any]:
        return _PLANS[type(self)].encode(self)

    def to_json(self) -> str:
        return _to_json(_PLANS[type(self)].encode(self))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> Any:
        return _decode(_PLANS[cls], payload)

    @classmethod
    def from_json(cls, text: Any) -> Any:
        return _decode(_PLANS[cls], _parse_json(text, cls.__name__))


# ------------------------------------------------------------------ wire types
@dataclass(frozen=True)
class ErrorBody(_WireType):
    """The body of every non-2xx HTTP response.

    ``code`` is stable and machine-readable.  Besides the
    :class:`WireFormatError` codes (400), the HTTP front door emits:

    * ``"invalid_request"`` (400) — a well-formed request the service
      rejected (``ValueError``/``RuntimeError``);
    * ``"not_found"`` (404) — no such route;
    * ``"unknown_ticket"``, ``"already_consumed"`` (404) and ``"reaped"``
      (410) — ticket lifecycle;
    * ``"unknown_trace"``, ``"tracing_disabled"`` (404) — ``/v1/trace/<id>``;
    * ``"payload_too_large"`` (413);
    * ``"backpressure"`` (429) — the tenant's bounded queue is full;
    * ``"internal_error"`` (500);
    * ``"draining"`` (503) — the server is shutting down.

    ``retry_after_seconds`` accompanies 429s, mirroring the ``Retry-After``
    header for clients that only read bodies.
    """

    code: str
    message: str
    retry_after_seconds: Optional[float] = None
    schema_version: int = SCHEMA_VERSION


@dataclass(frozen=True)
class WireRequest(_WireType):
    """One latency query as it crosses the socket.

    The wire twin of :class:`~repro.serving.api.LatencyRequest` plus
    ``tenant`` — the HTTP layer's per-tenant bounded-queue key, which the
    in-process API has no use for and therefore drops on
    :meth:`to_latency`.  ``backend`` must be a backend registry name (the
    wire cannot carry live objects); everything
    :func:`repro.sim.backend.create_backend` resolves from a string works.

    ``trace_id`` carries the client's distributed-tracing ID into the
    service (additive optional field — no schema bump): when the service
    traces, its server-side spans land under this ID and
    ``GET /v1/trace/<id>`` returns them.  The HTTP layer also accepts it via
    the ``X-Trace-Id`` header (body wins when both are present).
    """

    backend: str = "lightnobel"
    sequence_length: int = 0
    include_recycles: Optional[bool] = None
    priority: int = 0
    deadline_seconds: Optional[float] = None
    tenant: str = "default"
    trace_id: Optional[str] = None
    schema_version: int = SCHEMA_VERSION

    def to_latency(self) -> LatencyRequest:
        """The in-process request (drops ``tenant``; validates in __post_init__)."""
        return LatencyRequest(
            backend=self.backend,
            sequence_length=self.sequence_length,
            include_recycles=self.include_recycles,
            priority=self.priority,
            deadline_seconds=self.deadline_seconds,
            trace_id=self.trace_id,
        )

    @classmethod
    def from_latency(cls, request: LatencyRequest, tenant: str = "default") -> "WireRequest":
        """Wire twin of an in-process request.

        Raises :class:`WireFormatError` (``"unserializable_backend"``) for
        non-string backend specs — config dataclasses and live backends are
        in-process conveniences; the wire speaks registry names only.
        """
        if not isinstance(request.backend, str):
            raise WireFormatError(
                "unserializable_backend",
                "only string backend names cross the wire; register the spec "
                f"and submit by name (got {type(request.backend).__name__})",
            )
        return cls(
            backend=request.backend,
            sequence_length=request.sequence_length,
            include_recycles=request.include_recycles,
            priority=request.priority,
            deadline_seconds=request.deadline_seconds,
            tenant=tenant,
            trace_id=request.trace_id,
        )


@dataclass(frozen=True)
class WireResponse(_WireType):
    """One fulfilled (or failed) request as it crosses the socket.

    The wire twin of :class:`~repro.serving.api.LatencyResponse`: the ticket
    id, the request as admitted (a :class:`WireRequest`, so the tenant rides
    along), the full :class:`~repro.sim.backend.SimReport` when the request
    succeeded, and the service-side timings.  ``to_latency`` /
    ``from_latency`` round-trip losslessly for any string-backend request.
    """

    ticket_id: int
    request: WireRequest
    report: Optional[SimReport] = None
    error: Optional[str] = None
    coalesced: bool = False
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    completed_index: int = -1
    schema_version: int = SCHEMA_VERSION

    @property
    def ok(self) -> bool:
        return self.error is None and self.report is not None

    @classmethod
    def from_latency(
        cls, response: LatencyResponse, tenant: str = "default"
    ) -> "WireResponse":
        return cls(
            ticket_id=response.request_id,
            request=WireRequest.from_latency(response.request, tenant=tenant),
            report=response.report,
            error=response.error,
            coalesced=response.coalesced,
            queue_seconds=response.queue_seconds,
            service_seconds=response.service_seconds,
            completed_index=response.completed_index,
        )

    def to_latency(self) -> LatencyResponse:
        return LatencyResponse(
            request_id=self.ticket_id,
            request=self.request.to_latency(),
            report=self.report,
            error=self.error,
            coalesced=self.coalesced,
            queue_seconds=self.queue_seconds,
            service_seconds=self.service_seconds,
            completed_index=self.completed_index,
        )


@dataclass(frozen=True)
class _RequestLog:
    """The ``GET /v1/log`` envelope around a list of log records."""

    records: Tuple[RequestLogRecord, ...] = ()


# ------------------------------------------------------------------ rule table
#: What a type hint cannot say about a wire field, keyed by field name.
_MINIMUM = {"sequence_length": 1, "ticket_id": 0, "requests": 0}
#: Floats that must be positive and finite (or null, being Optional).
_POSITIVE_FINITE = frozenset({"deadline_seconds", "retry_after_seconds"})
#: Strings that may be empty; every other string must not be.
_MAY_BE_EMPTY = frozenset({"error"})
#: Fields the wire requires although the dataclass gives them a default.
_REQUIRED = {WireRequest: ("sequence_length",)}
#: Types whose payload carries no ``schema_version`` (rows nested in another).
_UNVERSIONED = frozenset({BackendServiceStats})
#: Fields decoded before (-1) or after (+1) the rest, so that a payload with
#: several faults reports the same one first as the hand-written decoders did.
_DECODE_ORDER = {"error": -1, "backends": 1}


# ----------------------------------------------------------------- field plans
def _invalid(message: str) -> WireFormatError:
    return WireFormatError("invalid_field", message)


def _require_dict(payload: Any, what: str) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise _invalid(f"{what} must be a JSON object, got {type(payload).__name__}")
    return payload


def _as_str(name: str, may_be_empty: bool = False) -> Callable[[Any], str]:
    def decode(value: Any) -> str:
        if not isinstance(value, str) or not (value or may_be_empty):
            kind = "a string" if may_be_empty else "a non-empty string"
            raise _invalid(f"{name} must be {kind}, got {value!r}")
        return value

    return decode


def _as_int(name: str) -> Callable[[Any], int]:
    minimum = _MINIMUM.get(name)

    def decode(value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _invalid(f"{name} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise _invalid(f"{name} must be >= {minimum}, got {value!r}")
        return value

    return decode


def _as_float(name: str) -> Callable[[Any], float]:
    positive = name in _POSITIVE_FINITE

    def decode(value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _invalid(f"{name} must be a number, got {value!r}")
        value = float(value)
        if positive and not 0.0 < value < math.inf:
            raise _invalid(f"{name} must be positive and finite, got {value!r}")
        return value

    return decode


def _as_bool(name: str) -> Callable[[Any], bool]:
    def decode(value: Any) -> bool:
        if not isinstance(value, bool):
            raise _invalid(f"{name} must be a boolean, got {value!r}")
        return value

    return decode


def _as_float_map(name: str) -> Callable[[Any], Dict[str, float]]:
    key, number = _as_str(f"{name} key"), _as_float(name)

    def decode(value: Any) -> Dict[str, float]:
        return {key(k): number(v) for k, v in _require_dict(value, name).items()}

    return decode


def _field_codec(name: str, hint: Any) -> Tuple[Callable, Optional[Callable]]:
    """``(decode, encode)`` of one non-Optional field; ``encode`` None passes through."""
    origin, args = get_origin(hint), get_args(hint)
    if is_dataclass(hint):
        plan = _plan(hint)
        return partial(_decode, plan), plan.encode
    if origin is tuple:
        plan = _plan(args[0])
        decode_row, encode_row = partial(_decode, plan), plan.encode

        def decode_rows(value: Any) -> tuple:
            if not isinstance(value, (list, tuple)):
                raise _invalid(f"{name} must be a list, got {type(value).__name__}")
            return tuple(map(decode_row, value))

        return decode_rows, lambda value: list(map(encode_row, value))
    if origin is collections.abc.Mapping:
        return _as_float_map(name), lambda value: {str(k): float(v) for k, v in value.items()}
    if hint is str:
        return _as_str(name, name in _MAY_BE_EMPTY), None
    scalars = {int: (_as_int, int), float: (_as_float, float), bool: (_as_bool, bool)}
    make_decode, encode = scalars[hint]
    return make_decode(name), encode


@dataclass(frozen=True)
class _Plan:
    cls: type
    what: str
    versioned: bool
    allowed: frozenset
    required: Tuple[str, ...]
    #: ``(name, decode, optional, value when absent)``; an absent ``_DEFAULT``
    #: leaves the field to its dataclass default.
    decoders: Tuple[Tuple[str, Callable, bool, Any], ...]
    encode: Callable[[Any], Dict[str, Any]]


_DEFAULT = object()
_PLANS: Dict[type, _Plan] = {}


def _plan(cls: type) -> _Plan:
    if cls in _PLANS:
        return _PLANS[cls]
    hints, decoders, encoders = get_type_hints(cls), [], []
    for spec in fields(cls):
        hint = hints[spec.name]
        optional = get_origin(hint) is Union  # Optional[X]
        if optional:
            hint = get_args(hint)[0]
        decode, encode = _field_codec(spec.name, hint)
        encoders.append((spec.name, encode, optional))
        if spec.name == "schema_version":
            continue  # checked up front; the dataclass default is the version
        if spec.default is not MISSING or spec.default_factory is not MISSING:
            absent = _DEFAULT
        else:
            absent = {} if is_dataclass(hint) else None
        decoders.append((spec.name, decode, optional, absent))
    decoders.sort(key=lambda entry: _DECODE_ORDER.get(entry[0], 0))
    encoders.sort(key=lambda entry: entry[0] != "schema_version")  # the version leads
    versioned = cls not in _UNVERSIONED
    names = [name for name, _e, _o in encoders]
    plan = _Plan(
        cls=cls,
        what=cls.__name__.lstrip("_"),
        versioned=versioned,
        allowed=frozenset(names).union(["schema_version"] if versioned else []),
        required=_REQUIRED.get(cls, ()),
        decoders=tuple(decoders),
        encode=_compile_encoder(encoders, stamp=versioned and "schema_version" not in names),
    )
    _PLANS[cls] = plan
    return plan


# ------------------------------------------------------------------ the codec
def _compile_encoder(
    encoders: List[Tuple[str, Optional[Callable], bool]], stamp: bool
) -> Callable[[Any], Dict[str, Any]]:
    """Compile ``(name, encode, optional)`` entries into one dict display.

    A loop over the entries costs about three times what a hand-written
    ``to_dict`` does, so, as :mod:`dataclasses` does for ``__init__``, the
    plan is compiled once into ``{"name": enc_name(obj.name), ...}``: a
    ``None`` test goes in front for an Optional field, ``obj.name`` stands
    alone where the value passes through, and ``stamp`` adds
    ``schema_version`` for a type that does not carry the field itself.
    """
    namespace: Dict[str, Any] = {}
    entries = [f"'schema_version': {SCHEMA_VERSION}"] if stamp else []
    for name, encode, optional in encoders:
        value = f"obj.{name}"
        if encode is not None:
            namespace[f"enc_{name}"] = encode
            value = f"enc_{name}({value})"
            if optional:
                value = f"None if obj.{name} is None else {value}"
        entries.append(f"{name!r}: {value}")
    exec(f"def encode(obj):\n    return {{{', '.join(entries)}}}\n", namespace)
    return namespace["encode"]


def _decode(plan: _Plan, payload: Any) -> Any:
    what = plan.what
    payload = _require_dict(payload, what)
    if not plan.allowed.issuperset(payload):
        unknown = next(key for key in payload if key not in plan.allowed)
        raise WireFormatError("unknown_field", f"{what} does not accept field {unknown!r}")
    if plan.versioned:
        version = payload.get("schema_version", SCHEMA_VERSION)
        if not isinstance(version, int) or isinstance(version, bool) or version != SCHEMA_VERSION:
            raise WireFormatError(
                "unsupported_schema_version",
                f"{what} schema_version must be {SCHEMA_VERSION}, got {version!r}",
            )
    for name in plan.required:
        if name not in payload:
            raise WireFormatError("missing_field", f"{what} requires {name}")
    kwargs = {}
    for name, decode, optional, absent in plan.decoders:
        value = payload.get(name, absent)
        if value is not _DEFAULT:
            kwargs[name] = None if optional and value is None else decode(value)
    return plan.cls(**kwargs)


for _cls in (ErrorBody, WireRequest, WireResponse, CapacityReport, _RequestLog):
    _plan(_cls)


# ------------------------------------------------------- operator-type helpers
def sim_report_to_dict(report: SimReport) -> Dict[str, Any]:
    """JSON-able dict of a :class:`~repro.sim.backend.SimReport` (lossless)."""
    return _PLANS[SimReport].encode(report)


def sim_report_from_dict(payload: Mapping[str, Any]) -> SimReport:
    return _decode(_PLANS[SimReport], payload)


def backend_stats_to_dict(row: BackendServiceStats) -> Dict[str, Any]:
    return _PLANS[BackendServiceStats].encode(row)


def backend_stats_from_dict(payload: Mapping[str, Any]) -> BackendServiceStats:
    return _decode(_PLANS[BackendServiceStats], payload)


def capacity_report_to_dict(report: CapacityReport) -> Dict[str, Any]:
    """JSON-able dict of a :class:`~repro.serving.api.CapacityReport` (lossless)."""
    return _PLANS[CapacityReport].encode(report)


def capacity_report_from_dict(payload: Mapping[str, Any]) -> CapacityReport:
    return _decode(_PLANS[CapacityReport], payload)


def log_record_to_dict(record: RequestLogRecord) -> Dict[str, Any]:
    """JSON-able dict of a :class:`~repro.serving.api.RequestLogRecord` (lossless)."""
    return _PLANS[RequestLogRecord].encode(record)


def log_record_from_dict(payload: Mapping[str, Any]) -> RequestLogRecord:
    return _decode(_PLANS[RequestLogRecord], payload)


def request_log_to_json(records: Sequence[RequestLogRecord]) -> str:
    """Serialize a request log — the ``GET /v1/log`` response body."""
    return _to_json(_PLANS[_RequestLog].encode(_RequestLog(tuple(records))))


def request_log_from_json(text: Any) -> List[RequestLogRecord]:
    """Parse a ``GET /v1/log`` body back into typed log records.

    The result feeds :meth:`repro.cluster.trace.RequestTrace.from_serving_log`
    directly: live HTTP traffic becomes a replayable cluster trace.
    """
    log = _decode(_PLANS[_RequestLog], _parse_json(text, "request log"))
    return list(log.records)
