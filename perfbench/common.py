"""Shared pieces of the benchmark: repo paths, spans, statistics, processes.

Every number the benchmark reports is host time or host memory of the
simulator itself.  Simulated quantities (SimReport seconds, ClusterReport
latencies) are outputs the workloads check for bit-identity, never speeds.

A repeated batch job (a sweep, a plan grid) is reported as the mean of its
repetitions.  On the shared 2-core host the benchmark was tuned on,
neighbours slowed the same code by up to 2x for tens of seconds at a time,
so the repetitions of one run fall into a fast and a slow cluster.  A
median jumps between the clusters from run to run; the mean moves only in
proportion to the share of slow repetitions, and it spread least between
runs.  Set-up time is the median of several set-ups, and per-request
latencies are medians.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Sequence

#: Root of the checkout: the benchmark runs from there and touches nothing
#: outside it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of a run (disk caches, span dumps); ignored by git.
WORK = ROOT / ".perfbench"


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for a child interpreter: the checkout's sources, nothing
    inherited that would change what the program does (a user's disk cache
    or worker count)."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


@dataclass
class Outcome:
    """What one workload pass measured and checked.

    ``e2e`` maps an end-to-end metric to ``(value, samples)``; ``layers``
    maps a per-layer metric to its value (filled only when traced);
    ``attempted``/``failed`` count the pass's operations, a wrong output
    counting as failed; ``checks`` names every output check and whether it
    held; ``context`` records the loop model and its rates or sizes.
    """

    e2e: Dict[str, Any] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    context: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> bool:
        """Record a check; a check seen twice must hold both times."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)


# ---------------------------------------------------------------- statistics
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def tail_quantile(count: int) -> float:
    """Highest of p99/p90/p50 that leaves at least ten samples beyond it."""
    for q in (0.99, 0.9):
        if count * (1.0 - q) >= 10:
            return q
    return 0.5


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def digest(payload: Any) -> str:
    """Stable digest of a JSON-able payload (floats by repr, so bit-exact)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------- spans
class Spans:
    """In-memory span recorder: (id, name, start, end, parent, op).

    A span opened inside another on the same thread is its child; ``op``
    groups the spans of one operation (a root span starts a new one).  Spans
    are kept in memory and written out once, when the run ends.
    """

    enabled = True

    def __init__(self) -> None:
        self.records: List[List[Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        record = [
            span_id,
            name,
            time.perf_counter(),
            None,
            None if parent is None else parent[0],
            span_id if parent is None else parent[5],
        ]
        self.records.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            stack.pop()

    def adopt(self, records: Iterable[Sequence[Any]]) -> None:
        """Graft spans recorded by a child process under the current span.

        ``time.perf_counter`` is the system-wide monotonic clock on Linux,
        so child timestamps share this process's time base.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        remap: Dict[int, int] = {}
        for child_id, name, start, end, child_parent, _op in records:
            span_id = next(self._ids)
            remap[child_id] = span_id
            if child_parent is None:
                new_parent = None if parent is None else parent[0]
            else:
                new_parent = remap[child_parent]
            op = span_id if parent is None and child_parent is None else None
            self.records.append([span_id, name, start, end, new_parent, op])
        by_id = {record[0]: record for record in self.records}
        for record in self.records:
            if record[5] is None:
                record[5] = by_id[record[4]][5]

    def self_seconds(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus its children's."""
        child_time: Dict[int, float] = {}
        for record in self.records:
            if record[4] is not None:
                child_time[record[4]] = child_time.get(record[4], 0.0) + (
                    record[3] - record[2]
                )
        out: Dict[str, List[float]] = {}
        for record in self.records:
            own = (record[3] - record[2]) - child_time.get(record[0], 0.0)
            out.setdefault(record[1], []).append(own)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, record)) for record in self.records], handle)


class NoSpans:
    """Tracing off: every span is a shared no-op context."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def adopt(self, records) -> None:
        pass


# ----------------------------------------------------------------- processes
def run_child(args: Sequence[str], env: Dict[str, str], timeout: float) -> Dict[str, Any]:
    """Run a child interpreter that prints one JSON object as its last line."""
    completed = subprocess.run(
        [sys.executable, *args],
        cwd=str(ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"child {args} exited {completed.returncode}: {completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def host_fingerprint() -> Dict[str, Any]:
    """CPU model, cores, interpreter and numpy versions, and the commit."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


class Deadline:
    """Wall-clock budget of one measurement phase."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()

    def expired(self) -> bool:
        return self.left() <= 0.0

