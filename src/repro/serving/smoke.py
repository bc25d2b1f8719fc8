"""CI smoke entry: a concurrent batch through an in-process ``LatencyService``.

Run as ``PYTHONPATH=src python -m repro.serving.smoke``.  Submits a small
batch with duplicates through a service, asserts coalescing happened,
and checks the served numbers against a direct
:class:`~repro.sim.session.SimulationSession` before exiting 0 — the serving
sibling of :mod:`repro.sim.smoke`.

``--bucketed`` exercises shape-bucketed admission instead: a service with a
finite ``length_bucket_size`` drains a multi-length batch,
the smoke asserts stacked batches actually ran, and every served number is
checked against a direct session (stacked ≡ per-length parity).
"""

from __future__ import annotations

import sys
import tempfile

from ..hardware.config import LightNobelConfig
from ..ppm.config import PPMConfig
from ..sim.cache import sandbox_cache_dir
from ..sim.session import SimulationSession
from .api import LatencyRequest
from .service import LatencyService


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--bucketed" in argv:
        return bucketed_main()
    config = PPMConfig.tiny()
    requests = [
        LatencyRequest(backend=spec, sequence_length=n)
        for spec in ("lightnobel", "h100", "h100-chunk", LightNobelConfig(num_rmpus=8))
        for n in (24, 48)
    ]
    # Duplicate the whole batch: the copies must coalesce, not re-simulate.
    requests = requests + requests

    with tempfile.TemporaryDirectory(prefix="repro-serving-smoke-") as cache_dir:
        # Sandbox every cache write in the throwaway directory, as the test
        # suite's conftest does: the env var covers the reference session in
        # _run, which would otherwise write into the CI runner's
        # workspace/home.
        with sandbox_cache_dir(cache_dir):
            return _run(config, requests, cache_dir)


def _run(config: PPMConfig, requests, cache_dir: str) -> int:
    # Stage the whole batch before starting the dispatcher so every
    # duplicate is deterministically in-flight together — otherwise a
    # fast dispatcher could fulfill a key before its duplicate arrives
    # (a memo hit, not coalescing) and flake the assertion below.
    service = LatencyService(ppm_config=config, cache_dir=cache_dir, autostart=False)
    tickets = service.submit_batch(requests)
    with service:
        responses = [service.result(t, timeout=120.0) for t in tickets]
        report = service.capacity_report()

    reference = SimulationSession(ppm_config=config)
    for response in responses:
        response.raise_for_error()
        direct = reference.simulate(
            response.request.sequence_length, backend=response.request.backend
        )
        if response.report.total_seconds != direct.total_seconds:
            print(
                f"FAIL: served {response.request} diverged from direct session",
                file=sys.stderr,
            )
            return 1
        print(
            f"serve[{response.report.backend}, n={response.request.sequence_length}]"
            f" {response.report.total_seconds * 1e3:.3f} ms"
            f" (coalesced={response.coalesced},"
            f" service={response.service_seconds * 1e3:.1f} ms)"
        )

    unique = len({(r.backend if isinstance(r.backend, str) else "cfg", r.sequence_length) for r in requests})
    print(
        f"capacity: {report.completed} served, {report.coalesced} coalesced, "
        f"{report.simulations} simulations, hit_rate={report.hit_rate:.2f}, "
        f"{report.queries_per_second:.0f} q/s sustained"
    )
    if report.coalesced < len(requests) - unique:
        print("FAIL: duplicate in-flight requests did not coalesce", file=sys.stderr)
        return 1
    if report.errors:
        print("FAIL: service reported errors", file=sys.stderr)
        return 1
    print("smoke ok: LatencyService batch + coalescing + parity")
    return 0


def bucketed_main() -> int:
    """Smoke shape-bucketed admission: stacked batches + exact parity."""
    config = PPMConfig.tiny()
    lengths = (24, 32, 40, 48, 56, 64)
    requests = [
        LatencyRequest(backend=spec, sequence_length=n)
        for spec in ("lightnobel", "h100", "a100-chunk")
        for n in lengths
    ]
    with tempfile.TemporaryDirectory(prefix="repro-serving-smoke-") as cache_dir:
        with sandbox_cache_dir(cache_dir):
            # Stage everything before the dispatcher starts so one drained
            # batch sees every length of each backend (buckets of 32 split
            # the six lengths into two stacks per backend).
            service = LatencyService(
                ppm_config=config,
                use_disk_cache=False,
                autostart=False,
                length_bucket_size=32,
            )
            tickets = service.submit_batch(requests)
            with service:
                responses = [service.result(t, timeout=120.0) for t in tickets]
                report = service.capacity_report()

            reference = SimulationSession(ppm_config=config, use_disk_cache=False)
            for response in responses:
                response.raise_for_error()
                direct = reference.simulate(
                    response.request.sequence_length, backend=response.request.backend
                )
                if response.report.total_seconds != direct.total_seconds:
                    print(
                        f"FAIL: bucketed {response.request} diverged from direct session",
                        file=sys.stderr,
                    )
                    return 1
    print(
        f"bucketed: {report.completed} served, {report.stacked_batches} stacked "
        f"batches covering {report.stacked_points} points, "
        f"{report.simulations} simulations"
    )
    if report.stacked_batches == 0 or report.stacked_points < len(lengths):
        print("FAIL: shape-bucketed path did not run stacked batches", file=sys.stderr)
        return 1
    if report.errors:
        print("FAIL: service reported errors", file=sys.stderr)
        return 1
    print("smoke ok: shape-bucketed LatencyService batch + stacked parity")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
