"""CI smoke entry: tiny ``simulate_batch`` over registry and hardware specs.

Run as ``PYTHONPATH=src python -m repro.sim.smoke``.  Prices a batch of
registered backends and a small hardware grid on a tiny configuration in one
process, and asserts that every stacked total equals pricing its point alone
in a fresh session (stacked ≡ per-length parity) before exiting 0.
"""

from __future__ import annotations

import sys
import tempfile

from ..hardware.config import LightNobelConfig
from ..ppm.config import PPMConfig
from .cache import sandbox_cache_dir
from .session import SimulationSession


def main() -> int:
    config = PPMConfig.tiny()
    lengths = (24, 48)

    # Sandbox every cache write in one throwaway directory, exactly as the
    # test suite's conftest does.  Without this the sessions below would
    # write cache state into the CI runner's workspace/home.
    with tempfile.TemporaryDirectory(prefix="repro-sim-smoke-") as cache_dir:
        with sandbox_cache_dir(cache_dir):
            session = SimulationSession(ppm_config=config, cache_dir=cache_dir)
            batch = session.simulate_batch(lengths, backends=["lightnobel", "h100", "h100-chunk"])
            for name in batch.backends:
                totals = ", ".join(f"{t * 1e3:.3f} ms" for t in batch.totals(name))
                print(f"simulate_batch[{name}]: {totals}")
            print(f"session stats: {session.stats()}")

            specs = [LightNobelConfig(num_rmpus=rmpus) for rmpus in (8, 32)]
            grid = session.simulate_batch(lengths, backends=specs)
            for spec, name in zip(specs, grid.backends):
                for n in lengths:
                    stacked = grid.report(name, n).total_seconds
                    alone = SimulationSession(
                        ppm_config=config, backends=(), use_disk_cache=False
                    ).simulate(n, backend=spec)
                    print(f"grid[rmpus={spec.num_rmpus}, n={n}]: {stacked * 1e3:.3f} ms")
                    if stacked != alone.total_seconds:
                        print("FAIL: stacked grid diverged from per-point pricing", file=sys.stderr)
                        return 1
    print("smoke ok: batch + hardware grid in one process + sandboxed disk cache")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
