"""Workload ``dse-sweep``: the Fig. 12 hardware sweep plus the Fig. 14 batch.

Each repetition runs the same sweep twice, each time in a fresh interpreter:

* **cold**: the disk cache directory is new and empty, so every operator
  table is built and written to disk;
* **disk-warm**: a second interpreter over that directory reads it back.

A fresh interpreter per run is what makes "cold" cold: an in-process second
sweep keeps tables alive in the sweep's per-process sessions and the op-table
LRU.  The lengths are a seeded draw of distinct lengths from the CAMEO/CASP
catalogues, a fixed number of them above 1,000 residues, so every seed does
comparable work.  ``main_ms`` and ``second_ms`` are the mean cold and
disk-warm sweep of the run (see ``common``).
"""

from __future__ import annotations

import random
import shutil
import time
from pathlib import Path
from typing import Dict, List

from common import WORK, Deadline, NoSpans, Outcome, child_env, mean, median, run_child
from repro.proteins import build_all_catalogs

SHORT_LENGTHS = 18
LONG_LENGTHS = 6
LONG_THRESHOLD = 1000
#: Sampled targets per catalogue: enough that every seed has at least
#: ``LONG_LENGTHS`` distinct lengths above the threshold.
CATALOGUE_SIZE = 48
CHILD_TIMEOUT_S = 120.0
#: The registered backends priced by the Fig. 14 batch.
BACKENDS = ("a100", "a100-chunk", "h100", "h100-chunk", "lightnobel")
#: Repetitions kept even when the time budget runs out first.
MIN_REPEATS = 3

LAYERS = {
    "ppm.op_table.build_ms": "main_ms on dse-sweep; setup_s on serve-http-warm",
    "ppm.op_table.stack_ms": "main_ms on dse-sweep; setup_s on serve-http-warm",
    "ppm.op_table.cache_misses": "main_ms on dse-sweep",
    **{
        f"sim.backend.{name}.price_us_per_length": "second_ms on dse-sweep, main_ms less"
        for name in BACKENDS
    },
    "sim.sweep.hardware_dse_s": "second_ms on dse-sweep, main_ms less",
    "sim.cache.read_ms": "second_ms on dse-sweep",
    "sim.cache.write_ms": "main_ms on dse-sweep",
}


def draw_lengths(seed: int) -> List[int]:
    """Distinct catalogue lengths: ``SHORT_LENGTHS`` short, ``LONG_LENGTHS`` long."""
    catalogs = build_all_catalogs(count=CATALOGUE_SIZE, seed=seed).values()
    pool = sorted({n for catalog in catalogs for n in catalog.lengths()})
    short = [n for n in pool if n <= LONG_THRESHOLD]
    long = [n for n in pool if n > LONG_THRESHOLD]
    rng = random.Random(seed)
    return sorted(rng.sample(short, SHORT_LENGTHS) + rng.sample(long, LONG_LENGTHS))


def _sweep(csv: str, cache: Path) -> Dict:
    spawned = time.perf_counter()
    result = run_child(
        ["perfbench/dse_child.py", "sweep", csv],
        child_env(REPRO_SIM_CACHE_DIR=str(cache)),
        CHILD_TIMEOUT_S,
    )
    result["setup_s"] = result["ready_at"] - spawned
    return result


def _cache_files(cache: Path) -> Dict[str, float]:
    return {path.name: path.stat().st_mtime_ns for path in cache.glob("*.pkl")}


def run(seed: int, seconds: float, spans=NoSpans(), probe: bool = False) -> Outcome:
    """Cold then disk-warm sweeps in fresh interpreters until time runs out."""
    outcome = Outcome()
    lengths = draw_lengths(seed)
    csv = ",".join(str(n) for n in lengths)
    deadline = Deadline(seconds)
    root = WORK / f"dse-{seed}-{time.time_ns()}"
    cold, warm = [], []
    try:
        repeat = 0
        while repeat < (1 if probe else MIN_REPEATS) or not (probe or deadline.expired()):
            cache = root / f"cache-{repeat}"
            cache.mkdir(parents=True)
            with spans.span("dse.cold"):
                first = _sweep(csv, cache)
            written = _cache_files(cache)
            with spans.span("dse.disk_warm"):
                second = _sweep(csv, cache)
            outcome.attempted += 2
            checks = {
                "cold_built_one_table_per_length": first["table_misses"] == len(lengths),
                "cold_wrote_one_table_file_per_length": sum(
                    name.startswith("table-") for name in written
                )
                == len(lengths),
                "disk_warm_built_no_table": second["table_misses"] == 0,
                "disk_warm_wrote_nothing": _cache_files(cache) == written,
                "cold_equals_disk_warm": first["digest"] == second["digest"],
                "repeats_identical": first["digest"] == (cold[0] if cold else first)["digest"],
            }
            for name, ok in checks.items():
                outcome.check(name, ok)
            if not all(checks.values()):
                outcome.failed += 2
            cold.append(first)
            warm.append(second)
            shutil.rmtree(cache)
            repeat += 1

        if spans.enabled:
            cache = root / "layers"
            cache.mkdir(parents=True)
            with spans.span("dse.layers"):
                result = run_child(
                    ["perfbench/dse_child.py", "layers", csv, str(cache)],
                    child_env(),
                    CHILD_TIMEOUT_S,
                )
                spans.adopt(result["spans"])
    finally:
        shutil.rmtree(root, ignore_errors=True)

    outcome.e2e["main_ms"] = (mean([r["sweep_s"] for r in cold]) * 1e3, len(cold))
    outcome.e2e["second_ms"] = (mean([r["sweep_s"] for r in warm]) * 1e3, len(warm))
    setups = [r["setup_s"] for r in cold + warm]
    outcome.e2e["setup_s"] = (median(setups), len(setups))
    outcome.e2e["peak_rss_mb"] = (max(r["peak_rss_mb"] for r in cold + warm), len(setups))
    outcome.context = {
        "loop": "closed, one sweep at a time, each in a fresh interpreter",
        "lengths": lengths,
        "cold_ms_each": [round(r["sweep_s"] * 1e3, 1) for r in cold],
        "disk_warm_ms_each": [round(r["sweep_s"] * 1e3, 1) for r in warm],
    }

    if spans.enabled:
        own = spans.self_seconds()
        layers = {
            "ppm.op_table.build_ms": median(own["ppm.op_table.build"]) * 1e3,
            "ppm.op_table.stack_ms": median(own["ppm.op_table.stack"]) * 1e3,
            "ppm.op_table.cache_misses": median([r["table_misses"] for r in cold]),
            "sim.sweep.hardware_dse_s": median(own["sim.sweep.hardware_dse"]),
            "sim.cache.read_ms": median(own["sim.cache.read"]) * 1e3,
            "sim.cache.write_ms": median(own["sim.cache.write"]) * 1e3,
        }
        for name in BACKENDS:
            layers[f"sim.backend.{name}.price_us_per_length"] = (
                median(own[f"sim.backend.{name}.price"]) * 1e6 / len(lengths)
            )
        outcome.layers.update(layers)
    return outcome
