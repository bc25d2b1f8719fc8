"""One fresh interpreter of the ``dse-sweep`` workload.

``python3 perfbench/dse_child.py sweep 200,400,...`` runs the Fig. 12
hardware sweep and the Fig. 14 five-backend batch over the given lengths
against whatever disk cache ``REPRO_SIM_CACHE_DIR`` names, and prints one
JSON line: when the interpreter was ready, the sweep's host time, the
op-table LRU misses, a digest of every result and the peak RSS.

``python3 perfbench/dse_child.py layers 200,400,...`` times the layers under
the sweep one call at a time and prints the spans it recorded.
"""

from __future__ import annotations

import json
import sys
import time

from common import Spans, digest, own_peak_rss_mb
from repro.analysis.dse import hardware_dse
from repro.ppm.config import PPMConfig
from repro.ppm.op_table import (
    get_op_table,
    get_stacked_table,
    workload_cache_info,
)
from repro.sim import DiskCache, SimulationSession, available_backends, create_backend

#: When the interpreter had finished importing, on the system-wide clock.
READY_AT = time.perf_counter()
PRICE_REPEATS = 5
DSE_REPEATS = 3


def sweep(lengths):
    started = time.perf_counter()
    dse = hardware_dse(lengths)
    batch = SimulationSession().simulate_batch(lengths, backends=available_backends())
    elapsed = time.perf_counter() - started
    _, tables = workload_cache_info()
    return {
        "ready_at": READY_AT,
        "sweep_s": elapsed,
        "table_misses": tables.misses,
        "digest": digest(
            [repr(dse), [repr(batch.reports[key]) for key in sorted(batch.reports)]]
        ),
        "peak_rss_mb": own_peak_rss_mb(),
    }


def layers(lengths, cache_dir):
    spans = Spans()
    config = PPMConfig.paper()
    tables = {}
    for n in lengths:
        with spans.span("ppm.op_table.build"):
            tables[n] = get_op_table(config, n)
    with spans.span("ppm.op_table.stack"):
        stack = get_stacked_table(config, lengths)
    cache = DiskCache(cache_dir)
    for n, table in tables.items():
        with spans.span("sim.cache.write"):
            cache.put(f"table-{n}", table)
    for n in tables:
        with spans.span("sim.cache.read"):
            if cache.get(f"table-{n}") is None:
                raise RuntimeError(f"disk cache lost table {n}")
    for name in available_backends():
        backend = create_backend(name, config)
        backend.simulate_stack(stack)
        for _ in range(PRICE_REPEATS):
            with spans.span(f"sim.backend.{name}.price"):
                backend.simulate_stack(stack)
    hardware_dse(lengths)
    for _ in range(DSE_REPEATS):
        with spans.span("sim.sweep.hardware_dse"):
            hardware_dse(lengths)
    return {"spans": spans.records, "peak_rss_mb": own_peak_rss_mb()}


def main(argv) -> int:
    mode, csv = argv[1], argv[2]
    lengths = [int(n) for n in csv.split(",")]
    if mode == "sweep":
        result = sweep(lengths)
    elif mode == "layers":
        result = layers(lengths, argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
