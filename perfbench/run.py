"""The repository benchmark: one command, checked outputs, host-time metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dse-sweep --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``dse-sweep`` (``dse.py``): the Fig. 12 + Fig. 14 sweep, cold and
  disk-warm, each in a fresh interpreter;
* ``cluster-plan`` (``cluster.py``): a capacity-plan grid plus a faulty
  closed-loop replay of a 10k-request diurnal trace;
* ``serve-http-warm`` (``serve.py``): open-loop HTTP traffic on a warm
  paper-config server in its own process.  It is not listed in
  ``BENCHMARK.json``: on a shared 2-core host its latencies and its
  sustainable rate spread by 16-30% between runs, more than any bound the
  benchmark may set.  Its layers are still measured by every traced run,
  and it can be run by hand.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the chosen workload in alternating untraced and traced
passes (the relative difference of their ``main_ms`` is the tracing
overhead), then runs the other workloads in a short probe form, records
spans around every layer call, writes them to ``.perfbench/`` and reports
the per-layer metrics, each beside the end-to-end metric it should move.
Every metric is host time or host memory; simulated latencies are outputs
the workloads check for bit-identity, never speeds.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output check held, 1 when one failed and 2 when the checkout lacks the
program under test.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, WORK, NoSpans, Outcome, Spans, host_fingerprint  # noqa: E402

#: Seconds each other workload's probe form gets in a traced run.
PROBE_SECONDS = 2.0
#: Alternating untraced/traced passes of the chosen workload in a traced run.
OVERHEAD_ROUNDS = 3

#: What each end-to-end metric means on each workload.  Every workload
#: reports every metric, so the names are shared and the meaning is per
#: workload.
MEANING = {
    "serve-http-warm": {
        "main_ms": "p50 client latency at the nominal rate (serve_p50_ms)",
        "second_ms": "p50 client latency at the loaded rate",
        "setup_s": "server start plus pricing every key",
        "peak_rss_mb": "peak RSS of the server process",
    },
    "dse-sweep": {
        "main_ms": "mean cold sweep, empty disk cache (dse_cold_s)",
        "second_ms": "mean disk-warm sweep (dse_disk_warm_s)",
        "setup_s": "fresh interpreter start and imports",
        "peak_rss_mb": "peak RSS of a sweep interpreter",
    },
    "cluster-plan": {
        "main_ms": "mean plan_capacity grid (plan_s)",
        "second_ms": "mean faulty closed-loop replay (faulty_replay_s)",
        "setup_s": "trace generation plus service-time prefetch",
        "peak_rss_mb": "peak RSS of the benchmark process",
    },
}


def _modules():
    import cluster
    import dse
    import serve

    return {"serve-http-warm": serve, "dse-sweep": dse, "cluster-plan": cluster}


def _merge(into: Outcome, other: Outcome) -> None:
    into.attempted += other.attempted
    into.failed += other.failed
    for name, ok in other.checks.items():
        into.check(name, ok)
    into.layers.update(other.layers)


def _declared():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(MEANING))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    e2e_units, layer_units = _declared()
    modules = _modules()
    module = modules[args.workload]

    context = {"host": host_fingerprint(), "workload": args.workload, "seed": args.seed}
    if not args.trace:
        outcome = module.run(args.seed, args.seconds)
        metrics = {name: outcome.e2e[name] for name in e2e_units}
        context["workload_context"] = outcome.context
        print(f"context {json.dumps(context, sort_keys=True)}")
        print(f"{'metric':<16}{'value':>14}  {'unit':<6}{'samples':>8}  meaning")
        for name, (value, samples) in metrics.items():
            meaning = MEANING[args.workload][name]
            print(f"{name:<16}{value:>14.6g}  {e2e_units[name]:<6}{samples:>8}  {meaning}")
        values = {name: value for name, (value, _samples) in metrics.items()}
        units = e2e_units
    else:
        spans = Spans()
        outcome = Outcome()
        main_ms = {False: [], True: []}
        for round_ in range(OVERHEAD_ROUNDS):
            # Alternate which pass goes first, so order effects cancel.
            for traced in (False, True) if round_ % 2 == 0 else (True, False):
                part = module.run(
                    args.seed,
                    args.seconds / (2 * OVERHEAD_ROUNDS),
                    spans if traced else NoSpans(),
                )
                main_ms[traced].append(part.e2e["main_ms"][0])
                _merge(outcome, part)
                outcome.context = part.context
        for other in modules.values():
            if other is not module:
                _merge(outcome, other.run(args.seed, PROBE_SECONDS, spans, probe=True))
        outcome.layers["trace.overhead_pct"] = 100.0 * (
            sum(main_ms[True]) / sum(main_ms[False]) - 1.0
        )
        span_file = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write(span_file)
        context["workload_context"] = outcome.context
        context["spans"] = str(span_file.relative_to(ROOT))
        print(f"context {json.dumps(context, sort_keys=True)}")
        predicted = {"trace.overhead_pct": f"main_ms on {args.workload}"}
        for other in modules.values():
            predicted.update(other.LAYERS)
        if set(predicted) != set(layer_units):
            raise RuntimeError(
                f"layer metrics differ from BENCHMARK.json: {set(predicted) ^ set(layer_units)}"
            )
        print(f"{'layer metric':<44}{'value':>14}  {'unit':<6}  should move")
        for name, unit in layer_units.items():
            print(f"{name:<44}{outcome.layers[name]:>14.6g}  {unit:<6}  {predicted[name]}")
        values = {name: outcome.layers[name] for name in layer_units}
        units = layer_units

    correct = outcome.failed == 0 and all(outcome.checks.values())
    for name, ok in sorted(outcome.checks.items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
