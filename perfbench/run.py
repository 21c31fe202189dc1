"""The benchmark's one command.

    python3 perfbench/run.py --workload serve-ops --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the workload untraced and prints every
end-to-end metric; ``--trace 1`` makes the traced run: spans around the
calls into every layer of every workload, written as Chrome trace-event
JSON under ``.perfbench-traces/``, a per-layer self-time table and
every per-layer metric.  The last stdout line is the JSON result.
Exit status 2 when the program is not in this checkout.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("serve-ops", "bulk-arrays", "paper-regen")

#: End-to-end metrics, reported by every workload (see README for what
#: each means on each workload).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "p50_ms": "ms",
    "cpu_ms_per_op": "ms",
}


def layer_unit(name: str) -> str:
    if name.endswith("_us") or "_us." in name:
        return "us"
    if ".ns_per_elem." in name:
        return "ns"
    if ".peak_mb." in name:
        return "MB"
    if name.startswith("engine.jobs") or name.startswith("engine.cache_hits"):
        return "count"
    return "ms"


def untraced(args) -> dict:
    from perfbench import bulk_arrays, paper_regen, serve_ops

    module = {"serve-ops": serve_ops, "bulk-arrays": bulk_arrays,
              "paper-regen": paper_regen}[args.workload]
    result = module.measure(args.seed, args.seconds)
    result["metrics"] = {
        name: common.metric(result[name], unit)
        for name, unit in END_TO_END.items()
    }
    return result


def traced(args) -> dict:
    """Every layer's numbers, each workload's layers measured once:
    a bulk-arrays round, a paper-regen round, a short serve-ops load plus
    in-process probes.  ``--seconds`` does not apply; the named workload
    goes first."""
    from perfbench import bulk_arrays, paper_regen, serve_ops

    spans = common.Spans()
    t0 = time.perf_counter()
    parts = {
        "serve-ops": lambda: serve_ops.layers(args.seed, spans),
        "bulk-arrays": lambda: bulk_arrays.layers(args.seed, spans),
        "paper-regen": lambda: paper_regen.layers(args.seed, spans),
    }
    order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    results = {}
    for name in order:
        with spans.span(f"workload.{name}"):
            results[name] = parts[name]()
    wall = time.perf_counter() - t0

    path = common.TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
    spans.write_chrome(path)
    print(spans.render_table())
    print(f"chrome trace: {path.relative_to(common.ROOT)}")
    # The spans are the only difference from an untraced run, so their
    # recording cost is the overhead; it is measured, not assumed.
    estimate = len(spans.spans) * common.span_cost_s() / wall
    print(f"tracing overhead against the untraced run: {len(spans.spans)} "
          f"spans cost {estimate * 100:.4f}% of {wall:.1f} s")
    metrics = {}
    for name in order:
        for key, value in results[name]["metrics"].items():
            metrics[key] = common.metric(value, layer_unit(key))
    return {
        "correct": all(not r["mismatches"] for r in results.values()),
        "mismatches": [m for r in results.values() for m in r["mismatches"]],
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.drop_program_env()
    try:
        common.import_program()
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with common.run_dir():
        result = traced(args) if args.trace else untraced(args)
    for problem in result["mismatches"][:20]:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    common.emit(result["correct"], result["attempted"], result["failed"],
                result["metrics"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
