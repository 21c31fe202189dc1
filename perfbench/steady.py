"""Steadiness check: run one workload k times, each with another seed,
and print each metric's median, quartiles, IQR/median and max/min.

    python3 perfbench/steady.py --workload bulk-arrays --runs 10 --seconds 25

IQR/median is the spread the benchmark's bounds are held against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)

    values: dict = {}
    units: dict = {}
    failed = []
    for k in range(args.runs):
        seed = args.first_seed + k
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr[-3000:], file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        for line in lines:
            if line.startswith(("raw:", "reference figure:")):
                print(f"  seed {seed} {line}")
        result = json.loads(lines[-1])
        failed.append((result["failed"], result["attempted"]))
        line = [f"seed {seed}: correct={result['correct']}"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            line.append(f"{name}={m['value']:.6g}")
        print(" ".join(line), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s, "
          f"failed/attempted {sorted(set(failed))}")
    print(f"{'metric':<34} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'max/min':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:<34} {units[name]:>6} {med:>12.6g} {q1:>12.6g} "
              f"{q3:>12.6g} {(q3 - q1) / med:>8.3f} "
              f"{max(vals) / min(vals):>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
