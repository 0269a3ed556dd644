"""Run one workload over several seeds and report the spread of each metric.

Usage (from the repository root):

    python3 perfbench/repeat.py --workload sweep_dim --runs 10 --first-seed 100 \
        --seconds 30 [--out perfbench/results/sweep_dim_a.jsonl]

Runs ``perfbench/run.py`` once per seed, one after another, keeps the last
line of each run (and writes them to ``--out`` as JSON lines), and prints,
per metric, the median and the distance between the first and third
quartiles as a share of the median (``statistics.quantiles(values, n=4)``),
plus the share of failed sub-operations, which must be the same in every
run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text("".join(json.dumps(r) + "\n" for r in results))

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{args.workload}: {len(results)} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, all correct: {all(r['correct'] for r in results)}, "
          f"failed shares: {shares}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"  {name:45s} median {median:12.6g} {first['unit']:6s} "
              f"IQR/median {spread:7.4f}  min {min(values):.6g}  max {max(values):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
