"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --workload compute-2d --seeds 1-10 --seconds 20

Runs ``run.py`` once per workload and seed, one run at a time, from the
repository root (all three workloads unless ``--workload`` names some), and
prints for every workload the ops attempted and failed, and for every metric
its unit, median, first and third quartile and their distance as a share of
the median (Python's ``statistics.quantiles(values, n=4)``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite-fast", "compute-2d", "compute-nd")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(workload: str, runs: list[dict]) -> None:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
          f"attempted {attempted}, failed {failed}, failed shares {shares}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  "
              f"[{runs[0]['metrics'][name]['unit']}]")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(json.dumps({"seed": seed, **result}), file=sys.stderr, flush=True)
        summarize(workload, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
