"""Run one workload over several seeds and print each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload stream_shard --seeds 1 2 3 4 5

For every end-to-end metric it prints the median, the distance between
the first and third quartile as a share of the median, and the bound
from ``BENCHMARK.json``; a spread above a third of its bound is marked.
Runs execute one after another, never concurrently.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()
        ), flush=True)
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        flag = (" <-- above a third of the bound"
                if spread > bounds[name] / 3 else "")
        print(f"{name:18s} median {median:12.5g}  spread {spread:7.2%}  "
              f"bound {bounds[name]:.0%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
