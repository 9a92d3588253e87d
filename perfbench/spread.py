#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload, runs ``run.py`` once per seed and prints, per metric,
the median of the per-run values and the spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median. With ``--out`` the medians are written as a baseline file.

    python3 perfbench/spread.py --workloads short_docs_full --seeds 1 2 3 4 5 --seconds 25
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None, help="write medians and spreads here as JSON")
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seconds": args.seconds, "seeds": args.seeds, "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed\n{proc.stdout}{proc.stderr}", file=sys.stderr)
                return 1
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"median": statistics.median(values), "spread": spread(values),
                             "unit": first["unit"], "values": values}
            bound = bounds.get(name)
            note = f" (bound {bound}, target < {bound / 3:.3f})" if bound is not None and args.trace == 0 else ""
            print(f"{workload} {name}: median {metrics[name]['median']:.5g} {first['unit']}, "
                  f"spread {metrics[name]['spread']:.3%}{note}", flush=True)
        summary["workloads"][workload] = metrics
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
