#!/usr/bin/env python3
"""Run the benchmark on two trees in alternated pairs and record the series.

    python3 scripts/bench_pairs.py --base HEAD~1 --change . --seeds 4101 4102 4103 \\
        --seconds 30 --workload all --claim long_docs_standard_rag.run_qps

``--base`` (the parent) and ``--change`` each name a git revision of this
repository or a directory. Each is exported into its own scratch directory:
a revision by ``git archive``, a directory by copying its files without
``.git``, caches or benchmark work directories. The benchmark code of the
two exports (``BENCHMARK.json`` and ``perfbench/``) must be identical.

For each seed, ``perfbench/run.py --trace 0`` runs once from each export,
the order swapped every pair. The series is appended to ``--out``
(``BENCH_e2e.json``) as one entry of ``comparisons``, in the schema of the
entries already there, with its ``method`` text written here. Per metric,
``summary`` holds each side's median and quartiles, the change's
difference in percent, the pairs it won and lost, a verdict and whether
its median is inside the metric's bound:

- Quartiles are ``statistics.quantiles(values, n=4)``, whose default is the
  exclusive method; with one pair both quartiles are its value.
- The verdict is "better" or "worse" when at least ``MIN_PAIRS`` pairs ran,
  the change won (or lost) at least nine tenths of them, ties counting for
  neither, and the medians differ by more than the parent's interquartile
  range. Otherwise it is "not resolved".
- ``inside_bound``: the change's median is not worse than the parent's by
  more than the metric's ``BENCHMARK.json`` bound.

Before the runs start, the metrics whose parent interquartile range in the
last recorded series already exceeds their bound are printed: at that
spread they resolve only if nearly every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
SIDES = ("parent", "change")
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".perfbench_work", ".pytest_cache", ".hypothesis")


def export(spec: str, dest: Path) -> str:
    """Put the tree ``spec`` names under ``dest``; return how it was named."""
    if Path(spec).is_dir():
        shutil.copytree(spec, dest, ignore=COPY_IGNORE)
        return f"directory {Path(spec).resolve().name}"
    commit = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--short", f"{spec}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", commit], capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return f"commit {commit}"


def same_benchmark(a: Path, b: Path) -> bool:
    if not filecmp.cmp(a / "BENCHMARK.json", b / "BENCHMARK.json", shallow=False):
        return False
    names = sorted(p.name for p in (a / "perfbench").glob("*.py"))
    if names != sorted(p.name for p in (b / "perfbench").glob("*.py")):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a / "perfbench", b / "perfbench", names, shallow=False)
    return not mismatch and not errors


def run_side(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run from ``tree``: correct, failed and the
    end-to-end metrics, keyed ``workload.metric`` and rounded to 4 places."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench/run.py failed in {tree} (seed {seed}):\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    prefix = "" if workload == "all" else f"{workload}."
    metrics = {f"{prefix}{k}": round(m["value"], 4) for k, m in sorted(result["metrics"].items())}
    return {"correct": result["correct"], "failed": result["failed"], "metrics": metrics}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(pairs: list[dict], metrics: dict[str, dict]) -> dict[str, dict]:
    """The ``summary`` of a series from its ``pairs``. ``metrics`` maps each
    end-to-end metric name to its BENCHMARK.json entry."""
    out = {}
    for key in sorted(pairs[0]["parent"]["metrics"]):
        spec = metrics[key.rsplit(".", 1)[-1]]
        higher = spec["better"] == "higher"
        parent = [p["parent"]["metrics"][key] for p in pairs]
        change = [p["change"]["metrics"][key] for p in pairs]
        pm, cm = statistics.median(parent), statistics.median(change)
        (pq1, pq3), (cq1, cq3) = quartiles(parent), quartiles(change)
        better = sum(c > p if higher else c < p for p, c in zip(parent, change))
        worse = sum(c < p if higher else c > p for p, c in zip(parent, change))
        apart = abs(cm - pm) > pq3 - pq1
        verdict = "not resolved"
        if len(pairs) >= MIN_PAIRS and apart:
            if 10 * better >= 9 * len(pairs) and (cm > pm) == higher:
                verdict = "better"
            elif 10 * worse >= 9 * len(pairs) and (cm < pm) == higher:
                verdict = "worse"
        inside = cm >= pm * (1 - spec["bound"]) if higher else cm <= pm * (1 + spec["bound"])
        out[key] = {
            "parent_median": round(pm, 4), "parent_q1": round(pq1, 4), "parent_q3": round(pq3, 4),
            "change_median": round(cm, 4), "change_q1": round(cq1, 4), "change_q3": round(cq3, 4),
            "change_pct": round(100.0 * (cm - pm) / pm, 1),
            "pairs_better": better, "pairs_worse": worse, "verdict": verdict, "inside_bound": inside,
        }
    return out


def wide_metrics(comparisons: list[dict], metrics: dict[str, dict], workloads: list[str]) -> tuple[str, list[str]]:
    """The label of the last recorded series, and the lines naming each of
    its metrics (on ``workloads``) whose parent IQR exceeds the bound."""
    recorded = [c for c in comparisons if "summary" in c]
    if not recorded:
        return "", []
    lines = []
    for key, s in sorted(recorded[-1]["summary"].items()):
        workload, _, name = key.rpartition(".")
        if workload in workloads and name in metrics and s["parent_median"]:
            spread = (s["parent_q3"] - s["parent_q1"]) / abs(s["parent_median"])
            if spread > metrics[name]["bound"]:
                lines.append(f"  {key}: parent IQR {spread:.1%} of the median, bound {metrics[name]['bound']:.0%}")
    return recorded[-1]["label"], lines


def seed_text(seeds: list[int]) -> str:
    if len(seeds) > 2 and seeds == list(range(seeds[0], seeds[-1] + 1)):
        return f"seeds {seeds[0]}-{seeds[-1]}"
    return "seeds " + ", ".join(map(str, seeds))


def method_text(seeds: list[int], names: dict[str, str], claim: str | None, direction: str) -> str:
    claimed = f"Claimed beforehand: {claim} {direction}." if claim else "No gain claimed."
    return (
        f"written by scripts/bench_pairs.py: parent ({names['parent']}) and change ({names['change']}) run "
        f"alternately (order swapped every pair), one pair per seed, {seed_text(seeds)}; each side from its own "
        f"export of the tree; a metric is 'better' or 'worse' when at least {MIN_PAIRS} pairs ran, at least 9 of "
        "every 10 pairs agree (ties count for neither) and the medians differ by more than the parent's "
        "interquartile range (q3 - q1, statistics.quantiles n=4, exclusive method), otherwise 'not resolved'; "
        "inside_bound: the change's median is not worse than the parent's by more than the BENCHMARK.json bound. "
        + claimed
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="the parent: a git revision or a directory")
    parser.add_argument("--change", required=True, help="the change: a git revision or a directory")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    parser.add_argument("--seconds", type=int, required=True, help="run length of each benchmark run")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--claim", metavar="METRIC", default=None,
                        help="the metric claimed to improve, as workload.metric")
    parser.add_argument("--label", default=None, help="label of the recorded series")
    parser.add_argument("--out", default=str(REPO / "BENCH_e2e.json"))
    args = parser.parse_args()

    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"comparisons": []}
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: scratch / side for side in SIDES}
        names = {"parent": export(args.base, trees["parent"]), "change": export(args.change, trees["change"])}
        if not same_benchmark(trees["parent"], trees["change"]):
            print("error: the two trees differ in BENCHMARK.json or perfbench/", file=sys.stderr)
            return 1
        bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {m["name"]: m for m in bench["end_to_end"]}
        workloads = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
        direction = ""
        if args.claim:
            workload, _, name = args.claim.rpartition(".")
            if workload not in workloads or name not in metrics:
                print(f"error: --claim must be workload.metric of a run workload, got {args.claim!r}", file=sys.stderr)
                return 1
            direction = metrics[name]["better"]
        label, wide = wide_metrics(doc["comparisons"], metrics, workloads)
        if wide:
            print(f"parent IQR wider than the bound in the last recorded series ({label}):")
            print("\n".join(wide), flush=True)
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = list(SIDES) if i % 2 == 0 else list(reversed(SIDES))
            pair: dict = {"seed": seed, "order": order}
            for side in order:
                pair[side] = run_side(trees[side], args.workload, seed, args.seconds)
            pairs.append(pair)
            print(f"seed {seed} ({' then '.join(order)}): " + ", ".join(
                f"{k} {pair['parent']['metrics'][k]:.5g} -> {v:.5g}" for k, v in pair["change"]["metrics"].items()
            ), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = summarise(pairs, metrics)
    for key, s in summary.items():
        print(f"{key}: {s['parent_median']:.5g} [{s['parent_q1']:.5g}, {s['parent_q3']:.5g}] -> "
              f"{s['change_median']:.5g} [{s['change_q1']:.5g}, {s['change_q3']:.5g}] ({s['change_pct']:+.1f}%), "
              f"better in {s['pairs_better']} of {len(pairs)}, {s['verdict']}, "
              f"{'inside' if s['inside_bound'] else 'OUTSIDE'} its bound")
    notes = ""
    if args.claim:
        verdict = summary[args.claim]["verdict"]
        notes = f"Claim {'met' if verdict == 'better' else 'not met'}: {args.claim} reads '{verdict}'."
        print(notes)
    doc["comparisons"].append({
        "label": args.label or f"{names['change']} against {names['parent']}",
        "command": (f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                    f"--seconds {args.seconds} --trace 0"),
        "machine": {"cores": os.cpu_count(), "arch": platform.machine(), "python": platform.python_version(),
                    "numpy": version("numpy")},
        "method": method_text(args.seeds, names, args.claim, direction),
        "all_correct_zero_failed": all(p[s]["correct"] and p[s]["failed"] == 0 for p in pairs for s in SIDES),
        "notes": notes,
        "summary": summary,
        "pairs": pairs,
    })
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
