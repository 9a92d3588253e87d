#!/usr/bin/env python3
"""The anchor-rag benchmark: drives the real CLI over seeded inputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload short_docs_full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run generates its inputs from the seed, starts the loopback stub when
the workload needs one, runs the CLI passes in a fresh worker process,
checks every pass's outputs, and prints one ``name: value unit`` line per
metric followed by one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORKER_TIMEOUT_S = 150
STUB_START_TIMEOUT_S = 30

# On 2 cores a second BLAS thread spins against the pipeline threads and the
# stub, and its pool start-up adds ~0.5 s to the first search of a process;
# both made run times noisy, so worker and stub use one BLAS thread. A fixed
# hash seed gives every run of a seed the same dict and set layouts.
STEADY_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def start_stub(inputs: Path) -> tuple[subprocess.Popen, str]:
    port_file = inputs / "stub.port"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), "--table", str(inputs / "stub_table.json"), "--port-file", str(port_file)],
        stdout=subprocess.DEVNULL, env=dict(os.environ, **STEADY_ENV),
    )
    deadline = time.monotonic() + STUB_START_TIMEOUT_S
    while not port_file.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            stop(proc)
            raise RuntimeError("stub did not start")
        time.sleep(0.05)
    return proc, f"http://127.0.0.1:{port_file.read_text().strip()}/v1"


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def model_efficiency(w, p: dict) -> float:
    """Ideal run time (injected stub latency / concurrency) over the measured run time."""
    if not w.remote or not p["stub_run"]:
        return 0.0
    ideal = sum(n * w.latency_s[stage] for stage, n in p["stub_run"]["requests"].items()) / w.concurrency
    return ideal / p["run_s"]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from gen import generate
    from stub import fetch_stats
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = work / "inputs"
        plan = generate(w, seed, inputs)
        stub, endpoint, stub_stats = None, None, None
        try:
            if w.remote:
                stub, endpoint = start_stub(inputs)
                config = {
                    "mode": w.mode,
                    "confidence_threshold": w.tau,
                    "chat_provider": {"kind": "openai", "base_url": endpoint, "model": "stub-chat"},
                    "embed_provider": {"kind": "remote", "base_url": endpoint, "model": "stub-embed"},
                }
                (inputs / "run_config.json").write_text(json.dumps(config), encoding="utf-8")
            result = run_worker(w, seed, seconds, trace, work, plan["data"], endpoint)
            if stub is not None:
                stub_stats = fetch_stats(endpoint)
        finally:
            if stub is not None:
                stop(stub)
        return summarise(w, seed, trace, plan, result, stub_stats)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_worker(w, seed: int, seconds: int, trace: bool, work: Path, data: str, endpoint: str | None) -> dict:
    spec = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace), "inputs": str(work / "inputs"),
            "data": data, "work": str(work), "endpoint": endpoint}
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
               **STEADY_ENV)
    out = work / "result.json"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--spec", str(work / "spec.json"), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker did not finish within {WORKER_TIMEOUT_S} s", "passes": []}
    if out.exists():
        return json.loads(out.read_text(encoding="utf-8"))
    return {"error": proc.stderr[-2000:] or f"worker exited with {proc.returncode}", "passes": []}


def summarise(w, seed: int, trace: bool, plan: dict, result: dict, stub_stats: dict | None) -> dict:
    from checks import PassChecker

    checker = PassChecker(w, plan, seed)
    attempted, failed, problems = 0, 0, []
    for p in result["passes"]:
        n, bad, issues = checker.check(Path(p["dir"]))
        attempted, failed = attempted + n, failed + len(bad)
        problems += issues
    if stub_stats and (stub_stats["misses"] or stub_stats["errors"]):
        problems.append(f"stub saw {stub_stats['misses']} unknown embedding texts and {stub_stats['errors']} unknown requests")
    if "error" in result:
        problems.append(result["error"].strip().splitlines()[-1] if result["error"].strip() else "worker failed")
        attempted += w.sample_n
        failed += w.sample_n

    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    values: dict[str, float] = {}
    extra: dict[str, tuple[float, str]] = {}
    if "error" not in result and untraced:
        run_s = statistics.median(p["run_s"] for p in untraced)
        efficiency = statistics.median(model_efficiency(w, p) for p in untraced)
        if trace:
            traced = [p for p in passes if p["traced"]]
            values = {key: statistics.median(p["layers"][key] for p in traced) for key in traced[0]["layers"]}
            values["pipeline.model_efficiency"] = efficiency
            values["trace.overhead_s"] = statistics.median(p["run_s"] for p in traced) - run_s
        else:
            values = {
                "setup_s": statistics.median(p["setup_s"] for p in untraced),
                "run_qps": w.sample_n / run_s,
                "total_s": statistics.median(p["total_s"] for p in untraced),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            if w.remote:
                extra["model_efficiency"] = (efficiency, "ratio")
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed} if values else {}
    extra["question_error_rate"] = (failed / attempted if attempted else 1.0, "ratio")
    extra["passes"] = (len(passes), "count")
    return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "extra": extra, "problems": problems}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "anchor_rag" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        return fail(f"no anchor_rag sources or BENCHMARK.json under {ROOT}; run from the root of an anchor-rag checkout")
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import anchor_rag
    from workloads import WORKLOADS

    if Path(anchor_rag.__file__).resolve().parent != (SRC / "anchor_rag").resolve():
        return fail(f"imported anchor_rag from {anchor_rag.__file__}, not from {SRC}")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")

    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    for n, r in results.items():
        for key, m in r["metrics"].items():
            print(f"{n} {key}: {m['value']:.6g} {m['unit']}")
        for key, (value, unit) in r["extra"].items():
            print(f"{n} {key}: {value:.6g} {unit}")
        for problem in r["problems"]:
            print(f"{n} check failed: {problem}")
    if len(results) == 1:
        r = results[names[0]]
        metrics = r["metrics"]
    else:
        r = {"correct": all(x["correct"] for x in results.values()),
             "attempted": sum(x["attempted"] for x in results.values()),
             "failed": sum(x["failed"] for x in results.values())}
        metrics = {f"{n}.{k}": m for n, x in results.items() for k, m in x["metrics"].items()}
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
