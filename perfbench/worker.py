"""Runs the anchor-rag CLI steps in-process and times them.

One pass is ``ingest -> build-index -> run -> report`` into a fresh
directory. Passes repeat while the next one would still end within
``seconds`` (and at least MIN_PASSES run, so medians exist). With ``trace`` set, passes alternate
between untraced and traced, and each traced pass yields per-layer
numbers from the spans. The process is started fresh for each benchmark
run, so its peak RSS belongs to that run alone.

    python3 perfbench/worker.py --spec spec.json --out result.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402
from stub import fetch_stats  # noqa: E402
from workloads import K, WORKLOADS  # noqa: E402

from anchor_rag import cli  # noqa: E402

MIN_PASSES = 3


class StepFailed(RuntimeError):
    pass


def stub_stats(endpoint: str | None) -> dict | None:
    return fetch_stats(endpoint) if endpoint else None


def stub_delta(before: dict | None, after: dict | None) -> dict | None:
    if before is None or after is None:
        return None
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = {k: v - before[key].get(k, 0) for k, v in value.items()}
        else:
            out[key] = value - before[key]
    return out


def step(argv: list[str]) -> float:
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    elapsed = time.perf_counter() - started
    if rc != 0:
        raise StepFailed(f"anchor-rag {argv[0]} exited with {rc}")
    return elapsed


def run_pass(spec: dict, pdir: Path, tracer: tracing.Tracer | None) -> dict:
    w = WORKLOADS[spec["workload"]]
    inputs = Path(spec["inputs"])
    endpoint = spec.get("endpoint")
    chunks, index, traces = pdir / "chunks.jsonl", pdir / "index.bin", pdir / "traces.jsonl"
    embed_flags = ["--embedder", "remote", "--endpoint", endpoint, "--model", "stub-embed"] if w.remote else []
    if w.remote:
        provider_flags = ["--config", str(inputs / "run_config.json")]
    else:
        provider_flags = ["--provider", "scripted", "--fixtures", str(inputs / "fixtures.jsonl")]

    if tracer is not None:
        tracing.install(tracer)
    try:
        pass_before = stub_stats(endpoint)
        ingest_s = step(["ingest", "--data", spec["data"], "--format", w.fmt, "--out-dir", str(pdir),
                         "--sample-n", str(w.sample_n), "--seed", str(spec["seed"])])
        build_s = step(["build-index", "--chunks", str(chunks), "--out", str(index), *embed_flags])
        run_before = stub_stats(endpoint)
        run_s = step(["run", "--questions", str(pdir / "questions.jsonl"), "--index", str(index),
                      "--chunks", str(chunks), "--out", str(traces), "--mode", w.mode, "--k", str(K),
                      "--concurrency", str(w.concurrency), *provider_flags])
        run_after = stub_stats(endpoint)
        report_s = step(["report", "--traces", str(traces), "--out-dir", str(pdir / "report")])
        pass_after = stub_stats(endpoint)
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "dir": str(pdir),
        "traced": tracer is not None,
        "ingest_s": ingest_s,
        "build_s": build_s,
        "setup_s": ingest_s + build_s,
        "run_s": run_s,
        "report_s": report_s,
        "total_s": ingest_s + build_s + run_s + report_s,
        "stub_run": stub_delta(run_before, run_after),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, stub_delta(pass_before, pass_after))
        tracer.write(pdir / "spans.jsonl")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    work = Path(spec["work"])
    passes: list[dict] = []
    started = time.perf_counter()

    def done() -> bool:
        # Stop when the next pass (or pair, when tracing) would end past
        # `seconds`, once there are enough passes for a median.
        if spec["trace"]:
            if len(passes) % 2:
                return False
            needed, last = 2, sum(p["total_s"] for p in passes[-2:])
        else:
            needed, last = MIN_PASSES, passes[-1]["total_s"] if passes else 0.0
        return len(passes) >= needed and time.perf_counter() - started + last > spec["seconds"]

    try:
        while not done():
            traced = bool(spec["trace"]) and len(passes) % 2 == 1
            gc.collect()  # start every pass from the same heap state, outside the timed steps
            passes.append(run_pass(spec, work / f"pass{len(passes)}", tracing.Tracer() if traced else None))
    except StepFailed as exc:
        result = {"error": str(exc), "passes": passes}
    except Exception:  # noqa: BLE001 - any crash of the program under test is a result to report
        result = {"error": traceback.format_exc(), "passes": passes}
    else:
        result = {"passes": passes}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
