#!/usr/bin/env python3
"""Record peak RSS and wall time of start-up and of each CLI step, for the local and the remote embedder.

`startup` is a fresh `python3 -c "import anchor_rag.cli"`, five repeats,
each timed from start to exit and reading its own peak RSS (`VmHWM`) and
module count after the import. `<workload>_report` is the same for a fresh
process that imports the CLI and runs `report` over the traces of the
workload's first pass. These two read `VmHWM`, not `ru_maxrss`: Linux
starts a child's `ru_maxrss` at the peak of the process that started it,
and this one is at about 35 MB once the generator has loaded numpy.

The four other cases run on inputs that `perfbench/gen.py` generates for
seed 7. Every repeat is a fresh process that runs the case's CLI steps
in-process after one `gc.collect()`, reads `ru_maxrss` before the first
step and after each step, and times each step with `time.perf_counter`:

- `short_docs_full`: `ingest -> build-index -> run -> report` on 300
  HotpotQA records of ten one-chunk paragraphs (3,000 chunks), hashing
  embedder, scripted provider, five repeats.
- `long_docs_standard_rag`: `ingest -> build-index -> run -> report` on a
  500-record MuSiQue JSONL of about 20 MB, hashing embedder, five repeats.
- `remote_gated_c2`: the same four steps with the remote chat and embedding
  clients against `perfbench/stub.py`, with the workload's stub latencies,
  five repeats.
- `remote_build_index_50k`: `build-index` alone, against the same stub, on
  a chunk manifest of about 50k chunks (the `remote_gated_c2` generator with
  794 records of 63 paragraphs), ingested once beforehand; three repeats.

`--embed-latency-ms` sets the stub's latency per `/embeddings` request in
the two remote cases (default: the workload's 20 ms), and `--cases` runs
only the cases named (a workload's `_report` case runs with it).

The medians (`ru_maxrss_mb_median` or `vm_hwm_mb_median`, and
`wall_s_median`) and every sample are stored under `--label` in `runs` of
the output file, next to the runs already there. `--src` picks the source
tree to measure, so two commits can be measured back to back:

    python3 scripts/bench_ingest_rss.py --src /path/to/parent/src --label parent --out BENCH_ingest.json
    python3 scripts/bench_ingest_rss.py --label change --out BENCH_ingest.json
    python3 scripts/bench_ingest_rss.py --cases remote_gated_c2 remote_build_index_50k --embed-latency-ms 200 \
        --label "change, 200 ms" --out BENCH_ingest.json
"""

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

from gen import generate  # noqa: E402
from run import start_stub, stop  # noqa: E402
from workloads import EMBED_DIM, K, WORKLOADS  # noqa: E402

SEED = 7
REPEATS = 5
REPEATS_50K = 3
RECORDS_50K = 794  # 794 records x 63 one-chunk paragraphs = 50,022 chunks
CASES = ("startup", "short_docs_full", "long_docs_standard_rag", "remote_gated_c2", "remote_build_index_50k")


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_pass(steps: dict[str, list[str]]) -> dict:
    """Run the CLI steps in this process: peak RSS in MB before and after
    each step, and each step's wall time in seconds."""
    from anchor_rag import cli

    # As perfbench/worker.py does before each pass: otherwise a gen-2
    # collection due soon after the imports lands in whichever step crosses
    # the threshold, and moves with the code's allocation pattern.
    gc.collect()
    rss, wall = {"start": maxrss_mb()}, {}
    for name, argv in steps.items():
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        wall[name] = time.perf_counter() - started
        if rc != 0:
            raise SystemExit(f"anchor-rag {argv[0]} exited with {rc}")
        rss[name] = maxrss_mb()
    return {"rss": rss, "wall": wall}


def pass_steps(w, inputs: Path, work: Path, endpoint: str | None) -> dict[str, list[str]]:
    """The argv of each step of one pass of workload ``w``, as the benchmark's worker runs it."""
    data = inputs / ("data.jsonl" if w.fmt == "musique" else "data.json")
    embed_flags = ["--embedder", "remote", "--endpoint", endpoint, "--model", "stub-embed"] if w.remote else []
    if w.remote:
        config = {
            "mode": w.mode,
            "confidence_threshold": w.tau,
            "chat_provider": {"kind": "openai", "base_url": endpoint, "model": "stub-chat"},
            "embed_provider": {"kind": "remote", "base_url": endpoint, "model": "stub-embed"},
        }
        (inputs / "run_config.json").write_text(json.dumps(config), encoding="utf-8")
        provider_flags = ["--config", str(inputs / "run_config.json")]
    else:
        provider_flags = ["--provider", "scripted", "--fixtures", str(inputs / "fixtures.jsonl")]
    return {
        "ingest": ["ingest", "--data", str(data), "--format", w.fmt, "--out-dir", str(work),
                   "--sample-n", str(w.sample_n), "--seed", str(SEED)],
        "build-index": ["build-index", "--chunks", str(work / "chunks.jsonl"), "--out", str(work / "index.bin"),
                        *embed_flags],
        "run": ["run", "--questions", str(work / "questions.jsonl"), "--index", str(work / "index.bin"),
                "--chunks", str(work / "chunks.jsonl"), "--out", str(work / "traces.jsonl"), "--mode", w.mode,
                "--k", str(K), "--concurrency", str(w.concurrency), *provider_flags],
        "report": ["report", "--traces", str(work / "traces.jsonl"), "--out-dir", str(work / "report")],
    }


def repeat(steps_for, root: Path, repeats: int, env: dict) -> dict:
    """``repeats`` fresh processes, each running the steps ``steps_for(pass_dir)`` gives."""
    samples = []
    for i in range(repeats):
        work = root / f"pass{i}"
        work.mkdir(parents=True)
        (work / "steps.json").write_text(json.dumps(steps_for(work)), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, __file__, "--pass-dir", str(work)],
            env=env, capture_output=True, text=True, check=True, timeout=900,
        )
        samples.append(json.loads(proc.stdout))
    rss, wall = [s["rss"] for s in samples], [s["wall"] for s in samples]
    return {"ru_maxrss_mb_median": {k: statistics.median(s[k] for s in rss) for k in rss[0]},
            "wall_s_median": {k: round(statistics.median(s[k] for s in wall), 4) for k in wall[0]},
            "ru_maxrss_mb_samples": rss, "wall_s_samples": wall}


# A fresh process's own peak RSS in kB (VmHWM: the high-water mark of the
# memory it has mapped since exec) and module count, printed as it ends.
_USAGE = ("print(next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM:')), "
          "len(sys.modules))")
STARTUP = "import sys, anchor_rag.cli; " + _USAGE
# The CLI's `report` with the arguments given, its tables discarded.
REPORT = ("import contextlib, io, sys, anchor_rag.cli\n"
          "with contextlib.redirect_stdout(io.StringIO()):\n"
          "    rc = anchor_rag.cli.main(['report', *sys.argv[1:]])\n"
          "if rc:\n"
          "    sys.exit(rc)\n" + _USAGE)


def measure_fresh(env: dict, step: str, code: str, *args: str) -> dict:
    """``REPEATS`` fresh processes that run ``code`` with ``args``, each timed
    from start to exit, with the peak RSS and module count ``code`` prints."""
    rss, wall, modules = [], [], []
    for _ in range(REPEATS):
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
        wall.append(time.perf_counter() - started)
        peak, loaded = map(int, proc.stdout.split())
        rss.append({step: peak / 1024.0})
        modules.append(loaded)
    return {"settings": {"repeats": REPEATS, "modules_loaded": modules},
            "vm_hwm_mb_median": {step: statistics.median(s[step] for s in rss)},
            "wall_s_median": {step: round(statistics.median(wall), 4)},
            "vm_hwm_mb_samples": rss, "wall_s_samples": [{step: w} for w in wall]}


def generate_apart(w, inputs: Path) -> dict:
    """``generate`` in a fresh process. Linux carries a process's peak RSS
    over into the ``ru_maxrss`` of every child it starts, so this process
    must stay small for the children's readings to be their own."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(generate, w, SEED, inputs).result()


def measure_workload(w, tmp: Path, env: dict) -> dict:
    inputs = tmp / w.name / "inputs"
    data_mb = Path(generate_apart(w, inputs)["data"]).stat().st_size / 2**20
    stub, endpoint = start_stub(inputs) if w.remote else (None, None)
    try:
        result = repeat(lambda work: pass_steps(w, inputs, work, endpoint), tmp / w.name, REPEATS, env)
    finally:
        if stub is not None:
            stop(stub)
    return {"settings": {"seed": SEED, "repeats": REPEATS, "data_file_mb": round(data_mb, 2)}, **result}


def measure_remote_build_index_50k(w, tmp: Path, env: dict) -> dict:
    w = dataclasses.replace(w, name="remote_build_index_50k", records=RECORDS_50K)
    inputs, ingested = tmp / w.name / "inputs", tmp / w.name / "ingested"
    plan = generate_apart(w, inputs)
    stub, endpoint = start_stub(inputs)
    try:
        ingest = repeat(lambda work: {"ingest": pass_steps(w, inputs, ingested, endpoint)["ingest"]},
                        tmp / w.name / "ingest", 1, env)
        result = repeat(
            lambda work: {"build-index": ["build-index", "--chunks", str(ingested / "chunks.jsonl"),
                                          "--out", str(work / "index.bin"), "--embedder", "remote",
                                          "--endpoint", endpoint, "--model", "stub-embed"]},
            tmp / w.name, REPEATS_50K, env,
        )
    finally:
        stop(stub)
    index_mb = plan["total_chunks"] * EMBED_DIM * 4 / 2**20
    settings = {"seed": SEED, "repeats": REPEATS_50K, "chunks": plan["total_chunks"], "dim": EMBED_DIM,
                "batch_size": 128, "index_vectors_mb": round(index_mb, 2),
                "ingest_ru_maxrss_mb": ingest["ru_maxrss_mb_median"]["ingest"]}
    return {"settings": settings, **result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=str(REPO / "src"), help="source tree holding the anchor_rag package")
    parser.add_argument("--label", default="current", help="key of this run under 'runs' in the output file")
    parser.add_argument("--out", default="BENCH_ingest.json")
    parser.add_argument("--cases", nargs="+", choices=CASES, default=CASES, help="the cases to run (default: all)")
    parser.add_argument("--embed-latency-ms", type=float, default=None,
                        help="the stub's latency per /embeddings request (default: the workload's)")
    parser.add_argument("--pass-dir", default=None, help=argparse.SUPPRESS)  # set in the child process
    args = parser.parse_args()

    if args.pass_dir is not None:
        steps = json.loads((Path(args.pass_dir) / "steps.json").read_text(encoding="utf-8"))
        print(json.dumps(measure_pass(steps)))
        return 0

    sys.path.insert(0, str(Path(args.src).resolve()))  # gen.py reads the prompts of the measured tree
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    workloads = dict(WORKLOADS)
    if args.embed_latency_ms is not None:
        remote = workloads["remote_gated_c2"]
        workloads["remote_gated_c2"] = dataclasses.replace(
            remote, latency_s={**remote.latency_s, "embeddings": args.embed_latency_ms / 1e3})
    cases = {"startup": measure_fresh(env, "import", STARTUP)} if "startup" in args.cases else {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("short_docs_full", "long_docs_standard_rag", "remote_gated_c2"):
            if name not in args.cases:
                continue
            cases[name] = measure_workload(workloads[name], Path(tmp), env)
            work = Path(tmp) / name
            traces = str(work / "pass0" / "traces.jsonl")
            cases[f"{name}_report"] = measure_fresh(env, "report", REPORT, "--traces", traces,
                                                    "--out-dir", str(work / "report"))
        if "remote_build_index_50k" in args.cases:
            cases["remote_build_index_50k"] = measure_remote_build_index_50k(workloads["remote_gated_c2"], Path(tmp), env)

    embed_latency_s = workloads["remote_gated_c2"].latency_s["embeddings"]
    run = {"machine": {"cores": os.cpu_count(), "arch": platform.machine(), "python": platform.python_version()},
           "stub_embed_latency_ms": round(embed_latency_s * 1e3, 3), **cases}
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("runs", {})[args.label] = run
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({args.label: {name: {key: value for key, value in case.items() if key.endswith("_median")}
                                   for name, case in cases.items()}}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
