#!/usr/bin/env python3
"""Record peak RSS after each CLI step of one long-document pass.

Generates the `long_docs_standard_rag` benchmark inputs for seed 7 with
`perfbench/gen.py` (a 500-record MuSiQue JSONL of about 20 MB). Then, in
each of five fresh processes, runs `ingest -> build-index -> run -> report`
in-process with the arguments the benchmark's worker uses, and reads
`ru_maxrss` before the first step and after each step. The medians over the
five processes are stored under `--label` in `runs` of the output file, next to the
runs already there. `--src` picks the source tree to measure, so two
commits can be measured back to back:

    python3 scripts/bench_ingest_rss.py --src /path/to/parent/src --label parent --out BENCH_ingest.json
    python3 scripts/bench_ingest_rss.py --label change --out BENCH_ingest.json
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

from gen import generate  # noqa: E402
from workloads import K, WORKLOADS  # noqa: E402

WORKLOAD = WORKLOADS["long_docs_standard_rag"]
STEPS = ("ingest", "build-index", "run", "report")
SEED = 7
REPEATS = 5


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_pass(inputs: Path, work: Path) -> dict:
    """Run one pass in this process; peak RSS in MB before and after each step."""
    from anchor_rag import cli

    argv = {
        "ingest": ["ingest", "--data", str(inputs / "data.jsonl"), "--format", WORKLOAD.fmt, "--out-dir", str(work),
                   "--sample-n", str(WORKLOAD.sample_n), "--seed", str(SEED)],
        "build-index": ["build-index", "--chunks", str(work / "chunks.jsonl"), "--out", str(work / "index.bin")],
        "run": ["run", "--questions", str(work / "questions.jsonl"), "--index", str(work / "index.bin"),
                "--chunks", str(work / "chunks.jsonl"), "--out", str(work / "traces.jsonl"), "--mode", WORKLOAD.mode,
                "--k", str(K), "--concurrency", str(WORKLOAD.concurrency), "--provider", "scripted",
                "--fixtures", str(inputs / "fixtures.jsonl")],
        "report": ["report", "--traces", str(work / "traces.jsonl"), "--out-dir", str(work / "report")],
    }
    rss = {"start": maxrss_mb()}
    for step in STEPS:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv[step])
        if rc != 0:
            raise SystemExit(f"anchor-rag {step} exited with {rc}")
        rss[step] = maxrss_mb()
    return rss


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=str(REPO / "src"), help="source tree holding the anchor_rag package")
    parser.add_argument("--label", default="current", help="key of this run under 'runs' in the output file")
    parser.add_argument("--out", default="BENCH_ingest.json")
    parser.add_argument("--pass-dir", default=None, help=argparse.SUPPRESS)  # set in the child process
    args = parser.parse_args()

    if args.pass_dir is not None:
        work = Path(args.pass_dir)
        print(json.dumps(measure_pass(work.parent / "inputs", work)))
        return 0

    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    samples = []
    with tempfile.TemporaryDirectory() as tmp:
        generate(WORKLOAD, SEED, Path(tmp) / "inputs")
        data_mb = (Path(tmp) / "inputs" / "data.jsonl").stat().st_size / 2**20
        for i in range(REPEATS):
            proc = subprocess.run(
                [sys.executable, __file__, "--pass-dir", str(Path(tmp) / f"pass{i}")],
                env=env, capture_output=True, text=True, check=True, timeout=600,
            )
            samples.append(json.loads(proc.stdout))

    run = {
        "machine": {"cores": os.cpu_count(), "arch": platform.machine(), "python": platform.python_version()},
        "settings": {"workload": WORKLOAD.name, "seed": SEED, "repeats": REPEATS,
                     "data_file_mb": round(data_mb, 2)},
        "ru_maxrss_mb_median": {k: statistics.median(s[k] for s in samples) for k in ("start", *STEPS)},
        "ru_maxrss_mb_samples": samples,
    }
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("runs", {})[args.label] = run
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({args.label: run["ru_maxrss_mb_median"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
