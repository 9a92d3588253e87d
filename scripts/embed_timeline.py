#!/usr/bin/env python3
"""Per-batch timeline of a remote embed of one corpus against the benchmark stub.

Generates the ``remote_gated_c2`` inputs for ``--seed``, ingests them,
starts ``perfbench/stub.py`` with the workload's latencies (the embedding
latency set by ``--embed-latency-ms``) and embeds every chunk text with
``RemoteEmbedder.embed_batch`` ``--repeats`` times, each in a fresh
process. Each batch's request (``HttpClient.post_bytes``, on whichever
thread posts it) and decode (``HttpClient.json_object`` to the end of
``_decode_embeddings``, on the calling thread) are timed, and per repeat:

- ``wall_ms``: the whole ``embed_batch`` call;
- ``decode_ms``: the decodes summed, and ``decode_limit_ms``, the first
  batch's request plus every decode: the wall time of a loop that never
  waits for a reply after the first;
- ``period_ms``: the median time between the ends of successive decodes;
- ``in_flight``: the mean number of requests at the endpoint during the
  decodes after the first;
- ``wait_ms``: the calling thread's time outside decodes after the first.

    python3 scripts/embed_timeline.py --src /path/to/parent/src --label parent --out BENCH_ingest.json
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))


def timeline(endpoint: str, chunks: Path) -> dict:
    """Embed every text of ``chunks`` once, timing each request and decode."""
    from anchor_rag import embed_index, llm_gateway
    from anchor_rag.corpus import read_chunk_texts

    _, texts = read_chunk_texts(chunks)
    posts, decodes = [], []
    post_bytes, json_object = llm_gateway.HttpClient.post_bytes, llm_gateway.HttpClient.json_object
    decode = embed_index._decode_embeddings

    def timed_post(self, path, payload):
        started = time.perf_counter()
        try:
            return post_bytes(self, path, payload)
        finally:
            posts.append((started, time.perf_counter()))

    def timed_json(self, path, raw):
        decodes.append([time.perf_counter()])
        return json_object(self, path, raw)

    def timed_decode(body, n):
        try:
            return decode(body, n)
        finally:
            decodes[-1].append(time.perf_counter())

    llm_gateway.HttpClient.post_bytes, llm_gateway.HttpClient.json_object = timed_post, timed_json
    embed_index._decode_embeddings = timed_decode
    provider = embed_index.RemoteEmbedder(base_url=endpoint, model="stub-embed", batch_size=128)
    started = time.perf_counter()
    provider.embed_batch(texts)
    wall = time.perf_counter() - started
    later = decodes[1:]
    busy = sum(end - begin for begin, end in later)
    overlap = sum(max(0.0, min(end, sent_end) - max(begin, sent))
                  for begin, end in later for sent, sent_end in posts)
    ends = [end for _, end in decodes]
    return {"texts": len(texts), "batches": len(decodes), "wall_ms": wall * 1e3,
            "decode_ms": sum(end - begin for begin, end in decodes) * 1e3,
            "decode_limit_ms": (posts[0][1] - started + sum(end - begin for begin, end in decodes)) * 1e3,
            "period_ms": statistics.median(b - a for a, b in zip(ends, ends[1:])) * 1e3,
            "in_flight": overlap / busy,
            "wait_ms": (ends[-1] - decodes[0][1] - busy) * 1e3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=str(REPO / "src"), help="source tree holding the anchor_rag package")
    parser.add_argument("--label", default="current", help="key of this series under 'embed_timeline' in the output file")
    parser.add_argument("--out", default="BENCH_ingest.json")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--embed-latency-ms", type=float, default=20.0, help="the stub's latency per /embeddings request")
    parser.add_argument("--one", nargs=2, metavar=("ENDPOINT", "CHUNKS"), help=argparse.SUPPRESS)  # in the child
    args = parser.parse_args()
    if args.one:
        print(json.dumps(timeline(*args.one)))
        return 0

    src = str(Path(args.src).resolve())
    sys.path.insert(0, src)  # gen.py reads the prompts of the measured tree
    from gen import generate
    from run import STEADY_ENV, start_stub, stop
    from workloads import WORKLOADS

    base = WORKLOADS["remote_gated_c2"]
    w = dataclasses.replace(base, latency_s={**base.latency_s, "embeddings": args.embed_latency_ms / 1e3})
    env = dict(os.environ, PYTHONPATH=src, **STEADY_ENV)
    with tempfile.TemporaryDirectory() as tmp:
        inputs, work = Path(tmp) / "inputs", Path(tmp) / "work"
        generate(w, args.seed, inputs)
        from anchor_rag import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["ingest", "--data", str(inputs / "data.json"), "--format", w.fmt, "--out-dir", str(work),
                      "--sample-n", str(w.sample_n), "--seed", str(args.seed)])
        stub, endpoint = start_stub(inputs)
        try:
            samples = [json.loads(subprocess.run(
                [sys.executable, __file__, "--one", endpoint, str(work / "chunks.jsonl")],
                env=env, capture_output=True, text=True, check=True, timeout=600,
            ).stdout) for _ in range(args.repeats)]
        finally:
            stop(stub)
    medians = {key: round(statistics.median(s[key] for s in samples), 2) for key in samples[0]}
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("embed_timeline", {})[args.label] = {"seed": args.seed, "embed_latency_ms": args.embed_latency_ms,
                                                       "cores": os.cpu_count(), "median": medians, "samples": samples}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({args.label: medians}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
