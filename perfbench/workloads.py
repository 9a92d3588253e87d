"""Workload definitions shared by the generator, the worker and the checks.

Why each workload exists is recorded in BENCHMARK.json and README.md.

Sizes are chosen so that one pass (ingest -> build-index -> run -> report)
takes a few seconds on a 2-core machine, which lets every run repeat the
pass several times and report medians. Every size is fixed per workload;
the seed changes only the text, so the work per pass does not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CHUNK_SIZE = 400
STRIDE = 50
EMBED_DIM = 256
K = 5  # chunks retrieved per query


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str                       # dataset format passed to `ingest --format`
    mode: str                      # pipeline mode passed to `run --mode`
    records: int                   # QA records in the dataset file
    sample_n: int                  # questions sampled by `ingest --sample-n`
    paragraphs_per_record: int
    # Short workloads: every paragraph is unique and has these sentence
    # lengths in words (each sentence also ends with one "." token).
    sentence_words: tuple[int, ...] = ()
    # Long workload: a shared pool of paragraphs whose token counts are
    # spread evenly over [long_tokens_min, long_tokens_max].
    pool_paragraphs: int = 0
    long_tokens_min: int = 0
    long_tokens_max: int = 0
    triples_per_question: int = 0
    concurrency: int = 1
    tau: float | None = None
    remote: bool = False
    # Stub latency per request, in seconds, keyed by stage.
    latency_s: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="short_docs_full",
            fmt="hotpotqa",
            mode="full",
            records=300,
            sample_n=100,
            paragraphs_per_record=10,
            sentence_words=(18, 20, 17, 21),
            triples_per_question=4,
        ),
        Workload(
            name="long_docs_standard_rag",
            fmt="musique",
            mode="standard_rag",
            records=500,
            sample_n=400,
            paragraphs_per_record=2,
            pool_paragraphs=60,
            long_tokens_min=2000,
            long_tokens_max=4000,
        ),
        Workload(
            name="remote_gated_c2",
            fmt="2wiki",
            mode="threshold_gated",
            records=32,
            sample_n=32,
            paragraphs_per_record=63,
            sentence_words=(18, 20, 17, 21),
            triples_per_question=4,
            concurrency=2,
            tau=0.05,
            remote=True,
            latency_s={"system1": 0.040, "triple_gen": 0.080, "system2": 0.160, "embeddings": 0.020},
        ),
    )
}
