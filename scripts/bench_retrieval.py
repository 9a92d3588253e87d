#!/usr/bin/env python3
"""Time the retrieval layer on its own and record the numbers in a JSON file.

Timings, each a median over repeated calls after a warm-up:

- ``Index.search`` (embed one query, score, select the top k) over N random
  unit vectors of dimension 256, for each N in ``--sizes`` (533 and 3,000
  are the index sizes of the ``long_docs_standard_rag`` and
  ``short_docs_full`` benchmark workloads), next to the bytes of the arrays
  the index holds;
- ``standard_rag``'s retrieval of one block of questions over the same
  index, per question: one ``embed`` call and one ``Index._top_k`` call for
  max(1, 2**15 // N) questions, as ``Pipeline.run_dataset`` blocks them,
  divided by the block's size;
- ``retrieve_for_queries`` with 4 queries (one question's triples) over the
  same index;
- the triple modes' retrieval of one block of questions, per question: one
  ``embed`` call and one ``Index._top_k`` call for max(1, 2**15 // N)
  questions of 4 queries each, as ``Pipeline.run_dataset`` blocks them,
  divided by the block's size;
- ``HashingEmbedder.embed_batch`` per chunk, for chunks of 80 and 400 tokens,
  and of one build-sized batch of 3,000 80-token chunks (the chunk count of
  the ``short_docs_full`` benchmark workload);
- the tokenizer: ``count`` over a standard-RAG prompt (the question and k
  retrieved 400-token chunks, system and user text, as the scripted
  provider counts it) and ``chunk_document`` of a 3,000-token document into
  400/50 windows; once over ASCII text and once (``tokenizer_unicode``, from
  its own seeded generator) over accented names, curly quotes, em dashes
  and one CJK title.

Queries are short strings of random words embedded by the hashing embedder,
so search times include embedding the query. Each run is stored under
``--label`` in ``runs`` of the output file, next to the runs already there,
so numbers from two commits can sit side by side. ``--src`` picks the
source tree to time, so a parent tree and a change tree can be timed in
alternating back-to-back processes:

    python3 scripts/bench_retrieval.py --src /path/to/parent/src --label parent --out BENCH_retrieval.json
    python3 scripts/bench_retrieval.py --label change --out BENCH_retrieval.json
"""

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent


def src_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--src", default=str(REPO / "src"), help="source tree holding the anchor_rag package")


# --src is read before anchor_rag is imported; main parses it again with the rest.
_pre = argparse.ArgumentParser(add_help=False)
src_option(_pre)
sys.path.insert(0, str(Path(_pre.parse_known_args()[0].src).resolve()))

from anchor_rag.corpus import DEFAULT_TOKENIZER, Document, QAItem, chunk_document  # noqa: E402
from anchor_rag.embed_index import HashingEmbedder, Index, embed, retrieve_for_queries  # noqa: E402
from anchor_rag.prompt_kit import render_standard_rag  # noqa: E402

DIM = 256
K = 5
SEED = 0
QUERIES_PER_QUESTION = 4
CHUNK_TOKENS = (80, 400)
DOCUMENT_TOKENS = 3000
TOKENIZER_REPEATS = 200
# Questions per retrieval block: 2**15 // N, as in Pipeline.run_dataset.
QUESTION_BLOCK_SCORES = 1 << 15
BUILD_CHUNK_TOKENS = 80
BUILD_TEXTS = 3000
WORDS = (
    "river stone castle meadow falcon ember harbor lantern cedar summit violet marble thunder quill "
    "anchor breeze canyon dune ivory jasper kestrel lagoon mosaic nectar orchid prairie quartz russet "
    "saffron tundra university football conference stadium plays_for born_in capital_of married_to"
).split()
ASCII_PUNCTUATION = ",.;()'-"
# Accented names, curly quotes and em dashes, as in the titles and text of the
# Wikipedia passages the QA datasets draw on.
UNICODE_WORDS = (
    "Zoë Ångström Dvořák Łódź São_Paulo Müller Čapek Ibáñez Øresund Šibenik naïve café façade Brontë Pérez "
    "Gödel Ærø Kraków Ñuñoa Yıldız river stone castle university football conference stadium born_in"
).split()
UNICODE_PUNCTUATION = ("\u201c", "\u201d", "\u2019", "\u2014", "\u2013", ",", ".", "(", ")")
UNICODE_TITLES = ["Zoë Dvořák", "Łódź Kaliska", "東京大学", "Ibáñez — Pérez", "“Øresund” Bridge"]


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "arch": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def summary(samples_ms: list[float]) -> dict:
    """Median, plus p75 once there are at least ten samples above it."""
    out = {"median_ms": statistics.median(samples_ms), "samples": len(samples_ms)}
    if len(samples_ms) >= 40:
        out["p75_ms"] = float(np.percentile(samples_ms, 75))
    return out


def timed_ms(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return (time.perf_counter() - start) * 1000.0


def random_unit_rows(n: int, rng: np.random.Generator, block: int = 10_000) -> np.ndarray:
    rows = rng.standard_normal((n, DIM), dtype=np.float32)
    for i in range(0, n, block):
        part = rows[i : i + block]
        part /= np.linalg.norm(part, axis=1, keepdims=True)
    return rows


def bench_index(n: int, queries: list[str]) -> dict:
    provider = HashingEmbedder(dim=DIM)
    rows = random_unit_rows(n, np.random.default_rng(SEED))
    index = Index([f"c{i:07d}" for i in range(n)], rows, provider)
    del rows
    held = sum(v.nbytes for v in vars(index).values() if isinstance(v, np.ndarray))
    for q in queries[:2]:
        index.search(q, k=K)
    search = [timed_ms(index.search, q, k=K) for q in queries]
    size = max(1, QUESTION_BLOCK_SCORES // n)
    blocks = [[queries[(i * size + j) % len(queries)] for j in range(size)] for i in range(len(queries))]

    def retrieve_block(questions: list[str]) -> None:
        index._top_k(embed(questions, provider), K)

    retrieve_block(blocks[0])
    per_question = [timed_ms(retrieve_block, b) / size for b in blocks]
    groups = [queries[i : i + QUERIES_PER_QUESTION] for i in range(0, len(queries), QUERIES_PER_QUESTION)]
    groups = [g for g in groups if len(g) == QUERIES_PER_QUESTION]
    retrieve = [timed_ms(retrieve_for_queries, index, g, k_per_query=K) for g in groups]
    texts = size * QUERIES_PER_QUESTION
    triple_blocks = [[queries[(i * texts + j) % len(queries)] for j in range(texts)] for i in range(len(groups))]
    retrieve_block(triple_blocks[0])
    per_triple_question = [timed_ms(retrieve_block, b) / size for b in triple_blocks]
    return {
        "matrix_bytes": held,
        "search": summary(search),
        "standard_rag_block_per_question": {"questions": size, **summary(per_question)},
        "retrieve_4_queries": summary(retrieve),
        "triple_block_per_question": {"questions": size, "queries": texts, **summary(per_triple_question)},
    }


def bench_embed(tokens: int, texts: int, repeats: int, rng: random.Random) -> dict:
    provider = HashingEmbedder(dim=DIM)
    batch = [" ".join(rng.choices(WORDS, k=tokens)) for _ in range(texts)]
    provider.embed_batch(batch[:2])
    per_chunk = [timed_ms(provider.embed_batch, batch) / texts for _ in range(repeats)]
    return summary(per_chunk)


def bench_embed_build_batch(repeats: int, rng: random.Random) -> dict:
    provider = HashingEmbedder(dim=DIM)
    batch = [" ".join(rng.choices(WORDS, k=BUILD_CHUNK_TOKENS)) for _ in range(BUILD_TEXTS)]
    provider.embed_batch(batch[:2])
    return {
        "texts": BUILD_TEXTS,
        "tokens_per_text": BUILD_CHUNK_TOKENS,
        **summary([timed_ms(provider.embed_batch, batch) for _ in range(repeats)]),
    }


def prose(tokens: int, rng: random.Random, words=WORDS, punctuation=ASCII_PUNCTUATION) -> str:
    """Words with punctuation between some of them, ``tokens`` tokens long."""
    out: list[str] = []
    while len(out) < tokens:
        out.append(rng.choice(words))
        if len(out) < tokens and rng.random() < 0.2:
            out.append(rng.choice(punctuation))
    return " ".join(out)


def bench_tokenizer(rng: random.Random, titles: list[str], **text) -> dict:
    def count_prompt(prompt) -> int:
        return DEFAULT_TOKENIZER.count(prompt.system_text) + DEFAULT_TOKENIZER.count(prompt.user_text)

    docs = [Document(doc_id=f"d{i}", title=t, text=prose(400, rng, **text)) for i, t in enumerate(titles)]
    chunks = [c for d in docs for c in chunk_document(d)]
    question = QAItem(question_id="q", question=prose(16, rng, **text), gold_answer="x")
    prompt = render_standard_rag(question, chunks)
    document = Document(doc_id="long", title="Long", text=prose(DOCUMENT_TOKENS, rng, **text))
    count_prompt(prompt)
    chunk_document(document)
    return {
        "count_standard_rag_prompt": {
            "tokens": count_prompt(prompt),
            **summary([timed_ms(count_prompt, prompt) for _ in range(TOKENIZER_REPEATS)]),
        },
        "chunk_document": {
            "tokens": DOCUMENT_TOKENS,
            "chunks": len(chunk_document(document)),
            **summary([timed_ms(chunk_document, document) for _ in range(TOKENIZER_REPEATS)]),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    src_option(parser)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[533, 3_000, 10_000, 50_000, 200_000], help="index rows"
    )
    parser.add_argument("--queries", type=int, default=40, help="timed searches per size")
    parser.add_argument("--embed-texts", type=int, default=200, help="chunks per timed embedding batch")
    parser.add_argument("--embed-repeats", type=int, default=9, help="timed embedding batches per chunk length")
    parser.add_argument("--label", default="current", help="key of this run under 'runs' in the output file")
    parser.add_argument("--out", default="BENCH_retrieval.json")
    args = parser.parse_args()

    rng = random.Random(SEED)
    queries = [" ".join(rng.choices(WORDS, k=rng.randint(3, 8))) for _ in range(args.queries)]
    run = {
        "machine": machine(),
        "settings": {"dim": DIM, "k": K, "queries_per_question": QUERIES_PER_QUESTION, "seed": SEED},
        "index": {str(n): bench_index(n, queries) for n in args.sizes},
        "hashing_embed_per_chunk": {
            f"{t}_tokens": bench_embed(t, args.embed_texts, args.embed_repeats, rng) for t in CHUNK_TOKENS
        },
        "hashing_embed_build_batch": bench_embed_build_batch(args.embed_repeats, random.Random(SEED)),
        "tokenizer": bench_tokenizer(rng, [f"Title {i}" for i in range(K)]),
        "tokenizer_unicode": bench_tokenizer(
            random.Random(SEED), UNICODE_TITLES, words=UNICODE_WORDS, punctuation=UNICODE_PUNCTUATION
        ),
    }

    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("runs", {})[args.label] = run
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({args.label: run}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
