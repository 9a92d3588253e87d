#!/usr/bin/env python3
"""Run every pipeline mode over the bundled offline fixtures and print a report.

Uses the scripted chat provider and the deterministic hashing embedder, so it
needs no network or model endpoint. Good for a first look at what a trace
contains and how the modes differ.

    python3 scripts/demo_golden_run.py --out-dir /tmp/anchor_rag_demo
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from anchor_rag import evaluation
from anchor_rag.corpus import Document, build_corpus, read_question_file
from anchor_rag.embed_index import HashingEmbedder, build_index
from anchor_rag.llm_gateway import ScriptedProvider
from anchor_rag.pipeline import Pipeline
from anchor_rag.traces import RunConfig

DATA = REPO / "tests" / "data"


def load_documents(path: Path) -> list[Document]:
    docs = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            docs.append(Document(doc_id=row["doc_id"], title=row["title"], text=row["text"]))
    return docs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo_out", help="where trace files are written")
    parser.add_argument("--fixtures-dir", default=str(DATA), help="directory with the offline fixtures")
    args = parser.parse_args()

    fixtures_dir = Path(args.fixtures_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    docs = load_documents(fixtures_dir / "bannan_docs.jsonl")
    chunks = build_corpus(docs)
    index = build_index(chunks, HashingEmbedder())
    items, _ = read_question_file(fixtures_dir / "questions.jsonl")
    items = [q for q in items if q.question_id == "bannan-conference"]
    provider = ScriptedProvider.from_jsonl(fixtures_dir / "scripted_fixtures.jsonl")

    configs = {
        "full": RunConfig(mode="full"),
        "system1_only": RunConfig(mode="system1_only"),
        "no_initial_reasoning": RunConfig(mode="no_initial_reasoning"),
        "threshold_gated": RunConfig(mode="threshold_gated", confidence_threshold=0.05),
        "standard_rag": RunConfig(mode="standard_rag"),
    }

    runs = {}
    for name, config in configs.items():
        pipe = Pipeline(provider, config, index=index, chunks=chunks)
        traces = pipe.run_dataset(items, trace_path=out_dir / f"{name}.jsonl")
        runs[name], _ = evaluation.summarize_run(config.mode, traces)
        t = traces[0]
        print(f"== {name}")
        print(f"   fast answer : {t.system1_answer!r} (confidence {t.confidence})")
        print(f"   triples     : {[(x.subject, x.predicate, x.object) for x in t.triples]}")
        print(f"   retrieved   : {t.retrieved_chunks}")
        print(f"   final       : {t.final_answer!r}  gate={t.gate_decision}  payload={t.payload_tokens} tokens")
        print()

    print(evaluation.render_score_table(runs))
    print(f"\ntraces written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
