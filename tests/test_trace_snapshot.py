"""Trace snapshot: every mode over three questions, on the happy path and on
each error path a question can take, compared line by line with a committed
trace file.

``stage_ms`` values are wall-clock times, so they are blanked (the keys
stay: which stages were timed is part of the trace). Everything else,
key order included, must match ``tests/data/trace_snapshot.jsonl``.

Regenerate the snapshot (only when a trace change is intended) with

    PYTHONPATH=src python3 tests/test_trace_snapshot.py
"""

import json
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np

from anchor_rag import pipeline as pipeline_module
from anchor_rag.corpus import Document, QAItem, build_corpus, read_question_file
from anchor_rag.embed_index import EmbedIndexError, HashingEmbedder, Index, build_index
from anchor_rag.llm_gateway import ScriptedProvider
from anchor_rag.pipeline import MODES, Pipeline, RunConfig, read_trace_file
from anchor_rag.prompt_kit import PromptParseError

DATA = Path(__file__).parent / "data"
SNAPSHOT = DATA / "trace_snapshot.jsonl"

# A third question whose fast answer is unsure, so the gate sends it on.
GATE_LOW = QAItem(
    question_id="gate-low",
    question="Which conference is Justin Bannan's college team in now?",
    gold_answer="Pac-12 Conference",
    dataset_tag="2wiki",
)
GATE_LOW_FIXTURES = [
    ("system1", "<answer>Colorado</answer>", [["<answer>", -0.001], ["Colorado", -4.0], ["</answer>", -0.001]]),
    ("triple_gen", "<triple>Justin_Bannan | played_for | Colorado Buffaloes</triple>", None),
    ("system2", "<final_answer>Pac-12 Conference</final_answer>", None),
    ("system2_noanchor", "<final_answer>Pac-12</final_answer>", None),
    ("standard_rag", "<answer>Pac-12</answer>", None),
]


class DownEmbedder:
    """Stands in for the index's embedder and fails every call."""

    def __init__(self, like):
        self.provider_id = like.provider_id
        self.dim = like.dim

    def embed_batch(self, texts):
        raise EmbedIndexError("embedder down")


def _fixture_rows():
    rows = [json.loads(line) for line in (DATA / "scripted_fixtures.jsonl").read_text(encoding="utf-8").splitlines()]
    rows += [
        {"stage_tag": stage, "question_id": GATE_LOW.question_id, "text": text, "token_logprobs": lp}
        for stage, text, lp in GATE_LOW_FIXTURES
    ]
    return rows


def _provider(rows):
    provider = ScriptedProvider()
    for row in rows:
        provider.add(row["stage_tag"], row["question_id"], row["text"], row["token_logprobs"])
    return provider


def _raise_parse_error(text):
    raise PromptParseError("no final answer text found")


def _with_texts(rows, texts):
    """The rows, with the reply of each stage named in ``texts`` replaced by
    the text given there (and no log-probabilities)."""
    return [dict(r, text=texts[r["stage_tag"]], token_logprobs=None) if r["stage_tag"] in texts else r for r in rows]


def _cases(index, down_index):
    """(name, fixture rows, index, concurrency, parse_final stand-in or None)
    for every snapshot case."""
    rows = _fixture_rows()
    yield "fixtures", rows, index, 1, None
    yield "fixtures_c2", rows, index, 2, None
    for stage in ("system1", "triple_gen", "system2", "system2_noanchor", "standard_rag"):
        yield f"missing_{stage}", [r for r in rows if r["stage_tag"] != stage], index, 1, None
    yield "empty_triples", _with_texts(rows, {"triple_gen": "<output>no triples here</output>"}), index, 1, None
    malformed = {
        "system1": "Colorado Buffaloes",
        "triple_gen": "<triple>broken</triple><triple>Justin_Bannan | played_for | Colorado</triple>",
        "system2": "The team is in the\nPac-12 Conference",
        "system2_noanchor": "Pac-12",
        "standard_rag": "<output>Big 12 Conference</output>",
    }
    yield "malformed", _with_texts(rows, malformed), index, 1, None
    unparsable = {"system1": "<answer> </answer>", "standard_rag": "<answer></answer>"}
    yield "unparsable", _with_texts(rows, unparsable), index, 1, None
    yield "embed_error", rows, down_index, 1, None
    yield "system2_parse_error", rows, index, 1, _raise_parse_error


def _blank_timing(row):
    if "stage_ms" in row:
        row["stage_ms"] = {stage: None for stage in row["stage_ms"]}
    return row


def snapshot_lines(work_dir):
    """Run every case in every mode and return the trace-file lines, each
    tagged with its case and with ``stage_ms`` values blanked."""
    doc_lines = (DATA / "bannan_docs.jsonl").read_text(encoding="utf-8").splitlines()
    chunks = build_corpus([Document(**json.loads(line)) for line in doc_lines])
    index = build_index(chunks, HashingEmbedder())
    vectors = np.stack([index.vector(cid) for cid in index.ids])
    down_index = Index(index.ids, vectors, DownEmbedder(index.provider))
    golden, _ = read_question_file(DATA / "questions.jsonl")
    items = [*golden, GATE_LOW]

    lines = []
    for name, rows, case_index, concurrency, parse_final in _cases(index, down_index):
        for mode in MODES:
            tau = 0.05 if mode == "threshold_gated" else None
            config = RunConfig(mode=mode, confidence_threshold=tau, concurrency=concurrency)
            pipe = Pipeline(_provider(rows), config, index=case_index, chunks=chunks)
            path = Path(work_dir) / f"{name}.{mode}.jsonl"
            patch = mock.patch.object(pipeline_module, "parse_final", parse_final) if parse_final else nullcontext()
            with patch:
                pipe.run_dataset(items, trace_path=path)
            raw = path.read_text(encoding="utf-8").splitlines()
            _, loaded = read_trace_file(path)
            assert [json.loads(line) for line in raw[1:]] == [t.to_json_dict() for t in loaded], (
                f"{name}/{mode}: a trace does not survive a write/read round trip"
            )
            for line in raw:
                row = _blank_timing(json.loads(line))
                lines.append(json.dumps({"case": f"{name}/{mode}", **row}, ensure_ascii=False))
    return lines


def test_traces_match_snapshot(tmp_path):
    expected = SNAPSHOT.read_text(encoding="utf-8").splitlines()
    got = snapshot_lines(tmp_path)
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        SNAPSHOT.write_text("\n".join(snapshot_lines(tmp)) + "\n", encoding="utf-8")
    print(f"wrote {SNAPSHOT}", file=sys.stderr)
