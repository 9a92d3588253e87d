"""Trace and report snapshots: every mode over three questions, on the happy
path and on each error path a question can take, compared line by line with
committed files.

``stage_ms`` values are wall-clock times, so they are blanked (the keys
stay: which stages were timed is part of the trace). Everything else,
key order included, must match ``tests/data/trace_snapshot.jsonl``.

For each case, ``report``, ``eval`` and ``transitions`` then run over its
five mode files. Their exit codes, stdout and stderr and every file
``report`` and ``eval --out`` write must match
``tests/data/report_snapshot.jsonl`` byte for byte, with the work
directory written as ``<work>``.

Regenerate both snapshots (only when a trace or report change is intended)
with

    PYTHONPATH=src python3 tests/test_trace_snapshot.py
"""

import io
import json
import sys
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from anchor_rag import pipeline as pipeline_module
from anchor_rag.cli import main as cli_main
from anchor_rag.corpus import Document, QAItem, build_corpus, read_question_file
from anchor_rag.embed_index import EmbedIndexError, HashingEmbedder, Index, build_index
from anchor_rag.llm_gateway import ScriptedProvider
from anchor_rag.pipeline import Pipeline
from anchor_rag.prompt_kit import PromptParseError
from anchor_rag.traces import MODES, RunConfig, read_trace_file

DATA = Path(__file__).parent / "data"
SNAPSHOT = DATA / "trace_snapshot.jsonl"
REPORT_SNAPSHOT = DATA / "report_snapshot.jsonl"

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


def _case_names():
    return [name for name, *_ in _cases(None, None)]


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


def _cli(work_dir, *argv):
    """Run one CLI command in-process: its exit code, stdout and stderr, with
    the work directory written as ``<work>``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli_main([str(a) for a in argv])
    work = str(work_dir)
    return {"exit": rc, "stdout": out.getvalue().replace(work, "<work>"), "stderr": err.getvalue().replace(work, "<work>")}


def _file(work_dir, path):
    return {"file": Path(path).read_text(encoding="utf-8").replace(str(work_dir), "<work>")}


def report_lines(work_dir):
    """Run ``report``, ``eval`` and ``transitions`` over the trace files that
    :func:`snapshot_lines` wrote into ``work_dir`` and return one line per
    output, tagged with its case and command."""
    work = Path(work_dir)
    outputs = []
    for name in _case_names():
        files = [work / f"{name}.{mode}.jsonl" for mode in MODES]
        report_dir = work / f"{name}.report"
        outputs.append((name, "report", _cli(work, "report", "--traces", *files, "--out-dir", report_dir)))
        for path in sorted(report_dir.iterdir()):
            outputs.append((name, f"report/{path.name}", _file(work, path)))
        for path in files:
            for answers in ("final", "system1"):
                out_json = work / f"{path.stem}.{answers}.eval.json"
                cmd = f"eval {path.name} --answers {answers} --out"
                outputs.append((name, cmd, _cli(work, "eval", "--traces", path, "--answers", answers, "--out", out_json)))
                outputs.append((name, f"{cmd} file", _file(work, out_json)))
            outputs.append((name, f"transitions {path.name}", _cli(work, "transitions", "--traces", path)))
        sys1, sys2 = work / f"{name}.system1_only.jsonl", work / f"{name}.full.jsonl"
        outputs.append((name, "transitions system1_only -> full", _cli(work, "transitions", "--sys1", sys1, "--sys2", sys2)))
    return [json.dumps({"case": name, "output": what, **result}, ensure_ascii=False) for name, what, result in outputs]


@pytest.fixture(scope="module")
def snapshot_run(tmp_path_factory):
    """The trace lines of every case, and the directory holding their files."""
    work = tmp_path_factory.mktemp("snapshot")
    return snapshot_lines(work), work


def test_traces_match_snapshot(snapshot_run):
    expected = SNAPSHOT.read_text(encoding="utf-8").splitlines()
    got, _ = snapshot_run
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have == want


def test_reports_match_snapshot(snapshot_run):
    expected = REPORT_SNAPSHOT.read_text(encoding="utf-8").splitlines()
    got = report_lines(snapshot_run[1])
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        SNAPSHOT.write_text("\n".join(snapshot_lines(tmp)) + "\n", encoding="utf-8")
        REPORT_SNAPSHOT.write_text("\n".join(report_lines(tmp)) + "\n", encoding="utf-8")
    print(f"wrote {SNAPSHOT} and {REPORT_SNAPSHOT}", file=sys.stderr)
