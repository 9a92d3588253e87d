import json
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from conftest import chat_reply, cut_off, embeddings_reply, reply

from anchor_rag import cli, corpus, embed_index, pipeline
from anchor_rag.cli import main
from anchor_rag.corpus import (
    Chunk,
    QAItem,
    build_corpus,
    load_dataset,
    read_chunk_manifest,
    read_question_file,
    write_chunk_manifest,
    write_question_file,
)
from anchor_rag.evaluation import EvaluationError
from anchor_rag.llm_gateway import GatewayError, ScriptedProvider
from anchor_rag.prompt_kit import PromptParseError
from anchor_rag.traces import AnchorRagError, PipelineError, read_trace_file

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def hotpot_file(tmp_path, bannan_docs, golden_questions):
    """A hotpot-layout dataset file carrying the golden question and corpus."""
    q = golden_questions["bannan-conference"]
    record = {
        "_id": q.question_id,
        "question": q.question,
        "answer": q.gold_answer,
        "context": [[d.title, [d.text]] for d in bannan_docs],
        "supporting_facts": [["Justin Bannan", 0], ["2010 Colorado Buffaloes football team", 0]],
    }
    path = tmp_path / "hotpot_dev.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    return path


@pytest.fixture()
def workspace(tmp_path, hotpot_file):
    out = tmp_path / "work"
    rc = main(["ingest", "--data", str(hotpot_file), "--format", "hotpotqa", "--out-dir", str(out)])
    assert rc == 0
    rc = main(["build-index", "--chunks", str(out / "chunks.jsonl"), "--out", str(out / "index.bin")])
    assert rc == 0
    return out


def run_full(workspace, out_name="full.jsonl", extra=()):
    rc = main(
        [
            "run",
            "--questions", str(workspace / "questions.jsonl"),
            "--index", str(workspace / "index.bin"),
            "--chunks", str(workspace / "chunks.jsonl"),
            "--mode", "full",
            "--provider", "scripted",
            "--fixtures", str(DATA / "scripted_fixtures.jsonl"),
            "--out", str(workspace / out_name),
            *extra,
        ]
    )
    return rc, workspace / out_name


# --- ingest ---------------------------------------------------------------------


def test_ingest_outputs(workspace):
    items, header = read_question_file(workspace / "questions.jsonl")
    assert len(items) == 1 and header["dataset_tag"] == "hotpotqa"
    chunks, chunk_header = read_chunk_manifest(workspace / "chunks.jsonl")
    assert len(chunks) == 10
    assert chunk_header["chunk_size"] == 400 and chunk_header["stride"] == 50


def test_ingest_rerun_byte_identical(tmp_path, hotpot_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["ingest", "--data", str(hotpot_file), "--format", "hotpotqa", "--out-dir", str(out)])
        assert rc == 0
    assert (out1 / "questions.jsonl").read_bytes() == (out2 / "questions.jsonl").read_bytes()
    assert (out1 / "chunks.jsonl").read_bytes() == (out2 / "chunks.jsonl").read_bytes()


def test_ingest_zero_sample_rejected(tmp_path, hotpot_file, capsys):
    rc = main(
        ["ingest", "--data", str(hotpot_file), "--format", "hotpotqa", "--out-dir", str(tmp_path / "x"),
         "--sample-n", "0"]
    )
    assert rc == 1
    assert "sample-n" in capsys.readouterr().err


def test_ingest_refuses_bad_chunking_before_writing_any_file(tmp_path, hotpot_file, capsys):
    out = tmp_path / "x"
    rc = main(["ingest", "--data", str(hotpot_file), "--format", "hotpotqa", "--out-dir", str(out),
               "--chunk-size", "50", "--stride", "50"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: need chunk_size > stride >= 0, got chunk_size=50, stride=50"]
    assert not out.exists()


def test_ingest_unreadable_file(tmp_path, capsys):
    rc = main(["ingest", "--data", str(tmp_path / "missing.json"), "--format", "hotpotqa",
               "--out-dir", str(tmp_path / "x")])
    assert rc == 1


# --- run ---------------------------------------------------------------------


def test_run_full_pipeline(workspace):
    rc, trace_path = run_full(workspace)
    assert rc == 0
    header, traces = read_trace_file(trace_path)
    assert header["config"]["mode"] == "full"
    assert len(traces) == 1
    assert traces[0].final_answer == "Pac-12 Conference"


def test_run_refuses_overwrite_without_resume(workspace, capsys):
    rc, trace_path = run_full(workspace)
    assert rc == 0
    rc, _ = run_full(workspace)
    assert rc == 1
    assert "--resume" in capsys.readouterr().err
    rc, _ = run_full(workspace, extra=("--resume",))
    assert rc == 0


def test_run_refuses_an_existing_out_before_reading_any_input(workspace, capsys):
    out = workspace / "taken.jsonl"
    out.write_text("", encoding="utf-8")
    rc = main(["run", "--questions", str(workspace / "questions.jsonl"), "--index", str(workspace / "index.bin"),
               "--chunks", str(workspace / "missing_chunks.jsonl"), "--mode", "full", "--provider", "scripted",
               "--fixtures", str(DATA / "scripted_fixtures.jsonl"), "--out", str(out)])
    assert rc == 1
    assert error_lines(capsys) == [f"error: {out} already exists; pass --resume to continue it or remove it first"]


def test_run_resume_appends_to_traces_written_without_a_defaulted_field(workspace):
    # A trace line written before a field with a default existed, e.g. one
    # without `flags`, `saved_input_tokens` or `usage`, is kept as it is.
    def run_system1(*extra):
        return main(["run", "--questions", str(DATA / "questions.jsonl"), "--mode", "system1_only",
                     "--provider", "scripted", "--fixtures", str(DATA / "scripted_fixtures.jsonl"),
                     "--out", str(workspace / "s1.jsonl"), *extra])

    assert run_system1() == 0
    header, first, _ = (workspace / "s1.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    old = {k: v for k, v in json.loads(first).items() if k not in ("flags", "saved_input_tokens", "usage")}
    kept = header + json.dumps(old, ensure_ascii=False) + "\n"
    (workspace / "s1.jsonl").write_text(kept, encoding="utf-8")

    assert run_system1("--resume") == 0
    assert (workspace / "s1.jsonl").read_text(encoding="utf-8").startswith(kept)
    _, traces = read_trace_file(workspace / "s1.jsonl")
    assert sorted(t.question_id for t in traces) == ["ac-london", "bannan-conference"]
    loaded = next(t for t in traces if t.question_id == old["question_id"])
    assert (loaded.flags, loaded.saved_input_tokens, loaded.usage) == ({}, 0, {})


@pytest.mark.parametrize("keep", [0, 3, 10, 30, 60, 3000, -1])
def test_run_truncated_index_is_one_error_line(workspace, capsys, keep):
    raw = (workspace / "index.bin").read_bytes()
    cut = workspace / "cut.bin"
    cut.write_bytes(raw[:keep])
    rc = main(
        [
            "run",
            "--questions", str(workspace / "questions.jsonl"),
            "--index", str(cut),
            "--chunks", str(workspace / "chunks.jsonl"),
            "--mode", "full",
            "--provider", "scripted",
            "--fixtures", str(DATA / "scripted_fixtures.jsonl"),
            "--out", str(workspace / "never.jsonl"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "truncated" in err[0].replace(str(cut), "")


@pytest.mark.parametrize(
    "part, where",
    [
        ("a chunk id length", lambda table, vectors: table + 2),
        ("a chunk id", lambda table, vectors: table + 5),
        ("the vector block", lambda table, vectors: vectors + 5),
        ("the vector block", lambda table, vectors: -1),
    ],
    ids=["inside_id_length", "inside_id", "inside_vector_block", "last_byte"],
)
def test_run_index_cut_names_the_part(workspace, capsys, part, where):
    raw = (workspace / "index.bin").read_bytes()
    header = json.loads((workspace / "index.bin.manifest.jsonl").read_text(encoding="utf-8").splitlines()[0])
    table = 4 + 16 + 4 + len(header["provider_id"].encode("utf-8"))
    vectors = len(raw) - header["count"] * header["dim"] * 4
    cut = workspace / "cut.bin"
    cut.write_bytes(raw[: where(table, vectors)])
    rc = main(
        [
            "run",
            "--questions", str(workspace / "questions.jsonl"),
            "--index", str(cut),
            "--chunks", str(workspace / "chunks.jsonl"),
            "--mode", "full",
            "--provider", "scripted",
            "--fixtures", str(DATA / "scripted_fixtures.jsonl"),
            "--out", str(workspace / "never.jsonl"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"is truncated: {part} runs past its end" in err[0]


def flip_first_byte(index: Path, part: str) -> None:
    """Flip the first byte of the provider id or of the first chunk id in an
    index file, leaving a byte that no UTF-8 string starts with."""
    raw = bytearray(index.read_bytes())
    (provider_len,) = struct.unpack_from("<I", raw, 20)
    raw[24 if part == "the provider id" else 24 + provider_len + 4] ^= 0xFF
    index.write_bytes(raw)


@pytest.mark.parametrize("part", ["the provider id", "a chunk id"])
def test_run_index_part_not_utf8_is_one_error_line(workspace, capsys, part):
    index = workspace / "flipped.bin"
    index.write_bytes((workspace / "index.bin").read_bytes())
    flip_first_byte(index, part)
    rc, out = run_full(workspace, "never.jsonl", extra=("--index", str(index)))  # the last --index wins
    assert rc == 1
    assert error_lines(capsys) == [f"error: {index}: {part} is not UTF-8 (invalid start byte)"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["build-index", "run"])
def test_manifest_row_cut_by_another_tokenizer_is_one_error_line(workspace, capsys, command):
    lines = (workspace / "chunks.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[3])
    lines[3] = json.dumps({**row, "tokenizer_id": "wordpunct-v2"}, ensure_ascii=False) + "\n"
    chunks = workspace / "other_tokenizer.jsonl"
    chunks.write_text("".join(lines), encoding="utf-8")
    if command == "build-index":
        out = workspace / "other_tokenizer.bin"
        rc = main(["build-index", "--chunks", str(chunks), "--out", str(out)])
    else:
        rc, out = run_full(workspace, "other_tokenizer_run.jsonl", extra=("--chunks", str(chunks)))
    assert rc == 1
    assert error_lines(capsys) == [
        f"error: {chunks}: line 4: chunk {row['chunk_id']!r} was cut by tokenizer 'wordpunct-v2', not 'wordpunct-v1'"
    ]
    assert not out.exists()


def use_manifest(workspace, command, chunks):
    """Run ``command`` on the manifest ``chunks``; returns the exit code and
    the file the command would have written."""
    if command == "build-index":
        out = workspace / f"{chunks.stem}.bin"
        return main(["build-index", "--chunks", str(chunks), "--out", str(out)]), out
    return run_full(workspace, f"{chunks.stem}_run.jsonl", extra=("--chunks", str(chunks)))


@pytest.mark.parametrize("command", ["build-index", "run"])
@pytest.mark.parametrize(
    "changes, message",
    [
        ({"text": 5}, "text must be str, got int 5"),
        ({"chunk_id": 7}, "chunk_id must be str, got int 7"),
        ({"start_token": 0.0, "end_token": 2.5, "token_count": 2.5, "title": ["T"]},
         "start_token must be int, got float 0.0"),
        ({"title": ["T"]}, "title must be str, got list ['T']"),
        ({"start_token": False, "end_token": True, "token_count": True}, "start_token must be int, got bool False"),
        ({"end_char": "9"}, "end_char must be int, got str '9'"),
    ],
    ids=["text_int", "chunk_id_int", "float_offsets", "title_list", "bool_offsets", "end_char_str"],
)
def test_manifest_row_field_of_the_wrong_type_is_one_error_line(workspace, capsys, command, changes, message):
    lines = (workspace / "chunks.jsonl").read_text(encoding="utf-8").splitlines()
    header, row = json.loads(lines[0]), json.loads(lines[1])
    chunks = workspace / "wrong_type.jsonl"
    chunks.write_text(json.dumps({**header, "num_chunks": 1}) + "\n" + json.dumps({**row, **changes}) + "\n",
                      encoding="utf-8")
    rc, out = use_manifest(workspace, command, chunks)
    assert rc == 1
    assert error_lines(capsys) == [f"error: {chunks}: line 2: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["build-index", "run"])
def test_manifest_header_of_another_tokenizer_is_one_error_line(workspace, capsys, command):
    lines = (workspace / "chunks.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = json.dumps({**json.loads(lines[0]), "tokenizer_id": "other-v9"}) + "\n"
    chunks = workspace / "other_header.jsonl"
    chunks.write_text("".join(lines), encoding="utf-8")
    rc, out = use_manifest(workspace, command, chunks)
    assert rc == 1
    assert error_lines(capsys) == [
        f"error: {chunks}: the chunk manifest was cut by tokenizer 'other-v9', not 'wordpunct-v1'"
    ]
    assert not out.exists()


def test_run_requires_index_for_full_mode(workspace, capsys):
    rc = main(
        [
            "run",
            "--questions", str(workspace / "questions.jsonl"),
            "--mode", "full",
            "--provider", "scripted",
            "--fixtures", str(DATA / "scripted_fixtures.jsonl"),
            "--out", str(workspace / "x.jsonl"),
        ]
    )
    assert rc == 1
    assert "requires" in capsys.readouterr().err


def test_run_failure_rate_cap(workspace, capsys):
    # empty fixture file: every question fails at system1
    empty = workspace / "empty_fixtures.jsonl"
    empty.write_text("", encoding="utf-8")
    rc = main(
        [
            "run",
            "--questions", str(workspace / "questions.jsonl"),
            "--index", str(workspace / "index.bin"),
            "--chunks", str(workspace / "chunks.jsonl"),
            "--mode", "full",
            "--provider", "scripted",
            "--fixtures", str(empty),
            "--out", str(workspace / "failing.jsonl"),
        ]
    )
    assert rc == 1
    assert "failure rate" in capsys.readouterr().err


def test_run_with_config_file(workspace):
    config = {
        "mode": "system1_only",
        "chat_provider": {"kind": "scripted", "fixtures": str(DATA / "scripted_fixtures.jsonl")},
    }
    config_path = workspace / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    rc = main(
        [
            "run",
            "--questions", str(workspace / "questions.jsonl"),
            "--config", str(config_path),
            "--out", str(workspace / "s1.jsonl"),
        ]
    )
    assert rc == 0
    header, traces = read_trace_file(workspace / "s1.jsonl")
    assert header["config"]["mode"] == "system1_only"
    assert traces[0].final_answer == "Big Ten Conference"
    assert traces[0].payload_tokens == 0


def test_run_threshold_gated_records_gate(workspace):
    rc = main(
        [
            "run",
            "--questions", str(workspace / "questions.jsonl"),
            "--index", str(workspace / "index.bin"),
            "--chunks", str(workspace / "chunks.jsonl"),
            "--mode", "threshold_gated",
            "--tau", "0.05",
            "--provider", "scripted",
            "--fixtures", str(DATA / "scripted_fixtures.jsonl"),
            "--out", str(workspace / "gated.jsonl"),
        ]
    )
    assert rc == 0
    header, traces = read_trace_file(workspace / "gated.jsonl")
    assert header["config"]["confidence_threshold"] == 0.05
    trace = traces[0]
    # fixture answer-token confidence ~0.40 clears tau: fast answer kept
    assert trace.gate_decision == "complete"
    assert trace.final_answer == trace.system1_answer == "Big Ten Conference"
    assert trace.saved_input_tokens > 0


def test_run_standard_rag_mode(workspace):
    rc = main(
        [
            "run",
            "--questions", str(workspace / "questions.jsonl"),
            "--index", str(workspace / "index.bin"),
            "--chunks", str(workspace / "chunks.jsonl"),
            "--mode", "standard_rag",
            "--provider", "scripted",
            "--fixtures", str(DATA / "scripted_fixtures.jsonl"),
            "--out", str(workspace / "rag.jsonl"),
        ]
    )
    assert rc == 0
    _, traces = read_trace_file(workspace / "rag.jsonl")
    trace = traces[0]
    assert trace.retrieval_queries == [trace.question]
    assert len(trace.retrieved_chunks) == 5
    assert trace.final_answer == "Big 12 Conference"


def test_ingest_sampled_contexts(tmp_path, bannan_docs, golden_questions):
    # two records with disjoint contexts; sampling one must drop the other's documents
    q = golden_questions["bannan-conference"]
    records = [
        {
            "_id": "keep-me",
            "question": q.question,
            "answer": q.gold_answer,
            "context": [[d.title, [d.text]] for d in bannan_docs[:3]],
        },
        {
            "_id": "drop-me",
            "question": "Other question?",
            "answer": "Other",
            "context": [[d.title, [d.text]] for d in bannan_docs[3:]],
        },
    ]
    data = tmp_path / "two.json"
    data.write_text(json.dumps(records), encoding="utf-8")
    out = tmp_path / "sampled"
    rc = main(
        ["ingest", "--data", str(data), "--format", "hotpotqa", "--out-dir", str(out),
         "--sample-n", "1", "--seed", "0", "--contexts", "sampled"]
    )
    assert rc == 0
    items, _ = read_question_file(out / "questions.jsonl")
    chunks, _ = read_chunk_manifest(out / "chunks.jsonl")
    assert len(items) == 1
    kept_titles = {c.title for c in chunks}
    expected = {d.title for d in (bannan_docs[:3] if items[0].question_id == "keep-me" else bannan_docs[3:])}
    assert kept_titles == expected


@pytest.mark.parametrize("seed", range(5))
def test_ingest_sampled_contexts_parses_once(tmp_path, monkeypatch, seed):
    # Passages shared across records, a duplicated question id and a skipped
    # record: the kept documents must come out as a second parse restricted
    # to the sampled ids lists them, while the file is parsed only once.
    passage = {c: [f"Passage {c}.", f"It is about {c}."] for c in "ABCDEFG"}
    layout = [("r0", "AB"), ("r1", "CA"), ("r2", "D"), ("r1", "EB"), ("r4", "FCG"), ("r5", "GA"), ("r6", "BD")]
    records = [
        {"_id": qid, "question": f"Question {qid}?", "answer": f"Answer {qid}", "context": [[c, passage[c]] for c in cs]}
        for qid, cs in layout
    ]
    records.insert(3, {"_id": "no-answer", "question": "Skipped?", "context": [["Z", ["Never indexed."]]]})
    data = tmp_path / "shared.json"
    data.write_text(json.dumps(records), encoding="utf-8")

    parses = []
    real_iter_records = corpus._iter_records
    monkeypatch.setattr(corpus, "_iter_records", lambda path: parses.append(path) or real_iter_records(path))
    out = tmp_path / "sampled"
    rc = main(["ingest", "--data", str(data), "--format", "hotpotqa", "--out-dir", str(out),
               "--sample-n", "3", "--seed", str(seed), "--contexts", "sampled"])
    assert rc == 0
    assert len(parses) == 1

    items, _ = read_question_file(out / "questions.jsonl")
    _, docs = load_dataset(data, "hotpotqa", restrict_to={q.question_id for q in items})
    reference = tmp_path / "reference.jsonl"
    write_chunk_manifest(build_corpus(docs), reference, chunk_size=400, stride=50)
    assert (out / "chunks.jsonl").read_bytes() == reference.read_bytes()


# --- eval / transitions / report / inspect ------------------------------------------


def test_eval_command(workspace, capsys):
    _, trace_path = run_full(workspace)
    out_json = workspace / "eval.json"
    rc = main(["eval", "--traces", str(trace_path), "--out", str(out_json)])
    assert rc == 0
    assert "100.00" in capsys.readouterr().out
    summary = json.loads(out_json.read_text(encoding="utf-8"))
    assert summary["em"] == 100.0


def test_eval_missing_trace_file_names_path(workspace, capsys):
    rc = main(["eval", "--traces", str(workspace / "nope.jsonl")])
    assert rc == 1
    assert "nope.jsonl" in capsys.readouterr().err


def test_transitions_single_run(workspace, capsys):
    _, trace_path = run_full(workspace)
    capsys.readouterr()
    rc = main(["transitions", "--traces", str(trace_path)])
    assert rc == 0
    out = capsys.readouterr().out
    # System-I was wrong (Big Ten), System-II right (Pac-12): one gained
    assert out.splitlines()[1].split()[-5:] == ["0", "1", "0", "0", "1"]


def test_transitions_needs_arguments(capsys):
    rc = main(["transitions"])
    assert rc == 1


def test_report_command(workspace, capsys):
    _, trace_path = run_full(workspace)
    out_dir = workspace / "report"
    rc = main(["report", "--traces", str(trace_path), "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "report.txt").exists()
    assert (out_dir / "full.scores.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["runs"]["full"]["em"] == 100.0
    assert summary["runs"]["full"]["transitions"]["gained"] == 1


def test_report_rejects_schema_mismatch(workspace, capsys):
    bad = workspace / "bad.jsonl"
    bad.write_text('{"kind": "trace_file", "schema_version": 99}\n', encoding="utf-8")
    rc = main(["report", "--traces", str(bad), "--out-dir", str(workspace / "r")])
    assert rc == 1
    assert "schema version" in capsys.readouterr().err


def test_report_rejects_duplicate_run_labels(workspace, capsys):
    # Both files are labelled "traces": one would overwrite the other's
    # summary entry and scores file.
    paths = []
    for sub in ("a", "b"):
        (workspace / sub).mkdir()
        paths.append(str(run_full(workspace, out_name=f"{sub}/traces.jsonl")[1]))
    capsys.readouterr()
    out_dir = workspace / "report"
    rc = main(["report", "--traces", *paths, "--out-dir", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'traces'" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "header",
    [
        {"kind": "trace_file", "schema_version": 1},
        {"kind": "trace_file", "schema_version": 1, "config": "full"},
        {"kind": "trace_file", "schema_version": 1, "config": {"seed": 42}},
        {"kind": "trace_file", "schema_version": 1, "config": {"mode": "no_such_mode"}},
    ],
    ids=["missing_config", "config_not_object", "config_without_mode", "unknown_mode"],
)
def test_report_rejects_header_without_config_mode(workspace, capsys, header):
    _, trace_path = run_full(workspace)
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    bad = workspace / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["report", "--traces", str(bad), "--out-dir", str(workspace / "r")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad.jsonl" in err and "config" in err


@pytest.mark.parametrize(
    "name, value, expected",
    [
        ("final_answer", 5, "trace final_answer must be str, got int 5"),
        ("payload_tokens", "many", "trace payload_tokens must be int, got str 'many'"),
        ("hits", [{"chunk_id": 7, "score": "high", "query_index": None}], "trace hit chunk_id must be str, got int 7"),
        ("usage", {"system1": {"prompt_tokens": "12", "completion_tokens": 3}},
         "trace usage system1 prompt_tokens must be int, got str '12'"),
        ("triples", [[1, "p", "o"]], "trace triples[0] subject must be str, got int 1"),
        ("retrieved_chunks", [5], "trace retrieved_chunks[0] must be str, got int 5"),
    ],
    ids=["final_answer_int", "payload_tokens_str", "hit_chunk_id_int", "usage_prompt_tokens_str", "triple_subject_int",
         "retrieved_chunk_int"],
)
@pytest.mark.parametrize("command", ["report", "eval", "transitions", "run --resume"])
def test_trace_line_of_the_wrong_type_is_one_error_line(workspace, capsys, command, name, value, expected):
    _, trace_path = run_full(workspace)
    header, line = trace_path.read_text(encoding="utf-8").splitlines()
    trace_path.write_text(f"{header}\n{json.dumps({**json.loads(line), name: value})}\n", encoding="utf-8")
    capsys.readouterr()
    if command == "run --resume":
        rc, _ = run_full(workspace, extra=("--resume",))
    else:
        argv = {"report": ["--traces", str(trace_path), "--out-dir", str(workspace / "r")],
                "eval": ["--traces", str(trace_path)],
                "transitions": ["--traces", str(trace_path)]}[command]
        rc = main([command, *argv])
    assert rc == 1
    assert error_lines(capsys) == [f"error: {trace_path}: line 2 is not a valid trace: {expected}"]


def test_inspect_command(workspace, capsys):
    _, trace_path = run_full(workspace)
    capsys.readouterr()
    rc = main(["inspect", "--traces", str(trace_path), "--question-id", "bannan-conference"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["final_answer"] == "Pac-12 Conference"


def test_inspect_unknown_id(workspace, capsys):
    _, trace_path = run_full(workspace)
    rc = main(["inspect", "--traces", str(trace_path), "--question-id", "zzz"])
    assert rc == 1
    assert "zzz" in capsys.readouterr().err


# --- damaged inputs end in one error line ------------------------------------------


def error_lines(capsys):
    return capsys.readouterr().err.strip().splitlines()


def cut_offset(data: bytes, where: str) -> int:
    header_end = data.index(b"\n") + 1
    return {
        "mid_header": header_end // 2,
        "after_header": header_end,
        "before_last_row": data.rindex(b"\n", 0, len(data) - 1) + 1,
        "mid_file": len(data) // 2,
        "last_20_bytes": len(data) - 20,
    }[where]


@pytest.mark.parametrize("where", ["mid_header", "after_header", "before_last_row", "mid_file", "last_20_bytes"])
@pytest.mark.parametrize("command, manifest", [("build-index", "chunks"), ("run", "chunks"), ("run", "questions")])
def test_torn_manifest_is_one_error_line(workspace, capsys, command, manifest, where):
    torn = workspace / f"torn_{manifest}.jsonl"
    data = (workspace / f"{manifest}.jsonl").read_bytes()
    torn.write_bytes(data[: cut_offset(data, where)])
    paths = {"chunks": str(workspace / "chunks.jsonl"), "questions": str(workspace / "questions.jsonl")}
    paths[manifest] = str(torn)
    if command == "build-index":
        argv = ["build-index", "--chunks", paths["chunks"], "--out", str(workspace / "torn_index.bin")]
    else:
        argv = ["run", "--questions", paths["questions"], "--index", str(workspace / "index.bin"),
                "--chunks", paths["chunks"], "--mode", "full", "--provider", "scripted",
                "--fixtures", str(DATA / "scripted_fixtures.jsonl"), "--out", str(workspace / "torn_run.jsonl")]
    assert main(argv) == 1
    err = error_lines(capsys)
    assert len(err) == 1 and err[0].startswith(f"error: {torn}")


def test_ingest_non_utf8_dataset_is_one_error_line(tmp_path, capsys):
    data = tmp_path / "bad.jsonl"
    data.write_bytes(b'{"id": "m1", "question": "\xff", "answer": "A"}\n')
    rc = main(["ingest", "--data", str(data), "--format", "musique", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = error_lines(capsys)
    assert len(err) == 1 and err[0].startswith(f"error: cannot read {data}: not UTF-8")


def dataset_record(fmt, i, question="Who?", answer="X", title="T", passage="A passage.", support=None):
    # A MuSiQue support title is a passage's title; a HotpotQA one need not be.
    if fmt == "musique":
        paragraphs = [{"title": title, "paragraph_text": passage, "is_supporting": True}]
        if support is not None:
            paragraphs.append({"title": support, "paragraph_text": "Another.", "is_supporting": True})
        return {"id": f"q{i}", "question": question, "answer": answer, "paragraphs": paragraphs}
    return {"_id": f"q{i}", "question": question, "answer": answer, "context": [[title, [passage]]],
            "supporting_facts": [[title if support is None else support, 0]]}


def write_dataset(tmp_path, fmt, records):
    # json.dumps writes a lone surrogate as the escape "\ud800", as a
    # dataset file may hold it.
    if fmt == "musique":
        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    else:
        data = tmp_path / "data.json"
        data.write_text(json.dumps(records), encoding="utf-8")
    assert "\\ud800" in data.read_text(encoding="utf-8")
    return data


@pytest.mark.parametrize(
    "fmt, field, where",
    [(fmt, field, "question 'q1'") for fmt in ["hotpotqa", "musique"] for field in ["question", "answer"]]
    + [(fmt, field, "record 2") for fmt in ["hotpotqa", "musique"] for field in ["title", "passage"]]
    + [("hotpotqa", "support", "question 'q1'"), ("musique", "support", "record 2")],
)
def test_ingest_lone_surrogate_is_one_error_line(tmp_path, capsys, fmt, field, where):
    data = write_dataset(tmp_path, fmt, [dataset_record(fmt, 0), dataset_record(fmt, 1, **{field: "caf\ud800"})])
    out = tmp_path / "out"
    rc = main(["ingest", "--data", str(data), "--format", fmt, "--out-dir", str(out)])
    assert rc == 1
    assert error_lines(capsys) == [f"error: {data}: {where} holds a lone surrogate (U+D800), which UTF-8 cannot encode"]
    assert not out.exists()


@pytest.mark.parametrize(
    "fmt, field", [("hotpotqa", "question"), ("hotpotqa", "answer"), ("hotpotqa", "support"), ("musique", "question")]
)
def test_ingest_lone_surrogate_in_a_question_not_sampled_is_no_error(tmp_path, fmt, field):
    # Only the sampled questions are written, and only their fields are
    # checked; every passage is, as it is hashed. Seed 1 samples record 1 of 2.
    data = write_dataset(tmp_path, fmt, [dataset_record(fmt, 0), dataset_record(fmt, 1, **{field: "caf\ud800"})])
    out = tmp_path / "out"
    rc = main(["ingest", "--data", str(data), "--format", fmt, "--out-dir", str(out), "--sample-n", "1",
               "--seed", "1"])
    assert rc == 0
    questions, _ = read_question_file(out / "questions.jsonl")
    assert [q.question_id for q in questions] == ["q0"]


@pytest.mark.parametrize(
    "name, value, expected",
    [
        ("question", {"a": 1}, "question must be str, got dict {'a': 1}"),
        ("question_id", 7, "question_id must be str, got int 7"),
        ("gold_answer", ["x"], "gold_answer must be str, got list ['x']"),
        ("dataset_tag", None, "dataset_tag must be str, got NoneType None"),
    ],
    ids=["question_object", "question_id_int", "gold_answer_list", "dataset_tag_null"],
)
def test_question_row_field_of_the_wrong_type_is_one_error_line(workspace, capsys, name, value, expected):
    questions = workspace / "questions.jsonl"
    header, row = questions.read_text(encoding="utf-8").splitlines()
    questions.write_text(f"{header}\n{json.dumps({**json.loads(row), name: value})}\n", encoding="utf-8")
    out = workspace / "bad_question_run.jsonl"
    rc = main(["run", "--questions", str(questions), "--mode", "system1_only", "--provider", "scripted",
               "--fixtures", str(DATA / "scripted_fixtures.jsonl"), "--out", str(out)])
    assert rc == 1
    assert error_lines(capsys) == [f"error: {questions}: line 2: {expected}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "name, body, flag, expected",
    [
        ("fixtures.jsonl", '{"stage_tag": "system1", "question_id": "q", "text": "x"}\n{not json\n', "--fixtures",
         "line 2: "),
        ("fixtures.jsonl", '{"stage_tag": "system1", "text": "<answer>x</answer>"}\n', "--fixtures",
         "line 1: missing key 'question_id'"),
        ("fixtures.jsonl", '[1, 2]\n', "--fixtures", "line 1: "),
        ("fixtures.jsonl", '{"stage_tag": "system1", "question_id": "q", "text": 5}\n', "--fixtures",
         "line 1: text must be str, got int 5"),
        ("fixtures.jsonl", '{"stage_tag": "system1", "question_id": "q", "text": {"a": 1}}\n', "--fixtures",
         "line 1: text must be str, got dict {'a': 1}"),
        ("fixtures.jsonl", '{"stage_tag": "system1", "question_id": "q", "text": "a"}\n'
         '{"stage_tag": "system1", "question_id": "q", "text": "b"}\n', "--fixtures",
         "line 2: duplicate fixture for ('system1', 'q')"),
        ("config.json", '{"mode": "system1_only",\n', "--config", "not a JSON config"),
        ("config.json", '["system1_only"]\n', "--config", "not a JSON config"),
    ],
    ids=["fixtures_bad_json", "fixtures_missing_key", "fixtures_not_object", "fixtures_text_int",
         "fixtures_text_object", "fixtures_duplicate", "config_bad_json", "config_not_object"],
)
def test_run_bad_json_input_is_one_error_line(workspace, capsys, name, body, flag, expected):
    path = workspace / name
    path.write_text(body, encoding="utf-8")
    # the last of two --fixtures flags wins
    argv = ["run", "--questions", str(workspace / "questions.jsonl"), "--mode", "system1_only",
            "--provider", "scripted", "--fixtures", str(DATA / "scripted_fixtures.jsonl"),
            "--out", str(workspace / "bad_json_run.jsonl"), flag, str(path)]
    assert main(argv) == 1
    err = error_lines(capsys)
    assert len(err) == 1 and err[0].startswith(f"error: {path}: {expected}")


@pytest.mark.parametrize(
    "config, expected",
    [
        ({"k_per_triple": "5"}, "config k_per_triple must be int, got str '5'"),
        ({"k_per_triple": True}, "config k_per_triple must be int, got bool True"),
        ({"confidence_threshold": "0.5"}, "config confidence_threshold must be float or null, got str '0.5'"),
        ({"limits": 32}, "config limits must be an object, got int 32"),
        ({"limits": []}, "config limits must be an object, got list []"),
        ({"limits": {"system1": "64"}}, "limits system1 must be int, got str '64'"),
        ({"limits": {"system_1": 64}}, "unknown limits keys: ['system_1']"),
        ({"limits": {"system1": 0}}, "stage token limits must be >= 1"),
        ({"max_new_tokens": {"system1": 32}}, "unknown config keys: ['max_new_tokens']"),
        ({"chat_provider": "scripted"}, "{path}: config chat_provider must be an object"),
        ({"embed_provider": ["hashing"]}, "{path}: config embed_provider must be an object"),
    ],
    ids=["k_str", "k_bool", "tau_str", "limits_int", "limits_list", "limit_str", "limit_unknown_key",
         "limit_zero", "max_new_tokens", "chat_provider_str", "embed_provider_list"],
)
def test_run_config_with_bad_values_is_one_error_line(workspace, capsys, config, expected):
    path = workspace / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["run", "--questions", str(workspace / "questions.jsonl"), "--mode", "system1_only",
            "--provider", "scripted", "--fixtures", str(DATA / "scripted_fixtures.jsonl"),
            "--out", str(workspace / "bad_config_run.jsonl"), "--config", str(path)]
    assert main(argv) == 1
    err = error_lines(capsys)
    assert err == [f"error: {expected.format(path=path)}"]
    assert not (workspace / "bad_config_run.jsonl").exists()


@pytest.mark.parametrize(
    "key, spec, bad",
    [
        ("chat_provider", {"kind": "scripted", "fixtures": 5}, "fixtures must be str, got int 5"),
        ("chat_provider", {"kind": 5}, "kind must be str, got int 5"),
        ("chat_provider", {"kind": "openai", "base_url": 5, "model": "m"}, "base_url must be str, got int 5"),
        ("chat_provider", {"kind": "openai", "base_url": "http://127.0.0.1:9/v1", "model": ["m"]},
         "model must be str, got list ['m']"),
        ("chat_provider", {"kind": "openai", "base_url": "http://127.0.0.1:9/v1", "model": "m", "api_key_env": 5},
         "api_key_env must be str, got int 5"),
        ("embed_provider", {"kind": "remote", "base_url": 5, "model": "m"}, "base_url must be str, got int 5"),
        ("embed_provider", {"kind": "remote", "base_url": "http://127.0.0.1:9/v1", "model": [1]},
         "model must be str, got list [1]"),
        ("embed_provider", {"kind": "remote", "base_url": "http://127.0.0.1:9/v1", "model": "m",
                            "api_key_env": None}, "api_key_env must be str, got NoneType None"),
    ],
    ids=["chat_fixtures_int", "chat_kind_int", "chat_base_url_int", "chat_model_list", "chat_api_key_env_int",
         "embed_base_url_int", "embed_model_list", "embed_api_key_env_null"],
)
def test_run_provider_setting_of_wrong_type_is_one_error_line(workspace, capsys, monkeypatch, key, spec, bad):
    # Before, these ended in a TypeError or AttributeError traceback, or (a
    # list as the embedding model) ran as the provider id "remote:[1]".
    reads = []
    monkeypatch.setattr(corpus, "read_question_file", lambda path: reads.append(path) or read_question_file(path))
    path = workspace / "config.json"
    path.write_text(json.dumps({"mode": "standard_rag", key: spec}), encoding="utf-8")
    out = workspace / "bad_provider_run.jsonl"
    argv = ["run", "--questions", str(workspace / "questions.jsonl"), "--index", str(workspace / "index.bin"),
            "--chunks", str(workspace / "chunks.jsonl"), "--out", str(out), "--config", str(path)]
    if key == "embed_provider":
        argv += ["--provider", "scripted", "--fixtures", str(DATA / "scripted_fixtures.jsonl")]
    assert main(argv) == 1
    assert error_lines(capsys) == [f"error: config {key} {bad}"]
    assert reads == [] and not out.exists()


def test_run_unknown_query_style_fails_before_any_question(workspace, capsys, monkeypatch):
    calls = []
    original = ScriptedProvider.complete

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ScriptedProvider, "complete", counted)
    path = workspace / "config.json"
    path.write_text(json.dumps({"query_style": "bogus"}), encoding="utf-8")
    rc, out = run_full(workspace, "bad_style_run.jsonl", extra=("--config", str(path)))
    assert rc == 1
    assert error_lines(capsys) == ["error: unknown query style 'bogus'; expected one of ('space',)"]
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize(
    "config, flags, expected",
    [
        ({"temperature": -1}, (), "config temperature must be finite and >= 0, got -1"),
        ({"temperature": float("nan")}, (), "config temperature must be finite and >= 0, got nan"),
        (None, ("--tau", "nan"), "config confidence_threshold must be finite and >= 0, got nan"),
        (None, ("--tau", "inf"), "config confidence_threshold must be finite and >= 0, got inf"),
    ],
    ids=["config_temperature_negative", "config_temperature_nan", "tau_nan", "tau_inf"],
)
def test_run_bad_temperature_or_tau_fails_before_any_file_or_call(workspace, capsys, monkeypatch, config, flags,
                                                                  expected):
    # A NaN tau would let the gate complete no question; -1 used to pass the
    # config and fail only at the first request, after the trace header was written.
    calls = []
    monkeypatch.setattr(ScriptedProvider, "complete", lambda self, request: calls.append(request))
    extra = ["--mode", "threshold_gated", *flags]
    if config is not None:
        path = workspace / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")  # NaN is written as the bare token NaN
        extra += ["--config", str(path)]
    rc, out = run_full(workspace, "bad_value_run.jsonl", extra=extra)
    assert rc == 1
    assert error_lines(capsys) == [f"error: {expected}"]
    assert not out.exists()
    assert calls == []


def test_run_config_limits_are_used(workspace):
    path = workspace / "config.json"
    path.write_text(json.dumps({"limits": {"system1": 32, "triple_gen": 128, "system2": 512}}), encoding="utf-8")
    out = workspace / "limits_run.jsonl"
    argv = ["run", "--questions", str(workspace / "questions.jsonl"), "--mode", "system1_only",
            "--provider", "scripted", "--fixtures", str(DATA / "scripted_fixtures.jsonl"),
            "--out", str(out), "--config", str(path)]
    assert main(argv) == 0
    header = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    assert header["config"]["limits"] == {"system1": 32, "triple_gen": 128, "system2": 512}


@pytest.mark.parametrize(
    "embedder, dim, expected",
    [("hashing", "0", "embedding dim must be >= 2"), ("hashing", "1", "embedding dim must be >= 2"),
     ("hashing", "-3", "embedding dim must be >= 2"), ("remote", "0", "embedding dim must be >= 1"),
     ("remote", "-3", "embedding dim must be >= 1")],
)
def test_build_index_bad_dim_is_one_error_line(workspace, capsys, embedder, dim, expected):
    out = workspace / "dim_index.bin"
    argv = ["build-index", "--chunks", str(workspace / "chunks.jsonl"), "--out", str(out),
            "--embedder", embedder, "--dim", dim]
    if embedder == "remote":
        # Nothing listens on the discard port; the dim must be refused before any request.
        argv += ["--endpoint", "http://127.0.0.1:9/v1", "--model", "m"]
    assert main(argv) == 1
    assert error_lines(capsys) == [f"error: {expected}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, expected",
    [(["--embedder", "remote", "--model", "m"], "remote embedder needs base_url and model"),
     (["--embedder", "remote", "--endpoint", "http://127.0.0.1:9/v1"], "remote embedder needs base_url and model"),
     (["--dim", "1"], "embedding dim must be >= 2")],
    ids=["no_endpoint", "no_model", "dim_one"],
)
def test_build_index_checks_the_embedder_before_reading_the_manifest(workspace, capsys, monkeypatch, flags, expected):
    def unread(path):
        raise AssertionError("the manifest was read")

    monkeypatch.setattr(corpus, "read_chunk_texts", unread)
    out = workspace / "unread_index.bin"
    assert main(["build-index", "--chunks", str(workspace / "chunks.jsonl"), "--out", str(out), *flags]) == 1
    assert error_lines(capsys) == [f"error: {expected}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "dim, expected",
    [("abc", "str 'abc'"), (2.7, "float 2.7"), (True, "bool True"), (0, None)],
    ids=["dim_str", "dim_float", "dim_bool", "dim_zero"],
)
def test_run_config_bad_embed_dim_is_one_error_line(workspace, capsys, dim, expected):
    path = workspace / "config.json"
    path.write_text(json.dumps({"embed_provider": {"dim": dim}}), encoding="utf-8")
    argv = ["run", "--questions", str(workspace / "questions.jsonl"), "--mode", "standard_rag",
            "--index", str(workspace / "index.bin"), "--chunks", str(workspace / "chunks.jsonl"),
            "--provider", "scripted", "--fixtures", str(DATA / "scripted_fixtures.jsonl"),
            "--out", str(workspace / "bad_dim_run.jsonl"), "--config", str(path)]
    assert main(argv) == 1
    if expected is None:
        expected_line = "error: embedding dim must be >= 2"
    else:
        expected_line = f"error: config embed_provider dim must be int or null, got {expected}"
    assert error_lines(capsys) == [expected_line]
    assert not (workspace / "bad_dim_run.jsonl").exists()


@pytest.mark.parametrize(
    "case", ["run --questions", "run --fixtures", "build-index --chunks", "report --out-dir"]
)
def test_path_of_the_wrong_kind_is_one_error_line(workspace, capsys, case):
    directory = workspace / "a_directory"
    directory.mkdir()
    run = ["run", "--questions", str(workspace / "questions.jsonl"), "--mode", "system1_only",
           "--provider", "scripted", "--fixtures", str(DATA / "scripted_fixtures.jsonl"),
           "--out", str(workspace / "kind_run.jsonl")]
    if case == "report --out-dir":
        _, trace_path = run_full(workspace)
        capsys.readouterr()
        bad = workspace / "a_file"
        bad.write_text("", encoding="utf-8")
        argv = ["report", "--traces", str(trace_path), "--out-dir", str(bad)]
    elif case == "build-index --chunks":
        bad = directory
        argv = ["build-index", "--chunks", str(bad), "--out", str(workspace / "kind_index.bin")]
    else:
        bad = directory
        argv = run + [case.split()[1], str(bad)]  # the last of two flags wins
    assert main(argv) == 1
    err = error_lines(capsys)
    assert len(err) == 1 and err[0].startswith("error: ") and str(bad) in err[0]


# --- remote endpoints: retries, malformed replies, interrupts -------------------

# One reply that every stage parses: an answer, two triples and a final answer.
ALL_STAGES = ("<answer>Paris</answer>\n<triple>Justin Bannan | played_for | Colorado</triple>\n"
              "<triple>Colorado | member_of | Pac-12</triple>\n<final_answer>Pac-12</final_answer>")


@pytest.fixture()
def no_sleep(monkeypatch):
    napped = []
    monkeypatch.setattr(time, "sleep", napped.append)
    return napped


def build_remote_index(workspace, loopback):
    out = workspace / "remote.bin"
    rc = main(["build-index", "--chunks", str(workspace / "chunks.jsonl"), "--out", str(out),
               "--embedder", "remote", "--endpoint", loopback.url, "--model", "emb"])
    return rc, out


def test_build_index_survives_a_flaky_embedder(workspace, loopback, no_sleep):
    loopback.queued["/embeddings"] += [reply(503, b"busy"), reply(429, b"slow", Retry_After="3")]
    rc, out = build_remote_index(workspace, loopback)
    assert rc == 0 and out.exists()
    assert no_sleep == [0.5, 3.0]


def test_build_index_cut_off_embeddings_reply_is_one_error_line(workspace, loopback, no_sleep, capsys):
    loopback.routes["/embeddings"] = lambda payload: cut_off(reply(body={"data": []}))
    rc, out = build_remote_index(workspace, loopback)
    assert rc == 1 and not out.exists()
    lines = error_lines(capsys)
    assert len(lines) == 1 and lines[0].startswith("error: embedding request failed: ")
    assert no_sleep == [0.5, 1.0] and len(loopback.seen) == 3


def test_build_index_interrupted_during_overlapped_requests(tmp_path, loopback, monkeypatch, capsys):
    # 768 chunks: six /embeddings batches of 128. The interrupt comes from
    # the decode of batch 2 while the server holds batch 3 for 3 s and batch
    # 4, the other request in flight during that decode, has gone out.
    chunks = [Chunk(chunk_id=f"c{i:04d}", doc_id=f"d{i:04d}", start_token=0, end_token=3, text=f"chunk number {i}",
                    token_count=3, tokenizer_id="wordpunct-v1", title=f"Doc {i}") for i in range(768)]
    manifest = tmp_path / "chunks.jsonl"
    write_chunk_manifest(chunks, manifest, chunk_size=100, stride=0)
    stalled = chunks[3 * 128].text

    def route(payload):
        if payload["input"][0] == stalled:
            time.sleep(3.0)
        return embeddings_reply(payload)

    loopback.routes["/embeddings"] = route
    decoded, original = [], embed_index._decode_embeddings

    def decode(body, n):
        decoded.append(n)
        if len(decoded) == 3:
            raise KeyboardInterrupt
        return original(body, n)

    monkeypatch.setattr(embed_index, "_decode_embeddings", decode)
    threads = threading.active_count()
    out = tmp_path / "index.bin"
    started = time.monotonic()
    rc = main(["build-index", "--chunks", str(manifest), "--out", str(out),
               "--embedder", "remote", "--endpoint", loopback.url, "--model", "emb"])
    assert time.monotonic() - started < 1.0
    assert rc == 1 and error_lines(capsys) == ["error: interrupted"]
    assert not out.exists() and list(tmp_path.iterdir()) == [manifest]
    deadline = time.monotonic() + 10.0
    while threading.active_count() != threads and time.monotonic() < deadline:
        time.sleep(0.02)
    assert threading.active_count() == threads
    assert stalled in {payload["input"][0] for _, payload in loopback.seen}
    # Batches 0-4 were posted, each once; batch 5 never was.
    assert sorted(payload["input"][0] for _, payload in loopback.seen) == sorted(c.text for c in chunks[:5 * 128:128])


@pytest.mark.parametrize(
    "body, expected",
    [
        ({}, "malformed embeddings reply: KeyError('data')"),
        (b"<html>", "reply is not a JSON object"),
        ({"data": [{"index": 0, "embedding": [1.0, 0.0]}]}, "provider returned 1 rows for"),
        ({"data": [{"index": 0, "embedding": [1.0, 0.0]}] * 10}, "rows are not indexed 0..9"),
    ],
    ids=["empty_object", "not_json", "too_few_rows", "every_index_zero"],
)
def test_build_index_malformed_embeddings_is_one_error_line(workspace, loopback, capsys, body, expected):
    loopback.routes["/embeddings"] = lambda payload: reply(body=body)
    rc, out = build_remote_index(workspace, loopback)
    assert rc == 1 and not out.exists()
    lines = error_lines(capsys)
    assert len(lines) == 1 and lines[0].startswith("error: ") and expected in lines[0]


@pytest.mark.parametrize(
    "route, body, expected",
    [
        ("/chat/completions", {}, "system1: malformed chat reply: KeyError('choices')"),
        ("/chat/completions", b"Internal proxy page", "reply is not a JSON object: 'Internal proxy page'"),
        ("/embeddings", {}, "retrieval: malformed embeddings reply: KeyError('data')"),
        ("/embeddings", {"data": [{"index": 0, "embedding": [1.0] * 16}]}, "retrieval: provider returned 1 rows for 2 texts"),
    ],
    ids=["chat_empty_object", "chat_not_json", "embeddings_empty_object", "embeddings_too_few_rows"],
)
def test_run_malformed_reply_is_a_question_error(workspace, loopback, capsys, route, body, expected):
    rc, index = build_remote_index(workspace, loopback)
    assert rc == 0
    loopback.routes["/chat/completions"] = lambda payload: chat_reply(ALL_STAGES)
    loopback.routes[route] = lambda payload: reply(body=body)
    out = workspace / "remote_run.jsonl"
    # No embedding model is named: it is read from the index ("remote:emb").
    rc = main(["run", "--questions", str(workspace / "questions.jsonl"), "--index", str(index),
               "--chunks", str(workspace / "chunks.jsonl"), "--mode", "full", "--provider", "openai",
               "--endpoint", loopback.url, "--model", "chat", "--embedder", "remote",
               "--max-failure-rate", "1", "--out", str(out)])
    assert rc == 0
    assert "ran 1 questions (1 with errors)" in capsys.readouterr().out
    header, traces = read_trace_file(out)
    assert "model" not in header["config"]["embed_provider"]  # the config hash is as given
    assert any(expected in e for e in traces[0].errors), traces[0].errors
    assert {p["model"] for path, p in loopback.seen if path.endswith("/embeddings")} == {"emb"}
    assert {p["model"] for path, p in loopback.seen if path.endswith("/chat/completions")} == {"chat"}


def test_remote_standard_rag_run_posts_one_embeddings_request_per_block(workspace, loopback, monkeypatch):
    rc, index = build_remote_index(workspace, loopback)
    assert rc == 0
    rows = len(read_chunk_manifest(workspace / "chunks.jsonl")[0])
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", 3 * rows)  # blocks of three questions
    questions = workspace / "seven.jsonl"
    write_question_file([QAItem(f"q{i}", f"Which conference, take {i}?", "Pac-12") for i in range(7)], questions)
    seen_before = len(loopback.seen)
    out = workspace / "rag_run.jsonl"
    rc = main(["run", "--questions", str(questions), "--index", str(index), "--chunks", str(workspace / "chunks.jsonl"),
               "--mode", "standard_rag", "--provider", "openai", "--endpoint", loopback.url, "--model", "chat",
               "--embedder", "remote", "--out", str(out)])
    assert rc == 0
    posted = [p["input"] for path, p in loopback.seen[seen_before:] if path.endswith("/embeddings")]
    assert [len(texts) for texts in posted] == [3, 3, 1]  # ceil(7 / 3) requests, not one per question
    _, traces = read_trace_file(out)
    assert [t.question_id for t in traces] == [f"q{i}" for i in range(7)]
    assert all(t.errors == [] and t.final_answer == "Paris" and len(t.hits) == 5 for t in traces)


def test_remote_full_run_posts_one_embeddings_request_per_block(workspace, loopback, monkeypatch):
    rc, index = build_remote_index(workspace, loopback)
    assert rc == 0
    loopback.routes["/chat/completions"] = lambda payload: chat_reply(ALL_STAGES)
    rows = len(read_chunk_manifest(workspace / "chunks.jsonl")[0])
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", 3 * rows)  # blocks of three questions
    questions = workspace / "seven.jsonl"
    write_question_file([QAItem(f"q{i}", f"Which conference, take {i}?", "Pac-12") for i in range(7)], questions)
    seen_before = len(loopback.seen)
    out = workspace / "full_run.jsonl"
    rc = main(["run", "--questions", str(questions), "--index", str(index), "--chunks", str(workspace / "chunks.jsonl"),
               "--mode", "full", "--provider", "openai", "--endpoint", loopback.url, "--model", "chat",
               "--embedder", "remote", "--concurrency", "2", "--out", str(out)])
    assert rc == 0
    posted = [p["input"] for path, p in loopback.seen[seen_before:] if path.endswith("/embeddings")]
    assert [len(texts) for texts in posted] == [6, 6, 2]  # two triples a question, one request per block
    _, traces = read_trace_file(out)
    assert [t.question_id for t in traces] == [f"q{i}" for i in range(7)]
    assert all(t.errors == [] and t.final_answer == "Pac-12" and len(t.hits) == 10 for t in traces)


def test_remote_run_index_provider_id_not_utf8_is_one_error_line(workspace, loopback, capsys):
    # No embedding model is named, so run reads it from the index header.
    rc, index = build_remote_index(workspace, loopback)
    assert rc == 0
    flip_first_byte(index, "the provider id")
    requests_before = len(loopback.seen)
    out = workspace / "remote_run.jsonl"
    rc = main(["run", "--questions", str(workspace / "questions.jsonl"), "--index", str(index),
               "--chunks", str(workspace / "chunks.jsonl"), "--mode", "full", "--provider", "openai",
               "--endpoint", loopback.url, "--model", "chat", "--embedder", "remote", "--out", str(out)])
    assert rc == 1
    assert error_lines(capsys) == [f"error: {index}: the provider id is not UTF-8 (invalid start byte)"]
    assert not out.exists() and len(loopback.seen) == requests_before


def test_readme_remote_run_uses_the_index_embedding_model(workspace, loopback):
    rc, index = build_remote_index(workspace, loopback)
    assert rc == 0
    loopback.routes["/chat/completions"] = lambda payload: chat_reply(ALL_STAGES)
    out = workspace / "readme_run.jsonl"
    rc = main(["run", "--questions", str(workspace / "questions.jsonl"), "--index", str(index),
               "--chunks", str(workspace / "chunks.jsonl"), "--mode", "full", "--provider", "openai",
               "--embedder", "remote", "--endpoint", loopback.url, "--model", "chat",
               "--concurrency", "4", "--out", str(out)])
    assert rc == 0
    _, traces = read_trace_file(out)
    assert traces[0].errors == [] and traces[0].final_answer == "Pac-12"
    assert len(traces[0].retrieval_queries) == 2


def test_live_eval_script_with_embed_model(tmp_path, hotpot_file, loopback):
    loopback.routes["/chat/completions"] = lambda payload: chat_reply(ALL_STAGES)
    script = Path(__file__).resolve().parent.parent / "scripts" / "live_eval.py"
    out = tmp_path / "live"
    proc = subprocess.run(
        [sys.executable, str(script), "--data", str(hotpot_file), "--format", "hotpotqa",
         "--endpoint", loopback.url, "--model", "chat", "--embed-model", "emb", "--out-dir", str(out),
         "--sample-n", "1", "--concurrency", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ran 1 questions (0 with errors)" in proc.stdout
    _, traces = read_trace_file(out / "traces.jsonl")
    assert traces[0].final_answer == "Pac-12"
    assert {p["model"] for path, p in loopback.seen if path.endswith("/embeddings")} == {"emb"}


def _interrupt_workspace(tmp_path, n):
    """A hotpot file of ``n`` questions and scripted replies for every stage."""
    records, fixtures = [], []
    for i in range(n):
        qid, answer = f"q{i}", f"Answer {i}"
        records.append({"_id": qid, "question": f"Which team did player {i} join?", "answer": answer,
                        "context": [[f"Player {i}", [f"Player {i} joined the {answer} club in {1990 + i}."]]],
                        "supporting_facts": [[f"Player {i}", 0]]})
        fixtures += [
            {"stage_tag": "system1", "question_id": qid, "text": f"<answer>{answer}</answer>",
             "token_logprobs": None},
            {"stage_tag": "triple_gen", "question_id": qid,
             "text": f"<triple>Player {i} | joined | {answer}</triple>", "token_logprobs": None},
            {"stage_tag": "system2", "question_id": qid, "text": f"<final_answer>{answer}</final_answer>",
             "token_logprobs": None},
        ]
    data = tmp_path / "many.json"
    data.write_text(json.dumps(records), encoding="utf-8")
    fixture_path = tmp_path / "many_fixtures.jsonl"
    fixture_path.write_text("".join(json.dumps(f) + "\n" for f in fixtures), encoding="utf-8")
    work = tmp_path / "many"
    assert main(["ingest", "--data", str(data), "--format", "hotpotqa", "--out-dir", str(work)]) == 0
    assert main(["build-index", "--chunks", str(work / "chunks.jsonl"), "--out", str(work / "index.bin")]) == 0
    return work, fixture_path


def _interrupted_run(tmp_path, monkeypatch, capsys, concurrency, interrupt_at=8):
    """Run six questions whole, then again with model call ``interrupt_at``
    interrupted. Returns the ``run`` command, the work directory, the
    question id of every call made and the traces the cut run wrote."""
    work, fixtures = _interrupt_workspace(tmp_path, 6)

    def run(out, *extra):
        return main(["run", "--questions", str(work / "questions.jsonl"), "--index", str(work / "index.bin"),
                     "--chunks", str(work / "chunks.jsonl"), "--mode", "full", "--provider", "scripted",
                     "--fixtures", str(fixtures), "--concurrency", str(concurrency), "--out", str(out), *extra])

    assert run(work / "whole.jsonl") == 0
    capsys.readouterr()

    calls, lock = [], threading.Lock()
    original = ScriptedProvider.complete

    def interrupting(self, request):
        with lock:
            calls.append(request.question_id)
            if len(calls) == interrupt_at:
                raise KeyboardInterrupt
        return original(self, request)

    monkeypatch.setattr(ScriptedProvider, "complete", interrupting)
    try:
        rc = run(work / "cut.jsonl")
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped cli.main")
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: interrupted"]
    _, done = read_trace_file(work / "cut.jsonl")
    monkeypatch.setattr(ScriptedProvider, "complete", original)
    return run, work, calls, done


def _resumed_equals_whole(run, work):
    assert run(work / "cut.jsonl", "--resume") == 0

    def without_timing(path):
        header, traces = read_trace_file(path)
        rows = [t.to_json_dict() for t in traces]
        for row in rows:
            row.pop("stage_ms")
        return header["config_hash"], rows

    assert without_timing(work / "cut.jsonl") == without_timing(work / "whole.jsonl")


@pytest.mark.parametrize("concurrency", [1, 2])
def test_interrupted_run_is_one_error_line_and_resumes(tmp_path, monkeypatch, capsys, concurrency):
    # Blocks of two questions (the index has one chunk per question): at
    # concurrency 1, calls 1-6 finish q0 and q1, and call 8 is q2's triple call.
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", 2 * 6)
    run, work, calls, done = _interrupted_run(tmp_path, monkeypatch, capsys, concurrency)
    assert len(done) < 6
    if concurrency == 1:
        assert len(calls) == 8  # no question starts after the interrupt
        assert [t.question_id for t in done] == ["q0", "q1"]
    _resumed_equals_whole(run, work)


def test_interrupt_loses_the_unfinished_block(tmp_path, monkeypatch, capsys):
    # At the default block size the six questions are one block: call 8 is
    # q3's triple call, before any trace of the block is finished.
    run, work, calls, done = _interrupted_run(tmp_path, monkeypatch, capsys, 1)
    assert calls == ["q0", "q0", "q1", "q1", "q2", "q2", "q3", "q3"]
    assert done == []
    _resumed_equals_whole(run, work)


REPORTED_ERRORS = [cli.CliError, corpus.CorpusError, embed_index.EmbedIndexError, GatewayError, PipelineError,
                   EvaluationError]


def test_the_error_base_covers_exactly_the_errors_main_reports():
    assert set(AnchorRagError.__subclasses__()) == set(REPORTED_ERRORS)
    # Each keeps its builtin base, so callers catching ValueError or RuntimeError still catch it.
    assert [next(b for b in error.__mro__ if b.__module__ == "builtins").__name__ for error in REPORTED_ERRORS] == [
        "RuntimeError", "ValueError", "ValueError", "RuntimeError", "RuntimeError", "ValueError"]


@pytest.mark.parametrize("error", [*REPORTED_ERRORS, OSError, PromptParseError, ValueError, KeyError])
def test_main_reports_only_the_package_errors_and_oserror(tmp_path, monkeypatch, capsys, error):
    def failing(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_inspect", failing)
    argv = ["inspect", "--traces", str(tmp_path / "traces.jsonl"), "--question-id", "q"]
    if error in (*REPORTED_ERRORS, OSError):
        assert main(argv) == 1
        assert error_lines(capsys) == ["error: boom"]
    else:
        with pytest.raises(error):
            main(argv)
