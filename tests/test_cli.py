import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from conftest import chat_reply, cut_off, embeddings_reply, reply

from anchor_rag import corpus, embed_index
from anchor_rag.cli import main
from anchor_rag.corpus import (
    Chunk,
    build_corpus,
    load_dataset,
    read_chunk_manifest,
    read_question_file,
    write_chunk_manifest,
)
from anchor_rag.llm_gateway import ScriptedProvider
from anchor_rag.pipeline import read_trace_file

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
    write_chunk_manifest(build_corpus(docs), reference, chunk_size=400, stride=50, tokenizer_id="wordpunct-v1")
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


@pytest.mark.parametrize(
    "name, body, flag, expected",
    [
        ("fixtures.jsonl", '{"stage_tag": "system1", "question_id": "q", "text": "x"}\n{not json\n', "--fixtures",
         "line 2: "),
        ("fixtures.jsonl", '{"stage_tag": "system1", "text": "<answer>x</answer>"}\n', "--fixtures",
         "line 1: missing key 'question_id'"),
        ("fixtures.jsonl", '[1, 2]\n', "--fixtures", "line 1: "),
        ("config.json", '{"mode": "system1_only",\n', "--config", "not a JSON config"),
        ("config.json", '["system1_only"]\n', "--config", "not a JSON config"),
    ],
    ids=["fixtures_bad_json", "fixtures_missing_key", "fixtures_not_object", "config_bad_json", "config_not_object"],
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
        ({"chat_provider": "scripted"}, "{path}: config chat_provider must be an object"),
        ({"embed_provider": ["hashing"]}, "{path}: config embed_provider must be an object"),
    ],
    ids=["k_str", "k_bool", "tau_str", "limits_int", "limits_list", "limit_str", "limit_unknown_key",
         "chat_provider_str", "embed_provider_list"],
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
    assert error_lines(capsys) == ["error: unknown query style 'bogus'; expected one of ('space', 'pipe')"]
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
    # the decode of batch 3 while the server holds batch 4 for 3 s.
    chunks = [Chunk(chunk_id=f"c{i:04d}", doc_id=f"d{i:04d}", start_token=0, end_token=3, text=f"chunk number {i}",
                    token_count=3, tokenizer_id="wordpunct-v1", title=f"Doc {i}") for i in range(768)]
    manifest = tmp_path / "chunks.jsonl"
    write_chunk_manifest(chunks, manifest, chunk_size=100, stride=0, tokenizer_id="wordpunct-v1")
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
    assert len(loopback.seen) == 4  # nothing after the batch in flight


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


@pytest.mark.parametrize("concurrency", [1, 2])
def test_interrupted_run_is_one_error_line_and_resumes(tmp_path, monkeypatch, capsys, concurrency):
    work, fixtures = _interrupt_workspace(tmp_path, 6)

    def run(out, *extra):
        return main(["run", "--questions", str(work / "questions.jsonl"), "--index", str(work / "index.bin"),
                     "--chunks", str(work / "chunks.jsonl"), "--mode", "full", "--provider", "scripted",
                     "--fixtures", str(fixtures), "--concurrency", str(concurrency), "--out", str(out), *extra])

    assert run(work / "whole.jsonl") == 0
    capsys.readouterr()

    calls, lock, interrupt_at = [], threading.Lock(), 8
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
    assert len(done) < 6
    if concurrency == 1:
        assert len(calls) == interrupt_at  # no question starts after the interrupt
        assert [t.question_id for t in done] == ["q0", "q1"]

    monkeypatch.setattr(ScriptedProvider, "complete", original)
    assert run(work / "cut.jsonl", "--resume") == 0

    def without_timing(path):
        header, traces = read_trace_file(path)
        rows = [t.to_json_dict() for t in traces]
        for row in rows:
            row.pop("stage_ms")
        return header["config_hash"], rows

    assert without_timing(work / "cut.jsonl") == without_timing(work / "whole.jsonl")
