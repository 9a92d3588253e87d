import dataclasses
import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from anchor_rag import pipeline
from anchor_rag.corpus import Document, QAItem, build_corpus
from anchor_rag.embed_index import EmbedIndexError, HashingEmbedder, Index, retrieve_for_queries
from anchor_rag.llm_gateway import ScriptedProvider
from anchor_rag.pipeline import Pipeline
from anchor_rag.traces import (
    MODES,
    PipelineError,
    PipelineTrace,
    ReasoningTriple,
    RetrievalHit,
    RunConfig,
    StageTokenLimits,
    decide_gate,
    read_trace_file,
)

DATA = Path(__file__).parent / "data"

BANNAN_TRIPLES = [
    ReasoningTriple("Justin_Bannan", "played_college_football_for", "Penn_State_Nittany_Lions"),
    ReasoningTriple("Penn_State_Nittany_Lions", "current_conference_member_of", "Big_Ten_Conference"),
]


class RecordingProvider:
    """Wraps a provider and keeps every request for prompt inspection."""

    def __init__(self, inner):
        self.inner = inner
        self.provider_id = inner.provider_id
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self.inner.complete(request)


def make_pipeline(provider, bannan_index, bannan_chunks, mode="full", **cfg):
    config = RunConfig(mode=mode, **cfg)
    return Pipeline(provider, config, index=bannan_index, chunks=bannan_chunks)


# --- config -----------------------------------------------------------------


def test_config_validates_mode_and_limits():
    with pytest.raises(PipelineError):
        RunConfig(mode="turbo")
    with pytest.raises(PipelineError):
        StageTokenLimits(system1=128, system2=64)
    with pytest.raises(PipelineError):
        RunConfig(k_per_triple=0)
    with pytest.raises(PipelineError):
        RunConfig(confidence_threshold=-0.5)


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: RunConfig(temperature=-1), "config temperature must be finite and >= 0, got -1"),
        (lambda: RunConfig(temperature=math.nan), "config temperature must be finite and >= 0, got nan"),
        (lambda: RunConfig(temperature=math.inf), "config temperature must be finite and >= 0, got inf"),
        (lambda: RunConfig(confidence_threshold=math.nan), "config confidence_threshold must be finite and >= 0, got nan"),
        (lambda: RunConfig(confidence_threshold=-math.inf), "config confidence_threshold must be finite and >= 0, got -inf"),
        (lambda: StageTokenLimits(system1=0), "stage token limits must be >= 1"),
        (lambda: StageTokenLimits(triple_gen=0), "stage token limits must be >= 1"),
    ],
    ids=["temperature_negative", "temperature_nan", "temperature_inf", "tau_nan", "tau_minus_inf", "system1_zero",
         "triple_gen_zero"],
)
def test_config_refuses_bad_temperature_tau_and_limits(make, expected):
    with pytest.raises(PipelineError) as err:
        make()
    assert str(err.value) == expected


def test_config_accepts_zero_and_integer_temperature_and_tau():
    config = RunConfig(temperature=0, confidence_threshold=0)
    assert (config.temperature, config.confidence_threshold) == (0, 0)
    assert RunConfig(temperature=0.7, confidence_threshold=None).temperature == 0.7


def test_config_round_trip_and_hash():
    config = RunConfig(mode="threshold_gated", confidence_threshold=0.05, limits=StageTokenLimits(32, 128, 512))
    clone = RunConfig.from_dict(config.to_dict())
    assert clone == config
    assert clone.config_hash() == config.config_hash()
    assert RunConfig(mode="full").config_hash() != config.config_hash()


def test_config_rejects_unknown_keys():
    with pytest.raises(PipelineError):
        RunConfig.from_dict({"mode": "full", "typo_field": 1})


def test_pipeline_requires_index_for_retrieval_modes(scripted_provider):
    with pytest.raises(PipelineError):
        Pipeline(scripted_provider, RunConfig(mode="full"))
    Pipeline(scripted_provider, RunConfig(mode="system1_only"))  # fine without index


def test_pipeline_rejects_index_manifest_mismatch(scripted_provider, bannan_index, bannan_chunks):
    with pytest.raises(PipelineError) as err:
        Pipeline(scripted_provider, RunConfig(mode="full"), index=bannan_index, chunks=bannan_chunks[:-2])
    assert "out of sync" in str(err.value)


# --- gate ------------------------------------------------------------------


def test_decide_gate_rules():
    assert decide_gate(None, 0.05) == "continue"
    assert decide_gate(0.9, None) == "continue"
    assert decide_gate(0.05, 0.05) == "complete"
    assert decide_gate(0.0499, 0.05) == "continue"
    assert decide_gate(0.0, 0.0) == "complete"


# --- stage behavior over the golden fixtures -----------------------------------


def new_trace(q, mode="full", **fields):
    """An empty trace for ``q``, with earlier stages' results given as fields."""
    return PipelineTrace(q.question_id, q.question, q.gold_answer, q.dataset_tag, mode, **fields)


def test_answer_system1_bannan(scripted_provider, bannan_index, bannan_chunks, golden_questions):
    pipe = make_pipeline(scripted_provider, bannan_index, bannan_chunks)
    trace = new_trace(golden_questions["bannan-conference"])
    pipe.answer_system1(golden_questions["bannan-conference"], trace)
    assert trace.system1_answer == "Big Ten Conference"
    expected_conf = (math.exp(-0.9) + math.exp(-1.2) + math.exp(-0.7)) / 3
    assert trace.confidence == pytest.approx(expected_conf)
    assert "system1_malformed" not in trace.flags and "system1_empty" not in trace.flags
    assert trace.usage["system1"].prompt_tokens > 0


def test_answer_system1_unity(scripted_provider, bannan_index, bannan_chunks, golden_questions):
    pipe = make_pipeline(scripted_provider, bannan_index, bannan_chunks)
    trace = new_trace(golden_questions["ac-london"])
    pipe.answer_system1(golden_questions["ac-london"], trace)
    assert trace.system1_answer == "Unity"
    assert trace.confidence == pytest.approx(math.exp(-1.6))


def test_generate_triples_bannan(scripted_provider, bannan_index, bannan_chunks, golden_questions):
    pipe = make_pipeline(scripted_provider, bannan_index, bannan_chunks)
    q = golden_questions["bannan-conference"]
    trace = new_trace(q, system1_answer="Big Ten Conference")
    pipe.generate_triples(q, trace)
    assert trace.triples == BANNAN_TRIPLES
    assert "triples_malformed" not in trace.flags


def test_generate_triples_garbage_output(bannan_index, bannan_chunks, golden_questions):
    provider = ScriptedProvider()
    provider.add("triple_gen", "bannan-conference", "<triple>broken</triple> and nothing else")
    pipe = make_pipeline(provider, bannan_index, bannan_chunks)
    q = golden_questions["bannan-conference"]
    trace = new_trace(q, system1_answer="Big Ten Conference")
    pipe.generate_triples(q, trace)
    assert trace.triples == [] and trace.flags["triples_malformed"] == 1


def test_gather_evidence_uses_triples(scripted_provider, bannan_index, bannan_chunks, golden_questions):
    pipe = make_pipeline(scripted_provider, bannan_index, bannan_chunks)
    q = golden_questions["bannan-conference"]
    trace = new_trace(q, triples=list(BANNAN_TRIPLES))
    pipe.gather_evidence(q, trace)
    assert "fallback_question_query" not in trace.flags
    assert trace.retrieval_queries == [
        "Justin_Bannan played_college_football_for Penn_State_Nittany_Lions",
        "Penn_State_Nittany_Lions current_conference_member_of Big_Ten_Conference",
    ]
    assert "doc01:0" in trace.retrieved_chunks and "doc08:0" in trace.retrieved_chunks
    assert len(trace.retrieved_chunks) == len(set(trace.retrieved_chunks))


def test_gather_evidence_question_fallback(scripted_provider, bannan_index, bannan_chunks, golden_questions):
    pipe = make_pipeline(scripted_provider, bannan_index, bannan_chunks)
    q = golden_questions["bannan-conference"]
    trace = new_trace(q)
    pipe.gather_evidence(q, trace)
    assert trace.flags["fallback_question_query"]
    assert trace.retrieval_queries == [q.question]
    assert len(trace.retrieved_chunks) == 5


def test_answer_system2_bannan(scripted_provider, bannan_index, bannan_chunks, golden_questions):
    pipe = make_pipeline(scripted_provider, bannan_index, bannan_chunks)
    q = golden_questions["bannan-conference"]
    ids = [c.chunk_id for c in bannan_chunks]
    trace = new_trace(q, system1_answer="Big Ten Conference", triples=list(BANNAN_TRIPLES), retrieved_chunks=ids)
    pipe.answer_system2(q, trace)
    assert trace.final_answer == "Pac-12 Conference"
    assert "final_malformed" not in trace.flags and "final_fell_back_to_hypothesis" not in trace.flags


def test_answer_system2_falls_back_to_hypothesis(bannan_index, bannan_chunks, golden_questions):
    provider = ScriptedProvider()  # no system2 fixture -> gateway error
    pipe = make_pipeline(provider, bannan_index, bannan_chunks)
    q = golden_questions["bannan-conference"]
    trace = new_trace(
        q, system1_answer="Big Ten Conference", triples=list(BANNAN_TRIPLES), retrieved_chunks=["doc01:0"]
    )
    pipe.answer_system2(q, trace)
    assert trace.final_answer == "Big Ten Conference"
    assert trace.flags["final_fell_back_to_hypothesis"]
    assert trace.errors


def test_answer_system2_no_anchor_records_empty(bannan_index, bannan_chunks, golden_questions):
    provider = ScriptedProvider()
    pipe = make_pipeline(provider, bannan_index, bannan_chunks, mode="no_initial_reasoning")
    q = golden_questions["bannan-conference"]
    trace = new_trace(q, "no_initial_reasoning", system1_answer="Big Ten Conference", retrieved_chunks=["doc01:0"])
    pipe.answer_system2(q, trace, include_anchor=False)
    assert trace.final_answer == "" and trace.flags["final_empty"]


# --- run_question per mode ---------------------------------------------------------


def test_full_mode_golden_trace(scripted_provider, bannan_index, bannan_chunks, golden_questions):
    pipe = make_pipeline(scripted_provider, bannan_index, bannan_chunks)
    trace = pipe.run_question(golden_questions["bannan-conference"])
    assert trace.system1_answer == "Big Ten Conference"
    assert trace.triples == BANNAN_TRIPLES
    assert "doc01:0" in trace.retrieved_chunks and "doc08:0" in trace.retrieved_chunks
    assert trace.final_answer == "Pac-12 Conference"
    assert trace.gate_decision == "ungated"
    assert trace.payload_tokens == sum(
        c.token_count for c in bannan_chunks if c.chunk_id in set(trace.retrieved_chunks)
    )
    assert set(trace.usage) == {"system1", "triple_gen", "system2"}
    assert trace.errors == []


def test_full_mode_prompt_contains_every_retrieved_chunk(
    scripted_provider, bannan_index, bannan_chunks, golden_questions
):
    recorder = RecordingProvider(scripted_provider)
    pipe = make_pipeline(recorder, bannan_index, bannan_chunks)
    trace = pipe.run_question(golden_questions["bannan-conference"])
    stages = [r.stage_tag for r in recorder.requests]
    assert stages == ["system1", "triple_gen", "system2"]  # retrieval never precedes triple gen
    system2_prompt = recorder.requests[-1].user_prompt
    chunk_map = {c.chunk_id: c for c in bannan_chunks}
    for cid in trace.retrieved_chunks:
        assert chunk_map[cid].text in system2_prompt


def test_system1_only_mode(scripted_provider, bannan_index, bannan_chunks, golden_questions):
    pipe = make_pipeline(scripted_provider, bannan_index, bannan_chunks, mode="system1_only")
    trace = pipe.run_question(golden_questions["bannan-conference"])
    assert trace.final_answer == trace.system1_answer == "Big Ten Conference"
    assert trace.retrieved_chunks == [] and trace.payload_tokens == 0
    assert trace.triples == []


def test_no_initial_reasoning_mode_hides_anchor(scripted_provider, bannan_index, bannan_chunks, golden_questions):
    recorder = RecordingProvider(scripted_provider)
    pipe = make_pipeline(recorder, bannan_index, bannan_chunks, mode="no_initial_reasoning")
    trace = pipe.run_question(golden_questions["bannan-conference"])
    system2_requests = [r for r in recorder.requests if r.stage_tag.startswith("system2")]
    assert len(system2_requests) == 1
    request = system2_requests[0]
    assert request.stage_tag == "system2_noanchor"
    assert "Initial Guess" not in request.user_prompt
    assert "Initial Reasoning" not in request.user_prompt
    # triples are still generated and still steer retrieval
    assert trace.triples == BANNAN_TRIPLES
    assert trace.retrieved_chunks
    assert trace.final_answer == "Pac-12 Conference"


def test_standard_rag_mode(bannan_index, bannan_chunks, golden_questions):
    provider = ScriptedProvider()
    provider.add("standard_rag", "bannan-conference", "<output><answer>Big 12 Conference</answer></output>")
    recorder = RecordingProvider(provider)
    pipe = make_pipeline(recorder, bannan_index, bannan_chunks, mode="standard_rag")
    q = golden_questions["bannan-conference"]
    trace = pipe.run_question(q)
    assert trace.retrieval_queries == [q.question]
    assert len(trace.retrieved_chunks) == 5
    assert trace.final_answer == "Big 12 Conference"
    assert trace.system1_answer == "" and trace.triples == []
    assert recorder.requests[0].stage_tag == "standard_rag"


def test_empty_system1_uses_unknown_sentinel(bannan_index, bannan_chunks, golden_questions):
    provider = ScriptedProvider()
    provider.add("system1", "bannan-conference", "<output></output>")
    provider.add("triple_gen", "bannan-conference", "<triple>Justin_Bannan | played_for | Colorado</triple>")
    provider.add("system2", "bannan-conference", "<final_answer>Colorado</final_answer>")
    recorder = RecordingProvider(provider)
    pipe = make_pipeline(recorder, bannan_index, bannan_chunks)
    trace = pipe.run_question(golden_questions["bannan-conference"])
    assert trace.flags.get("system1_empty")
    triple_request = next(r for r in recorder.requests if r.stage_tag == "triple_gen")
    assert "Answer: unknown" in triple_request.user_prompt
    assert trace.final_answer == "Colorado"


def test_question_never_aborts_run(bannan_index, bannan_chunks, golden_questions):
    pipe = make_pipeline(ScriptedProvider(), bannan_index, bannan_chunks)  # no fixtures at all
    trace = pipe.run_question(golden_questions["bannan-conference"])
    assert trace.errors
    assert trace.flags.get("fallback_question_query")
    assert trace.final_answer == "unknown"  # hypothesis sentinel fallback


# --- threshold gating ---------------------------------------------------------------


def threshold_provider(confidences: dict[str, float]) -> ScriptedProvider:
    provider = ScriptedProvider()
    for qid, logprob in confidences.items():
        provider.add(
            "system1",
            qid,
            "<answer>Colorado</answer>",
            [["<answer>", -0.001], ["Colorado", logprob], ["</answer>", -0.001]],
        )
        provider.add("triple_gen", qid, "<triple>Justin_Bannan | played_for | Colorado</triple>")
        provider.add("system2", qid, "<final_answer>Pac-12 Conference</final_answer>")
    return provider


def threshold_items(qids):
    return [
        QAItem(question_id=qid, question="Which conference for Justin Bannan's college team?", gold_answer="Pac-12 Conference", dataset_tag="2wiki")
        for qid in qids
    ]


def test_threshold_complete_keeps_system1_answer(bannan_index, bannan_chunks):
    provider = threshold_provider({"qa": -2.0})
    # single answer token at exp(-2.0) ~ 0.135 >= 0.05
    pipe = Pipeline(
        provider,
        RunConfig(mode="threshold_gated", confidence_threshold=0.05),
        index=bannan_index,
        chunks=bannan_chunks,
    )
    trace = pipe.run_question(threshold_items(["qa"])[0])
    assert trace.gate_decision == "complete"
    assert trace.final_answer == "Colorado"
    assert "system2" not in trace.usage  # deliberate pass never sent
    assert trace.triples  # but triples and retrieval still ran
    assert trace.retrieved_chunks
    assert trace.saved_input_tokens > 0


def test_threshold_complete_savings_match_recount(bannan_index, bannan_chunks):
    from anchor_rag.prompt_kit import render_system2
    from anchor_rag.corpus import DEFAULT_TOKENIZER

    provider = threshold_provider({"qa": -2.0})
    pipe = Pipeline(
        provider,
        RunConfig(mode="threshold_gated", confidence_threshold=0.05),
        index=bannan_index,
        chunks=bannan_chunks,
    )
    item = threshold_items(["qa"])[0]
    trace = pipe.run_question(item)
    chunk_map = {c.chunk_id: c for c in bannan_chunks}
    prompt = render_system2(
        item,
        trace.system1_answer,
        trace.triples,
        [chunk_map[cid] for cid in trace.retrieved_chunks],
        include_anchor=True,
    )
    recount = DEFAULT_TOKENIZER.count(prompt.system_text) + DEFAULT_TOKENIZER.count(prompt.user_text)
    assert trace.saved_input_tokens == recount


def test_threshold_continue_runs_system2(bannan_index, bannan_chunks):
    provider = threshold_provider({"qb": -4.0})  # exp(-4) ~ 0.018 < 0.05
    pipe = Pipeline(
        provider,
        RunConfig(mode="threshold_gated", confidence_threshold=0.05),
        index=bannan_index,
        chunks=bannan_chunks,
    )
    trace = pipe.run_question(threshold_items(["qb"])[0])
    assert trace.gate_decision == "continue"
    assert trace.final_answer == "Pac-12 Conference"
    assert "system2" in trace.usage
    assert trace.saved_input_tokens == 0


def test_threshold_disabled_tau_continues_everything(bannan_index, bannan_chunks):
    provider = threshold_provider({"qa": -0.001})
    pipe = Pipeline(
        provider,
        RunConfig(mode="threshold_gated", confidence_threshold=None),
        index=bannan_index,
        chunks=bannan_chunks,
    )
    trace = pipe.run_question(threshold_items(["qa"])[0])
    assert trace.gate_decision == "continue"


def test_threshold_unavailable_confidence_continues(bannan_index, bannan_chunks):
    provider = ScriptedProvider()
    provider.add("system1", "qa", "<answer>Colorado</answer>")  # no logprobs
    provider.add("triple_gen", "qa", "<triple>Justin_Bannan | played_for | Colorado</triple>")
    provider.add("system2", "qa", "<final_answer>Pac-12 Conference</final_answer>")
    pipe = Pipeline(
        provider,
        RunConfig(mode="threshold_gated", confidence_threshold=0.05),
        index=bannan_index,
        chunks=bannan_chunks,
    )
    trace = pipe.run_question(threshold_items(["qa"])[0])
    assert trace.confidence is None
    assert trace.gate_decision == "continue"
    assert trace.final_answer == "Pac-12 Conference"


def test_gate_monotone_over_thresholds(bannan_index, bannan_chunks):
    confidences = {"q-sure": 0.0, "q-mid": -2.4, "q-low": -4.0}
    items = threshold_items(confidences)
    previous: set[str] | None = None
    for tau in (1.0, 0.1, 0.05, 0.01, 0.0):
        provider = threshold_provider(confidences)
        pipe = Pipeline(
            provider,
            RunConfig(mode="threshold_gated", confidence_threshold=tau),
            index=bannan_index,
            chunks=bannan_chunks,
        )
        complete_set = {t.question_id for t in map(pipe.run_question, items) if t.gate_decision == "complete"}
        if previous is not None:
            assert previous <= complete_set  # lowering tau never shrinks the set
        previous = complete_set
    assert previous == set(confidences)  # tau = 0 marks everything complete


# --- traces ---------------------------------------------------------------------


def test_trace_serialization_round_trip(scripted_provider, bannan_index, bannan_chunks, golden_questions):
    pipe = make_pipeline(scripted_provider, bannan_index, bannan_chunks)
    trace = pipe.run_question(golden_questions["bannan-conference"])
    clone = PipelineTrace.from_json_dict(json.loads(json.dumps(trace.to_json_dict())))
    assert clone == trace


def test_run_dataset_writes_sorted_traces(tmp_path, scripted_provider, bannan_index, bannan_chunks, golden_questions):
    pipe = make_pipeline(scripted_provider, bannan_index, bannan_chunks, mode="system1_only")
    items = list(golden_questions.values())
    path = tmp_path / "traces.jsonl"
    traces = pipe.run_dataset(items, trace_path=path)
    assert [t.question_id for t in traces] == sorted(q.question_id for q in items)
    header, loaded = read_trace_file(path)
    assert header["config"]["mode"] == "system1_only"
    assert loaded == traces


def test_run_dataset_resume_skips_done(tmp_path, bannan_index, bannan_chunks):
    confidences = {f"q{i:02d}": -2.0 for i in range(6)}
    items = threshold_items(confidences)
    path = tmp_path / "traces.jsonl"

    def fresh_pipeline():
        provider = RecordingProvider(threshold_provider(confidences))
        pipe = Pipeline(
            provider,
            RunConfig(mode="threshold_gated", confidence_threshold=0.05),
            index=bannan_index,
            chunks=bannan_chunks,
        )
        return pipe, provider

    pipe, _ = fresh_pipeline()
    first_half = pipe.run_dataset(items[:3], trace_path=path)
    assert len(first_half) == 3

    pipe, recorder = fresh_pipeline()
    complete_traces = pipe.run_dataset(items, trace_path=path, resume=True)
    assert [t.question_id for t in complete_traces] == sorted(confidences)
    rerun_ids = {r.question_id for r in recorder.requests}
    assert rerun_ids == {"q03", "q04", "q05"}  # no duplicates for the finished prefix
    _, loaded = read_trace_file(path)
    assert len(loaded) == 6


def trace_lines_without_timing(path):
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for row in rows[1:]:
        row.pop("stage_ms")
    return rows


@pytest.mark.parametrize("cut", [40, 1], ids=["torn_line", "newline_only"])
def test_run_dataset_resume_after_torn_last_line(tmp_path, bannan_index, bannan_chunks, caplog, cut):
    confidences = {f"q{i:02d}": -2.0 if i % 2 else -9.0 for i in range(5)}
    items = threshold_items(confidences)

    def fresh_pipeline():
        provider = RecordingProvider(threshold_provider(confidences))
        config = RunConfig(mode="threshold_gated", confidence_threshold=0.05)
        return Pipeline(provider, config, index=bannan_index, chunks=bannan_chunks), provider

    whole = tmp_path / "whole.jsonl"
    fresh_pipeline()[0].run_dataset(items, trace_path=whole)
    # a crash while writing the third trace: header plus three lines, cut short
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(b"".join(whole.read_bytes().splitlines(keepends=True)[:4])[:-cut])

    pipe, recorder = fresh_pipeline()
    with caplog.at_level("WARNING"):
        traces = pipe.run_dataset(items, trace_path=torn, resume=True)
    assert [t.question_id for t in traces] == sorted(confidences)
    rerun = {r.question_id for r in recorder.requests}
    if cut == 1:  # the third trace is whole and only its newline is missing
        assert rerun == {"q03", "q04"} and "torn" not in caplog.text
    else:
        assert rerun == {"q02", "q03", "q04"} and "dropping torn last line 4" in caplog.text
    assert trace_lines_without_timing(torn) == trace_lines_without_timing(whole)


def test_read_trace_file_rejects_corrupt_inner_line(tmp_path, scripted_provider, bannan_index, bannan_chunks, golden_questions):
    pipe = make_pipeline(scripted_provider, bannan_index, bannan_chunks, mode="system1_only")
    path = tmp_path / "traces.jsonl"
    pipe.run_dataset(list(golden_questions.values()), trace_path=path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) >= 3
    lines[1] = lines[1][:-40] + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(PipelineError, match="line 2 is not a valid trace"):
        read_trace_file(path)
    with pytest.raises(PipelineError, match="line 2"):
        pipe.run_dataset(list(golden_questions.values()), trace_path=path, resume=True)


def snapshot_trace_file(tmp_path, drop: str = "", **changes):
    """The committed full-mode snapshot header and one trace line, without
    ``drop`` and with ``changes``."""
    rows = [json.loads(line) for line in (DATA / "trace_snapshot.jsonl").read_text(encoding="utf-8").splitlines()]
    header, line = [r for r in rows if r["case"] == "fixtures/full" and r.get("question_id") in (None, "bannan-conference")]
    # The snapshot blanks its stage times; a trace file holds numbers there.
    line["stage_ms"] = dict.fromkeys(line["stage_ms"], 1.5)
    full = PipelineTrace.from_json_dict(line)
    line = {**{k: v for k, v in line.items() if k != drop}, **changes}
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(line) + "\n", encoding="utf-8")
    return path, full


TRACE_FIELDS = dataclasses.fields(PipelineTrace)
DEFAULTED = [f for f in TRACE_FIELDS if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING]


@pytest.mark.parametrize("field", DEFAULTED, ids=[f.name for f in DEFAULTED])
def test_trace_line_without_a_defaulted_field_loads_with_the_default(tmp_path, field):
    path, full = snapshot_trace_file(tmp_path, field.name)
    _, (trace,) = read_trace_file(path)
    default = field.default if field.default is not dataclasses.MISSING else field.default_factory()
    assert getattr(trace, field.name) == default
    assert dataclasses.replace(trace, **{field.name: getattr(full, field.name)}) == full


@pytest.mark.parametrize("name", [f.name for f in TRACE_FIELDS if f not in DEFAULTED])
def test_trace_line_without_a_required_field_is_refused(tmp_path, name):
    path, _ = snapshot_trace_file(tmp_path, name)
    with pytest.raises(PipelineError, match=f"line 2 is not a valid trace: .*'{name}'"):
        read_trace_file(path)


@pytest.mark.parametrize(
    "name, value, expected",
    [
        ("final_answer", 5, "str, got int 5"),
        ("question_id", None, "str, got NoneType None"),
        ("gate_decision", ["complete"], "str, got list ['complete']"),
        ("payload_tokens", "many", "int, got str 'many'"),
        ("payload_tokens", True, "int, got bool True"),
        ("saved_input_tokens", 1.5, "int, got float 1.5"),
        ("confidence", "high", "float or null, got str 'high'"),
        ("mean_answer_logprob", False, "float or null, got bool False"),
    ],
    ids=["final_answer_int", "question_id_null", "gate_decision_list", "payload_tokens_str", "payload_tokens_bool",
         "saved_input_tokens_float", "confidence_str", "mean_answer_logprob_bool"],
)
def test_trace_line_with_a_field_of_the_wrong_type_is_refused(tmp_path, name, value, expected):
    path, _ = snapshot_trace_file(tmp_path, **{name: value})
    with pytest.raises(PipelineError) as err:
        read_trace_file(path)
    assert str(err.value) == f"{path}: line 2 is not a valid trace: trace {name} must be {expected}"


@pytest.mark.parametrize(
    "name, value, expected",
    [
        ("hits", [{"chunk_id": 7, "score": "high", "query_index": None}], "hit chunk_id must be str, got int 7"),
        ("hits", [{"chunk_id": "doc01:0", "score": "high", "query_index": 0}],
         "hit score must be float, got str 'high'"),
        ("hits", [{"chunk_id": "doc01:0", "score": 0.5, "query_index": None}],
         "hit query_index must be int, got NoneType None"),
        ("usage", {"system1": {"prompt_tokens": "12", "completion_tokens": 3}},
         "usage system1 prompt_tokens must be int, got str '12'"),
        ("usage", {"system2": {"prompt_tokens": 12, "completion_tokens": True}},
         "usage system2 completion_tokens must be int, got bool True"),
        ("stage_ms", {"system1": "fast"}, "stage_ms system1 must be float, got str 'fast'"),
        ("stage_ms", {"retrieval": None}, "stage_ms retrieval must be float, got NoneType None"),
        ("stage_ms", [1.5], "stage_ms must be dict, got list [1.5]"),
        ("retrieved_chunks", [5], "retrieved_chunks[0] must be str, got int 5"),
        ("retrieval_queries", "a query", "retrieval_queries must be list, got str 'a query'"),
        ("errors", ["system1: down", None], "errors[1] must be str, got NoneType None"),
        ("flags", {"x": "y"}, "flags x must be int or bool, got str 'y'"),
        ("flags", ["system1_empty"], "flags must be dict, got list ['system1_empty']"),
        ("triples", [[1, "p", "o"]], "triples[0] subject must be str, got int 1"),
        ("triples", [["s", "p", "o"], ["s", ["p"], "o"]], "triples[1] predicate must be str, got list ['p']"),
        ("triples", [["a", "b"]], "triples[0] must be [subject, predicate, object], got ['a', 'b']"),
        ("triples", 5, "triples must be list, got int 5"),
        ("triples", ["s p o"], "triples[0] must be list, got str 's p o'"),
        ("hits", [5], "hits[0] must be dict, got int 5"),
        ("hits", {"chunk_id": "doc01:0"}, "hits must be list, got dict {'chunk_id': 'doc01:0'}"),
        ("hits", [{"chunk_id": "doc01:0", "score": 0.5}],
         "hits[0] must have the keys chunk_id, score, query_index, got chunk_id, score"),
        ("hits", [{"chunk_id": "doc01:0", "score": 0.5, "query_index": 0, "rank": 1}],
         "hits[0] must have the keys chunk_id, score, query_index, got chunk_id, score, query_index, rank"),
        ("usage", [], "usage must be dict, got list []"),
        ("usage", {"system1": [12, 3]}, "usage system1 must be dict, got list [12, 3]"),
    ],
    ids=["hit_chunk_id_int", "hit_score_str", "hit_query_index_null", "usage_prompt_tokens_str",
         "usage_completion_tokens_bool", "stage_ms_str", "stage_ms_null", "stage_ms_list", "retrieved_chunk_int",
         "retrieval_queries_str", "error_null", "flag_str", "flags_list", "triple_subject_int",
         "triple_predicate_list", "triple_of_two", "triples_int", "triple_str", "hit_int", "hits_dict",
         "hit_without_query_index", "hit_extra_key", "usage_list", "usage_stage_list"],
)
def test_trace_line_with_a_nested_field_of_the_wrong_type_is_refused(tmp_path, name, value, expected):
    path, _ = snapshot_trace_file(tmp_path, **{name: value})
    with pytest.raises(PipelineError) as err:
        read_trace_file(path)
    assert str(err.value) == f"{path}: line 2 is not a valid trace: trace {expected}"


def test_trace_line_nested_numbers_may_be_integers(tmp_path):
    hits = [{"chunk_id": "doc01:0", "score": 1, "query_index": 0}]
    path, full = snapshot_trace_file(tmp_path, hits=hits, stage_ms={"system1": 3})
    _, (trace,) = read_trace_file(path)
    assert trace == dataclasses.replace(full, hits=[RetrievalHit("doc01:0", 1, 0)], stage_ms={"system1": 3})


@pytest.mark.parametrize("value", [None, 1, 0.25])
def test_trace_line_confidence_may_be_null_or_any_number(tmp_path, value):
    path, full = snapshot_trace_file(tmp_path, confidence=value)
    _, (trace,) = read_trace_file(path)
    assert trace == dataclasses.replace(full, confidence=value)


def test_run_dataset_resume_rejects_other_config(tmp_path, scripted_provider, bannan_index, bannan_chunks, golden_questions):
    items = list(golden_questions.values())
    path = tmp_path / "traces.jsonl"
    pipe = make_pipeline(scripted_provider, bannan_index, bannan_chunks, mode="system1_only")
    pipe.run_dataset(items, trace_path=path)
    other = make_pipeline(scripted_provider, bannan_index, bannan_chunks, mode="system1_only", k_per_triple=3)
    with pytest.raises(PipelineError):
        other.run_dataset(items, trace_path=path, resume=True)


@pytest.mark.parametrize("mode", MODES)
def test_run_dataset_concurrent(tmp_path, monkeypatch, bannan_index, bannan_chunks, mode):
    # Blocks of three (of one in system1_only), so concurrency 4 runs
    # across block edges.
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", 3 * len(bannan_index))
    confidences = {f"q{i:02d}": -2.0 if i % 2 else -4.0 for i in range(8)}
    items = threshold_items(confidences)
    provider = threshold_provider(confidences)
    for qid in confidences:
        provider.add("system2_noanchor", qid, "<final_answer>Pac-12</final_answer>")
        provider.add("standard_rag", qid, "<output><answer>Pac-12 Conference</answer></output>")
    runs = []
    for concurrency in (1, 4):
        config = RunConfig(
            mode=mode, confidence_threshold=0.05 if mode == "threshold_gated" else None, concurrency=concurrency
        )
        path = tmp_path / f"traces_{concurrency}.jsonl"
        traces = Pipeline(provider, config, index=bannan_index, chunks=bannan_chunks).run_dataset(items, trace_path=path)
        assert [t.question_id for t in traces] == sorted(confidences)
        assert all(t.errors == [] for t in traces)
        runs.append((without_timing(traces), trace_lines_without_timing(path)[1:]))
    assert runs[0] == runs[1]
    assert [row["question_id"] for row in runs[1][1]] == sorted(confidences)
    if mode == "threshold_gated":
        assert {row["gate_decision"] for row in runs[1][1]} == {"complete", "continue"}


def test_read_trace_file_rejects_other_schema(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text('{"kind": "trace_file", "schema_version": 99}\n', encoding="utf-8")
    with pytest.raises(PipelineError):
        read_trace_file(path)


# --- standard_rag retrieval in blocks --------------------------------------------


class CountingEmbedder:
    """Wraps an embedder, keeps the size of every batch, and raises on the
    calls numbered (from 1) in ``fail_on``."""

    def __init__(self, inner, fail_on=()):
        self.inner = inner
        self.provider_id = inner.provider_id
        self.fail_on = fail_on
        self.batches = []

    def embed_batch(self, texts):
        self.batches.append(len(texts))
        if len(self.batches) in self.fail_on:
            raise EmbedIndexError("embedding request failed: endpoint down")
        return self.inner.embed_batch(texts)


ROWS = 40
WORLD_WORDS = "river castle falcon harbor cedar summit marble quill anchor canyon lagoon orchid".split()


def tied_world(fail_on=()):
    """A seeded random index of ``ROWS`` rows drawn from 12 distinct unit
    vectors, so scores tie exactly, with its chunks and ten questions."""
    rng = np.random.default_rng(11)
    docs = [Document(doc_id=f"d{i:02d}", title=f"Title {i}", text=f"Passage {i} text.") for i in range(ROWS)]
    chunks = build_corpus(docs)
    distinct = rng.standard_normal((12, 16))
    distinct /= np.linalg.norm(distinct, axis=1, keepdims=True)
    embedder = CountingEmbedder(HashingEmbedder(dim=16), fail_on)
    index = Index([c.chunk_id for c in chunks], distinct[rng.integers(0, 12, ROWS)], embedder)
    items = [
        QAItem(question_id=f"q{i:02d}", question=" ".join(rng.choice(WORLD_WORDS, 5)), gold_answer="x")
        for i in range(10)
    ]
    return index, chunks, items


def answering_provider(items):
    provider = ScriptedProvider()
    for q in items:
        provider.add("standard_rag", q.question_id, f"<output><answer>answer {q.question_id}</answer></output>")
    return RecordingProvider(provider)


def rag_pipeline(provider, index, chunks, **cfg):
    return Pipeline(provider, RunConfig(mode="standard_rag", **cfg), index=index, chunks=chunks)


def without_timing(traces):
    rows = [t.to_json_dict() for t in traces]
    for row in rows:
        row.pop("stage_ms")
    return rows


@pytest.mark.parametrize(
    "budget, k, blocks",
    [
        (ROWS, 5, [1] * 10),  # a block of one question
        (3 * ROWS, 5, [3, 3, 3, 1]),  # a ragged last block
        (4 * ROWS, ROWS, [4, 4, 2]),  # k = len(index)
        (3 * ROWS, ROWS + 7, [3, 3, 3, 1]),  # k > len(index)
    ],
)
def test_block_retrieval_equals_search(monkeypatch, budget, k, blocks):
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", budget)
    index, chunks, items = tied_world()
    traces = rag_pipeline(answering_provider(items), index, chunks, k_per_triple=k).run_dataset(items)
    assert index.provider.batches == blocks
    assert any(len({h.score for h in t.hits}) < len(t.hits) for t in traces)  # ties to break
    for q, trace in zip(items, traces):
        assert trace.hits == index.search(q.question, k)
        assert trace.retrieved_chunks == [h.chunk_id for h in trace.hits]
        assert trace.retrieval_queries == [q.question]
        assert trace.final_answer == f"answer {q.question_id}" and trace.errors == []
        assert list(trace.stage_ms) == ["retrieval", "standard_rag"]


@pytest.mark.parametrize("concurrency", [1, 2])
def test_block_run_equals_a_run_question_loop(tmp_path, monkeypatch, concurrency):
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", 3 * ROWS)
    index, chunks, items = tied_world()
    loop = [rag_pipeline(answering_provider(items), index, chunks).run_question(q) for q in items]
    assert index.provider.batches == [1] * 10
    path = tmp_path / "traces.jsonl"
    blocked = rag_pipeline(answering_provider(items), index, chunks, concurrency=concurrency).run_dataset(
        items, trace_path=path
    )
    assert without_timing(blocked) == without_timing(loop)
    assert without_timing(read_trace_file(path)[1]) == without_timing(loop)


@pytest.mark.parametrize("budget, batches", [(ROWS, [1] * 10), (3 * ROWS, [3, 3, 3, 1])])
def test_blocks_are_answered_concurrently(monkeypatch, budget, batches):
    # From 2**15 rows up a block is one question; at every block size the
    # pool must keep `concurrency` chat requests in flight across blocks.
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", budget)
    index, chunks, items = tied_world()
    provider = answering_provider(items)
    answer = provider.complete
    in_flight = threading.Barrier(2, timeout=10)

    def complete(request):
        in_flight.wait()  # breaks unless two requests are in flight at once
        return answer(request)

    provider.complete = complete
    traces = rag_pipeline(provider, index, chunks, concurrency=2).run_dataset(items)
    assert index.provider.batches == batches
    assert [t.final_answer for t in traces] == [f"answer {q.question_id}" for q in items]


def test_blocks_of_one_are_retrieved_concurrently(monkeypatch):
    # Retrievals run on the workers, and a block is retrieved as soon as its
    # first stages are done, so with blocks of one a remote embedder still
    # sees `concurrency` requests at once.
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", ROWS)
    index, chunks, items = tied_world()
    embed_batch = index.provider.embed_batch
    in_flight = threading.Barrier(2, timeout=10)

    def embed_in_pairs(texts):
        in_flight.wait()  # breaks unless two embed calls are in flight at once
        return embed_batch(texts)

    index.provider.embed_batch = embed_in_pairs
    traces = rag_pipeline(answering_provider(items), index, chunks, concurrency=2).run_dataset(items)
    assert index.provider.batches == [1] * 10
    assert all(t.errors == [] for t in traces)


def test_block_run_resumed_after_an_interrupt_equals_a_whole_run(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", 3 * ROWS)
    index, chunks, items = tied_world()
    whole = tmp_path / "whole.jsonl"
    rag_pipeline(answering_provider(items), index, chunks).run_dataset(items, trace_path=whole)

    interrupting = answering_provider(items)
    answer = interrupting.complete

    def complete(request):
        if len(interrupting.requests) == 4:  # in the second block, after q03 is written
            raise KeyboardInterrupt
        return answer(request)

    interrupting.complete = complete
    cut = tmp_path / "cut.jsonl"
    with pytest.raises(KeyboardInterrupt):
        rag_pipeline(interrupting, index, chunks).run_dataset(items, trace_path=cut)
    assert [t.question_id for t in read_trace_file(cut)[1]] == ["q00", "q01", "q02", "q03"]

    index.provider.batches.clear()
    rag_pipeline(answering_provider(items), index, chunks).run_dataset(items, trace_path=cut, resume=True)
    assert index.provider.batches == [3, 3]  # q04-q06 and q07-q09, not the whole run's blocks
    assert trace_lines_without_timing(cut) == trace_lines_without_timing(whole)


def test_failed_block_retrieval_stays_in_its_block(monkeypatch):
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", 3 * ROWS)
    index, chunks, items = tied_world(fail_on=(2,))
    provider = answering_provider(items)
    traces = rag_pipeline(provider, index, chunks).run_dataset(items)
    assert index.provider.batches == [3, 3, 3, 1]
    failed = {"q03", "q04", "q05"}
    assert [r.question_id for r in provider.requests] == [q.question_id for q in items if q.question_id not in failed]
    for trace in traces:
        if trace.question_id in failed:
            assert trace.errors == ["retrieval: embedding request failed: endpoint down"]
            assert trace.hits == [] and trace.retrieved_chunks == [] and trace.payload_tokens == 0
            assert trace.retrieval_queries == [trace.question] and trace.final_answer == ""
            assert list(trace.stage_ms) == ["retrieval"]
        else:
            assert trace.errors == [] and trace.final_answer == f"answer {trace.question_id}"
            assert len(trace.hits) == 5


class ThreadRecorder:
    """Wraps a chat provider or an embedder and keeps the thread of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.provider_id = inner.provider_id
        self.threads = []

    def complete(self, request):
        self.threads.append(threading.current_thread())
        return self.inner.complete(request)

    def embed_batch(self, texts):
        self.threads.append(threading.current_thread())
        return self.inner.embed_batch(texts)


@pytest.mark.parametrize("mode", MODES)
def test_a_run_at_concurrency_one_calls_on_the_calling_thread(monkeypatch, mode):
    # A handoff to a worker thread per call costs a fast run a large share
    # of its throughput, so concurrency 1 makes every call inline.
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", 3 * ROWS)
    index, chunks, items = tied_world()
    chat = ThreadRecorder(answering_provider(items) if mode == "standard_rag" else triple_provider(items))
    index.provider = ThreadRecorder(index.provider)
    traces = triple_pipeline(chat, index, chunks, mode).run_dataset(items)
    assert all(t.errors == [] for t in traces)
    assert len(chat.threads) >= len(items)
    assert len(index.provider.threads) == (0 if mode == "system1_only" else 4)
    assert set(chat.threads + index.provider.threads) == {threading.current_thread()}


# --- triple-anchored retrieval in blocks ------------------------------------------

TRIPLE_MODES = ["full", "threshold_gated", "no_initial_reasoning"]
NO_TRIPLES = "q04"  # its triple reply parses to no triple


def triple_provider(items):
    """Replies to every stage of ``items``: a fast answer that is confident
    for every other question, 1-4 triples of world words (none for
    ``NO_TRIPLES``) and a final answer with and without the anchor."""
    rng = np.random.default_rng(5)
    provider = ScriptedProvider()
    for i, q in enumerate(items):
        qid = q.question_id
        logprobs = [["<answer>", -0.001], ["guess", -0.5 if i % 2 else -4.0], ["</answer>", -0.001]]
        provider.add("system1", qid, "<answer>guess</answer>", logprobs)
        triples = "".join(f"<triple>{s} | {p} | {o}</triple>" for s, p, o in rng.choice(WORLD_WORDS, (1 + i % 4, 3)))
        provider.add("triple_gen", qid, "<output>no triples</output>" if qid == NO_TRIPLES else triples)
        provider.add("system2", qid, f"<final_answer>answer {qid}</final_answer>")
        provider.add("system2_noanchor", qid, f"<final_answer>plain {qid}</final_answer>")
    return RecordingProvider(provider)


def triple_pipeline(provider, index, chunks, mode, **cfg):
    config = RunConfig(mode=mode, confidence_threshold=0.05 if mode == "threshold_gated" else None, **cfg)
    return Pipeline(provider, config, index=index, chunks=chunks)


def query_batches(traces, size):
    """The texts ``embed`` gets per block of ``size`` questions."""
    return [sum(len(t.retrieval_queries) for t in traces[s : s + size]) for s in range(0, len(traces), size)]


@pytest.mark.parametrize("concurrency", [1, 2])
@pytest.mark.parametrize("mode", TRIPLE_MODES)
@pytest.mark.parametrize(
    "budget, k, size",
    [(ROWS, 5, 1), (3 * ROWS, 5, 3), (4 * ROWS, ROWS, 4), (3 * ROWS, ROWS + 7, 3)],
    ids=["block_of_one", "ragged_last_block", "k_is_len_index", "k_above_len_index"],
)
def test_triple_block_run_equals_a_run_question_loop(tmp_path, monkeypatch, mode, concurrency, budget, k, size):
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", budget)
    index, chunks, items = tied_world()
    loop = [triple_pipeline(triple_provider(items), index, chunks, mode, k_per_triple=k).run_question(q) for q in items]
    assert index.provider.batches == query_batches(loop, 1)
    index.provider.batches.clear()
    path = tmp_path / "traces.jsonl"
    pipe = triple_pipeline(triple_provider(items), index, chunks, mode, k_per_triple=k, concurrency=concurrency)
    blocked = pipe.run_dataset(items, trace_path=path)
    # One embed call per block; blocks of one are retrieved by the workers, in any order.
    assert sorted(index.provider.batches) == sorted(query_batches(loop, size))
    assert without_timing(blocked) == without_timing(loop)
    assert without_timing(read_trace_file(path)[1]) == without_timing(loop)
    assert [list(t.stage_ms) for t in blocked] == [list(t.stage_ms) for t in loop]
    assert any(len({h.score for h in t.hits}) < len(t.hits) for t in blocked)  # ties to break
    for trace in blocked:
        union, hits = retrieve_for_queries(index, trace.retrieval_queries, k_per_query=k)
        assert (trace.retrieved_chunks, trace.hits) == (union, hits)
        assert trace.errors == []
    (fallback,) = [t for t in blocked if t.flags.get("fallback_question_query")]
    assert fallback.question_id == NO_TRIPLES and fallback.retrieval_queries == [fallback.question]
    assert len({len(t.retrieval_queries) for t in blocked}) == 4  # 1-4 queries a question
    if mode == "threshold_gated":
        assert {t.gate_decision for t in blocked} == {"complete", "continue"}


@pytest.mark.parametrize("concurrency", [1, 2])
@pytest.mark.parametrize("mode", TRIPLE_MODES)
def test_failed_triple_block_retrieval_stays_in_its_block(monkeypatch, mode, concurrency):
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", 3 * ROWS)
    index, chunks, items = tied_world()
    loop = [triple_pipeline(triple_provider(items), index, chunks, mode).run_question(q) for q in items]
    index, chunks, items = tied_world(fail_on=(2,))
    provider = triple_provider(items)
    traces = triple_pipeline(provider, index, chunks, mode, concurrency=concurrency).run_dataset(items)
    assert index.provider.batches == query_batches(loop, 3)
    failed = {"q03", "q04", "q05"}
    for trace, alone in zip(traces, loop):
        if trace.question_id in failed:
            assert trace.errors[0] == "retrieval: embedding request failed: endpoint down"
            assert trace.hits == [] and trace.retrieved_chunks == [] and trace.payload_tokens == 0
            assert trace.retrieval_queries == alone.retrieval_queries
            assert "system2" not in trace.usage  # no evidence, so the deliberate pass is never sent
        else:
            assert without_timing([trace]) == without_timing([alone])
    assert not {r.question_id for r in provider.requests if r.stage_tag.startswith("system2")} & failed


@pytest.mark.parametrize("concurrency", [1, 2])
@pytest.mark.parametrize("mode", TRIPLE_MODES)
def test_triple_block_run_resumed_after_an_interrupt_equals_a_whole_run(tmp_path, monkeypatch, mode, concurrency):
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", 3 * ROWS)
    index, chunks, items = tied_world()
    whole = tmp_path / "whole.jsonl"
    triple_pipeline(triple_provider(items), index, chunks, mode, concurrency=concurrency).run_dataset(
        items, trace_path=whole
    )

    interrupting = triple_provider(items)
    answer, lock = interrupting.complete, threading.Lock()

    def complete(request):
        with lock:
            if request.question_id == "q05" and request.stage_tag == "triple_gen":
                raise KeyboardInterrupt
        return answer(request)

    interrupting.complete = complete
    cut = tmp_path / "cut.jsonl"
    with pytest.raises(KeyboardInterrupt):
        triple_pipeline(interrupting, index, chunks, mode, concurrency=concurrency).run_dataset(items, trace_path=cut)
    written = [t.question_id for t in read_trace_file(cut)[1]]
    assert written == ["q00", "q01", "q02"][: len(written)]  # none of the interrupted block
    if concurrency == 1:
        assert written == ["q00", "q01", "q02"]

    triple_pipeline(triple_provider(items), index, chunks, mode, concurrency=concurrency).run_dataset(
        items, trace_path=cut, resume=True
    )
    assert trace_lines_without_timing(cut) == trace_lines_without_timing(whole)


@pytest.mark.parametrize("concurrency, questions", [(4, 12), (8, 24)])
@pytest.mark.parametrize("mode", ["full", "no_initial_reasoning"])
def test_triple_blocks_keep_concurrency_calls_in_flight(monkeypatch, mode, concurrency, questions):
    # Blocks of two: the first stages of at least `concurrency` questions
    # beyond a block must be running while it is retrieved and answered, or
    # fewer than `concurrency` calls are in flight at a block edge (already
    # at the first at concurrency 8 if only the next block were queued).
    # The first two thirds of the calls, across many block edges, go
    # `concurrency` at a time; the last blocks leave too little work to
    # fill every worker.
    monkeypatch.setattr(pipeline, "_QUESTION_BLOCK_SCORES", 2 * ROWS)
    index, chunks, items = tied_world()
    items += [QAItem(question_id=f"q{i:02d}", question=f"extra question {i}", gold_answer="x") for i in range(10, questions)]
    provider = triple_provider(items)
    answer, lock, calls = provider.complete, threading.Lock(), []
    in_flight = threading.Barrier(concurrency, timeout=10)

    def complete(request):
        with lock:
            calls.append(request.stage_tag)
            paired = len(calls) <= 2 * questions
        if paired:
            in_flight.wait()  # breaks unless `concurrency` calls are in flight at once
        return answer(request)

    provider.complete = complete
    traces = triple_pipeline(provider, index, chunks, mode, concurrency=concurrency).run_dataset(items)
    assert len(calls) == 3 * questions and index.provider.batches == query_batches(traces, 2)
    assert all(t.errors == [] for t in traces)
