import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchor_rag.evaluation import (
    EvalScore,
    EvaluationError,
    aggregate,
    exact_match,
    normalize_answer,
    payload_tokens,
    score_pair,
    threshold_savings,
    token_f1,
    transitions,
)
from anchor_rag.traces import PipelineTrace


def make_trace(qid, payload=0, dataset="2wiki", gate="ungated", saved=0, mode="full"):
    return PipelineTrace(
        question_id=qid,
        question="q?",
        gold_answer="x",
        dataset_tag=dataset,
        mode=mode,
        payload_tokens=payload,
        gate_decision=gate,
        saved_input_tokens=saved,
    )


# --- normalization -----------------------------------------------------------


def test_normalize_examples():
    assert normalize_answer("Paris") == "paris"
    assert normalize_answer("The Pac-12 Conference") == "pac12 conference"
    assert normalize_answer("  A  an  the  ") == ""


def test_normalize_removes_articles_as_whole_words_only():
    assert normalize_answer("another theory") == "another theory"
    assert normalize_answer("a theory") == "theory"


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=60))
def test_normalize_idempotent(s):
    once = normalize_answer(s)
    assert normalize_answer(once) == once


# --- exact match -----------------------------------------------------------------


def test_exact_match_examples():
    assert exact_match("Pac-12 Conference", "Pac-12 Conference") == 1
    assert exact_match("the Pac-12 Conference", "Pac-12 Conference") == 1
    assert exact_match("Big 12 Conference", "Pac-12 Conference") == 0


def test_exact_match_symmetric():
    assert exact_match("A dog", "dog") == exact_match("dog", "A dog")


# --- token F1 -----------------------------------------------------------------


def test_f1_identical():
    assert token_f1("same words here", "same words here") == 1.0


def test_f1_partial_overlap_hand_arithmetic():
    assert token_f1("pac12 conference", "pac12") == pytest.approx(2 / 3)


def test_f1_empty_cases():
    assert token_f1("", "paris") == 0.0
    assert token_f1("paris", "") == 0.0
    assert token_f1("", "") == 1.0
    assert token_f1("the", "a") == 1.0  # both normalize to empty


def test_f1_counts_multiplicity():
    # pred {dog:2, cat:1}, gold {dog:1, cat:2}: overlap 2, P=R=2/3
    assert token_f1("dog dog cat", "dog cat cat") == pytest.approx(2 / 3)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abc d", max_size=30), st.text(alphabet="abc d", max_size=30))
def test_metric_properties(pred, gold):
    em = exact_match(pred, gold)
    f1 = token_f1(pred, gold)
    assert em in (0, 1)
    assert 0.0 <= f1 <= 1.0
    if em == 1:
        assert f1 == 1.0
    assert em == exact_match(gold, pred)
    assert f1 == pytest.approx(token_f1(gold, pred))


# --- aggregation -----------------------------------------------------------------


def test_aggregate_all_correct():
    scores = [EvalScore(f"q{i}", 1, 1.0) for i in range(500)]
    assert aggregate(scores) == (100.0, 100.0)


def test_aggregate_148_of_500():
    scores = [EvalScore(f"q{i}", 1 if i < 148 else 0, 1.0 if i < 148 else 0.0) for i in range(500)]
    em, _ = aggregate(scores)
    assert em == 29.60


def test_aggregate_one_of_three():
    scores = [EvalScore("a", 1, 1.0), EvalScore("b", 0, 0.0), EvalScore("c", 0, 0.0)]
    assert aggregate(scores) == (33.33, 33.33)


def test_aggregate_empty_rejected():
    with pytest.raises(EvaluationError):
        aggregate([])


# --- transitions -----------------------------------------------------------------


def transition_fixture(n, both_correct, gained, lost):
    before, after = [], []
    for i in range(n):
        qid = f"q{i:04d}"
        if i < both_correct:
            b, a = 1, 1
        elif i < both_correct + gained:
            b, a = 0, 1
        elif i < both_correct + gained + lost:
            b, a = 1, 0
        else:
            b, a = 0, 0
        before.append(EvalScore(qid, b, float(b)))
        after.append(EvalScore(qid, a, float(a)))
    return before, after


@pytest.mark.parametrize(
    "counts, net",
    [((82, 66, 45), 21), ((49, 55, 22), 33), ((9, 42, 4), 38)],
)
def test_transitions_net_gains(counts, net):
    both, gained, lost = counts
    before, after = transition_fixture(500, both, gained, lost)
    report = transitions(before, after)
    assert (report.both_correct, report.gained, report.lost) == counts
    assert report.net_gain == net
    assert report.total == 500


def test_transitions_identical_scores():
    before, _ = transition_fixture(50, 20, 0, 0)
    report = transitions(before, before)
    assert report.gained == 0 and report.lost == 0


def test_transitions_misaligned_ids_rejected():
    before, after = transition_fixture(10, 5, 2, 1)
    with pytest.raises(EvaluationError):
        transitions(before, after[:-1])
    renamed = after[:-1] + [EvalScore("other", 0, 0.0)]
    with pytest.raises(EvaluationError):
        transitions(before, renamed)


@settings(max_examples=50, deadline=None)
@given(flags=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60))
def test_transitions_partition_questions(flags):
    before = [EvalScore(f"q{i}", int(b), float(b)) for i, (b, _) in enumerate(flags)]
    after = [EvalScore(f"q{i}", int(a), float(a)) for i, (_, a) in enumerate(flags)]
    report = transitions(before, after)
    assert report.total == len(flags)
    assert min(report.both_correct, report.gained, report.lost, report.both_incorrect) >= 0


# --- payload and savings -----------------------------------------------------------


def test_payload_all_zero():
    traces = [make_trace(f"q{i}", payload=0) for i in range(4)]
    assert payload_tokens(traces).overall_mean == 0.0


def test_payload_mean_and_breakdown():
    traces = [
        make_trace("a", payload=100, dataset="2wiki"),
        make_trace("b", payload=200, dataset="hotpotqa"),
    ]
    report = payload_tokens(traces)
    assert report.overall_mean == 150.0
    assert report.per_dataset == {"2wiki": 100.0, "hotpotqa": 200.0}


def test_payload_empty_rejected():
    with pytest.raises(EvaluationError):
        payload_tokens([])


def test_threshold_savings_counts_and_mean():
    traces = [
        make_trace("a", gate="complete", saved=400, mode="threshold_gated"),
        make_trace("b", gate="complete", saved=380, mode="threshold_gated"),
        make_trace("c", gate="continue", mode="threshold_gated"),
    ]
    report = threshold_savings(traces)
    assert report.complete == 2 and report.continued == 1
    assert report.avg_input_tokens_saved == 390.0


def test_threshold_savings_disabled_tau():
    traces = [make_trace("a", gate="continue"), make_trace("b", gate="continue")]
    report = threshold_savings(traces)
    assert report.complete == 0 and report.avg_input_tokens_saved == 0.0


# --- fixture agreement -------------------------------------------------------------


def test_scoring_agrees_with_frozen_fixture(data_dir):
    rows = json.loads((data_dir / "squad_pairs.json").read_text(encoding="utf-8"))
    assert len(rows) == 50
    for row in rows:
        score = score_pair("q", row["pred"], row["gold"])
        assert score.em == row["em"], row
        assert score.f1 == pytest.approx(row["f1"], abs=1e-12), row
