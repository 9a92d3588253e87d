"""Answer scoring and run aggregation.

EM and token-F1 follow the standard extractive-QA scoring rules: answers
are lowercased, stripped of punctuation and English articles, whitespace
collapsed; F1 counts token overlap with multiplicity. When both answers
normalize to empty the pair scores EM=1, F1=1.
"""

from __future__ import annotations

import csv
import json
import re
import string
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from anchor_rag.traces import AnchorRagError, PipelineTrace


class EvaluationError(AnchorRagError, ValueError):
    """Empty score list or misaligned question ids."""


_ARTICLES_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(s: str) -> str:
    """Lowercase, drop punctuation and articles, collapse whitespace."""
    s = s.lower().translate(_PUNCT_TABLE)
    s = _ARTICLES_RE.sub(" ", s)
    return " ".join(s.split())


def exact_match(pred: str, gold: str) -> int:
    return int(normalize_answer(pred) == normalize_answer(gold))


def token_f1(pred: str, gold: str) -> float:
    """Harmonic mean of token precision/recall, overlap with multiplicity."""
    pred_tokens = normalize_answer(pred).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens or not gold_tokens:
        return float(pred_tokens == gold_tokens)
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class EvalScore:
    question_id: str
    em: int
    f1: float


def score_pair(question_id: str, pred: str, gold: str) -> EvalScore:
    return EvalScore(question_id=question_id, em=exact_match(pred, gold), f1=token_f1(pred, gold))


def aggregate(scores: Sequence[EvalScore]) -> tuple[float, float]:
    """Mean EM and F1 as percentages, rounded to two decimals."""
    if not scores:
        raise EvaluationError("cannot aggregate an empty score list")
    em = 100.0 * sum(s.em for s in scores) / len(scores)
    f1 = 100.0 * sum(s.f1 for s in scores) / len(scores)
    return round(em, 2), round(f1, 2)


@dataclass(frozen=True)
class TransitionReport:
    """Correctness flow between the fast answer and the final answer."""

    both_correct: int
    gained: int
    lost: int
    both_incorrect: int

    @property
    def net_gain(self) -> int:
        return self.gained - self.lost

    @property
    def total(self) -> int:
        return self.both_correct + self.gained + self.lost + self.both_incorrect

    def to_dict(self) -> dict:
        return {**asdict(self), "net_gain": self.net_gain}


def transitions(sys1_scores: Sequence[EvalScore], sys2_scores: Sequence[EvalScore]) -> TransitionReport:
    """Four-way classification of per-question correctness changes.

    Correctness is strict exact match. The two score lists must cover the
    same question ids.
    """
    first = {s.question_id: s for s in sys1_scores}
    second = {s.question_id: s for s in sys2_scores}
    if len(first) != len(sys1_scores) or len(second) != len(sys2_scores):
        raise EvaluationError("duplicate question ids in score list")
    if first.keys() != second.keys():
        missing = first.keys() ^ second.keys()
        raise EvaluationError(f"score lists are misaligned on {len(missing)} question id(s)")
    both_correct = gained = lost = both_incorrect = 0
    for qid, before in first.items():
        after = second[qid]
        if before.em and after.em:
            both_correct += 1
        elif not before.em and after.em:
            gained += 1
        elif before.em and not after.em:
            lost += 1
        else:
            both_incorrect += 1
    return TransitionReport(both_correct=both_correct, gained=gained, lost=lost, both_incorrect=both_incorrect)


def score_traces(traces: Iterable[PipelineTrace], answer: str = "final") -> list[EvalScore]:
    """Score one answer field of every trace against its gold answer."""
    if answer not in ("final", "system1"):
        raise EvaluationError(f"unknown answer field {answer!r}")
    scores = []
    for trace in traces:
        pred = trace.final_answer if answer == "final" else trace.system1_answer
        scores.append(score_pair(trace.question_id, pred, trace.gold_answer))
    return scores


@dataclass(frozen=True)
class PayloadReport:
    """Average retrieved-context tokens per question."""

    overall_mean: float
    per_dataset: dict[str, float]


def payload_tokens(traces: Sequence[PipelineTrace]) -> PayloadReport:
    if not traces:
        raise EvaluationError("no traces to aggregate")
    per_dataset_sums: dict[str, list[int]] = {}
    for trace in traces:
        per_dataset_sums.setdefault(trace.dataset_tag, []).append(trace.payload_tokens)
    per_dataset = {tag: sum(vals) / len(vals) for tag, vals in sorted(per_dataset_sums.items())}
    overall = sum(t.payload_tokens for t in traces) / len(traces)
    return PayloadReport(overall_mean=overall, per_dataset=per_dataset)


@dataclass(frozen=True)
class ThresholdSavingsReport:
    """Gate outcomes plus the deliberate-pass input tokens never spent."""

    complete: int
    continued: int
    avg_input_tokens_saved: float


def threshold_savings(traces: Sequence[PipelineTrace]) -> ThresholdSavingsReport:
    """Count gate decisions and average the unsent deliberate-prompt sizes.

    Gate-complete traces carry the token count of their rendered-but-unsent
    final prompt; questions that continued saved nothing.
    """
    complete = [t for t in traces if t.gate_decision == "complete"]
    continued = sum(1 for t in traces if t.gate_decision == "continue")
    avg_saved = sum(t.saved_input_tokens for t in complete) / len(complete) if complete else 0.0
    return ThresholdSavingsReport(complete=len(complete), continued=continued, avg_input_tokens_saved=avg_saved)


# --- per-run summary and report rendering -----------------------------------


def score_summary(scores: Sequence[EvalScore]) -> dict:
    em, f1 = aggregate(scores)
    return {"em": em, "f1": f1, "n": len(scores)}


def summarize_run(mode: str, traces: Sequence[PipelineTrace]) -> tuple[dict, list[EvalScore]]:
    """A run's ``summary.json`` entry, and the final-answer scores it came from.

    Every run gets mode, EM/F1/n and payload; the anchored modes add their
    System-1 -> final ``transitions``, and ``threshold_gated`` its gate
    ``threshold`` outcome.
    """
    final_scores = score_traces(traces, answer="final")
    payload = payload_tokens(traces)
    entry = {"mode": mode, **score_summary(final_scores),
             "avg_payload_tokens": payload.overall_mean, "payload_per_dataset": payload.per_dataset}
    if mode in ("full", "no_initial_reasoning", "threshold_gated"):
        entry["transitions"] = transitions(score_traces(traces, answer="system1"), final_scores).to_dict()
    if mode == "threshold_gated":
        savings = threshold_savings(traces)
        entry["threshold"] = {"complete": savings.complete, "continue": savings.continued,
                              "avg_input_tokens_saved": savings.avg_input_tokens_saved}
    return entry, final_scores


def _table(columns: Sequence[tuple[str, int, str]], rows: Iterable[tuple[str, Sequence]]) -> str:
    """A 32-wide ``run`` label column, then one right-aligned column per
    (header, width, format) with one value per row."""
    lines = [f"{'run':<32}" + "".join(f" {header:>{width}}" for header, width, _ in columns)]
    for label, values in rows:
        cells = "".join(f" {value:>{width}{fmt}}" for (_, width, fmt), value in zip(columns, values))
        lines.append(f"{label:<32}{cells}")
    return "\n".join(lines)


def render_score_table(runs: dict[str, dict]) -> str:
    """EM/F1/n of every run in ``runs`` (label -> summary entry)."""
    rows = [(label, (run["em"], run["f1"], run["n"])) for label, run in runs.items()]
    return _table([("EM", 8, ".2f"), ("F1", 8, ".2f"), ("n", 6, "d")], rows)


def render_payload_table(runs: dict[str, dict]) -> str:
    """Average payload tokens per run, then one indented row per dataset."""
    rows = []
    for label, run in runs.items():
        rows.append((label, (run["avg_payload_tokens"],)))
        rows += [(f"  {tag}", (mean,)) for tag, mean in run["payload_per_dataset"].items()]
    return _table([("avg payload tokens", 20, ".2f")], rows)


def render_transition_table(runs: dict[str, dict]) -> str:
    """Correctness flow of every run with a ``transitions`` entry."""
    keys = ("both_correct", "gained", "lost", "both_incorrect", "net_gain")
    rows = [(label, [run["transitions"][k] for k in keys]) for label, run in runs.items() if "transitions" in run]
    return _table([(h, 6, "d") for h in ("C->C", "I->C", "C->I", "I->I", "net")], rows)


def render_savings_table(runs: dict[str, dict]) -> str:
    """Gate outcomes of every run with a ``threshold`` entry."""
    keys = ("complete", "continue", "avg_input_tokens_saved")
    rows = [(label, [run["threshold"][k] for k in keys]) for label, run in runs.items() if "threshold" in run]
    return _table([("complete", 9, "d"), ("continue", 9, "d"), ("avg saved", 12, ".2f")], rows)


def write_scores_csv(path: str | Path, scores: Sequence[EvalScore]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["question_id", "em", "f1"])
        for s in scores:
            writer.writerow([s.question_id, s.em, f"{s.f1:.6f}"])


def write_summary_json(path: str | Path, summary: dict) -> None:
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
