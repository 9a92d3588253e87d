"""Seeded input generator for the benchmark workloads.

Writes, for one workload and seed:

- the dataset file in its native layout (hotpotqa / 2wiki JSON array,
  musique JSONL);
- the scripted-provider fixtures (scripted workloads) or the stub's answer
  table (remote workload);
- ``plan.json``: the expected answer, EM, F1 and gate decision of every
  question, and the expected chunk count of every document, worked out from
  the generated token counts and the 400/50 window rule rather than by
  running the chunker.

    PYTHONPATH=src python3 perfbench/gen.py --workload short_docs_full --seed 1 --out gen_out
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import CHUNK_SIZE, EMBED_DIM, STRIDE, WORKLOADS, Workload  # noqa: E402

CONSONANTS = "bcdfgklmnprstvz"
VOWELS = "aeiou"

# (EM, F1) of each planned answer kind against its two-word gold answer.
# F1 = 2 * overlap / (|pred| + |gold|): "partial" keeps one gold word of two
# (precision = recall = 1/2), "verbose" adds four words (precision 1/3,
# recall 1). Every F1 is a dyadic fraction, so sums are exact in any order.
OUTCOME_SCORES = {"correct": (1, 1.0), "partial": (0, 0.5), "verbose": (0, 0.5), "wrong": (0, 0.0)}
CONFIDENT_LOGPROB = -0.3      # exp(-0.3) = 0.74, above any usual tau
UNCONFIDENT_LOGPROB = -4.0    # exp(-4.0) = 0.018, below tau = 0.05


def expected_chunk_count(tokens: int) -> int:
    """Windows of CHUNK_SIZE tokens whose starts advance by CHUNK_SIZE - STRIDE."""
    if tokens <= CHUNK_SIZE:
        return 1
    return 1 + math.ceil((tokens - CHUNK_SIZE) / (CHUNK_SIZE - STRIDE))


def stub_vector(text: str, dim: int = EMBED_DIM) -> np.ndarray:
    """The stub's embedding of a text: a unit Gaussian vector seeded by its hash."""
    seed = int.from_bytes(hashlib.sha1(text.encode("utf-8")).digest()[:8], "little")
    v = np.random.default_rng(seed).standard_normal(dim)
    return v / np.linalg.norm(v)


class Words:
    """Seeded supply of lowercase words and unique capitalised names."""

    def __init__(self, rng: random.Random, size: int = 4000):
        self.rng = rng
        seen: set[str] = set()
        while len(seen) < size:
            seen.add(self._word())
        self.vocab = sorted(seen)
        self._names: set[str] = set()

    def _word(self) -> str:
        rng = self.rng
        return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(rng.randint(2, 4)))

    def words(self, n: int) -> list[str]:
        return self.rng.choices(self.vocab, k=n)

    def sentence(self, n_words: int) -> str:
        """``n_words`` word tokens plus one "." token."""
        words = self.words(n_words)
        words[0] = words[0].capitalize()
        return " ".join(words) + "."

    def name(self, n_words: int = 2) -> str:
        while True:
            name = " ".join(w.capitalize() for w in self.words(n_words))
            if name not in self._names:
                self._names.add(name)
                return name

    def fresh_word(self, avoid: set[str]) -> str:
        while True:
            w = self._word()
            if w not in avoid:
                return w


def _outcomes(rng: random.Random, n: int) -> list[str]:
    """40% correct, 10% partial, 10% verbose, 40% wrong, in seeded order."""
    n_correct, n_partial = round(0.4 * n), round(0.1 * n)
    kinds = ["correct"] * n_correct + ["partial", "verbose"] * n_partial + ["wrong"] * (n - n_correct - 2 * n_partial)
    rng.shuffle(kinds)
    return kinds


def _answer(kind: str, gold: str, words: Words) -> str:
    if kind == "correct":
        return gold
    gold_words = set(gold.lower().split())
    if kind == "partial":
        return gold.split()[0] + " " + words.fresh_word(gold_words).capitalize()
    if kind == "verbose":
        return gold + "".join(" " + words.fresh_word(gold_words).capitalize() for _ in range(4))
    return " ".join(words.fresh_word(gold_words).capitalize() for _ in range(2))


def _system1_fixture(answer: str, logprob: float) -> tuple[str, list]:
    pieces = answer.split(" ")
    tokens = [pieces[0]] + [" " + p for p in pieces[1:]]
    logprobs = (
        [["<output>", -0.05], ["\n", -0.01], ["<answer>", -0.02]]
        + [[t, logprob] for t in tokens]
        + [["</answer>", -0.01], ["\n", -0.01], ["</output>", -0.02]]
    )
    return f"<output>\n<answer>{answer}</answer>\n</output>", logprobs


def _triples_text(triples: list[list[str]]) -> str:
    body = "\n".join(f"<triple>{s} | {p} | {o}</triple>" for s, p, o in triples)
    return f"<output>\n{body}\n</output>"


def _system2_text(words: Words, final: str) -> str:
    steps = [f"{i}. " + words.sentence(14) for i in range(1, 4)]
    return "Let's work through the documents step by step.\n\n" + "\n".join(steps) + (
        f"\n\nTherefore the answer is {final}.\n\n<final_answer> {final} </final_answer>"
    )


def _short_paragraph(w: Workload, words: Words) -> tuple[list[str], int]:
    sentences = [words.sentence(n) for n in w.sentence_words]
    return sentences, sum(n + 1 for n in w.sentence_words)


def _record(fmt: str, qid: str, question: str, gold: str, relation: str, paragraphs: list) -> dict:
    """One QA record in the dataset's native layout; paragraphs are (title, sentences)."""
    if fmt == "musique":
        return {
            "id": qid,
            "paragraphs": [
                {"idx": i, "title": t, "paragraph_text": " ".join(s), "is_supporting": i == 0}
                for i, (t, s) in enumerate(paragraphs)
            ],
            "question": question,
            "question_decomposition": [],
            "answer": gold,
            "answer_aliases": [],
            "answerable": True,
        }
    record = {
        "_id": qid,
        "question": question,
        "answer": gold,
        "supporting_facts": [[paragraphs[0][0], 0], [paragraphs[1][0], 0]],
        "context": [[t, s] for t, s in paragraphs],
    }
    if fmt == "2wiki":
        record.update(type="compositional", evidences=[[paragraphs[0][0], relation, gold]])
    else:
        record.update(type="bridge", level="medium")
    return record


def generate(w: Workload, seed: int, out: Path) -> dict:
    """Write every input file of one workload run and return the plan."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{w.name}:{seed}")
    words = Words(rng)

    chunks_per_title: dict[str, int] = {}
    pool: list[tuple[str, str]] = []
    if w.pool_paragraphs:
        for i in range(w.pool_paragraphs):
            n_sent = round(w.long_tokens_min / 25 + (w.long_tokens_max - w.long_tokens_min) / 25 * i / (w.pool_paragraphs - 1))
            title = words.name()
            pool.append((title, " ".join(words.sentence(24) for _ in range(n_sent))))
            chunks_per_title[title] = expected_chunk_count(25 * n_sent)

    s1_kinds = _outcomes(rng, w.records)
    final_kinds = _outcomes(rng, w.records)
    confident = [i < w.records // 2 for i in range(w.records)]
    rng.shuffle(confident)

    records: list[dict] = []
    questions: dict[str, dict] = {}
    fixtures: list[dict] = []
    chat_table: dict[str, dict] = {}
    embed_texts: list[str] = []

    for r in range(w.records):
        qid = f"q{r:05d}"
        gold = words.name()
        relation = words.words(1)[0]
        if pool:
            picks = [r % len(pool)] + rng.sample([i for i in range(len(pool)) if i != r % len(pool)], w.paragraphs_per_record - 1)
            paragraphs = [(pool[i][0], [pool[i][1]]) for i in picks]
            question = f"Which {relation} did {words.name()} share with {paragraphs[0][0]}?"
        else:
            paragraphs = []
            for _ in range(w.paragraphs_per_record):
                title = words.name()
                sentences, tokens = _short_paragraph(w, words)
                paragraphs.append((title, sentences))
                chunks_per_title[title] = expected_chunk_count(tokens)
            question = f"Which {relation} connects {paragraphs[0][0]} and {paragraphs[1][0]}?"

        s1 = _answer(s1_kinds[r], gold, words)
        s2 = _answer(final_kinds[r], gold, words)
        gate = "ungated"
        if w.mode == "threshold_gated":
            gate = "complete" if confident[r] else "continue"
        final_kind = s1_kinds[r] if gate == "complete" else final_kinds[r]
        final = s1 if gate == "complete" else s2
        em, f1 = OUTCOME_SCORES[final_kind]
        triples = []
        if w.triples_per_question:
            # A chain from the two supporting titles to the (possibly wrong) fast answer.
            links = [paragraphs[0][0], paragraphs[1][0]] + [words.name() for _ in range(w.triples_per_question - 2)] + [s1]
            triples = [
                [links[i], "_".join(words.words(2)), links[i + 1]] for i in range(w.triples_per_question)
            ]
        questions[qid] = {
            "question": question,
            "gold": gold,
            "system1": s1 if w.mode != "standard_rag" else "",
            "final": final,
            "gate": gate,
            "em": em,
            "f1": f1,
            "triples": triples,
        }

        records.append(_record(w.fmt, qid, question, gold, relation, paragraphs))

        s1_text, s1_logprobs = _system1_fixture(s1, CONFIDENT_LOGPROB if (gate != "continue") else UNCONFIDENT_LOGPROB)
        s2_text = _system2_text(words, s2)
        if w.remote:
            chat_table[question] = {
                "system1": [s1_text, s1_logprobs],
                "triple_gen": [_triples_text(triples), None],
                "system2": [s2_text, None],
            }
            embed_texts.extend(" ".join(s) for _, s in paragraphs)
            embed_texts.extend(f"{s} {p} {o}" for s, p, o in triples)
            embed_texts.append(question)
        elif w.mode == "standard_rag":
            fixtures.append({"stage_tag": "standard_rag", "question_id": qid,
                             "text": f"<output>\n<answer>{s2}</answer>\n</output>", "token_logprobs": None})
        else:
            fixtures.append({"stage_tag": "system1", "question_id": qid, "text": s1_text, "token_logprobs": s1_logprobs})
            fixtures.append({"stage_tag": "triple_gen", "question_id": qid, "text": _triples_text(triples), "token_logprobs": None})
            fixtures.append({"stage_tag": "system2", "question_id": qid, "text": s2_text, "token_logprobs": None})

    data_path = out / ("data.jsonl" if w.fmt == "musique" else "data.json")
    with data_path.open("w", encoding="utf-8") as fh:
        if w.fmt == "musique":
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        else:
            json.dump(records, fh)
    if fixtures:
        with (out / "fixtures.jsonl").open("w", encoding="utf-8") as fh:
            for row in fixtures:
                fh.write(json.dumps(row) + "\n")
    if w.remote:
        from anchor_rag.prompt_kit import DEFAULT_LIBRARY

        table = {
            "latency_s": w.latency_s,
            "dim": EMBED_DIM,
            "system_prompts": {DEFAULT_LIBRARY.pair(s)[0]: s for s in ("system1", "triple_gen", "system2")},
            "chat": chat_table,
            "embed_texts": sorted(set(embed_texts)),
        }
        (out / "stub_table.json").write_text(json.dumps(table), encoding="utf-8")

    plan = {
        "workload": w.name,
        "seed": seed,
        "data": str(data_path),
        "questions": questions,
        "chunks_per_title": chunks_per_title,
        "total_chunks": sum(chunks_per_title.values()),
    }
    (out / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return plan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    plan = generate(WORKLOADS[args.workload], args.seed, Path(args.out))
    print(f"{len(plan['questions'])} questions, {plan['total_chunks']} expected chunks -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
