"""Prompt templates and tagged-output parsing.

The three stage prompts (direct answer, triple generation, deliberate
re-answer) ship as plain-text assets under ``templates/`` and are rendered
by literal placeholder substitution, so question text containing braces or
angle brackets passes through verbatim. Parsers are total: they return a
value plus a malformed flag, or raise :class:`PromptParseError` when no
answer text can be extracted at all.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from importlib import resources
from types import SimpleNamespace
from typing import NamedTuple, Sequence

from anchor_rag.corpus import Chunk, QAItem
from anchor_rag.traces import ReasoningTriple

STAGE_TAGS = ("system1", "triple_gen", "system2", "system2_noanchor", "standard_rag")

_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL)
_FINAL_RE = re.compile(r"<final_answer>(.*?)</final_answer>", re.DOTALL)
_TRIPLE_RE = re.compile(r"<triple>(.*?)</triple>", re.DOTALL)
_OUTPUT_WRAPPER_RE = re.compile(r"^\s*<output>(.*?)</output>\s*$", re.DOTALL)


class PromptParseError(ValueError):
    """No usable answer text could be extracted from a model response."""


@dataclass(frozen=True)
class RenderedPrompt:
    """A stage prompt split into its system and user messages."""

    stage_tag: str
    system_text: str
    user_text: str
    source_question_id: str

    @property
    def text(self) -> str:
        return self.system_text + "\n\n" + self.user_text


class ParseResult(NamedTuple):
    value: str
    malformed: bool


@functools.cache
def template_pair(stage_tag: str) -> tuple[str, str]:
    """A stage's packaged (system, user) templates, each file read once."""
    if stage_tag not in STAGE_TAGS:
        raise ValueError(f"unknown stage tag: {stage_tag!r}")
    files = resources.files("anchor_rag.templates")
    system, user = (files.joinpath(f"{stage_tag}.{part}.txt").read_text(encoding="utf-8") for part in ("system", "user"))
    return system, user


# The benchmark's workload generator (perfbench/gen.py) reads the system
# prompts through this name.
DEFAULT_LIBRARY = SimpleNamespace(pair=template_pair)


def _fill(template: str, substitutions: dict[str, str]) -> str:
    # Literal replacement, not str.format: values may contain braces.
    out = template
    for key, value in substitutions.items():
        out = out.replace("{" + key + "}", value)
    return out


def format_triples_inline(triples: Sequence[ReasoningTriple]) -> str:
    return ", ".join(f"({t.subject} | {t.predicate} | {t.object})" for t in triples)


def format_documents(chunks: Sequence[Chunk]) -> str:
    lines = []
    for i, chunk in enumerate(chunks, start=1):
        label = chunk.title if chunk.title else chunk.doc_id
        lines.append(f"{i}. {label}: {chunk.text}")
    return "\n".join(lines)


def _render(stage_tag: str, q: QAItem, **substitutions: str) -> RenderedPrompt:
    system, user = template_pair(stage_tag)
    return RenderedPrompt(
        stage_tag=stage_tag,
        system_text=system,
        user_text=_fill(user, {"question": q.question, **substitutions}),
        source_question_id=q.question_id,
    )


def render_system1(q: QAItem) -> RenderedPrompt:
    """Direct-answer prompt: the bare question, no retrieved context."""
    return _render("system1", q)


def render_triplegen(q: QAItem, hypothesis: str) -> RenderedPrompt:
    """Ask the model to explain its hypothesis as subject-predicate-object triples."""
    return _render("triple_gen", q, answer=hypothesis)


def render_system2(
    q: QAItem,
    hypothesis: str,
    triples: Sequence[ReasoningTriple],
    chunks: Sequence[Chunk],
    include_anchor: bool = True,
) -> RenderedPrompt:
    """Deliberate re-answer prompt: question, optional anchor, numbered evidence.

    With ``include_anchor=False`` the initial guess and triples are omitted
    entirely (the model answers from the retrieved documents alone).
    """
    documents = format_documents(chunks)
    if not include_anchor:
        return _render("system2_noanchor", q, documents=documents)
    return _render("system2", q, documents=documents, initial_guess=hypothesis, triples=format_triples_inline(triples))


def render_standard_rag(q: QAItem, chunks: Sequence[Chunk]) -> RenderedPrompt:
    """One-shot retrieve-then-answer baseline prompt."""
    return _render("standard_rag", q, documents=format_documents(chunks))


def render_triple(t: ReasoningTriple) -> str:
    """Canonical tag form, the inverse of :func:`parse_triples` for one triple."""
    return f"<triple>{t.subject} | {t.predicate} | {t.object}</triple>"


def parse_answer(text: str) -> ParseResult:
    """Extract the first ``<answer>`` element; innermost content wins.

    Without tags, falls back to the whole text minus any ``<output>``
    wrapper, flagged malformed. Raises :class:`PromptParseError` when the
    extraction is empty.
    """
    match = _ANSWER_RE.search(text)
    if match:
        content = match.group(1)
        # A nested open tag means the regex caught an outer shell; keep the
        # innermost commitment.
        while "<answer>" in content:
            content = content.split("<answer>", 1)[1]
        value = content.strip()
        if not value:
            raise PromptParseError("empty <answer> element")
        return ParseResult(value, False)
    stripped = text.strip()
    wrapper = _OUTPUT_WRAPPER_RE.match(stripped)
    if wrapper:
        stripped = wrapper.group(1).strip()
    if not stripped:
        raise PromptParseError("no answer text found")
    return ParseResult(stripped, True)


def parse_triples(text: str) -> tuple[list[ReasoningTriple], int]:
    """Parse every well-formed ``<triple>S | p | O</triple>`` element.

    Elements with fewer than three fields, or with any field empty after
    trimming, are skipped and counted. Extra ``|`` separators are absorbed
    into the predicate so no text is discarded.
    """
    triples: list[ReasoningTriple] = []
    malformed = 0
    for inner in _TRIPLE_RE.findall(text):
        if inner.count("|") < 2:
            malformed += 1
            continue
        subject, rest = inner.split("|", 1)
        predicate, obj = rest.rsplit("|", 1)
        subject, predicate, obj = subject.strip(), predicate.strip(), obj.strip()
        if not (subject and predicate and obj):
            malformed += 1
            continue
        triples.append(ReasoningTriple(subject=subject, predicate=predicate, object=obj))
    return triples, malformed


def parse_final(text: str) -> ParseResult:
    """Extract the last ``<final_answer>`` element (the model's last word).

    Without tags, falls back to the last non-empty line, flagged malformed.
    """
    matches = _FINAL_RE.findall(text)
    for candidate in reversed(matches):
        value = candidate.strip()
        if value:
            return ParseResult(value, False)
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise PromptParseError("no final answer text found")
    return ParseResult(lines[-1], True)
