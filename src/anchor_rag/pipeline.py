"""Per-question orchestration of the answer-first pipeline.

Stage order in full mode: fast direct answer, triple generation from that
hypothesis, triple-anchored retrieval, then a deliberate re-answer over
the evidence. Ablation modes cut or reroute stages; a confidence gate can
stop confident questions after the first stage. Every question yields a
complete :class:`PipelineTrace` and a question never aborts a run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO

from anchor_rag.corpus import Chunk, QAItem, Tokenizer, get_tokenizer
from anchor_rag.embed_index import EmbedIndexError, Index, RetrievalHit, retrieve_for_queries, triple_query
from anchor_rag.llm_gateway import (
    ChatProvider,
    ChatRequest,
    ChatResponse,
    GatewayError,
    answer_token_span,
    complete,
    mean_logprob,
    mean_token_confidence,
)
from anchor_rag.prompt_kit import (
    PromptLibrary,
    PromptParseError,
    ReasoningTriple,
    RenderedPrompt,
    parse_answer,
    parse_final,
    parse_triples,
    render_standard_rag,
    render_system1,
    render_system2,
    render_triplegen,
)

MODES = ("full", "system1_only", "no_initial_reasoning", "threshold_gated", "standard_rag")
GATE_DECISIONS = ("complete", "continue", "ungated")

EMPTY_HYPOTHESIS_SENTINEL = "unknown"
TRACE_SCHEMA_VERSION = 1

logger = logging.getLogger(__name__)


class PipelineError(RuntimeError):
    """Configuration or wiring problem that prevents a run from starting."""


@dataclass(frozen=True)
class StageTokenLimits:
    """Max new tokens per stage; the deliberate pass gets the largest budget."""

    system1: int = 64
    triple_gen: int = 256
    system2: int = 1024

    def __post_init__(self) -> None:
        if min(self.system1, self.triple_gen, self.system2) < 1:
            raise PipelineError("stage token limits must be >= 1")
        if self.system2 < self.system1:
            raise PipelineError("system2 token limit must be >= system1 limit")


@dataclass(frozen=True)
class RunConfig:
    mode: str = "full"
    k_per_triple: int = 5
    confidence_threshold: float | None = None
    seed: int = 0
    temperature: float = 0.0
    limits: StageTokenLimits = field(default_factory=StageTokenLimits)
    query_style: str = "space"
    concurrency: int = 1
    max_failure_rate: float = 0.2
    chat_provider: dict = field(default_factory=dict)
    embed_provider: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise PipelineError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.k_per_triple < 1:
            raise PipelineError("k_per_triple must be >= 1")
        if self.confidence_threshold is not None and self.confidence_threshold < 0:
            raise PipelineError("confidence threshold must be >= 0 (or None to disable)")
        if self.concurrency < 1:
            raise PipelineError("concurrency must be >= 1")
        if not (0.0 <= self.max_failure_rate <= 1.0):
            raise PipelineError("max_failure_rate must lie in [0, 1]")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["limits"] = asdict(self.limits)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        limits = data.pop("limits", None) or data.pop("max_new_tokens", None)
        if isinstance(limits, dict):
            data["limits"] = StageTokenLimits(**limits)
        allowed = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - allowed
        if unknown:
            raise PipelineError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def decide_gate(confidence: float | None, threshold: float | None) -> str:
    """Stop at the fast answer only when its confidence clears the threshold.

    A disabled threshold or an unavailable confidence routes the question
    onward (fail-open toward more reasoning).
    """
    if threshold is None or confidence is None:
        return "continue"
    return "complete" if confidence >= threshold else "continue"


@dataclass(frozen=True)
class StageUsage:
    prompt_tokens: int
    completion_tokens: int


@dataclass
class PipelineTrace:
    """Full per-question record of one pipeline pass."""

    question_id: str
    question: str
    gold_answer: str
    dataset_tag: str
    mode: str
    system1_answer: str = ""
    confidence: float | None = None
    mean_answer_logprob: float | None = None
    gate_decision: str = "ungated"
    triples: list[ReasoningTriple] = field(default_factory=list)
    retrieval_queries: list[str] = field(default_factory=list)
    hits: list[RetrievalHit] = field(default_factory=list)
    retrieved_chunks: list[str] = field(default_factory=list)
    final_answer: str = ""
    payload_tokens: int = 0
    saved_input_tokens: int = 0
    usage: dict[str, StageUsage] = field(default_factory=dict)
    stage_ms: dict[str, float] = field(default_factory=dict)
    flags: dict[str, int | bool] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "question": self.question,
            "gold_answer": self.gold_answer,
            "dataset_tag": self.dataset_tag,
            "mode": self.mode,
            "system1_answer": self.system1_answer,
            "confidence": self.confidence,
            "mean_answer_logprob": self.mean_answer_logprob,
            "gate_decision": self.gate_decision,
            "triples": [[t.subject, t.predicate, t.object] for t in self.triples],
            "retrieval_queries": list(self.retrieval_queries),
            "hits": [{"chunk_id": h.chunk_id, "score": h.score, "query_index": h.query_index} for h in self.hits],
            "retrieved_chunks": list(self.retrieved_chunks),
            "final_answer": self.final_answer,
            "payload_tokens": self.payload_tokens,
            "saved_input_tokens": self.saved_input_tokens,
            "usage": {stage: asdict(u) for stage, u in self.usage.items()},
            "stage_ms": dict(self.stage_ms),
            "flags": dict(self.flags),
            "errors": list(self.errors),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PipelineTrace":
        return cls(
            question_id=data["question_id"],
            question=data["question"],
            gold_answer=data["gold_answer"],
            dataset_tag=data["dataset_tag"],
            mode=data["mode"],
            system1_answer=data["system1_answer"],
            confidence=data["confidence"],
            mean_answer_logprob=data["mean_answer_logprob"],
            gate_decision=data["gate_decision"],
            triples=[ReasoningTriple(subject=s, predicate=p, object=o) for s, p, o in data["triples"]],
            retrieval_queries=list(data["retrieval_queries"]),
            hits=[RetrievalHit(**h) for h in data["hits"]],
            retrieved_chunks=list(data["retrieved_chunks"]),
            final_answer=data["final_answer"],
            payload_tokens=data["payload_tokens"],
            saved_input_tokens=data["saved_input_tokens"],
            usage={stage: StageUsage(**u) for stage, u in data["usage"].items()},
            stage_ms=dict(data["stage_ms"]),
            flags=dict(data["flags"]),
            errors=list(data["errors"]),
        )


# --- per-stage results -------------------------------------------------------


@dataclass(frozen=True)
class System1Result:
    answer: str
    confidence: float | None
    mean_logprob: float | None
    malformed: bool
    empty: bool
    usage: StageUsage | None
    elapsed_ms: float
    error: str | None


@dataclass(frozen=True)
class TripleGenResult:
    triples: list[ReasoningTriple]
    malformed_count: int
    usage: StageUsage | None
    elapsed_ms: float
    error: str | None


@dataclass(frozen=True)
class EvidenceResult:
    chunk_ids: list[str]
    hits: list[RetrievalHit]
    queries: list[str]
    used_question_fallback: bool
    elapsed_ms: float
    error: str | None


@dataclass(frozen=True)
class System2Result:
    answer: str
    malformed: bool
    fell_back_to_hypothesis: bool
    empty: bool
    usage: StageUsage | None
    elapsed_ms: float
    error: str | None


class Pipeline:
    """Wires one chat provider, one index, and one chunk set into a runner."""

    def __init__(
        self,
        provider: ChatProvider,
        config: RunConfig,
        index: Index | None = None,
        chunks: Sequence[Chunk] = (),
        library: PromptLibrary | None = None,
        retry_sleep: Callable[[float], None] = time.sleep,
    ):
        self.provider = provider
        self.config = config
        self.index = index
        self.library = library or PromptLibrary()
        self._retry_sleep = retry_sleep
        self._chunks_by_id = {c.chunk_id: c for c in chunks}
        if len(self._chunks_by_id) != len(chunks):
            raise PipelineError("duplicate chunk ids in chunk set")
        if config.mode != "system1_only":
            if index is None:
                raise PipelineError(f"mode {config.mode!r} requires an index")
            missing = [cid for cid in index.ids if cid not in self._chunks_by_id]
            if missing:
                raise PipelineError(
                    f"index references {len(missing)} chunk id(s) absent from the chunk manifest "
                    f"(first: {missing[0]!r}); index and manifest are out of sync"
                )
        if chunks:
            tokenizer_ids = {c.tokenizer_id for c in chunks}
            if len(tokenizer_ids) > 1:
                raise PipelineError(f"chunk set mixes tokenizers: {sorted(tokenizer_ids)}")
            self.tokenizer: Tokenizer = get_tokenizer(next(iter(tokenizer_ids)))
        else:
            self.tokenizer = get_tokenizer("wordpunct-v1")

    # --- stage calls --------------------------------------------------------

    def _call(self, prompt: RenderedPrompt, max_new_tokens: int, want_logprobs: bool = False):
        request = ChatRequest(
            system_prompt=prompt.system_text,
            user_prompt=prompt.user_text,
            max_new_tokens=max_new_tokens,
            temperature=self.config.temperature,
            want_logprobs=want_logprobs,
            stage_tag=prompt.stage_tag,
            question_id=prompt.source_question_id,
        )
        started = time.perf_counter()
        try:
            response: ChatResponse | None = complete(request, self.provider, sleep=self._retry_sleep)
            error = None
        except GatewayError as exc:
            response, error = None, f"{prompt.stage_tag}: {exc}"
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        return response, error, elapsed_ms

    @staticmethod
    def _usage(response: ChatResponse | None) -> StageUsage | None:
        if response is None:
            return None
        return StageUsage(prompt_tokens=response.prompt_tokens, completion_tokens=response.completion_tokens)

    def answer_system1(self, q: QAItem) -> System1Result:
        """Fast direct answer plus its mean answer-token probability."""
        prompt = render_system1(q, self.library)
        response, error, elapsed = self._call(prompt, self.config.limits.system1, want_logprobs=True)
        if response is None:
            return System1Result("", None, None, False, True, None, elapsed, error)
        try:
            value, malformed = parse_answer(response.text)
        except PromptParseError as exc:
            return System1Result(
                "", None, None, True, True, self._usage(response), elapsed, f"system1: {exc}"
            )
        span = answer_token_span(response)
        return System1Result(
            answer=value,
            confidence=mean_token_confidence(response, span),
            mean_logprob=mean_logprob(response, span),
            malformed=malformed,
            empty=False,
            usage=self._usage(response),
            elapsed_ms=elapsed,
            error=None,
        )

    def generate_triples(self, q: QAItem, hypothesis: str) -> TripleGenResult:
        """Explain the hypothesis as triples; an empty list is legal output."""
        prompt = render_triplegen(q, hypothesis, self.library)
        response, error, elapsed = self._call(prompt, self.config.limits.triple_gen)
        if response is None:
            return TripleGenResult([], 0, None, elapsed, error)
        triples, malformed_count = parse_triples(response.text)
        return TripleGenResult(triples, malformed_count, self._usage(response), elapsed, None)

    def gather_evidence(self, q: QAItem, triples: Sequence[ReasoningTriple]) -> EvidenceResult:
        """Triple-anchored retrieval; falls back to the raw question when
        no triples survived parsing."""
        if self.index is None:
            raise PipelineError("gather_evidence requires an index")
        fallback = not triples
        queries = (
            [q.question] if fallback else [triple_query(t, style=self.config.query_style) for t in triples]
        )
        started = time.perf_counter()
        try:
            chunk_ids, hits = retrieve_for_queries(self.index, queries, k_per_query=self.config.k_per_triple)
            error = None
        except EmbedIndexError as exc:
            chunk_ids, hits, error = [], [], f"retrieval: {exc}"
        elapsed = (time.perf_counter() - started) * 1000.0
        return EvidenceResult(chunk_ids, hits, queries, fallback, elapsed, error)

    def answer_system2(
        self,
        q: QAItem,
        hypothesis: str,
        triples: Sequence[ReasoningTriple],
        chunk_ids: Sequence[str],
        include_anchor: bool = True,
    ) -> System2Result:
        """Deliberate re-answer over the evidence.

        When the model produces no usable final answer the hypothesis is
        reused, provided it was in the prompt (anchored modes only).
        """
        chunks = [self._chunks_by_id[cid] for cid in chunk_ids]
        prompt = render_system2(q, hypothesis, triples, chunks, include_anchor=include_anchor, library=self.library)
        response, error, elapsed = self._call(prompt, self.config.limits.system2)
        if response is None:
            if include_anchor and hypothesis:
                return System2Result(hypothesis, False, True, False, None, elapsed, error)
            return System2Result("", False, False, True, None, elapsed, error)
        try:
            value, malformed = parse_final(response.text)
        except PromptParseError as exc:
            if include_anchor and hypothesis:
                return System2Result(
                    hypothesis, True, True, False, self._usage(response), elapsed, f"system2: {exc}"
                )
            return System2Result("", True, False, True, self._usage(response), elapsed, f"system2: {exc}")
        return System2Result(value, malformed, False, False, self._usage(response), elapsed, None)

    # --- per-question orchestration ------------------------------------------

    def _payload(self, chunk_ids: Sequence[str]) -> int:
        return sum(self._chunks_by_id[cid].token_count for cid in chunk_ids)

    def _system2_prompt_tokens(
        self, q: QAItem, hypothesis: str, triples: Sequence[ReasoningTriple], chunk_ids: Sequence[str]
    ) -> int:
        chunks = [self._chunks_by_id[cid] for cid in chunk_ids]
        prompt = render_system2(q, hypothesis, triples, chunks, include_anchor=True, library=self.library)
        return self.tokenizer.count(prompt.system_text) + self.tokenizer.count(prompt.user_text)

    def _run_standard_rag(self, q: QAItem, trace: PipelineTrace) -> None:
        started = time.perf_counter()
        try:
            chunk_ids, hits = retrieve_for_queries(self.index, [q.question], k_per_query=self.config.k_per_triple)
        except EmbedIndexError as exc:
            trace.errors.append(f"retrieval: {exc}")
            return
        trace.stage_ms["retrieval"] = (time.perf_counter() - started) * 1000.0
        trace.retrieval_queries = [q.question]
        trace.hits = hits
        trace.retrieved_chunks = chunk_ids
        trace.payload_tokens = self._payload(chunk_ids)
        chunks = [self._chunks_by_id[cid] for cid in chunk_ids]
        prompt = render_standard_rag(q, chunks, library=self.library)
        response, error, elapsed = self._call(prompt, self.config.limits.system2)
        trace.stage_ms["standard_rag"] = elapsed
        if response is None:
            trace.errors.append(error)
            return
        trace.usage["standard_rag"] = self._usage(response)
        try:
            value, malformed = parse_answer(response.text)
        except PromptParseError as exc:
            trace.errors.append(f"standard_rag: {exc}")
            return
        trace.final_answer = value
        trace.flags["final_malformed"] = malformed

    def run_question(self, q: QAItem) -> PipelineTrace:
        """Run one question under the configured mode; never raises per-question."""
        cfg = self.config
        trace = PipelineTrace(
            question_id=q.question_id,
            question=q.question,
            gold_answer=q.gold_answer,
            dataset_tag=q.dataset_tag,
            mode=cfg.mode,
        )
        if cfg.mode == "standard_rag":
            self._run_standard_rag(q, trace)
            return trace

        s1 = self.answer_system1(q)
        trace.system1_answer = s1.answer
        trace.confidence = s1.confidence
        trace.mean_answer_logprob = s1.mean_logprob
        trace.stage_ms["system1"] = s1.elapsed_ms
        if s1.usage:
            trace.usage["system1"] = s1.usage
        if s1.malformed:
            trace.flags["system1_malformed"] = True
        if s1.empty:
            trace.flags["system1_empty"] = True
        if s1.error:
            trace.errors.append(s1.error)

        if cfg.mode == "system1_only":
            trace.final_answer = s1.answer
            return trace

        if cfg.mode == "threshold_gated":
            trace.gate_decision = decide_gate(s1.confidence, cfg.confidence_threshold)

        hypothesis = s1.answer if s1.answer else EMPTY_HYPOTHESIS_SENTINEL

        tg = self.generate_triples(q, hypothesis)
        trace.triples = tg.triples
        trace.stage_ms["triple_gen"] = tg.elapsed_ms
        if tg.usage:
            trace.usage["triple_gen"] = tg.usage
        if tg.malformed_count:
            trace.flags["triples_malformed"] = tg.malformed_count
        if tg.error:
            trace.errors.append(tg.error)

        ev = self.gather_evidence(q, tg.triples)
        trace.retrieval_queries = ev.queries
        trace.hits = ev.hits
        trace.retrieved_chunks = ev.chunk_ids
        trace.stage_ms["retrieval"] = ev.elapsed_ms
        trace.payload_tokens = self._payload(ev.chunk_ids)
        if ev.used_question_fallback:
            trace.flags["fallback_question_query"] = True
        if ev.error:
            trace.errors.append(ev.error)

        if trace.gate_decision == "complete":
            # Confident enough: keep the fast answer and only render (never
            # send) the deliberate prompt, recording the input tokens saved.
            trace.final_answer = s1.answer
            if ev.chunk_ids:
                trace.saved_input_tokens = self._system2_prompt_tokens(q, hypothesis, tg.triples, ev.chunk_ids)
            return trace

        if not ev.chunk_ids:
            trace.errors.append("system2: no retrieved chunks to answer over")
            trace.final_answer = hypothesis if cfg.mode != "no_initial_reasoning" else ""
            trace.flags["final_fell_back_to_hypothesis"] = cfg.mode != "no_initial_reasoning"
            return trace

        include_anchor = cfg.mode != "no_initial_reasoning"
        s2 = self.answer_system2(q, hypothesis, tg.triples, ev.chunk_ids, include_anchor=include_anchor)
        trace.final_answer = s2.answer
        trace.stage_ms["system2"] = s2.elapsed_ms
        if s2.usage:
            trace.usage["system2"] = s2.usage
        if s2.malformed:
            trace.flags["final_malformed"] = True
        if s2.fell_back_to_hypothesis:
            trace.flags["final_fell_back_to_hypothesis"] = True
        if s2.empty:
            trace.flags["final_empty"] = True
        if s2.error:
            trace.errors.append(s2.error)
        return trace

    # --- dataset runs ---------------------------------------------------------

    def run_dataset(
        self,
        items: Sequence[QAItem],
        trace_path: str | Path | None = None,
        resume: bool = False,
    ) -> list[PipelineTrace]:
        """Run every question, appending traces to ``trace_path`` as they finish.

        Questions are processed in ascending question-id order, so an
        interrupted run leaves a sorted prefix and ``resume=True`` picks up
        exactly the remaining ids. Resume refuses a trace file written under
        a different config.
        """
        ordered = sorted(items, key=lambda q: q.question_id)
        if len({q.question_id for q in ordered}) != len(ordered):
            raise PipelineError("duplicate question ids in run set")
        existing: list[PipelineTrace] = []
        writer = None
        path = Path(trace_path) if trace_path is not None else None
        try:
            if path is not None:
                if resume and path.exists():
                    header, existing, end = _scan_trace_file(path)
                    if header.get("config_hash") != self.config.config_hash():
                        raise PipelineError(
                            f"{path} was written under a different config; refusing to resume"
                        )
                    writer = _append_after(path, end)
                else:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    writer = path.open("w", encoding="utf-8")
                    writer.write(json.dumps(_trace_header(self.config)) + "\n")
                    writer.flush()
            done = {t.question_id for t in existing}
            todo = [q for q in ordered if q.question_id not in done]
            fresh: list[PipelineTrace] = []
            if self.config.concurrency > 1 and len(todo) > 1:
                with ThreadPoolExecutor(max_workers=self.config.concurrency) as pool:
                    results = pool.map(self.run_question, todo)
                    for trace in results:
                        fresh.append(trace)
                        if writer:
                            writer.write(json.dumps(trace.to_json_dict(), ensure_ascii=False) + "\n")
                            writer.flush()
            else:
                for q in todo:
                    trace = self.run_question(q)
                    fresh.append(trace)
                    if writer:
                        writer.write(json.dumps(trace.to_json_dict(), ensure_ascii=False) + "\n")
                        writer.flush()
        finally:
            if writer:
                writer.close()
        return sorted(existing + fresh, key=lambda t: t.question_id)


# --- trace file I/O -----------------------------------------------------------


def _trace_header(config: RunConfig) -> dict:
    return {
        "kind": "trace_file",
        "schema_version": TRACE_SCHEMA_VERSION,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
    }


def read_trace_file(path: str | Path) -> tuple[dict, list[PipelineTrace]]:
    header, traces, _ = _scan_trace_file(path)
    return header, traces


def _scan_trace_file(path: str | Path) -> tuple[dict, list[PipelineTrace], int]:
    """Parse a trace file and return its header, its traces and the byte
    length of the lines they came from.

    A last line that has no newline and does not parse is what a crash
    leaves behind mid-write: it is dropped with a warning and is not counted
    in the length. Any other line that does not parse raises
    :class:`PipelineError`.
    """
    path = Path(path)
    if not path.is_file():
        raise PipelineError(f"trace file not found: {path}")
    with path.open("rb") as fh:
        first = fh.readline()
        if not first.strip():
            raise PipelineError(f"{path} is empty")
        try:
            header = json.loads(first)
        except ValueError as exc:
            raise PipelineError(f"{path}: cannot parse the header line: {exc}") from exc
        if not isinstance(header, dict) or header.get("kind") != "trace_file":
            raise PipelineError(f"{path} is not a trace file")
        if header.get("schema_version") != TRACE_SCHEMA_VERSION:
            raise PipelineError(
                f"{path}: schema version {header.get('schema_version')} "
                f"(this build reads {TRACE_SCHEMA_VERSION})"
            )
        traces = []
        end = len(first)
        for lineno, line in enumerate(fh, 2):
            if line.strip():
                try:
                    traces.append(PipelineTrace.from_json_dict(json.loads(line)))
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    if not line.endswith(b"\n"):
                        logger.warning("%s: dropping torn last line %d (%d bytes)", path, lineno, len(line))
                        break
                    raise PipelineError(f"{path}: line {lineno} is not a valid trace: {exc}") from exc
            end += len(line)
    return header, traces, end


def _append_after(path: Path, end: int) -> TextIO:
    """Open a trace file for appending after its first ``end`` bytes.

    Whatever follows them (a torn last line) is cut off, and the kept part
    is ended with a newline, so the next trace starts on a line of its own.
    """
    with path.open("r+b") as fh:
        fh.truncate(end)
        fh.seek(end - 1)
        ends_line = fh.read(1) == b"\n"
    writer = path.open("a", encoding="utf-8")
    if not ends_line:
        writer.write("\n")
    return writer


def write_trace_file(path: str | Path, config: RunConfig, traces: Iterable[PipelineTrace]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(_trace_header(config)) + "\n")
        for trace in traces:
            fh.write(json.dumps(trace.to_json_dict(), ensure_ascii=False) + "\n")
