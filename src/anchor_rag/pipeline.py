"""Per-question orchestration of the answer-first pipeline.

Stage order in full mode: fast direct answer, triple generation from that
hypothesis, triple-anchored retrieval, then a deliberate re-answer over
the evidence. Ablation modes cut or reroute stages; a confidence gate can
stop confident questions after the first stage. Every question yields a
complete :class:`PipelineTrace` and a question never aborts a run.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, Sequence

from anchor_rag.corpus import DEFAULT_TOKENIZER, Chunk, QAItem
from anchor_rag.embed_index import EmbedIndexError, Index, embed, retrieve_for_queries, triple_query
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
    PromptParseError,
    RenderedPrompt,
    parse_answer,
    parse_final,
    parse_triples,
    render_standard_rag,
    render_system1,
    render_system2,
    render_triplegen,
)
from anchor_rag.traces import (
    PipelineError,
    PipelineTrace,
    RetrievalHit,
    RunConfig,
    StageUsage,
    _append_after,
    _scan_trace_file,
    _trace_header,
    decide_gate,
    # Unused here: perfbench's tracer patches pipeline.read_trace_file, and
    # the acceptance suite imports it from here.
    read_trace_file,
)

# Float32 scores per standard_rag retrieval block: ``run_dataset`` embeds
# and selects max(1, _QUESTION_BLOCK_SCORES // len(index)) questions at a
# time, so a block's score matrix stays at or under 128 KiB, and from
# 32,768 rows up a block is one question, as a lone search is.
_QUESTION_BLOCK_SCORES = 1 << 15


class Pipeline:
    """Wires one chat provider, one index, and one chunk set into a runner.

    Each stage method reads what earlier stages left on the
    :class:`PipelineTrace` it is given and writes its own result there.
    """

    def __init__(
        self,
        provider: ChatProvider,
        config: RunConfig,
        index: Index | None = None,
        chunks: Sequence[Chunk] = (),
    ):
        self.provider = provider
        self.config = config
        self.index = index
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

    # --- stage calls --------------------------------------------------------

    def _call(
        self, trace: PipelineTrace, prompt: RenderedPrompt, max_new_tokens: int, want_logprobs: bool = False
    ) -> ChatResponse | None:
        """Send one stage prompt and record its time, its usage and any
        gateway error on the trace; ``system2_noanchor`` is recorded as
        ``system2``. Returns None when the call failed."""
        stage = "system2" if prompt.stage_tag == "system2_noanchor" else prompt.stage_tag
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
            response: ChatResponse | None = complete(request, self.provider)
        except GatewayError as exc:
            response = None
            trace.errors.append(f"{prompt.stage_tag}: {exc}")
        trace.stage_ms[stage] = (time.perf_counter() - started) * 1000.0
        if response is not None:
            trace.usage[stage] = StageUsage(response.prompt_tokens, response.completion_tokens)
        return response

    def _chunks(self, trace: PipelineTrace) -> list[Chunk]:
        return [self._chunks_by_id[cid] for cid in trace.retrieved_chunks]

    def answer_system1(self, q: QAItem, trace: PipelineTrace) -> None:
        """Fast direct answer plus its mean answer-token probability."""
        response = self._call(trace, render_system1(q), self.config.limits.system1, want_logprobs=True)
        if response is None:
            trace.flags["system1_empty"] = True
            return
        try:
            trace.system1_answer, malformed = parse_answer(response.text)
        except PromptParseError as exc:
            trace.flags.update(system1_malformed=True, system1_empty=True)
            trace.errors.append(f"system1: {exc}")
            return
        if malformed:
            trace.flags["system1_malformed"] = True
        span = answer_token_span(response)
        trace.confidence = mean_token_confidence(response, span)
        trace.mean_answer_logprob = mean_logprob(response, span)

    def generate_triples(self, q: QAItem, trace: PipelineTrace) -> None:
        """Explain the hypothesis as triples; an empty list is legal output."""
        response = self._call(trace, render_triplegen(q, trace.hypothesis), self.config.limits.triple_gen)
        if response is not None:
            trace.triples, malformed_count = parse_triples(response.text)
            if malformed_count:
                trace.flags["triples_malformed"] = malformed_count

    def gather_evidence(self, q: QAItem, trace: PipelineTrace) -> None:
        """Retrieve top-k per triple and record the union on the trace.

        The trace's triples are the queries (triple-anchored retrieval), or
        the raw question, flagged, when no triple survived parsing. A failed
        retrieval records its error and still records its queries and time,
        with no hits.
        """
        queries = [triple_query(t) for t in trace.triples] or [q.question]
        started = time.perf_counter()
        try:
            chunk_ids, hits = retrieve_for_queries(self.index, queries, k_per_query=self.config.k_per_triple)
        except EmbedIndexError as exc:
            trace.errors.append(f"retrieval: {exc}")
            chunk_ids, hits = [], []
        self._record_evidence(trace, queries, chunk_ids, hits, (time.perf_counter() - started) * 1000.0)
        if not trace.triples:
            trace.flags["fallback_question_query"] = True

    def retrieve_questions(self, items: Sequence[QAItem]) -> list[PipelineTrace]:
        """The standard-RAG baseline's retrieval for a block of questions: a
        new trace per question, holding its top k for the raw question.

        All questions are embedded in one ``embed`` call (one ``/embeddings``
        round trip for a remote embedder) and selected by one
        ``Index._top_k`` call, whose hits depend only on the row and the
        query, so each question gets exactly the hits ``Index.search`` gives
        it alone. Each trace's retrieval time is its share of the block's.
        A failed retrieval records its error on every question of the block,
        each with its query and no hits.
        """
        traces = [self._new_trace(q) for q in items]
        started = time.perf_counter()
        try:
            vectors = embed([q.question for q in items], self.index.provider)
            ranked = self.index._top_k(vectors, self.config.k_per_triple)
        except EmbedIndexError as exc:
            for trace in traces:
                trace.errors.append(f"retrieval: {exc}")
            ranked = [[] for _ in items]
        share_ms = (time.perf_counter() - started) * 1000.0 / len(items)
        for q, trace, pairs in zip(items, traces, ranked):
            hits = [RetrievalHit(chunk_id=cid, score=score, query_index=0) for cid, score in pairs]
            self._record_evidence(trace, [q.question], [cid for cid, _ in pairs], hits, share_ms)
        return traces

    def _record_evidence(
        self, trace: PipelineTrace, queries: list[str], chunk_ids: list[str], hits: list[RetrievalHit], ms: float
    ) -> None:
        trace.stage_ms["retrieval"] = ms
        trace.retrieval_queries = queries
        trace.retrieved_chunks, trace.hits = chunk_ids, hits
        trace.payload_tokens = sum(c.token_count for c in self._chunks(trace))

    def _system2_prompt(self, q: QAItem, trace: PipelineTrace, include_anchor: bool = True) -> RenderedPrompt:
        return render_system2(q, trace.hypothesis, trace.triples, self._chunks(trace), include_anchor=include_anchor)

    def answer_system2(self, q: QAItem, trace: PipelineTrace, include_anchor: bool = True) -> None:
        """Deliberate re-answer over the retrieved evidence.

        When there is no evidence or the model produces no usable final
        answer, the hypothesis is reused, provided it was in the prompt
        (anchored modes only).
        """
        if not trace.retrieved_chunks:
            trace.errors.append("system2: no retrieved chunks to answer over")
            trace.final_answer = trace.hypothesis if include_anchor else ""
            trace.flags["final_fell_back_to_hypothesis"] = include_anchor
            return
        response = self._call(trace, self._system2_prompt(q, trace, include_anchor), self.config.limits.system2)
        if response is not None:
            try:
                trace.final_answer, malformed = parse_final(response.text)
            except PromptParseError as exc:
                trace.flags["final_malformed"] = True
                trace.errors.append(f"system2: {exc}")
            else:
                if malformed:
                    trace.flags["final_malformed"] = True
                return
        if include_anchor:
            trace.final_answer = trace.hypothesis
            trace.flags["final_fell_back_to_hypothesis"] = True
        else:
            trace.flags["final_empty"] = True

    def answer_standard_rag(self, q: QAItem, trace: PipelineTrace) -> None:
        """Baseline: answer directly over the chunks that
        :meth:`retrieve_questions` recorded on ``trace`` for the raw question."""
        if not trace.retrieved_chunks:  # the retrieval failed
            return
        prompt = render_standard_rag(q, self._chunks(trace))
        response = self._call(trace, prompt, self.config.limits.system2)
        if response is None:
            return
        try:
            trace.final_answer, trace.flags["final_malformed"] = parse_answer(response.text)
        except PromptParseError as exc:
            trace.errors.append(f"standard_rag: {exc}")

    # --- per-question orchestration ------------------------------------------

    def _new_trace(self, q: QAItem) -> PipelineTrace:
        return PipelineTrace(
            question_id=q.question_id,
            question=q.question,
            gold_answer=q.gold_answer,
            dataset_tag=q.dataset_tag,
            mode=self.config.mode,
        )

    def run_question(self, q: QAItem, retrieved: PipelineTrace | None = None) -> PipelineTrace:
        """Run one question under the configured mode; never raises per-question.

        In ``standard_rag`` mode the question's retrieval is the block-of-one
        case of :meth:`retrieve_questions`, unless ``retrieved`` is the trace
        a block's call already returned for it (as ``run_dataset`` passes).
        """
        cfg = self.config
        if cfg.mode == "standard_rag":
            trace = retrieved if retrieved is not None else self.retrieve_questions([q])[0]
            self.answer_standard_rag(q, trace)
            return trace

        trace = self._new_trace(q)
        self.answer_system1(q, trace)
        if cfg.mode == "system1_only":
            trace.final_answer = trace.system1_answer
            return trace
        if cfg.mode == "threshold_gated":
            trace.gate_decision = decide_gate(trace.confidence, cfg.confidence_threshold)

        self.generate_triples(q, trace)
        self.gather_evidence(q, trace)

        if trace.gate_decision == "complete":
            # Confident enough: keep the fast answer and only render (never
            # send) the deliberate prompt, recording the input tokens saved.
            trace.final_answer = trace.system1_answer
            if trace.retrieved_chunks:
                prompt = self._system2_prompt(q, trace)
                trace.saved_input_tokens = sum(map(DEFAULT_TOKENIZER.count, (prompt.system_text, prompt.user_text)))
            return trace

        self.answer_system2(q, trace, include_anchor=cfg.mode != "no_initial_reasoning")
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

        In ``standard_rag`` mode the questions still to run are retrieved in
        blocks of max(1, 2**15 // len(index)), each by one
        :meth:`retrieve_questions` call on the calling thread; at
        concurrency > 1 the pool answers one block's questions while the
        next block is retrieved. A block of one (from 2**15 rows up) is
        retrieved by :meth:`run_question` on the worker that answers it,
        so retrievals still run ``concurrency`` at a time. Traces are written in id order and equal
        those of one :meth:`run_question` per question, apart from
        ``stage_ms``: a question's ``retrieval`` time is its share of its
        block's, and a block whose retrieval fails records the error on
        each of its questions.
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
            args: list[Iterable] = [todo]
            size = max(1, _QUESTION_BLOCK_SCORES // len(self.index)) if self.config.mode == "standard_rag" else 1
            if size > 1:
                # Retrieved lazily, block by block: the pool answers one
                # block while the next is retrieved, and the serial path
                # retrieves a block only when it reaches it. A block of one
                # is retrieved by run_question, on the worker that answers it.
                args.append(
                    t for s in range(0, len(todo), size) for t in self.retrieve_questions(todo[s : s + size])
                )
            # The pool starts threads only when work is submitted to it.
            with ThreadPoolExecutor(max_workers=self.config.concurrency) as pool:
                parallel = self.config.concurrency > 1 and len(todo) > 1
                for trace in (pool.map if parallel else map)(self.run_question, *args):
                    fresh.append(trace)
                    if writer:
                        writer.write(json.dumps(trace.to_json_dict(), ensure_ascii=False) + "\n")
                        writer.flush()
        finally:
            if writer:
                writer.close()
        return sorted(existing + fresh, key=lambda t: t.question_id)

