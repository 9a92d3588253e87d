"""Per-question orchestration of the answer-first pipeline.

Stage order in full mode: fast direct answer, triple generation from that
hypothesis, triple-anchored retrieval, then a deliberate re-answer over
the evidence. Ablation modes cut or reroute stages; a confidence gate can
stop confident questions after the first stage. Every question yields a
complete :class:`PipelineTrace` and a question never aborts a run.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from pathlib import Path
from typing import Iterator, Sequence

from anchor_rag.corpus import DEFAULT_TOKENIZER, Chunk, QAItem
from anchor_rag.embed_index import EmbedIndexError, Index, embed, triple_query
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

# Float32 scores per retrieval block of one query a question: ``run_dataset``
# embeds and selects max(1, _QUESTION_BLOCK_SCORES // len(index)) questions
# at a time. A standard_rag question is one query, so its block's score
# matrix stays at or under 128 KiB; a question of the other modes has one
# query per triple, about 4, so about 512 KiB at 4 triples. Only the
# triple-generation reply bounds a question's triples: a triple takes
# several tokens of ``limits.triple_gen`` (256 by default), so a block of
# questions that parse many of them grows to a few MB at most (32 triples a
# question make 8 times the scores of 4). From 32,768 rows up a block is one
# question, as a lone search is.
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
        """Triple-anchored retrieval for one question: the one-question case
        of :meth:`retrieve_block`."""
        self.retrieve_block([q], [trace])

    def retrieve_block(self, items: Sequence[QAItem], traces: Sequence[PipelineTrace]) -> None:
        """Retrieve the evidence of a block of questions onto their traces.

        A question's queries are its trace's triples (triple-anchored
        retrieval), or the raw question when it has none: always in
        ``standard_rag``, and in the other modes when no triple survived
        parsing, flagged ``fallback_question_query``. The block's queries
        are embedded in one ``embed`` call (one ``/embeddings`` round trip
        for a remote embedder) and selected by one ``Index._top_k`` call,
        whose hits depend only on the row and the query, so each question
        gets exactly the hits and union ``retrieve_for_queries`` gives its
        queries alone. Each trace's retrieval time is its share of the
        block's. A failed retrieval records its error on every question of
        the block, each with its queries and no hits.
        """
        queries = [[triple_query(t) for t in trace.triples] or [q.question] for q, trace in zip(items, traces)]
        started = time.perf_counter()
        try:
            vectors = embed([text for texts in queries for text in texts], self.index.provider)
            ranked = iter(self.index._top_k(vectors, self.config.k_per_triple))
        except EmbedIndexError as exc:
            for trace in traces:
                trace.errors.append(f"retrieval: {exc}")
            ranked = itertools.repeat([])
        share_ms = (time.perf_counter() - started) * 1000.0 / len(items)
        for trace, texts in zip(traces, queries):
            trace.hits = [
                RetrievalHit(chunk_id=cid, score=score, query_index=qi)
                for qi, pairs in enumerate(itertools.islice(ranked, len(texts)))
                for cid, score in pairs
            ]
            trace.stage_ms["retrieval"] = share_ms
            trace.retrieval_queries = texts
            trace.retrieved_chunks = list(dict.fromkeys(hit.chunk_id for hit in trace.hits))
            trace.payload_tokens = sum(c.token_count for c in self._chunks(trace))
            if not trace.triples and self.config.mode != "standard_rag":
                trace.flags["fallback_question_query"] = True

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
        :meth:`retrieve_block` recorded on ``trace`` for the raw question."""
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

        The question's retrieval is the one-question case of
        :meth:`retrieve_block`, unless ``retrieved`` is its trace with the
        first stages run and a block's retrieval recorded (as
        ``run_dataset`` passes): then only the answering stages run.
        """
        cfg = self.config
        if retrieved is not None:
            trace = retrieved
        else:
            trace = self._first_stages(q)
            if cfg.mode == "system1_only":
                return trace
            self.gather_evidence(q, trace)

        if cfg.mode == "standard_rag":
            self.answer_standard_rag(q, trace)
        elif trace.gate_decision == "complete":
            # Confident enough: keep the fast answer and only render (never
            # send) the deliberate prompt, recording the input tokens saved.
            trace.final_answer = trace.system1_answer
            if trace.retrieved_chunks:
                prompt = self._system2_prompt(q, trace)
                trace.saved_input_tokens = sum(map(DEFAULT_TOKENIZER.count, (prompt.system_text, prompt.user_text)))
        else:
            self.answer_system2(q, trace, include_anchor=cfg.mode != "no_initial_reasoning")
        return trace

    def _first_stages(self, q: QAItem) -> PipelineTrace:
        """A new trace for ``q`` holding the stages before retrieval: the fast
        answer, the gate decision and the triples (none in ``standard_rag``;
        in ``system1_only`` the fast answer is final)."""
        cfg = self.config
        trace = self._new_trace(q)
        if cfg.mode == "standard_rag":
            return trace
        self.answer_system1(q, trace)
        if cfg.mode == "system1_only":
            trace.final_answer = trace.system1_answer
            return trace
        if cfg.mode == "threshold_gated":
            trace.gate_decision = decide_gate(trace.confidence, cfg.confidence_threshold)
        self.generate_triples(q, trace)
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

        In every mode with an index, the questions still to run are
        retrieved in blocks of max(1, 2**15 // len(index)): each block's
        first stages run per question, then one :meth:`retrieve_block` call
        on the calling thread retrieves the whole block, then its answering
        stages run per question. At concurrency > 1 a worker runs each
        question's first stages and its answering stages, and the first
        stages of the next ceil(concurrency / block size) blocks are sent to
        the pool before a block is retrieved, so ``concurrency`` model calls
        stay in flight across block edges. A block of one (from 2**15 rows
        up) is run by :meth:`run_question` on the worker that answers it,
        so retrievals still run ``concurrency`` at a time. Traces are
        written in id order, each as soon as it and every earlier one are
        finished, and equal those of one :meth:`run_question` per question,
        apart from ``stage_ms``: a question's ``retrieval`` time is its
        share of its block's, and a block whose retrieval fails records the
        error on each of its questions. So an interrupt loses the calls
        made for the unfinished questions of up to one block (at concurrency
        > 1 also for the questions whose first stages run ahead), which
        ``resume`` redoes.
        """
        ordered = sorted(items, key=lambda q: q.question_id)
        if len({q.question_id for q in ordered}) != len(ordered):
            raise PipelineError("duplicate question ids in run set")
        existing: list[PipelineTrace] = []
        writer = None
        path = Path(trace_path) if trace_path is not None else None
        # The pool starts threads only when work is submitted to it.
        pool = ThreadPoolExecutor(max_workers=self.config.concurrency)
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
            parallel = self.config.concurrency > 1 and len(todo) > 1
            size = 1 if self.config.mode == "system1_only" else max(1, _QUESTION_BLOCK_SCORES // len(self.index))
            if size == 1:
                traces = (pool.map if parallel else map)(self.run_question, todo)
            elif parallel:
                traces = self._overlapped_blocks(pool, todo, size)
            else:
                traces = self._blocks(todo, size)
            for trace in traces:
                fresh.append(trace)
                if writer:
                    writer.write(json.dumps(trace.to_json_dict(), ensure_ascii=False) + "\n")
                    writer.flush()
        finally:
            # After an interrupt or an error, queued questions never start;
            # the calls already running end first.
            pool.shutdown(cancel_futures=True)
            if writer:
                writer.close()
        return sorted(existing + fresh, key=lambda t: t.question_id)

    def _blocks(self, todo: list[QAItem], size: int) -> Iterator[PipelineTrace]:
        """Each trace of ``todo`` in order, run one block of ``size`` at a time."""
        for start in range(0, len(todo), size):
            block = todo[start : start + size]
            traces = [self._first_stages(q) for q in block]
            self.retrieve_block(block, traces)
            yield from map(self.run_question, block, traces)

    def _overlapped_blocks(self, pool: ThreadPoolExecutor, todo: list[QAItem], size: int) -> Iterator[PipelineTrace]:
        """Each trace of ``todo`` in order, with blocks of ``size`` retrieved
        on this thread and every model call made on ``pool``.

        Before a block is retrieved, the first stages of the next
        ceil(concurrency / size) blocks are queued: at least ``concurrency``
        questions, so the workers stay busy while this thread waits for the
        block and retrieves it. A trace is yielded as soon as it and every
        earlier one are finished.
        """
        blocks = (todo[s : s + size] for s in range(0, len(todo), size))
        ahead = -(-self.config.concurrency // size)
        queued: deque[tuple[list[QAItem], list[Future]]] = deque()  # blocks whose first stages are queued
        answers: deque[Future] = deque()  # answering stages, in question order

        def finished() -> Iterator[PipelineTrace]:
            while answers and answers[0].done():
                yield answers.popleft().result()

        while True:
            for block in itertools.islice(blocks, ahead + 1 - len(queued)):
                queued.append((block, [pool.submit(self._first_stages, q) for q in block]))
            if not queued:
                break
            block, firsts = queued.popleft()
            pending = [f for f in firsts if not f.done()]
            while pending:
                wait(pending + list(itertools.islice(answers, 1)), return_when=FIRST_COMPLETED)
                yield from finished()
                pending = [f for f in pending if not f.done()]
            traces = [f.result() for f in firsts]
            self.retrieve_block(block, traces)
            answers.extend(pool.submit(self.run_question, q, trace) for q, trace in zip(block, traces))
            yield from finished()
        while answers:
            yield answers.popleft().result()
