"""Per-question orchestration of the answer-first pipeline.

Stage order in full mode: fast direct answer, triple generation from that
hypothesis, triple-anchored retrieval, then a deliberate re-answer over
the evidence. Ablation modes cut or reroute stages; a confidence gate can
stop confident questions after the first stage. Every question yields a
complete :class:`PipelineTrace` and a question never aborts a run.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ThreadPoolExecutor, wait
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from anchor_rag.corpus import DEFAULT_TOKENIZER, Chunk, QAItem
from anchor_rag.embed_index import EmbedIndexError, Index, triple_query
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
    RunConfig,
    StageUsage,
    decide_gate,
    open_trace_file,
    # Unused here: perfbench's tracer patches pipeline.read_trace_file, and
    # the acceptance suite imports it from here.
    read_trace_file,
    write_trace,
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
        go to one :meth:`Index.retrieve` call (one ``/embeddings`` round
        trip for a remote embedder), whose hits depend only on the row and
        the query, so each question gets exactly the hits and union
        ``retrieve_for_queries`` gives its queries alone. Each trace's
        retrieval time is its share of the block's. A failed retrieval
        records its error on every question of the block, each with its
        queries and no hits. ``system1_only`` retrieves nothing.
        """
        if self.config.mode == "system1_only":
            return
        queries = [[triple_query(t) for t in trace.triples] or [q.question] for q, trace in zip(items, traces)]
        started = time.perf_counter()
        try:
            retrieved = self.index.retrieve(queries, self.config.k_per_triple)
        except EmbedIndexError as exc:
            for trace in traces:
                trace.errors.append(f"retrieval: {exc}")
            retrieved = [([], []) for _ in traces]
        share_ms = (time.perf_counter() - started) * 1000.0 / len(items)
        for trace, texts, (union, hits) in zip(traces, queries, retrieved):
            trace.hits = hits
            trace.stage_ms["retrieval"] = share_ms
            trace.retrieval_queries = texts
            trace.retrieved_chunks = union
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
        ``run_dataset`` passes): then only the answering stages run, none in
        ``system1_only``.
        """
        cfg = self.config
        trace = retrieved if retrieved is not None else self._first_stages(q)
        if cfg.mode == "system1_only":
            return trace
        if retrieved is None:
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
        exactly the remaining ids. The file is opened by
        :func:`~anchor_rag.traces.open_trace_file`, which refuses to resume
        a file written under a different config, and each trace is appended
        by :func:`~anchor_rag.traces.write_trace`; with no ``trace_path``
        nothing is written.

        The questions still to run go in blocks of max(1, 2**15 //
        len(index)), of one in ``system1_only``. Each block runs each
        question's first stages (:meth:`_first_stages`), then one
        :meth:`retrieve_block` call for the whole block, then each
        question's answering stages (:meth:`run_question`). At concurrency 1
        every stage runs on the calling thread, one block after another. At
        concurrency > 1 every stage runs on the pool, blocks are retrieved
        in order, and the first stages of the next ceil((concurrency - 1) /
        block size) blocks are queued ahead of the oldest block whose
        retrieval has not finished, so ``concurrency`` calls stay in flight
        across block edges. Traces are written in id order, each as soon as
        it and every earlier one are finished, and equal those of one
        :meth:`run_question` per question, apart from ``stage_ms``: a
        question's ``retrieval`` time is its share of its block's, and a
        block whose retrieval fails records the error on each of its
        questions.

        So an interrupt loses the calls made for the questions not yet
        written. At concurrency 1 those are the interrupted question's and,
        before its block is retrieved, the first stages of its block's
        earlier questions. At concurrency > 1 they are also the calls of
        every later question already started: the first stages queued
        ahead and the questions finished after the first unfinished one.
        Calls already running end first; queued ones never start.
        ``resume`` redoes them all.
        """
        ordered = sorted(items, key=lambda q: q.question_id)
        if len({q.question_id for q in ordered}) != len(ordered):
            raise PipelineError("duplicate question ids in run set")
        existing: list[PipelineTrace] = []
        writer = None
        # A thread pool starts its threads only when work is submitted to it.
        pool = ThreadPoolExecutor(self.config.concurrency) if self.config.concurrency > 1 else _Inline()
        try:
            if trace_path is not None:
                existing, writer = open_trace_file(trace_path, self.config, resume)
            done = {t.question_id for t in existing}
            todo = [q for q in ordered if q.question_id not in done]
            fresh: list[PipelineTrace] = []
            size = 1 if self.config.mode == "system1_only" else max(1, _QUESTION_BLOCK_SCORES // len(self.index))
            for trace in self._run_blocks(pool, todo, size):
                fresh.append(trace)
                if writer:
                    write_trace(writer, trace)
        finally:
            # After an interrupt or an error, queued questions never start;
            # the calls already running end first.
            pool.shutdown(cancel_futures=True)
            if writer:
                writer.close()
        return sorted(existing + fresh, key=lambda t: t.question_id)

    def _run_blocks(self, pool: Executor, todo: list[QAItem], size: int) -> Iterator[PipelineTrace]:
        """Each trace of ``todo`` in order, run in blocks of ``size`` on
        ``pool`` as :meth:`run_dataset` describes. Each pass makes one step:
        queue first stages ahead, retrieve the oldest block whose first
        stages are done, answer the oldest retrieved block, yield the next
        finished trace, or wait for one of these to become possible."""
        blocks = (todo[s : s + size] for s in range(0, len(todo), size))
        ahead = -(-(self.config.concurrency - 1) // size)
        firsts: deque[tuple[list[QAItem], list[Future]]] = deque()  # first stages submitted
        retrievals: deque[tuple[list[QAItem], list[PipelineTrace], Future]] = deque()  # retrieval submitted
        answers: deque[Future] = deque()  # answering stages submitted, in question order
        while True:
            for block in itertools.islice(blocks, ahead + 1 - len(firsts) - len(retrievals)):
                firsts.append((block, [pool.submit(self._first_stages, q) for q in block]))
            if firsts and all(f.done() for f in firsts[0][1]):
                block, calls = firsts.popleft()
                traces = [f.result() for f in calls]
                retrievals.append((block, traces, pool.submit(self.retrieve_block, block, traces)))
            elif retrievals and retrievals[0][2].done():
                block, traces, call = retrievals.popleft()
                call.result()
                for q, trace in zip(block, traces):
                    answers.append(pool.submit(self.run_question, q, trace))
                    while answers and answers[0].done():
                        yield answers.popleft().result()
            elif answers and answers[0].done():
                yield answers.popleft().result()
            elif firsts or retrievals or answers:
                heads = [f for f in firsts[0][1] if not f.done()] if firsts else []
                heads += [r[2] for r in itertools.islice(retrievals, 1)] + list(itertools.islice(answers, 1))
                wait(heads, return_when=FIRST_COMPLETED)
            else:
                return


class _Done(NamedTuple):
    """A call :class:`_Inline` has already made, read like a finished future."""

    value: object

    def done(self) -> bool:
        return True

    def result(self) -> object:
        return self.value


class _Inline(Executor):
    """Makes each submitted call at once on the calling thread: the pool of
    a run at concurrency 1, with no thread handoff and no real future."""

    def submit(self, fn, /, *args):  # type: ignore[override]
        return _Done(fn(*args))
