"""Span tracing of anchor_rag's public functions, installed from outside.

``pipeline`` and ``cli`` bind most callees with ``from ... import``, so a
function is patched under every module-level name that refers to it, not
only in its home module. Methods are patched on their class. Each call
records a span (name, start, end, parent, question id); the parent stack
is thread-local so concurrent questions nest correctly, and spans opened
in a pool thread with an empty stack are adopted by the open
``Pipeline.run_dataset`` span. Spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    qid: str | None
    attrs: dict | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._adopter: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        qid_of: Callable | None = None,
        attrs_of: Callable | None = None,
        adopter: bool = False,
    ) -> Callable:
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else self._adopter
            qid = qid_of(args) if qid_of else (stack[-1][1] if stack else None)
            sid = next(self._ids)
            if adopter:
                self._adopter = sid
            stack.append((sid, qid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if adopter:
                    self._adopter = None
            # list.append is atomic under the interpreter lock.
            self.spans.append(Span(sid, name, start, end, parent, qid, attrs_of(args, result) if attrs_of else None))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr: str, name: str, **kw) -> None:
        original = getattr(module, attr)
        traced = self.wrap(name, original, **kw)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("anchor_rag"):
                continue
            for key in [k for k, v in vars(mod).items() if v is original]:
                self._patches.append((mod, key, original))
                setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrap(name, raw.__func__, **kw))
        else:
            traced = self.wrap(name, raw, **kw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def install(tracer: Tracer) -> None:
    """Patch the public entry points of every anchor_rag layer."""
    from anchor_rag import cli, corpus, embed_index, evaluation, llm_gateway, pipeline, prompt_kit

    def chunk_attrs(args, result):
        return {"chunks": len(result), "tokens": sum(c.token_count for c in result)}

    for attr in ("load_dataset", "sample_questions", "write_chunk_manifest", "read_chunk_manifest",
                 "write_question_file", "read_question_file"):
        tracer.patch_function(corpus, attr, f"corpus.{attr}")
    tracer.patch_function(corpus, "build_corpus", "corpus.build_corpus", attrs_of=chunk_attrs)

    tracer.patch_function(embed_index, "embed", "embed_index.embed", attrs_of=lambda a, r: {"texts": len(a[0])})
    tracer.patch_function(embed_index, "build_index", "embed_index.build_index")
    tracer.patch_function(
        embed_index, "retrieve_for_queries", "embed_index.retrieve_for_queries",
        attrs_of=lambda a, r: {"unique": len(r[0]), "hits": len(r[1])},
    )
    for attr in ("search", "save", "load"):
        tracer.patch_method(embed_index.Index, attr, f"embed_index.Index.{attr}")

    tracer.patch_function(llm_gateway, "complete", "llm_gateway.complete")
    for cls in (llm_gateway.ScriptedProvider, llm_gateway.OpenAIChatProvider):
        tracer.patch_method(cls, "complete", "llm_gateway.provider_complete")

    for attr in ("render_system1", "render_triplegen", "render_system2", "render_standard_rag"):
        tracer.patch_function(prompt_kit, attr, f"prompt_kit.{attr}")
    for attr in ("parse_answer", "parse_triples", "parse_final"):
        tracer.patch_function(prompt_kit, attr, f"prompt_kit.{attr}")

    tracer.patch_method(pipeline.Pipeline, "run_dataset", "pipeline.run_dataset", adopter=True)
    tracer.patch_method(
        pipeline.Pipeline, "run_question", "pipeline.run_question",
        qid_of=lambda a: a[1].question_id, attrs_of=lambda a, r: {"gate": r.gate_decision},
    )
    for attr in ("generate_triples", "gather_evidence"):
        tracer.patch_method(pipeline.Pipeline, attr, f"pipeline.{attr}")
    tracer.patch_function(pipeline, "read_trace_file", "pipeline.read_trace_file")

    for attr in ("score_traces", "aggregate", "transitions", "payload_tokens", "threshold_savings",
                 "render_score_table", "render_payload_table", "render_transition_table",
                 "render_savings_table", "write_scores_csv", "write_summary_json"):
        tracer.patch_function(evaluation, attr, f"evaluation.{attr}")

    for attr in ("cmd_ingest", "cmd_build_index", "cmd_run", "cmd_report",
                 "build_chat_provider", "build_embed_provider"):
        tracer.patch_function(cli, attr, f"cli.{attr}")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span], stub: dict | None) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    ``stub`` holds the stub's counter deltas over the pass, or None when the
    pass ran against the scripted provider and the hashing embedder.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(*names: str) -> float:
        return sum(own[s.sid] for n in names for s in by_name[n])

    def prefixed(prefix: str) -> list[str]:
        return [n for n in by_name if n.startswith(prefix)]

    def dur(s: Span) -> float:
        return s.end - s.start

    searches = [dur(s) * 1000.0 for s in by_name["embed_index.Index.search"]]
    questions = [dur(s) * 1000.0 for s in by_name["pipeline.run_question"]]
    retrievals = [s.attrs for s in by_name["embed_index.retrieve_for_queries"] if s.attrs]
    hits = sum(a["hits"] for a in retrievals)
    complete_s = sum(dur(s) for s in by_name["llm_gateway.complete"])
    provider_s = sum(dur(s) for s in by_name["llm_gateway.provider_complete"])
    gated = {s.qid for s in by_name["pipeline.run_question"] if s.attrs and s.attrs["gate"] == "complete"}
    gated_spend = sum(
        dur(s) for n in ("pipeline.generate_triples", "pipeline.gather_evidence") for s in by_name[n] if s.qid in gated
    )
    chunks = [s.attrs for s in by_name["corpus.build_corpus"] if s.attrs]

    if stub is not None:
        chat = [k for k in stub["requests"] if k != "embeddings"]
        model_wait = sum(stub["sleep_s"].get(k, 0.0) for k in chat)
        service = sum(stub["service_s"].get(k, 0.0) for k in chat)
        requests = sum(stub["requests"].values())
        per_connection = requests / stub["connections"] if stub["connections"] else 0.0
        round_trips = stub["requests"].get("embeddings", 0)
    else:
        model_wait = service = provider_s
        per_connection, round_trips = 0.0, 0

    return {
        "corpus.load_dataset_s": self_s("corpus.load_dataset"),
        "corpus.build_corpus_s": self_s("corpus.build_corpus"),
        "corpus.chunks": sum(a["chunks"] for a in chunks),
        "corpus.chunk_tokens": sum(a["tokens"] for a in chunks),
        "corpus.manifest_write_s": self_s("corpus.write_chunk_manifest", "corpus.write_question_file"),
        "corpus.manifest_read_s": self_s("corpus.read_chunk_manifest", "corpus.read_question_file"),
        "embed_index.embed_s": self_s("embed_index.embed"),
        "embed_index.embed_texts": sum(s.attrs["texts"] for s in by_name["embed_index.embed"] if s.attrs),
        "embed_index.embed_calls": len(by_name["embed_index.embed"]),
        "embed_index.remote_round_trips": round_trips,
        "embed_index.search_s": self_s("embed_index.Index.search"),
        "embed_index.search_calls": len(searches),
        "embed_index.search_ms.p50": _pct(searches, 50),
        "embed_index.search_ms.p99": _pct(searches, 99),
        "embed_index.union_ratio": sum(a["unique"] for a in retrievals) / hits if hits else 0.0,
        "embed_index.index_save_s": self_s("embed_index.Index.save"),
        "embed_index.index_load_s": self_s("embed_index.Index.load"),
        "llm_gateway.complete_s": complete_s,
        "llm_gateway.calls": len(by_name["llm_gateway.complete"]),
        "llm_gateway.retries": len(by_name["llm_gateway.provider_complete"]) - len(by_name["llm_gateway.complete"]),
        "llm_gateway.model_wait_s": model_wait,
        "llm_gateway.client_overhead_s": complete_s - service,
        "llm_gateway.requests_per_connection": per_connection,
        "prompt_kit.render_s": self_s(*prefixed("prompt_kit.render_")),
        "prompt_kit.parse_s": self_s(*prefixed("prompt_kit.parse_")),
        "pipeline.question_ms.p50": _pct(questions, 50),
        "pipeline.question_ms.p99": _pct(questions, 99),
        "pipeline.self_s": self_s("pipeline.run_dataset"),
        "pipeline.gate_complete": len(gated),
        "pipeline.gated_spend_share": gated_spend / (sum(questions) / 1000.0) if questions else 0.0,
        "evaluation.report_s": self_s(*prefixed("evaluation.")),
        "cli.self_s": self_s(*prefixed("cli.")),
    }
