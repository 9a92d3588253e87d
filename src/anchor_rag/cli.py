"""Command-line entry point: ingest, build-index, run, eval, transitions, report, inspect.

Secrets are only ever read from environment variables (the config names
the variable, never the value). Every subcommand exits nonzero on error;
partial per-question failures inside ``run`` flip the exit code only when
the failure rate exceeds the configured cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from anchor_rag import evaluation
from anchor_rag.traces import MODES, AnchorRagError, RunConfig, check_type, read_trace_file

# The commands that only read traces load no numpy and nothing else of the
# package; the other commands import what they use.

DEFAULT_CHAT_KEY_ENV = "ANCHOR_RAG_API_KEY"
DEFAULT_EMBED_KEY_ENV = "ANCHOR_RAG_EMBED_API_KEY"


class CliError(AnchorRagError, RuntimeError):
    pass


def _env_key(spec: dict, default_env: str) -> str | None:
    return os.environ.get(spec.get("api_key_env") or default_env)


def build_embed_provider(spec: dict):
    from anchor_rag.embed_index import HashingEmbedder, RemoteEmbedder

    kind = spec.get("kind", "hashing")
    dim = spec.get("dim")
    check_type("config embed_provider dim", dim, int | None, CliError)
    if kind == "hashing":
        return HashingEmbedder(dim=256 if dim is None else dim)
    if kind == "remote":
        if not spec.get("base_url") or not spec.get("model"):
            raise CliError("remote embedder needs base_url and model")
        return RemoteEmbedder(
            base_url=spec["base_url"],
            model=spec["model"],
            api_key=_env_key(spec, DEFAULT_EMBED_KEY_ENV),
            dim=dim,
        )
    raise CliError(f"unknown embedder kind: {kind!r}")


def build_chat_provider(spec: dict):
    from anchor_rag.llm_gateway import OpenAIChatProvider, ScriptedProvider

    kind = spec.get("kind", "scripted")
    if kind == "scripted":
        if not spec.get("fixtures"):
            raise CliError("scripted provider needs a fixtures path")
        return ScriptedProvider.from_jsonl(spec["fixtures"])
    if kind == "openai":
        if not spec.get("base_url") or not spec.get("model"):
            raise CliError("openai provider needs base_url and model")
        return OpenAIChatProvider(
            base_url=spec["base_url"],
            model=spec["model"],
            api_key=_env_key(spec, DEFAULT_CHAT_KEY_ENV),
        )
    raise CliError(f"unknown chat provider kind: {kind!r}")


# --- subcommands ---------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    from anchor_rag import corpus

    if args.sample_n is not None and args.sample_n < 1:
        raise CliError("--sample-n must be >= 1")
    item_docs: list[tuple[corpus.Document, ...]] | None = [] if args.contexts == "sampled" else None
    all_items, docs = corpus.load_dataset(args.data, args.format, item_docs=item_docs)
    items = all_items
    if args.sample_n is not None:
        items = corpus.sample_questions(items, args.sample_n, args.seed)
    if item_docs is not None:
        # The kept records' documents in the order a parse restricted to
        # ``keep`` would list them: first appearance, in file order.
        keep = {q.question_id for q in items}
        docs = list(dict.fromkeys(d for q, ds in zip(all_items, item_docs) if q.question_id in keep for d in ds))
    corpus.check_encodable(items, args.data)
    out = Path(args.out_dir)
    chunk_size = corpus.DEFAULT_CHUNK_SIZE if args.chunk_size is None else args.chunk_size
    stride = corpus.DEFAULT_STRIDE if args.stride is None else args.stride
    # The manifest goes first: a document that cannot be chunked is refused
    # before any file is written.
    num_chunks = corpus.write_corpus_manifest(docs, out / "chunks.jsonl", chunk_size=chunk_size, stride=stride)
    corpus.write_question_file(
        items,
        out / "questions.jsonl",
        meta={"dataset_tag": args.format, "sample_n": args.sample_n, "seed": args.seed},
    )
    print(f"ingested {len(items)} questions, {len(docs)} documents, {num_chunks} chunks -> {out}")
    return 0


def cmd_build_index(args: argparse.Namespace) -> int:
    from anchor_rag.corpus import read_chunk_texts
    from anchor_rag.embed_index import index_texts

    # Built first, so a bad embedder setting fails before the manifest is parsed.
    provider = build_embed_provider(
        {"kind": args.embedder, "dim": args.dim, "base_url": args.endpoint, "model": args.model}
    )
    ids, texts = read_chunk_texts(args.chunks)
    index = index_texts(ids, texts, provider)
    index.save(args.out)
    print(f"indexed {len(index)} chunks (dim={index.dim}, provider={index.provider_id}) -> {args.out}")
    return 0


# `run` flags that override a config entry: flag name -> config key.
_RUN_FLAGS = {"mode": "mode", "tau": "confidence_threshold", "k": "k_per_triple", "seed": "seed",
              "concurrency": "concurrency", "max_failure_rate": "max_failure_rate"}
_CHAT_FLAGS = {"provider": "kind", "fixtures": "fixtures", "endpoint": "base_url", "model": "model"}


def _given_flags(args: argparse.Namespace, flags: dict[str, str]) -> dict:
    """The config entries of the flags that were given on the command line."""
    return {key: getattr(args, flag) for flag, key in flags.items() if getattr(args, flag) is not None}


def _run_config_from_args(args: argparse.Namespace) -> RunConfig:
    base: dict = {}
    if args.config:
        try:
            base = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise CliError(f"{args.config}: not a JSON config: {exc}") from exc
        if not isinstance(base, dict):
            raise CliError(f"{args.config}: not a JSON config: expected an object")
        for key in ("chat_provider", "embed_provider"):
            if not isinstance(base.get(key) or {}, dict):
                raise CliError(f"{args.config}: config {key} must be an object")
    base.update(_given_flags(args, _RUN_FLAGS))
    base["chat_provider"] = {**(base.get("chat_provider") or {}), **_given_flags(args, _CHAT_FLAGS)}
    embed = dict(base.get("embed_provider") or {})
    embed.setdefault("kind", args.embedder)
    if args.dim is not None:
        embed["dim"] = args.dim
    base["embed_provider"] = embed
    # Provider settings of the wrong JSON type are refused before any client
    # is built or any input is read.
    for key in ("chat_provider", "embed_provider"):
        for name in ("kind", "fixtures", "base_url", "model", "api_key_env"):
            check_type(f"config {key} {name}", base[key].get(name, ""), str, CliError)
    return RunConfig.from_dict(base)


def cmd_run(args: argparse.Namespace) -> int:
    from anchor_rag.corpus import read_chunk_manifest, read_question_file
    from anchor_rag.embed_index import Index
    from anchor_rag.pipeline import Pipeline

    out = Path(args.out)
    if out.exists() and not args.resume:
        raise CliError(f"{out} already exists; pass --resume to continue it or remove it first")
    config = _run_config_from_args(args)
    items, _ = read_question_file(args.questions)
    chunks: list = []
    index = None
    if config.mode != "system1_only":
        if not args.index or not args.chunks:
            raise CliError(f"mode {config.mode!r} requires --index and --chunks")
        chunks, _ = read_chunk_manifest(args.chunks)
        # Filled in outside the config, so its hash stays as given; --model
        # names the chat model, so a remote embedder's comes from the index.
        embed_spec = dict(config.embed_provider)
        embed_spec.setdefault("base_url", args.endpoint)
        if embed_spec.get("kind") == "remote" and not embed_spec.get("model"):
            kind, _, model = Index.read_provider_id(args.index).partition(":")
            if kind == "remote":
                embed_spec["model"] = model
        index = Index.load(args.index, build_embed_provider(embed_spec))
    provider = build_chat_provider(config.chat_provider)
    pipeline = Pipeline(provider, config, index=index, chunks=chunks)
    traces = pipeline.run_dataset(items, trace_path=out, resume=args.resume)
    failed = sum(1 for t in traces if t.errors)
    rate = failed / len(traces) if traces else 0.0
    print(f"ran {len(traces)} questions ({failed} with errors) -> {out}")
    if rate > config.max_failure_rate:
        print(f"failure rate {rate:.2%} exceeds cap {config.max_failure_rate:.2%}", file=sys.stderr)
        return 1
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    _, traces = read_trace_file(args.traces)
    entry = evaluation.score_summary(evaluation.score_traces(traces, answer=args.answers))
    print(evaluation.render_score_table({f"{Path(args.traces).stem}:{args.answers}": entry}))
    if args.out:
        evaluation.write_summary_json(args.out, {"traces": str(args.traces), "answers": args.answers, **entry})
    return 0


def cmd_transitions(args: argparse.Namespace) -> int:
    if args.sys1 and args.sys2:
        _, first = read_trace_file(args.sys1)
        _, second = read_trace_file(args.sys2)
        before = evaluation.score_traces(first, answer="final")
        after = evaluation.score_traces(second, answer="final")
        label = f"{Path(args.sys1).stem} -> {Path(args.sys2).stem}"
    elif args.traces:
        _, traces = read_trace_file(args.traces)
        before = evaluation.score_traces(traces, answer="system1")
        after = evaluation.score_traces(traces, answer="final")
        label = Path(args.traces).stem
    else:
        raise CliError("pass either --traces or both --sys1 and --sys2")
    print(evaluation.render_transition_table({label: {"transitions": evaluation.transitions(before, after).to_dict()}}))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    # A run is labelled by its file's stem; two files with one stem would
    # share a summary entry and a scores file.
    labels = [Path(trace_path).stem for trace_path in args.traces]
    duplicates = sorted({label for label in labels if labels.count(label) > 1})
    if duplicates:
        raise CliError(f"two or more trace files share the run label {', '.join(map(repr, duplicates))}; rename them")
    runs: dict[str, dict] = {}
    scores = {}
    for label, trace_path in zip(labels, args.traces):
        header, traces = read_trace_file(trace_path)
        runs[label], scores[label] = evaluation.summarize_run(header["config"]["mode"], traces)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for label, final_scores in scores.items():
        evaluation.write_scores_csv(out_dir / f"{label}.scores.csv", final_scores)
    sections = [evaluation.render_score_table(runs), evaluation.render_payload_table(runs)]
    if any("transitions" in run for run in runs.values()):
        sections.append(evaluation.render_transition_table(runs))
    if any("threshold" in run for run in runs.values()):
        sections.append(evaluation.render_savings_table(runs))
    text = "\n\n".join(sections) + "\n"
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    evaluation.write_summary_json(out_dir / "summary.json", {"runs": runs})
    print(text, end="")
    print(f"report written to {out_dir}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    _, traces = read_trace_file(args.traces)
    for trace in traces:
        if trace.question_id == args.question_id:
            print(json.dumps(trace.to_json_dict(), indent=2, ensure_ascii=False))
            return 0
    raise CliError(f"question id {args.question_id!r} not found in {args.traces}")


# --- parser --------------------------------------------------------------------


def _add_embedder_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--embedder", choices=["hashing", "remote"], default="hashing")
    p.add_argument("--dim", type=int, default=None, help="embedding dimension (hashing default 256)")
    p.add_argument("--endpoint", default=None, help="base URL of the model/embedding endpoint")
    p.add_argument("--model", default=None, help="model name on the remote endpoint")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anchor-rag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a dataset, sample questions, chunk the corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--format", required=True, choices=["2wiki", "hotpotqa", "musique"])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sample-n", type=int, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--chunk-size", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--contexts", choices=["all", "sampled"], default="all",
                   help="index contexts from every record, or only from sampled questions")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build-index", help="embed a chunk manifest into a searchable index")
    p.add_argument("--chunks", required=True)
    p.add_argument("--out", required=True)
    _add_embedder_flags(p)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("run", help="run the pipeline over a question file")
    p.add_argument("--questions", required=True)
    p.add_argument("--index", default=None)
    p.add_argument("--chunks", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON run config; flags override it")
    p.add_argument("--mode", choices=list(MODES), default=None)
    p.add_argument("--tau", type=float, default=None, help="confidence threshold for threshold_gated")
    p.add_argument("--k", type=int, default=None, help="chunks retrieved per triple")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--concurrency", type=int, default=None)
    p.add_argument("--max-failure-rate", type=float, default=None)
    p.add_argument("--provider", choices=["scripted", "openai"], default=None)
    p.add_argument("--fixtures", default=None, help="fixture JSONL for the scripted provider")
    p.add_argument("--resume", action="store_true")
    _add_embedder_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score a trace file")
    p.add_argument("--traces", required=True)
    p.add_argument("--answers", choices=["final", "system1"], default="final")
    p.add_argument("--out", default=None, help="write a JSON summary here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transitions", help="correctness flow between fast and final answers")
    p.add_argument("--traces", default=None, help="single run: compare its system1 vs final answers")
    p.add_argument("--sys1", default=None, help="baseline trace file (final answers)")
    p.add_argument("--sys2", default=None, help="comparison trace file (final answers)")
    p.set_defaults(func=cmd_transitions)

    p = sub.add_parser("report", help="render score/payload/transition/savings tables")
    p.add_argument("--traces", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("inspect", help="pretty-print one trace")
    p.add_argument("--traces", required=True)
    p.add_argument("--question-id", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AnchorRagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Traces written so far are whole lines; `run --resume` continues.
        print("error: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
