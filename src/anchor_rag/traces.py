"""The trace model: run settings, per-question traces and the trace file
(a header line with the run config and its hash, then one
:class:`PipelineTrace` per line), which only this module opens. Stdlib
only, so the commands that only read traces never load numpy or the
retrieval stack.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TextIO, get_args, get_origin, get_type_hints

MODES = ("full", "system1_only", "no_initial_reasoning", "threshold_gated", "standard_rag")

EMPTY_HYPOTHESIS_SENTINEL = "unknown"
TRACE_SCHEMA_VERSION = 1

logger = logging.getLogger(__name__)


class AnchorRagError(Exception):
    """Base of the errors the CLI reports as one ``error:`` line."""


class PipelineError(AnchorRagError, RuntimeError):
    """Configuration or wiring problem that prevents a run from starting."""


def check_type(what: str, value: object, hint: object, error: type) -> None:
    """Raise ``error`` when ``value`` does not match the annotation ``hint``
    (an int is accepted for a float; a bool never is). For ``list[T]`` and
    ``dict[str, T]`` each item is checked too, named by its index or key."""
    if type(value) is hint:
        return
    origin = get_origin(hint)
    if origin in (list, dict):
        check_type(what, value, origin, error)
        items = value.items() if origin is dict else enumerate(value)
        for key, item in items:
            check_type(f"{what} {key}" if origin is dict else f"{what}[{key}]", item, get_args(hint)[-1], error)
        return
    allowed = get_args(hint) or (hint,)
    accepted = allowed + (int,) if float in allowed else allowed
    if (isinstance(value, bool) and bool not in allowed) or not isinstance(value, accepted):
        expected = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
        raise error(f"{what} must be {expected}, got {type(value).__name__} {value!r}")


def _check_field_types(obj: object, what: str, hints: dict | None = None, error: type = PipelineError) -> None:
    """Check each dataclass field against its annotation, so a bad value
    from a JSON file ends as one error. ``hints`` picks the fields to check
    and their annotations; by default every field is checked."""
    for name, hint in (hints or get_type_hints(type(obj))).items():
        check_type(f"{what} {name}", getattr(obj, name), hint, error)


def _from_dict(cls: type, data: dict, what: str):
    """``cls(**data)``, with unknown keys reported as a PipelineError."""
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise PipelineError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**data)


@dataclass(frozen=True)
class StageTokenLimits:
    """Max new tokens per stage; the deliberate pass gets the largest budget."""

    system1: int = 64
    triple_gen: int = 256
    system2: int = 1024

    def __post_init__(self) -> None:
        _check_field_types(self, "limits")
        if min(self.system1, self.triple_gen, self.system2) < 1:
            raise PipelineError("stage token limits must be >= 1")
        if self.system2 < self.system1:
            raise PipelineError("system2 token limit must be >= system1 limit")


@dataclass(frozen=True)
class RunConfig:
    mode: str = "full"
    k_per_triple: int = 5
    confidence_threshold: float | None = None
    temperature: float = 0.0
    limits: StageTokenLimits = field(default_factory=StageTokenLimits)
    concurrency: int = 1
    max_failure_rate: float = 0.2
    chat_provider: dict = field(default_factory=dict)
    embed_provider: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_field_types(self, "config")
        if self.mode not in MODES:
            raise PipelineError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.k_per_triple < 1:
            raise PipelineError("k_per_triple must be >= 1")
        for name in ("temperature", "confidence_threshold"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:  # also refuses NaN
                raise PipelineError(f"config {name} must be finite and >= 0, got {value!r}")
        if self.concurrency < 1:
            raise PipelineError("concurrency must be >= 1")
        if not (0.0 <= self.max_failure_rate <= 1.0):
            raise PipelineError("max_failure_rate must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        limits = data.pop("limits", None)
        if limits is not None:
            if not isinstance(limits, dict):
                raise PipelineError(f"config limits must be an object, got {type(limits).__name__} {limits!r}")
            data["limits"] = _from_dict(StageTokenLimits, limits, "limits")
        return _from_dict(cls, data, "config")

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
class ReasoningTriple:
    """One (subject, predicate, object) step of the model's rationale."""

    subject: str
    predicate: str
    object: str

    def __post_init__(self) -> None:
        for name in ("subject", "predicate", "object"):
            if not getattr(self, name).strip():
                raise ValueError(f"triple field {name!r} is empty")


@dataclass(frozen=True)
class RetrievalHit:
    chunk_id: str
    score: float
    query_index: int


@dataclass(frozen=True)
class StageUsage:
    prompt_tokens: int
    completion_tokens: int


@dataclass
class PipelineTrace:
    """Full per-question record of one pipeline pass.

    Each stage method of ``Pipeline`` writes its own fields here. In
    JSON every field keeps its name; only ``triples``, ``hits`` and
    ``usage`` change shape.
    """

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

    @property
    def hypothesis(self) -> str:
        """The fast answer as the later stages see it, never blank."""
        return self.system1_answer or EMPTY_HYPOTHESIS_SENTINEL

    def to_json_dict(self) -> dict:
        # A shallow per-field build: dataclasses.asdict deep-copies and is
        # several times slower per trace.
        out = {name: getattr(self, name) for name in self.__dataclass_fields__}
        out["triples"] = [[t.subject, t.predicate, t.object] for t in self.triples]
        out["hits"] = [{"chunk_id": h.chunk_id, "score": h.score, "query_index": h.query_index} for h in self.hits]
        out["usage"] = {
            stage: {"prompt_tokens": u.prompt_tokens, "completion_tokens": u.completion_tokens}
            for stage, u in self.usage.items()
        }
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "PipelineTrace":
        """Rebuild a trace; extra keys are ignored.

        A missing field takes its dataclass default, so a line written
        before a field with a default was added still loads; a missing field
        without a default, or a field of another JSON type than its
        annotation (a str, int or float, a list of strings, a dict of
        flags or stage times, or a field of a triple, a hit or a usage), or
        a triple, hit or usage of another shape, raises TypeError naming the
        field.
        """
        fields = {name: data[name] for name in cls.__dataclass_fields__ if name in data}
        triples, hits, usage = data.get("triples", []), data.get("hits", []), data.get("usage", {})
        check_type("trace triples", triples, list, TypeError)
        for i, triple in enumerate(triples):
            check_type(f"trace triples[{i}]", triple, list, TypeError)
            if len(triple) != 3:
                raise TypeError(f"trace triples[{i}] must be [subject, predicate, object], got {triple!r}")
            for name, value in zip(("subject", "predicate", "object"), triple):
                check_type(f"trace triples[{i}] {name}", value, str, TypeError)
        fields["triples"] = [ReasoningTriple(subject=s, predicate=p, object=o) for s, p, o in triples]
        check_type("trace hits", hits, list, TypeError)
        fields["hits"] = [_record(RetrievalHit, h, f"trace hits[{i}]") for i, h in enumerate(hits)]
        check_type("trace usage", usage, dict, TypeError)
        fields["usage"] = {stage: _record(StageUsage, u, f"trace usage {stage}") for stage, u in usage.items()}
        trace = cls(**fields)
        _check_field_types(trace, "trace", _TRACE_CHECKED, TypeError)
        for hit in trace.hits:
            _check_field_types(hit, "trace hit", _HIT_TYPES, TypeError)
        for stage, usage in trace.usage.items():
            _check_field_types(usage, f"trace usage {stage}", _USAGE_TYPES, TypeError)
        return trace


def _record(cls: type, value: object, what: str):
    """``cls(**value)`` for a record nested in a trace line; a value that is
    not an object with exactly the fields of ``cls`` raises TypeError."""
    check_type(what, value, dict, TypeError)
    if value.keys() != cls.__dataclass_fields__.keys():
        raise TypeError(f"{what} must have the keys {', '.join(cls.__dataclass_fields__)}, got {', '.join(value)}")
    return cls(**value)


# The trace fields checked against their annotations once a trace is built
# (every field but the records it nests), and the fields of those records.
_TRACE_CHECKED = {k: t for k, t in get_type_hints(PipelineTrace).items() if k not in ("triples", "hits", "usage")}
_HIT_TYPES = get_type_hints(RetrievalHit)
_USAGE_TYPES = get_type_hints(StageUsage)


# --- trace file I/O -----------------------------------------------------------


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
        config = header.get("config")
        if not isinstance(config, dict) or config.get("mode") not in MODES:
            raise PipelineError(f"{path}: the header has no config object naming a mode")
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


def open_trace_file(path: str | Path, config: RunConfig, resume: bool) -> tuple[list[PipelineTrace], TextIO]:
    """Open a run's trace file for :func:`write_trace`: the traces it
    already holds and the writer.

    A new run, or a resume with no file yet, writes a new file that holds
    only the header line of ``config``, and has no traces. A resume reads
    the file and appends after its last whole line: a torn last line is cut
    off, and a kept part that does not end its line is ended, so the next
    trace starts on a line of its own. A file whose ``config_hash`` is not
    ``config``'s is refused with a :class:`PipelineError` and left as it is.
    """
    path = Path(path)
    if not (resume and path.exists()):
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"kind": "trace_file", "schema_version": TRACE_SCHEMA_VERSION, "config": config.to_dict(),
                  "config_hash": config.config_hash()}
        writer = path.open("w", encoding="utf-8")
        writer.write(json.dumps(header) + "\n")
        writer.flush()
        return [], writer
    header, traces, end = _scan_trace_file(path)
    if header.get("config_hash") != config.config_hash():
        raise PipelineError(f"{path} was written under a different config; refusing to resume")
    with path.open("r+b") as fh:
        fh.truncate(end)
        fh.seek(end - 1)
        ends_line = fh.read(1) == b"\n"
    writer = path.open("a", encoding="utf-8")
    if not ends_line:
        writer.write("\n")
    return traces, writer


def write_trace(writer: TextIO, trace: PipelineTrace) -> None:
    """Append ``trace`` as one line to a file opened by
    :func:`open_trace_file`, flushed, so an interrupt leaves whole lines."""
    writer.write(json.dumps(trace.to_json_dict(), ensure_ascii=False) + "\n")
    writer.flush()
