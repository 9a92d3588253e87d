"""Uniform chat-completion access with per-token log-probabilities, and
the one HTTP client of the package.

Two providers: an OpenAI-compatible HTTP client and a scripted provider
that replays fixture responses keyed by (stage_tag, question_id), which
keeps runs deterministic regardless of prompt wording tweaks. The gateway
computes the direct-answer confidence as the mean per-token probability.

Every HTTP call in the package, chat and embeddings alike, goes through
:class:`HttpClient`, and every retry through :func:`with_retries`: a
connection error, HTTP 429 or 5xx is retried up to ``DEFAULT_RETRIES``
calls in all, after the server's ``Retry-After`` when it sends a readable
one of at most a day, else after ``DEFAULT_BACKOFF_S``·2^(n-1). Any other
4xx, and a reply that is not JSON or lacks the expected fields, is a
:class:`GatewayError` that is not retried.
"""

from __future__ import annotations

import email.utils
import itertools
import json
import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence, TypeVar

import requests

from anchor_rag.corpus import DEFAULT_TOKENIZER

DEFAULT_RETRIES = 3
DEFAULT_BACKOFF_S = 0.5

T = TypeVar("T")


class GatewayError(RuntimeError):
    """Provider misuse or a non-retryable provider response."""


class TransportError(GatewayError):
    """Transient network/server failure; eligible for retry. ``retry_after``
    is the wait in seconds the server asked for, if it gave one."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class FixtureMissingError(GatewayError):
    """Scripted provider has no fixture for the requested stage/question."""


class EmptyCompletionError(GatewayError):
    """The model returned no text."""


@dataclass(frozen=True)
class ChatRequest:
    system_prompt: str
    user_prompt: str
    max_new_tokens: int = 256
    temperature: float = 0.0
    want_logprobs: bool = False
    # Routing metadata: the scripted provider keys fixtures on these, and
    # they never affect a live HTTP request.
    stage_tag: str = ""
    question_id: str = ""

    def __post_init__(self) -> None:
        if self.max_new_tokens < 1:
            raise GatewayError("max_new_tokens must be >= 1")
        if self.temperature < 0:
            raise GatewayError("temperature must be >= 0")
        if not self.system_prompt or not self.user_prompt:
            raise GatewayError("prompts must be non-empty")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    token_logprobs: tuple[tuple[str, float], ...] | None
    prompt_tokens: int
    completion_tokens: int
    provider_id: str

    def __post_init__(self) -> None:
        if self.token_logprobs is not None:
            if any(lp > 0.0 for _, lp in self.token_logprobs):
                raise GatewayError("log-probabilities must be <= 0")
            if self.completion_tokens != len(self.token_logprobs):
                raise GatewayError("completion_tokens must equal the number of logprob entries")

    @property
    def has_logprobs(self) -> bool:
        return self.token_logprobs is not None


class ChatProvider(Protocol):
    provider_id: str

    def complete(self, request: ChatRequest) -> ChatResponse: ...


class ScriptedProvider:
    """Replays canned responses keyed by (stage_tag, question_id)."""

    provider_id = "scripted"

    def __init__(self, fixtures: dict[tuple[str, str], tuple[str, list | None]] | None = None):
        self._fixtures: dict[tuple[str, str], tuple[str, tuple[tuple[str, float], ...] | None]] = {}
        for key, (text, logprobs) in (fixtures or {}).items():
            self.add(key[0], key[1], text, logprobs)

    def add(self, stage_tag: str, question_id: str, text: str, token_logprobs: Sequence | None = None) -> None:
        key = (stage_tag, question_id)
        if key in self._fixtures:
            raise GatewayError(f"duplicate fixture for {key}")
        cleaned = None
        if token_logprobs is not None:
            cleaned = tuple((str(tok), min(0.0, float(lp))) for tok, lp in token_logprobs)
        self._fixtures[key] = (text, cleaned)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ScriptedProvider":
        provider = cls()
        for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                provider.add(row["stage_tag"], row["question_id"], row["text"], row.get("token_logprobs"))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                raise GatewayError(f"{path}: line {lineno}: {detail}") from exc
        return provider

    def complete(self, request: ChatRequest) -> ChatResponse:
        key = (request.stage_tag, request.question_id)
        if key not in self._fixtures:
            raise FixtureMissingError(f"no fixture for stage={key[0]!r} question={key[1]!r}")
        text, logprobs = self._fixtures[key]
        if not request.want_logprobs:
            logprobs = None
        completion_tokens = len(logprobs) if logprobs is not None else DEFAULT_TOKENIZER.count(text)
        prompt_tokens = DEFAULT_TOKENIZER.count(request.system_prompt) + DEFAULT_TOKENIZER.count(request.user_prompt)
        return ChatResponse(
            text=text,
            token_logprobs=logprobs,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            provider_id=self.provider_id,
        )


class HttpClient:
    """JSON over HTTP to one base URL, with a kept-alive ``requests.Session``
    per thread (sessions are not documented as thread-safe) and the proxy and
    CA-bundle variables read once, by requests' rules (``.netrc`` is not read).

    :meth:`post_bytes` returns a reply's body and raises
    :class:`TransportError` for a connection error, 429 or 5xx, and
    :class:`GatewayError` for any other 4xx. :meth:`json_object` decodes a
    body and raises :class:`GatewayError` unless it is a JSON object.
    :meth:`post` is the two in turn."""

    def __init__(self, base_url: str, api_key: str | None, timeout_s: float):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self._headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
        with requests.Session() as probe:
            env = probe.merge_environment_settings(self.base_url, {}, None, None, None)
        self._env = {"proxies": env["proxies"], "verify": env["verify"]}
        self._local = threading.local()

    def post(self, path: str, payload: dict) -> dict:
        return self.json_object(path, self.post_bytes(path, payload))

    def post_bytes(self, path: str, payload: dict) -> bytes:
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
            session.trust_env = False
        url = self.base_url + path
        try:
            resp = session.post(url, json=payload, headers=self._headers, timeout=self.timeout_s, stream=True,
                                **self._env)
            if resp.status_code < 400:
                # One read of the whole body; ``resp.content`` would join it
                # from 10 KiB chunks and hold it twice while joining.
                return b"".join(resp.iter_content(None))
            message = f"{url}: HTTP {resp.status_code}: {resp.text[:200]}"
        except requests.RequestException as exc:
            raise TransportError(f"POST {url} failed: {exc}") from exc
        except OSError as exc:  # a local setting requests cannot use, such as a missing CA bundle
            raise GatewayError(f"POST {url} failed: {exc}") from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            raise TransportError(message, _retry_after(resp.headers.get("Retry-After")))
        raise GatewayError(message)

    def json_object(self, path: str, raw: bytes) -> dict:
        """The JSON object in the body ``raw`` of a reply from ``path``."""
        try:
            body = json.loads(raw)
        except ValueError:
            body = None
        if not isinstance(body, dict):
            text = raw[:200].decode("utf-8", "replace")
            raise GatewayError(f"{self.base_url + path}: reply is not a JSON object: {text!r}")
        return body

    def close_session(self) -> None:
        """Close and drop the calling thread's session, if it has one. (urllib3
        2.x closes pooled connections when their pool is collected, not on
        ``Session.close``; dropping the last reference collects it.)"""
        session = getattr(self._local, "session", None)
        if session is not None:
            del self._local.session
            session.close()


def _retry_after(value: str | None) -> float | None:
    """Seconds to wait from a ``Retry-After`` header (RFC 9110 §10.2.3):
    delta-seconds or an HTTP date. None when absent, unreadable or more than
    a day away."""
    if value is None:
        return None
    try:
        if value.strip().isdecimal():
            wait = float(value)
        else:
            wait = email.utils.mktime_tz(email.utils.parsedate_tz(value)) - time.time()
    except (TypeError, ValueError, OverflowError):
        return None
    return max(0.0, wait) if wait <= 86400 else None


class OpenAIChatProvider:
    """OpenAI-compatible ``/chat/completions`` client with logprobs support."""

    def __init__(self, base_url: str, model: str, api_key: str | None = None, timeout_s: float = 120.0):
        self.model = model
        self.provider_id = f"openai:{model}"
        self._http = HttpClient(base_url, api_key, timeout_s)

    def complete(self, request: ChatRequest) -> ChatResponse:
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {"role": "user", "content": request.user_prompt},
            ],
            "max_tokens": request.max_new_tokens,
            "temperature": request.temperature,
        }
        if request.want_logprobs:
            payload["logprobs"] = True
        try:
            body = self._http.post("/chat/completions", payload)
        except GatewayError as exc:
            if isinstance(exc, TransportError) or not request.want_logprobs or "logprob" not in str(exc).lower():
                raise
            # Endpoint rejects logprob requests: degrade to text-only.
            del payload["logprobs"]
            body = self._http.post("/chat/completions", payload)
        try:
            choice = body["choices"][0]
            text = (choice.get("message") or {}).get("content") or ""
            if not isinstance(text, str):
                raise TypeError(f"message content is a {type(text).__name__}")
            logprobs = None
            lp_content = (choice.get("logprobs") or {}).get("content")
            if lp_content:
                logprobs = tuple((str(entry["token"]), min(0.0, float(entry["logprob"]))) for entry in lp_content)
            usage = body.get("usage") or {}
            prompt_tokens = int(usage.get("prompt_tokens") or 0)
            completion_tokens = len(logprobs) if logprobs is not None else int(usage.get("completion_tokens") or 0)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            raise GatewayError(f"malformed chat reply: {exc!r}") from exc
        return ChatResponse(
            text=text,
            token_logprobs=logprobs,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            provider_id=self.provider_id,
        )


def with_retries(call: Callable[[], T], retries: int = DEFAULT_RETRIES, backoff_s: float = DEFAULT_BACKOFF_S,
                 sleep: Callable[[float], None] | None = None) -> T:
    """Return ``call()``, calling again after a :class:`TransportError`, up to ``retries`` calls in all.
    Call n + 1 waits the error's ``retry_after`` if set, else ``backoff_s``·2^(n-1) (``time.sleep`` by default)."""
    for attempt in itertools.count(1):
        try:
            return call()
        except TransportError as exc:
            if attempt >= retries:
                raise
            (sleep or time.sleep)(backoff_s * 2 ** (attempt - 1) if exc.retry_after is None else exc.retry_after)


def complete(
    request: ChatRequest,
    provider: ChatProvider,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
    sleep: Callable[[float], None] | None = None,
) -> ChatResponse:
    """Run one completion, retrying transient transport failures.

    Raises :class:`EmptyCompletionError` when the model returns no text,
    and the final :class:`TransportError` once attempts are exhausted.
    """
    response = with_retries(lambda: provider.complete(request), retries, backoff_s, sleep)
    if not response.text.strip():
        raise EmptyCompletionError(f"provider {provider.provider_id} returned an empty completion")
    return response


def answer_token_span(
    response: ChatResponse,
    open_tag: str = "<answer>",
    close_tag: str = "</answer>",
) -> tuple[int, int] | None:
    """Locate the tokens inside the tagged answer, when recoverable.

    Works on the concatenation of the completion's token texts; returns a
    half-open token-index range, or None when the tags cannot be aligned.
    """
    if not response.has_logprobs:
        return None
    tokens = [tok for tok, _ in response.token_logprobs]
    joined = "".join(tokens)
    open_at = joined.find(open_tag)
    if open_at < 0:
        return None
    content_start = open_at + len(open_tag)
    content_end = joined.find(close_tag, content_start)
    if content_end < 0 or content_end == content_start:
        return None
    first = last = None
    offset = 0
    for i, tok in enumerate(tokens):
        tok_start, tok_end = offset, offset + len(tok)
        offset = tok_end
        if tok_end <= content_start or tok_start >= content_end or tok_start == tok_end:
            continue
        if first is None:
            first = i
        last = i
    if first is None:
        return None
    return first, last + 1


def _span_logprobs(response: ChatResponse, span: tuple[int, int] | None) -> list[float] | None:
    """Log-probabilities of the span's tokens; all tokens when the span is
    None or empty, and None when the response carries no log-probabilities."""
    if not response.token_logprobs:
        return None
    logprobs = [lp for _, lp in response.token_logprobs]
    if span is not None:
        return logprobs[span[0] : span[1]] or logprobs
    return logprobs


def mean_token_confidence(response: ChatResponse, span: tuple[int, int] | None = None) -> float | None:
    """Mean per-token probability over the answer span (all tokens if None)."""
    logprobs = _span_logprobs(response, span)
    return None if logprobs is None else sum(math.exp(lp) for lp in logprobs) / len(logprobs)


def mean_logprob(response: ChatResponse, span: tuple[int, int] | None = None) -> float | None:
    """Raw mean log-probability over the same span, kept for inspection."""
    logprobs = _span_logprobs(response, span)
    return None if logprobs is None else sum(logprobs) / len(logprobs)
