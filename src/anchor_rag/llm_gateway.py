"""Uniform chat-completion access with per-token log-probabilities, and
the one HTTP client of the package.

Two providers: an OpenAI-compatible HTTP client and a scripted provider
that replays fixture responses keyed by (stage_tag, question_id), which
keeps runs deterministic regardless of prompt wording tweaks. The gateway
computes the direct-answer confidence as the mean per-token probability.

Every HTTP call in the package, chat and embeddings alike, goes through
:class:`HttpClient`, and every retry through :func:`with_retries`. The
client is the standard library's ``http.client``, imported only when an
:class:`HttpClient` is built, so a process that builds no HTTP provider
never loads the HTTP stack.

The retry policy is the two constants ``RETRIES`` and ``BACKOFF_S`` and
nothing else: a connection error, HTTP 429 or 5xx is retried up to
``RETRIES`` calls in all, after the server's ``Retry-After`` when it sends a
readable one of at most a day, else after ``BACKOFF_S``·2^(n-1). Any other
4xx, and a reply that is not JSON or lacks the expected fields, is a
:class:`GatewayError` that is not retried.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence, TypeVar

from anchor_rag.corpus import DEFAULT_TOKENIZER
from anchor_rag.traces import AnchorRagError, check_type

RETRIES = 3
BACKOFF_S = 0.5

# The tags around the answer in a System-1 reply (see answer_token_span).
_ANSWER_OPEN, _ANSWER_CLOSE = "<answer>", "</answer>"

T = TypeVar("T")


class GatewayError(AnchorRagError, RuntimeError):
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
    # max_new_tokens and temperature are checked where set: StageTokenLimits, RunConfig.
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

    def __init__(self) -> None:
        self._fixtures: dict[tuple[str, str], tuple[str, tuple[tuple[str, float], ...] | None]] = {}

    def add(self, stage_tag: str, question_id: str, text: str, token_logprobs: Sequence | None = None) -> None:
        check_type("text", text, str, TypeError)
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
            except (ValueError, KeyError, TypeError, AttributeError, GatewayError) as exc:
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
    """JSON over HTTP/1.1 to one base URL, on the standard library's
    ``http.client``, with one kept-alive connection per thread.

    The base URL must be ``http://`` or ``https://`` with a host, or the
    client is refused when it is built. The proxy and CA-bundle variables are
    read once, then: ``HTTP_PROXY``, ``HTTPS_PROXY``, ``ALL_PROXY`` and
    ``NO_PROXY`` (either case) by ``urllib.request``'s rules, where a proxy
    must be ``http://`` and an ``https`` endpoint is reached through it by
    ``CONNECT``; and the CA bundle ``REQUESTS_CA_BUNDLE``, else
    ``CURL_CA_BUNDLE``, else the system trust store, loaded on the first
    ``https`` connection. Redirects are not followed and replies are not
    compressed (``Accept-Encoding: identity``).

    :meth:`post_bytes` returns a 2xx reply's body and raises
    :class:`TransportError` for a connection error, a cut-off or stalled
    body, 429 or 5xx, and :class:`GatewayError` for any other status or an
    unusable CA bundle. It is :meth:`send` and its reply read at once; a
    caller that holds two clients can send on both before it reads either,
    and so keep two requests at the endpoint from one thread.
    :meth:`json_object` decodes a body and raises :class:`GatewayError`
    unless it is a JSON object. :meth:`post` is the two in turn."""

    def __init__(self, base_url: str, api_key: str | None, timeout_s: float):
        # Loaded here, when the client is built, not on its first request;
        # urllib.request loads http.client.
        import base64
        import urllib.parse
        import urllib.request

        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        url = urllib.parse.urlsplit(self.base_url)
        host, port = _host_port(url, f"endpoint {base_url!r}")
        self._https = url.scheme == "https"
        self._headers = {"Content-Type": "application/json", "Accept-Encoding": "identity"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._address, self._target, self._tunnel = (host, port), url.path, None
        proxies = urllib.request.getproxies_environment()
        if not urllib.request.proxy_bypass_environment(url.netloc.rpartition("@")[2], proxies):
            proxy = proxies.get(url.scheme) or proxies.get("all")
            if proxy:
                proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
                if proxy_url.scheme != "http":
                    raise GatewayError(f"{url.scheme} proxy: only http:// proxies are supported")
                self._address = _host_port(proxy_url, f"{url.scheme} proxy")
                proxy_headers = {}
                if proxy_url.username is not None:
                    user, password = proxy_url.username, proxy_url.password or ""
                    login = f"{urllib.parse.unquote(user)}:{urllib.parse.unquote(password)}"
                    proxy_headers["Proxy-Authorization"] = "Basic " + base64.b64encode(login.encode()).decode()
                if self._https:
                    self._tunnel = (host, port, proxy_headers)
                else:  # the proxy takes the whole URL
                    self._target = self.base_url
                    self._headers.update(proxy_headers)
        self._ca_bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
        self._ssl_context = None
        self._local = threading.local()

    def post(self, path: str, payload: dict) -> dict:
        return self.json_object(path, self.post_bytes(path, payload))

    def post_bytes(self, path: str, payload: dict) -> bytes:
        return self.send(path, payload)()

    def send(self, path: str, payload: dict) -> Callable[[], bytes]:
        """Write a POST of ``payload`` to ``path`` on the calling thread's
        connection, and return the call that reads its reply by
        :meth:`post_bytes`'s rules. A request that could not be written is
        raised by that call too, so a retry takes the send and the read as
        one attempt. The connection can carry no other request until the
        reply is read."""
        url = self.base_url + path
        conn = self._connection()
        failure = None
        try:
            with _exchange(conn, url):
                conn.request("POST", self._target + path, json.dumps(payload).encode(), self._headers)
        except TransportError as exc:
            failure = exc

        def receive() -> bytes:
            if failure is not None:
                raise failure
            with _exchange(conn, url), conn.getresponse() as resp:
                body = resp.read()
            if 200 <= resp.status < 300:
                return body
            message = f"{url}: HTTP {resp.status}: {body[:200].decode('utf-8', 'replace')}"
            if resp.status == 429 or resp.status >= 500:
                raise TransportError(message, _retry_after(resp.getheader("Retry-After")))
            if 300 <= resp.status < 400:
                message += f" (redirect to {resp.getheader('Location')} not followed)"
            raise GatewayError(message)

        return receive

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
        """Close and drop the calling thread's connection, if it has one."""
        kept = getattr(self._local, "kept", None)
        if kept is not None:
            del self._local.kept
            kept.conn.close()

    def _connection(self):
        """The calling thread's connection, made on its first request. One
        the server has closed (or written to) while it sat idle is closed
        here; ``http.client`` reconnects it for the request."""
        import http.client
        import select

        kept = getattr(self._local, "kept", None)
        if kept is None:
            if self._https:
                conn = http.client.HTTPSConnection(*self._address, timeout=self.timeout_s, context=self._context())
                if self._tunnel is not None:
                    conn.set_tunnel(*self._tunnel)
            else:
                conn = http.client.HTTPConnection(*self._address, timeout=self.timeout_s)
            kept = self._local.kept = _KeptConnection(conn)
        elif kept.conn.sock is not None and select.select([kept.conn.sock], [], [], 0)[0]:
            kept.conn.close()
        return kept.conn

    def _context(self):
        """The TLS context of every ``https`` connection, made once. (Two
        threads may both make it; either one serves.)"""
        if self._ssl_context is None:
            import ssl

            bundle = self._ca_bundle
            directory = bundle is not None and os.path.isdir(bundle)
            try:
                self._ssl_context = ssl.create_default_context(cafile=None if directory else bundle,
                                                               capath=bundle if directory else None)
            except OSError as exc:  # ssl.SSLError is an OSError too
                raise GatewayError(f"CA bundle {bundle}: {exc}") from exc
        return self._ssl_context


class _KeptConnection:
    """A thread's connection in :class:`HttpClient`'s thread-locals. Once the
    locals drop it (its thread ends, or the client is collected), a
    ``weakref.finalize`` closes the connection: that runs before the
    collector finalizes anything, so the socket is closed even when the
    client dies in a reference cycle."""

    __slots__ = ("conn", "__weakref__")

    def __init__(self, conn):
        self.conn = conn
        weakref.finalize(self, conn.close)


@contextlib.contextmanager
def _exchange(conn, url: str):
    """Close ``conn`` if its exchange fails, as it cannot carry another
    request then, and raise a connection or protocol error as a
    :class:`TransportError`."""
    import http.client  # already loaded by HttpClient.__init__

    try:
        yield
    except BaseException as exc:
        conn.close()
        if isinstance(exc, (OSError, http.client.HTTPException)):
            raise TransportError(f"POST {url} failed: {exc}") from exc
        raise


def _host_port(url, shown: str) -> tuple[str, int]:
    """The host and port of a split ``http://`` or ``https://`` URL;
    :class:`GatewayError`, naming it as ``shown``, for anything else."""
    try:
        if url.scheme in ("http", "https") and url.hostname:
            return url.hostname, url.port or (443 if url.scheme == "https" else 80)
    except ValueError:  # a port that is not a number in 0-65535
        pass
    raise GatewayError(f"{shown} is not an http:// or https:// URL with a host")


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
            import email.utils

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
        self._logprobs_rejected = False  # set once the endpoint refuses a logprob request

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
        if request.want_logprobs and not self._logprobs_rejected:
            payload["logprobs"] = True
        try:
            body = self._http.post("/chat/completions", payload)
        except GatewayError as exc:
            if isinstance(exc, TransportError) or "logprobs" not in payload or "logprob" not in str(exc).lower():
                raise
            # The endpoint rejects logprob requests: text only, for this call and every later one.
            self._logprobs_rejected = True
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


def with_retries(call: Callable[[], T], sleep: Callable[[float], None] | None = None) -> T:
    """Return ``call()``, calling again after a :class:`TransportError`, up to ``RETRIES`` calls in all.
    Call n + 1 waits the error's ``retry_after`` if set, else ``BACKOFF_S``·2^(n-1) (``time.sleep`` by default)."""
    for attempt in itertools.count(1):
        try:
            return call()
        except TransportError as exc:
            if attempt >= RETRIES:
                raise
            (sleep or time.sleep)(BACKOFF_S * 2 ** (attempt - 1) if exc.retry_after is None else exc.retry_after)


def complete(
    request: ChatRequest, provider: ChatProvider, sleep: Callable[[float], None] | None = None
) -> ChatResponse:
    """Run one completion, retrying transient transport failures.

    Raises :class:`EmptyCompletionError` when the model returns no text,
    and the final :class:`TransportError` once attempts are exhausted.
    """
    response = with_retries(lambda: provider.complete(request), sleep)
    if not response.text.strip():
        raise EmptyCompletionError(f"provider {provider.provider_id} returned an empty completion")
    return response


def answer_token_span(response: ChatResponse) -> tuple[int, int] | None:
    """Locate the tokens inside the ``<answer>`` element, when recoverable.

    Works on the concatenation of the completion's token texts; returns a
    half-open token-index range, or None when the tags cannot be aligned.
    """
    if not response.has_logprobs:
        return None
    tokens = [tok for tok, _ in response.token_logprobs]
    joined = "".join(tokens)
    open_at = joined.find(_ANSWER_OPEN)
    if open_at < 0:
        return None
    content_start = open_at + len(_ANSWER_OPEN)
    content_end = joined.find(_ANSWER_CLOSE, content_start)
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
