import email.utils
import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest
import requests
from conftest import chat_reply, cut_off, reply
from hypothesis import given, settings
from hypothesis import strategies as st

from anchor_rag.corpus import DEFAULT_TOKENIZER
from anchor_rag.llm_gateway import (
    ChatRequest,
    ChatResponse,
    EmptyCompletionError,
    FixtureMissingError,
    GatewayError,
    HttpClient,
    OpenAIChatProvider,
    ScriptedProvider,
    TransportError,
    answer_token_span,
    complete,
    mean_logprob,
    mean_token_confidence,
)


def make_request(stage="system1", qid="q42", want_logprobs=False):
    return ChatRequest(
        system_prompt="You answer questions.",
        user_prompt="Question: who?",
        max_new_tokens=32,
        want_logprobs=want_logprobs,
        stage_tag=stage,
        question_id=qid,
    )


def make_response(token_logprobs, text=None):
    if text is None:
        text = "".join(tok for tok, _ in token_logprobs)
    return ChatResponse(
        text=text,
        token_logprobs=tuple(token_logprobs),
        prompt_tokens=10,
        completion_tokens=len(token_logprobs),
        provider_id="test",
    )


# --- request / response types -----------------------------------------------


def test_request_validation():
    with pytest.raises(GatewayError):
        ChatRequest(system_prompt="s", user_prompt="u", max_new_tokens=0)
    with pytest.raises(GatewayError):
        ChatRequest(system_prompt="", user_prompt="u")
    with pytest.raises(GatewayError):
        ChatRequest(system_prompt="s", user_prompt="u", temperature=-1.0)


def test_response_rejects_positive_logprobs():
    with pytest.raises(GatewayError):
        make_response([("a", 0.5)])


def test_response_token_count_must_match_logprobs():
    with pytest.raises(GatewayError):
        ChatResponse(text="a", token_logprobs=(("a", -0.1),), prompt_tokens=1, completion_tokens=2, provider_id="t")


# --- scripted provider -----------------------------------------------------------


def test_scripted_fixture_replayed_exactly():
    provider = ScriptedProvider()
    provider.add("system1", "q42", "<answer>Paris</answer>", [["<answer>", -0.1], ["Paris", -0.2], ["</answer>", -0.1]])
    first = provider.complete(make_request(want_logprobs=True))
    second = provider.complete(make_request(want_logprobs=True))
    assert first == second
    assert first.text == "<answer>Paris</answer>"
    assert first.token_logprobs == (("<answer>", -0.1), ("Paris", -0.2), ("</answer>", -0.1))


def test_scripted_missing_fixture():
    with pytest.raises(FixtureMissingError):
        ScriptedProvider().complete(make_request())


def test_scripted_duplicate_fixture_rejected():
    provider = ScriptedProvider()
    provider.add("system1", "q1", "a")
    with pytest.raises(GatewayError):
        provider.add("system1", "q1", "b")


def test_scripted_without_logprob_request_degrades():
    provider = ScriptedProvider()
    provider.add("system1", "q42", "Paris", [["Paris", -0.5]])
    response = provider.complete(make_request(want_logprobs=False))
    assert not response.has_logprobs
    assert mean_token_confidence(response) is None


def test_scripted_provider_without_logprob_fixture():
    provider = ScriptedProvider()
    provider.add("system1", "q42", "Paris")
    response = provider.complete(make_request(want_logprobs=True))
    assert response.text == "Paris" and not response.has_logprobs


def test_scripted_from_jsonl(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    rows = [
        {"stage_tag": "system1", "question_id": "a", "text": "one", "token_logprobs": [["one", -0.3]]},
        {"stage_tag": "system1", "question_id": "b", "text": "two", "token_logprobs": None},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    provider = ScriptedProvider.from_jsonl(path)
    assert provider.complete(make_request(qid="a", want_logprobs=True)).token_logprobs == (("one", -0.3),)
    assert provider.complete(make_request(qid="b")).text == "two"


def test_scripted_usage_totals_match_fixture_recount():
    provider = ScriptedProvider()
    texts = {}
    for i in range(25):
        text = f"answer number {i} with a few words"
        texts[f"q{i}"] = text
        provider.add("system1", f"q{i}", text)
    total_completion = 0
    total_prompt = 0
    for qid in texts:
        response = provider.complete(make_request(qid=qid))
        total_completion += response.completion_tokens
        total_prompt += response.prompt_tokens
    expected_completion = sum(DEFAULT_TOKENIZER.count(t) for t in texts.values())
    request = make_request()
    expected_prompt = 25 * (
        DEFAULT_TOKENIZER.count(request.system_prompt) + DEFAULT_TOKENIZER.count(request.user_prompt)
    )
    assert total_completion == expected_completion
    assert total_prompt == expected_prompt


# --- retry wrapper -----------------------------------------------------------------


class FlakyProvider:
    provider_id = "flaky"

    def __init__(self, failures: int, text="ok"):
        self.failures = failures
        self.calls = 0
        self.text = text

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("connection reset")
        return ChatResponse(
            text=self.text, token_logprobs=None, prompt_tokens=1, completion_tokens=1, provider_id=self.provider_id
        )


def test_retry_recovers_from_transient_failures():
    provider = FlakyProvider(failures=2)
    napped = []
    response = complete(make_request(), provider, retries=3, backoff_s=0.5, sleep=napped.append)
    assert response.text == "ok"
    assert provider.calls == 3
    assert napped == [0.5, 1.0]  # exponential backoff


def test_retry_exhaustion_raises():
    provider = FlakyProvider(failures=10)
    with pytest.raises(TransportError):
        complete(make_request(), provider, retries=3, sleep=lambda _: None)
    assert provider.calls == 3


def test_empty_completion_rejected():
    provider = FlakyProvider(failures=0, text="   ")
    with pytest.raises(EmptyCompletionError):
        complete(make_request(), provider, sleep=lambda _: None)


# --- confidence --------------------------------------------------------------------


def test_confidence_certain_token():
    assert mean_token_confidence(make_response([("x", 0.0)])) == pytest.approx(1.0)


def test_confidence_hand_arithmetic():
    response = make_response([("a", -2.0), ("b", -3.0)])
    expected = (math.exp(-2.0) + math.exp(-3.0)) / 2
    assert mean_token_confidence(response) == pytest.approx(expected)
    assert expected == pytest.approx(0.0926, abs=5e-4)
    assert mean_logprob(response) == pytest.approx(-2.5)


def test_confidence_threshold_cases():
    confident = mean_token_confidence(make_response([("a", -2.0), ("b", -3.0)]))
    unsure = mean_token_confidence(make_response([("a", -4.0), ("b", -4.0)]))
    assert confident >= 0.05
    assert unsure < 0.05
    assert unsure == pytest.approx(math.exp(-4.0))


def test_confidence_unavailable_without_logprobs():
    response = ChatResponse(text="x", token_logprobs=None, prompt_tokens=1, completion_tokens=1, provider_id="t")
    assert mean_token_confidence(response) is None
    assert mean_logprob(response) is None


def test_answer_span_selects_answer_tokens():
    response = make_response(
        [
            ("<output>", -0.01),
            ("\n", -0.01),
            ("<answer>", -0.01),
            ("Big", -1.0),
            (" Ten", -2.0),
            (" Conference", -3.0),
            ("</answer>", -0.01),
            ("\n", -0.01),
            ("</output>", -0.01),
        ]
    )
    span = answer_token_span(response)
    assert span == (3, 6)
    expected = (math.exp(-1.0) + math.exp(-2.0) + math.exp(-3.0)) / 3
    assert mean_token_confidence(response, span) == pytest.approx(expected)


def test_answer_span_absent_tags():
    response = make_response([("plain", -0.5), (" text", -0.5)])
    assert answer_token_span(response) is None


def test_answer_span_handles_tag_inside_token():
    response = make_response([("<answer>Paris", -0.7), ("</answer>", -0.01)])
    span = answer_token_span(response)
    assert span == (0, 1)


@settings(max_examples=80, deadline=None)
@given(
    logprobs=st.lists(st.floats(min_value=-20.0, max_value=0.0), min_size=1, max_size=12),
    bump=st.floats(min_value=0.0, max_value=5.0),
    data=st.data(),
)
def test_confidence_monotone_and_bounded(logprobs, bump, data):
    response = make_response([(f"t{i}", lp) for i, lp in enumerate(logprobs)])
    base = mean_token_confidence(response)
    assert 0.0 <= base <= 1.0
    idx = data.draw(st.integers(min_value=0, max_value=len(logprobs) - 1))
    raised = list(logprobs)
    raised[idx] = min(0.0, raised[idx] + bump)
    bumped = mean_token_confidence(make_response([(f"t{i}", lp) for i, lp in enumerate(raised)]))
    assert bumped >= base - 1e-12


# --- OpenAI-compatible HTTP provider ---------------------------------------------


class FakeChatHandler(BaseHTTPRequestHandler):
    behaviour = "ok"
    seen_payloads: list[dict] = []
    fail_once = {"count": 0}

    def do_POST(self):  # noqa: N802 (stdlib naming)
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        FakeChatHandler.seen_payloads.append(payload)
        if FakeChatHandler.behaviour == "flaky" and FakeChatHandler.fail_once["count"] == 0:
            FakeChatHandler.fail_once["count"] += 1
            self.send_response(503)
            self.end_headers()
            self.wfile.write(b"busy")
            return
        if FakeChatHandler.behaviour == "no_logprobs" and payload.get("logprobs"):
            self.send_response(400)
            self.end_headers()
            self.wfile.write(b'{"error": "logprobs is not supported on this endpoint"}')
            return
        body = {
            "choices": [
                {
                    "message": {"role": "assistant", "content": "<answer>Paris</answer>"},
                    "logprobs": (
                        {
                            "content": [
                                {"token": "<answer>", "logprob": -0.01},
                                {"token": "Paris", "logprob": -0.25},
                                {"token": "</answer>", "logprob": -0.01},
                            ]
                        }
                        if payload.get("logprobs")
                        else None
                    ),
                }
            ],
            "usage": {"prompt_tokens": 21, "completion_tokens": 3},
        }
        raw = json.dumps(body).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture()
def fake_endpoint():
    server = HTTPServer(("127.0.0.1", 0), FakeChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    FakeChatHandler.behaviour = "ok"
    FakeChatHandler.seen_payloads = []
    FakeChatHandler.fail_once = {"count": 0}
    yield f"http://127.0.0.1:{server.server_address[1]}/v1"
    server.shutdown()
    server.server_close()


def test_openai_provider_round_trip(fake_endpoint):
    provider = OpenAIChatProvider(base_url=fake_endpoint, model="test-model", api_key="k")
    response = complete(make_request(want_logprobs=True), provider, sleep=lambda _: None)
    assert response.text == "<answer>Paris</answer>"
    assert response.token_logprobs == (("<answer>", -0.01), ("Paris", -0.25), ("</answer>", -0.01))
    assert response.prompt_tokens == 21 and response.completion_tokens == 3
    payload = FakeChatHandler.seen_payloads[0]
    assert payload["model"] == "test-model"
    assert payload["messages"][0]["role"] == "system"
    assert payload["logprobs"] is True
    assert payload["max_tokens"] == 32


def test_openai_provider_retries_server_errors(fake_endpoint):
    FakeChatHandler.behaviour = "flaky"
    provider = OpenAIChatProvider(base_url=fake_endpoint, model="m")
    response = complete(make_request(), provider, retries=3, sleep=lambda _: None)
    assert response.text == "<answer>Paris</answer>"
    assert len(FakeChatHandler.seen_payloads) == 2


def test_openai_provider_degrades_when_logprobs_rejected(fake_endpoint):
    FakeChatHandler.behaviour = "no_logprobs"
    provider = OpenAIChatProvider(base_url=fake_endpoint, model="m")
    response = complete(make_request(want_logprobs=True), provider, sleep=lambda _: None)
    assert response.text == "<answer>Paris</answer>"
    assert not response.has_logprobs
    assert mean_token_confidence(response) is None


class KeepAliveChatHandler(FakeChatHandler):
    """HTTP/1.1 variant of the fake endpoint that counts TCP connections."""

    protocol_version = "HTTP/1.1"
    timeout = 10
    connections = 0

    def setup(self):
        KeepAliveChatHandler.connections += 1
        super().setup()


def test_openai_provider_reuses_one_connection_per_thread():
    server = ThreadingHTTPServer(("127.0.0.1", 0), KeepAliveChatHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    FakeChatHandler.behaviour = "ok"
    FakeChatHandler.seen_payloads = []
    KeepAliveChatHandler.connections = 0
    try:
        provider = OpenAIChatProvider(base_url=f"http://127.0.0.1:{server.server_address[1]}/v1", model="m")
        for _ in range(8):
            assert complete(make_request(), provider).text == "<answer>Paris</answer>"
        assert (len(FakeChatHandler.seen_payloads), KeepAliveChatHandler.connections) == (8, 1)
        # another thread gets its own session, so its own connection
        other = threading.Thread(target=lambda: [complete(make_request(), provider) for _ in range(3)])
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
        assert (len(FakeChatHandler.seen_payloads), KeepAliveChatHandler.connections) == (11, 2)
    finally:
        server.shutdown()
        server.server_close()


def test_openai_provider_transport_error_on_unreachable_host():
    provider = OpenAIChatProvider(base_url="http://127.0.0.1:9", model="m", timeout_s=0.2)
    with pytest.raises(TransportError):
        complete(make_request(), provider, retries=2, sleep=lambda _: None)


# --- status policy, malformed replies, Retry-After, proxies --------------------


@pytest.mark.parametrize(
    "body",
    [
        {},
        b"<html>not json</html>",
        [],
        {"choices": []},
        {"choices": ["text"]},
        {"choices": [{"message": {"content": "x"}, "logprobs": {"content": [{"token": "x"}]}}]},
        {"choices": [{"message": {"content": "x"}}], "usage": {"prompt_tokens": "many"}},
        {"choices": [{"message": {"content": [{"type": "text", "text": "x"}]}}]},
        {"choices": [{"message": {"content": "x"}, "logprobs": ["x"]}]},
    ],
    ids=["empty_object", "not_json", "array", "no_choices", "choice_not_object", "logprob_entry_without_value",
         "usage_not_int", "content_not_text", "logprobs_not_object"],
)
def test_openai_provider_malformed_reply_is_gateway_error(loopback, body):
    loopback.routes["/chat/completions"] = lambda payload: reply(body=body)
    provider = OpenAIChatProvider(base_url=loopback.url, model="m")
    with pytest.raises(GatewayError) as caught:
        complete(make_request(want_logprobs=True), provider, sleep=lambda _: None)
    assert not isinstance(caught.value, TransportError)
    assert len(loopback.seen) == 1  # not retried


@pytest.mark.parametrize("status", [400, 401, 404, 422])
def test_client_error_status_is_not_retried(loopback, status):
    loopback.queued["/chat/completions"].append(reply(status, {"error": "no"}))
    provider = OpenAIChatProvider(base_url=loopback.url, model="m")
    with pytest.raises(GatewayError, match=f"HTTP {status}") as caught:
        complete(make_request(), provider, sleep=lambda _: None)
    assert not isinstance(caught.value, TransportError)
    assert len(loopback.seen) == 1


def test_rate_limit_without_retry_after_backs_off(loopback):
    loopback.queued["/chat/completions"] += [reply(429, {"error": "slow down"}), reply(429, {"error": "slow down"})]
    napped = []
    response = complete(make_request(), OpenAIChatProvider(base_url=loopback.url, model="m"), sleep=napped.append)
    assert response.text == "<answer>Paris</answer>"
    assert napped == [0.5, 1.0]
    assert len(loopback.seen) == 3


def test_rate_limit_waits_retry_after_seconds(loopback):
    loopback.queued["/chat/completions"].append(reply(429, {"error": "slow down"}, Retry_After="2"))
    napped = []
    response = complete(make_request(), OpenAIChatProvider(base_url=loopback.url, model="m"), sleep=napped.append)
    assert response.text == "<answer>Paris</answer>"
    assert napped == [2.0]


def test_server_error_waits_retry_after_http_date(loopback):
    when = email.utils.formatdate(time.time() + 30, usegmt=True)
    loopback.queued["/chat/completions"] += [reply(503, b"busy", Retry_After=when),
                                             reply(503, b"busy", Retry_After="soon")]
    napped = []
    response = complete(make_request(), OpenAIChatProvider(base_url=loopback.url, model="m"), sleep=napped.append)
    assert response.text == "<answer>Paris</answer>"
    # a date 30 s ahead (whole seconds), then an unreadable value: backoff
    assert 27.0 < napped[0] <= 30.0 and napped[1] == 1.0


@pytest.mark.parametrize(
    "value, wait",
    [(" 7 ", 7.0), ("0", 0.0), ("86400", 86400.0), ("Sun, 06 Nov 1994 08:49:37 GMT", 0.0),
     ("86401", 0.5), ("1.5", 0.5), ("-3", 0.5), ("9" * 400, 0.5), ("Wed, 21 Oct 99999 07:28:00 GMT", 0.5), ("", 0.5)],
    ids=["seconds_padded", "zero", "one_day", "past_date", "over_a_day", "fraction", "negative", "huge",
         "year_out_of_range", "empty"],
)
def test_retry_after_values(loopback, value, wait):
    """A past date means no wait; an unreadable value, or one more than a
    day away, falls back to the backoff."""
    loopback.queued["/chat/completions"].append(reply(429, {"error": "slow down"}, Retry_After=value))
    napped = []
    complete(make_request(), OpenAIChatProvider(base_url=loopback.url, model="m"), sleep=napped.append)
    assert napped == [wait]


def test_rate_limit_exhaustion_raises_transport_error(loopback):
    loopback.routes["/chat/completions"] = lambda payload: reply(429, {"error": "slow down"}, Retry_After="1")
    napped = []
    with pytest.raises(TransportError, match="HTTP 429"):
        complete(make_request(), OpenAIChatProvider(base_url=loopback.url, model="m"), sleep=napped.append)
    assert napped == [1.0, 1.0] and len(loopback.seen) == 3


def test_chat_reply_cut_off_mid_body_is_retried(loopback):
    loopback.queued["/chat/completions"].append(cut_off(chat_reply()))
    napped = []
    response = complete(make_request(), OpenAIChatProvider(base_url=loopback.url, model="m"), sleep=napped.append)
    assert response.text == "<answer>Paris</answer>"
    assert napped == [0.5] and len(loopback.seen) == 2
    assert loopback.connections == 2  # the cut connection is not reused


def test_chat_reply_cut_off_every_time_raises_transport_error(loopback):
    loopback.routes["/chat/completions"] = lambda payload: cut_off(chat_reply())
    napped = []
    with pytest.raises(TransportError, match="failed"):
        complete(make_request(), OpenAIChatProvider(base_url=loopback.url, model="m"), sleep=napped.append)
    assert napped == [0.5, 1.0] and len(loopback.seen) == 3


def test_reply_stalled_mid_body_is_a_transport_error():
    """A body that stops arriving for longer than the timeout is a read
    timeout inside the body read."""
    server = socket.create_server(("127.0.0.1", 0))
    done = threading.Event()

    def serve():
        conn, _ = server.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + b'{"a": ' + b"1" * 20)
            done.wait(5)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        client = HttpClient(f"http://127.0.0.1:{server.getsockname()[1]}", None, 0.2)
        with pytest.raises(TransportError, match="timed out") as caught:
            client.post_bytes("/embeddings", {"input": ["x"]})
        assert isinstance(caught.value.__cause__, requests.ConnectionError)
        client.close_session()
    finally:
        done.set()
        thread.join(5)
        server.close()
    assert not thread.is_alive()


def test_client_returns_the_body_and_checks_it_apart(loopback):
    loopback.queued["/chat/completions"] += [reply(body=b"[1, 2]"), reply(body=b"[1, 2]")]
    client = HttpClient(loopback.url, None, 5.0)
    raw = client.post_bytes("/chat/completions", {"x": 1})
    assert raw == b"[1, 2]"
    with pytest.raises(GatewayError, match=r"/chat/completions: reply is not a JSON object: '\[1, 2\]'"):
        client.json_object("/chat/completions", raw)
    with pytest.raises(GatewayError, match="reply is not a JSON object"):
        client.post("/chat/completions", {"x": 1})
    assert client.json_object("/chat/completions", b'{"a": 1}') == {"a": 1}
    client.close_session()
    client.close_session()  # a thread without a session has nothing to close
    assert client.post("/chat/completions", {"x": 1})["choices"]  # a new session after the close


def test_client_reads_proxy_settings_once(loopback, monkeypatch):
    calls = []
    real = requests.sessions.get_environ_proxies

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(requests.sessions, "get_environ_proxies", counting)
    provider = OpenAIChatProvider(base_url=loopback.url, model="m")
    for _ in range(8):
        assert complete(make_request(), provider).text == "<answer>Paris</answer>"
    assert len(calls) == 1
    assert loopback.connections == 1  # still one kept-alive connection


def test_client_applies_proxy_settings_from_the_environment(loopback, monkeypatch):
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.lower(), raising=False)
    # Through a proxy: the stub stands in for it, the target port is closed.
    monkeypatch.setenv("HTTP_PROXY", loopback.root)
    provider = OpenAIChatProvider(base_url="http://127.0.0.1:9/v1", model="m")
    assert complete(make_request(), provider).text == "<answer>Paris</answer>"
    assert loopback.paths() == ["http://127.0.0.1:9/v1/chat/completions"]
    # NO_PROXY exempts the host: straight to the stub past a dead proxy.
    monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    provider = OpenAIChatProvider(base_url=loopback.url, model="m")
    assert complete(make_request(), provider).text == "<answer>Paris</answer>"
    assert loopback.paths()[-1] == "/v1/chat/completions"


def test_client_reads_the_ca_bundle_once_and_reports_a_bad_one(monkeypatch):
    monkeypatch.delenv("CURL_CA_BUNDLE", raising=False)
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", "/nonexistent/ca.pem")
    client = HttpClient("https://127.0.0.1:9/v1", None, 1.0)
    monkeypatch.delenv("REQUESTS_CA_BUNDLE")  # read at creation, so still in force
    with pytest.raises(GatewayError, match="/nonexistent/ca.pem") as caught:
        client.post("/embeddings", {})
    assert not isinstance(caught.value, TransportError)  # a local setting: not retried


def test_bearer_header_only_with_a_key(loopback):
    for key in ("secret", None):
        HttpClient(loopback.url, key, 5.0).post("/chat/completions", {"model": "m"})
    assert loopback.auth == ["Bearer secret", None]
