"""Loopback stand-in for an OpenAI-compatible model and embedding endpoint.

Serves ``POST /v1/chat/completions`` (with ``logprobs.content`` when asked)
and ``POST /v1/embeddings`` over HTTP/1.1 keep-alive, sleeping a fixed
latency per request. The stage is recognised by the system prompt and the
question by the ``Question:`` line of the user prompt. Every response body
is built at start-up from the generator's table, so the stub's own CPU stays
out of the measured path. ``GET /_stats`` returns the counters: requests per
stage, TCP connections that carried a model request, injected sleep, service
time and table misses.

    python3 perfbench/stub.py --table stub_table.json --port-file port.txt
"""

from __future__ import annotations

import argparse
import json
import os
import re
import socket
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from gen import stub_vector  # noqa: E402

_QUESTION_RE = re.compile(r"^Question: (.*)$", re.MULTILINE)


def fetch_stats(endpoint: str) -> dict:
    """The counters of the stub serving ``endpoint`` (its ``.../v1`` base URL)."""
    with urllib.request.urlopen(endpoint.rsplit("/v1", 1)[0] + "/_stats", timeout=10) as resp:
        return json.loads(resp.read())


def _embedding_fragment(text: str, dim: int) -> str:
    return json.dumps(stub_vector(text, dim).tolist())


class StubState:
    def __init__(self, table: dict):
        self.latency_s: dict[str, float] = table["latency_s"]
        self.dim: int = table["dim"]
        self.stage_of: dict[str, str] = table["system_prompts"]
        self.chat: dict[tuple[str, str], tuple[bytes, bytes]] = {}
        for question, stages in table["chat"].items():
            for stage, (text, logprobs) in stages.items():
                choice = {"index": 0, "message": {"role": "assistant", "content": text}, "finish_reason": "stop"}
                if logprobs is not None:
                    choice["logprobs"] = {"content": [{"token": t, "logprob": lp} for t, lp in logprobs]}
                completion_tokens = len(logprobs) if logprobs is not None else len(text.split())
                body = json.dumps({"object": "chat.completion", "choices": [choice]})
                # Split so the prompt-token count can be spliced in per request.
                head = body[:-1] + ', "usage": {"completion_tokens": %d, "prompt_tokens": ' % completion_tokens
                self.chat[(stage, question)] = (head.encode(), b"}}")
        self.vectors = {t: _embedding_fragment(t, self.dim) for t in table["embed_texts"]}
        self.lock = threading.Lock()
        self.requests: dict[str, int] = {}
        self.connections = 0
        self.sleep_s: dict[str, float] = {}
        self.service_s: dict[str, float] = {}
        self.misses = 0
        self.errors = 0

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": dict(self.requests),
                "connections": self.connections,
                "sleep_s": dict(self.sleep_s),
                "service_s": dict(self.service_s),
                "misses": self.misses,
                "errors": self.errors,
            }


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._counted = False

        def log_message(self, format, *args) -> None:  # noqa: A002 - silence access log
            pass

        def _send(self, status: int, body: bytes) -> None:
            # One write for header and body, so no small segment waits on an ACK.
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            )
            self.wfile.write(head.encode() + body)

        def do_GET(self) -> None:
            if self.path == "/_stats":
                self._send(200, json.dumps(state.snapshot()).encode())
            else:
                self._send(404, b'{"error": "not found"}')

        def do_POST(self) -> None:
            started = time.perf_counter()
            payload = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            if self.path.endswith("/chat/completions"):
                stage, body = self._chat(payload)
            elif self.path.endswith("/embeddings"):
                stage, body = "embeddings", self._embeddings(payload)
            else:
                stage, body = None, None
            if body is None:
                with state.lock:
                    state.errors += 1
                self._send(400, b'{"error": "request not in the stub table"}')
                return
            slept_from = time.perf_counter()
            time.sleep(state.latency_s[stage])
            slept = time.perf_counter() - slept_from
            self._send(200, body)
            with state.lock:
                state.requests[stage] = state.requests.get(stage, 0) + 1
                state.sleep_s[stage] = state.sleep_s.get(stage, 0.0) + slept
                state.service_s[stage] = state.service_s.get(stage, 0.0) + time.perf_counter() - started
                if not self._counted:
                    state.connections += 1
                    self._counted = True

        def _chat(self, payload: dict) -> tuple[str | None, bytes | None]:
            messages = payload.get("messages") or []
            if len(messages) != 2:
                return None, None
            system, user = messages[0].get("content", ""), messages[1].get("content", "")
            stage = state.stage_of.get(system)
            match = _QUESTION_RE.search(user)
            entry = state.chat.get((stage, match.group(1))) if stage and match else None
            if entry is None:
                return None, None
            head, tail = entry
            return stage, head + str((len(system) + len(user)) // 4).encode() + tail

        def _embeddings(self, payload: dict) -> bytes:
            rows = []
            for i, text in enumerate(payload.get("input") or []):
                fragment = state.vectors.get(text)
                if fragment is None:
                    fragment = _embedding_fragment(text, state.dim)
                    with state.lock:
                        state.misses += 1
                rows.append('{"object": "embedding", "index": %d, "embedding": %s}' % (i, fragment))
            return ('{"object": "list", "data": [' + ", ".join(rows) + "]}").encode()

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--table", required=True)
    parser.add_argument("--port-file", required=True, help="the bound port is written here once serving")
    args = parser.parse_args()
    state = StubState(json.loads(Path(args.table).read_text(encoding="utf-8")))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    tmp = Path(args.port_file + ".tmp")
    tmp.write_text(str(server.server_address[1]), encoding="utf-8")
    os.replace(tmp, args.port_file)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
