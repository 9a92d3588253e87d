import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from anchor_rag.corpus import Document, build_corpus, read_question_file
from anchor_rag.embed_index import HashingEmbedder, build_index
from anchor_rag.llm_gateway import ScriptedProvider

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def bannan_docs() -> list[Document]:
    docs = []
    with (DATA_DIR / "bannan_docs.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            docs.append(Document(doc_id=row["doc_id"], title=row["title"], text=row["text"]))
    return docs


@pytest.fixture(scope="session")
def bannan_chunks(bannan_docs):
    return build_corpus(bannan_docs)


@pytest.fixture(scope="session")
def bannan_index(bannan_chunks):
    return build_index(bannan_chunks, HashingEmbedder())


@pytest.fixture(scope="session")
def golden_questions():
    items, _ = read_question_file(DATA_DIR / "questions.jsonl")
    return {q.question_id: q for q in items}


@pytest.fixture()
def scripted_provider() -> ScriptedProvider:
    return ScriptedProvider.from_jsonl(DATA_DIR / "scripted_fixtures.jsonl")


# --- loopback OpenAI-compatible endpoint ---------------------------------------


def reply(status: int = 200, body=None, **headers) -> tuple[int, dict, bytes]:
    """One stub reply; ``body`` is sent as JSON unless it is bytes."""
    raw = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    return status, {k.replace("_", "-"): v for k, v in headers.items()}, raw


def cut_off(stub_reply: tuple[int, dict, bytes], missing: int = 100) -> tuple[int, dict, bytes]:
    """``stub_reply`` with its connection closed ``missing`` bytes short of
    its ``Content-Length``."""
    status, headers, raw = stub_reply
    return status, {**headers, "Content-Length": str(len(raw) + missing)}, raw


def chat_reply(text: str = "<answer>Paris</answer>") -> tuple[int, dict, bytes]:
    usage = {"prompt_tokens": 5, "completion_tokens": 2}
    return reply(body={"choices": [{"message": {"content": text}}], "usage": usage})


def embeddings_reply(payload: dict) -> tuple[int, dict, bytes]:
    rows = HashingEmbedder(dim=16).embed_batch(payload["input"]).tolist()
    return reply(body={"data": [{"index": i, "embedding": row} for i, row in enumerate(rows)]})


class LoopbackEndpoint:
    """An OpenAI-compatible endpoint on 127.0.0.1, over HTTP/1.1 keep-alive.

    A request whose path ends in a key of ``queued`` takes the first reply
    queued there; otherwise ``routes`` answers it: ``<answer>Paris</answer>``
    for chat, hashing-embedder rows for embeddings. A reply may set its own
    ``Content-Length``; one larger than its body closes the connection after
    the body. ``seen`` lists every (path, payload), ``auth`` every
    Authorization header (None when absent) and ``connections`` counts TCP
    connections.
    """

    def __init__(self):
        self.queued: dict[str, list] = {"/chat/completions": [], "/embeddings": []}
        self.routes = {"/chat/completions": lambda payload: chat_reply(), "/embeddings": embeddings_reply}
        self.seen: list[tuple[str, dict]] = []
        self.auth: list[str | None] = []
        self.connections = 0
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = 10

            def setup(self):
                stub.connections += 1
                super().setup()

            def do_POST(self):  # noqa: N802 (stdlib naming)
                payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                stub.seen.append((self.path, payload))
                stub.auth.append(self.headers.get("Authorization"))
                suffix = next(s for s in stub.routes if self.path.endswith(s))
                queue = stub.queued[suffix]
                status, headers, raw = queue.pop(0) if queue else stub.routes[suffix](payload)
                self.send_response(status)
                headers = {"Content-Length": str(len(raw)), **headers}
                for key, value in headers.items():
                    self.send_header(key, value)
                self.end_headers()
                self.wfile.write(raw)
                self.close_connection = self.close_connection or int(headers["Content-Length"]) > len(raw)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.root = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.url = self.root + "/v1"

    def paths(self) -> list[str]:
        return [path for path, _ in self.seen]


@pytest.fixture()
def loopback():
    stub = LoopbackEndpoint()
    threading.Thread(target=stub.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
    yield stub
    stub.server.shutdown()
    stub.server.server_close()
