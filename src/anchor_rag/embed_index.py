"""Exact dense retrieval over chunk embeddings.

The index is a plain (ids, matrix) pair searched by brute-force cosine,
which is exact and fast at desk scale (hundreds of thousands of chunks).
Vectors are unit-normalized and held in float32, the precision stored on
disk; there is no float64 copy. A search is two steps, as in FAISS
``IndexFlatIP`` with a refinement pass:

1. Candidates: one float32 matrix-vector product scores every row, and
   ``np.partition`` finds the k-th largest score. Every row within a
   proven margin of it is kept. A float32 score differs from the exact
   dot product by at most (γ_dim,f32 + u_f32)·‖row‖·‖q‖ (the float32 dot
   plus rounding the query to float32) and the float64 rescore by at most
   γ_dim,f64·‖row‖·‖q‖, so a row whose float32 score lies more than twice
   their sum below the k-th cannot enter the float64 top k.
2. Rescoring: the candidates are scored again in float64 by an
   elementwise product and numpy's pairwise sum, which depends only on the
   row and the query (a BLAS product over a subset of rows can round a
   row differently depending on its position), and sorted by
   (-score, chunk id), so ties at the boundary break by ascending id.
Two providers are included: an OpenAI-compatible HTTP embedder and a
deterministic hashing embedder (character n-grams feature-hashed into a
fixed dimension) used for tests and offline runs.
"""

from __future__ import annotations

import json
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np
import requests

from anchor_rag.corpus import Chunk
from anchor_rag.llm_gateway import ThreadLocalSession
from anchor_rag.prompt_kit import ReasoningTriple

INDEX_MAGIC = b"ARIX"
INDEX_VERSION = 1

QUERY_STYLES = ("space", "pipe")

# Unit roundoff of float32 and float64.
_U32 = float(np.finfo(np.float32).eps) / 2
_U64 = float(np.finfo(np.float64).eps) / 2


def _gamma(n: int, u: float) -> float:
    """Higham's γ_n = n·u / (1 - n·u): the relative error bound of an
    n-term dot product summed in any order."""
    return n * u / (1.0 - n * u)


class EmbedIndexError(ValueError):
    """Invalid index input, dimension mismatch, or provider failure."""


class EmbeddingProvider(Protocol):
    provider_id: str
    dim: int

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray: ...


def _crc32_table() -> np.ndarray:
    """The 256-entry byte table of zlib's reflected CRC-32 polynomial."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    return table


_CRC32_TABLE = _crc32_table()


class HashingEmbedder:
    """Deterministic text embedder: feature-hashed character n-grams.

    Text is lowercased and every non-alphanumeric run becomes one space, so
    snake_case predicates land in the same buckets as their plain-text
    forms. Each n-gram is CRC-hashed to a signed bucket; the count vector
    is then L2-normalized. A text shorter than every n-gram size is hashed
    whole, and one that normalizes to nothing maps to the first axis.

    The CRC-32 (zlib's, so vectors match a per-gram ``zlib.crc32`` loop
    bit for bit) of every n-gram is computed at once with a byte table:
    grams of all sizes share their leading bytes, so the CRC state runs
    over the longest size once and is read off at each size on the way.
    Bucket counts are small integers, so their float64 sums are exact in
    any order.
    """

    def __init__(self, dim: int = 256, ngram_sizes: Sequence[int] = (3, 4, 5)):
        if dim < 2:
            raise EmbedIndexError("embedding dim must be >= 2")
        self.dim = dim
        self.ngram_sizes = tuple(ngram_sizes)
        sizes = "-".join(str(n) for n in self.ngram_sizes)
        self.provider_id = f"hashing-v1:d{dim}:n{sizes}"

    @staticmethod
    def _normalize_text(text: str) -> str:
        return " ".join(re.sub(r"[^a-z0-9]+", " ", text.lower()).split())

    def _gram_hashes(self, text: bytes) -> np.ndarray:
        """CRC-32 of every n-gram of every configured size, or of the whole
        text when it is shorter than every size."""
        if not text:
            return np.zeros(0, dtype=np.uint32)
        data = np.frombuffer(text, dtype=np.uint8)
        sizes = sorted(self.ngram_sizes)
        if not sizes or len(data) < sizes[0]:
            sizes = [len(data)]
        crc = np.full(len(data) - sizes[0] + 1, 0xFFFFFFFF, dtype=np.uint32)
        hashes: list[np.ndarray] = []
        consumed = 0
        for n in sizes:
            starts = len(data) - n + 1
            if starts <= 0:
                break
            crc = crc[:starts]
            for j in range(consumed, n):
                crc = _CRC32_TABLE.take(crc.astype(np.uint8) ^ data[j : j + starts]) ^ (crc >> 8)
            consumed = n
            hashes.append(~crc)
        return np.concatenate(hashes)

    def _embed_one(self, text: str) -> np.ndarray:
        h = self._gram_hashes(self._normalize_text(text).encode("ascii"))
        v = np.bincount(h % self.dim, weights=np.where(h >> 31, 1.0, -1.0), minlength=self.dim)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            v[0] = 1.0
        else:
            v /= norm
        return v

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        # Rows go straight into the float32 result, so no float64 copy of
        # the batch is ever held.
        out = np.empty((len(texts), self.dim), dtype=np.float32)
        for i, text in enumerate(texts):
            out[i] = self._embed_one(text)
        return out


class RemoteEmbedder:
    """OpenAI-compatible ``/embeddings`` endpoint client."""

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        dim: int | None = None,
        batch_size: int = 128,
        timeout_s: float = 60.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.dim = dim or 0  # discovered from the first response when unset
        self.batch_size = batch_size
        self.timeout_s = timeout_s
        self.provider_id = f"remote:{model}"
        self._http = ThreadLocalSession()

    def _post(self, texts: Sequence[str]) -> list[list[float]]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = self._http.session.post(
                f"{self.base_url}/embeddings",
                json={"model": self.model, "input": list(texts)},
                headers=headers,
                timeout=self.timeout_s,
            )
            resp.raise_for_status()
        except requests.RequestException as exc:
            raise EmbedIndexError(f"embedding request failed: {exc}") from exc
        data = sorted(resp.json()["data"], key=lambda row: row["index"])
        return [row["embedding"] for row in data]

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        rows: list[list[float]] = []
        for i in range(0, len(texts), self.batch_size):
            rows.extend(self._post(texts[i : i + self.batch_size]))
        matrix = np.asarray(rows, dtype=np.float64)
        if matrix.ndim != 2:
            raise EmbedIndexError("embedding endpoint returned a ragged batch")
        if self.dim == 0:
            self.dim = matrix.shape[1]
        if matrix.shape[1] != self.dim:
            raise EmbedIndexError(f"endpoint returned dim {matrix.shape[1]}, expected {self.dim}")
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return (matrix / norms).astype(np.float32)


def embed(texts: Sequence[str], provider: EmbeddingProvider) -> np.ndarray:
    """Embed texts to unit vectors, one row per input, order preserved."""
    if not texts:
        raise EmbedIndexError("no texts to embed")
    if any(not t for t in texts):
        raise EmbedIndexError("texts must be non-empty strings")
    matrix = provider.embed_batch(texts)
    norms = np.linalg.norm(matrix.astype(np.float64), axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-6):
        raise EmbedIndexError("provider returned non-unit vectors")
    return matrix


@dataclass(frozen=True)
class RetrievalHit:
    chunk_id: str
    score: float
    query_index: int


def _check_query(query: str, k: int) -> None:
    if not query:
        raise EmbedIndexError("empty query string")
    if k < 1:
        raise EmbedIndexError("k must be >= 1")


class Index:
    """Immutable exact-cosine index: chunk ids plus their unit vectors."""

    def __init__(self, ids: Sequence[str], vectors: np.ndarray, provider: EmbeddingProvider):
        if len(ids) == 0:
            raise EmbedIndexError("cannot build an empty index")
        if len(set(ids)) != len(ids):
            raise EmbedIndexError("duplicate chunk ids in index")
        if vectors.shape[0] != len(ids):
            raise EmbedIndexError("ids/vectors row count mismatch")
        self.ids = list(ids)
        # Held at the stored precision, so a saved and reloaded index scores
        # bit-identically to the original. Float32 rows (as ``load`` reads
        # them) are kept without a copy.
        self._matrix = np.ascontiguousarray(vectors, dtype=np.float32)
        self.dim = int(vectors.shape[1])
        # Candidate margin per unit of query norm (see the module docstring).
        # The 1% headroom covers rounding in the norms and in the margin
        # arithmetic itself, which is below 1e-12 relative.
        max_row_norm = float(np.sqrt(np.einsum("ij,ij->i", self._matrix, self._matrix, dtype=np.float64).max()))
        bound = _gamma(self.dim, _U32) * (1.0 + _U32) + _U32 + _gamma(self.dim, _U64)
        self._margin_per_query_norm = 2.0 * bound * max_row_norm * 1.01
        self.provider = provider
        self.provider_id = provider.provider_id
        self._row_of = {cid: i for i, cid in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)

    def vector(self, chunk_id: str) -> np.ndarray:
        return self._matrix[self._row_of[chunk_id]]

    def search(self, query: str, k: int = 5, vector: np.ndarray | None = None) -> list[RetrievalHit]:
        """Top-k by exact cosine; ties broken by ascending chunk id.

        Every row is scored in float32 and ``np.partition`` finds the k-th
        largest score. The rows within the candidate margin of it (see the
        module docstring) are rescored in float64 and sorted by (-score,
        chunk id), so the result and its scores are those of a float64
        search over every row. ``vector`` is the query's embedding when
        the caller already has it (``retrieve_for_queries`` embeds all its
        queries in one call); otherwise the query is embedded here.
        """
        _check_query(query, k)
        if vector is None:
            vector = embed([query], self.provider)[0]
        q = np.asarray(vector, dtype=np.float64)
        if q.shape[0] != self.dim:
            raise EmbedIndexError(f"query dim {q.shape[0]} does not match index dim {self.dim}")
        n = len(self.ids)
        if k < n:
            scores = self._matrix @ q.astype(np.float32)
            kth = float(np.partition(scores, n - k)[n - k])
            floor = kth - self._margin_per_query_norm * float(np.linalg.norm(q))
            # Round the floor down to float32, never up, so no row inside
            # the margin is dropped by the comparison. (float() matters: a
            # float32 compared with a Python float rounds the float first.)
            floor32 = np.float32(floor)
            if float(floor32) > floor:
                floor32 = np.nextafter(floor32, np.float32(-np.inf))
            rows = np.flatnonzero(scores >= floor32)
        else:
            rows = np.arange(n)
        exact = (self._matrix[rows] * q).sum(axis=1)
        order = sorted(range(len(rows)), key=lambda j: (-exact[j], self.ids[rows[j]]))
        return [
            RetrievalHit(chunk_id=self.ids[rows[j]], score=float(exact[j]), query_index=0) for j in order[:k]
        ]

    # --- persistence -------------------------------------------------------
    # Binary layout: magic, version, dim, count, provider id, id table,
    # row-major float32 vectors. A JSONL sidecar lists the rows for
    # inspection without parsing the binary.

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        provider_bytes = self.provider_id.encode("utf-8")
        with path.open("wb") as fh:
            fh.write(INDEX_MAGIC)
            fh.write(struct.pack("<IIQ", INDEX_VERSION, self.dim, len(self.ids)))
            fh.write(struct.pack("<I", len(provider_bytes)))
            fh.write(provider_bytes)
            for cid in self.ids:
                raw = cid.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
            fh.write(self._matrix.data)
        sidecar = path.with_name(path.name + ".manifest.jsonl")
        with sidecar.open("w", encoding="utf-8") as fh:
            header = {
                "kind": "embed_index_manifest",
                "schema_version": INDEX_VERSION,
                "dim": self.dim,
                "count": len(self.ids),
                "provider_id": self.provider_id,
            }
            fh.write(json.dumps(header) + "\n")
            for i, cid in enumerate(self.ids):
                fh.write(json.dumps({"row": i, "chunk_id": cid}, ensure_ascii=False) + "\n")

    @classmethod
    def load(cls, path: str | Path, provider: EmbeddingProvider) -> "Index":
        path = Path(path)
        with path.open("rb") as fh:
            size = os.fstat(fh.fileno()).st_size

            def read(n: int, what: str) -> bytes:
                # Checked against the file size before reading, so a cut-off
                # file is reported as such and a bad length never allocates.
                if fh.tell() + n > size:
                    raise EmbedIndexError(f"{path} is truncated: {what} runs past its end ({size} bytes)")
                return fh.read(n)

            if read(4, "the magic number") != INDEX_MAGIC:
                raise EmbedIndexError(f"{path} is not an embedding index")
            version, dim, count = struct.unpack("<IIQ", read(16, "the header"))
            if version != INDEX_VERSION:
                raise EmbedIndexError(f"{path}: unsupported index version {version}")
            (provider_len,) = struct.unpack("<I", read(4, "the provider id length"))
            provider_id = read(provider_len, "the provider id").decode("utf-8")
            ids = []
            for _ in range(count):
                (id_len,) = struct.unpack("<I", read(4, "a chunk id length"))
                ids.append(read(id_len, "a chunk id").decode("utf-8"))
            vectors = np.frombuffer(read(count * dim * 4, "the vector block"), dtype=np.float32).reshape(count, dim)
        if provider.provider_id != provider_id:
            raise EmbedIndexError(
                f"index was built with provider {provider_id!r}, got {provider.provider_id!r}"
            )
        return cls(ids, vectors, provider)


def build_index(chunks: Sequence[Chunk], provider: EmbeddingProvider) -> Index:
    """Embed all chunk texts and assemble the index."""
    if not chunks:
        raise EmbedIndexError("cannot build an index from zero chunks")
    ids = [c.chunk_id for c in chunks]
    if len(set(ids)) != len(ids):
        raise EmbedIndexError("duplicate chunk ids")
    vectors = embed([c.text for c in chunks], provider)
    return Index(ids, vectors, provider)


def triple_query(triple: ReasoningTriple, style: str = "space") -> str:
    """Render a triple as a retrieval query string.

    ``space`` joins the fields with single spaces (predicates kept
    verbatim, underscores intact); ``pipe`` keeps the field separators.
    """
    if style == "space":
        return f"{triple.subject} {triple.predicate} {triple.object}"
    if style == "pipe":
        return f"{triple.subject} | {triple.predicate} | {triple.object}"
    raise EmbedIndexError(f"unknown query style: {style!r} (expected one of {QUERY_STYLES})")


def retrieve_for_queries(index: Index, queries: Sequence[str], k_per_query: int = 5) -> tuple[list[str], list[RetrievalHit]]:
    """Per-query top-k plus the de-duplicated union of chunk ids.

    All queries are embedded in one ``embed`` call (one ``/embeddings``
    round trip for a remote provider), then each is searched on its own.
    Union order is first occurrence: query order, then rank order within a
    query. The full hit lists are returned for tracing.
    """
    if not queries:
        raise EmbedIndexError("no queries to retrieve for")
    for query in queries:
        _check_query(query, k_per_query)
    vectors = embed(queries, index.provider)
    ordered: list[str] = []
    seen: set[str] = set()
    hits: list[RetrievalHit] = []
    for qi, (query, vector) in enumerate(zip(queries, vectors)):
        for hit in index.search(query, k=k_per_query, vector=vector):
            hit = RetrievalHit(chunk_id=hit.chunk_id, score=hit.score, query_index=qi)
            hits.append(hit)
            if hit.chunk_id not in seen:
                seen.add(hit.chunk_id)
                ordered.append(hit.chunk_id)
    return ordered, hits

