"""Exact dense retrieval over chunk embeddings.

The index is a plain (ids, matrix) pair searched by brute-force cosine,
which is exact and fast at desk scale (hundreds of thousands of chunks).
Vectors are unit-normalized and held in float32, the precision stored on
disk; there is no float64 copy. A search is two steps, as in FAISS
``IndexFlatIP`` with a refinement pass:

1. Candidates: every row is scored against all of a question's queries
   at once, by float32 products over blocks of rows into one query-major
   score block, and ``np.partition`` finds each query's k-th largest
   score. Every row within a proven margin of it is kept. A float32 score
   differs from the exact dot product by at most
   (γ_dim,f32 + u_f32)·‖row‖·‖q‖ (the float32 dot, summed in any order,
   plus rounding the query to float32) and the float64 rescore by at most
   γ_dim,f64·‖row‖·‖q‖, so a row whose float32 score lies more than twice
   their sum below the k-th cannot enter the float64 top k. The bound
   holds for any summation order, so how the product is blocked never
   changes which rows can be in the result.
2. Rescoring: the candidates are scored again in float64 by an
   elementwise product and numpy's pairwise sum, which depends only on the
   row and the query (a BLAS product over a subset of rows can round a
   row differently depending on its position), and sorted by
   (-score, chunk id), so ties at the boundary break by ascending id.

Two providers are included: an OpenAI-compatible HTTP embedder and a
deterministic hashing embedder (character n-grams feature-hashed into a
fixed dimension) used for tests and offline runs. The HTTP embedder posts
through ``llm_gateway``'s client and retry helper, as the chat provider
does; a failure left after the retries, or a malformed reply, is an
:class:`EmbedIndexError`. After the first batch, which goes alone, the
calling thread sends each batch two ahead on one of two kept connections:
the endpoint serves the next two batches while it decodes each reply, in
batch order, into its rows of one preallocated float32 result. So
embedding a corpus holds the result plus one decoded reply and one reply
body, and starts no thread. Each reply is checked on its own: one row per
input, indexed ``0..n-1``, all of the index's dim.
:func:`embed` checks that a provider returns one unit row per text.

The hashing embedder works on blocks of texts, with a fixed number of numpy
calls per block. A text is normalized to its ``[a-z0-9]`` runs joined by
single spaces, by ``str.lower()``, ASCII encoding and one byte table (no
regex). A block's texts share one buffer. One table-driven CRC-32 pass over
it, indexed by each gram's last byte, gives the hash of every n-gram of
every size. A gram that would start before its own text gets a trash key.
A text shorter than every size is hashed whole: its hash is read at its
last byte after as many steps as it has bytes. One ``np.bincount`` over
``(row·dim + bucket)·2 + sign``, with the bucket found by floor division,
then counts the whole block. The signed counts are integers, so their sum
of squares is exact and the row norm equals ``np.linalg.norm``'s bit for
bit: rows match the scalar ``hashing-v1`` definition exactly.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import struct
from collections import deque
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Protocol, Sequence

import numpy as np

from anchor_rag.corpus import Chunk, write_atomically
from anchor_rag.llm_gateway import GatewayError, HttpClient, with_retries
from anchor_rag.traces import AnchorRagError, ReasoningTriple, RetrievalHit

INDEX_MAGIC = b"ARIX"
INDEX_VERSION = 1

# Unit roundoff of float32 and float64.
_U32 = float(np.finfo(np.float32).eps) / 2
_U64 = float(np.finfo(np.float64).eps) / 2

# Scores written per float32 product in Index._top_k: a block holds
# _BLOCK_SCORES // m rows for m queries. With OpenBLAS 0.3.31 on a 2-core
# x86-64 Xeon (one BLAS thread), a product of m >= 2 queries by r rows runs
# about three times slower per score once m·r passes about 1,200, at dim 64,
# 256 and 768 alike. At 3,000 rows of dim 256 and 4 queries, four
# matrix-vector products take 0.65 ms, one product over all rows 0.33-0.80
# ms (by operand order), 512-row blocks 0.80 ms and 256-row blocks 0.25 ms.
# One query's product is a matrix-vector product and has no such knee, so it
# is not split: 1,024-row blocks would add 10% at 10k-50k rows.
_BLOCK_SCORES = 1024


def _gamma(n: int, u: float) -> float:
    """Higham's γ_n = n·u / (1 - n·u): the relative error bound of an
    n-term dot product summed in any order."""
    return n * u / (1.0 - n * u)


class EmbedIndexError(AnchorRagError, ValueError):
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


def _crc32_zero_byte(register: np.ndarray) -> np.ndarray:
    """One step of the CRC-32 register over a zero byte."""
    return _CRC32_TABLE[register & 0xFF] ^ (register >> 8)


def _gram_tables(n: int) -> list[np.ndarray]:
    """``tables[j][b]``: the share of byte ``b``, placed ``j`` bytes before
    the last byte of a string of up to ``n`` bytes, in that string's CRC-32.

    zlib's CRC-32 starts its register at 0xFFFFFFFF, steps it over each byte
    ``b`` as ``r = T[(r ^ b) & 0xFF] ^ (r >> 8)`` and returns ``~r``. ``T``
    is linear over GF(2), so a step is ``Z(r) ^ T[b]`` with ``Z`` the step
    over a zero byte, and the CRC of a k-byte string is
    ``F_k ^ XOR_j Z^j(T[b_(k-1-j)])`` with ``F_k = ~Z^k(0xFFFFFFFF)``.
    Folding ``F_(j+1) ^ F_j`` into table j makes the constants telescope:
    the XOR of the first k tables' entries is the CRC for every k <= n.
    """
    tables = []
    table, register, final = _CRC32_TABLE, np.uint32(0xFFFFFFFF), np.uint32(0)
    for _ in range(n):
        register = _crc32_zero_byte(register)
        tables.append(table ^ final ^ ~register)
        final = ~register
        table = _crc32_zero_byte(table)
    return tables


# The n-gram sizes of hashing-v1, ascending; the whole-text hash of a text
# shorter than every size is taken at the first.
_NGRAM_SIZES = (3, 4, 5)
_GRAM_TABLES = _gram_tables(_NGRAM_SIZES[-1])

# Maps every byte outside [a-z0-9] to a space.
_WORD_BYTES = bytes(b if 48 <= b <= 57 or 97 <= b <= 122 else 32 for b in range(256))
_SPACE_RUNS = re.compile(rb"  +")

# Normalized bytes embedded per block, each text also counting `dim` for its
# row of bucket counts; a longer text is a block of its own. Keeps a block's
# temporaries under 2 MB (about 1.5 MB for 80- and 400-token chunks).
_BLOCK_BYTES = 1 << 14


class HashingEmbedder:
    """Deterministic text embedder: feature-hashed character n-grams
    (Weinberger et al., "Feature Hashing for Large Scale Multitask
    Learning", ICML 2009).

    Text is lowercased and every non-alphanumeric run becomes one space, so
    snake_case predicates land in the same buckets as their plain-text
    forms. Each n-gram is CRC-hashed to a signed bucket; the count vector
    is then L2-normalized. A text shorter than every n-gram size is hashed
    whole, and one that normalizes to nothing maps to the first axis.

    Texts are embedded in blocks of about ``_BLOCK_BYTES``, with a fixed
    number of numpy calls per block, not per text:

    - Normalization is ``str.lower()`` (so ``İ`` and the Kelvin sign
      lower as before), ASCII with ``?`` for the rest, a byte table
      mapping everything outside ``[a-z0-9]`` to a space, then one regex
      pass folding each run of spaces to one and a strip. That gives the
      same ``[a-z0-9]`` runs, with no bytes object per word.
    - The block's texts are joined into one buffer, and grams are indexed
      by their last byte. Step j looks up every byte j positions back in
      ``_gram_tables``' table j and XORs it into the previous step, so
      step k holds the CRC-32 (zlib's, so rows match a per-gram
      ``zlib.crc32`` loop bit for bit) of the k bytes ending at every
      position. The steps run up to the largest size and are read off at
      each size.
    - A gram that would start before its own text is sent to a trash row
      of keys; the whole-text hash of a text shorter than every size is
      the state after as many steps as the text has bytes, at its last
      byte.
    - One ``np.bincount`` over ``(row·dim + bucket)·2 + sign`` counts every
      gram of the block; the bucket is ``h - h // dim * dim``, which is
      ``h % dim`` bit for bit at a quarter of the cost. The counts are
      integers, so the sum of squares is exact, and dividing by its square
      root equals dividing by ``np.linalg.norm`` of the float64 count
      vector bit for bit.
    """

    def __init__(self, dim: int = 256):
        if dim < 2:
            raise EmbedIndexError("embedding dim must be >= 2")
        self.dim = dim
        sizes = "-".join(str(n) for n in _NGRAM_SIZES)
        self.provider_id = f"hashing-v1:d{dim}:n{sizes}"

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        # Rows go straight into the float32 result, so no float64 copy of
        # the batch is ever held.
        out = np.empty((len(texts), self.dim), dtype=np.float32)
        block: list[bytes] = []
        first = cost = 0
        for i, text in enumerate(texts):
            data = _SPACE_RUNS.sub(b" ", text.lower().encode("ascii", "replace").translate(_WORD_BYTES)).strip(b" ")
            if block and cost + len(data) + self.dim > _BLOCK_BYTES:
                self._embed_block(block, out[first:i])
                block, first, cost = [], i, 0
            block.append(data)
            cost += len(data) + self.dim
        if block:
            self._embed_block(block, out[first:])
        return out

    def _embed_block(self, texts: list[bytes], out: np.ndarray) -> None:
        """Write the rows of normalized ``texts`` into ``out``."""
        dim, n = self.dim, len(_GRAM_TABLES)
        lengths = [len(t) for t in texts]
        total = sum(lengths)
        # Byte e of the joined texts is data[n - 1 + e]; the zero bytes in
        # front let every step read n - 1 bytes back from any position.
        data = np.frombuffer(bytes(n - 1) + b"".join(texts), dtype=np.uint8).astype(np.intp)
        # steps[j][e]: CRC-32 of the j + 1 bytes ending at byte e.
        steps: list[np.ndarray] = []
        for j, table in enumerate(_GRAM_TABLES):
            h = table.take(data[n - 1 - j : n - 1 - j + total])
            if j:
                h ^= steps[-1]
            steps.append(h)
        hashes = np.concatenate([steps[size - 1] for size in _NGRAM_SIZES])
        # Each hash's key offset, laid out by one np.repeat: its text's row,
        # or the trash row for a gram that would start before its text.
        trash = 2 * dim * len(texts)
        offsets: list[int] = []
        counts: list[int] = []
        for i, size in enumerate(_NGRAM_SIZES):
            end = -1
            for row, length in enumerate(lengths):
                end += length
                if length >= size:
                    kept = length - size + 1
                elif i == 0 and length:
                    hashes[end] = steps[length - 1][end]
                    kept = 1
                else:
                    kept = 0
                offsets += (trash, 2 * dim * row)
                counts += (length - kept, kept)
        # hashes - hashes // dim * dim is hashes % dim bit for bit, but numpy
        # has a fast path for floor division by a scalar and none for the
        # remainder: 22-27 us against 92-100 us per 16 KiB block with numpy
        # 2.4 on a 2-core x86-64 Xeon.
        buckets = hashes - hashes // dim * dim
        keys = ((buckets << 1) | (hashes >> 31)) + np.repeat(offsets, counts)
        bins = np.bincount(keys, minlength=trash + 2 * dim)[:trash]
        v = (bins[1::2] - bins[::2]).reshape(-1, dim)
        squares = (v * v).sum(axis=1)
        if np.count_nonzero(squares) < len(squares):
            empty = squares == 0
            v[empty, 0] = 1
            squares[empty] = 1
        np.divide(v, np.sqrt(squares)[:, None], out=out)


# Requests RemoteEmbedder keeps at the endpoint while it decodes a reply,
# and so kept connections per thread. On the perfbench stub (20 ms a
# request, 128 rows of dim 256 a reply, 2 cores), embedding 2,016 chunks
# took 408-411 ms with 1, 274-326 ms with 2 and 266-327 ms with 4
# (scripts/embed_timeline.py, two alternated rounds of five), of which the
# first request and the decodes alone take 211-277 ms; build-index took
# 0.46, 0.33-0.34 and 0.31-0.32 s, at peak RSS 46.2, 46.2 and 45.7 MB.
# Past 2 the decode, not the endpoint, is the limit at that latency.
_IN_FLIGHT = 2


class RemoteEmbedder:
    """OpenAI-compatible ``/embeddings`` endpoint client: one retried post
    per batch of ``batch_size`` texts, with the next two batches sent ahead
    while the calling thread decodes each reply. It starts no thread.

    The first batch is posted alone, and its reply is decoded and checked
    before any other request goes out: it sets ``dim`` when that was not
    given, and the float32 result is allocated then. So a misbehaving
    endpoint costs one request. After it, the embedder holds ``_IN_FLIGHT``
    clients, and so the calling thread holds as many kept connections:
    batch j goes on client (j - 1) mod ``_IN_FLIGHT``. Batches 1 and 2 are
    sent together; once reply i's body is read, batch i + 2 is sent on the
    connection it freed, and only then is reply i decoded. So the endpoint
    serves two batches while each reply is decoded, in batch order, and at
    most one decoded reply and one body are alive at once.

    Each reply is decoded to a float64 block, checked (exactly one row per
    input, ``index`` values ``0..n-1``, numeric rows of one length equal to
    ``dim``), L2-normalized (a zero row is kept as zeros) and cast into its
    rows of the result. A row is normalized in float64 on its own, so the
    result is bit-identical to normalizing every row at once.

    A batch sent ahead is read as the first attempt of its retries; a retry
    posts it again on the same client. Once a batch fails, or the call is
    interrupted, nothing more is sent or retried, and every connection
    whose reply was not read is closed without waiting for it: up to one
    after a failed post, up to two after a malformed reply or an interrupt.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        dim: int | None = None,
        batch_size: int = 128,
        timeout_s: float = 60.0,
    ):
        if dim is not None and dim < 1:
            raise EmbedIndexError("embedding dim must be >= 1")
        self.model = model
        self.dim = dim or 0  # discovered from the first response when unset
        self.batch_size = batch_size
        self.provider_id = f"remote:{model}"
        self._clients = [HttpClient(base_url, api_key, timeout_s) for _ in range(_IN_FLIGHT)]

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        batches = [list(texts[i : i + self.batch_size]) for i in range(0, len(texts), self.batch_size)]
        out = None
        start = 0
        with contextlib.closing(self._bodies(batches)) as bodies:
            for batch in batches:
                raw = next(bodies)
                try:
                    reply = self._clients[0].json_object("/embeddings", raw)
                except GatewayError as exc:
                    raise EmbedIndexError(f"embedding request failed: {exc}") from exc
                del raw  # each body is dropped as soon as it is parsed
                block = _decode_embeddings(reply, len(batch))
                del reply
                if self.dim == 0:
                    self.dim = block.shape[1]
                if block.shape[1] != self.dim:
                    raise EmbedIndexError(f"endpoint returned dim {block.shape[1]}, expected {self.dim}")
                if out is None:
                    out = np.empty((len(texts), self.dim), dtype=np.float32)
                norms = np.linalg.norm(block, axis=1, keepdims=True)
                norms[norms == 0.0] = 1.0
                block /= norms
                out[start : start + len(batch)] = block
                start += len(batch)
                del block
        return out if out is not None else np.empty((0, self.dim), dtype=np.float32)

    def _bodies(self, batches: list[list[str]]) -> Iterator[bytes]:
        """Each batch's reply body, in batch order. The first is posted when
        the caller asks for it, so the caller has checked it before the rest
        are sent. Each later body is read, the batch ``_IN_FLIGHT`` after it
        is sent on its client, and then the body is handed over. Closing the
        generator closes every connection whose reply was not read."""
        yield self._post(*self._send(self._clients[0], batches[0]))
        ahead: deque = deque()  # _send's (client, payload, receive) per batch sent and not read

        def send(j: int) -> None:
            if j < len(batches):
                ahead.append(self._send(self._clients[(j - 1) % _IN_FLIGHT], batches[j]))

        def take(i: int) -> bytes:
            """Reply i's body, once batch i + ``_IN_FLIGHT`` is sent. The body
            is returned, not held in a local of the loop, so the generator
            keeps no reference to it during the decode."""
            body = self._post(*ahead.popleft())
            send(i + _IN_FLIGHT)
            return body

        try:
            for j in range(1, 1 + _IN_FLIGHT):
                send(j)
            for i in range(1, len(batches)):
                yield take(i)
        finally:
            for client, _, _ in ahead:
                client.close_session()

    def _send(self, client: HttpClient, batch: list[str]) -> tuple[HttpClient, dict, Callable[[], bytes]]:
        """Send one batch on ``client``: the client, the payload and the call
        that reads the reply."""
        payload = {"model": self.model, "input": batch}
        return client, payload, client.send("/embeddings", payload)

    def _post(self, client: HttpClient, payload: dict, receive: Callable[[], bytes]) -> bytes:
        """The reply body to a batch sent on ``client``, after
        ``with_retries``: ``receive`` is the first attempt, and each retry
        posts ``payload`` again."""
        attempts = itertools.chain([receive], itertools.repeat(lambda: client.post_bytes("/embeddings", payload)))
        try:
            return with_retries(lambda: next(attempts)())
        except GatewayError as exc:
            raise EmbedIndexError(f"embedding request failed: {exc}") from exc


def _decode_embeddings(body: dict, n: int) -> np.ndarray:
    """The float64 rows of one ``/embeddings`` reply to ``n`` inputs, in
    input order. The reply must hold exactly one row per input, with
    ``index`` values ``0..n-1`` (JSON integers), each a list of numbers of
    one length."""
    try:
        data = sorted(body["data"], key=lambda row: row["index"])
        indices = [row["index"] for row in data]
        embeddings = [row["embedding"] for row in data]
    except (KeyError, TypeError) as exc:
        raise EmbedIndexError(f"malformed embeddings reply: {exc!r}") from exc
    if len(data) != n:
        raise EmbedIndexError(f"provider returned {len(data)} rows for {n} texts in one /embeddings reply")
    # JSON true and false compare equal to 1 and 0, and 1.0 to 1: only ints count.
    if indices != list(range(n)) or any(type(i) is not int for i in indices):
        raise EmbedIndexError(f"/embeddings reply rows are not indexed 0..{n - 1}")
    try:
        block = np.asarray(embeddings, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise EmbedIndexError(f"embedding endpoint returned a malformed batch: {exc}") from exc
    if block.ndim != 2 or block.shape[1] == 0:
        raise EmbedIndexError(f"embedding endpoint returned a malformed batch of shape {block.shape}")
    return block


def embed(texts: Sequence[str], provider: EmbeddingProvider) -> np.ndarray:
    """Embed texts to unit vectors, one row per input, order preserved."""
    if not texts:
        raise EmbedIndexError("no texts to embed")
    if any(not t for t in texts):
        raise EmbedIndexError("texts must be non-empty strings")
    matrix = provider.embed_batch(texts)
    if matrix.shape[0] != len(texts):
        raise EmbedIndexError(f"provider returned {matrix.shape[0]} rows for {len(texts)} texts")
    # Squared norms summed in float64 without a float64 copy of the batch.
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64))
    if not np.all(np.abs(norms - 1.0) <= 1e-6):
        raise EmbedIndexError("provider returned non-unit vectors")
    return matrix


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
        self._row_of = {cid: i for i, cid in enumerate(ids)}
        if len(self._row_of) != len(ids):
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

    def __len__(self) -> int:
        return len(self.ids)

    def vector(self, chunk_id: str) -> np.ndarray:
        return self._matrix[self._row_of[chunk_id]]

    def search(self, query: str, k: int = 5) -> list[RetrievalHit]:
        """Top-k by exact cosine; ties broken by ascending chunk id.

        The one-query case of :meth:`retrieve`, so the result and its scores
        are those of a float64 search over every row.
        """
        ((_, hits),) = self.retrieve([[query]], k)
        return hits

    def retrieve(self, query_lists: Sequence[Sequence[str]], k: int) -> list[tuple[list[str], list[RetrievalHit]]]:
        """Each list's top-k hits per query and their de-duplicated union of
        chunk ids, with ``query_index`` counted within the list.

        Every query of every list is embedded in one ``embed`` call (one
        ``/embeddings`` round trip for a remote provider) and selected by
        one :meth:`_top_k` call, whose hits depend only on the row and the
        query, so a list gets exactly the hits it would get alone. Union
        order is first occurrence: query order, then rank within a query.
        """
        texts = [query for queries in query_lists for query in queries]
        for query in texts:
            _check_query(query, k)
        ranked = iter(self._top_k(embed(texts, self.provider), k))
        out = []
        for queries in query_lists:
            hits = [
                RetrievalHit(chunk_id=cid, score=score, query_index=qi)
                for qi, pairs in enumerate(itertools.islice(ranked, len(queries)))
                for cid, score in pairs
            ]
            out.append((list(dict.fromkeys(hit.chunk_id for hit in hits)), hits))
        return out

    def _top_k(self, vectors: np.ndarray, k: int) -> list[list[tuple[str, float]]]:
        """Each query's top k as ranked ``(chunk_id, score)`` pairs, for an
        (m, dim) block of query embeddings.

        Every row is scored against all m queries in float32, a block of
        rows per product (see ``_BLOCK_SCORES``), into one (m, n) score
        block, and ``np.partition`` finds each query's k-th largest score.
        Each query keeps the rows within its own candidate margin (see the
        module docstring), rescores them in float64 and sorts them by
        (-score, chunk id), so a row's score and rank depend only on that
        row and its query. This is the only selection path: its one caller
        is :meth:`retrieve`, through which ``search``,
        ``retrieve_for_queries`` and the pipeline's blocks of questions
        (``Pipeline.retrieve_block``) all go, and a tracer can time all
        retrieval by patching this one method.
        """
        queries = np.asarray(vectors, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise EmbedIndexError(f"query dim {queries.shape[-1]} does not match index dim {self.dim}")
        n, m = len(self.ids), len(queries)
        if k < n:
            # Query-major, so each query's partition and comparison read
            # one contiguous row.
            scores = np.empty((m, n), dtype=np.float32)
            queries32 = queries.astype(np.float32)
            block = n if m == 1 else max(1, _BLOCK_SCORES // m)
            for start in range(0, n, block):
                np.matmul(queries32, self._matrix[start : start + block].T, out=scores[:, start : start + block])
            kths = np.partition(scores, n - k, axis=1)[:, n - k].tolist()
            candidates = []
            for row_scores, kth, q in zip(scores, kths, queries):
                floor = kth - self._margin_per_query_norm * float(np.linalg.norm(q))
                # Round the floor down to float32, never up, so no row inside
                # the margin is dropped by the comparison. (float() matters: a
                # float32 compared with a Python float rounds the float first.)
                floor32 = np.float32(floor)
                if float(floor32) > floor:
                    floor32 = np.nextafter(floor32, np.float32(-np.inf))
                candidates.append(np.flatnonzero(row_scores >= floor32))
        else:
            candidates = [np.arange(n)] * m
        ranked = []
        for q, rows in zip(queries, candidates):
            exact = (self._matrix[rows] * q).sum(axis=1).tolist()
            ids = [self.ids[r] for r in rows.tolist()]
            order = sorted(range(len(ids)), key=lambda i: (-exact[i], ids[i]))
            ranked.append([(ids[i], exact[i]) for i in order[:k]])
        return ranked

    # --- persistence -------------------------------------------------------
    # Binary layout: magic, version, dim, count, provider id, id table,
    # row-major float32 vectors. A JSONL sidecar lists the rows for
    # inspection without parsing the binary.

    def save(self, path: str | Path) -> None:
        path = Path(path)
        provider_bytes = self.provider_id.encode("utf-8")
        table = bytearray()
        for cid in self.ids:
            raw = cid.encode("utf-8")
            table += struct.pack("<I", len(raw))
            table += raw
        with write_atomically(path, "wb") as fh:
            fh.write(INDEX_MAGIC)
            fh.write(struct.pack("<IIQ", INDEX_VERSION, self.dim, len(self.ids)))
            fh.write(struct.pack("<I", len(provider_bytes)))
            fh.write(provider_bytes)
            fh.write(table)
            fh.write(self._matrix.data)
        # Each row is what json.dumps({"row": i, "chunk_id": cid},
        # ensure_ascii=False) writes; encoding a str with one encoder skips
        # building an encoder and a dict per row.
        encode = json.JSONEncoder(ensure_ascii=False).encode
        with write_atomically(path.with_name(path.name + ".manifest.jsonl")) as fh:
            header = {
                "kind": "embed_index_manifest",
                "schema_version": INDEX_VERSION,
                "dim": self.dim,
                "count": len(self.ids),
                "provider_id": self.provider_id,
            }
            fh.write(json.dumps(header) + "\n")
            fh.writelines(f'{{"row": {i}, "chunk_id": {encode(cid)}}}\n' for i, cid in enumerate(self.ids))

    @classmethod
    def load(cls, path: str | Path, provider: EmbeddingProvider) -> "Index":
        """Read an index file written by :meth:`save`.

        Everything after the provider id, the id table and the vector block,
        is taken in one read into a buffer as large as that part of the
        file, so no length read from the file sizes an allocation. The
        buffer starts at an offset that puts the vector block, which ends
        the file, on a 4-byte boundary, so the rows are used where they lie.
        A part cut off by the file's end, or a provider id or chunk id that
        is not UTF-8, is named in the error.
        """
        path = Path(path)
        with path.open("rb") as fh:
            dim, count, provider_id, size = _open_index(fh, path)
            rest, vector_bytes = size - fh.tell(), count * dim * 4
            pad = (vector_bytes - rest) % 4
            buf = np.empty(pad + rest, dtype=np.uint8)
            got = fh.readinto(memoryview(buf)[pad:])
        view = memoryview(buf)[: pad + got]
        ids, pos = [], pad
        try:
            for _ in range(count):
                if pos + 4 > len(view):
                    raise _truncated(path, "a chunk id length", size)
                (id_len,) = struct.unpack_from("<I", view, pos)
                pos += 4
                if pos + id_len > len(view):
                    raise _truncated(path, "a chunk id", size)
                ids.append(str(view[pos : pos + id_len], "utf-8"))
                pos += id_len
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, "a chunk id", exc) from None
        if pos + vector_bytes > len(view):
            raise _truncated(path, "the vector block", size)
        if pos + vector_bytes < len(view):
            raise EmbedIndexError(f"{path}: {len(view) - pos - vector_bytes} bytes follow the vector block")
        vectors = buf[pos : pos + vector_bytes].view(np.float32).reshape(count, dim)
        vectors.flags.writeable = False
        if provider.provider_id != provider_id:
            raise EmbedIndexError(
                f"index was built with provider {provider_id!r}, got {provider.provider_id!r}"
            )
        return cls(ids, vectors, provider)

    @staticmethod
    def read_provider_id(path: str | Path) -> str:
        """The id of the provider an index file was built with, from its header."""
        path = Path(path)
        with path.open("rb") as fh:
            return _open_index(fh, path)[2]


def _truncated(path: Path, what: str, size: int) -> EmbedIndexError:
    return EmbedIndexError(f"{path} is truncated: {what} runs past its end ({size} bytes)")


def _not_utf8(path: Path, what: str, exc: UnicodeDecodeError) -> EmbedIndexError:
    return EmbedIndexError(f"{path}: {what} is not UTF-8 ({exc.reason})")


def _open_index(fh: BinaryIO, path: Path) -> tuple[int, int, str, int]:
    """Check an index file's magic number and version, and read its header.
    Returns the dim, row count, provider id and file size, with ``fh`` at
    the id table. Each read is checked against the file size first, so a
    cut-off file is reported as such and a bad length never allocates."""
    size = os.fstat(fh.fileno()).st_size

    def read(n: int, what: str) -> bytes:
        if fh.tell() + n > size:
            raise _truncated(path, what, size)
        return fh.read(n)

    if read(4, "the magic number") != INDEX_MAGIC:
        raise EmbedIndexError(f"{path} is not an embedding index")
    version, dim, count = struct.unpack("<IIQ", read(16, "the header"))
    if version != INDEX_VERSION:
        raise EmbedIndexError(f"{path}: unsupported index version {version}")
    (provider_len,) = struct.unpack("<I", read(4, "the provider id length"))
    try:
        provider_id = read(provider_len, "the provider id").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, "the provider id", exc) from None
    return dim, count, provider_id, size


def build_index(chunks: Sequence[Chunk], provider: EmbeddingProvider) -> Index:
    """Embed all chunk texts and assemble the index."""
    return index_texts([c.chunk_id for c in chunks], [c.text for c in chunks], provider)


def index_texts(ids: Sequence[str], texts: Sequence[str], provider: EmbeddingProvider) -> Index:
    """Embed ``texts`` and index them under ``ids``, one id per text: what
    :func:`build_index` does for chunks, for ``build-index``, which reads
    the ids and texts of a manifest without building a :class:`Chunk`."""
    if not ids:
        raise EmbedIndexError("cannot build an index from zero chunks")
    if len(set(ids)) != len(ids):
        raise EmbedIndexError("duplicate chunk ids")
    return Index(ids, embed(texts, provider), provider)


def triple_query(triple: ReasoningTriple) -> str:
    """Render a triple as a retrieval query: its fields joined by single
    spaces, predicates verbatim."""
    return f"{triple.subject} {triple.predicate} {triple.object}"


def retrieve_for_queries(index: Index, queries: Sequence[str], k_per_query: int = 5) -> tuple[list[str], list[RetrievalHit]]:
    """Per-query top-k plus the de-duplicated union of chunk ids: the
    one-list case of :meth:`Index.retrieve`, so each query's hits are those
    ``Index.search`` gives it alone. The full hit lists are returned for
    tracing.
    """
    if not queries:
        raise EmbedIndexError("no queries to retrieve for")
    return index.retrieve([queries], k_per_query)[0]
