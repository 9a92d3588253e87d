import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
import zlib
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import cut_off, embeddings_reply, reply
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchor_rag import embed_index
from anchor_rag.corpus import Chunk
from anchor_rag.embed_index import (
    EmbedIndexError,
    HashingEmbedder,
    Index,
    RemoteEmbedder,
    build_index,
    embed,
    retrieve_for_queries,
    triple_query,
)
from anchor_rag.traces import ReasoningTriple, RetrievalHit

WORDS = (
    "river stone castle meadow falcon ember harbor lantern cedar summit "
    "violet marble thunder quill anchor breeze canyon dune ivory jasper "
    "kestrel lagoon mosaic nectar orchid prairie quartz russet saffron tundra"
).split()


def make_chunk(i: int, text: str) -> Chunk:
    n = max(1, len(text.split()))
    return Chunk(
        chunk_id=f"c{i:04d}",
        doc_id=f"d{i:04d}",
        start_token=0,
        end_token=n,
        text=text,
        token_count=n,
        tokenizer_id="wordpunct-v1",
        title=f"Title {i}",
    )


def soup_corpus(n: int, rng: random.Random, min_words=5, max_words=20) -> list[Chunk]:
    texts = set()
    while len(texts) < n:
        texts.add(" ".join(rng.choices(WORDS, k=rng.randint(min_words, max_words))))
    return [make_chunk(i, text) for i, text in enumerate(sorted(texts))]


def brute_force_ranking(index: Index, query: str) -> list[tuple[str, float]]:
    q = embed([query], index.provider)[0].astype(np.float64)
    scored = [(cid, float(np.dot(index.vector(cid), q))) for cid in index.ids]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


# --- embed -----------------------------------------------------------------


def test_embed_deterministic():
    provider = HashingEmbedder()
    a = embed(["abc"], provider)
    b = embed(["abc"], provider)
    assert np.array_equal(a, b)


def test_embed_unit_norm():
    provider = HashingEmbedder()
    vectors = embed(["some text", "x", "!!!", "a much longer chunk of text with many words"], provider)
    norms = np.linalg.norm(vectors.astype(np.float64), axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-6)


def test_embed_similarity_ordering():
    provider = HashingEmbedder()
    vectors = embed(
        ["Modric plays_for AC Milan", "Luka Modric AC Milan midfielder", "photosynthesis in plants"],
        provider,
    ).astype(np.float64)
    close = float(vectors[0] @ vectors[1])
    far = float(vectors[0] @ vectors[2])
    assert close > far


def test_embed_rejects_empty_inputs():
    provider = HashingEmbedder()
    with pytest.raises(EmbedIndexError):
        embed([], provider)
    with pytest.raises(EmbedIndexError):
        embed(["ok", ""], provider)


def hashing_v1_reference(text: str, dim: int) -> np.ndarray:
    """The scalar hashing-v1 embedder: one zlib.crc32 and one += per 3-, 4- and 5-gram."""
    v = np.zeros(dim, dtype=np.float64)
    t = " ".join(re.sub(r"[^a-z0-9]+", " ", text.lower()).split())
    grams = [t[i : i + n] for n in (3, 4, 5) for i in range(len(t) - n + 1)]
    if not grams and t:
        grams = [t]
    for gram in grams:
        h = zlib.crc32(gram.encode("utf-8"))
        v[h % dim] += 1.0 if (h >> 31) & 1 else -1.0
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        v[0] = 1.0
    else:
        v /= norm
    return v.astype(np.float32)


UNICODE_WORDS = ["İstanbul", "café", "naïve", "Straße", "plays_for", "ŁÓDŹ", "東京タワー", "señor-año", "x1y2z3"]
LONG_TEXTS = st.lists(st.sampled_from(UNICODE_WORDS + WORDS), min_size=600, max_size=800).map(" ".join)


@settings(max_examples=80, deadline=None)
@given(
    texts=st.lists(st.one_of(st.text(), st.text(alphabet="ab !_İé", max_size=6), LONG_TEXTS), min_size=1, max_size=6),
    dim=st.sampled_from([2, 31, 256]),
)
@example(texts=["", "!!! ???", "ab", "a", "İ", "é", "x" * 3001, " ".join(WORDS) * 20], dim=256)
# Separators leading, trailing and repeated, of one kind and mixed.
@example(texts=["  river", "stone  ", "  cedar  ", "a  b", "a _-_ b", "\tq\n\nr\t", "__x__y__", " ", "-- é --"],
         dim=31)
def test_hashing_embedder_matches_scalar_reference(texts, dim):
    got = HashingEmbedder(dim=dim).embed_batch(texts)
    expected = np.stack([hashing_v1_reference(t, dim) for t in texts])
    assert got.dtype == np.float32
    assert np.array_equal(got, expected)


# Empty, 1- and 2-character and all-punctuation texts, each of which hashes
# whole or to nothing, between texts long enough for every size; one text is
# longer than any block below.
EDGE_TEXTS = ["", "a", "!!! ???", "ab", "river stone", "é", "İ", "x" * 90, "Zq", "", "plays_for AC Milan", "?",
              "K", "cedar summit", "b c", "ab", "", "quill"]


@pytest.mark.parametrize("dim", [2, 8])
def test_hashing_embedder_rows_across_block_edges(monkeypatch, dim):
    blocks: list[list[bytes]] = []
    embed_block = HashingEmbedder._embed_block

    def spy(self, texts, out):
        blocks.append(list(texts))
        embed_block(self, texts, out)

    monkeypatch.setattr(HashingEmbedder, "_embed_block", spy)
    expected = np.stack([hashing_v1_reference(t, dim) for t in EDGE_TEXTS])
    for block_bytes in range(1, 60):
        monkeypatch.setattr(embed_index, "_BLOCK_BYTES", block_bytes)
        got = HashingEmbedder(dim=dim).embed_batch(EDGE_TEXTS)
        assert np.array_equal(got, expected), block_bytes
    # Blocks of one text each, blocks of many, and one text alone in a block
    # it overflows were all formed.
    assert min(map(len, blocks)) == 1 and max(map(len, blocks)) >= 5
    assert [b"x" * 90] in blocks


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(st.one_of(st.text(max_size=12), st.text(alphabet="ab !_İé", max_size=6), LONG_TEXTS), max_size=8),
    block_bytes=st.sampled_from([1, 24, 300, embed_index._BLOCK_BYTES]),
    dim=st.sampled_from([2, 31, 256]),
)
def test_hashing_embedder_batch_equals_rows_embedded_alone(texts, block_bytes, dim):
    provider = HashingEmbedder(dim=dim)
    with mock.patch.object(embed_index, "_BLOCK_BYTES", block_bytes):
        got = provider.embed_batch(texts)
    alone = [provider.embed_batch([t]) for t in texts]
    assert np.array_equal(got, np.concatenate(alone) if alone else np.empty((0, dim), dtype=np.float32))


def test_embed_checks_norms_without_copying_the_batch():
    rows = np.random.default_rng(0).standard_normal((20_000, 64), dtype=np.float32)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)

    class Prebuilt:
        provider_id = "prebuilt"
        dim = 64

        def embed_batch(self, texts):
            return rows

    texts = ["t"] * len(rows)
    tracemalloc.start()
    try:
        assert embed(texts, Prebuilt()) is rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes / 4


# --- build / search -----------------------------------------------------------


def test_build_index_size():
    chunks = [make_chunk(i, f"chunk number {i}") for i in range(3)]
    index = build_index(chunks, HashingEmbedder())
    assert len(index) == 3


def test_build_index_rejects_empty_and_duplicates():
    with pytest.raises(EmbedIndexError):
        build_index([], HashingEmbedder())
    chunk = make_chunk(0, "same id twice")
    with pytest.raises(EmbedIndexError):
        build_index([chunk, chunk], HashingEmbedder())


def test_search_self_similarity():
    chunks = soup_corpus(20, random.Random(0))
    index = build_index(chunks, HashingEmbedder())
    hits = index.search(chunks[7].text, k=3)
    assert hits[0].chunk_id == chunks[7].chunk_id
    assert hits[0].score == pytest.approx(1.0, abs=1e-6)


def test_search_k_larger_than_index():
    chunks = soup_corpus(4, random.Random(1))
    index = build_index(chunks, HashingEmbedder())
    hits = index.search("river stone", k=50)
    assert len(hits) == 4
    assert index.search("river stone", k=4) == hits
    assert [h.score for h in hits] == sorted((h.score for h in hits), reverse=True)


def test_search_rejects_bad_inputs():
    index = build_index(soup_corpus(4, random.Random(2)), HashingEmbedder())
    with pytest.raises(EmbedIndexError):
        index.search("", k=3)
    with pytest.raises(EmbedIndexError):
        index.search("river", k=0)


def test_search_matches_brute_force_argsort():
    rng = random.Random(42)
    chunks = soup_corpus(50, rng)
    index = build_index(chunks, HashingEmbedder())
    for _ in range(20):
        query = " ".join(rng.choices(WORDS, k=rng.randint(2, 8)))
        k = rng.randint(1, 10)
        expected = brute_force_ranking(index, query)[:k]
        hits = index.search(query, k=k)
        assert [h.chunk_id for h in hits] == [cid for cid, _ in expected]
        for hit, (_, score) in zip(hits, expected):
            assert hit.score == pytest.approx(score, abs=1e-9)


def test_tie_break_by_ascending_chunk_id():
    # identical texts embed identically, forcing exact score ties
    chunks = [make_chunk(i, "identical text") for i in (3, 1, 2)]
    index = build_index(chunks, HashingEmbedder())
    hits = index.search("identical text", k=3)
    assert [h.chunk_id for h in hits] == ["c0001", "c0002", "c0003"]


def test_ties_beyond_k_return_lowest_chunk_ids():
    # five rows tie at the k-th score, below one strictly better row
    copies = [make_chunk(i, "river stone castle meadow") for i in (7, 2, 9, 4, 5)]
    others = [make_chunk(1, "river stone"), make_chunk(3, "falcon ember harbor"), make_chunk(8, "quill anchor")]
    index = build_index(copies + others, HashingEmbedder())
    assert [h.chunk_id for h in index.search("river stone castle meadow", k=2)] == ["c0002", "c0004"]
    hits = index.search("river stone", k=3)
    assert [h.chunk_id for h in hits] == ["c0001", "c0002", "c0004"]
    expected = brute_force_ranking(index, "river stone")[:3]
    assert [(h.chunk_id, h.score) for h in hits] == expected


class UnusedProvider:
    """Stands in for an embedder in indexes searched only by vector."""

    provider_id = "unused"

    def __init__(self, dim: int):
        self.dim = dim

    def embed_batch(self, texts):
        raise AssertionError("searched by vector, nothing to embed")


def planted_rows(rng: np.random.Generator, n: int, dim: int, q: np.ndarray) -> np.ndarray:
    """Random non-unit float32 rows: a cluster of near-ties close to the
    query's direction (inside the float32 candidate margin of each other),
    exact duplicates of cluster rows, and plain noise rows."""
    rows = rng.standard_normal((n, dim)) * rng.uniform(0.1, 10.0, size=(n, 1))
    cluster = rng.choice(n, size=max(2, n // 3), replace=False)
    base = q / np.linalg.norm(q) * rng.uniform(1.0, 2.0) + 0.05 * rng.standard_normal(dim)
    for i in cluster:
        rows[i] = base + 1e-6 * rng.standard_normal(dim)
    for i, j in rng.choice(n, size=(max(1, n // 6), 2)):
        rows[j] = rows[i]
    return rows.astype(np.float32)


def exact_scores(rows: np.ndarray, q: np.ndarray) -> list[Fraction]:
    qf = [Fraction(float(x)) for x in q]
    return [sum((Fraction(float(x)) * y for x, y in zip(row, qf)), Fraction(0)) for row in rows]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    dim=st.sampled_from([2, 7, 64, 256]),
    query_dtype=st.sampled_from([np.float32, np.float64]),
)
def test_search_matches_float64_oracle_with_planted_near_ties(seed, n, dim, query_dtype):
    rng = np.random.default_rng(seed)
    q = (rng.standard_normal(dim) * rng.uniform(0.1, 10.0)).astype(query_dtype)
    rows = planted_rows(rng, n, dim, q.astype(np.float64))
    ids = [f"c{i:03d}" for i in rng.permutation(n)]
    index = Index(ids, rows, UnusedProvider(dim))
    exact = exact_scores(rows, q)
    ranked = sorted(range(n), key=lambda i: (-exact[i], ids[i]))
    for k in sorted({1, 2, n - 1, n, n + 3} - {0}):
        (hits,) = index._top_k(q[None], k)
        assert [cid for cid, _ in hits] == [ids[i] for i in ranked[:k]]
        for (_, score), i in zip(hits, ranked):
            assert abs(score - float(exact[i])) <= 1e-12 * max(1.0, abs(float(exact[i])))


def test_rescored_score_does_not_depend_on_the_other_candidates():
    rng = np.random.default_rng(11)
    n, dim = 37, 256
    q = rng.standard_normal(dim)
    rows = planted_rows(rng, n, dim, q)
    ids = [f"c{i:03d}" for i in range(n)]
    seen: dict[str, float] = {}
    for trial in range(30):
        # each trial reorders the rows, so every chunk sits at other row
        # positions among other candidate sets
        perm = rng.permutation(n)
        index = Index([ids[i] for i in perm], rows[perm], UnusedProvider(dim))
        for k in (1, 2, 3, 5, 8, 13, 21, n):
            for cid, score in index._top_k(q[None], k)[0]:
                assert seen.setdefault(cid, score) == score, (trial, k, cid)
    assert len(seen) == n


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    m=st.integers(1, 8),
    dim=st.sampled_from([2, 7, 64, 256]),
    query_dtype=st.sampled_from([np.float32, np.float64]),
    block_scores=st.sampled_from([1, 7, 64, embed_index._BLOCK_SCORES]),
)
def test_top_k_of_a_query_block_matches_each_query_searched_alone(seed, n, m, dim, query_dtype, block_scores):
    rng = np.random.default_rng(seed)
    queries = (rng.standard_normal((m, dim)) * rng.uniform(0.1, 10.0, size=(m, 1))).astype(query_dtype)
    # Row i comes from query i % m's planted rows, so every query meets near
    # ties; then each query's best row is copied over another row, so its
    # k = 1 boundary can be an exact tie.
    planted = [planted_rows(rng, n, dim, q.astype(np.float64)) for q in queries]
    rows = np.stack([planted[i % m][i] for i in range(n)])
    for q in queries:
        rows[rng.integers(n)] = rows[int(np.argmax(rows.astype(np.float64) @ q.astype(np.float64)))]
    ids = [f"c{i:03d}" for i in rng.permutation(n)]
    index = Index(ids, rows, UnusedProvider(dim))
    exact = [exact_scores(rows, q) for q in queries]
    for k in (1, n - 1, n, n + 3):
        # Small blocks split the rows over several products.
        with mock.patch.object(embed_index, "_BLOCK_SCORES", block_scores):
            block = index._top_k(queries, k)
        assert len(block) == m
        for q, scores, ranked in zip(queries, exact, block):
            assert ranked == index._top_k(q[None], k)[0]
            expected = sorted(range(n), key=lambda i: (-scores[i], ids[i]))[:k]
            assert [cid for cid, _ in ranked] == [ids[i] for i in expected]
            for (_, score), i in zip(ranked, expected):
                assert abs(score - float(scores[i])) <= 1e-12 * max(1.0, abs(float(scores[i])))


def test_top_k_rejects_a_query_block_of_the_wrong_dim():
    index = Index(["a", "b", "c"], np.eye(3, dtype=np.float32), UnusedProvider(3))
    with pytest.raises(EmbedIndexError, match="query dim 4 does not match index dim 3"):
        index._top_k(np.ones((2, 4)), k=1)


def test_index_holds_only_the_float32_rows(tmp_path):
    chunks = soup_corpus(30, random.Random(5))
    provider = HashingEmbedder()
    index = build_index(chunks, provider)
    index.save(tmp_path / "index.bin")
    for idx in (index, Index.load(tmp_path / "index.bin", provider)):
        arrays = [v for v in vars(idx).values() if isinstance(v, np.ndarray)]
        assert [(a.dtype, a.shape) for a in arrays] == [(np.dtype(np.float32), (30, 256))]
        assert idx.vector(chunks[3].chunk_id).dtype == np.float32


# --- persistence -----------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    rng = random.Random(7)
    chunks = soup_corpus(30, rng)
    provider = HashingEmbedder()
    index = build_index(chunks, provider)
    path = tmp_path / "index.bin"
    index.save(path)
    reloaded = Index.load(path, provider)

    again = tmp_path / "index2.bin"
    reloaded.save(again)
    assert path.read_bytes() == again.read_bytes()

    for _ in range(100):
        query = " ".join(rng.choices(WORDS, k=rng.randint(1, 6)))
        assert index.search(query, k=5) == reloaded.search(query, k=5)


def test_load_rejects_provider_mismatch(tmp_path):
    index = build_index(soup_corpus(5, random.Random(3)), HashingEmbedder(dim=64))
    path = tmp_path / "index.bin"
    index.save(path)
    with pytest.raises(EmbedIndexError):
        Index.load(path, HashingEmbedder(dim=128))


def test_load_rejects_non_index_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not an index at all")
    with pytest.raises(EmbedIndexError):
        Index.load(path, HashingEmbedder())


def test_sidecar_manifest_written(tmp_path):
    index = build_index(soup_corpus(5, random.Random(4)), HashingEmbedder())
    path = tmp_path / "index.bin"
    index.save(path)
    sidecar = tmp_path / "index.bin.manifest.jsonl"
    assert sidecar.exists()
    lines = sidecar.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + len(index)


def test_sidecar_rows_are_json_dumps_of_each_id(tmp_path):
    ids = ["plain:0", 'quote"back\\slash', "tab\tnew\nline\x00", "é東😀", "\u2028\u2029\x7f"]
    index = Index(ids, np.eye(len(ids), dtype=np.float32), UnusedProvider(len(ids)))
    index.save(tmp_path / "index.bin")
    rows = (tmp_path / "index.bin.manifest.jsonl").read_bytes().split(b"\n")[1:]
    expected = [json.dumps({"row": i, "chunk_id": cid}, ensure_ascii=False) for i, cid in enumerate(ids)]
    assert rows == [row.encode("utf-8") for row in expected] + [b""]


@pytest.mark.parametrize("id_chars", [4, 5, 6, 7])
def test_load_reads_rows_aligned_whatever_the_id_table_length(tmp_path, id_chars):
    # The id table's length mod 4 decides where the vector block starts.
    ids = ["x" * id_chars, "é" * id_chars, "a"]
    rows = np.random.default_rng(id_chars).standard_normal((3, 8)).astype(np.float32)
    Index(ids, rows, UnusedProvider(8)).save(tmp_path / "index.bin")
    loaded = Index.load(tmp_path / "index.bin", UnusedProvider(8))
    assert loaded.ids == ids
    assert loaded._matrix.flags.aligned and loaded._matrix.flags.c_contiguous
    assert not loaded._matrix.flags.writeable
    assert np.array_equal(loaded._matrix, rows)


def test_load_rejects_bytes_after_the_vector_block(tmp_path):
    path = tmp_path / "index.bin"
    Index(["a", "b"], np.eye(2, dtype=np.float32), UnusedProvider(2)).save(path)
    path.write_bytes(path.read_bytes() + b"\0\0\0")
    with pytest.raises(EmbedIndexError, match="3 bytes follow the vector block"):
        Index.load(path, UnusedProvider(2))


# --- multi-query retrieval ----------------------------------------------------------


def cluster_corpus() -> list[Chunk]:
    schools = [f"The {w} university football team plays in the {w} conference stadium." for w in WORDS[:6]]
    recipes = [f"A recipe for {w} soup with garlic, onion and fresh {w} herbs." for w in WORDS[24:30]]
    return [make_chunk(i, text) for i, text in enumerate(schools + recipes)]


def triple_union(index, triples, k_per_triple=5):
    """The union of chunk ids retrieved with one query per triple."""
    return retrieve_for_queries(index, [triple_query(t) for t in triples], k_per_query=k_per_triple)[0]


def test_disjoint_triples_union_is_concatenation():
    index = build_index(cluster_corpus(), HashingEmbedder())
    t_school = ReasoningTriple("river", "university_football", "conference stadium")
    t_recipe = ReasoningTriple("saffron", "soup_recipe", "garlic onion herbs")
    per_school = [h.chunk_id for h in index.search(triple_query(t_school), k=5)]
    per_recipe = [h.chunk_id for h in index.search(triple_query(t_recipe), k=5)]
    assert not set(per_school) & set(per_recipe)  # engineered disjoint
    union = triple_union(index, [t_school, t_recipe], k_per_triple=5)
    assert union == per_school + per_recipe
    assert len(union) == 10


def test_shared_hit_kept_at_first_occurrence():
    index = build_index(cluster_corpus(), HashingEmbedder())
    t1 = ReasoningTriple("river", "plays_in", "conference")
    t2 = ReasoningTriple("river university", "home_stadium", "conference stadium")
    first = [h.chunk_id for h in index.search(triple_query(t1), k=5)]
    second = [h.chunk_id for h in index.search(triple_query(t2), k=5)]
    shared = set(first) & set(second)
    assert shared  # engineered overlap
    union = triple_union(index, [t1, t2], k_per_triple=5)
    assert len(union) == len(set(union))
    for cid in shared:
        assert union.index(cid) == first.index(cid)


def test_union_matches_brute_force_oracle():
    rng = random.Random(11)
    chunks = soup_corpus(12, rng)
    index = build_index(chunks, HashingEmbedder())
    triples = [
        ReasoningTriple("river stone", "found_in", "canyon"),
        ReasoningTriple("falcon", "nests_on", "summit cedar"),
        ReasoningTriple("lagoon", "reflects", "violet orchid"),
    ]
    expected: list[str] = []
    for t in triples:
        for cid, _ in brute_force_ranking(index, triple_query(t))[:5]:
            if cid not in expected:
                expected.append(cid)
    assert triple_union(index, triples, k_per_triple=5) == expected


def test_union_idempotent_under_repeated_triples():
    index = build_index(soup_corpus(15, random.Random(5)), HashingEmbedder())
    triples = [ReasoningTriple("ember", "lights", "lantern"), ReasoningTriple("dune", "borders", "lagoon")]
    assert triple_union(index, triples + triples) == triple_union(index, triples)


def test_union_monotonic_in_k():
    index = build_index(soup_corpus(25, random.Random(6)), HashingEmbedder())
    triples = [ReasoningTriple("quartz", "veined_with", "jasper"), ReasoningTriple("prairie", "meets", "tundra")]
    previous: set[str] = set()
    for k in (1, 2, 3, 5, 8):
        current = set(triple_union(index, triples, k_per_triple=k))
        assert previous <= current
        previous = current


def test_retrieve_for_queries_tags_query_index():
    index = build_index(soup_corpus(8, random.Random(8)), HashingEmbedder())
    _, hits = retrieve_for_queries(index, ["river stone", "orchid nectar"], k_per_query=3)
    assert [h.query_index for h in hits] == [0, 0, 0, 1, 1, 1]


class CountingEmbedder(HashingEmbedder):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def embed_batch(self, texts):
        self.calls += 1
        return super().embed_batch(texts)


def test_retrieve_for_queries_embeds_once_and_matches_search():
    provider = CountingEmbedder()
    index = build_index(soup_corpus(40, random.Random(12)), provider)
    queries = ["river stone", "orchid nectar lagoon", "falcon plays_for summit", "quartz"]
    provider.calls = 0
    union, hits = retrieve_for_queries(index, queries, k_per_query=4)
    assert provider.calls == 1
    expected = [
        RetrievalHit(h.chunk_id, h.score, qi) for qi, q in enumerate(queries) for h in index.search(q, k=4)
    ]
    assert hits == expected
    assert union == list(dict.fromkeys(h.chunk_id for h in expected))


@pytest.mark.parametrize(
    ("queries", "k", "message"),
    [
        (["river", ""], 3, "empty query string"),
        (["", "river"], 0, "empty query string"),
        (["river", "stone"], 0, "k must be >= 1"),
    ],
)
def test_retrieve_for_queries_rejects_bad_inputs(queries, k, message):
    provider = CountingEmbedder()
    index = build_index(soup_corpus(6, random.Random(13)), provider)
    provider.calls = 0
    with pytest.raises(EmbedIndexError, match=message):
        retrieve_for_queries(index, queries, k_per_query=k)
    assert provider.calls == 0


def test_search_rejects_query_dim_mismatch():
    chunks = soup_corpus(3, random.Random(14))
    vectors = embed([c.text for c in chunks], HashingEmbedder(dim=32))
    index = Index([c.chunk_id for c in chunks], vectors, HashingEmbedder(dim=64))
    with pytest.raises(EmbedIndexError, match="query dim 64 does not match index dim 32"):
        index.search("river", k=2)
    with pytest.raises(EmbedIndexError, match="query dim 64 does not match index dim 32"):
        retrieve_for_queries(index, ["river", "stone"])


def test_triple_query_styles():
    t = ReasoningTriple("Modric", "plays_for", "AC Milan")
    assert triple_query(t) == "Modric plays_for AC Milan"


def test_empty_triples_rejected():
    index = build_index(soup_corpus(3, random.Random(9)), HashingEmbedder())
    with pytest.raises(EmbedIndexError):
        triple_union(index, [])


# --- remote embeddings endpoint ------------------------------------------------


def length_rows(payload):
    """Deterministic 4-d rows keyed by text length, listed out of order."""
    data = [{"index": i, "embedding": [float(len(text)), 1.0, 0.0, 0.0]} for i, text in enumerate(payload["input"])]
    return reply(body={"data": data[::-1], "model": payload["model"]})


def test_remote_embedder_round_trip(loopback):
    loopback.routes["/embeddings"] = length_rows
    provider = RemoteEmbedder(base_url=loopback.url, model="embed-model", api_key="k", batch_size=2)
    vectors = embed(["ab", "abcd", "a"], provider)
    assert provider.dim == 4
    assert vectors.shape == (3, 4)
    # order restored from the shuffled response, rows unit-normalized
    assert vectors[0][0] > vectors[2][0]
    norms = np.linalg.norm(vectors.astype(np.float64), axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-6)
    assert [len(payload["input"]) for _, payload in loopback.seen] == [2, 1]
    assert loopback.seen[0][1]["model"] == "embed-model"


def test_remote_embedder_dim_mismatch(loopback):
    loopback.routes["/embeddings"] = length_rows
    provider = RemoteEmbedder(base_url=loopback.url, model="m", dim=8)
    with pytest.raises(EmbedIndexError):
        provider.embed_batch(["text"])


def test_remote_embedder_reuses_one_connection(loopback):
    loopback.routes["/embeddings"] = length_rows
    provider = RemoteEmbedder(base_url=loopback.url, model="m", batch_size=2)
    for i in range(4):
        assert embed(["ab", "abcd", "a" * (i + 1)], provider).shape == (3, 4)
    assert (len(loopback.seen), loopback.connections) == (8, 1)


def test_remote_embedder_transport_failure(monkeypatch):
    napped = []
    monkeypatch.setattr(time, "sleep", napped.append)
    provider = RemoteEmbedder(base_url="http://127.0.0.1:9", model="m", timeout_s=0.2)
    with pytest.raises(EmbedIndexError):
        provider.embed_batch(["text"])
    assert napped == [0.5, 1.0]  # retried like a chat call


def test_remote_embedder_retries_server_errors_and_rate_limits(loopback, monkeypatch):
    napped = []
    monkeypatch.setattr(time, "sleep", napped.append)
    loopback.queued["/embeddings"] += [reply(503, b"busy"), reply(429, {"error": "slow"}, Retry_After="2")]
    vectors = embed(["ab", "abcd"], RemoteEmbedder(base_url=loopback.url, model="m", api_key="k"))
    assert vectors.shape == (2, 16)
    assert napped == [0.5, 2.0]
    assert len(loopback.seen) == 3 and loopback.auth == ["Bearer k"] * 3


@pytest.mark.parametrize(
    "body",
    [
        {},
        b"not json",
        {"data": [{"index": 0}]},
        {"data": [{"embedding": [1.0, 0.0]}]},
        {"data": [{"index": 0, "embedding": [1.0, "x"]}]},
        {"data": [{"index": 0, "embedding": [1.0, 0.0]}, {"index": 1, "embedding": [1.0]}]},
        {"data": []},
        {"data": [{"index": 0, "embedding": [1.0, 0.0]}]},
        {"data": [{"index": 0, "embedding": [1.0, 0.0]}, {"index": 0, "embedding": [0.0, 1.0]}]},
        {"data": [{"index": False, "embedding": [1.0, 0.0]}, {"index": True, "embedding": [0.0, 1.0]}]},
        {"data": [{"index": 0.0, "embedding": [1.0, 0.0]}, {"index": 1.0, "embedding": [0.0, 1.0]}]},
    ],
    ids=["empty_object", "not_json", "no_embedding", "no_index", "not_numeric", "ragged", "no_rows", "too_few_rows",
         "repeated_index", "bool_index", "float_index"],
)
def test_remote_embedder_malformed_reply_is_embed_index_error(loopback, body):
    loopback.routes["/embeddings"] = lambda payload: reply(body=body)
    with pytest.raises(EmbedIndexError):
        embed(["one", "two"], RemoteEmbedder(base_url=loopback.url, model="m"))
    assert len(loopback.seen) == 1  # not retried


def embeddings_body(rows) -> dict:
    return {"data": [{"index": i, "embedding": row} for i, row in enumerate(rows)]}


def test_remote_embedder_refuses_replies_that_shift_rows_between_batches(loopback):
    # 4 texts in batches of 2: one row short, then one row long. The total is
    # right, so only a per-reply check sees that rows belong to other texts.
    rows = HashingEmbedder(dim=16).embed_batch(["a b", "c d", "e f", "g h"]).tolist()
    loopback.queued["/embeddings"] += [reply(body=embeddings_body(rows[:1])), reply(body=embeddings_body(rows[1:]))]
    with pytest.raises(EmbedIndexError, match="1 rows for 2 texts"):
        embed(["a b", "c d", "e f", "g h"], RemoteEmbedder(base_url=loopback.url, model="m", batch_size=2))
    assert len(loopback.seen) == 1  # refused before the next post


def test_remote_embedder_holds_one_reply_at_a_time(loopback):
    # 2000 texts at dim 256 in 16 batches of 128. Every reply is built before
    # tracing starts, so the peak shows what the client holds: the float32
    # output plus the decode of one reply (under 7 replies' JSON size here),
    # not every row of every reply as Python floats (about 70 at the parent).
    texts = [f"passage {i} about topic {i % 97} and entity {i * 7 % 131}" for i in range(2000)]
    rows = HashingEmbedder(dim=256).embed_batch(texts)
    replies = {
        texts[i]: reply(body=embeddings_body(rows[i : i + 128].tolist())) for i in range(0, len(texts), 128)
    }
    reply_bytes = max(len(raw) for _, _, raw in replies.values())
    loopback.routes["/embeddings"] = lambda payload: replies[payload["input"][0]]
    provider = RemoteEmbedder(base_url=loopback.url, model="m", batch_size=128)
    embed(texts[:128], provider)  # opens the connection and sets the dim outside the traced call
    tracemalloc.start()
    try:
        vectors = embed(texts, provider)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(vectors, rows, atol=1e-6)
    assert peak < vectors.nbytes + 8 * reply_bytes, f"peak {peak} bytes for a {vectors.nbytes}-byte output"


# --- overlapped /embeddings requests ---------------------------------------------


def wait_for_thread_count(count: int, timeout_s: float = 10.0) -> int:
    deadline = time.monotonic() + timeout_s
    while threading.active_count() != count and time.monotonic() < deadline:
        time.sleep(0.02)
    return threading.active_count()


def test_remote_embedder_overlapped_rows_equal_the_sequential_path(loopback):
    # 11 texts in batches of 2: six batches, the last one short. Every reply
    # lists its rows in shuffled order, and two rows are all zeros.
    rng = np.random.default_rng(3)
    texts = [f"text {i}" for i in range(11)]
    rows = rng.standard_normal((11, 7)) * rng.uniform(0.1, 50.0, size=(11, 1))
    rows[[2, 9]] = 0.0
    replies = {}
    for start in range(0, 11, 2):
        data = [{"index": i, "embedding": row.tolist()} for i, row in enumerate(rows[start : start + 2])]
        random.Random(start).shuffle(data)
        replies[texts[start]] = reply(body={"data": data})
    loopback.routes["/embeddings"] = lambda payload: replies[payload["input"][0]]

    provider = RemoteEmbedder(base_url=loopback.url, model="m", batch_size=2)
    overlapped = provider.embed_batch(texts)
    assert provider.dim == 7  # found from the first reply
    sequential = np.concatenate([
        RemoteEmbedder(base_url=loopback.url, model="m", batch_size=2).embed_batch(texts[i : i + 2])
        for i in range(0, 11, 2)
    ])
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    reference = (rows / np.where(norms == 0.0, 1.0, norms)).astype(np.float32)
    assert overlapped.dtype == np.float32 and overlapped.shape == (11, 7)
    assert overlapped.tobytes() == sequential.tobytes() == reference.tobytes()
    assert not overlapped[[2, 9]].any()
    # Two connections: after the first batch, requests arrive in either order.
    firsts = [payload["input"][0] for _, payload in loopback.seen[:6]]
    assert firsts[0] == texts[0] and sorted(firsts) == sorted(texts[::2])
    assert provider.embed_batch([]).shape == (0, 7)


def test_remote_embedder_serves_two_batches_while_a_reply_is_decoded(loopback, monkeypatch):
    # Eight batches of 2. While reply i (i >= 1) is decoded, batch i + 2 must
    # reach the endpoint; nothing beyond it may. Reply 0 is decoded alone.
    texts = [f"text {i}" for i in range(16)]
    firsts = texts[::2]
    arrived = {first: threading.Event() for first in firsts}

    def route(payload):
        arrived[payload["input"][0]].set()
        return embeddings_reply(payload)

    loopback.routes["/embeddings"] = route
    caller, original = threading.get_ident(), embed_index._decode_embeddings
    decodes = []  # per reply: (on the calling thread, batch i + 2 came in time, batches seen beyond it)

    def decode(body, n):
        i = len(decodes)
        came = arrived[firsts[i + 2]].wait(1.0) if 1 <= i < len(firsts) - 2 else True
        block = original(body, n)
        ahead = firsts[i + 3 :] if i else firsts[1:]
        decodes.append((threading.get_ident() == caller, came, [f for f in ahead if arrived[f].is_set()]))
        return block

    monkeypatch.setattr(embed_index, "_decode_embeddings", decode)
    overlapped = RemoteEmbedder(base_url=loopback.url, model="m", batch_size=2).embed_batch(texts)
    assert decodes == [(True, True, [])] * len(firsts)
    # Each batch posted once; nothing after the last.
    assert sorted(payload["input"][0] for _, payload in loopback.seen) == sorted(firsts)
    sequential = np.concatenate([
        RemoteEmbedder(base_url=loopback.url, model="m", batch_size=2).embed_batch(texts[i : i + 2])
        for i in range(0, 16, 2)
    ])
    assert overlapped.tobytes() == sequential.tobytes()


def test_remote_embedder_posts_nothing_more_after_a_bad_first_reply(loopback):
    loopback.routes["/embeddings"] = lambda payload: reply(body={"data": []})
    with pytest.raises(EmbedIndexError, match="0 rows for 2 texts"):
        RemoteEmbedder(base_url=loopback.url, model="m", batch_size=2).embed_batch([f"t{i}" for i in range(12)])
    assert len(loopback.seen) == 1


def test_remote_embedder_stops_after_a_failed_batch_without_waiting(loopback):
    # Six batches of 2. Batch 4 is refused; batch 5, already in flight when
    # batch 4's reply is read, stalls for 3 s; batch 6 is never sent.
    texts = [f"t{i}" for i in range(12)]
    firsts = texts[::2]

    def route(payload):
        first = payload["input"][0]
        if first == firsts[3]:
            return reply(400, {"error": "bad input"})
        if first == firsts[4]:
            time.sleep(3.0)
        return embeddings_reply(payload)

    loopback.routes["/embeddings"] = route
    provider = RemoteEmbedder(base_url=loopback.url, model="m", batch_size=2)
    provider.embed_batch(texts[:1])  # the calling thread's connection, kept open
    threads = threading.active_count()
    started = time.monotonic()
    with pytest.raises(EmbedIndexError, match="HTTP 400"):
        provider.embed_batch(texts)
    assert time.monotonic() - started < 1.0
    assert wait_for_thread_count(threads) == threads
    assert sorted(payload["input"][0] for _, payload in loopback.seen[1:]) == firsts[:5]


def test_remote_embedder_starts_no_retry_after_a_failed_batch(loopback):
    # Batch 2 is refused while batch 3, in flight beside it, is asked to come
    # back in 30 s: the fetch thread drops that retry instead of waiting.
    texts = [f"t{i}" for i in range(12)]

    def route(payload):
        first = payload["input"][0]
        if first == texts[2]:
            return reply(400, {"error": "bad input"})
        if first == texts[4]:
            return reply(503, b"busy", Retry_After="30")
        return embeddings_reply(payload)

    loopback.routes["/embeddings"] = route
    provider = RemoteEmbedder(base_url=loopback.url, model="m", batch_size=2)
    provider.embed_batch(texts[:1])
    threads = threading.active_count()
    with pytest.raises(EmbedIndexError, match="HTTP 400"):
        provider.embed_batch(texts)
    assert wait_for_thread_count(threads, timeout_s=5.0) == threads
    assert sorted(payload["input"][0] for _, payload in loopback.seen[1:]) == texts[0:6:2]


def test_remote_embedder_overlapped_rows_under_frequent_thread_switches(loopback):
    texts = [f"text {i}" for i in range(99)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        vectors = RemoteEmbedder(base_url=loopback.url, model="m", batch_size=2).embed_batch(texts)
    finally:
        sys.setswitchinterval(interval)
    assert vectors.tobytes() == HashingEmbedder(dim=16).embed_batch(texts).tobytes()
    assert sorted(payload["input"][0] for _, payload in loopback.seen) == sorted(texts[::2])


def test_remote_embedder_retries_a_cut_off_reply_on_a_fetch_thread(loopback):
    texts = [f"t{i}" for i in range(12)]
    cut_once = [texts[6]]

    def route(payload):
        if payload["input"][0] in cut_once:
            cut_once.clear()
            return cut_off(reply(body={"data": []}))
        return embeddings_reply(payload)

    loopback.routes["/embeddings"] = route
    vectors = embed(texts, RemoteEmbedder(base_url=loopback.url, model="m", batch_size=2))
    assert vectors.tobytes() == HashingEmbedder(dim=16).embed_batch(texts).tobytes()
    assert [payload["input"][0] for _, payload in loopback.seen].count(texts[6]) == 2


def test_remote_embedder_cut_off_reply_is_retried_then_an_error(loopback, monkeypatch):
    napped = []
    monkeypatch.setattr(time, "sleep", napped.append)
    loopback.queued["/embeddings"].append(cut_off(reply(body={"data": []})))
    vectors = embed(["ab", "abcd"], RemoteEmbedder(base_url=loopback.url, model="m"))
    assert vectors.shape == (2, 16) and napped == [0.5]
    loopback.routes["/embeddings"] = lambda payload: cut_off(reply(body={"data": []}))
    with pytest.raises(EmbedIndexError, match="embedding request failed: .*IncompleteRead"):
        embed(["ab", "abcd"], RemoteEmbedder(base_url=loopback.url, model="m"))
    assert napped == [0.5, 0.5, 1.0] and len(loopback.seen) == 5


class ShortEmbedder:
    """Returns one row whatever it is asked to embed."""

    provider_id = "short"
    dim = 32

    def embed_batch(self, texts):
        return HashingEmbedder(dim=32).embed_batch(texts[:1])


def test_embed_checks_one_row_per_text():
    with pytest.raises(EmbedIndexError, match="1 rows for 3 texts"):
        embed(["a b c", "d e f", "g h i"], ShortEmbedder())
    index = build_index([make_chunk(i, t) for i, t in enumerate(["alpha beta", "gamma delta"])], HashingEmbedder(dim=32))
    index.provider = ShortEmbedder()
    with pytest.raises(EmbedIndexError, match="1 rows for 3 texts"):
        retrieve_for_queries(index, ["alpha", "gamma", "beta"], k_per_query=1)


@settings(max_examples=40, deadline=None)
@given(
    texts=st.lists(
        st.text(alphabet="abcdefghij ", min_size=1, max_size=40).filter(lambda s: s.strip()),
        min_size=1,
        max_size=12,
        unique=True,
    ),
    query=st.text(alphabet="abcdefghij ", min_size=1, max_size=20).filter(lambda s: s.strip()),
)
def test_scores_bounded(texts, query):
    chunks = [make_chunk(i, t) for i, t in enumerate(texts)]
    index = build_index(chunks, HashingEmbedder(dim=32))
    for hit in index.search(query, k=len(chunks)):
        assert -1.0 - 1e-6 <= hit.score <= 1.0 + 1e-6


def test_bench_retrieval_script_smoke(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    script = repo / "scripts" / "bench_retrieval.py"
    # A copy of the package outside the repo, and no PYTHONPATH: the script
    # can import anchor_rag only from the tree --src names.
    tree = tmp_path / "tree"
    shutil.copytree(repo / "src" / "anchor_rag", tree / "anchor_rag", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = tmp_path / "BENCH_retrieval.json"
    args = ["--sizes", "50", "--queries", "4", "--embed-texts", "2", "--embed-repeats", "1", "--out", str(out)]
    subprocess.run([sys.executable, str(script), *args, "--label", "smoke", "--src", str(tree)], check=True,
                   capture_output=True, timeout=120, env=env, cwd=tmp_path)
    run = json.loads(out.read_text(encoding="utf-8"))["runs"]["smoke"]
    assert run["machine"]["cores"] >= 1
    assert run["index"]["50"]["search"]["samples"] == 4
    assert run["index"]["50"]["retrieve_4_queries"]["samples"] == 1
    assert run["hashing_embed_per_chunk"]["400_tokens"]["median_ms"] > 0
    block = run["index"]["50"]["standard_rag_block_per_question"]
    assert block["questions"] == 2**15 // 50 and block["samples"] == 4 and block["median_ms"] > 0
    triples = run["index"]["50"]["triple_block_per_question"]
    assert triples["questions"] == 2**15 // 50 and triples["queries"] == 4 * triples["questions"]
    assert triples["samples"] == 1 and triples["median_ms"] > 0
    assert run["hashing_embed_build_batch"]["texts"] == 3000
    assert run["hashing_embed_build_batch"]["samples"] == 1 and run["hashing_embed_build_batch"]["median_ms"] > 0
    assert run["index"]["50"]["matrix_bytes"] == 50 * 256 * 4
    assert run["tokenizer"]["chunk_document"]["chunks"] == 9
    assert run["tokenizer"]["count_standard_rag_prompt"]["tokens"] > 5 * 400
    assert run["tokenizer_unicode"]["chunk_document"]["chunks"] == 9
    assert run["tokenizer_unicode"]["count_standard_rag_prompt"]["tokens"] > 5 * 400
    assert run["tokenizer_unicode"]["count_standard_rag_prompt"]["median_ms"] > 0
