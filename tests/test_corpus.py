import json
import random
import re
import sys
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchor_rag import corpus
from anchor_rag.corpus import (
    CorpusError,
    Document,
    QAItem,
    WordPunctTokenizer,
    build_corpus,
    chunk_document,
    load_dataset,
    read_chunk_manifest,
    read_question_file,
    sample_questions,
    write_chunk_manifest,
    write_question_file,
)
from anchor_rag.embed_index import HashingEmbedder, build_index

TOK = WordPunctTokenizer()


def make_doc(n_tokens: int, doc_id: str = "doc") -> Document:
    return Document(doc_id=doc_id, title="T", text=" ".join(f"w{i}" for i in range(n_tokens)))


# --- tokenizer ---------------------------------------------------------------


def token_texts(text: str) -> list[str]:
    return [text[s:e] for s, e in zip(*TOK.spans(text))]


def test_tokenizer_splits_words_and_punctuation():
    starts, ends = TOK.spans("Hello, world!")
    assert token_texts("Hello, world!") == ["Hello", ",", "world", "!"]
    assert starts[0] == 0 and ends[0] == 5


def test_tokenizer_count_matches_tokenize():
    text = "Justin Lewis Bannan (born April 18, 1979) is a former American football defensive tackle."
    assert TOK.count(text) == len(token_texts(text)) == 18


# Characters whose token class is easy to get wrong: information separators,
# line and paragraph separators and the no-break space are whitespace (\s);
# underscore is a word character; combining marks and the zero-width space
# are neither, so each is a token of its own.
TRICKY = "\x1c\x1d\x1e\x1f\u2028\u2029\u00a0\u0085_\u0301\u0308\u200b\u3000 \t\n.,-'a1é"
UNICODE_TEXT = st.text(alphabet=st.one_of(st.characters(), st.sampled_from(TRICKY)), max_size=300)


def reference_spans(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in re.finditer(r"\w+|[^\w\s]", text)]


@settings(max_examples=300, deadline=None)
@given(text=UNICODE_TEXT)
@example(text="a\x1cb\u2028c\u00a0d_e\u0301 \u0308!")
@example(text="")
def test_count_and_spans_match_token_enumeration(text):
    expected = reference_spans(text)
    assert TOK.count(text) == len(expected)
    starts, ends = TOK.spans(text)
    assert list(zip(starts, ends)) == expected


@settings(max_examples=100, deadline=None)
@given(text=UNICODE_TEXT, chunk_size=st.integers(2, 12), stride=st.integers(0, 1))
def test_chunk_offsets_match_token_enumeration(text, chunk_size, stride):
    expected = reference_spans(text)
    doc = Document(doc_id="d", title="T", text=text or "x")
    if not expected and text:
        with pytest.raises(CorpusError):
            chunk_document(doc, chunk_size=chunk_size, stride=stride)
        return
    expected = expected or [(0, 1)]
    for c in chunk_document(doc, chunk_size=chunk_size, stride=stride):
        assert (c.start_char, c.end_char) == (expected[c.start_token][0], expected[c.end_token - 1][1])
        assert c.text == doc.text[c.start_char : c.end_char]
    assert c.end_token == len(expected)


def test_every_code_point_matches_token_enumeration(monkeypatch):
    # st.characters() never draws a lone surrogate, so only this test checks
    # them. Each code point c is put after a word character, before and after
    # a space and a punctuation mark, and before a word character.
    monkeypatch.setattr(corpus, "_WIDE_CLASSES", {})
    step = 0x8000
    for first in range(0, 0x110000, step):
        text = "".join(f"a{c} {c}.{c}a" for c in map(chr, range(first, first + step)))
        expected = reference_spans(text)
        where = f"U+{first:04X}..U+{first + step - 1:04X}"
        assert TOK.count(text) == len(expected), f"count differs in {where}"
        if list(zip(*TOK.spans(text))) != expected:  # no pytest diff of ~100k spans
            pytest.fail(f"spans differ in {where}")
        corpus._WIDE_CLASSES.clear()  # keep the memo to one slice


def test_threads_filling_the_wide_class_memo_count_correctly(monkeypatch):
    # Every thread classifies the same fresh code points, each from its own
    # starting slice, so threads write the shared memo at the same time.
    monkeypatch.setattr(corpus, "_WIDE_CLASSES", {})
    slices = [range(start, start + 2000) for start in range(0x100, 0x20100, 2000)]
    texts = ["".join(map(chr, s)) for s in slices]
    expected = [len(re.findall(r"\w+|[^\w\s]", t)) for t in texts]
    results: dict[int, list[int]] = {}

    def count_all(i: int) -> None:
        first = i * len(texts) // 4
        counts = {k: TOK.count(texts[k]) for k in [*range(first, len(texts)), *range(first)]}
        results[i] = [counts[k] for k in range(len(texts))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=count_all, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    assert all(counts == expected for counts in results.values())


# --- chunk_document ------------------------------------------------------------


def test_short_document_single_chunk():
    chunks = chunk_document(make_doc(300))
    assert [(c.start_token, c.end_token) for c in chunks] == [(0, 300)]
    assert chunks[0].token_count == 300


def test_900_token_document_three_chunks():
    chunks = chunk_document(make_doc(900))
    assert [(c.start_token, c.end_token) for c in chunks] == [(0, 400), (350, 750), (700, 900)]


def test_500_token_document_two_chunks():
    chunks = chunk_document(make_doc(500))
    assert [(c.start_token, c.end_token) for c in chunks] == [(0, 400), (350, 500)]


def test_chunk_ids_are_deterministic():
    doc = make_doc(900, doc_id="abc")
    ids = [c.chunk_id for c in chunk_document(doc)]
    assert ids == ["abc:0", "abc:350", "abc:700"]
    assert ids == [c.chunk_id for c in chunk_document(doc)]


def test_empty_document_rejected():
    with pytest.raises(CorpusError):
        Document(doc_id="x", title="", text="")
    doc = Document(doc_id="x", title="", text="   ")
    with pytest.raises(CorpusError):
        chunk_document(doc)


def test_chunk_cut_by_another_tokenizer_rejected():
    chunk = build_corpus([make_doc(10)])[0]
    assert chunk.tokenizer_id == corpus.DEFAULT_TOKENIZER.tokenizer_id == "wordpunct-v1"
    fields = {name: getattr(chunk, name) for name in chunk.__dataclass_fields__}
    for other in ("wordpunct-v2", "", "WORDPUNCT-V1"):
        with pytest.raises(CorpusError, match=f"was cut by tokenizer {other!r}, not 'wordpunct-v1'"):
            corpus.Chunk(**{**fields, "tokenizer_id": other})


def test_bad_chunk_params_rejected():
    with pytest.raises(CorpusError):
        chunk_document(make_doc(10), chunk_size=50, stride=50)
    with pytest.raises(CorpusError):
        chunk_document(make_doc(10), chunk_size=50, stride=-1)
    # Checked before any document, so also with none.
    for chunk_size, stride in [(50, 50), (50, -1), (0, 0)]:
        with pytest.raises(CorpusError, match="need chunk_size > stride >= 0"):
            build_corpus([], chunk_size=chunk_size, stride=stride)


@settings(max_examples=60, deadline=None)
@given(
    total=st.integers(min_value=1, max_value=3000),
    chunk_size=st.integers(min_value=2, max_value=500),
    stride_frac=st.floats(min_value=0.0, max_value=0.99),
)
def test_chunking_invariants(total, chunk_size, stride_frac):
    stride = min(int(chunk_size * stride_frac), chunk_size - 1)
    doc = make_doc(total)
    chunks = chunk_document(doc, chunk_size=chunk_size, stride=stride)
    step = chunk_size - stride

    # boundary oracle: direct enumeration of window starts
    starts = [0]
    while starts[-1] + chunk_size < total:
        starts.append(starts[-1] + step)
    assert [(c.start_token, c.end_token) for c in chunks] == [
        (s, min(s + chunk_size, total)) for s in starts
    ]

    # count formula
    if total <= chunk_size:
        expected = 1
    else:
        expected = -(-(total - chunk_size) // step) + 1
    assert len(chunks) == expected

    # coverage without gaps, fixed overlap between neighbours
    covered = set()
    for c in chunks:
        assert c.token_count <= chunk_size
        covered.update(range(c.start_token, c.end_token))
    assert covered == set(range(total))
    for prev, nxt in zip(chunks, chunks[1:]):
        assert prev.end_token - nxt.start_token >= stride

    # reconstruction from non-overlapping suffixes
    tokens = token_texts(doc.text)
    rebuilt = tokens[chunks[0].start_token : chunks[0].end_token]
    for prev, nxt in zip(chunks, chunks[1:]):
        rebuilt.extend(tokens[prev.end_token : nxt.end_token])
    assert rebuilt == tokens


def test_chunk_text_slices_original_document():
    text = "Alpha beta, gamma; delta epsilon zeta eta theta."
    doc = Document(doc_id="d", title="T", text=text)
    chunks = chunk_document(doc, chunk_size=4, stride=1)
    for c in chunks:
        assert c.text == text[c.start_char : c.end_char]
        assert TOK.count(c.text) == c.token_count


# --- build_corpus ---------------------------------------------------------------


def test_build_corpus_counts():
    docs = [make_doc(300, "a"), make_doc(300, "b")]
    assert len(build_corpus(docs)) == 2
    docs = [make_doc(900, "a"), make_doc(300, "b")]
    assert len(build_corpus(docs)) == 4
    assert build_corpus([]) == []


def test_build_corpus_unique_ids():
    docs = [make_doc(900, "a"), make_doc(900, "b")]
    chunks = build_corpus(docs)
    assert len({c.chunk_id for c in chunks}) == len(chunks)


def reference_chunks(docs, chunk_size, stride):
    """Each passage's tokens enumerated alone by the regex, cut by the window rule."""
    out = []
    for doc in docs:
        spans = reference_spans(doc.text)
        start = 0
        while True:
            end = min(start + chunk_size, len(spans))
            start_char, end_char = spans[start][0], spans[end - 1][1]
            text = doc.text[start_char:end_char]
            out.append((f"{doc.doc_id}:{start}", doc.title, start, end, end - start, start_char, end_char, text))
            if end == len(spans):
                break
            start += chunk_size - stride
    return out


def chunk_rows(chunks):
    return [
        (c.chunk_id, c.title, c.start_token, c.end_token, c.token_count, c.start_char, c.end_char, c.text)
        for c in chunks
    ]


# Pieces that sit at passage, and so block, edges: whitespace the regex knows
# (U+0085, U+00A0), a zero-width space that is punctuation to it, code points
# above U+FFFF and lone surrogates of both halves.
EDGE_PIECES = ["word", "_a1", "é", " ", "  ", "\t\n", "\u0085", "\u00a0", "\u200b", ".", "(", ")", "\U0001f600",
               "\U00010400x", "\U0002070e", "\ud800", "\udc00", "\udbff\udfff"]
EDGE_PASSAGE = st.lists(st.sampled_from(EDGE_PIECES), min_size=1, max_size=30).map("".join)


@settings(max_examples=150, deadline=None)
@given(
    passages=st.lists(EDGE_PASSAGE.filter(reference_spans), min_size=1, max_size=10),
    long_passage=st.lists(st.sampled_from(EDGE_PIECES), min_size=40, max_size=120).map("".join).filter(reference_spans),
    where=st.integers(0, 10),
    block_chars=st.sampled_from([1, 8, 30, 64, 150]),
    params=st.sampled_from([(2, 0), (3, 1), (7, 2), (400, 50)]),
)
def test_build_corpus_matches_per_passage_enumeration_across_block_edges(
    passages, long_passage, where, block_chars, params
):
    passages.insert(min(where, len(passages)), long_passage)  # longer than most blocks
    docs = [Document(doc_id=f"p{i}", title=f"T{i}", text=text) for i, text in enumerate(passages)]
    chunk_size, stride = params
    with mock.patch.object(corpus, "_BLOCK_CHARS", block_chars):
        chunks = build_corpus(docs, chunk_size=chunk_size, stride=stride)
    assert chunk_rows(chunks) == reference_chunks(docs, chunk_size, stride)


def test_build_corpus_at_the_block_size_matches_per_passage_enumeration():
    # Passage lengths on both sides of the block size, one passage several
    # blocks long, the 400/50 windows, and edge pieces at every passage end.
    rng = random.Random(11)
    block = corpus._BLOCK_CHARS
    ends = EDGE_PIECES[9:]  # each holds a token
    texts = []
    for length in [5, block // 2, block - 1, block, block + 1, 3 * block + 7, 40, block // 2 + 3, 2, block - 2]:
        body = "".join(rng.choice(EDGE_PIECES) for _ in range(length))[: max(length - 2, 0)]
        texts.append(rng.choice(ends) + body + rng.choice(ends))
    docs = [Document(doc_id=f"p{i}", title="T", text=text) for i, text in enumerate(texts)]
    blocks = list(corpus._blocks(docs))
    assert max(map(len, blocks)) >= 2 and [docs[5]] in blocks
    assert chunk_rows(build_corpus(docs)) == reference_chunks(docs, 400, 50)


@pytest.mark.parametrize("block_chars", [1, 40, corpus._BLOCK_CHARS])
def test_whitespace_only_passage_mid_corpus_is_named(block_chars):
    texts = ["alpha beta.", "gamma", " \u0085\u00a0\t ", "delta", "epsilon"]
    docs = [Document(doc_id=f"p{i}", title="T", text=text) for i, text in enumerate(texts)]
    with mock.patch.object(corpus, "_BLOCK_CHARS", block_chars):
        with pytest.raises(CorpusError) as err:
            build_corpus(docs)
    assert str(err.value) == "document 'p2' has no tokens"


# --- dataset loading --------------------------------------------------------------


def write_hotpot(path, records):
    path.write_text(json.dumps(records), encoding="utf-8")


def hotpot_record(qid, question="Who?", answer="X", n_contexts=2, title_prefix="t"):
    return {
        "_id": qid,
        "question": question,
        "answer": answer,
        "context": [[f"{title_prefix}{i}", [f"Sentence one of {i}.", f"Sentence two of {i}."]] for i in range(n_contexts)],
        "supporting_facts": [[f"{title_prefix}0", 0]],
    }


def test_load_hotpot_record_with_ten_contexts(tmp_path):
    path = tmp_path / "hotpot.json"
    write_hotpot(path, [hotpot_record("q1", n_contexts=10)])
    items, docs = load_dataset(path, "hotpotqa")
    assert len(items) == 1 and len(docs) == 10
    assert items[0].dataset_tag == "hotpotqa"
    assert items[0].gold_support_titles == frozenset({"t0"})
    assert docs[0].text == "Sentence one of 0. Sentence two of 0."


def test_load_empty_context_list(tmp_path):
    path = tmp_path / "hotpot.json"
    record = hotpot_record("q1")
    record["context"] = []
    write_hotpot(path, [record])
    items, docs = load_dataset(path, "hotpotqa")
    assert len(items) == 1 and docs == []


def test_shared_passage_deduplicated(tmp_path):
    path = tmp_path / "hotpot.json"
    write_hotpot(path, [hotpot_record("q1", n_contexts=1), hotpot_record("q2", n_contexts=1)])
    items, docs = load_dataset(path, "hotpotqa")
    assert len(items) == 2 and len(docs) == 1


def test_records_missing_fields_skipped(tmp_path, caplog):
    path = tmp_path / "hotpot.json"
    bad = hotpot_record("q2")
    del bad["answer"]
    write_hotpot(path, [hotpot_record("q1"), bad])
    with caplog.at_level("WARNING"):
        items, _ = load_dataset(path, "hotpotqa")
    assert [q.question_id for q in items] == ["q1"]
    assert "skipped 1" in caplog.text


def test_load_musique_jsonl(tmp_path):
    path = tmp_path / "musique.jsonl"
    record = {
        "id": "mu1",
        "question": "Who?",
        "answer": "X",
        "paragraphs": [
            {"idx": 0, "title": "p0", "paragraph_text": "First paragraph.", "is_supporting": True},
            {"idx": 1, "title": "p1", "paragraph_text": "Second paragraph.", "is_supporting": False},
        ],
    }
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    items, docs = load_dataset(path, "musique")
    assert len(items) == 1 and len(docs) == 2
    assert items[0].gold_support_titles == frozenset({"p0"})


def test_load_2wiki_uses_hotpot_layout(tmp_path):
    path = tmp_path / "dev.json"
    write_hotpot(path, [hotpot_record("w1")])
    items, docs = load_dataset(path, "2wiki")
    assert items[0].dataset_tag == "2wiki" and len(docs) == 2


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "x.json"
    write_hotpot(path, [])
    with pytest.raises(CorpusError):
        load_dataset(path, "triviaqa")


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CorpusError):
        load_dataset(tmp_path / "nope.json", "hotpotqa")


def test_restrict_to_filters_documents(tmp_path):
    path = tmp_path / "hotpot.json"
    write_hotpot(path, [hotpot_record("q1", title_prefix="a"), hotpot_record("q2", title_prefix="b")])
    items, docs = load_dataset(path, "hotpotqa", restrict_to={"q2"})
    assert [q.question_id for q in items] == ["q2"]
    assert all(d.title.startswith("b") for d in docs)


# --- streaming ----------------------------------------------------------------------


def whole_file_records(path):
    """Reference parser: the whole file in memory, then every record at once."""
    raw = path.read_text(encoding="utf-8")
    if raw.lstrip().startswith("["):
        return json.loads(raw)
    return [json.loads(line) for line in raw.splitlines() if line.strip()]


def musique_record(qid, titles):
    return {
        "id": qid,
        "question": f"Question {qid}?",
        "answer": f"Answer {qid}",
        "paragraphs": [
            {"idx": i, "title": t, "paragraph_text": f"Text of {t}, déjà vu.", "is_supporting": i == 0}
            for i, t in enumerate(titles)
        ],
    }


STREAM_RECORDS = [
    musique_record("m1", ["a", "b"]),
    {"id": "m2", "question": "No answer?", "paragraphs": []},
    musique_record("m3", ["b", "c"]),
    musique_record("", ["d"]),
    musique_record("m5", ["a", "e"]),
]


@pytest.mark.parametrize(
    "name, fmt, body",
    [
        ("plain.jsonl", "musique", "".join(json.dumps(r) + "\n" for r in STREAM_RECORDS)),
        (
            "blank_lines.jsonl",
            "musique",
            "\n  \n" + "\n\n".join(json.dumps(r, ensure_ascii=False) for r in STREAM_RECORDS) + "\n \t\n",
        ),
        ("crlf_no_final_newline.jsonl", "musique", "\r\n".join(json.dumps(r) for r in STREAM_RECORDS)),
        ("array.json", "hotpotqa", json.dumps([hotpot_record(f"h{i}", title_prefix="abc"[i % 3]) for i in range(5)])),
        (
            "indented_array.json",
            "hotpotqa",
            " \n\t\n  " + json.dumps([hotpot_record(f"h{i}", title_prefix="ab"[i % 2]) for i in range(5)], indent=2),
        ),
    ],
    ids=["jsonl", "jsonl_blank_lines", "jsonl_crlf", "array", "array_indented"],
)
def test_streamed_load_matches_whole_file_parse(tmp_path, monkeypatch, name, fmt, body):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    assert list(corpus._iter_records(path)) == whole_file_records(path)
    streamed = load_dataset(path, fmt)
    item_docs: list = []
    restricted = load_dataset(path, fmt, restrict_to={streamed[0][-1].question_id}, item_docs=item_docs)
    monkeypatch.setattr(corpus, "_iter_records", whole_file_records)
    assert streamed == load_dataset(path, fmt)
    assert restricted == load_dataset(path, fmt, restrict_to={streamed[0][-1].question_id})
    # the one kept record's documents, in its own passage order
    assert item_docs == [tuple(restricted[1])]


@pytest.mark.parametrize(
    "name, body, where",
    [
        ("bad.jsonl", json.dumps(musique_record("m1", ["a"])) + "\n\n{\"id\": \"m2\", \n", "line 3"),
        ("bad.json", "  [" + json.dumps(hotpot_record("h1")) + ",", "line 1"),
    ],
    ids=["jsonl", "array"],
)
def test_parse_error_is_corpus_error(tmp_path, name, body, where):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    with pytest.raises(CorpusError, match="cannot parse") as err:
        load_dataset(path, "musique" if name.endswith(".jsonl") else "hotpotqa")
    assert str(path) in str(err.value) and where in str(err.value)


def test_non_object_record_rejected(tmp_path):
    path = tmp_path / "list_line.jsonl"
    path.write_text(json.dumps(musique_record("m1", ["a"])) + "\n[1, 2]\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="record 2 is not a JSON object"):
        load_dataset(path, "musique")


@pytest.mark.parametrize(
    "name, fmt, body",
    [
        ("one.jsonl", "musique", b'{"id": "m1", "question": "caf\xff?", "answer": "A"}\n'),
        ("lead.jsonl", "musique", b"\xff\n"),
        ("array.json", "hotpotqa", b'[{"_id": "h1", "question": "caf\xff?", "answer": "A"}]'),
    ],
    ids=["jsonl", "first_byte", "array"],
)
def test_non_utf8_dataset_is_corpus_error(tmp_path, name, fmt, body):
    path = tmp_path / name
    path.write_bytes(body)
    with pytest.raises(CorpusError, match="not UTF-8") as err:
        load_dataset(path, fmt)
    assert str(path) in str(err.value) and "0xff" in str(err.value)


def test_jsonl_line_separator_inside_a_string(tmp_path):
    # U+2028 may appear unescaped inside a JSON string; only \n ends a JSONL line
    record = musique_record("m1", ["a"])
    record["paragraphs"][0]["paragraph_text"] = "first line\u2028second line"
    path = tmp_path / "ls.jsonl"
    path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    _, docs = load_dataset(path, "musique")
    assert [d.text for d in docs] == ["first line\u2028second line"]


def test_jsonl_load_memory_stays_below_half_the_file(tmp_path):
    # ~5 MB of records whose passages all come from a pool of 40: the results
    # are small, so the peak shows what the parser itself holds.
    pool = [(f"Title {i}", f"passage {i} " + "lorem ipsum dolor sit amet " * 18) for i in range(40)]
    path = tmp_path / "big.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for r in range(1000):
            paragraphs = [
                {"idx": j, "title": t, "paragraph_text": text, "is_supporting": j < 2}
                for j, (t, text) in enumerate(pool[(r + j * 7) % 40] for j in range(10))
            ]
            fh.write(json.dumps({"id": f"q{r}", "question": f"Q{r}?", "answer": f"A{r}", "paragraphs": paragraphs}) + "\n")
    size = path.stat().st_size
    assert size > 4_500_000
    tracemalloc.start()
    try:
        items, docs = load_dataset(path, "musique")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(items) == 1000 and len(docs) == 40
    assert peak < size / 2, f"peak {peak} bytes while loading a {size}-byte file"


# --- sampling -----------------------------------------------------------------


def make_items(n):
    return [
        QAItem(question_id=f"q{i:04d}", question=f"Question {i}?", gold_answer=f"A{i}", dataset_tag="2wiki")
        for i in range(n)
    ]


def test_sample_full_set_returns_all():
    items = make_items(500)
    assert sorted(sample_questions(items, 500, seed=1), key=lambda q: q.question_id) == items


def test_sample_deterministic():
    items = make_items(100)
    assert sample_questions(items, 30, seed=9) == sample_questions(items, 30, seed=9)


def test_sample_seed_changes_selection():
    items = make_items(1000)
    a = {q.question_id for q in sample_questions(items, 500, seed=7)}
    b = {q.question_id for q in sample_questions(items, 500, seed=8)}
    assert a != b


def test_sample_no_duplicates():
    items = make_items(50)
    picked = sample_questions(items, 50, seed=3)
    assert len({q.question_id for q in picked}) == 50


def test_sample_too_large_rejected():
    with pytest.raises(CorpusError):
        sample_questions(make_items(3), 4, seed=0)


# --- manifest I/O -----------------------------------------------------------------


def test_chunk_manifest_round_trip(tmp_path):
    chunks = build_corpus([make_doc(900, "a"), make_doc(120, "b")])
    path = tmp_path / "chunks.jsonl"
    write_chunk_manifest(chunks, path, chunk_size=400, stride=50)
    loaded, header = read_chunk_manifest(path)
    assert loaded == chunks
    assert header["tokenizer_id"] == TOK.tokenizer_id

    again = tmp_path / "chunks2.jsonl"
    write_chunk_manifest(loaded, again, chunk_size=400, stride=50)
    assert path.read_bytes() == again.read_bytes()


def test_question_file_round_trip(tmp_path):
    items = make_items(5)
    path = tmp_path / "questions.jsonl"
    write_question_file(items, path, meta={"seed": 1})
    loaded, header = read_question_file(path)
    assert loaded == items and header["seed"] == 1


def with_support_titles(path, titles) -> None:
    """Set the first question row's ``gold_support_titles`` to ``titles``."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), "gold_support_titles": titles}) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("titles, expected", [(None, None), ([], None), (["Paris", "Lyon"], {"Paris", "Lyon"})])
def test_question_file_support_titles_null_or_a_list(tmp_path, titles, expected):
    path = tmp_path / "questions.jsonl"
    write_question_file(make_items(2), path)
    with_support_titles(path, titles)
    loaded, _ = read_question_file(path)
    assert loaded[0].gold_support_titles == (None if expected is None else frozenset(expected))


@pytest.mark.parametrize("titles", ["Paris", "", {"Paris": 1}, ["Paris", 3], [["Paris"]], 7, True])
def test_question_file_support_titles_of_another_type_are_refused(tmp_path, titles):
    # A string was read as the set of its characters.
    path = tmp_path / "questions.jsonl"
    write_question_file(make_items(2), path)
    with_support_titles(path, titles)
    with pytest.raises(CorpusError) as err:
        read_question_file(path)
    assert str(err.value) == (
        f"{path}: line 2: gold_support_titles must be null or a list of strings, "
        f"got {type(titles).__name__} {titles!r}"
    )


class InterruptedAfter(list):
    """A list whose iteration raises KeyboardInterrupt once ``left`` items
    have been yielded, counted over every iteration: Ctrl-C midway through
    a write."""

    def __init__(self, items, left):
        super().__init__(items)
        self.left = left

    def __iter__(self):
        for item in super().__iter__():
            if self.left == 0:
                raise KeyboardInterrupt
            self.left -= 1
            yield item


def write_output(target, out_dir, n, wrap=list):
    """Write the file named ``target`` with ``n`` rows, their sequence passed through ``wrap``."""
    if target == "questions.jsonl":
        write_question_file(wrap(make_items(n)), out_dir / target)
        return
    chunks = build_corpus([make_doc(120, "a"), make_doc(90, "b"), make_doc(60, "c")])[:n]
    if target == "chunks.jsonl":
        write_chunk_manifest(wrap(chunks), out_dir / target, 400, 50)
    else:
        index = build_index(chunks, HashingEmbedder(dim=16))
        index.ids = wrap(index.ids)
        index.save(out_dir / "index.bin")


@pytest.mark.parametrize(
    "target, left",
    [("chunks.jsonl", 1), ("questions.jsonl", 1), ("index.bin", 1), ("index.bin.manifest.jsonl", 4)],
)
def test_interrupted_write_keeps_the_previous_file(tmp_path, target, left):
    # ``left`` rows pass before the interrupt; the sidecar is written after
    # index.bin has iterated all 3 ids.
    write_output(target, tmp_path, 2)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(KeyboardInterrupt):
        write_output(target, tmp_path, 3, lambda items: InterruptedAfter(items, left))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)  # no temp file left
    assert (tmp_path / target).read_bytes() == before[target]
    write_output(target, tmp_path, 3)
    assert (tmp_path / target).read_bytes() != before[target]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)


def test_manifest_kind_checked(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "something_else"}\n', encoding="utf-8")
    with pytest.raises(CorpusError):
        read_chunk_manifest(path)
    with pytest.raises(CorpusError):
        read_question_file(path)


def test_question_file_version_checked(tmp_path):
    path = tmp_path / "questions.jsonl"
    write_question_file(make_items(2), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = json.dumps({**json.loads(lines[0]), "schema_version": 7}) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(CorpusError, match="unsupported question file version 7"):
        read_question_file(path)


def _manifest_files(tmp_path):
    chunks_path, questions_path = tmp_path / "chunks.jsonl", tmp_path / "questions.jsonl"
    write_chunk_manifest(build_corpus([make_doc(900, "a")]), chunks_path, 400, 50)
    write_question_file(make_items(3), questions_path)
    return [(read_chunk_manifest, chunks_path), (read_question_file, questions_path)]


@pytest.mark.parametrize(
    "lineno, line, message",
    [
        (1, '{"kind": "chunk_manifest", ', "line 1: "),
        (1, "[1, 2]", "line 1: not a JSON object"),
        (1, "", "line 1: "),
        (3, '{"chunk_id": "a:0", "doc_id": ', "line 3: "),
        (3, '"just a string"', "line 3: not a JSON object"),
        (3, "{}", "line 3: "),
        (3, '{"question_id": "q1", "chunk_id": "a:1"}', "line 3: "),
    ],
    ids=["header_torn", "header_not_object", "header_empty", "row_torn", "row_not_object", "row_empty_object",
         "row_missing_keys"],
)
def test_manifest_bad_line_names_path_and_line(tmp_path, lineno, line, message):
    for reader, path in _manifest_files(tmp_path):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[lineno - 1] = line + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            reader(path)
        assert str(err.value).startswith(f"{path}: {message}")


def test_manifest_missing_key_is_named(tmp_path):
    for reader, path in _manifest_files(tmp_path):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[2])
        key = "question" if "question" in row else "tokenizer_id"
        del row[key]
        lines[2] = json.dumps(row) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(CorpusError, match=f"line 3: .*'{key}'"):
            reader(path)


def test_manifest_cut_at_a_line_end_is_caught_by_the_row_count(tmp_path):
    for reader, path in _manifest_files(tmp_path):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        with pytest.raises(CorpusError, match=f"header counts {len(lines) - 1} rows but the file has {len(lines) - 2}"):
            reader(path)


def test_manifest_cut_inside_a_character(tmp_path):
    doc = Document(doc_id="z", title="Zürich", text="Zürich lies on the Limmat.")
    path = tmp_path / "chunks.jsonl"
    write_chunk_manifest(build_corpus([doc]), path, 400, 50)
    data = path.read_bytes()
    path.write_bytes(data[: data.rindex("ü".encode("utf-8")) + 1])
    with pytest.raises(CorpusError, match="not UTF-8"):
        read_chunk_manifest(path)


# --- manifest rows without Chunk objects --------------------------------------------


ROW_KEYS = ["chunk_id", "doc_id", "title", "start_token", "end_token", "token_count", "start_char", "end_char",
            "tokenizer_id", "text"]
# What ensure_ascii=False JSON escapes, and what it must leave alone.
JSON_TRICKY = ['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "é",
               "\U0001f600", "\ud800"]
JSON_TEXT = st.text(alphabet=st.one_of(st.characters(), st.sampled_from(JSON_TRICKY)), max_size=40)


@settings(max_examples=300)
@given(strings=st.tuples(*[JSON_TEXT] * 5), ints=st.tuples(*[st.integers(-(10**20), 10**20)] * 5))
def test_manifest_row_is_what_the_json_encoder_writes(strings, ints):
    chunk_id, doc_id, title, text, tokenizer_id = strings
    start_token, end_token, token_count, start_char, end_char = ints
    row = {"chunk_id": chunk_id, "doc_id": doc_id, "title": title, "start_token": start_token,
           "end_token": end_token, "token_count": token_count, "start_char": start_char, "end_char": end_char,
           "tokenizer_id": tokenizer_id, "text": text}
    assert list(row) == ROW_KEYS
    formatted = corpus._manifest_row(**row)
    assert formatted == json.JSONEncoder(ensure_ascii=False).encode(row) + "\n"


def reference_manifest(chunks, chunk_size, stride) -> bytes:
    """A chunk manifest written through the json module alone."""
    header = {"kind": "chunk_manifest", "schema_version": 1, "tokenizer_id": "wordpunct-v1",
              "chunk_size": chunk_size, "stride": stride, "num_chunks": len(chunks)}
    encode = json.JSONEncoder(ensure_ascii=False).encode
    lines = [json.dumps(header)] + [encode({key: getattr(c, key) for key in ROW_KEYS}) for c in chunks]
    return "".join(line + "\n" for line in lines).encode("utf-8")


# A manifest holds UTF-8, which has no lone surrogates (load_dataset refuses
# them), so these passages are the block-edge ones without them.
UTF8_PIECES = [p for p in EDGE_PIECES if not re.search("[\ud800-\udfff]", p)]
UTF8_PASSAGE = st.lists(st.sampled_from(UTF8_PIECES), min_size=1, max_size=30).map("".join)


@settings(max_examples=100, deadline=None)
@given(
    passages=st.lists(UTF8_PASSAGE.filter(reference_spans), min_size=1, max_size=10),
    long_passage=st.lists(st.sampled_from(UTF8_PIECES), min_size=40, max_size=120).map("".join).filter(reference_spans),
    where=st.integers(0, 10),
    block_chars=st.sampled_from([1, 8, 30, 64, 150]),
    params=st.sampled_from([(2, 0), (3, 1), (7, 2), (400, 50)]),
)
def test_corpus_manifest_reads_back_as_build_corpus(tmp_path_factory, passages, long_passage, where, block_chars,
                                                    params):
    passages.insert(min(where, len(passages)), long_passage)
    docs = [Document(doc_id=f"p{i}", title=f'T"{i}\\', text=text) for i, text in enumerate(passages)]
    chunk_size, stride = params
    path = tmp_path_factory.mktemp("manifest") / "chunks.jsonl"
    with mock.patch.object(corpus, "_BLOCK_CHARS", block_chars):
        chunks = build_corpus(docs, chunk_size=chunk_size, stride=stride)
        count = corpus.write_corpus_manifest(docs, path, chunk_size, stride)
    assert count == len(chunks)
    assert path.read_bytes() == reference_manifest(chunks, chunk_size, stride)
    assert read_chunk_manifest(path)[0] == chunks
    assert corpus.read_chunk_texts(path) == ([c.chunk_id for c in chunks], [c.text for c in chunks])


def old_chunk_manifest_reader(path):
    """The chunk manifest reader before rows had one check: ``json.loads`` per
    line, the ``Chunk`` fields read by name, and ``Chunk``'s checks of the
    time (token range, token count, tokenizer) with no type check. Returns
    the rows' fields in Chunk field order, or the CorpusError message."""

    def json_object(lineno, line):
        try:
            row = json.loads(line)
        except ValueError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
        if not isinstance(row, dict):
            raise CorpusError(f"{path}: line {lineno}: not a JSON object")
        return row

    def make(row):
        fields = (row["chunk_id"], row["doc_id"], row["start_token"], row["end_token"], row["text"],
                  row["token_count"], row["tokenizer_id"], row.get("title", ""), row.get("start_char", 0),
                  row.get("end_char", 0))
        chunk_id, _, start, end, _, count, tokenizer_id = fields[:7]
        if start < 0 or end <= start:
            raise CorpusError(f"chunk {chunk_id!r} has invalid token range")
        if count != end - start:
            raise CorpusError(f"chunk {chunk_id!r} token_count does not match its range")
        if tokenizer_id != "wordpunct-v1":
            raise CorpusError(f"chunk {chunk_id!r} was cut by tokenizer {tokenizer_id!r}, not 'wordpunct-v1'")
        return fields

    rows = []
    try:
        try:
            with open(path, encoding="utf-8") as fh:
                header = json_object(1, fh.readline())
                if header.get("kind") != "chunk_manifest":
                    raise CorpusError(f"{path} is not a chunk manifest")
                if header.get("schema_version") != 1:
                    raise CorpusError(f"{path}: unsupported chunk manifest version {header.get('schema_version')}")
                for lineno, line in enumerate(fh, 2):
                    if line.strip():
                        row = json_object(lineno, line)
                        try:
                            rows.append(make(row))
                        except KeyError as exc:
                            raise CorpusError(f"{path}: line {lineno}: missing key {exc}") from exc
                        except (TypeError, ValueError) as exc:
                            raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise corpus._not_utf8(path, exc) from exc
        if header.get("num_chunks", len(rows)) != len(rows):
            raise CorpusError(f"{path}: the header counts {header['num_chunks']} rows but the file has {len(rows)}")
    except CorpusError as exc:
        return str(exc)
    return rows


TYPE_REFUSAL = re.compile(r": line \d+: (" + "|".join(ROW_KEYS) + r") must be (str|int), got ")
# The type of each Chunk field, in the order the old reader returns them.
FIELD_TYPES = (str, str, int, int, str, int, str, str, int, int)
ROW_VALUES = st.one_of(
    st.integers(-2, 12), st.floats(allow_nan=False, allow_infinity=False), st.booleans(), st.none(),
    st.sampled_from(["", "x", "wordpunct-v1", "wordpunct-v2", "é\"\\"]), st.lists(st.integers(0, 2), max_size=2),
)
ROW_EDIT = st.one_of(
    st.tuples(st.just("delete"), st.sampled_from(ROW_KEYS)),
    st.tuples(st.just("set"), st.sampled_from(ROW_KEYS), ROW_VALUES),
    st.tuples(st.just("set"), st.sampled_from(["other", "chunk"]), ROW_VALUES),  # extra keys are ignored
)
LINE_EDIT = st.one_of(
    st.tuples(st.just("before"), st.sampled_from(["\n", "  \n", "\t \r\n", "\x0b\n", "\u3000\n"])),
    st.tuples(st.just("after"),
              st.sampled_from([" x", "]", " }", " ", " \t", "\r", ", 1", "\x0b", "\u2028", "\u3000"])),
    st.tuples(st.just("replace"), st.sampled_from(["[1]", "7", "null", "{}", " {\"chunk_id\": 1}", "\ufeff{}"])),
)


@settings(max_examples=300, deadline=None)
@given(
    row_edits=st.lists(st.tuples(st.integers(0, 5), ROW_EDIT), max_size=3),
    line_edits=st.lists(st.tuples(st.integers(0, 5), LINE_EDIT), max_size=2),
    cut=st.one_of(st.none(), st.integers(1, 60)),
)
def test_chunk_row_reader_agrees_with_the_old_reader(tmp_path_factory, row_edits, line_edits, cut):
    docs = [Document(doc_id="a", title="Zürich \"Z\"", text="Zürich lies on the Limmat 😀 and\tthe lake."),
            Document(doc_id="b", title="", text="A short \\ one.")]
    chunks = build_corpus(docs, chunk_size=4, stride=1)
    path = tmp_path_factory.mktemp("rows") / "chunks.jsonl"
    write_chunk_manifest(chunks, path, 4, 1)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    header, rows = lines[0], [json.loads(line) for line in lines[1:]]
    for i, (kind, key, *value) in row_edits:
        row = rows[i % len(rows)]
        if kind == "delete":
            row.pop(key, None)
        else:
            row[key] = value[0]
    body = [json.dumps(row, ensure_ascii=False) + "\n" for row in rows]
    for i, (kind, text) in line_edits:
        i %= len(body)
        if kind == "before":
            body.insert(i, text)
        elif kind == "after":
            body[i] = body[i][:-1] + text + "\n"
        else:
            body[i] = text + "\n"
    data = (header + "".join(body)).encode("utf-8")
    if cut is not None:
        data = data[: max(len(data) - cut, data.rindex(b"\n", 0, len(data) - 1) + 1)]  # the last line only
    path.write_bytes(data)

    expected = old_chunk_manifest_reader(path)
    for reader in (read_chunk_manifest, corpus.read_chunk_texts):
        try:
            got = reader(path)
        except CorpusError as exc:
            if TYPE_REFUSAL.search(str(exc)):
                # A field of the wrong type: in a row the old reader refused
                # later, or indexed as it was.
                assert isinstance(expected, str) or any(
                    type(value) is not kind for fields in expected for value, kind in zip(fields, FIELD_TYPES)
                ), (str(exc), expected)
                continue
            assert str(exc) == expected
            continue
        assert not isinstance(expected, str), expected
        if reader is read_chunk_manifest:
            assert [tuple(getattr(c, key) for key in corpus._CHUNK_FIELDS) for c in got[0]] == expected
        else:
            assert got == ([f[0] for f in expected], [f[4] for f in expected])
