"""Dataset loading, corpus assembly, and sliding-window chunking.

Every context passage of a loaded QA dataset becomes one :class:`Document`
(de-duplicated by title+text), and documents are cut into fixed-size token
windows that overlap by a configurable stride. Chunk offsets are token
indices under the one tokenizer, ``wordpunct-v1``, which also counts every
prompt's tokens; its id is recorded on every chunk, and a chunk recorded
under any other id is refused, so a manifest cut by another tokenizer is
never indexed or run.

The tokenizer is defined by one regex and runs as numpy over a
per-character class array whose classes are taken from that regex: from
one table of every code point up to U+FFFF, filled the first time each is
met (U+0000–U+00FF at import), and for wider code points from a
module-level memo filled the same way. :func:`build_corpus` joins
passages, one space apart, into blocks of about ``_BLOCK_CHARS`` characters
and tokenizes each block in one class-array pass; the space keeps every
passage's tokens exactly its own (see :meth:`WordPunctTokenizer.block_spans`).

Set-up handles chunks as columns and builds a :class:`Chunk` only where one
is used. One window core (``_windows``) gives every block's window
boundaries as arrays. :func:`build_corpus` makes ``Chunk`` objects from
them; :func:`write_corpus_manifest`, which ``ingest`` calls, formats each
manifest row straight from them and streams it to the file. On the reading
side, :func:`read_chunk_texts` (``build-index``) and
:func:`read_chunk_manifest` (``run``) share one reader, and every row,
like every ``Chunk``, passes the one check ``_check_chunk``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import operator
import os
import random
import re
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from json.encoder import encode_basestring
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from anchor_rag.traces import AnchorRagError, check_type

logger = logging.getLogger(__name__)

DATASET_TAGS = ("2wiki", "hotpotqa", "musique")
DEFAULT_CHUNK_SIZE = 400
DEFAULT_STRIDE = 50
# Characters tokenized per class-array pass in build_corpus: passages are
# joined into blocks of about this size; a longer passage is a block of its
# own. Large enough that a block's fixed numpy cost is spread over dozens of
# short passages, small enough that its temporaries stay well under 1 MB.
_BLOCK_CHARS = 1 << 14

CHUNK_MANIFEST_VERSION = 1
QUESTION_FILE_VERSION = 1


class CorpusError(AnchorRagError, ValueError):
    """Bad dataset file, unknown format, or invalid chunking parameters."""


_SPACE, _WORD, _PUNCT = 0, 1, 2


class WordPunctTokenizer:
    """Whitespace-plus-punctuation word splitter.

    The tokens are those of ``_pattern``: words (``\\w+``) and individual
    punctuation characters are separate tokens; whitespace is never a token.
    Spans index into the original text.

    Neither method runs the pattern per token. Each character of the text is
    given one class (space, word or punctuation, see :func:`_char_class`,
    which asks ``_pattern`` itself), and both methods read token boundaries
    off that class array with numpy: a token starts at every punctuation
    character and at every word character not preceded by one, and ends
    likewise. The classes come from one lookup in a 65,537-entry table, whose
    U+0000–U+00FF entries are filled at import; any other code point is
    classified once, as it first appears, and kept in the table (or, above
    U+FFFF, in a dict) for the life of the process.
    """

    tokenizer_id = "wordpunct-v1"
    _pattern = re.compile(r"\w+|[^\w\s]", re.UNICODE)

    def spans(self, text: str) -> tuple[list[int], list[int]]:
        """Start and end character offsets of every token, in order."""
        starts, ends, _ = self.block_spans([text])
        return starts.tolist(), ends.tolist()

    def block_spans(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The token spans of several texts from one class-array pass.

        Returns every token's start and end offset, each relative to its own
        text, in text order, and ``bounds``, one entry per text plus one:
        text i's tokens are ``starts[bounds[i]:bounds[i + 1]]``.

        The texts are tokenized as one string, joined by single spaces. That
        is exact: a space is never part of a token, and both a text's first
        and last character see a non-word neighbour, as they do at the ends
        of the text alone. So no token is merged or split at a join.
        """
        offsets = np.zeros(len(texts) + 1, dtype=np.intp)
        np.cumsum([len(t) + 1 for t in texts], out=offsets[1:])
        cls, word = _classes(" ".join(texts))
        starts = np.flatnonzero(cls > word[:-2])
        ends = np.flatnonzero(cls > word[2:]) + 1
        bounds = np.searchsorted(starts, offsets)
        shift = np.repeat(offsets[:-1], np.diff(bounds))
        return starts - shift, ends - shift, bounds

    def count(self, text: str) -> int:
        cls, word = _classes(text)
        return int(np.count_nonzero(cls > word[:-2]))


def _char_class(ch: str) -> int:
    """The class of one character under ``WordPunctTokenizer._pattern``.

    Only its word alternative can match two characters, and only a space
    matches neither alternative.
    """
    pattern = WordPunctTokenizer._pattern
    if pattern.fullmatch(ch * 2):
        return _WORD
    return _PUNCT if pattern.fullmatch(ch) else _SPACE


# Code point -> class for every code point up to U+FFFF, filled as each is
# first met; U+0000-U+00FF are filled at import. The last entry stays
# _UNSEEN for good: ``take(..., mode="clip")`` sends every code point above
# U+FFFF to it, and those are classified through _WIDE_CLASSES. Threads may
# fill either without a lock: an entry only ever gets the one value
# _char_class gives it.
_UNSEEN = 255
_CLASSES = np.full(0x10001, _UNSEEN, dtype=np.uint8)
_CLASSES[:256] = [_char_class(chr(c)) for c in range(256)]
# Code point -> class for code points above U+FFFF, filled as they are met.
_WIDE_CLASSES: dict[int, int] = {}


def _unseen_classes(codes: np.ndarray) -> np.ndarray:
    """The classes of distinct code points not yet in ``_CLASSES``, filling
    its entries (or ``_WIDE_CLASSES`` above U+FFFF) as it goes."""
    memo = _WIDE_CLASSES
    out = []
    for c in codes.tolist():
        if c < 0x10000:
            cls = _CLASSES[c] = _char_class(chr(c))
        else:
            cls = memo.get(c)
            if cls is None:
                cls = memo[c] = _char_class(chr(c))
        out.append(cls)
    return np.array(out, dtype=np.uint8)


def _classes(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The class of every character of ``text``, and a 0/1 word flag per
    character padded with one 0 at each end, so that ``word[:-2]`` and
    ``word[2:]`` are the flags of each character's left and right neighbour.
    """
    # UTF-32 gives one unit per str character; surrogatepass keeps a lone
    # surrogate (a valid str character, which _pattern sees as punctuation).
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    cls = _CLASSES.take(codes, mode="clip")
    if cls.max(initial=0) == _UNSEEN:
        unseen = cls == _UNSEEN
        distinct, inverse = np.unique(codes[unseen], return_inverse=True)
        cls[unseen] = _unseen_classes(distinct)[inverse]
    word = np.zeros(len(cls) + 2, dtype=np.uint8)
    word[1:-1] = cls == _WORD
    return cls, word


DEFAULT_TOKENIZER = WordPunctTokenizer()


@dataclass(frozen=True, slots=True)
class Document:
    """One knowledge passage: a title plus its full plain text."""

    doc_id: str
    title: str
    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise CorpusError(f"document {self.doc_id!r} has empty text")


@dataclass(frozen=True, slots=True)
class Chunk:
    """A token window of one document; the unit of retrieval.

    ``start_token``/``end_token`` index into the parent document's token
    sequence; ``start_char``/``end_char`` locate the same window in the raw
    text. ``title`` is denormalized from the parent document so prompts can
    be rendered from chunks alone. ``tokenizer_id`` must be that of
    :data:`DEFAULT_TOKENIZER`, the tokenizer every offset and count is in.
    The fields are checked by ``_check_chunk``, as every manifest row is.
    """

    chunk_id: str
    doc_id: str
    start_token: int
    end_token: int
    text: str
    token_count: int
    tokenizer_id: str
    title: str = ""
    start_char: int = 0
    end_char: int = 0

    def __post_init__(self) -> None:
        _check_chunk(_field_values(self))


# Chunk's fields in order, the defaults of the last three, and the type of
# each: ids, title and text are str, offsets and counts are int (a bool is
# refused, though it is an int). Everything else reads fields by name.
_CHUNK_FIELDS = tuple(f.name for f in fields(Chunk))
_CHUNK_DEFAULTS = {f.name: f.default for f in fields(Chunk) if f.default is not MISSING}
_CHUNK_TYPES = {"chunk_id": str, "doc_id": str, "title": str, "text": str, "tokenizer_id": str,
                "start_token": int, "end_token": int, "token_count": int, "start_char": int, "end_char": int}
_FIELD_TYPES = tuple(_CHUNK_TYPES[name] for name in _CHUNK_FIELDS)
_field_values = operator.attrgetter(*_CHUNK_FIELDS)
_range_fields = operator.itemgetter(
    *map(_CHUNK_FIELDS.index, ["chunk_id", "start_token", "end_token", "token_count", "tokenizer_id"])
)


def _check_chunk(values: tuple) -> None:
    """The one check of a chunk's fields, given in ``_CHUNK_FIELDS`` order:
    each of its type in ``_CHUNK_TYPES``, a nonempty token range starting at
    or after 0, a ``token_count`` equal to its length, and the tokenizer of
    :data:`DEFAULT_TOKENIZER`. Raises :class:`CorpusError`."""
    if tuple(map(type, values)) != _FIELD_TYPES:
        for name, value in zip(_CHUNK_FIELDS, values):
            kind = _CHUNK_TYPES[name]
            if type(value) is not kind:
                raise CorpusError(f"{name} must be {kind.__name__}, got {type(value).__name__} {value!r}")
    chunk_id, start_token, end_token, token_count, tokenizer_id = _range_fields(values)
    if start_token < 0 or end_token <= start_token:
        raise CorpusError(f"chunk {chunk_id!r} has invalid token range")
    if token_count != end_token - start_token:
        raise CorpusError(f"chunk {chunk_id!r} token_count does not match its range")
    if tokenizer_id != DEFAULT_TOKENIZER.tokenizer_id:
        raise CorpusError(
            f"chunk {chunk_id!r} was cut by tokenizer {tokenizer_id!r}, not {DEFAULT_TOKENIZER.tokenizer_id!r}"
        )


@dataclass(frozen=True)
class QAItem:
    """One evaluation question with its gold answer."""

    question_id: str
    question: str
    gold_answer: str
    gold_support_titles: frozenset[str] | None = None
    dataset_tag: str = "hotpotqa"

    def __post_init__(self) -> None:
        for name in ("question_id", "question", "gold_answer", "dataset_tag"):
            check_type(name, getattr(self, name), str, CorpusError)
        if not self.question or not self.gold_answer:
            raise CorpusError(f"question {self.question_id!r} missing question or answer text")
        if self.dataset_tag not in DATASET_TAGS:
            raise CorpusError(f"unknown dataset tag: {self.dataset_tag!r}")


def _doc_id(title: str, text: str) -> str:
    digest = hashlib.sha1(f"{title}\x1f{text}".encode("utf-8")).hexdigest()
    return f"d{digest[:16]}"


def _join_sentences(sentences: Iterable[str]) -> str:
    return " ".join(s.strip() for s in map(str, sentences) if s.strip())


def _iter_records(path: Path) -> Iterator[dict]:
    """Yield the records of a dataset file in file order.

    A file whose first non-blank character is ``[`` is one JSON array and is
    parsed whole; any other file is JSONL, parsed one line at a time, so only
    the current line is held. Blank lines are skipped.
    """
    try:
        with path.open("r", encoding="utf-8") as fh:
            first = fh.read(1)
            while first.isspace():
                first = fh.read(1)
            fh.seek(0)
            if first == "[":
                try:
                    records = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"cannot parse {path}: {exc}") from exc
                yield from records
                return
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"cannot parse {path}: line {lineno}: {exc.msg} (column {exc.colno})") from exc
                yield record
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> CorpusError:
    return CorpusError(f"cannot read {path}: not UTF-8 (byte 0x{exc.object[exc.start]:02x}: {exc.reason})")


def _contexts_hotpot_style(record: dict) -> list[tuple[str, str]]:
    out = []
    for entry in record.get("context") or []:
        if isinstance(entry, (list, tuple)) and len(entry) >= 2:
            title, sentences = str(entry[0]), entry[1]
        elif isinstance(entry, dict):
            title = str(entry.get("title", ""))
            sentences = entry.get("sentences", [])
        else:
            continue
        text = _join_sentences(sentences) if isinstance(sentences, (list, tuple)) else str(sentences).strip()
        out.append((title, text))
    return out


def _contexts_musique(record: dict) -> list[tuple[str, str]]:
    out = []
    for para in record.get("paragraphs") or []:
        if not isinstance(para, dict):
            continue
        out.append((str(para.get("title", "")), str(para.get("paragraph_text", "")).strip()))
    return out


def _support_titles(record: dict, fmt: str) -> frozenset[str] | None:
    if fmt == "musique":
        titles = {
            str(p.get("title", ""))
            for p in record.get("paragraphs") or []
            if isinstance(p, dict) and p.get("is_supporting")
        }
    else:
        titles = {
            str(entry[0])
            for entry in record.get("supporting_facts") or []
            if isinstance(entry, (list, tuple)) and entry
        }
    return frozenset(titles) or None


def load_dataset(
    path: str | Path,
    fmt: str,
    restrict_to: set[str] | None = None,
    item_docs: list[tuple[Document, ...]] | None = None,
) -> tuple[list[QAItem], list[Document]]:
    """Read one dataset file in its distributed layout.

    Returns every QA record as a :class:`QAItem` and every context passage
    as a :class:`Document`, de-duplicated by (title, text). Records missing
    a question or answer are skipped and counted in a log line. With
    ``restrict_to`` set, only records with those question ids contribute
    (the reference for ``ingest --contexts sampled``). With ``item_docs``
    given, one tuple is appended to it per returned item: the documents of
    that record's passages, in record order.

    Records are consumed as they are parsed. A JSONL file (MuSiQue) is
    streamed line by line, so memory holds the current line plus the
    results. A JSON array (HotpotQA, 2Wiki) is parsed whole, which takes a
    few times the file size; streaming it would need an incremental JSON
    parser and is not done.
    """
    if fmt not in DATASET_TAGS:
        raise CorpusError(f"unknown dataset format: {fmt!r} (expected one of {DATASET_TAGS})")
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"dataset file not found: {path}")

    items: list[QAItem] = []
    docs: dict[tuple[str, str], Document] = {}
    skipped = 0
    for i, record in enumerate(_iter_records(path)):
        if not isinstance(record, dict):
            raise CorpusError(f"{path}: record {i + 1} is not a JSON object")
        question = str(record.get("question") or "").strip()
        answer = str(record.get("answer") or "").strip()
        if not question or not answer:
            skipped += 1
            continue
        qid = str(record.get("_id") or record.get("id") or f"{fmt}-{i:06d}")
        if restrict_to is not None and qid not in restrict_to:
            continue
        support = _support_titles(record, fmt)
        contexts = _contexts_musique(record) if fmt == "musique" else _contexts_hotpot_style(record)
        # A JSON escape such as "\ud800" decodes to a lone surrogate, which no
        # output file can hold: UTF-8 has no encoding for it. _doc_id encodes
        # every new passage; the question's own fields are checked only if it
        # is written (see check_encodable).
        try:
            record_docs = []
            for title, text in contexts:
                if not text:
                    continue
                doc = docs.get((title, text))
                if doc is None:
                    doc = docs[(title, text)] = Document(doc_id=_doc_id(title, text), title=title, text=text)
                record_docs.append(doc)
        except UnicodeEncodeError as exc:
            raise CorpusError(
                f"{path}: record {i + 1} holds a lone surrogate (U+{ord(exc.object[exc.start]):04X}), "
                "which UTF-8 cannot encode"
            ) from None
        items.append(
            QAItem(
                question_id=qid,
                question=question,
                gold_answer=answer,
                gold_support_titles=support,
                dataset_tag=fmt,
            )
        )
        if item_docs is not None:
            item_docs.append(tuple(record_docs))
    if skipped:
        logger.warning("%s: skipped %d record(s) missing question or answer", path, skipped)
    return items, list(docs.values())


def check_encodable(items: Iterable[QAItem], path: str | Path) -> None:
    """Refuse, with a :class:`CorpusError` naming ``path`` (the dataset) and
    the question, the first item whose id, question, answer or a support
    title holds a lone surrogate, which UTF-8 cannot encode."""
    for q in items:
        try:
            "\x1f".join([q.question_id, q.question, q.gold_answer, *(q.gold_support_titles or ())]).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CorpusError(
                f"{path}: question {q.question_id!r} holds a lone surrogate (U+{ord(exc.object[exc.start]):04X}), "
                "which UTF-8 cannot encode"
            ) from None


def sample_questions(items: Sequence[QAItem], n: int, seed: int) -> list[QAItem]:
    """Draw ``n`` distinct questions; deterministic in (items, n, seed)."""
    if n > len(items):
        raise CorpusError(f"cannot sample {n} questions from {len(items)}")
    return random.Random(seed).sample(list(items), n)


def chunk_document(doc: Document, chunk_size: int = DEFAULT_CHUNK_SIZE, stride: int = DEFAULT_STRIDE) -> list[Chunk]:
    """The chunks of one document: ``build_corpus([doc], ...)``."""
    return build_corpus([doc], chunk_size=chunk_size, stride=stride)


def build_corpus(
    docs: Sequence[Document], chunk_size: int = DEFAULT_CHUNK_SIZE, stride: int = DEFAULT_STRIDE
) -> list[Chunk]:
    """Cut every document into token windows that overlap by ``stride`` tokens.

    Window starts advance by ``chunk_size - stride``; the final window is
    clamped to the document end, so a document no longer than ``chunk_size``
    yields exactly one chunk. Chunk ids are globally unique (doc id +
    start token).

    The chunking parameters are checked once, before any document. Documents
    are tokenized a block at a time (about ``_BLOCK_CHARS`` characters, see
    :meth:`WordPunctTokenizer.block_spans`) and chunked in order, so a
    document with no tokens raises :class:`CorpusError` naming it before any
    later document is chunked.
    """
    return list(_each_window(_windows(docs, chunk_size, stride), Chunk))


# One block's windows: its documents, then per window the index of its
# document in the block, its start and end token and its start and end
# character, as arrays.
_Windows = tuple[list[Document], np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
_T = TypeVar("_T")


def _windows(docs: Iterable[Document], chunk_size: int, stride: int) -> Iterator[_Windows]:
    """The window core of :func:`build_corpus` and
    :func:`write_corpus_manifest`: every block's windows, block by block."""
    if stride < 0 or chunk_size <= stride:
        raise CorpusError(f"need chunk_size > stride >= 0, got {chunk_size=}, {stride=}")
    step = chunk_size - stride
    for block in _blocks(docs):
        starts, ends, bounds = DEFAULT_TOKENIZER.block_spans([doc.text for doc in block])
        totals = np.diff(bounds)
        if not totals.all():
            doc = block[int(np.argmin(totals))]  # the first with no tokens
            raise CorpusError(f"document {doc.doc_id!r} has no tokens")
        # Every window of the block at once: a document of n tokens has one
        # window if n <= chunk_size, else 1 + ceil((n - chunk_size) / step).
        # Only the boundary tokens of each window are read off the spans.
        windows = np.maximum(-((chunk_size - totals) // step), 0) + 1
        owner = np.repeat(np.arange(len(block)), windows)
        start_tokens = (np.arange(len(owner)) - np.repeat(np.cumsum(windows) - windows, windows)) * step
        end_tokens = np.minimum(start_tokens + chunk_size, totals[owner])
        first = bounds[owner]
        yield block, owner, start_tokens, end_tokens, starts[first + start_tokens], ends[first + end_tokens - 1]


def _each_window(windows: Iterable[_Windows], make: Callable[..., _T]) -> Iterator[_T]:
    """``make`` of each window's :class:`Chunk` fields, passed by name."""
    tokenizer_id = DEFAULT_TOKENIZER.tokenizer_id
    for block, *columns in windows:
        for i, start, end, start_char, end_char in zip(*(column.tolist() for column in columns)):
            doc = block[i]
            yield make(chunk_id=f"{doc.doc_id}:{start}", doc_id=doc.doc_id, start_token=start, end_token=end,
                       text=doc.text[start_char:end_char], token_count=end - start, tokenizer_id=tokenizer_id,
                       title=doc.title, start_char=start_char, end_char=end_char)


def _blocks(docs: Iterable[Document]) -> Iterator[list[Document]]:
    """Consecutive runs of documents of about ``_BLOCK_CHARS`` characters
    in all; a longer document is a run of its own."""
    block: list[Document] = []
    size = 0
    for doc in docs:
        if block and size + len(doc.text) > _BLOCK_CHARS:
            yield block
            block, size = [], 0
        block.append(doc)
        size += len(doc.text) + 1
    if block:
        yield block


# --- manifest / question file I/O -----------------------------------------
# Both files are JSONL with a typed header line, so readers can refuse files
# of another kind or schema version; a chunk manifest whose header or any row
# records another tokenizer is refused too.

# The header values each reader requires, which each writer puts first, and
# the refusal of a header with another value (``what`` is the kind in words).
_MANIFEST_HEADER = {
    "kind": "chunk_manifest",
    "schema_version": CHUNK_MANIFEST_VERSION,
    "tokenizer_id": DEFAULT_TOKENIZER.tokenizer_id,
}
_QUESTION_HEADER = {"kind": "question_file", "schema_version": QUESTION_FILE_VERSION}
_HEADER_ERRORS = {
    "kind": "{path} is not a {what}",
    "schema_version": "{path}: unsupported {what} version {got}",
    "tokenizer_id": "{path}: the {what} was cut by tokenizer {got!r}, not {want!r}",
}


@contextmanager
def write_atomically(path: Path, mode: str = "w") -> Iterator[IO]:
    """Open a temp file beside ``path`` (text as UTF-8) and move it over
    ``path`` with ``os.replace`` once the block ends, so ``path`` never holds
    a half-written file. If the block raises, the temp file is removed and
    ``path`` keeps its previous contents. The rename survives the writer's
    death, not a power cut: nothing is fsynced."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open(mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_chunk_manifest(chunks: Sequence[Chunk], path: str | Path, chunk_size: int, stride: int) -> None:
    rows = (_manifest_row(**dict(zip(_CHUNK_FIELDS, _field_values(c)))) for c in chunks)
    _write_manifest(Path(path), len(chunks), chunk_size, stride, rows)


def write_corpus_manifest(docs: Sequence[Document], path: str | Path, chunk_size: int, stride: int) -> int:
    """Write the manifest ``write_chunk_manifest(build_corpus(docs, chunk_size,
    stride), path, chunk_size, stride)`` writes, byte for byte, and return its
    chunk count, without building a :class:`Chunk`.

    Every block's windows are found first, so a bad chunking parameter or a
    document with no tokens raises before the file is opened, and the count
    goes into the header. Each row is then formatted straight from the window
    arrays and streamed to the file.
    """
    windows = list(_windows(docs, chunk_size, stride))
    count = sum(len(owner) for _, owner, *_ in windows)
    _write_manifest(Path(path), count, chunk_size, stride, _each_window(windows, _manifest_row))
    return count


def _manifest_row(
    *, chunk_id, doc_id, start_token, end_token, text, token_count, tokenizer_id, title, start_char, end_char
) -> str:
    """The manifest line of one chunk, given its fields by name: what
    ``json.JSONEncoder(ensure_ascii=False).encode`` writes for the row's
    dict, plus a newline. Each string goes through the encoder's own
    ``encode_basestring``, and each int prints as it does:
    a ``Chunk``'s ints are checked and the window arrays' come from
    ``tolist()``, so no bool or float reaches it."""
    return (
        f'{{"chunk_id": {encode_basestring(chunk_id)}, "doc_id": {encode_basestring(doc_id)}, '
        f'"title": {encode_basestring(title)}, "start_token": {start_token}, "end_token": {end_token}, '
        f'"token_count": {token_count}, "start_char": {start_char}, "end_char": {end_char}, '
        f'"tokenizer_id": {encode_basestring(tokenizer_id)}, "text": {encode_basestring(text)}}}\n'
    )


def _write_manifest(path: Path, count: int, chunk_size: int, stride: int, rows: Iterable[str]) -> None:
    """Write a chunk manifest of ``count`` rows, one line each from ``rows``.
    The file is written in binary, one encoded row at a time, so no more than
    a row and the file buffer are held."""
    header = {**_MANIFEST_HEADER, "chunk_size": chunk_size, "stride": stride, "num_chunks": count}
    with write_atomically(path, "wb") as fh:
        fh.write(f"{json.dumps(header)}\n".encode("utf-8"))
        for row in rows:
            fh.write(row.encode("utf-8"))


def _json_object(path: Path, lineno: int, line: str) -> dict:
    try:
        row = json.loads(line)
    except ValueError as exc:
        raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
    if not isinstance(row, dict):
        raise CorpusError(f"{path}: line {lineno}: not a JSON object")
    return row


def _read_jsonl(path: str | Path, expect: dict, count_key: str, make: Callable) -> tuple[list, dict]:
    """Read a JSONL file with a typed header line, making one item per row.

    A line that does not parse, is not an object, lacks a key or holds a bad
    value, a header whose values differ from ``expect``'s (checked in its
    order), and a row count other than the header's (a file cut at a line
    end) each raise :class:`CorpusError` naming the path and, where there is
    one, the line.
    """
    path = Path(path)
    what = expect["kind"].replace("_", " ")
    items = []
    try:
        with path.open("r", encoding="utf-8") as fh:
            header = _json_object(path, 1, fh.readline())
            for key, want in expect.items():
                got = header.get(key)
                if got != want:
                    raise CorpusError(_HEADER_ERRORS[key].format(path=path, what=what, got=got, want=want))
            for lineno, line in enumerate(fh, 2):
                if line.strip():
                    row = _json_object(path, lineno, line)
                    try:
                        items.append(make(row))
                    except KeyError as exc:
                        raise CorpusError(f"{path}: line {lineno}: missing key {exc}") from exc
                    except (TypeError, ValueError) as exc:
                        raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    if header.get(count_key, len(items)) != len(items):
        raise CorpusError(f"{path}: the header counts {header[count_key]} rows but the file has {len(items)}")
    return items, header


_all_fields = operator.itemgetter(*_CHUNK_FIELDS)
_required_fields = operator.itemgetter(*(name for name in _CHUNK_FIELDS if name not in _CHUNK_DEFAULTS))


def _row_fields(row: dict) -> tuple:
    """A manifest row's :class:`Chunk` fields, in field order, unchecked.
    Rows carry the fields under their own names; a missing required one is a
    KeyError, and other keys are ignored."""
    try:
        return _all_fields(row)  # every row ingest writes has every field
    except KeyError:
        # A dataclass lists the fields with defaults last.
        return _required_fields(row) + tuple(map(row.get, _CHUNK_DEFAULTS, _CHUNK_DEFAULTS.values()))


def _checked_row(row: dict) -> tuple[str, str]:
    """A manifest row's chunk id and text, once its fields pass
    ``_check_chunk``, as a :class:`Chunk` built from it would."""
    _check_chunk(_row_fields(row))
    return row["chunk_id"], row["text"]


def read_chunk_manifest(path: str | Path) -> tuple[list[Chunk], dict]:
    """Every row of a chunk manifest as a :class:`Chunk`, and the header."""
    return _read_jsonl(path, _MANIFEST_HEADER, "num_chunks", lambda row: Chunk(*_row_fields(row)))


def read_chunk_texts(path: str | Path) -> tuple[list[str], list[str]]:
    """The chunk ids and texts of a chunk manifest, in row order, after the
    same checks as :func:`read_chunk_manifest` but with no :class:`Chunk`."""
    rows, _ = _read_jsonl(path, _MANIFEST_HEADER, "num_chunks", _checked_row)
    return [chunk_id for chunk_id, _ in rows], [text for _, text in rows]


def write_question_file(items: Sequence[QAItem], path: str | Path, meta: dict | None = None) -> None:
    header = {**_QUESTION_HEADER, "num_questions": len(items), **(meta or {})}
    with write_atomically(Path(path)) as fh:
        fh.write(json.dumps(header) + "\n")
        for q in items:
            row = {
                "question_id": q.question_id,
                "question": q.question,
                "gold_answer": q.gold_answer,
                "gold_support_titles": sorted(q.gold_support_titles) if q.gold_support_titles else None,
                "dataset_tag": q.dataset_tag,
            }
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _question_from_row(row: dict) -> QAItem:
    titles = row.get("gold_support_titles")
    if titles is not None and not (isinstance(titles, list) and all(isinstance(t, str) for t in titles)):
        raise CorpusError(
            f"gold_support_titles must be null or a list of strings, got {type(titles).__name__} {titles!r}"
        )
    return QAItem(
        question_id=row["question_id"],
        question=row["question"],
        gold_answer=row["gold_answer"],
        gold_support_titles=frozenset(titles) if titles else None,
        dataset_tag=row["dataset_tag"],
    )


def read_question_file(path: str | Path) -> tuple[list[QAItem], dict]:
    return _read_jsonl(path, _QUESTION_HEADER, "num_questions", _question_from_row)
