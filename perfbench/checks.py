"""Output checks of one benchmark pass, independent of the program's own tests.

A question fails when its trace is missing, records errors, or disagrees
with the generator's plan (answer, gate decision, queries), or when it is
in the checked sample and its retrieval disagrees with a brute-force numpy
oracle over the saved ``index.bin``. A pass-wide mismatch (chunk count,
index rows, report totals) fails every question of the pass.
"""

from __future__ import annotations

import json
import random
import re
import struct
import zlib
from pathlib import Path

import numpy as np

from gen import stub_vector
from workloads import EMBED_DIM, K, Workload

SCORE_TOLERANCE = 1e-9
ROW_SAMPLE = 20      # index rows per pass compared with the embedding of their text
ORACLE_SAMPLE = 20   # questions per pass compared with the brute-force retrieval oracle


def read_index(path: Path) -> tuple[str, list[str], np.ndarray]:
    """Parse the index binary: magic, version, dim, count, provider id, ids, float32 rows."""
    raw = path.read_bytes()
    if raw[:4] != b"ARIX":
        raise ValueError(f"{path}: bad magic")
    _version, dim, count = struct.unpack_from("<IIQ", raw, 4)
    (plen,) = struct.unpack_from("<I", raw, 20)
    at = 24 + plen
    provider_id = raw[24:at].decode("utf-8")
    ids = []
    for _ in range(count):
        (n,) = struct.unpack_from("<I", raw, at)
        ids.append(raw[at + 4 : at + 4 + n].decode("utf-8"))
        at += 4 + n
    matrix = np.frombuffer(raw, dtype="<f4", count=count * dim, offset=at).reshape(count, dim)
    if at + count * dim * 4 != len(raw):
        raise ValueError(f"{path}: {len(raw) - at - count * dim * 4} trailing bytes")
    return provider_id, ids, matrix


def reference_hashing_vector(text: str, dim: int = EMBED_DIM) -> np.ndarray:
    """The hashing-v1 embedding (n-grams 3, 4, 5), written out independently of the program."""
    t = " ".join(re.sub(r"[^a-z0-9]+", " ", text.lower()).split())
    grams = [t[i : i + n] for n in (3, 4, 5) for i in range(len(t) - n + 1)] or ([t] if t else [])
    v = np.zeros(dim, dtype=np.float64)
    for gram in grams:
        h = zlib.crc32(gram.encode("utf-8"))
        v[h % dim] += 1.0 if (h >> 31) & 1 else -1.0
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        v[0] = 1.0
    else:
        v /= norm
    return v.astype(np.float32)


def _read_jsonl(path: Path) -> tuple[dict, list[dict]]:
    with path.open(encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh if line.strip()]


def _remote_row(text: str) -> np.ndarray:
    # What RemoteEmbedder stores for the stub's vector: renormalised, float32.
    v = stub_vector(text)
    return (v / np.linalg.norm(v)).astype(np.float32)


class PassChecker:
    def __init__(self, w: Workload, plan: dict, seed: int):
        self.w = w
        self.plan = plan
        self.rng = random.Random(f"check:{w.name}:{seed}")
        self.vector = _remote_row if w.remote else reference_hashing_vector

    def check(self, pdir: Path) -> tuple[int, set[str], list[str]]:
        """Returns (questions attempted, failed question ids, problems)."""
        w, planned = self.w, self.plan["questions"]
        try:
            _, questions = _read_jsonl(pdir / "questions.jsonl")
        except (OSError, ValueError) as exc:
            return w.sample_n, {f"missing-{i}" for i in range(w.sample_n)}, [f"questions file: {exc}"]
        sampled = [q["question_id"] for q in questions]
        problems: list[str] = []
        if len(sampled) != w.sample_n or not set(sampled) <= set(planned):
            problems.append(f"ingest sampled {len(sampled)} questions, expected {w.sample_n} from the plan")
        chunk_rows = self._check_chunks(pdir, problems)
        ids, matrix = self._check_index(pdir, chunk_rows, problems)
        failed = self._check_traces(pdir, sampled, ids, matrix, problems)
        self._check_report(pdir, [planned[q] for q in sampled if q in planned], problems)
        if problems:
            failed = set(sampled)
        return len(sampled), failed, problems

    def _check_chunks(self, pdir: Path, problems: list[str]) -> list[dict]:
        try:
            header, rows = _read_jsonl(pdir / "chunks.jsonl")
            per_title: dict[str, int] = {}
            for row in rows:
                per_title[row["title"]] = per_title.get(row["title"], 0) + 1
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"chunk manifest: {exc}")
            return []
        total = self.plan["total_chunks"]
        if header.get("num_chunks") != total or len(rows) != total:
            problems.append(f"{len(rows)} chunks, expected {total}")
        if per_title != self.plan["chunks_per_title"]:
            problems.append("per-document chunk counts differ from the window enumeration")
        return rows

    def _check_index(self, pdir: Path, chunk_rows: list[dict], problems: list[str]) -> tuple[list[str], np.ndarray]:
        try:
            _, ids, matrix = read_index(pdir / "index.bin")
        except (OSError, ValueError, struct.error) as exc:
            problems.append(f"index: {exc}")
            return [], np.zeros((0, EMBED_DIM), dtype=np.float32)
        text_of = {r["chunk_id"]: r["text"] for r in chunk_rows}
        if sorted(ids) != sorted(text_of):
            problems.append("index ids differ from the chunk manifest")
        for row in self.rng.sample(range(len(ids)), min(ROW_SAMPLE, len(ids))):
            expected = self.vector(text_of.get(ids[row], ""))
            if self.w.remote:
                # JSON transport and renormalisation may move the last float32 bit.
                ok = np.allclose(matrix[row], expected, rtol=0.0, atol=1e-6)
            else:
                ok = expected.tobytes() == matrix[row].tobytes()
            if not ok:
                problems.append(f"index row {row} does not match the embedding of its chunk text")
                break
        return ids, matrix

    def _check_traces(self, pdir: Path, sampled: list[str], ids: list[str], matrix: np.ndarray,
                      problems: list[str]) -> set[str]:
        traces: dict[str, dict] = {}
        try:
            _, rows = _read_jsonl(pdir / "traces.jsonl")
            traces = {t["question_id"]: t for t in rows}
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"trace file: {exc}")
        oracle = set(self.rng.sample(sorted(sampled), min(ORACLE_SAMPLE, len(sampled))))
        ids_arr, m64 = np.array(ids), matrix.astype(np.float64)
        failed = set()
        for qid in sampled:
            t, p = traces.get(qid), self.plan["questions"].get(qid)
            if t is None or p is None or not self._trace_ok(t, p):
                failed.add(qid)
            elif qid in oracle and not self._oracle_ok(t, ids_arr, m64):
                failed.add(qid)
        return failed

    def _check_report(self, pdir: Path, chosen: list[dict], problems: list[str]) -> None:
        try:
            run = json.loads((pdir / "report" / "summary.json").read_text(encoding="utf-8"))["runs"]["traces"]
            em = round(100.0 * sum(p["em"] for p in chosen) / len(chosen), 2)
            f1 = round(100.0 * sum(p["f1"] for p in chosen) / len(chosen), 2)
            if abs(run["em"] - em) > 1e-9 or abs(run["f1"] - f1) > 1e-9 or run["n"] != len(chosen):
                problems.append(f"report EM/F1 {run['em']}/{run['f1']} (n={run['n']}), plan {em}/{f1} (n={len(chosen)})")
            if self.w.mode == "threshold_gated":
                split = (sum(p["gate"] == "complete" for p in chosen), sum(p["gate"] == "continue" for p in chosen))
                got = (run["threshold"]["complete"], run["threshold"]["continue"])
                if got != split:
                    problems.append(f"gate split {got}, plan {split}")
        except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
            problems.append(f"report: {exc}")

    def _trace_ok(self, t: dict, p: dict) -> bool:
        if t["errors"] or t["final_answer"] != p["final"] or t["gate_decision"] != p["gate"]:
            return False
        if self.w.mode == "standard_rag":
            queries = [p["question"]]
        else:
            if t["system1_answer"] != p["system1"]:
                return False
            queries = [f"{s} {r} {o}" for s, r, o in p["triples"]]
        if t["retrieval_queries"] != queries or len(t["hits"]) != len(queries) * K:
            return False
        union: list[str] = []
        for h in t["hits"]:
            if h["chunk_id"] not in union:
                union.append(h["chunk_id"])
        return t["retrieved_chunks"] == union

    def _oracle_ok(self, t: dict, ids_arr: np.ndarray, m64: np.ndarray) -> bool:
        for qi, query in enumerate(t["retrieval_queries"]):
            scores = m64 @ self.vector(query).astype(np.float64)
            top = np.lexsort((ids_arr, -scores))[:K]
            hits = [h for h in t["hits"] if h["query_index"] == qi]
            if [h["chunk_id"] for h in hits] != ids_arr[top].tolist():
                return False
            if any(abs(h["score"] - scores[i]) > SCORE_TOLERANCE for h, i in zip(hits, top)):
                return False
        return True
