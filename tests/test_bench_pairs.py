"""The pair runner's summary rule, against recorded series and one live pair."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs_under_test", REPO / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _end_to_end() -> dict:
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in bench["end_to_end"]}


@pytest.mark.parametrize("series", [11, 12, 13])
def test_summary_recomputed_from_recorded_pairs(series):
    """Series 11-13 of BENCH_e2e.json were summarised, with exclusive
    quartiles, before the runner existed; its rule gives the same summary."""
    recorded = json.loads((REPO / "BENCH_e2e.json").read_text(encoding="utf-8"))["comparisons"][series]
    assert _load_bench_pairs().summarise(recorded["pairs"], _end_to_end()) == recorded["summary"]


def test_fewer_pairs_than_the_minimum_never_resolve():
    bench_pairs = _load_bench_pairs()
    pairs = [
        {"parent": {"metrics": {"w.run_qps": 10.0 + i}}, "change": {"metrics": {"w.run_qps": 100.0 + i}}}
        for i in range(bench_pairs.MIN_PAIRS - 1)
    ]
    (summary,) = bench_pairs.summarise(pairs, _end_to_end()).values()
    assert summary["pairs_better"] == bench_pairs.MIN_PAIRS - 1
    assert summary["verdict"] == "not resolved"
    pairs.append({"parent": {"metrics": {"w.run_qps": 19.0}}, "change": {"metrics": {"w.run_qps": 109.0}}})
    (summary,) = bench_pairs.summarise(pairs, _end_to_end()).values()
    assert summary["verdict"] == "better"


def test_one_pair_of_one_tree_resolves_nothing(tmp_path):
    out = tmp_path / "BENCH_e2e.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench_pairs.py"), "--base", str(REPO), "--change", str(REPO),
         "--seeds", "1", "--seconds", "1", "--workload", "short_docs_full",
         "--claim", "short_docs_full.run_qps", "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (entry,) = json.loads(out.read_text(encoding="utf-8"))["comparisons"]
    assert entry["all_correct_zero_failed"]
    assert [p["order"] for p in entry["pairs"]] == [["parent", "change"]]
    assert sorted(entry["summary"]) == sorted(f"short_docs_full.{name}" for name in _end_to_end())
    assert {s["verdict"] for s in entry["summary"].values()} == {"not resolved"}
    assert "Claimed beforehand: short_docs_full.run_qps higher." in entry["method"]
