"""The package's one runtime dependency is numpy: every other module it
imports is in the standard library or in the package itself, and only the
HTTP clients load the standard library's HTTP stack (``http.client``). The
trace model and the scoring import only the standard library, so the
commands that only read traces load neither numpy nor the retrieval stack."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import anchor_rag

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "anchor_rag"}
PACKAGE = Path(anchor_rag.__file__).parent


def imported_modules(path: Path):
    """The absolute module names of every import statement in ``path``
    (relative imports stay inside the package)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_stdlib_and_numpy():
    sources = sorted(PACKAGE.rglob("*.py"))
    imports = {(path.relative_to(PACKAGE).as_posix(), name) for path in sources for name in imported_modules(path)}
    top_level = {name.split(".")[0] for _, name in imports}
    # The scan sees the package's files and their imports, or the check below would pass on nothing.
    assert {"numpy", "anchor_rag", "json", "http"} <= top_level
    assert sorted((path, name) for path, name in imports if name.split(".")[0] not in ALLOWED) == []


def test_import_check_flags_a_third_party_module(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os\nimport yaml.loader\nfrom pandas import DataFrame\nfrom . import sibling\n"
                    "import requests\n", encoding="utf-8")
    assert [name for name in imported_modules(path) if name.split(".")[0] not in ALLOWED] == ["yaml.loader", "pandas",
                                                                                               "requests"]


def private_package_imports(path: Path):
    """``(module, name)`` for every ``_``-prefixed name that ``path`` imports
    from the package, by an absolute or a relative ``from`` import."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "anchor_rag"):
            module = "." * node.level + (node.module or "")
            yield from ((module, alias.name) for alias in node.names if alias.name.startswith("_"))


def test_package_modules_import_no_private_name_of_another():
    found = {
        (path.relative_to(PACKAGE).as_posix(), module, name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for module, name in private_package_imports(path)
    }
    assert sorted(found) == []


def test_private_import_check_flags_absolute_and_relative_imports(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from anchor_rag.traces import _scan_trace_file, read_trace_file\nfrom . import _sibling\n"
                    "from .embed_index import Index\nfrom os import _exit\n",
                    encoding="utf-8")
    assert list(private_package_imports(path)) == [("anchor_rag.traces", "_scan_trace_file"), (".", "_sibling")]


# Every local command in one fresh process, then an HTTP chat provider built.
LOCAL_COMMANDS = """
import json, sys
from pathlib import Path
from anchor_rag.cli import main

work, data, fixtures = (Path(arg) for arg in sys.argv[1:4])
traces = str(work / "traces.jsonl")
for argv in (
    ["ingest", "--data", str(data), "--format", "hotpotqa", "--out-dir", str(work)],
    ["build-index", "--chunks", str(work / "chunks.jsonl"), "--out", str(work / "index.bin"), "--embedder", "hashing"],
    ["run", "--questions", str(work / "questions.jsonl"), "--index", str(work / "index.bin"),
     "--chunks", str(work / "chunks.jsonl"), "--mode", "full", "--provider", "scripted",
     "--fixtures", str(fixtures), "--out", traces],
    ["report", "--traces", traces, "--out-dir", str(work / "report")],
    ["eval", "--traces", traces],
    ["transitions", "--traces", traces],
    ["inspect", "--traces", traces, "--question-id", "bannan-conference"],
):
    assert main(argv) == 0, argv
local = [name for name in ("http.client", "urllib.request", "email.utils") if name in sys.modules]
from anchor_rag.llm_gateway import OpenAIChatProvider
OpenAIChatProvider("http://127.0.0.1:9/v1", "m")
print(json.dumps({"local": local, "after_openai": "http.client" in sys.modules}))
"""


def test_local_commands_never_load_the_http_stack(tmp_path, bannan_docs, golden_questions):
    q = golden_questions["bannan-conference"]
    data = tmp_path / "hotpot.json"
    data.write_text(json.dumps([{"_id": q.question_id, "question": q.question, "answer": q.gold_answer,
                                 "context": [[d.title, [d.text]] for d in bannan_docs]}]), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", LOCAL_COMMANDS, str(tmp_path / "work"), str(data),
         str(Path(__file__).parent / "data" / "scripted_fixtures.jsonl")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"local": [], "after_openai": True}


def test_trace_model_and_scoring_import_only_the_stdlib_and_the_trace_model():
    for name in ("traces.py", "evaluation.py"):
        imports = set(imported_modules(PACKAGE / name))
        assert "json" in imports, name  # the scan sees the file's imports
        assert {m for m in imports if m.split(".")[0] not in sys.stdlib_module_names} <= {"anchor_rag.traces"}, name


# The four commands that only read traces, in one fresh process.
TRACE_COMMANDS = """
import json, sys
from anchor_rag.cli import main

traces, out_dir = sys.argv[1:3]
for argv in (
    ["report", "--traces", traces, "--out-dir", out_dir],
    ["eval", "--traces", traces],
    ["transitions", "--traces", traces],
    ["inspect", "--traces", traces, "--question-id", "bannan-conference"],
):
    assert main(argv) == 0, argv
heavy = ("numpy", "anchor_rag.corpus", "anchor_rag.embed_index", "anchor_rag.llm_gateway", "anchor_rag.pipeline",
         "anchor_rag.prompt_kit")
print(json.dumps([name for name in heavy if name in sys.modules]))
"""


def test_trace_commands_never_load_numpy_or_the_retrieval_stack(tmp_path, bannan_docs, golden_questions):
    from anchor_rag.cli import main

    q = golden_questions["bannan-conference"]
    data = tmp_path / "hotpot.json"
    data.write_text(json.dumps([{"_id": q.question_id, "question": q.question, "answer": q.gold_answer,
                                 "context": [[d.title, [d.text]] for d in bannan_docs]}]), encoding="utf-8")
    work, traces = tmp_path / "work", str(tmp_path / "work" / "traces.jsonl")
    for argv in (
        ["ingest", "--data", str(data), "--format", "hotpotqa", "--out-dir", str(work)],
        ["build-index", "--chunks", str(work / "chunks.jsonl"), "--out", str(work / "index.bin")],
        ["run", "--questions", str(work / "questions.jsonl"), "--index", str(work / "index.bin"),
         "--chunks", str(work / "chunks.jsonl"), "--mode", "full", "--provider", "scripted",
         "--fixtures", str(Path(__file__).parent / "data" / "scripted_fixtures.jsonl"), "--out", traces],
    ):
        assert main(argv) == 0, argv
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", TRACE_COMMANDS, traces, str(work / "report")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
