"""The benchmark's hooks into the package still resolve.

``perfbench/tracing.py`` patches anchor_rag functions and methods by name,
and ``perfbench/gen.py`` reads the stage system prompts through
``prompt_kit.DEFAULT_LIBRARY``. Renaming or deleting one of those names
breaks ``perfbench/run.py --trace 1`` or the remote workload; these tests
make it fail in the unit suite too.

``embed_index.Index._top_k`` is the hook benchmark v2's tracer will patch:
every search and every question's retrieval selects its hits there, so
timing that one method times all of retrieval.
"""

import importlib.util
import sys
from pathlib import Path

import anchor_rag
from anchor_rag import embed_index, prompt_kit
from anchor_rag.corpus import QAItem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    name = "perfbench_tracing_under_test"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _package_namespaces():
    """Every anchor_rag module and class namespace, as {owner: {name: value}}."""
    spaces = {}
    for mod in [m for name, m in sys.modules.items() if name.startswith(anchor_rag.__name__)]:
        spaces[mod] = dict(vars(mod))
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                spaces[value] = dict(vars(value))
    return spaces


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = _load_tracing()
    from anchor_rag import cli, evaluation, pipeline  # noqa: F401 - the tracer patches these

    before = _package_namespaces()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert tracer._patches, "install patched nothing"
        assert evaluation.render_savings_table.__wrapped__ is before[evaluation]["render_savings_table"]
    finally:
        tracer.uninstall()
    assert _package_namespaces() == before


def test_workload_generator_template_lookup():
    q = QAItem(question_id="q", question="Q?", gold_answer="A", dataset_tag="hotpotqa")
    system1, _ = prompt_kit.DEFAULT_LIBRARY.pair("system1")
    assert system1 == prompt_kit.render_system1(q).system_text
    for stage in ("system1", "triple_gen", "system2"):
        assert prompt_kit.DEFAULT_LIBRARY.pair(stage) == prompt_kit.template_pair(stage)


def test_retrieval_hook_for_benchmark_v2_exists():
    assert callable(embed_index.Index.__dict__["_top_k"])
