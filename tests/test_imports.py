"""The package's runtime dependencies are numpy and requests: every other
module it imports is in the standard library or in the package itself."""

import ast
import sys
from pathlib import Path

import anchor_rag

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "requests", "anchor_rag"}
PACKAGE = Path(anchor_rag.__file__).parent


def imported_modules(path: Path):
    """The absolute module names of every import statement in ``path``
    (relative imports stay inside the package)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_stdlib_numpy_and_requests():
    sources = sorted(PACKAGE.rglob("*.py"))
    imports = {(path.relative_to(PACKAGE).as_posix(), name) for path in sources for name in imported_modules(path)}
    top_level = {name.split(".")[0] for _, name in imports}
    # The scan sees the package's files and their imports, or the check below would pass on nothing.
    assert {"numpy", "requests", "anchor_rag", "json"} <= top_level
    assert sorted((path, name) for path, name in imports if name.split(".")[0] not in ALLOWED) == []


def test_import_check_flags_a_third_party_module(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os\nimport yaml.loader\nfrom pandas import DataFrame\nfrom . import sibling\n",
                    encoding="utf-8")
    assert [name for name in imported_modules(path) if name.split(".")[0] not in ALLOWED] == ["yaml.loader", "pandas"]
