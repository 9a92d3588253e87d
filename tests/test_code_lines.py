"""The code-line counter against a hand count."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# 13 code lines: the 12 marked "# code" and the middle line of NAME's
# string. Every other line is a docstring, a comment or blank.
FIXTURE = '''\
"""Module docstring,
over two lines."""

# A comment line.
import os  # code


class Thing:  # code
    """Class docstring."""

    NAME = """a string that is  # code
not a docstring, over
three lines"""  # code

    def method(self):  # code
        """Method docstring,

        with a blank line inside."""
        text = "x"  # code
        "a string statement after the first is no docstring"  # code
        return os.sep + text  # code


async def run():  # code
    """Async docstring."""
    return [  # code

        1,  # code
    ]  # code
'''


def _run(*args):
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "code_lines.py"), *args],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()


def test_code_lines_match_a_hand_count(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n', encoding="utf-8")
    assert _run(str(tmp_path)) == ["     0  empty.py", "    13  fixture.py", "    13  total"]


def test_code_lines_count_the_package_by_default():
    *modules, total = _run()
    assert any(line.endswith("  pipeline.py") for line in modules)
    assert int(total.split()[0]) == sum(int(line.split()[0]) for line in modules)
