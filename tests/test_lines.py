"""The line counts of tools/lines.py: physical lines, and code lines without
comments, blank lines or docstrings."""

import importlib.util
import subprocess
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "lines", Path(__file__).resolve().parent.parent / "tools" / "lines.py"
)
lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lines)

SNIPPET = '''"""Module docstring,
on two lines."""

import math  # a comment after code


class A:
    """Class docstring."""

    # A comment line.
    def f(self, x):
        """Function docstring,

        on three lines."""
        s = """a string that is
no docstring"""
        return (x +
                1)
'''


def test_code_lines_skip_comments_blank_lines_and_docstrings():
    # Code: import, class, def, the two lines of the string and the two of
    # the return. The module has 18 physical lines.
    assert lines.counts(SNIPPET) == (18, 7)
    assert lines.counts("") == (0, 0)
    # A docstring on its def's line leaves the def a code line.
    assert lines.counts('def f(): """Doc."""\n') == (1, 1)


def test_the_table_totals_each_side_and_counts_an_absent_file_as_zero():
    here = {"a.py": (10, 5), "b.py": (4, 2)}
    there = {"a.py": (12, 6), "c.py": (3, 3)}
    rows = [row.split() for row in lines.table([here, there], "REV").splitlines()]
    assert rows == [
        ["file", "lines", "code", "REV", "lines", "code", "diff", "lines", "code"],
        ["a.py", "10", "5", "12", "6", "-2", "-1"],
        ["b.py", "4", "2", "0", "0", "+4", "+2"],
        ["c.py", "0", "0", "3", "3", "-3", "-3"],
        ["total", "14", "7", "15", "9", "-1", "-2"],
    ]
    assert lines.table([here]).splitlines()[-1].split() == ["total", "14", "7"]


def test_the_tool_counts_the_package_of_this_checkout():
    out = subprocess.run(
        [sys.executable, lines.__file__], capture_output=True, text=True, check=True
    ).stdout
    names = [row.split()[0] for row in out.splitlines()[1:]]
    assert names == sorted(p.name for p in (lines.ROOT / lines.PACKAGE).glob("*.py")) + ["total"]
