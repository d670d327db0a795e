"""Line counts of the package: physical and code lines of each src/frogpr/*.py file.

    python tools/lines.py        # this checkout's counts, per file and in total
    python tools/lines.py REV    # and REV's, read with `git show`, and the difference

A code line holds a token outside comments, blank lines and module, class or
function docstrings. A file that is absent on one side counts 0 lines there.
The counts are informational: the tool exits 0 whatever they are.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/frogpr"

# Tokens that hold no code: comments, line ends, indentation and the file's ends.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def counts(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE and tok.start not in docstrings:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def tree_counts() -> dict[str, tuple[int, int]]:
    """counts of each package file in this checkout, by file name."""
    return {p.name: counts(p.read_text()) for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def rev_counts(rev: str) -> dict[str, tuple[int, int]]:
    """counts of each package file at the git revision rev, by file name."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout

    paths = git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {p: counts(git("show", f"{rev}:{PACKAGE}/{p}")) for p in paths if p.endswith(".py")}


def table(sides: list[dict[str, tuple[int, int]]], rev: str = "") -> str:
    """One row per file and a total row: lines and code of each side, then, for two
    sides, the first's minus the second's."""
    header = ["file", "lines", "code"]
    if len(sides) == 2:
        header += [f"{rev} lines", "code", "diff lines", "code"]
    rows = [header]
    for name in [*sorted(set().union(*sides)), "total"]:
        got = [
            side.get(name, (0, 0)) if name != "total" else tuple(map(sum, zip((0, 0), *side.values())))
            for side in sides
        ]
        rows.append([name, *(str(x) for pair in got for x in pair)])
        if len(sides) == 2:
            rows[-1] += [f"{x - y:+d}" for x, y in zip(*got)]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(
        "  ".join([row[0].ljust(widths[0]), *(c.rjust(w) for c, w in zip(row[1:], widths[1:]))])
        for row in rows
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="a git revision to compare against")
    args = parser.parse_args(argv)
    sides = [tree_counts(), *([rev_counts(args.rev)] if args.rev else [])]
    print(table(sides, args.rev or ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
