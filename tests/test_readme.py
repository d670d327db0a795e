"""The README's library quick start runs as written, and its criterion list
is the acceptance suite's."""

import re
from pathlib import Path

from frogpr.selftest import CRITERIA

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
    # The block's last line prints the verification residual.
    assert float(capsys.readouterr().out) <= 1e-6


def test_readme_lists_the_criteria_in_order():
    text = README.read_text(encoding="utf-8")
    listed = re.findall(r"^(\d+)\. \*\*([a-z-]+)\*\*", text, re.MULTILINE)
    assert listed == [(str(i), name) for i, (name, _) in enumerate(CRITERIA, 1)]
