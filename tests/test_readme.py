"""The README's code snippets still run and still print what it shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def snippet_after(marker: str) -> tuple:
    """The python block after ``marker`` and the text block that follows
    it: the code and the output the README shows for it."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(marker):]
    match = re.search(r"```python\n(.*?)```\s*```text\n(.*?)```", section,
                      re.S)
    return match[1], match[2]


def test_criterion_06_sweep_snippet_prints_its_documented_output():
    code, shown = snippet_after("The two rows of the trade-off come from "
                                "this sweep:")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue() == shown
