"""README examples run as written, so API drift breaks the suite, not the docs."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(section: str) -> str:
    """The first ```python block under the ``## <section>`` heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {section}\n")
    match = re.compile(r"```python\n(.*?)```", re.S).search(text, start)
    assert match is not None, f"no python block under {section!r}"
    return match.group(1)


def test_library_use_prints_what_it_says():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(python_block("Library use"), {})
    text, p_after = out.getvalue().rstrip("\n").rsplit("\n", 1)
    assert text.endswith("So the answer: \\boxed{42}")
    assert 0.0 <= float(p_after) <= 1.0
