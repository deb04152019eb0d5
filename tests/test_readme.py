"""README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments() -> None:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    want = re.findall(r"^print\(.*?#\s*(.*)$", block, re.M)
    assert len(want) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
