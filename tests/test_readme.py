"""The README's Python quick start runs as written, so the documented API cannot rot."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_verbatim():
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {"__name__": "readme_quick_start"}
    exec(compile(block, f"{README}:quick start", "exec"), namespace)
    assert "label_extraction" in namespace["report"].per_task
