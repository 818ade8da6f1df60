"""The README's Python quick start runs and its JSON examples load, so they cannot rot."""

import json
import re
from pathlib import Path

from modelprint.harness import BenchmarkConfig
from modelprint.schemes import SchemeSpec, mistake_match_scheme

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_verbatim():
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {"__name__": "readme_quick_start"}
    exec(compile(block, f"{README}:quick start", "exec"), namespace)
    assert "label_extraction" in namespace["report"].per_task


def json_block(caption: str) -> dict:
    """The JSON block that follows ``caption`` in the README."""
    section = README.read_text().split(caption, 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def test_config_example_loads():
    config = BenchmarkConfig.from_record(json_block("Benchmark config (`config.json`):"))
    methods = [tag.method for tag in config.stolen]
    assert methods == ["same", "prune", "quantize", "finetune", "label_extraction"]


def test_scheme_example_loads():
    spec = SchemeSpec.from_record(json_block("Scheme spec (`baseline.json`):"))
    assert spec == mistake_match_scheme()
