"""The desk benchmark's result tables equal the committed golden tables.

Each table in ``tests/golden`` is recomputed on the session ``desk_benchmark``
fixture and compared with its file as text, so every TPR, mean and count must
be equal to the last bit.  ``python tests/golden/update.py`` rewrites the files
and prints what moved; see its docstring for what the tables hold.
"""

import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

import update  # noqa: E402


@pytest.mark.parametrize("name", list(update.TABLES))
def test_table_equals_the_committed_one(name, desk_benchmark):
    assert update.text(name, desk_benchmark) == (GOLDEN / f"{name}.json").read_text()
