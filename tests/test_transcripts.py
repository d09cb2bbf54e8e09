"""Every committed CLI transcript still holds, byte for byte.

A case that changes on purpose is rewritten by ``tests/transcripts.py``.
"""

from __future__ import annotations

import json

import pytest

from transcripts import CASE_DIR, run_case

CASES = sorted(CASE_DIR.glob("*.json"))


def test_the_matrix_has_cases():
    assert len(CASES) >= 50


@pytest.mark.parametrize("path", CASES, ids=[path.stem for path in CASES])
def test_transcript(path):
    case = json.loads(path.read_text(encoding="utf-8"))
    actual = run_case(case["argv"], case.get("files"))
    assert actual == {key: case[key] for key in ("exit", "stdout", "stderr")}
