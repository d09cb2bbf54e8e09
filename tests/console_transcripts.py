"""Every committed CLI transcript holds through the installed ``refsum`` script.

``tests/test_transcripts.py`` replays the cases through ``main`` in process;
this module replays the same cases through the console script on ``PATH``, as
a child process. Its name keeps it out of the default test run. After
``pip install -e .``, run it by path:

    python -m pytest -q tests/console_transcripts.py

Without ``refsum`` on ``PATH`` every case fails.
"""

from __future__ import annotations

import json
import shutil

import pytest

from transcripts import CASE_DIR, run_case

CASES = sorted(CASE_DIR.glob("*.json"))
REFSUM = shutil.which("refsum")


@pytest.mark.parametrize("path", CASES, ids=[path.stem for path in CASES])
def test_console_transcript(path):
    assert REFSUM is not None, "no refsum on PATH: run pip install -e . first"
    case = json.loads(path.read_text(encoding="utf-8"))
    actual = run_case(case["argv"], case.get("files"), command=REFSUM)
    assert actual == {key: case[key] for key in ("exit", "stdout", "stderr")}
