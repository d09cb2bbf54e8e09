"""Every committed CLI transcript still holds, byte for byte.

A case that changes on purpose is rewritten by ``tests/transcripts.py``.
"""

from __future__ import annotations

import json

import pytest

from transcripts import CASE_DIR, ROOT, _cases, run_case

CASES = sorted(CASE_DIR.glob("*.json"))
LISTED = _cases()


def test_the_committed_cases_are_the_listed_cases():
    assert {path.stem for path in CASES} == set(LISTED)


@pytest.mark.parametrize("path", CASES, ids=[path.stem for path in CASES])
def test_a_committed_case_is_written_from_its_listing(path):
    # A listing edited but not regenerated, or a case file edited by hand,
    # differs from what tests/transcripts.py would write for it.
    committed = path.read_text(encoding="utf-8")
    case = json.loads(committed)
    output = {key: case[key] for key in ("exit", "stdout", "stderr")}
    written = {**LISTED.get(path.stem, {}), **output}
    assert committed == json.dumps(written, ensure_ascii=False, indent=1) + "\n"


@pytest.mark.parametrize("path", CASES, ids=[path.stem for path in CASES])
def test_transcript(path):
    case = json.loads(path.read_text(encoding="utf-8"))
    actual = run_case(case["argv"], case.get("files"))
    assert actual == {key: case[key] for key in ("exit", "stdout", "stderr")}


# Each golden and --emit dump is the stdout of a case; compare's text is the
# same whatever the config file asks.
_PINNED = [
    ("golden/refset_full.txt", "summarize-refset"),
    ("golden/refset_offline.txt", "summarize-refset-offline"),
    ("golden/compare_full.txt", "compare"),
    ("golden/compare_full.txt", "compare-ignores-config-algo-emit"),
    *((f"dumps/{algo}_{emit}.txt", f"summarize-{algo}-{emit}")
      for algo in ("refset", "prodset") for emit in ("plan", "profile")),
]


@pytest.mark.parametrize("pinned, name", _PINNED, ids=[name for _, name in _PINNED])
def test_a_pinned_file_is_its_cases_stdout(pinned, name):
    case = json.loads((CASE_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert "".join(case["stdout"]) == (ROOT / "tests/data" / pinned).read_text(encoding="utf-8")
