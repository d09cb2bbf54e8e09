"""CLI transcripts: argv, exit code, stdout and stderr of one ``refsum`` run each.

Each case is one JSON file in ``tests/data/transcripts/``. Run from the
repository root to rewrite them all from the cases listed below:

    PYTHONPATH=src python tests/transcripts.py

``tests/test_transcripts.py`` runs every committed case through ``main`` in
process and compares its output byte for byte. A case may list input files;
they are written under a fresh temporary directory, ``{tmp}`` in the argv
names that directory, and in the expected output the directory is ``{tmp}``
again. Output is stored line by line, each line keeping its ``\\n``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASE_DIR = ROOT / "tests" / "data" / "transcripts"
TMP = "{tmp}"

_BIB20 = "tests/data/fixture20.bib"
_BIB43 = "tests/data/fixture43.bib"
_TAX = ["--taxonomy", "tests/data/fixture.tax"]
_AUTHORS = ["--paper-authors", "Alice Novak and Robert Chen"]
_MOCK20 = ["--provider", "mock", "--counts", "tests/data/fixture20_counts.json"]
_MOCK43 = ["--provider", "mock", "--counts", "tests/data/fixture43_counts.json"]
_FULL20 = [_BIB20, *_TAX, *_MOCK20, *_AUTHORS]


def _record(**fields) -> str:
    return json.dumps(fields, ensure_ascii=False)


_JOURNAL = _record(id="a", title="One", venue_type="journal", year=2001, citation_count=3)
_BOOK = _record(id="b", title="Three", venue_type="book", year=2003, citation_count=5)
_PACK_WITHOUT_QUANT = "[intro.lead]\nThis paper cites {total} {noun}. {lead_sentences}\n"


def _config(**keys) -> dict[str, str]:
    return {"run.json": json.dumps(keys)}


def _cases() -> dict[str, dict]:
    """name -> {"argv": [...], "files": {relative path: text}}; files is optional."""
    cache_v1 = {"c/citations.tsv":
                (ROOT / "tests/data/cache_v1/citations.tsv").read_text(encoding="utf-8")}
    cases: dict[str, dict] = {
        # Every subcommand, algorithm and emit mode.
        "summarize-refset": {"argv": ["summarize", *_FULL20]},
        "summarize-refset-offline": {"argv": ["summarize", _BIB20, *_TAX, *_AUTHORS]},
        "summarize-refset-no-counts-k2": {"argv": ["summarize", *_FULL20,
                                                   "--no-counts", "--k", "2"]},
        "summarize-prodset": {"argv": ["summarize", *_FULL20, "--algo", "prodset"]},
        "compare": {"argv": ["compare", *_FULL20]},
        "compare-unit-noun": {"argv": ["compare", *_FULL20, "--unit", "£",
                                       "--noun", "papers"]},
        "compare-config-file": {"argv": ["compare", *_FULL20, "--config", f"{TMP}/run.json"],
                                "files": _config(quantifier_most=0.6, quantifier_large=0.25,
                                                 compare_same=0.1, compare_slight=0.3,
                                                 author_score_mode="max", k=3)},
        "enrich": {"argv": ["enrich", _BIB20, *_MOCK20, "--cache-dir", f"{TMP}/c"]},
        "enrich-warm-cache": {"argv": ["enrich", _BIB20, *_MOCK20, "--cache-dir", f"{TMP}/c"],
                              "files": cache_v1},
        "summarize-cache-without-provider": {
            "argv": ["summarize", _BIB20, *_TAX, "--cache-dir", f"{TMP}/c"], "files": cache_v1},
        # malformed.bib, lenient and strict.
        "malformed": {"argv": ["summarize", "tests/data/malformed.bib"]},
        "malformed-strict": {"argv": ["summarize", "tests/data/malformed.bib", "--strict"]},
        "malformed-prodset-planning-error": {"argv": ["summarize", "tests/data/malformed.bib",
                                                      "--algo", "prodset"]},
        # Record files.
        "records-bom": {"argv": ["compare", f"{TMP}/bom.jsonl"],
                        "files": {"bom.jsonl": f"\ufeff{_JOURNAL}\n{_BOOK}\n"}},
        "records-duplicate-id": {
            "argv": ["summarize", f"{TMP}/dup.jsonl", "--emit", "profile"],
            "files": {"dup.jsonl": f"{_JOURNAL}\n{_BOOK}\n{_JOURNAL}\n"}},
        "records-crlf-u2028": {
            "argv": ["compare", f"{TMP}/crlf.jsonl"],
            "files": {"crlf.jsonl": _record(id="a", title="One\u2028two", venue_type="journal",
                                            year=2001, citation_count=3)
                      + f"\r\n{_BOOK}\r\n"}},
        "records-malformed-line": {"argv": ["summarize", f"{TMP}/bad.jsonl"],
                                   "files": {"bad.jsonl": f"{_JOURNAL}\n{{\"id\": \n"}},
        # Input errors (exit 1).
        "input-missing": {"argv": ["summarize", "tests/data/missing.bib"]},
        "input-no-usable-entries": {"argv": ["summarize", f"{TMP}/empty.bib"],
                                    "files": {"empty.bib": "% nothing here\n"}},
        "input-only-broken-entries": {
            "argv": ["summarize", f"{TMP}/broken.bib"],
            "files": {"broken.bib": "@article{a, title={T}, title={U}, year=}\n"
                                    "@article{b, title={V} year={2000}}\n"}},
        "taxonomy-missing": {"argv": ["summarize", _BIB20, "--taxonomy",
                                      "tests/data/missing.tax"]},
        # Configuration errors (exit 2).
        "config-missing": {"argv": ["summarize", _BIB20, "--config", "tests/data/missing.json"]},
        "config-not-json": {"argv": ["summarize", _BIB20, "--config", f"{TMP}/run.json"],
                            "files": {"run.json": "{not json"}},
        "config-not-object": {"argv": ["summarize", _BIB20, "--config", f"{TMP}/run.json"],
                              "files": {"run.json": "[1, 2]"}},
        "config-unknown-key": {"argv": ["summarize", _BIB20, "--config", f"{TMP}/run.json"],
                               "files": _config(quantifer_most=0.4)},
        "config-wrong-type": {"argv": ["summarize", _BIB20, "--config", f"{TMP}/run.json"],
                              "files": _config(workers="2")},
        "config-unknown-emit": {"argv": ["summarize", _BIB20, "--config", f"{TMP}/run.json"],
                                "files": _config(emit="html")},
        "config-unknown-provider": {"argv": ["summarize", _BIB20, "--config",
                                             f"{TMP}/run.json"],
                                    "files": _config(provider="scholar")},
        "config-unknown-algorithm": {"argv": ["summarize", _BIB20, "--config",
                                              f"{TMP}/run.json"],
                                     "files": _config(algo="both")},
        "config-quantifier-thresholds": {"argv": ["summarize", _BIB20, "--config",
                                                  f"{TMP}/run.json"],
                                         "files": _config(quantifier_most=0.1)},
        "config-comparison-bands": {"argv": ["summarize", _BIB20, "--config", f"{TMP}/run.json"],
                                    "files": _config(compare_same=0.5)},
        "config-author-score-mode": {"argv": ["summarize", _BIB20, "--config",
                                              f"{TMP}/run.json"],
                                     "files": _config(author_score_mode="mean")},
        "author-list-size-zero": {"argv": ["summarize", _BIB20, "--k", "0"]},
        "mock-without-counts": {"argv": ["summarize", _BIB20, "--provider", "mock"]},
        "counts-missing": {"argv": ["summarize", _BIB20, "--provider", "mock", "--counts",
                                    "tests/data/missing.json"]},
        "counts-not-a-map": {"argv": ["summarize", _BIB20, "--provider", "mock", "--counts",
                                      f"{TMP}/counts.json"],
                             "files": {"counts.json": '{"A title": "many"}'}},
        "cache-dir-is-a-file": {"argv": ["summarize", _BIB20, "--cache-dir", f"{TMP}/plain"],
                                "files": {"plain": "x"}},
        "taxonomy-bad-line": {"argv": ["summarize", _BIB20, "--taxonomy", f"{TMP}/bad.tax"],
                              "files": {"bad.tax": "one column only\n"}},
        "template-pack-missing": {"argv": ["summarize", *_FULL20, "--templates",
                                           "tests/data/missing.pack"]},
        "template-pack-malformed": {"argv": ["compare", *_FULL20, "--templates",
                                             f"{TMP}/bad.pack"],
                                    "files": {"bad.pack": "stray line\n[intro.lead]\nx\n"}},
        "enrich-without-provider": {"argv": ["enrich", _BIB20, "--cache-dir", f"{TMP}/c"]},
        "enrich-without-cache-dir": {"argv": ["enrich", _BIB20, *_MOCK20]},
        "usage-no-subcommand": {"argv": []},
        # Planning and realisation errors (exit 3).
        "prodset-without-counts": {"argv": ["summarize", _BIB20, "--algo", "prodset"]},
        "compare-without-counts": {"argv": ["compare", _BIB20, *_TAX]},
        "template-pack-without-quant": {"argv": ["summarize", *_FULL20, "--templates",
                                                 f"{TMP}/intro.pack"],
                                        "files": {"intro.pack": _PACK_WITHOUT_QUANT}},
        # Help texts.
        "help": {"argv": ["--help"]},
        "help-summarize": {"argv": ["summarize", "--help"]},
        "help-compare": {"argv": ["compare", "--help"]},
        "help-enrich": {"argv": ["enrich", "--help"]},
    }
    for algo in ("refset", "prodset"):
        for emit in ("plan", "profile"):
            cases[f"summarize-{algo}-{emit}"] = {
                "argv": ["summarize", _BIB43, *_TAX, *_MOCK43, *_AUTHORS,
                         "--algo", algo, "--emit", emit]}
    return cases


def _lines(text: str) -> list[str]:
    """``text`` split after each ``\\n`` only, so U+2028 stays inside its line."""
    parts = text.split("\n")
    return [part + "\n" for part in parts[:-1]] + ([parts[-1]] if parts[-1] else [])


def run_case(argv: list[str], files: dict[str, str] | None = None) -> dict:
    """Run ``refsum`` in process from the repository root; exit code and output."""
    from refsum.cli import main

    saved_cwd = os.getcwd()
    saved_env = {key: os.environ.get(key) for key in ("REFSUM_CACHE_DIR", "COLUMNS")}
    with tempfile.TemporaryDirectory(prefix="refsum-transcript-") as tmp:
        for name, text in (files or {}).items():
            path = Path(tmp, name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        try:
            os.chdir(ROOT)
            os.environ.pop("REFSUM_CACHE_DIR", None)
            os.environ["COLUMNS"] = "80"   # argparse wraps help and usage to this width
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([arg.replace(TMP, tmp) for arg in argv])
                except SystemExit as exc:   # argparse: --help and usage errors
                    code = exc.code
        finally:
            os.chdir(saved_cwd)
            for key, value in saved_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
    return {"exit": code, "stdout": _lines(out.getvalue().replace(tmp, TMP)),
            "stderr": _lines(err.getvalue().replace(tmp, TMP))}


def main() -> int:
    CASE_DIR.mkdir(parents=True, exist_ok=True)
    cases = _cases()
    for stale in set(CASE_DIR.glob("*.json")) - {CASE_DIR / f"{n}.json" for n in cases}:
        stale.unlink()
    for name, case in sorted(cases.items()):
        case = {**case, **run_case(case["argv"], case.get("files"))}
        text = json.dumps(case, ensure_ascii=False, indent=1) + "\n"
        (CASE_DIR / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"{case['exit']}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
