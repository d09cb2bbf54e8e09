"""CLI checks that a transcript cannot hold: state a run leaves behind, calls
counted in process, the environment, and two runs compared.

A behaviour that is just "this argv gives this exit code, stdout and stderr"
is a case in ``tests/transcripts.py``.
"""

from __future__ import annotations

import json
import sys
import tracemalloc

import pytest

from refsum import StaticCountProvider
from refsum.cli import _RECORD_START, main
from refsum.templates import DEFAULT_PACK_TEXT

FIXTURE_ARGS = ["--taxonomy", "tests/data/fixture.tax",
                "--provider", "mock", "--counts", "tests/data/fixture20_counts.json",
                "--paper-authors", "Alice Novak and Robert Chen"]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compare_prints_the_sections_that_render(capsys, data_dir):
    bib = str(data_dir / "fixture20.bib")
    code, refset, _ = _run(capsys, "summarize", bib)
    assert code == 0
    # without citation counts the prodset plan has no dominating shape
    code, out, err = _run(capsys, "compare", bib)
    assert code == 3
    assert out == f"[refset]\n{refset}"
    assert err.endswith("refsum: prodset: missing profile fragment: dominating shape\n")


@pytest.mark.parametrize("text", [
    "", "{}", " {}", "\ufeff{}", "\ufeff \n{}", "\ufeff\ufeff{}", " \ufeff{}",
    "\x1c{}", "\x1d{}", "\x1e{}", "\x1f{}", "\u2028{}", "\u3000{}", "\ufeff\u3000\x1f{}",
    "\ufeff", "@misc{k}", "\ufeff@misc{k}", "\u200b{}",
])
def test_a_record_file_is_told_by_its_first_character_after_a_bom_and_white_space(text):
    assert bool(_RECORD_START.match(text)) == text.removeprefix("\ufeff").lstrip().startswith("{")


def test_telling_a_record_file_makes_no_copy_of_the_text():
    text = "\ufeff" + "".join(json.dumps({
        "id": f"r{i}", "title": f"On summarising reference list number {i}",
        "venue_type": "journal", "year": 2001, "citation_count": i}) + "\n"
        for i in range(2000))
    tracemalloc.start()
    try:
        found = _RECORD_START.match(text)
        _kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found
    assert peak < sys.getsizeof(text) / 4


def _count_pack_loads(monkeypatch) -> list[str]:
    """Record each call of the two pack loaders the CLI calls."""
    import refsum.cli

    calls: list[str] = []
    for name in ("default_pack", "load_template_pack"):
        def counted(*args, _real=getattr(refsum.cli, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(refsum.cli, name, counted)
    return calls


@pytest.mark.parametrize("own_pack", [False, True], ids=["default", "templates"])
def test_compare_loads_the_template_pack_once(capsys, data_dir, tmp_path, monkeypatch,
                                              own_pack):
    calls = _count_pack_loads(monkeypatch)
    flags = []
    if own_pack:
        (tmp_path / "own.pack").write_text(DEFAULT_PACK_TEXT)
        flags = ["--templates", str(tmp_path / "own.pack")]
    code, out, _ = _run(capsys, "compare", str(data_dir / "fixture20.bib"),
                        *FIXTURE_ARGS, *flags)
    assert code == 0
    assert out == (data_dir / "golden" / "compare_full.txt").read_text()
    assert calls == (["load_template_pack"] if own_pack else ["default_pack"])


@pytest.mark.parametrize("emit", ["plan", "profile"])
def test_plan_and_profile_dumps_load_no_template_pack(capsys, data_dir, tmp_path,
                                                      monkeypatch, emit):
    calls = _count_pack_loads(monkeypatch)
    code, _, _ = _run(capsys, "summarize", str(data_dir / "fixture20.bib"), *FIXTURE_ARGS,
                      "--emit", emit, "--templates", str(tmp_path / "absent.pack"))
    assert code == 0
    assert calls == []


def test_cache_dir_env_override(capsys, data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("REFSUM_CACHE_DIR", str(tmp_path))
    code, _, _ = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                      *FIXTURE_ARGS)
    assert code == 0
    assert (tmp_path / "citations.tsv").exists()


def test_summarize_reads_the_cache_without_a_provider(capsys, data_dir, tmp_path):
    written = (data_dir / "cache_v1" / "citations.tsv").read_bytes()
    (tmp_path / "citations.tsv").write_bytes(written)
    code, out, err = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                          "--taxonomy", str(data_dir / "fixture.tax"),
                          "--paper-authors", "Alice Novak and Robert Chen",
                          "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == (data_dir / "golden" / "refset_full.txt").read_text()
    assert "16 from cache, 0 from provider, 4 not found" in err
    assert (tmp_path / "citations.tsv").read_bytes() == written


def test_enrich_warms_cache_only(capsys, data_dir, tmp_path):
    code, out, err = _run(capsys, "enrich", str(data_dir / "fixture20.bib"),
                          "--provider", "mock",
                          "--counts", str(data_dir / "fixture20_counts.json"),
                          "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == ""
    assert "16 from provider" in err
    assert (tmp_path / "citations.tsv").exists()
    # second pass is all cache hits
    code, _, err = _run(capsys, "enrich", str(data_dir / "fixture20.bib"),
                        "--provider", "mock",
                        "--counts", str(data_dir / "fixture20_counts.json"),
                        "--cache-dir", str(tmp_path))
    assert "16 from cache" in err


def test_enrich_answers_from_a_cache_an_earlier_release_wrote(capsys, data_dir, tmp_path):
    """``cache_v1`` holds what an earlier ``refsum enrich`` on fixture20 wrote:
    the cache keys stay stable, so every hit lands and nothing is appended."""
    written = (data_dir / "cache_v1" / "citations.tsv").read_bytes()
    (tmp_path / "citations.tsv").write_bytes(written)
    code, _, err = _run(capsys, "enrich", str(data_dir / "fixture20.bib"),
                        "--provider", "mock",
                        "--counts", str(data_dir / "fixture20_counts.json"),
                        "--cache-dir", str(tmp_path))
    assert code == 0
    assert "16 from cache, 0 from provider" in err
    assert (tmp_path / "citations.tsv").read_bytes() == written


@pytest.mark.parametrize("command", ["summarize", "compare", "enrich"])
def test_a_cache_dir_that_cannot_be_used_is_a_configuration_error(capsys, data_dir,
                                                                   tmp_path, command):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("x")
    (tmp_path / "dir" / "citations.tsv").mkdir(parents=True)
    for cache_dir in (not_a_dir, tmp_path / "dir"):
        code, out, err = _run(capsys, command, str(data_dir / "fixture20.bib"),
                              "--provider", "mock",
                              "--counts", str(data_dir / "fixture20_counts.json"),
                              "--cache-dir", str(cache_dir))
        assert (code, out) == (2, "")
        assert err.startswith(f"refsum: configuration error: "
                              f"cannot use cache directory {cache_dir}: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
def test_a_cache_dir_that_is_a_file_is_refused_without_a_provider(capsys, data_dir,
                                                                   tmp_path, below):
    """With nothing to fetch, the cache is only read: a regular file where its
    directory should be is refused all the same, not taken for an empty cache."""
    (tmp_path / "file").write_text("x")
    cache_dir = tmp_path / "file" / below
    code, out, err = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                          "--cache-dir", str(cache_dir))
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith(f"refsum: configuration error: cannot use cache directory {cache_dir}: ")


def test_a_cache_dir_that_is_a_file_is_refused_before_any_lookup(capsys, data_dir,
                                                                  tmp_path, monkeypatch):
    calls = []
    resolve = StaticCountProvider.resolve
    monkeypatch.setattr(StaticCountProvider, "resolve",
                        lambda self, *triple: calls.append(triple) or resolve(self, *triple))
    (tmp_path / "file").write_text("x")
    code, _, err = _run(capsys, "enrich", str(data_dir / "fixture20.bib"),
                        "--provider", "mock",
                        "--counts", str(data_dir / "fixture20_counts.json"),
                        "--cache-dir", str(tmp_path / "file"))
    assert code == 2
    assert "cannot use cache directory" in err
    assert calls == []
    assert (tmp_path / "file").read_text() == "x"
