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


def test_summarize_refset_exit_zero(capsys, data_dir):
    code, out, err = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                          *FIXTURE_ARGS)
    assert code == 0
    assert "This paper cites 20 references." in out
    assert "citation counts: 20 looked up" in err


def test_summarize_matches_golden(capsys, data_dir):
    code, out, _ = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        *FIXTURE_ARGS)
    assert code == 0
    assert out == (data_dir / "golden" / "refset_full.txt").read_text()


def test_offline_matches_golden(capsys, data_dir):
    code, out, _ = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        "--taxonomy", str(data_dir / "fixture.tax"),
                        "--provider", "off",
                        "--paper-authors", "Alice Novak and Robert Chen")
    assert code == 0
    assert out == (data_dir / "golden" / "refset_offline.txt").read_text()


def test_compare_matches_golden(capsys, data_dir):
    code, out, _ = _run(capsys, "compare", str(data_dir / "fixture20.bib"),
                        "--taxonomy", str(data_dir / "fixture.tax"),
                        "--provider", "mock", "--counts", str(data_dir / "fixture20_counts.json"),
                        "--paper-authors", "Alice Novak and Robert Chen")
    assert code == 0
    assert out == (data_dir / "golden" / "compare_full.txt").read_text()


def test_emit_profile_has_no_prose(capsys, data_dir):
    code, out, _ = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        *FIXTURE_ARGS, "--emit", "profile")
    assert code == 0
    assert out.startswith("total\t20\n")
    assert "Most references" not in out


def test_emit_plan(capsys, data_dir):
    code, out, _ = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        *FIXTURE_ARGS, "--emit", "plan")
    assert code == 0
    assert out.startswith("plan\trefset\n")
    assert "paragraph\tauthors" in out


@pytest.mark.parametrize("algo", ["refset", "prodset"])
@pytest.mark.parametrize("emit", ["plan", "profile"])
def test_emit_dump_is_pinned(capsys, data_dir, algo, emit):
    code, out, _ = _run(capsys, "summarize", str(data_dir / "fixture43.bib"),
                        "--taxonomy", str(data_dir / "fixture.tax"),
                        "--provider", "mock",
                        "--counts", str(data_dir / "fixture43_counts.json"),
                        "--paper-authors", "Alice Novak and Robert Chen",
                        "--algo", algo, "--emit", emit)
    assert code == 0
    assert out == (data_dir / "dumps" / f"{algo}_{emit}.txt").read_text()


def test_unreadable_path_exit_one(capsys, tmp_path):
    missing = tmp_path / "missing.bib"
    code, out, err = _run(capsys, "summarize", str(missing))
    assert code == 1
    assert str(missing) in err


@pytest.mark.parametrize("flags, code, message", [
    (["--config"], 2, "configuration error: cannot read config file"),
    (["--provider", "mock", "--counts"], 2, "configuration error: cannot read counts file"),
    (["--taxonomy"], 1, "cannot read taxonomy"),
])
def test_unreadable_file_named_by_a_flag_is_refused(capsys, data_dir, tmp_path,
                                                    flags, code, message):
    missing = tmp_path / "missing"
    result = _run(capsys, "summarize", str(data_dir / "fixture20.bib"), *flags, str(missing))
    assert result[:2] == (code, "")
    assert result[2].startswith(f"refsum: {message} {missing}: ")


@pytest.mark.parametrize("flags, code, message", [
    ([], 1, "input {} is not valid UTF-8 (byte 2)"),
    (["--taxonomy"], 1, "taxonomy {} is not valid UTF-8 (byte 2)"),
    (["--templates"], 2, "configuration error: template pack {} is not valid UTF-8 (byte 2)"),
    (["--config"], 2, "configuration error: config file {} is not valid UTF-8 (byte 2)"),
    # The counts file is refused through the ValueError of any malformed map.
    (["--provider", "mock", "--counts"], 2,
     "configuration error: counts file {} is not a title->count map: "
     "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
], ids=["input", "taxonomy", "pack", "config", "counts"])
def test_a_file_that_is_not_utf8_is_refused_by_name(capsys, data_dir, tmp_path,
                                                    flags, code, message):
    bad = tmp_path / "bad.bib"
    bad.write_bytes(b"ok\xff\n")
    argv = [str(data_dir / "fixture20.bib"), *flags, str(bad)] if flags else [str(bad)]
    assert _run(capsys, "summarize", *argv) == (code, "", f"refsum: {message.format(bad)}\n")


def test_empty_reference_list_exit_one(capsys, tmp_path):
    empty = tmp_path / "empty.bib"
    empty.write_text("% nothing here\n")
    code, _, err = _run(capsys, "summarize", str(empty))
    assert code == 1


def test_a_plain_text_file_that_is_not_bib_is_scanned_as_bibtex(capsys, tmp_path):
    notes = tmp_path / "notes.txt"
    notes.write_text("just some words\n")
    assert _run(capsys, "summarize", str(notes)) == \
        (1, "", f"refsum: {notes}: no usable entries\n")


def test_no_usable_entries_counts_the_errors_and_not_the_warnings(capsys, tmp_path):
    bib = tmp_path / "broken.bib"   # one duplicate-field warning, two errors
    bib.write_text("@article{a, title={T}, title={U}, year=}\n"
                   "@article{b, title={V} year={2000}}\n")
    assert _run(capsys, "summarize", str(bib)) == (1, "", (
        f"{bib}: warning (byte 23, entry 'a'): duplicate field 'title' in entry 'a' "
        "overwrites the earlier value\n"
        f"{bib}: error (byte 39, entry 'a'): expected a field value in entry 'a'\n"
        f"{bib}: error (byte 63, entry 'b'): expected ',' or '}}' after field 'title' "
        "in entry 'b'\n"
        f"refsum: {bib}: no usable entries (2 errors)\n"))


def test_config_error_exit_two(capsys, data_dir):
    code, _, err = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        "--provider", "mock")
    assert code == 2
    assert "configuration error" in err


def test_author_list_size_zero_exit_two(capsys, data_dir):
    code, out, err = _run(capsys, "summarize", str(data_dir / "fixture20.bib"), "--k", "0")
    assert code == 2 and out == ""
    assert err.endswith("refsum: configuration error: author list size must be at least 1\n")


def test_summarize_shows_its_warnings_before_a_planning_error(capsys, data_dir):
    code, out, err = _run(capsys, "summarize", str(data_dir / "malformed.bib"),
                          "--algo", "prodset")
    assert (code, out) == (3, "")
    assert "entry 'good5'" in err
    assert err.endswith("\nrefsum: missing profile fragment: dominating shape\n")


def test_planning_error_exit_three(capsys, data_dir):
    # prodset without any citation counts cannot report the dominating shape
    code, _, err = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        "--provider", "off", "--algo", "prodset")
    assert code == 3
    assert "dominating shape" in err


def test_realization_error_exit_three(capsys, data_dir, tmp_path):
    pack = tmp_path / "broken.pack"
    pack.write_text("[settings]\nnoun = references\n")
    code, _, err = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        *FIXTURE_ARGS, "--templates", str(pack))
    assert code == 3


def test_malformed_corpus_warns_but_succeeds(capsys, data_dir):
    code, out, err = _run(capsys, "summarize", str(data_dir / "malformed.bib"),
                          "--provider", "off")
    assert code == 0
    assert err.count("error (") == 1
    assert "good5" in err


def test_strict_mode_fails_on_parse_error(capsys, data_dir):
    code, _, err = _run(capsys, "summarize", str(data_dir / "malformed.bib"),
                        "--provider", "off", "--strict")
    assert code == 1
    assert "good5" in err


def test_compare_produces_both_labelled_summaries(capsys, data_dir):
    code, out, _ = _run(capsys, "compare", str(data_dir / "fixture43.bib"),
                        "--taxonomy", str(data_dir / "fixture.tax"),
                        "--provider", "mock",
                        "--counts", str(data_dir / "fixture43_counts.json"))
    assert code == 0
    assert out.startswith("[refset]\n")
    assert "\n[prodset]\n" in out
    assert out.count("43 references") >= 2


def test_compare_renders_both_summaries_whatever_the_config_file_asks(capsys, data_dir,
                                                                     tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"algo": "prodset", "emit": "profile"}))
    args = [str(data_dir / "fixture20.bib"), "--taxonomy", str(data_dir / "fixture.tax"),
            "--provider", "mock", "--counts", str(data_dir / "fixture20_counts.json"),
            "--paper-authors", "Alice Novak and Robert Chen"]
    code, out, _ = _run(capsys, "compare", *args, "--config", str(config))
    assert code == 0
    assert out == (data_dir / "golden" / "compare_full.txt").read_text()


def test_compare_prints_the_sections_that_render(capsys, data_dir):
    bib = str(data_dir / "fixture20.bib")
    code, refset, _ = _run(capsys, "summarize", bib)
    assert code == 0
    # without citation counts the prodset plan has no dominating shape
    code, out, err = _run(capsys, "compare", bib)
    assert code == 3
    assert out == f"[refset]\n{refset}"
    assert err.endswith("refsum: prodset: missing profile fragment: dominating shape\n")


def test_jsonl_input(capsys, tmp_path):
    rows = [
        {"id": "a", "title": "A", "venue_type": "journal", "year": 2001,
         "citation_count": 4, "authors": ["Ann Ash"], "self_citation": False},
        {"id": "b", "title": "B", "venue_type": "proceedings", "year": 2005,
         "citation_count": 9, "authors": ["Ben Birch"], "self_citation": True},
    ]
    path = tmp_path / "refs.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    code, out, _ = _run(capsys, "summarize", str(path), "--provider", "off")
    assert code == 0
    assert "This paper cites 2 references." in out
    assert "50% are self-citations" in out


def test_a_record_file_with_a_byte_order_mark_is_read_as_records(capsys, tmp_path):
    path = tmp_path / "bom.jsonl"
    path.write_text('\ufeff{"id": "a", "title": "A", "venue_type": "journal", '
                    '"year": 2001, "self_citation": false}\n', encoding="utf-8")
    code, out, err = _run(capsys, "summarize", str(path))
    assert (code, err) == (0, "")
    assert "This paper cites 1 references." in out


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


def test_config_file_with_flag_override(capsys, data_dir, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "taxonomy": str(data_dir / "fixture.tax"),
        "provider": "mock",
        "counts": str(data_dir / "fixture20_counts.json"),
        "paper_authors": "Alice Novak and Robert Chen",
        "k": 3,
    }))
    code, out, _ = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        "--config", str(config))
    assert code == 0
    assert "The 3 authors with the highest citation counts" in out
    # flags beat the file
    code, out, _ = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        "--config", str(config), "--k", "2")
    assert "The 2 authors with the highest citation counts" in out


def test_config_file_unknown_key_exit_two(capsys, data_dir, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"quantifer_most": 0.4}))
    code, _, err = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        "--config", str(config))
    assert code == 2
    assert "unknown keys" in err


def test_config_file_wrong_value_type_exit_two(capsys, data_dir, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"workers": "2", "provider": "mock",
                                  "counts": str(data_dir / "fixture20_counts.json")}))
    code, _, err = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        "--config", str(config))
    assert code == 2
    assert "configuration error" in err and "'workers' must be int, not str" in err


@pytest.mark.parametrize("content, message", [
    ("{not json", "is not valid JSON"),
    ("[]", "must hold a JSON object"),
    ('{"emit": "x"}', "unknown emit mode 'x'"),
])
def test_malformed_config_file_exit_two(capsys, data_dir, tmp_path, content, message):
    config = tmp_path / "run.json"
    config.write_text(content)
    code, out, err = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                          "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith("refsum: configuration error: ") and message in err


@pytest.mark.parametrize("content, message", [
    ("{not json", "Expecting property name"),
    ("[]", "expected a JSON object, not list"),
    ('{"Alpha": -5}', "count -5 for 'Alpha' is not a non-negative integer"),
])
def test_counts_file_that_is_not_a_title_count_map_exit_two(capsys, data_dir, tmp_path,
                                                             content, message):
    counts = tmp_path / "counts.json"
    counts.write_text(content)
    code, out, err = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                          "--provider", "mock", "--counts", str(counts))
    assert (code, out) == (2, "")
    assert err.startswith(f"refsum: configuration error: counts file {counts} "
                          "is not a title->count map: ") and message in err


@pytest.mark.parametrize("command", ["summarize", "compare"])
@pytest.mark.parametrize("text, message", [
    (None, "cannot read template pack {}: "),
    ("junk\n[intro.lead]\nx\n", "template pack {}: content before the first section "
                                "header: 'junk'\n"),
], ids=["missing", "malformed"])
def test_missing_template_pack_exit_two(capsys, data_dir, tmp_path, command, text, message):
    """A pack that cannot be read or parsed is a configuration error,
    reported once, even under compare."""
    pack = tmp_path / "nonexistent.pack"
    if text is not None:
        pack.write_text(text)
    code, out, err = _run(capsys, command, str(data_dir / "fixture20.bib"),
                          "--templates", str(pack))
    assert code == 2 and out == ""
    assert err.startswith("refsum: configuration error: " + message.format(pack))
    assert err.count("configuration error") == 1


@pytest.mark.parametrize("command", ["summarize", "compare"])
def test_a_bad_template_pack_is_refused_before_the_input_is_read(capsys, tmp_path, command):
    pack = tmp_path / "absent.pack"
    code, out, err = _run(capsys, command, str(tmp_path / "absent.bib"),
                          "--templates", str(pack))
    assert (code, out) == (2, "")
    assert err.startswith(f"refsum: configuration error: cannot read template pack {pack}: ")
    assert err.count("\n") == 1


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


def test_enrich_requires_provider_and_cache(capsys, data_dir, monkeypatch):
    code, _, _ = _run(capsys, "enrich", str(data_dir / "fixture20.bib"))
    assert code == 2
    monkeypatch.delenv("REFSUM_CACHE_DIR", raising=False)
    code, _, err = _run(capsys, "enrich", str(data_dir / "fixture20.bib"), "--provider", "mock",
                        "--counts", str(data_dir / "fixture20_counts.json"))
    assert code == 2
    assert "enrich needs --cache-dir" in err


def test_no_counts_flag_hides_numbers(capsys, data_dir):
    code, out, _ = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        *FIXTURE_ARGS, "--no-counts")
    assert code == 0
    assert "citations)" not in out
    assert "The 7 authors with the highest citation counts" in out


def test_unit_and_noun_flags_reach_the_text(capsys, data_dir):
    code, out, _ = _run(capsys, "summarize", str(data_dir / "fixture20.bib"), *FIXTURE_ARGS,
                        "--algo", "prodset", "--unit", "£", "--noun", "papers")
    assert code == 0
    assert "The citation count of the 20 papers ranges from £7 to £310" in out


@pytest.mark.parametrize("flags, config, shown", [
    ([], None, False),
    (["--no-counts"], None, False),
    ([], {"show_counts": True}, True),
    (["--no-counts"], {"show_counts": True}, False),
], ids=["pack", "flag", "config", "flag-over-config"])
def test_show_counts_comes_from_the_flag_then_the_config_file_then_the_pack(
        capsys, data_dir, tmp_path, flags, config, shown):
    pack = tmp_path / "quiet.pack"
    pack.write_text(DEFAULT_PACK_TEXT.replace("show_counts = yes", "show_counts = no"))
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        flags = [*flags, "--config", str(tmp_path / "run.json")]
    code, out, _ = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        *FIXTURE_ARGS, "--templates", str(pack), *flags)
    assert code == 0
    assert ("citations)" in out) is shown


def test_quantifier_thresholds_from_config_file(capsys, data_dir, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"quantifier_most": 0.8, "quantifier_large": 0.5}))
    code, out, _ = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        "--config", str(config), "--provider", "off",
                        "--taxonomy", str(data_dir / "fixture.tax"))
    assert code == 0
    # 55% no longer clears the raised "most" bar
    assert "A large proportion of references (55%) is from proceedings." in out


def test_emit_profile_prodset(capsys, data_dir):
    code, out, _ = _run(capsys, "summarize", str(data_dir / "fixture20.bib"),
                        *FIXTURE_ARGS, "--algo", "prodset", "--emit", "profile")
    assert code == 0
    assert "\nshape\tcitation_count\t" in out
    assert "\nimportance\t" in out
    assert "\ncomparison\t" in out


def test_malformed_jsonl_exit_one(capsys, tmp_path):
    path = tmp_path / "refs.jsonl"
    for line, problem in (("not json at all", "not a valid record object"),
                          ('["a", "A"]', "expected an object")):
        path.write_text('{"id": "a", "title": "A"}\n' + line + "\n")
        code, _, err = _run(capsys, "summarize", str(path), "--provider", "off")
        assert code == 1
        assert f"line 2: {problem}" in err
