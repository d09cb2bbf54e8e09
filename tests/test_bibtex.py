from __future__ import annotations

import pytest

from refsum import BibParseError, parse_bibtex, scan_bibtex, serialize_entries


def test_single_entry_field_mapping():
    entries = parse_bibtex(
        "@article{a1, title={T}, author={John Smith}, year={2014}, journal={J. of AI}}")
    assert len(entries) == 1
    e = entries[0]
    assert e.entry_kind == "article"
    assert e.cite_key == "a1"
    assert e.fields == {"title": "T", "author": "John Smith",
                        "year": "2014", "journal": "J. of AI"}


def test_empty_input():
    assert parse_bibtex("") == []


def test_missing_comma_is_an_error_naming_the_entry():
    with pytest.raises(BibParseError) as exc:
        parse_bibtex("@book{b1 title={X}}")
    assert exc.value.cite_key == "b1"
    assert "b1" in str(exc.value)


def test_entries_in_source_order():
    entries = parse_bibtex("@misc{z1, note={a}}\n@misc{a1, note={b}}")
    assert [e.cite_key for e in entries] == ["z1", "a1"]


def test_comment_and_preamble_skipped():
    text = """
    @comment{ all of this {nested} stuff is ignored }
    @preamble{ "\\newcommand{\\x}{y}" }
    @misc{k1, note={kept}}
    """
    entries = parse_bibtex(text)
    assert [e.cite_key for e in entries] == ["k1"]


def test_string_macro_resolution_and_concatenation():
    text = """
    @string{jmlr = {Journal of Machine Learning Research}}
    @article{m1, journal = jmlr, title = {A}}
    @article{m2, title = {Part } # {One} # " and " # {Two}}
    """
    entries = parse_bibtex(text)
    assert entries[0].fields["journal"] == "Journal of Machine Learning Research"
    assert entries[1].fields["title"] == "Part One and Two"


def test_macro_defined_later_is_not_visible_earlier():
    text = """
    @article{m1, journal = jmlr, title = {A}}
    @string{jmlr = {Journal of Machine Learning Research}}
    """
    entries, issues = scan_bibtex(text)
    assert entries[0].fields["journal"] == "jmlr"
    assert any("undefined macro" in i.message for i in issues)
    assert all(i.severity == "warning" for i in issues)


def test_nested_braces_and_quotes():
    entries = parse_bibtex(
        '@article{n1, title = {The {B}ig {Nested {Deep}} One}, note = "say {"}hi{"} now"}')
    assert entries[0].fields["title"] == "The {B}ig {Nested {Deep}} One"
    assert entries[0].fields["note"] == 'say {"}hi{"} now'


def test_bare_number_value():
    entries = parse_bibtex("@article{y1, year = 2014, title={T}}")
    assert entries[0].fields["year"] == "2014"


def test_unbalanced_braces_error_names_offset_and_key():
    with pytest.raises(BibParseError) as exc:
        parse_bibtex("@article{u1, title = {never closed}")
    assert exc.value.cite_key == "u1"
    assert exc.value.offset is not None


def test_duplicate_cite_key_lists_both_occurrences():
    text = "@misc{dup, note={one}}\n@misc{dup, note={two}}"
    with pytest.raises(BibParseError) as exc:
        parse_bibtex(text)
    message = str(exc.value)
    assert "dup" in message and "first at byte" in message and "again at byte" in message
    # lenient scan keeps the first occurrence
    entries, issues = scan_bibtex(text)
    assert len(entries) == 1
    assert entries[0].fields["note"] == "one"


def test_duplicate_field_overwrites_with_warning():
    entries, issues = scan_bibtex("@misc{d1, note={a}, note={b}}")
    assert entries[0].fields["note"] == "b"
    assert any(i.severity == "warning" and "duplicate field" in i.message for i in issues)


def test_paren_delimited_entry():
    entries = parse_bibtex("@article(p1, title={T})")
    assert entries[0].cite_key == "p1"


def test_lenient_scan_recovers_after_malformed_entry():
    text = """
    @misc{ok1, note={fine}}
    @book{bad title={X}}
    @misc{ok2, note={also fine}}
    """
    entries, issues = scan_bibtex(text)
    assert [e.cite_key for e in entries] == ["ok1", "ok2"]
    errors = [i for i in issues if i.severity == "error"]
    assert len(errors) == 1 and errors[0].cite_key == "bad"


def test_entry_on_the_line_after_a_malformed_one_survives():
    text = ("@article{a, title={One}, year=2020}\n"
            "@article{b, title={Two {unclosed}, year=2021}\n"
            "@article{c, title={Three}, year=2022}\n"
            "@article{d, title={Four}, year=2023}\n")
    entries, issues = scan_bibtex(text)
    assert [e.cite_key for e in entries] == ["a", "c", "d"]
    errors = [i for i in issues if i.severity == "error"]
    assert len(errors) == 1 and errors[0].cite_key == "b"


def test_round_trip_on_fixture_corpus(data_dir):
    for name in ("fixture20.bib", "fixture43.bib", "malformed.bib"):
        entries, _ = scan_bibtex((data_dir / name).read_text())
        reparsed = parse_bibtex(serialize_entries(entries))
        assert [(e.entry_kind, e.cite_key, e.fields) for e in reparsed] == \
               [(e.entry_kind, e.cite_key, e.fields) for e in entries]


def test_malformed_corpus_statistics(data_dir):
    entries, issues = scan_bibtex((data_dir / "malformed.bib").read_text())
    errors = [i for i in issues if i.severity == "error"]
    assert len(errors) == 1
    assert errors[0].cite_key == "good5"
    assert len(entries) >= 14
    kinds = {e.entry_kind for e in entries}
    assert {"article", "inproceedings", "book", "misc"} <= kinds
