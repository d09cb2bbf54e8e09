from __future__ import annotations

import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import brute_brace_close, serialize_entries
from refsum import BibParseError, parse_bibtex, scan_bibtex
from refsum.bibtex import _Scanner

# BibTeX punctuation and block openers, plus 2-, 3- and 4-byte UTF-8 characters.
_FRAGMENTS = ["@misc{", "@misc{k,", "@string{", "@comment{", "@", "{", "}", "(", ")", ",",
              "=", "title=", "#", '"', " ", "\n", "k", "2020", "é", "€", "😀"]
bib_like_text = st.lists(st.sampled_from(_FRAGMENTS), max_size=60).map("".join)
_BLOCK_OPENERS = ["@string(", "@comment(", "@preamble{", "@preamble(", "@misc(k,"]
garbage = st.lists(st.sampled_from(_FRAGMENTS + _BLOCK_OPENERS), max_size=60).map("".join)


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
    # b's title is followed by junk, or never closes
    for title in ("{Two {unclosed}", "{Two {unclosed"):
        text = ("@article{a, title={One}, year=2020}\n"
                f"@article{{b, title={title}, year=2021}}\n"
                "@article{c, title={Three}, year=2022}\n"
                "@article{d, title={Four}, year=2023}\n")
        entries, issues = scan_bibtex(text)
        assert [e.cite_key for e in entries] == ["a", "c", "d"]
        errors = [i for i in issues if i.severity == "error"]
        assert len(errors) == 1 and errors[0].cite_key == "b"


@pytest.mark.parametrize("indent", [" ", "\t ", "\u3000\u3000"])
def test_an_indented_entry_on_the_line_after_a_broken_one_survives(indent):
    # the fault is found at the indented '@' itself, which starts a block
    text = f"@misc{{a, title={{A}}\n{indent}@article{{b, title={{B}}}}\n@misc{{c}}\n"
    entries, issues = scan_bibtex(text)
    assert [e.cite_key for e in entries] == ["b", "c"]
    assert [(i.cite_key, i.message) for i in issues] == [
        ("a", "expected ',' or '}' after field 'title' in entry 'a'")]


def test_blocks_packed_with_no_space_between_them_all_read():
    # each step past an opening brace, a '#', a ',' or a close lands on a
    # char that counts
    entries, issues = scan_bibtex('@comment{}@string{s={S}}@misc{k,a={1},b=s#{x}}@misc{m}')
    assert [(e.cite_key, e.fields, e.offset) for e in entries] == [
        ("k", {"a": "1", "b": "Sx"}, 24), ("m", {}, 46)]
    assert issues == []


def test_unbalanced_macro_costs_only_the_macro():
    text = ("@string{j = {Journal {of Things}\n"
            "@article{c, journal={J}, title={Three}}\n")
    entries, issues = scan_bibtex(text)
    assert [e.cite_key for e in entries] == ["c"]
    assert [i.message for i in issues] == ["unbalanced braces in @string 'j'"]


def test_unbalanced_comment_costs_only_the_comment():
    text = ("@comment{ open {\n"
            "@article{a, title={A}, year=2020}\n"
            "@article{b, title={B}, year=2021}\n")
    entries, issues = scan_bibtex(text)
    assert [e.cite_key for e in entries] == ["a", "b"]
    assert [(i.severity, i.message, i.offset) for i in issues] == [
        ("error", "unbalanced braces in @comment block", 0)]


# One row per fault the scanner reports: the input, the one issue it gives as
# (severity, message, byte offset, cite key), and the cite keys that survive.
# The entries after the fault show where the scan resumes: on the same line,
# at the broken block's own close, or at the next line-start '@'.
@pytest.mark.parametrize("text, issue, keys", [
    ("@comment{ {x @misc{m}\n@misc{n}",
     ("error", "unbalanced braces in @comment block", 0, None), ["n"]),
    ("@string x @misc{m}", ("error", "expected '{' after @string", 8, None), ["m"]),
    ("@string{ = {v}} @misc{m}",
     ("error", "missing macro name in @string block", 9, None), ["m"]),
    ("@string{x {v}} @misc{m}",
     ("error", "expected '=' in @string definition of 'x'", 10, None), ["m"]),
    ("@string{x = {v @misc{m}\n@misc{n}",
     ("error", "unbalanced braces in @string 'x'", 12, None), ["n"]),
    ("@string{x = ,} @misc{m}",
     ("error", "expected a field value in @string 'x'", 12, None), ["m"]),
    ("@misc k @misc{m}", ("error", "expected '{' after '@misc'", 6, None), ["m"]),
    ("@misc{, title={t}} @misc{m}",
     ("error", "missing cite key in '@misc' entry", 6, None), ["m"]),
    ("@misc{k title={t}} @misc{m}",
     ("error", "expected ',' after cite key 'k'", 8, "k"), ["m"]),
    ("@misc{k}\n@misc{k} @misc{m}",
     ("error", "duplicate cite key 'k' (first at byte 0, again at byte 9)", 9, "k"),
     ["k", "m"]),
    ("@misc{m}\n@misc(k, title={t},",
     ("error", "unterminated entry 'k' (missing ')')", 9, "k"), ["m"]),
    ("@misc{k, ={t}} @misc{m}",
     ("error", "expected a field name in entry 'k'", 9, "k"), ["m"]),
    ("@misc{k, title {t}} @misc{m}",
     ("error", "expected '=' after field name 'title' in entry 'k'", 15, "k"), ["m"]),
    ("@misc{k, title={t @misc{m}\n@misc{n}",
     ("error", "unbalanced braces in entry 'k'", 15, "k"), ["n"]),
    ("@misc{k, title=,} @misc{m}",
     ("error", "expected a field value in entry 'k'", 15, "k"), ["m"]),
    ("@misc{k, title={a} junk} @misc{m}",
     ("error", "expected ',' or '}' after field 'title' in entry 'k'", 19, "k"), ["m"]),
    ("@misc{k, month=jan} @misc{m}",
     ("warning", "undefined macro 'jan' kept verbatim", 15, "k"), ["k", "m"]),
    ("@misc{k, title={a}, title={b}} @misc{m}",
     ("warning", "duplicate field 'title' in entry 'k' overwrites the earlier value", 20, "k"),
     ["k", "m"]),
    ("@string{x = {v} junk} @misc{m}",
     ("error", "expected '}' after @string 'x'", 16, None), ["m"]),
    ("@string{x = {v}, y = {w}} @misc{m}",
     ("error", "expected '}' after @string 'x'", 15, None), ["m"]),
    ("@misc{m}\n@string{x = {v}", ("error", "expected '}' after @string 'x'", 24, None), ["m"]),
])
def test_each_fault_is_reported_once_and_the_scan_resumes_after_it(text, issue, keys):
    entries, issues = scan_bibtex(text)
    assert [(i.severity, i.message, i.offset, i.cite_key) for i in issues] == [issue]
    assert [e.cite_key for e in entries] == keys


# One row per way a field head (name, '=' and the whitespace around them) can
# read: the entries as (cite key, fields) and the issues, as in the table above.
@pytest.mark.parametrize("text, entries, issues", [
    ("@misc{k,\n\ttitle\t=\n\t{T},\n  year\n=\n2020\n}\n@misc{m}",
     [("k", {"title": "T", "year": "2020"}), ("m", {})], []),
    ("@misc(k,\ttitle\t=\tx\t)", [("k", {"title": "x"})],
     [("warning", "undefined macro 'x' kept verbatim", 17, "k")]),
    ("@misc{k, title # {x}} @misc{m}", [("m", {})],
     [("error", "expected '=' after field name 'title' in entry 'k'", 15, "k")]),
    ("@misc{k, title} @misc{m}", [("m", {})],
     [("error", "expected '=' after field name 'title' in entry 'k'", 14, "k")]),
    ("@misc{k, title", [],
     [("error", "expected '=' after field name 'title' in entry 'k'", 14, "k")]),
    ("@misc{k, title=", [], [("error", "expected a field value in entry 'k'", 15, "k")]),
    ("@misc{k, title =  ", [], [("error", "expected a field value in entry 'k'", 18, "k")]),
    # The warning points at the second name, in bytes: 'é' takes two.
    ("@misc{k, note={é},\n note = {b}} @misc{m}", [("k", {"note": "b"}), ("m", {})],
     [("warning", "duplicate field 'note' in entry 'k' overwrites the earlier value", 21, "k")]),
    # Only 0-9 make a number; another digit starts a macro name.
    ("@misc{k, a=², b=٣}", [("k", {"a": "²", "b": "٣"})],
     [("warning", "undefined macro '²' kept verbatim", 11, "k"),
      ("warning", "undefined macro '٣' kept verbatim", 17, "k")]),
    # A field may start right after the cite key's comma.
    ("@article{k,title={T}}", [("k", {"title": "T"})], []),
])
def test_field_heads_read_across_whitespace_and_break_where_they_stop(text, entries, issues):
    got_entries, got_issues = scan_bibtex(text)
    assert [(e.cite_key, e.fields) for e in got_entries] == entries
    assert [(i.severity, i.message, i.offset, i.cite_key) for i in got_issues] == issues


@pytest.mark.parametrize("text", [
    "@string{x = {v} junk}", "@string{x = {v}, y = {w}}", "@string{x = {v}"])
def test_a_string_that_does_not_close_after_its_value_defines_nothing(text):
    entries, issues = scan_bibtex(text + "\n@misc{n, a=x}")
    assert [e.fields["a"] for e in entries] == ["x"]
    assert [i.severity for i in issues] == ["error", "warning"]


@pytest.mark.parametrize("block", [
    '@preamble("\\newcommand{\\x}{y}")',
    "@comment(see {x})",
    "@comment(\n@article{a, title={T}}\n)",   # comments the entry out
    "@comment{\n@article{a, title={T}}\n}",
])
def test_balanced_comment_or_preamble_hides_what_is_inside_it(block):
    entries, issues = scan_bibtex(block + "\n@book{b, title={B}}\n")
    assert [e.cite_key for e in entries] == ["b"]
    assert issues == []


@pytest.mark.parametrize("broken", [
    "@misc{k, title={a} junk {b}}",
    "@misc(k, title=x y)",
    "@misc(k, title={a)b} junk)",
])
def test_broken_entry_ends_at_its_own_close_on_the_same_line(broken):
    entries, issues = scan_bibtex(broken + " @misc{m, title={M}}")
    assert [e.cite_key for e in entries] == ["m"]
    assert [i.cite_key for i in issues if i.severity == "error"] == ["k"]


@pytest.mark.parametrize("c_title, keys, broken", [
    ('"{"', ["b"], ["a", "c"]),       # c's own quoted value is unbalanced too
    ('"{x}"', ["b", "c"], ["a"]),
])
def test_stray_close_brace_in_quoted_value_costs_only_its_entry(c_title, keys, broken):
    text = ('@article{a, title="x}"}\n'
            "@article{b, title={B}}\n"
            f"@article{{c, title={c_title}}}\n")
    entries, issues = scan_bibtex(text)
    assert [e.cite_key for e in entries] == keys
    assert [(i.severity, i.cite_key, i.message) for i in issues] == [
        ("error", key, f"unbalanced braces in entry '{key}'") for key in broken]


@pytest.mark.parametrize("prefix", [
    "@a{", "@a(", "@misc{k,\n", "@misc{k, title=\n", "@string{\n", "@string{x=\n",
    "@a(}",   # closes too early, then the next line starts a block
])
def test_block_cut_off_at_its_line_end_keeps_the_next_entry(prefix):
    text = prefix + "\n@article{zzgood, title={Ok}}\n@book{b2, title={B}}\n"
    entries, issues = scan_bibtex(text)
    assert [e.cite_key for e in entries] == ["zzgood", "b2"]
    assert [i.severity for i in issues] == ["error"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(bib_like_text, st.text(max_size=80)))
def test_scan_never_raises(text):
    scan_bibtex(text)


@settings(max_examples=300, deadline=None)
@given(bib_like_text)
@example("@misc{k,@k={v}}")   # a name must not be read differently on another line
def test_serialized_entries_scan_back_unchanged(text):
    entries, _ = scan_bibtex(text)
    again, _ = scan_bibtex(serialize_entries(entries))
    # an entry's offset takes part in equality, and the serializer lays
    # the entries out afresh
    assert [e._replace(offset=0) for e in again] == [e._replace(offset=0) for e in entries]


@settings(max_examples=300, deadline=None)
@given(garbage)
def test_garbage_then_an_entry_on_its_own_line_yields_the_entry(text):
    entries, _ = scan_bibtex(text + "\n@article{zzgood, title={Ok}, year=2020}\n")
    assert [(e.cite_key, e.fields) for e in entries if e.cite_key == "zzgood"] == [
        ("zzgood", {"title": "Ok", "year": "2020"})]


# Line-start blocks, and quotes that may run across them. No '(' comment or
# preamble: those hide what is inside them, which the oracle below ignores.
_LINE_BLOCKS = ["\n@misc{k}", "\n@misc{k,", 'title="', '"}', "@string(", "@preamble{", "@misc(k,"]
blocks_text = st.lists(st.sampled_from(_FRAGMENTS + _LINE_BLOCKS), max_size=60).map("".join)
_NAME = r"@([A-Za-z][A-Za-z0-9_-]*)"
_OPENED_BY = re.compile(r"(?:^|\n)[^\S\n]*" + _NAME + r"\s*$")
_LINE_START_BLOCK = re.compile(r"^[^\S\n]*" + _NAME + r"\s*[{(]\s*([^\s,{}()@]*)", re.M)
_LINE_START_AT = re.compile(r"^[^\S\n]*@", re.M)


def _in_brace_group(text: str) -> list[bool]:
    """Per position: inside a balanced ``{...}`` other than the one that
    opens a line-start entry or ``@string`` block; a ``@comment{`` or
    ``@preamble{`` group counts, since it hides what is inside it."""
    close, opened = {}, []
    for m in re.finditer("[{}]", text):
        if m.group() == "{":
            opened.append(m.start())
        elif opened:
            close[opened.pop()] = m.start()
    inside = [False] * len(text)
    for start in sorted(close):
        block = _OPENED_BY.search(text, 0, start)
        if inside[start] or not block or block.group(1).lower() in ("comment", "preamble"):
            inside[start + 1:close[start]] = [True] * (close[start] - start - 1)
    return inside


@settings(max_examples=300, deadline=None)
@given(blocks_text)
@example('@misc{k, title="a\n@article{b, title={x}}\n"}\n')
@example('@string{title="\n@misc{k}"')
def test_every_line_start_entry_is_returned_or_named_in_an_issue(text):
    entries, issues = scan_bibtex(text)
    inside = _in_brace_group(text)
    starts = [m.end() - 1 for m in _LINE_START_AT.finditer(text)] + [len(text)]
    returned = {e.offset for e in entries}
    for m in _LINE_START_BLOCK.finditer(text):
        at = m.start(1) - 1
        if m.group(1).lower() in ("string", "comment", "preamble") or inside[at]:
            continue
        # An issue names the block by its cite key, or by an offset between
        # its '@' and the next line-start '@'.
        first = len(text[:at].encode("utf-8"))
        last = len(text[:min(s for s in starts if s > at)].encode("utf-8"))
        assert first in returned or any(
            first <= i.offset <= last or (m.group(2) and i.cite_key == m.group(2))
            for i in issues), (at, entries, issues)


@pytest.mark.parametrize("text,keys,message", [
    ('@misc{k, title="a\n@article{b, title={x}}\n"}\n', ["b"],
     "unterminated quoted value in entry 'k'"),
    ('@string{t="\n@misc{k}"', ["k"], "unterminated quoted value in @string 't'"),
    ('@misc{k, title="{a\n@b{c}}"}', ["k"], None),   # inside a brace group: part of the value
    ('@misc{k, title="abc', [], "unterminated quoted value in entry 'k'"),
    # Any brace in the value before where it stops keeps the brace message.
    ('@misc{k, title="{a} b\n@misc{m}', ["m"], "unbalanced braces in entry 'k'"),
])
def test_quoted_value_stops_at_a_line_start_block(text, keys, message):
    entries, issues = scan_bibtex(text)
    assert [e.cite_key for e in entries] == keys
    assert [i.message for i in issues] == ([message] if message else [])


@settings(max_examples=300, deadline=None)
@given(bib_like_text)
def test_offsets_are_utf8_byte_offsets(text):
    data = text.encode("utf-8")
    entries, issues = scan_bibtex(text)
    for entry in entries:
        assert data[entry.offset:].decode("utf-8").startswith("@")
    for issue in issues:
        assert 0 <= issue.offset <= len(data)
        data[:issue.offset].decode("utf-8")  # raises if inside a character


class _PrefixScanner(_Scanner):
    """Offsets by encoding the whole prefix at every call."""

    def _byte(self, pos: int) -> int:
        return len(self.text[:pos].encode("utf-8"))


# Braces, quotes and block syntax, with 2- and 4-byte characters between them.
brace_text = st.lists(st.sampled_from(["{", "}", '"', "@", ",", "=", "\n", " ", "é", "😀",
                                       "@misc{k,", "\n@misc{k,", "t={"]),
                      max_size=80).map("".join)


@settings(max_examples=300, deadline=None)
@given(brace_text, st.randoms(use_true_random=False))
@example("{{}", None)
@example("{a{b{c}d}e}{", None)
def test_each_brace_close_agrees_with_one_walk_over_the_text(text, rng):
    expected = brute_brace_close(text)
    opens = [i for i, ch in enumerate(text) if ch == "{"]
    orders = [opens, opens[::-1]]
    if rng is not None:
        orders.append(rng.sample(opens, len(opens)))
    for order in orders:
        scanner = _Scanner(text)
        assert {i: scanner._close_of(i) for i in order} == \
               {i: expected.get(i) for i in order}
    entries, issues = scan_bibtex(text)
    assert _PrefixScanner(text).scan() == (entries, issues)


def test_offsets_after_multibyte_characters_are_pinned():
    text = ("% Références — 😀\n"
            "@misc{café, note={€ one}}\n"
            "@article{x1, author={Zoë 😀 Müller}, title={T}}\n"
            "@misc{café, note={two}}\n"
            "@book{bad title={Ünïcode}}\n"
            "@misc{ok, note={fine}, month=été}\n")
    entries, issues = scan_bibtex(text)
    assert [(e.cite_key, e.offset) for e in entries] == [("café", 24), ("x1", 53), ("ok", 159)]
    assert [(i.message, i.offset, i.cite_key) for i in issues] == [
        ("duplicate cite key 'café' (first at byte 24, again at byte 105)", 105, "café"),
        ("expected ',' after cite key 'bad'", 140, "bad"),
        ("undefined macro 'été' kept verbatim", 188, "ok"),
    ]


def _scaled_fixture(data_dir, copies: int) -> str:
    base = (data_dir / "fixture43.bib").read_text()
    return "".join(
        re.sub(r"^(@\w+\{)([^,]+),", rf"\g<1>\g<2>-{i},", base, flags=re.M)
        .replace("author = {", "author = {Zoë 😀 Ångström and ")
        for i in range(copies))


def test_scan_time_grows_linearly(data_dir):
    small, large = _scaled_fixture(data_dir, 5), _scaled_fixture(data_dir, 40)
    entries, issues = scan_bibtex(large)
    assert len(entries) == 8 * 5 * 43 and not issues
    best = {small: float("inf"), large: float("inf")}
    for _ in range(3):  # interleaved, so both sizes see the same machine load
        for text in (small, large):
            start = time.perf_counter()
            scan_bibtex(text)
            best[text] = min(best[text], time.perf_counter() - start)
    # 8x the entries: about 8x the time when linear, 29-43x for the old
    # prefix-re-encoding scan at this size (64x only asymptotically).
    assert best[large] < 20 * best[small]


def test_scan_time_grows_linearly_in_broken_values(data_dir):
    text = _scaled_fixture(data_dir, 40)
    broken = {n: re.sub(r"^  title = \{", "  title = {Two {un{closed ", text,
                        count=n, flags=re.M) for n in (1, 40)}
    for n, kept in ((1, 1719), (40, 1680)):
        entries, issues = scan_bibtex(broken[n])
        assert len(entries) == kept
        assert [i.severity for i in issues] == ["error"] * n
    best = {n: float("inf") for n in broken}
    for _ in range(3):  # interleaved, so both see the same machine load
        for n, bib in broken.items():
            start = time.perf_counter()
            scan_bibtex(bib)
            best[n] = min(best[n], time.perf_counter() - start)
    # Each value that never closes must not rescan the file: about 1x when
    # the block structure is computed once, about 17x when each walks to EOF.
    assert best[40] < 4 * best[1]


def test_scan_time_stays_flat_in_blocks_broken_as_the_benchmark_breaks_them(data_dir):
    text = _scaled_fixture(data_dir, 40)
    block = "@article{{broken{}, title={{Unclosed {{brace}}, year=2021}}\n"
    broken = {n: re.sub(r"^@", lambda m, k=iter(range(n)): block.format(next(k)) + "@",
                        text, count=n, flags=re.M) for n in (1, 40)}
    for n, bib in broken.items():
        entries, issues = scan_bibtex(bib)
        assert len(entries) == 40 * 43
        assert [(i.severity, i.cite_key) for i in issues] == \
               [("error", f"broken{k}") for k in range(n)]
    best = {n: float("inf") for n in broken}
    for _ in range(3):  # interleaved, so both see the same machine load
        for n, bib in broken.items():
            start = time.perf_counter()
            scan_bibtex(bib)
            best[n] = min(best[n], time.perf_counter() - start)
    # A broken block's rest ends at the next line-start '@', so 40 of them
    # cost about what one does: about 1x.
    assert best[40] < 4 * best[1]


def test_scan_time_grows_linearly_on_one_line_with_many_faults(data_dir):
    # Every title lacks its comma, and the file has no line break.
    small, large = (_scaled_fixture(data_dir, n).replace("},\n  author", "} author")
                    .replace("\n", " ") for n in (5, 40))
    entries, issues = scan_bibtex(large)
    assert len(issues) > 1000 and {i.severity for i in issues} == {"error"}
    best = {small: float("inf"), large: float("inf")}
    for _ in range(3):  # interleaved, so both sizes see the same machine load
        for text in (small, large):
            start = time.perf_counter()
            scan_bibtex(text)
            best[text] = min(best[text], time.perf_counter() - start)
    # 8x the faults on one line: about 8x the time when one search for the
    # next line-start '@' serves them all, about 64x when each fault searches
    # to the end of the line again, or from its start.
    assert best[large] < 20 * best[small]


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
