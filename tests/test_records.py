from __future__ import annotations

import json
import random
import re
import sys
import tracemalloc
from copy import deepcopy

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (brute_de_latex, brute_family_key, brute_load_record_lines,
                     brute_name_clean)
from refsum import (ConfigError, PersonName, RawEntry, ReferenceRecord, StaticCountProvider,
                    TaxonomyRule, VenueTaxonomy, de_latex, derive_self_citations,
                    enrich_citation_counts, load_record_lines, load_taxonomy,
                    load_taxonomy_file, parse_bibtex, parse_person_names, to_reference_record)
from refsum.names import _parse_one
from refsum.records import _rule_regex, _venue
from refsum.errors import RecordFileError
from refsum.names import _clean


# -- names ---------------------------------------------------------------------

def test_name_forms_share_a_key():
    full = parse_person_names("John Smith")[0]
    initial = parse_person_names("J. Smith")[0]
    comma = parse_person_names("Smith, John")[0]
    assert full.normalized_key == "smith.j"
    assert initial.normalized_key == "smith.j"
    assert comma.normalized_key == "smith.j"


def test_name_particles_fold_into_family():
    name = parse_person_names("Ludwig van Beethoven")[0]
    assert name.family == "van Beethoven"
    assert name.given == "Ludwig"
    # one token, or only particles: every token is the family
    assert parse_person_names("Plato") == [PersonName(family="Plato")]
    assert parse_person_names("van der") == [PersonName(family="van der")]


def test_and_split_and_others():
    names = parse_person_names("Mei Lin and Sofia Petrova and others")
    assert [n.family for n in names] == ["Lin", "Petrova"]


def test_key_is_pure_function_of_parts():
    assert PersonName("Smith", "John").normalized_key == \
        PersonName("Smith", "John").normalized_key
    assert PersonName("Wong", "").normalized_key == "wong"


def test_the_key_field_leaves_equality_hash_repr_and_replace_as_they_were():
    name = PersonName("Smith", "John")
    assert name == PersonName(family="Smith", given="John")
    assert name != PersonName("Smith", "J.")   # the same key, another name
    assert hash(name) == hash(("Smith", "John"))
    assert not name == ("Smith", "John")   # it hashes like the pair but is no tuple
    assert repr(name) == "PersonName(family='Smith', given='John')"
    moved = name._replace(given="Kim")
    assert (moved, moved.normalized_key) == (PersonName("Smith", "Kim"), "smith.k")
    assert name._replace(family="Lee Wong").normalized_key == "lee wong.j"
    assert name.normalized_key == "smith.j"
    assert PersonName._fields == ("family", "given")
    copied = deepcopy(name)
    assert (copied, copied.normalized_key) == (name, "smith.j")
    with pytest.raises(TypeError):
        PersonName("Smith", "John", "smith.j")
    with pytest.raises(AttributeError):
        name.normalized_key = "smith.k"


# -- latex cleanup ---------------------------------------------------------------

@pytest.mark.parametrize("raw,expected", [
    ("Discourse {C}onnective", "Discourse Connective"),
    ("On {\\'E}tale Maps", "On Étale Maps"),
    ("M{\\\"u}ller", "Müller"),
    ("Erd\\H os", "Erd\\H os"),  # outside the fixed table: braces-only cleanup
    ("Rock \\& Roll, 100\\%", "Rock & Roll, 100%"),
    ("\\c{c}a va", "ça va"),
    ("spread  across\n lines", "spread across lines"),
    # The accent pass runs before the named one and takes the 'x', so '\o'
    # is then followed by a letter and stays.
    ("\\o\\'x", "\\ox\u0301"),
    ("no~break\x1c\xa0here ", "no break here"),
])
def test_de_latex(raw, expected):
    assert de_latex(raw) == expected


# LaTeX-heavy text: commands (escapes, accents, cedilla, caron, named
# letters) with or without braces and an argument, mixed with their pieces
# alone and with whitespace, in any order.
_LATEX_MARKS = "&%_#$'`\"^~=.cv"
_LATEX_COMMAND = st.tuples(
    st.sampled_from(["", "{"]),
    st.sampled_from(["\\" + m for m in [*_LATEX_MARKS, "ss", "ae", "AE", "oe", "OE",
                                         "o", "O", "aa", "AA", "l", "L", "i"]]),
    st.sampled_from(["", "{", " ", "\\"]),
    st.sampled_from(["", *"cCsoxi", "\\&", "ss"]),
    st.sampled_from(["", "}", "}}"]),
).map("".join)
_LATEX_HEAVY = st.lists(st.one_of(
    _LATEX_COMMAND,
    st.sampled_from([*"\\{}cvx", *_LATEX_MARKS, "\n", "\t", "\x1c", "\xa0", " "]),
), max_size=30).map("".join)


@settings(max_examples=1000, deadline=None)
@given(_LATEX_HEAVY)
@example("\\o\\'x")
@example("{\\'{\\&}}")
@example("\\\\&")
@example("\\c{c}\\v{s}")
@example("\\\\`cc")   # the accent pass leaves '\c' before a combining mark
def test_de_latex_matches_the_plain_five_passes(text):
    assert de_latex(text) == brute_de_latex(text)


_WHITESPACE = [chr(c) for c in range(0x3001) if re.fullmatch(r"\s", chr(c))]
_SPACED_TEXT = st.text(st.one_of(st.sampled_from([*_WHITESPACE, "{", "}", "a", "É", "İ"]),
                                 st.characters()), max_size=20)


@settings(max_examples=500, deadline=None)
@given(_SPACED_TEXT)
@example("\x1c{Van}\u3000 der\x85Berg\xa0")
def test_name_whitespace_collapses_as_the_regex_forms_do(text):
    assert _clean(text) == brute_name_clean(text)
    assert PersonName(family=text).normalized_key == brute_family_key(text)


# -- taxonomy --------------------------------------------------------------------

TAX = ("acl\tproceedings\tcomputing-science\tcomputational-linguistics\n"
       "press\tbook\t-\t-\n")


def test_first_matching_rule_wins():
    taxonomy = load_taxonomy("x\tjournal\tfirst\tone\nx\tjournal\tsecond\ttwo\n")
    assert taxonomy.classify("The X Review") == ("journal", "first", "one")


def test_taxonomy_columns_after_the_fourth_are_ignored():
    assert load_taxonomy("acl\tproceedings\tcs\tnlp\textra\tmore\n") == \
        load_taxonomy("acl\tproceedings\tcs\tnlp\n")


def test_keyword_match_not_substring():
    taxonomy = load_taxonomy(TAX)
    assert taxonomy.classify("Proceedings of ACL")[1] == "computing-science"
    assert taxonomy.classify("The Oracle Handbook") == (None, None, None)


def test_taxonomy_skips_blank_and_comment_lines():
    assert load_taxonomy("# venue rules\n  # indented\n\n" + TAX) == load_taxonomy(TAX)


@pytest.mark.parametrize("text, message", [
    ("acl\tproceedings\nloner\n", "taxonomy line 2: expected tab-separated columns"),
    ("\tjournal\n", "taxonomy line 1: empty pattern"),
])
def test_taxonomy_rejects_a_malformed_line(text, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        load_taxonomy(text)


def test_taxonomy_rejects_bad_venue_type():
    with pytest.raises(ConfigError):
        load_taxonomy("pat\tmagazine\t-\t-\n")


# -- record mapping ----------------------------------------------------------------

def _entry(kind, **fields):
    return RawEntry(kind, "k1", fields, 0)


def test_article_maps_to_journal():
    record = to_reference_record(_entry("article", journal="J. of AI", year="2014"))
    assert record.venue_type == "journal"
    assert record.venue_name == "J. of AI"
    assert record.year == 2014


def test_misc_without_venue_is_other():
    record = to_reference_record(_entry("misc", title="X"))
    assert record.venue_type == "other"
    assert record.venue_name == ""


def test_taxonomy_refines_domain():
    taxonomy = load_taxonomy(TAX)
    record = to_reference_record(
        _entry("inproceedings", booktitle="Proceedings of ACL"), taxonomy)
    assert record.venue_type == "proceedings"
    assert record.domain == "computing-science"
    assert record.subdomain == "computational-linguistics"


def test_entry_kind_beats_taxonomy_for_venue_type():
    taxonomy = load_taxonomy("press\tbook\t-\t-\n")
    record = to_reference_record(_entry("article", journal="Daily Press"), taxonomy)
    assert record.venue_type == "journal"


def test_taxonomy_supplies_type_for_unknown_kinds():
    taxonomy = load_taxonomy("press\tbook\t-\t-\n")
    record = to_reference_record(_entry("misc", howpublished="Daily Press"), taxonomy)
    assert record.venue_type == "book"


def test_mapping_is_total_and_warns_on_gaps():
    warnings: list[str] = []
    record = to_reference_record(_entry("misc"), warnings=warnings)
    assert record.id == "k1"
    assert record.year is None and record.authors == ()
    assert len(warnings) >= 3  # title, authors, year (and venue)


def test_an_entry_with_no_usable_field_gets_four_warnings_in_order():
    warnings: list[str] = []
    to_reference_record(_entry("misc", year="undated"), warnings=warnings)
    assert warnings == ["k1: no title", "k1: no authors", "k1: no usable year",
                        "k1: no venue field"]


def test_an_entry_with_every_field_gets_no_warning():
    warnings: list[str] = []
    to_reference_record(_entry("article", title="T", author="Ann Poe", year="2001",
                               journal="J"), warnings=warnings)
    assert warnings == []


@pytest.mark.parametrize("first", [0, 1])
def test_taxonomies_that_disagree_classify_one_venue_each_by_its_own_rules(first):
    taxonomies = [load_taxonomy("press\tbook\tarts\tprint\n"),
                  load_taxonomy("press\tjournal\tnews\tdaily\n")]
    entry = _entry("misc", howpublished="Daily {P}ress")
    order = [first, 1 - first, first, 1 - first]
    got = [to_reference_record(entry, taxonomies[i]) for i in order]
    assert [(r.venue_name, r.venue_type, r.domain, r.subdomain) for r in got] == [
        [("Daily Press", "book", "arts", "print"),
         ("Daily Press", "journal", "news", "daily")][i] for i in order]


def test_records_are_equal_with_the_memos_cleared_and_warm(data_dir):
    entries = parse_bibtex((data_dir / "fixture43.bib").read_text())
    taxonomy = load_taxonomy_file(data_dir / "fixture.tax")

    def mapped():
        warnings: list[str] = []
        records = [to_reference_record(e, taxonomy, warnings) for e in entries]
        return records, warnings

    _parse_one.cache_clear()
    _venue.cache_clear()
    cold = mapped()
    misses = (_parse_one.cache_info().misses, _venue.cache_info().misses)
    assert misses[1] < len(entries)   # the entries repeat their venues
    assert mapped() == cold
    assert (_parse_one.cache_info().misses, _venue.cache_info().misses) == misses


@pytest.mark.parametrize("memo", [_parse_one, _venue, _rule_regex])
def test_each_memo_is_bounded(memo):
    assert type(memo.cache_info().maxsize) is int


def test_classifying_with_many_taxonomies_keeps_the_rule_regex_memo_bounded():
    _rule_regex.cache_clear()
    for i in range(5000):
        VenueTaxonomy((TaxonomyRule(f"venue{i}"),)).classify("a venue")
    info = _rule_regex.cache_info()
    assert info.currsize < 5000
    assert info.currsize == info.maxsize


def test_year_out_of_range_dropped():
    record = to_reference_record(_entry("article", year="987"))
    assert record.year is None


@pytest.mark.parametrize("raw, year", [("1000", 1000), ("3000", 3000),
                                       ("0999", None), ("3001", None)])
def test_bib_years_from_1000_to_3000_are_kept(raw, year):
    assert to_reference_record(_entry("article", year=raw)).year == year


def test_invalid_venue_type_rejected():
    with pytest.raises(ValueError):
        ReferenceRecord(id="x", venue_type="magazine")


# -- self-citation -----------------------------------------------------------------

def _record(authors):
    return ReferenceRecord(id="r", authors=tuple(parse_person_names(authors)))


def _flag(reference, citing):
    return derive_self_citations([reference], tuple(citing))[0].self_citation


def test_self_citation_by_shared_author():
    citing = parse_person_names("John Smith and Ada Doe")
    flagged = derive_self_citations([_record("Ada Doe and Kim Lee"), _record("Kim Lee")],
                                    tuple(citing))
    assert [r.self_citation for r in flagged] == [True, False]


def test_self_citation_across_name_variants():
    citing = parse_person_names("John Smith")
    assert _flag(_record("J. Smith"), citing) is True


def test_self_citation_empty_citing_list_is_false():
    assert _flag(_record("Kim Lee"), []) is False


def test_self_citation_permutation_invariant():
    rng = random.Random(7)
    citing = parse_person_names("John Smith and Ada Doe and Kim Lee")
    reference = _record("Pat Moss and Ada Doe")
    expected = _flag(reference, citing)
    for _ in range(20):
        shuffled_citing = citing[:]
        rng.shuffle(shuffled_citing)
        shuffled_ref = ReferenceRecord(
            id="r", authors=tuple(rng.sample(reference.authors, len(reference.authors))))
        assert _flag(shuffled_ref, shuffled_citing) == expected


_NAMES = parse_person_names("John Smith and J. Smith and Ada Doe and Kim Lee")
_TITLES = ["Alpha", "Beta", "Gamma", ""]
_RECORDS = st.lists(st.builds(
    ReferenceRecord,
    id=st.text(max_size=3),
    title=st.sampled_from(_TITLES),
    authors=st.lists(st.sampled_from(_NAMES), max_size=3).map(tuple),
    year=st.one_of(st.none(), st.integers(1990, 2020)),
    venue_name=st.text(max_size=3),
    venue_type=st.sampled_from(["proceedings", "journal", "book", "other"]),
    domain=st.one_of(st.none(), st.text(max_size=3)),
    subdomain=st.one_of(st.none(), st.text(max_size=3)),
    citation_count=st.one_of(st.none(), st.integers(0, 9)),
    self_citation=st.one_of(st.none(), st.booleans()),
), max_size=6)


@settings(max_examples=200, deadline=None)
@given(_RECORDS, st.lists(st.sampled_from(_NAMES), max_size=2),
       st.dictionaries(st.sampled_from(_TITLES), st.integers(0, 9)))
def test_flagged_and_enriched_records_equal_their_replace_copies(
        records, citing, counts):
    """Both passes build their copies field by field; a field that one of
    them forgets to carry over breaks this equality."""
    keys = {a.normalized_key for a in citing}
    assert derive_self_citations(records, tuple(citing)) == [
        r._replace(self_citation=any(a.normalized_key in keys for a in r.authors))
        for r in records]
    enriched, _ = enrich_citation_counts(records, StaticCountProvider(counts))
    assert enriched == [
        r if r.citation_count is not None or r.title not in counts
        else r._replace(citation_count=counts[r.title]) for r in records]


# -- record files ------------------------------------------------------------------

@pytest.mark.parametrize("field,value,absent,kind", [
    ("authors", "Jane Doe and John Roe", (), "list"),
    ("title", None, "", "str"),
    ("venue_name", 7, "", "str"),
    ("domain", ["a", "b"], None, "str"),
    ("subdomain", {"x": 1}, None, "str"),
    ("self_citation", "no", None, "bool"),
    ("venue_type", [], "other", "str"),
    ("venue_type", False, "other", "str"),
    ("id", ["x"], "r1", "str"),   # the id falls back to the line number
    ("id", True, "r1", "str"),
    ("id", 0, "r1", "str"),
])
def test_record_field_of_the_wrong_type_is_dropped_with_a_warning(field, value, absent, kind):
    warnings: list[str] = []
    [record] = load_record_lines(json.dumps({"id": "r1", field: value}), warnings)
    assert getattr(record, field) == absent
    assert warnings == [f"r1: {field} {value!r} is not a {kind}, dropped"]


@pytest.mark.parametrize("venue_type", ["x", "Journal", "magazine"])
def test_record_venue_type_outside_the_four_types_maps_to_other(venue_type):
    warnings: list[str] = []
    [record] = load_record_lines(json.dumps({"id": "r1", "venue_type": venue_type}), warnings)
    assert record.venue_type == "other"
    assert warnings == [f"r1: unknown venue type {venue_type!r} mapped to 'other'"]


def test_record_fields_of_the_right_type_load_without_warnings():
    warnings: list[str] = []
    line = json.dumps({"id": "r1", "title": "T", "authors": ["Jane Doe", {"family": "Roe"}],
                       "venue_name": "V", "domain": None, "subdomain": "s",
                       "self_citation": False})
    [record] = load_record_lines(line, warnings)
    assert warnings == []
    assert (record.title, record.venue_name, record.domain, record.subdomain,
            record.self_citation) == ("T", "V", None, "s", False)
    assert [a.family for a in record.authors] == ["Doe", "Roe"]
    [record] = load_record_lines(json.dumps({"id": None, "venue_type": None}), warnings)
    assert (record.id, record.venue_type, warnings) == ("r1", "other", [])


def test_author_items_that_are_not_names_are_dropped_with_a_warning():
    warnings: list[str] = []
    line = json.dumps({"id": "r1", "authors": [42, "Jane Doe", {"given": "X"}, ""]})
    [record] = load_record_lines(line, warnings)
    assert [a.family for a in record.authors] == ["Doe"]
    assert warnings == ["r1: author 42 is not a name, dropped",
                        "r1: author {'given': 'X'} is not a name, dropped",
                        "r1: author '' is not a name, dropped"]


def test_author_object_with_null_or_missing_given_has_an_empty_given_name():
    warnings: list[str] = []
    line = json.dumps({"id": "r1", "authors": [{"family": "Doe", "given": None},
                                               {"family": "Roe"}]})
    [record] = load_record_lines(line, warnings)
    assert [(a.family, a.given) for a in record.authors] == [("Doe", ""), ("Roe", "")]
    assert warnings == []


@pytest.mark.parametrize("item", [
    {"family": 7}, {"family": ""}, {"family": ["Doe"]},
    {"family": "Doe", "given": 3}, {"family": "Doe", "given": ["Jane"]},
    {"family": "Doe", "given": {"first": "Jane"}}, {"family": "Doe", "given": False},
])
def test_author_object_with_a_mistyped_name_part_is_dropped_with_a_warning(item):
    warnings: list[str] = []
    [record] = load_record_lines(json.dumps({"id": "r1", "authors": [item, "Ann Poe"]}), warnings)
    assert [a.family for a in record.authors] == ["Poe"]
    assert warnings == [f"r1: author {item!r} is not a name, dropped"]


@pytest.mark.parametrize("count", [True, False, -1, 2.5, "12"])
def test_citation_count_that_is_not_a_non_negative_integer_is_dropped(count):
    warnings: list[str] = []
    [record] = load_record_lines(json.dumps({"id": "r1", "citation_count": count}), warnings)
    assert record.citation_count is None
    assert warnings == [f"r1: invalid citation count {count!r}, dropped"]


def test_a_citation_count_of_zero_is_kept():
    warnings: list[str] = []
    [record] = load_record_lines(json.dumps({"id": "r1", "citation_count": 0}), warnings)
    assert (record.citation_count, warnings) == (0, [])


def test_author_item_holding_several_names_is_split_with_a_warning():
    warnings: list[str] = []
    line = json.dumps({"id": "r1", "authors": ["Jane Doe and John Roe", "Ann Poe"]})
    [record] = load_record_lines(line, warnings)
    assert [a.display() for a in record.authors] == ["Jane Doe", "John Roe", "Ann Poe"]
    assert warnings == ["r1: author item 'Jane Doe and John Roe' holds 2 names, split"]


def test_equal_author_items_share_one_name_object_per_load():
    authors = ["Jane Doe", {"family": "Poe", "given": "Ann"}]
    text = "\n".join(json.dumps({"id": f"r{i}", "authors": authors}) for i in range(2))
    first, second = load_record_lines(text)
    assert first.authors == second.authors
    assert all(a is b for a, b in zip(first.authors, second.authors))


def test_author_item_warnings_fire_once_per_record_that_has_the_item():
    text = "\n".join(json.dumps({"id": f"r{i}", "authors": ["Jane Doe and John Roe", "others"]})
                     for i in range(3))
    warnings: list[str] = []
    load_record_lines(text + "\n" + json.dumps({"id": "r3", "authors": ["others"]}), warnings)
    split = [w for w in warnings if w.endswith("holds 2 names, split")]
    dropped = [w for w in warnings if w.endswith("is not a name, dropped")]
    assert split == [f"r{i}: author item 'Jane Doe and John Roe' holds 2 names, split"
                     for i in range(3)]
    assert dropped == [f"r{i}: author 'others' is not a name, dropped" for i in range(4)]


_AUTHOR_ITEMS = st.one_of(
    st.sampled_from(["Jane Doe", "Doe, Jane", "Jane Doe and John Roe",
                     "Roe, J. and others", "others", ","]),
    st.fixed_dictionaries({"family": st.sampled_from(["Doe", 7])},
                          optional={"given": st.sampled_from(["Jane", "John", None])}),
    st.text(max_size=12),
    st.sampled_from([42, None, {"given": "X"}, ["Jane Doe"]]),
)


def _record_lines(items):
    """Record lines whose author items come from ``items``, so items repeat."""
    return st.one_of(
        st.just(""),
        st.fixed_dictionaries({"authors": st.lists(items, min_size=1, max_size=4)}, optional={
            "id": st.sampled_from(["a", "b", ""]),
            "year": st.sampled_from([2001, 99, "2001"]),
        }).map(json.dumps),
    )


_RECORD_FILES = st.lists(_AUTHOR_ITEMS, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(_record_lines(st.sampled_from(pool)), min_size=2, max_size=8))


@settings(max_examples=300, deadline=None)
@given(_RECORD_FILES)
def test_loading_a_file_equals_loading_each_line_alone(lines):
    whole_warnings: list[str] = []
    whole = load_record_lines("\n".join(lines), whole_warnings)
    # Each line loads alone, after blank lines that keep its line number, so
    # no parse or name object is shared with any other line. A line whose id
    # an earlier line holds stands for one duplicate-id warning instead.
    alone, alone_warnings, first_line = [], [], {}
    for lineno, line in enumerate(lines):
        line_warnings: list[str] = []
        for record in load_record_lines("\n" * lineno + line, line_warnings):
            if record.id in first_line:
                alone_warnings.append(f"{record.id}: duplicate id "
                                      f"(first on line {first_line[record.id]}), dropped")
            else:
                first_line[record.id] = lineno + 1
                alone.append(record)
                alone_warnings += line_warnings
    assert whole == alone
    assert whole_warnings == alone_warnings


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_a_line_separator_inside_a_json_string_stays_in_its_record(separator):
    rows = [{"id": "a", "title": f"One{separator}two"}, {"title": "Three"}]
    text = "\r\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\r\n"
    warnings: list[str] = []
    records = load_record_lines(text, warnings)
    assert [(r.id, r.title) for r in records] == [("a", f"One{separator}two"), ("r2", "Three")]
    assert warnings == []


@pytest.mark.parametrize("separator", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                       "\x85", "\u2028", "\u2029"])
def test_only_a_newline_ends_a_record_line(separator):
    with pytest.raises(RecordFileError,
                       match=r"^line 2: not a valid record object \(Extra data\)$"):
        load_record_lines('{"id": "a"}\n{"id": "b"}' + separator + '{"id": "c"}')
    # a line that holds only separators is blank, and is still counted
    [record] = load_record_lines(separator + '\n{"title": "x"}\n')
    assert record.id == "r2"


@pytest.mark.parametrize("line", [
    '{"id": "a"} x', '{"id": "a"}{}', '{"id": "a",}', "\ufeff{}", " \ufeff{}",
    '{"id": "a', '{"id": "a\r', "[1] ",
])
def test_a_line_that_is_not_one_json_object_is_refused_as_json_loads_words_it(line):
    try:
        json.loads(line)
        expected = "expected an object"
    except json.JSONDecodeError as exc:
        expected = f"not a valid record object ({exc.msg})"
    with pytest.raises(RecordFileError, match=f"^line 2: {re.escape(expected)}$"):
        load_record_lines('{"id": "first"}\n' + line)


def test_one_byte_order_mark_at_the_start_of_the_text_is_dropped():
    [record] = load_record_lines('\ufeff{"id": "a"}\n')
    assert record.id == "a"
    [record] = load_record_lines('\ufeff\n{"id": "a"}')   # a blank first line
    assert record.id == "a"
    for text in ('\ufeff\ufeff{"id": "a"}', '{"id": "a"}\n\ufeff{"id": "b"}'):
        with pytest.raises(RecordFileError, match=r"\(Unexpected UTF-8 BOM"):
            load_record_lines(text)


_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 3001) | st.floats()
                | st.text(max_size=4))
_ANY_JSON = (_JSON_LEAVES | st.lists(_JSON_LEAVES, max_size=2)
             | st.dictionaries(st.text(max_size=3), _JSON_LEAVES, max_size=2))


def _any_json(leaf):
    """``leaf`` values, or any JSON value."""
    return leaf | _ANY_JSON


def _record_objects(items):
    """Record objects whose fields take every JSON type, and author items from ``items``."""
    return st.fixed_dictionaries({}, optional={
        "id": _any_json(st.sampled_from(["a", "b", ""])),
        "title": _any_json(st.text(max_size=6)),
        "authors": _any_json(st.lists(items, max_size=4)),
        "year": _any_json(st.sampled_from([2001, 999, 3001, 2001.0, True, "2001"])),
        "venue_name": _any_json(st.text(max_size=6)),
        "venue_type": _any_json(st.sampled_from(["journal", "book", "other", "Journal", ""])),
        "domain": _any_json(st.text(max_size=3)),
        "subdomain": _any_json(st.text(max_size=3)),
        "citation_count": _any_json(st.sampled_from([0, 5, -1, True, 2.5])),
        "self_citation": _any_json(st.sampled_from([True, False, 1])),
    })


_VENUE_VALUES = st.sampled_from(["ACL", "Jane Doe", "journal", "book", "", None])
_VENUE_OBJECTS = st.fixed_dictionaries({}, optional={
    "venue_name": _VENUE_VALUES, "venue_type": _VENUE_VALUES,
    "domain": _VENUE_VALUES, "subdomain": _VENUE_VALUES,
    "authors": st.sampled_from([["Jane Doe"], ["ACL"]])})


@st.composite
def _oracle_lines(draw, items):
    kind = draw(st.sampled_from(["record"] * 6 + ["blank", "trailing", "cut", "other",
                                                  "continued", "venues"] + ["generated"] * 3))
    if kind == "generated":   # an id a line without one may be given
        return json.dumps({"id": draw(st.sampled_from(["r1", "r2", "r3", "r2-2"])), "year": 99})
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t\r", "\x0c", "\u2028", "\x85 ", "\ufeff"]))
    if kind == "other":
        return json.dumps(draw(_ANY_JSON))
    if kind == "venues":   # a few venue values, repeated across lines and fields
        return json.dumps(draw(_VENUE_OBJECTS))
    line = json.dumps(draw(_record_objects(items)), ensure_ascii=draw(st.booleans()))
    if kind == "continued":   # the object runs on to the next line
        return line.replace(": ", ":\n", 1) if ": " in line else "{\n}"
    if kind == "trailing":
        line += draw(st.sampled_from([" x", "}", " {}", ",1", "\x0c", "\u2028"]))
    elif kind == "cut":
        line = line[:draw(st.integers(0, len(line)))]
    space = st.text(alphabet=" \t\r", max_size=2)
    return draw(st.sampled_from(["", "\ufeff"])) + draw(space) + line + draw(space)


_ORACLE_FILES = st.lists(_AUTHOR_ITEMS, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(_oracle_lines(st.sampled_from(pool)), min_size=1, max_size=6))


def _outcome(loader, text):
    warnings: list[str] = []
    try:
        return loader(text, warnings), warnings
    except RecordFileError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_ORACLE_FILES)
@example(['{"id": "a", "title": "x\u2028y"}\r', '\t{"authors": ["Jane Doe", "Jane Doe"]} '])
@example(['{"year": true, "citation_count": true, "self_citation": 1}', '{"year": 2001.0}'])
@example(['{"id": "b"}', '{"id":', '"a"}'])
@example(['{"year": 99}', '{"id": "r1"}', '{"id": 5}', '{"id": "r3"}', '{"id": "r1-2"}'])
@example(['{"id": "r2"}', '{"title": "x"}'])
def test_loading_equals_the_plain_loader(lines):
    text = "\n".join(lines)
    assert _outcome(load_record_lines, text) == _outcome(brute_load_record_lines, text)


def test_equal_categorical_values_of_one_load_are_one_object():
    values = {"venue_name": "Proc. ACL", "venue_type": "journal",
              "domain": "Natural language", "subdomain": "Parsing"}
    lines = [json.dumps({"id": f"r{i}", **values}) for i in range(3)]
    lines.append(json.dumps({"id": "x", "domain": "Proc. ACL"}))
    records = load_record_lines("\n".join(lines))
    for field in values:
        first, *rest = (getattr(r, field) for r in records[:3])
        assert all(value is first for value in rest), field
    assert records[3].domain is records[0].venue_name


def test_a_load_keeps_no_second_copy_of_the_text():
    text = "".join(json.dumps({
        "id": f"r{i}", "title": f"On summarising the reference list of paper number {i}",
        "authors": [f"Jane Doe{i % 300}", f"John Roe{i % 70}", "Ann Lee"], "year": 2001,
        "venue_name": f"Proceedings of Meeting {i % 40}", "venue_type": "proceedings",
        "domain": "Computing", "subdomain": "Language", "citation_count": i}) + "\n"
        for i in range(2000))
    tracemalloc.start()
    try:
        records = load_record_lines(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 2000
    assert peak - kept < sys.getsizeof(text) / 2


def test_a_repeated_record_id_keeps_the_first_line_and_warns():
    rows = [{"id": "a", "title": "A", "venue_type": "journal", "year": 2001},
            {"id": "a", "title": "A", "venue_type": "journal", "year": 2001},
            {"id": "b", "title": "B", "venue_type": "book", "year": 2002},
            {"title": "C", "year": 99}, {"id": "r4"}, {"id": "b"}]
    warnings: list[str] = []
    records = load_record_lines("\n".join(json.dumps(r) for r in rows), warnings)
    assert [(r.id, r.title) for r in records] == [("a", "A"), ("b", "B"), ("r4-2", "C"),
                                                  ("r4", "")]
    assert warnings == ["a: duplicate id (first on line 1), dropped",
                        "r4-2: year 99 out of range, dropped",
                        "b: duplicate id (first on line 3), dropped"]


def test_a_line_without_an_id_yields_r_line_to_a_later_explicit_id():
    warnings: list[str] = []
    records = load_record_lines('{"title": "T", "year": 5}\n{"id": "r1", "title": "U"}\n'
                                '{"id": "r1-2"}\n', warnings)
    assert [(r.id, r.title) for r in records] == [("r1-3", "T"), ("r1", "U"), ("r1-2", "")]
    assert warnings == ["r1-3: year 5 out of range, dropped"]


def test_a_line_without_an_id_yields_r_line_to_an_earlier_explicit_id():
    warnings: list[str] = []
    records = load_record_lines('{"id": "r2"}\n{"id": 7, "title": "U"}\n', warnings)
    assert [(r.id, r.title) for r in records] == [("r2", ""), ("r2-2", "U")]
    assert warnings == ["r2-2: id 7 is not a str, dropped"]
