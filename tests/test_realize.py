from __future__ import annotations

from typing import get_args

import pytest

from oracles import brute_percentage
from refsum import (AuthorList, CategoricalQuant, CitingPaper, CombinedYearSelfCite,
                    ContinuousRange, DocumentPlan, DominatingShape,
                    FeatureWithComparison, GroupTopList, IntroWithLeadAttribute,
                    Message, Paragraph, RealizationError,
                    ReferenceRecord, TemplateError,
                    aggregate_list, build_plan, build_profile,
                    default_prodset_config, default_refset_config, format_number,
                    format_percentage, format_year, load_template_pack,
                    price_pack, realize)
from refsum.config import AttributeSpec
from refsum.profile import (AuthorScore, CategoricalDistribution, ComparisonResult,
                            ContinuousSummary, DistributionEntry, GroupTop,
                            GroupTopEntry)
from refsum.names import PersonName
from refsum.realize import _quant_item
from refsum.templates import PRICE_PACK_TEXT, default_pack
from test_profile import TEN

GOLDEN_VENUE = ("Most references (55%) are from proceedings. "
                "A large proportion is from journals (30%). "
                "Some are from books (15%).")


def _venue_dist():
    return CategoricalDistribution("venue_type", (
        DistributionEntry("proceedings", 11, 0.55, "most"),
        DistributionEntry("journal", 6, 0.30, "large"),
        DistributionEntry("book", 3, 0.15, "some"),
    ), 20)


# -- formatting -----------------------------------------------------------------

@pytest.mark.parametrize("proportion,expected", [
    (0.55, "55%"),
    (0.0, "0%"),
    (1.0, "100%"),
    (0.345, "35%"),   # frozen from the decimal-string rounding oracle
    (0.005, "1%"),
    (0.3, "30%"),
])
def test_format_percentage(proportion, expected):
    assert format_percentage(proportion) == expected
    assert format_percentage(proportion) == brute_percentage(proportion)


def test_format_percentage_range_error():
    with pytest.raises(ValueError):
        format_percentage(1.2)
    with pytest.raises(ValueError):
        format_percentage(-0.1)


def test_format_percentage_agrees_with_oracle_on_simple_ratios():
    for total in range(1, 40):
        for count in range(0, total + 1):
            p = count / total
            assert format_percentage(p) == brute_percentage(p)


@pytest.mark.parametrize("value,expected", [
    (475, "475"), (475.0, "475"), (42.5, "42.5"), (474.25, "474.3"), (0, "0"),
])
def test_format_number(value, expected):
    assert format_number(value) == expected


@pytest.mark.parametrize("value,expected", [
    (2011.5, "2011"),  # half rounds down, stays inside the observed range
    (2013.0, "2013"),
    (2013.6, "2014"),
    (2013.4, "2013"),
])
def test_format_year(value, expected):
    assert format_year(value) == expected


@pytest.mark.parametrize("items,expected", [
    ([], ""),
    (["A"], "A"),
    (["A", "B"], "A and B"),
    (["A", "B", "C"], "A, B and C"),
])
def test_aggregate_list(items, expected):
    assert aggregate_list(items) == expected


# -- quantifier sentences --------------------------------------------------------

def test_quantifier_sentences_match_expected_wording():
    pack = default_pack()
    assert _quant_item(pack, "venue_type", 0, "most", "proceedings", 0.55) == \
        "Most references (55%) are from proceedings."
    assert _quant_item(pack, "venue_type", 1, "large", "journal", 0.30) == \
        "A large proportion is from journals (30%)."
    assert _quant_item(pack, "venue_type", 2, "some", "book", 0.15) == \
        "Some are from books (15%)."


# -- golden sentence block ---------------------------------------------------------

def test_golden_venue_paragraph_character_for_character():
    plan = DocumentPlan("refset", (Paragraph("venue_type", CategoricalQuant(_venue_dist())),))
    assert realize(plan).paragraphs[0] == GOLDEN_VENUE


def test_intro_fuses_total_with_venue_sentences():
    plan = DocumentPlan("refset", (Paragraph("intro", IntroWithLeadAttribute(
        total=20, distribution=_venue_dist())),))
    assert realize(plan).paragraphs[0] == f"This paper cites 20 references. {GOLDEN_VENUE}"


def test_a_message_with_no_renderer_is_an_error_naming_its_kind():
    plan = DocumentPlan("refset", (Paragraph("v", _venue_dist()),))
    with pytest.raises(RealizationError,
                       match="no renderer for message kind CategoricalDistribution"):
        realize(plan)


def test_empty_plan_renders_empty_summary():
    summary = realize(DocumentPlan("refset", ()))
    assert summary.paragraphs == ()
    assert summary.full_text == ""


# -- prodset comparison with configured unit ------------------------------------------

TV_PACK = PRICE_PACK_TEXT + """
[lexicon.connectivity]
smart-internet = a Smart-Internet feature
basic = basic connectivity only
"""


def tv_records():
    smart = [400, 450, 475, 475, 500, 550]
    basic = [300, 350, 420, 450]
    rows = [{"id": f"s{i}", "price": p, "connectivity": "smart-internet"}
            for i, p in enumerate(smart)]
    rows += [{"id": f"b{i}", "price": p, "connectivity": "basic"}
             for i, p in enumerate(basic)]
    return rows


def test_prodset_tv_fixture_realises_paper_style_comparison():
    config = default_prodset_config(
        attributes=(AttributeSpec("connectivity", "categorical", "listed"),),
        dominating="price")
    citing = CitingPaper(references=tuple(tv_records()))
    profile = build_profile(citing, config)
    comparison = profile.comparisons["connectivity"]
    assert (comparison.direction, comparison.magnitude) == ("higher", "slightly")
    assert (comparison.subset_median, comparison.superset_median) == (475, 450)
    pack = load_template_pack(TV_PACK).with_settings(noun="TVs")
    text = realize(build_plan(profile, config), pack).full_text
    assert "slightly more expensive (£475 vs £450)" in text
    assert "TVs with a Smart-Internet feature are generally slightly more expensive" in text
    assert text.startswith("The price of the 10 TVs ranges from £300 to £550, "
                           "with a median of £450.")


def test_price_pack_renders_the_ten_product_set_end_to_end():
    config = default_prodset_config(
        attributes=tuple(AttributeSpec(a, "categorical", "listed")
                         for a in ("brand", "size", "color")),
        dominating="price")
    profile = build_profile(CitingPaper(references=tuple(TEN)), config)
    assert realize(build_plan(profile, config), price_pack()).full_text == (
        "The price of the 10 products ranges from £100 to £440, with a median of £155."
        "\n\n"
        "A large proportion of products (40%) have large. A large proportion have medium "
        "(30%). A large proportion have small (30%). Products with large are generally "
        "much more expensive (£425 vs £155)."
        "\n\n"
        "A large proportion of products (40%) have acme. A large proportion have bolt (30%). "
        "A large proportion have cape (30%). Products with acme are generally much less "
        "expensive (£130 vs £155)."
        "\n\n"
        "Most products (50%) have blue. Most have red (50%). Products with blue are "
        "generally slightly less expensive (£150 vs £155).")


# -- degradation variants ----------------------------------------------------------

def _author(key_given, family, score, papers, counted):
    return AuthorScore(PersonName(family, key_given), score, papers, counted)


def test_author_list_counted_and_uncounted_variants():
    counted = AuthorList(
        authors=(_author("Ann", "Ash", 30, 2, 2), _author("Ben", "Birch", 1, 1, 1)),
        has_counts=True)
    text = realize(DocumentPlan("refset", (Paragraph("authors", counted),))).full_text
    assert text == ("The 2 authors with the highest citation counts are "
                    "Ann Ash (30 citations) and Ben Birch (1 citation).")

    uncounted = AuthorList(authors=(_author("Ann", "Ash", 0, 2, 0),), has_counts=False)
    text = realize(DocumentPlan("refset", (Paragraph("authors", uncounted),))).full_text
    assert text == "The most frequently listed author is Ann Ash."


def test_group_top_variants():
    def entry(count):
        return GroupTopEntry("alpha", 0.5, "most", "r1", count,
                             top_title="Find Me")

    def render(count, show_counts=True):
        message = GroupTopList(GroupTop("subdomain", (entry(count),)))
        pack = default_pack().with_settings(show_counts="yes" if show_counts else "no")
        return realize(DocumentPlan("refset", (Paragraph("g", message),)), pack).full_text

    assert 'The most cited is "Find Me" (7 citations).' in render(7)
    assert 'The most cited is "Find Me" (1 citation).' in render(1)
    assert 'The most cited is "Find Me".' in render(7, show_counts=False)
    assert 'A representative publication is "Find Me".' in render(None)


def test_year_selfcite_variants():
    def render(summary, share):
        message = CombinedYearSelfCite(summary=summary, share=share)
        return realize(DocumentPlan("refset", (Paragraph("years", message),))).full_text

    span = ContinuousSummary("year", 1998, 2015, 2011.5, 20)
    assert render(span, 0.15) == ("The references were published between 1998 and 2015, "
                                  "centred on 2011; 15% are self-citations.")
    assert render(span, None) == ("The references were published between 1998 and 2015, "
                                  "centred on 2011.")
    single = ContinuousSummary("year", 2014, 2014, 2014, 3)
    assert render(single, 0.0) == "The references were all published in 2014; 0% are self-citations."
    assert render(single, None) == "The references were all published in 2014."
    assert render(None, 0.25) == "25% of the references are self-citations."


def test_shape_single_value_variant():
    message = DominatingShape(
        total=4, summary=ContinuousSummary("citation_count", 10, 10, 10, 4))
    text = realize(DocumentPlan("prodset", (Paragraph("shape", message),))).full_text
    assert text == "All 4 references share the same citation count of 10."


# -- template machinery ---------------------------------------------------------------

def test_missing_template_is_an_error_naming_the_kind():
    pack = load_template_pack("[settings]\nnoun = things\n")
    plan = DocumentPlan("refset", (Paragraph("v", CategoricalQuant(_venue_dist())),))
    with pytest.raises(TemplateError, match="quant.most.first"):
        realize(plan, pack)


def test_unresolved_placeholder_is_an_error_naming_the_slot():
    pack = load_template_pack(
        "[settings]\nnoun = refs\n[quant.most.first]\nMost {nonsense} here.\n")
    plan = DocumentPlan("refset", (Paragraph("v", CategoricalQuant(CategoricalDistribution(
        "venue_type", (DistributionEntry("a", 1, 1.0, "most"),), 1))),))
    with pytest.raises(RealizationError, match="nonsense"):
        realize(plan, pack)


def test_every_template_may_use_the_shared_noun_and_unit_slots():
    pack = load_template_pack(
        "[settings]\nnoun = widgets\nunit = $\n"
        "[authors.uncounted.single]\nTop: {authors}.\n"
        "[authors.item.plain]\n{name} ({noun})\n"
        "[quant.most.first]\nMostly {value}.\n"
        "[subject.default]\nthose from {value}\n"
        "[compare.same.same]\n{Noun} like {subject} cost {unit}{sub}.\n")
    authors = AuthorList(authors=(_author("Ann", "Ash", 0, 2, 0),), has_counts=False)
    feature = FeatureWithComparison(
        distribution=CategoricalDistribution("venue_type", (
            DistributionEntry("journal", 2, 1.0, "most"),), 2),
        comparison=ComparisonResult("venue_type", "journal", 5, 5, "same", "same"))
    plan = DocumentPlan("prodset", (Paragraph("a", authors), Paragraph("f", feature)))
    assert realize(plan, pack).paragraphs == (
        "Top: Ann Ash (widgets).", "Mostly journal. Widgets like those from journal cost $5.")

    broken = load_template_pack(PRICE_PACK_TEXT.replace("{Noun} with {value}", "{nonsense}"))
    with pytest.raises(RealizationError,
                       match="subject.default: unresolved placeholder 'nonsense'"):
        realize(DocumentPlan("prodset", (Paragraph("f", feature),)), broken)


@pytest.mark.parametrize("text, message", [
    ("stray line before any section",
     "content before the first section header: 'stray line before any section'"),
    ("[lexicon.x]\nno equals sign here\n", "[lexicon.x]: expected 'token = display' lines"),
    ("[empty.section]\n[next.section]\nbody\n", "[empty.section]: empty template body"),
    ("[]\nbody\n", "empty section header"),
    ("[a]\nfirst\n[a]\nsecond\n", "[a]: repeated section header"),
    ("[settings]\nshow_count = no\n", "[settings]: unknown key 'show_count'"),
    ("[settings]\nshow_counts = nope\n",
     "[settings]: show_counts must be yes, no, true, false, 1 or 0, not 'nope'"),
], ids=["stray-line", "lexicon-line", "empty-body", "empty-header", "repeated-header",
        "unknown-setting", "bad-show-counts"])
def test_pack_loader_rejects_malformed_input(text, message):
    with pytest.raises(TemplateError) as info:
        load_template_pack(text)
    assert str(info.value) == message


@pytest.mark.parametrize("value, shown", [
    ("yes", True), ("True", True), ("1", True), ("NO", False), ("false", False), ("0", False),
])
def test_show_counts_setting_reads_yes_no_words(value, shown):
    assert load_template_pack(f"[settings]\nshow_counts = {value}\n").show_counts is shown
    assert default_pack().with_settings(show_counts=value).show_counts is shown


def test_a_body_line_with_one_square_bracket_stays_template_text():
    pack = load_template_pack("[intro.lead]\n[Draft] {total} {noun}.\nSee {lead_sentences} [1]\n")
    assert pack.templates == {"intro.lead": "[Draft] {total} {noun}. See {lead_sentences} [1]"}


def test_pack_settings_default_and_none_keeps_the_current_value():
    bare = load_template_pack("[range]\n{min} to {max}\n")
    assert (bare.noun, bare.unit, bare.show_counts) == ("items", "", True)
    pack = default_pack().with_settings(noun=None, unit="$", show_counts=None)
    assert (pack.noun, pack.unit, pack.show_counts) == ("references", "$", True)


def test_pack_lexeme_fallback_chain():
    pack = default_pack()
    assert pack.lexeme("venue_type", "journal") == "journals"
    assert pack.lexeme("domain", "unknown") == "unclassified sources"
    assert pack.lexeme("domain", "computing-science") == "computing science"


def test_per_attribute_template_override():
    sentence = _quant_item(default_pack(), "subdomain", 1, "some", "databases", 0.15)
    assert sentence == "Some are in databases (15%)."


# -- totality sweep ---------------------------------------------------------------------

def test_default_pack_covers_every_plannable_message(fixture20_paper):
    """Render every message kind the planners can emit, in both algorithms
    and both degradation states, against the stock pack."""
    offline = CitingPaper(
        references=tuple(ReferenceRecord(
            id=r.id, title=r.title, authors=r.authors, year=r.year,
            venue_name=r.venue_name, venue_type=r.venue_type, domain=r.domain,
            subdomain=r.subdomain) for r in fixture20_paper.references))
    seen = set()
    runs = [(fixture20_paper, default_refset_config()),
            (fixture20_paper, default_prodset_config()),
            (offline, default_refset_config())]   # offline prodset is a planning error
    for paper, config in runs:
        profile = build_profile(paper, config)
        plan = build_plan(profile, config)
        realize(plan)  # must not raise
        seen |= {type(p.message) for p in plan.paragraphs}
    # the two kinds the default schemas do not emit still need templates
    extra = DocumentPlan("refset", (
        Paragraph("r", ContinuousRange(
            ContinuousSummary("pages", 1.0, 30.5, 12.25, 5))),
        Paragraph("c", FeatureWithComparison(
            distribution=_venue_dist(),
            comparison=ComparisonResult("venue_type", "proceedings",
                                        50, 50, "same", "same"))),
    ))
    realize(extra)
    seen |= {type(p.message) for p in extra.paragraphs}
    assert seen == set(get_args(Message))


def test_realization_is_byte_stable(fixture20_paper):
    config = default_refset_config()
    plan = build_plan(build_profile(fixture20_paper, config), config)
    first = realize(plan).full_text
    for _ in range(5):
        assert realize(plan).full_text == first
    assert not any(line != line.rstrip() for line in first.splitlines())


def test_every_output_number_comes_from_the_plan(fixture20_paper):
    """Realisation may format plan values but never compute new ones."""
    import re
    config = default_refset_config()
    plan = build_plan(build_profile(fixture20_paper, config), config)
    allowed: set[str] = set()
    for message in (paragraph.message for paragraph in plan.paragraphs):
        if hasattr(message, "total"):
            allowed.add(str(message.total))
        if getattr(message, "distribution", None) is not None:
            for e in message.distribution.entries:
                allowed.add(format_percentage(e.proportion).rstrip("%"))
        if getattr(message, "summary", None) is not None:
            s = message.summary
            allowed |= {str(int(s.minimum)), str(int(s.maximum)),
                        format_year(s.median), format_number(s.median)}
        if getattr(message, "share", None) is not None:
            allowed.add(format_percentage(message.share).rstrip("%"))
        if getattr(message, "group_top", None) is not None:
            for e in message.group_top.entries:
                allowed.add(format_percentage(e.share).rstrip("%"))
                if e.top_count is not None:
                    allowed.add(str(e.top_count))
                allowed |= set(re.findall(r"\d+", e.top_title))
        if hasattr(message, "authors"):
            allowed.add(str(len(message.authors)))
            for a in message.authors:
                allowed.add(str(a.score))
    text = realize(plan).full_text
    assert set(re.findall(r"\d+", text)) <= allowed
