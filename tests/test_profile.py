from __future__ import annotations

import pytest

from oracles import (brute_distribution, brute_group_tops, brute_importance,
                     brute_median, brute_self_citation_share, brute_top_authors)
from refsum import (CitingPaper, EmptySetError, ReferenceRecord,
                    StatsError, categorical_distribution, continuous_summary,
                    default_prodset_config, default_refset_config,
                    feature_importance, parse_person_names,
                    self_citation_share, subset_vs_superset, top_authors,
                    top_reference_per_group)
from refsum.profile import build_profile, profile_to_text, quantifier_for


def _records(spec):
    """spec: list of (venue_type, count_of_records)."""
    out = []
    for venue_type, n in spec:
        for i in range(n):
            out.append(ReferenceRecord(id=f"{venue_type}{i}", venue_type=venue_type))
    return out


# -- quantifiers -----------------------------------------------------------------

@pytest.mark.parametrize("proportion,expected", [
    (0.55, "most"),
    (0.30, "large"),
    (0.15, "some"),
    (0.50, "most"),
    (0.20, "large"),
    (1.0, "most"),
    (0.001, "some"),
])
def test_quantifier_bands(proportion, expected):
    assert quantifier_for(proportion) == expected


def test_quantifiers_are_three_distinct_words_in_order():
    words = [quantifier_for(i / 1000) for i in range(1, 1001)]
    assert list(dict.fromkeys(words)) == ["some", "large", "most"]


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.0001, 2.0])
def test_quantifier_domain_error(bad):
    with pytest.raises(ValueError):
        quantifier_for(bad)


# -- categorical distribution -------------------------------------------------------

def test_distribution_paper_shape():
    records = _records([("proceedings", 11), ("journal", 6), ("book", 3)])
    dist = categorical_distribution(records, "venue_type")
    assert [(e.value, e.proportion, e.bucket) for e in dist.entries] == [
        ("proceedings", 0.55, "most"),
        ("journal", 0.30, "large"),
        ("book", 0.15, "some"),
    ]
    assert dist.total == 20
    assert abs(sum(e.proportion for e in dist.entries) - 1.0) < 1e-9


def test_distribution_single_value():
    dist = categorical_distribution(_records([("journal", 4)]), "venue_type")
    assert len(dist.entries) == 1
    assert dist.entries[0].proportion == 1.0
    assert dist.entries[0].bucket == "most"


def test_distribution_four_way_tie_ordered_by_name():
    records = _records([("book", 2), ("journal", 2), ("other", 2), ("proceedings", 2)])
    dist = categorical_distribution(records, "venue_type")
    assert [e.value for e in dist.entries] == ["book", "journal", "other", "proceedings"]
    assert all(e.bucket == "large" for e in dist.entries)


def test_distribution_counts_absent_as_unknown():
    records = [ReferenceRecord(id="a", domain="x"), ReferenceRecord(id="b")]
    dist = categorical_distribution(records, "domain")
    assert {e.value for e in dist.entries} == {"x", "unknown"}


def test_distribution_of_a_boolean_attribute_reads_true_and_false():
    records = [{"flag": True}, {"flag": False}, {"flag": True}, {}]
    dist = categorical_distribution(records, "flag")
    assert [(e.value, e.count) for e in dist.entries] == [
        ("true", 2), ("false", 1), ("unknown", 1)]


def test_distribution_empty_set():
    with pytest.raises(EmptySetError):
        categorical_distribution([], "venue_type")


def test_distribution_matches_oracle(fixture20_records):
    for attribute in ("venue_type", "domain", "subdomain"):
        dist = categorical_distribution(fixture20_records, attribute)
        expected = brute_distribution(fixture20_records, attribute)
        assert {e.value: (e.count, e.proportion) for e in dist.entries} == expected


# -- continuous summaries --------------------------------------------------------------

def test_continuous_odd_count():
    records = [ReferenceRecord(id=str(y), year=y) for y in (2014, 2015, 2015)]
    summary = continuous_summary(records, "year")
    assert (summary.minimum, summary.maximum, summary.median) == (2014, 2015, 2015)


def test_continuous_single_value():
    summary = continuous_summary([ReferenceRecord(id="a", year=2010)], "year")
    assert (summary.minimum, summary.maximum, summary.median) == (2010, 2010, 2010)


def test_continuous_even_count_midpoint():
    records = [ReferenceRecord(id=str(y), year=y) for y in (2012, 2014)]
    assert continuous_summary(records, "year").median == 2013


def test_continuous_ignores_absent():
    records = [ReferenceRecord(id="a", year=2000), ReferenceRecord(id="b")]
    assert continuous_summary(records, "year").count == 1
    # a bool or a numeric string in a mapping's column is not a number
    for not_a_number in (True, "7"):
        assert continuous_summary([{"p": not_a_number}, {"p": 3}], "p").count == 1


def test_continuous_fully_absent():
    with pytest.raises(StatsError, match="fully absent"):
        continuous_summary([ReferenceRecord(id="a")], "year")


def test_dominating_shape_examples():
    prices = [{"id": i, "price": p} for i, p in enumerate([450, 475, 500])]
    shape = continuous_summary(prices, "price")
    assert (shape.minimum, shape.maximum, shape.median) == (450, 500, 475)

    flat = [{"id": i, "count": 10} for i in range(4)]
    shape = continuous_summary(flat, "count")
    assert (shape.minimum, shape.maximum, shape.median) == (10, 10, 10)

    # frozen from the sort-and-midpoint oracle
    counts = [{"id": i, "citation_count": c} for i, c in enumerate([0, 1, 5, 100])]
    shape = continuous_summary(counts, "citation_count")
    assert (shape.minimum, shape.maximum, shape.median) == (0, 100, 3.0)
    assert shape.median == brute_median([0, 1, 5, 100])


# -- per-group top references --------------------------------------------------------

def _grouped(rid, group, count=None, year=None, title=""):
    return ReferenceRecord(id=rid, title=title or rid.upper(), subdomain=group,
                           citation_count=count, year=year)


NINE = [
    _grouped("r1", "alpha", count=40, year=2012),
    _grouped("r2", "alpha", count=7, year=2009),
    _grouped("r3", "alpha", count=40, year=2010),
    _grouped("r4", "beta", year=2003, title="Bravo"),
    _grouped("r5", "beta", year=2003, title="Alpha"),
    _grouped("r6", "beta", year=2008),
    _grouped("r7", "gamma", count=0, year=2011),
    _grouped("r8", "gamma", year=1999),
    _grouped("r9", "gamma", count=0, year=2015),
]


def test_group_top_argmax():
    top = top_reference_per_group(
        [_grouped("r1", "a", count=40), _grouped("r2", "a", count=7)], "subdomain")
    assert top.entries[0].top_reference == "r1"
    assert top.entries[0].top_count == 40


def test_group_top_all_absent_uses_year_then_title():
    top = top_reference_per_group(NINE[3:6], "subdomain")
    assert top.entries[0].top_reference == "r5"
    assert top.entries[0].top_count is None


def test_group_top_nine_record_fixture_matches_oracle():
    # frozen from the exhaustive per-group scan: tie on count -> earlier
    # year (alpha), all-absent counts -> year then title (beta), zero count
    # beats absent and ties break by year (gamma)
    top = top_reference_per_group(NINE, "subdomain")
    winners = {e.group_value: e.top_reference for e in top.entries}
    assert winners == {"alpha": "r3", "beta": "r5", "gamma": "r7"}
    assert winners == brute_group_tops(NINE, "subdomain")


def test_group_top_excludes_absent_group_but_counts_share():
    records = NINE[:3] + [_grouped("r10", None, count=1)]
    top = top_reference_per_group(records, "subdomain")
    assert [e.group_value for e in top.entries] == ["alpha"]
    assert top.entries[0].share == 0.75


def test_a_group_is_labelled_as_its_distribution_spells_the_value():
    rows = [{"id": "a", "subdomain": True, "citation_count": 3},
            {"id": "b", "subdomain": True}, {"id": "c", "subdomain": None}]
    dump = profile_to_text(build_profile(CitingPaper(references=tuple(rows)),
                                         default_refset_config()))
    assert "\nentry\ttrue\t2\t" in dump
    assert "\ngroup\ttrue\tshare=" in dump
    assert "True" not in dump
    top = top_reference_per_group(rows, "subdomain")
    assert [(e.group_value, e.top_reference) for e in top.entries] == [("true", "a")]
    assert brute_group_tops(rows, "subdomain") == {"true": "a"}


# -- author ranking ----------------------------------------------------------------

def _paper(rid, who, count):
    return ReferenceRecord(id=rid, title=rid, citation_count=count,
                           authors=tuple(parse_person_names(who)))


TWELVE = [
    _paper("p1", "Ann Ash and Ben Birch", 30),
    _paper("p2", "Ben Birch and Cara Cole", 10),
    _paper("p3", "Cara Cole", 50),
    _paper("p4", "Dev Dune and Ann Ash", None),
    _paper("p5", "Eli Elm and Fay Fern and Gus Gale", 20),
    _paper("p6", "Fay Fern", 40),
    _paper("p7", "Hal Hart", 60),
    _paper("p8", "Ida Iris and Jon Jett", 5),
    _paper("p9", "Kay Kerr", 5),
    _paper("p10", "Lia Lund and Hal Hart", 0),
    _paper("p11", "Jon Jett", 0),
    _paper("p12", "Gus Gale and Eli Elm", 15),
]


def test_shared_paper_credits_both_authors():
    ranked = top_authors([_paper("p", "A One and B Two", 30)], 7)
    assert [(a.author.normalized_key, a.score) for a in ranked] == [
        ("one.a", 30), ("two.b", 30)]


def test_twelve_author_fixture_matches_oracle():
    # frozen from the brute-force accumulation oracle
    ranked = top_authors(TWELVE, 7)
    assert [(a.author.normalized_key, a.score) for a in ranked] == [
        ("cole.c", 60), ("fern.f", 60), ("hart.h", 60), ("birch.b", 40),
        ("elm.e", 35), ("gale.g", 35), ("ash.a", 30)]
    expected = brute_top_authors(TWELVE, 7)
    assert [(a.author.normalized_key, a.score, a.paper_count) for a in ranked] == expected


def test_default_k_is_seven():
    assert len(top_authors(TWELVE)) == 7


def test_fewer_authors_than_k():
    ranked = top_authors(TWELVE[:3], 7)
    assert len(ranked) == 3


def test_absent_counts_never_fabricate_standing():
    ranked = top_authors([_paper("p1", "A One", None), _paper("p2", "B Two", 1)], 2)
    assert ranked[0].author.normalized_key == "two.b"
    assert ranked[1].score == 0
    assert ranked[1].counted_papers == 0


def test_max_score_mode():
    records = [_paper("p1", "A One", 10), _paper("p2", "A One", 40)]
    assert top_authors(records, 1, score_mode="max")[0].score == 40


@pytest.mark.parametrize("k,score_mode", [(0, "sum"), (7, "bogus"), (7, "Max")])
def test_top_authors_refuses_a_bad_k_or_score_mode(k, score_mode):
    with pytest.raises(ValueError):
        top_authors(TWELVE, k, score_mode=score_mode)


def test_name_variants_collapse_and_display_prefers_fullest():
    records = [_paper("p1", "J. Smith", 10), _paper("p2", "John Smith", 20)]
    ranked = top_authors(records, 1)
    assert ranked[0].score == 30
    assert ranked[0].author.display() == "John Smith"


# -- feature importance ----------------------------------------------------------------

TEN = [
    {"id": f"t{i}", "price": price, "brand": brand, "size": size, "color": color}
    for i, (price, brand, size, color) in enumerate([
        (100, "acme", "small", "red"),
        (120, "acme", "small", "blue"),
        (140, "acme", "medium", "red"),
        (160, "bolt", "medium", "blue"),
        (400, "bolt", "large", "red"),
        (420, "bolt", "large", "blue"),
        (440, "cape", "large", "red"),
        (110, "cape", "small", "blue"),
        (430, "cape", "large", "red"),
        (150, "acme", "medium", "blue"),
    ])
]


def test_importance_zero_spread():
    flat = [{"price": 10, "kind": k} for k in ("a", "a", "b", "b")] + \
           [{"price": 20, "kind": k} for k in ("a", "b")]
    ranking = dict(feature_importance(flat, "price", ["kind"]))
    assert ranking["kind"] == 0.0


def test_importance_perfect_separation_scores_one():
    records = [{"price": 10, "flag": "lo"}] * 3 + [{"price": 50, "flag": "hi"}] * 3
    ranking = dict(feature_importance(records, "price", ["flag"]))
    assert ranking["flag"] == 1.0
    # an overall range of at most 1 still divides
    narrow = [{"price": 0.5, "flag": "lo"}] * 2 + [{"price": 1.0, "flag": "hi"}] * 2
    assert dict(feature_importance(narrow, "price", ["flag"]))["flag"] == 1.0


def test_importance_ties_rank_by_attribute_name():
    assert feature_importance(TEN, "price", ["z", "a"]) == (("a", 0.0), ("z", 0.0))


def test_importance_ten_record_fixture_matches_oracle():
    # frozen from independent re-computation of the spread/range formula
    result = feature_importance(TEN, "price", ["brand", "size", "color"])
    assert [name for name, _ in result] == ["size", "brand", "color"]
    scores = dict(result)
    assert scores["size"] == pytest.approx(315 / 340, abs=1e-12)
    assert scores["brand"] == pytest.approx(300 / 340, abs=1e-12)
    assert scores["color"] == pytest.approx(250 / 340, abs=1e-12)
    brute = brute_importance(TEN, "price", ["brand", "size", "color"])
    for name, score in result:
        assert score == pytest.approx(brute[name], abs=1e-12)


def test_importance_no_candidates():
    assert feature_importance(TEN, "price", []) == ()


def test_importance_needs_two_dominating_values():
    with pytest.raises(StatsError):
        feature_importance([{"price": 5}], "price", ["brand"])


# -- subset vs superset ---------------------------------------------------------------

def _priced(values):
    return [{"id": i, "price": v} for i, v in enumerate(values)]


def test_comparison_paper_exemplar():
    result = subset_vs_superset(_priced([475]), _priced([450]), "price")
    assert (result.direction, result.magnitude) == ("higher", "slightly")
    assert (result.subset_median, result.superset_median) == (475, 450)


def test_comparison_equal_medians():
    result = subset_vs_superset(_priced([450]), _priced([450]), "price")
    assert (result.direction, result.magnitude) == ("same", "same")


def test_comparison_much_higher():
    result = subset_vs_superset(_priced([600]), _priced([450]), "price")
    assert (result.direction, result.magnitude) == ("higher", "much")


def test_comparison_lower_band():
    result = subset_vs_superset(_priced([400]), _priced([450]), "price")
    assert (result.direction, result.magnitude) == ("lower", "slightly")


def test_comparison_zero_superset_median_forced_much():
    result = subset_vs_superset(_priced([10]), _priced([0]), "price")
    assert (result.direction, result.magnitude) == ("higher", "much")
    result = subset_vs_superset(_priced([0.5]), _priced([0]), "price")
    assert (result.direction, result.magnitude) == ("higher", "much")
    result = subset_vs_superset(_priced([0]), _priced([0]), "price")
    assert (result.direction, result.magnitude) == ("same", "same")


# -- self-citation share ----------------------------------------------------------------

def test_share_examples():
    none = [ReferenceRecord(id=str(i), self_citation=False) for i in range(20)]
    assert self_citation_share(none) == 0.0
    three = [ReferenceRecord(id=str(i), self_citation=i < 3) for i in range(20)]
    assert self_citation_share(three) == 0.15
    with pytest.raises(EmptySetError):
        self_citation_share([])


def test_share_random_fixture_matches_oracle():
    import random
    rng = random.Random(50)
    records = [ReferenceRecord(id=str(i), self_citation=rng.random() < 0.3)
               for i in range(50)]
    assert self_citation_share(records) == brute_self_citation_share(records)


# -- build_profile -----------------------------------------------------------------------

def test_profile_total_counts_references(data_dir):
    from refsum import parse_bibtex, to_reference_record
    entries = parse_bibtex((data_dir / "fixture43.bib").read_text())
    citing = CitingPaper(references=tuple(to_reference_record(e) for e in entries))
    profile = build_profile(citing, default_refset_config())
    assert profile.total == 43


def test_profile_without_continuous_attributes(fixture20_records):
    config = default_refset_config(attributes=(
        *[s for s in default_refset_config().attributes if s.kind != "continuous"],))
    profile = build_profile(CitingPaper(references=tuple(fixture20_records)), config)
    assert profile.continuous == {}


def test_profile_full_default_against_oracles(fixture20_paper):
    profile = build_profile(fixture20_paper, default_refset_config())
    records = fixture20_paper.references
    assert profile.total == 20
    for dist in profile.distributions.values():
        if dist.attribute == "self_citation":
            continue
        assert {e.value: (e.count, e.proportion) for e in dist.entries} == \
            brute_distribution(records, dist.attribute)
    year = profile.continuous["year"]
    assert (year.minimum, year.maximum) == (1998, 2015)
    assert year.median == brute_median([r.year for r in records])
    assert profile.self_citation_share == brute_self_citation_share(records) == 0.15
    tops = profile.group_tops["subdomain"]
    assert {e.group_value: e.top_reference for e in tops.entries} == \
        brute_group_tops(records, "subdomain")
    assert [(a.author.normalized_key, a.score, a.paper_count)
            for a in profile.top_authors] == brute_top_authors(records, 7)
    # refset never reports the dominating column's own shape
    assert profile.dominating_shape is None
    # every configured attribute appears exactly once across the fragments
    config = default_refset_config()
    assert sorted(d.attribute for d in profile.distributions.values()) == \
        sorted(s.name for s in config.categorical())
    assert [c.attribute for c in profile.continuous.values()] == \
        [s.name for s in config.continuous()]
    # each fragment is keyed by its own attribute
    for fragments in (profile.distributions, profile.continuous):
        assert all(key == value.attribute for key, value in fragments.items())
    assert all(key == top.group_attribute for key, top in profile.group_tops.items())


def test_profile_prodset_fragments(fixture20_paper):
    profile = build_profile(fixture20_paper, default_prodset_config())
    assert profile.dominating_shape is not None
    assert profile.importance is not None
    assert [c.attribute for c in profile.comparisons.values()] == \
        [s.name for s in default_prodset_config().listed()]
    assert all(key == c.attribute for key, c in profile.comparisons.items())
    assert profile.top_authors == ()


def test_profile_dump_shows_the_share_and_an_absent_top_count_as_a_dash():
    rows = (ReferenceRecord(id="a", subdomain="x", citation_count=5, self_citation=True),
            ReferenceRecord(id="b", subdomain="y", self_citation=False))
    lines = profile_to_text(build_profile(CitingPaper(references=rows),
                                          default_refset_config())).splitlines()
    assert "self_citation_share\t0.5" in lines
    assert [line.rsplit("\t", 1)[1] for line in lines if line.startswith("group\t")] == \
        ["count=5", "count=-"]


def test_profile_empty_set_is_an_error():
    with pytest.raises(EmptySetError):
        build_profile(CitingPaper(references=()), default_refset_config())
