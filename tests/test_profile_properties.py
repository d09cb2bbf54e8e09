from __future__ import annotations

import random
from copy import deepcopy

from hypothesis import given, settings, strategies as st

from oracles import (brute_author_names, brute_distribution, brute_group_tops,
                     brute_importance, brute_median, brute_self_citation_share,
                     brute_top_authors, get)
from refsum import (CitingPaper, PersonName, ReferenceRecord, SetProfile,
                    StatsError, categorical_distribution, continuous_summary,
                    default_prodset_config, default_refset_config,
                    feature_importance, quantifier_for,
                    self_citation_share, subset_vs_superset, top_authors,
                    top_reference_per_group)
from refsum.profile import build_profile, profile_to_text

_FAMILIES = ["smith", "lee", "wong", "garcia", "novak", "chen", "sato", "olsen"]
_GIVENS = ["A", "B", "J", "K", "M", ""]
_VENUES = ["proceedings", "journal", "book", "other"]
_GROUPS = ["alpha", "beta", "gamma", None]

names = st.builds(PersonName,
                  family=st.sampled_from(_FAMILIES),
                  given=st.sampled_from(_GIVENS))


@st.composite
def reference_records(draw):
    i = draw(st.integers(min_value=0, max_value=10_000))
    return ReferenceRecord(
        id=f"r{i}",
        title=draw(st.text(alphabet="abcdef ", min_size=0, max_size=8)),
        authors=tuple(draw(st.lists(names, min_size=0, max_size=3))),
        year=draw(st.one_of(st.none(), st.integers(min_value=1980, max_value=2025))),
        venue_type=draw(st.sampled_from(_VENUES)),
        domain=draw(st.sampled_from(["cs", "psy", None])),
        subdomain=draw(st.sampled_from(_GROUPS)),
        citation_count=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=500))),
        self_citation=draw(st.sampled_from([True, False, None])),
    )


record_sets = st.lists(reference_records(), min_size=1, max_size=30)


@settings(max_examples=100, deadline=None)
@given(record_sets)
def test_distribution_equals_oracle(records):
    for attribute in ("venue_type", "subdomain"):
        dist = categorical_distribution(records, attribute)
        assert {e.value: (e.count, e.proportion) for e in dist.entries} == \
            brute_distribution(records, attribute)
        assert abs(sum(e.proportion for e in dist.entries) - 1.0) < 1e-9
        assert sum(e.count for e in dist.entries) == len(records)


@settings(max_examples=100, deadline=None)
@given(record_sets)
def test_continuous_equals_oracle(records):
    years = [r.year for r in records if r.year is not None]
    if not years:
        return
    summary = continuous_summary(records, "year")
    assert (summary.minimum, summary.maximum) == (min(years), max(years))
    assert summary.median == brute_median(years)


@settings(max_examples=100, deadline=None)
@given(record_sets)
def test_top_authors_equals_oracle(records):
    ranked = top_authors(records, 7)
    assert [(a.author.normalized_key, a.score, a.paper_count) for a in ranked] == \
        brute_top_authors(records, 7)


# Given names that share an initial, so one key has several variants, even
# within one record.
_VARIANT_SETS = st.lists(st.builds(
    lambda i, authors, count: ReferenceRecord(f"r{i}", authors=tuple(authors),
                                              citation_count=count),
    st.integers(min_value=0, max_value=50),
    st.lists(st.builds(PersonName, family=st.sampled_from(["smith", "lee"]),
                       given=st.sampled_from(["J", "J.", "Jo", "John", "K", ""])),
             max_size=4),
    st.one_of(st.none(), st.integers(min_value=0, max_value=9))), min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(st.one_of(record_sets, _VARIANT_SETS))
def test_top_authors_display_and_counted_papers_equal_oracle(records):
    expected = brute_author_names(records)
    for score in top_authors(records, 7):
        assert (score.author, score.counted_papers) == \
            expected[score.author.normalized_key]


@settings(max_examples=100, deadline=None)
@given(record_sets)
def test_group_tops_equal_oracle(records):
    top = top_reference_per_group(records, "subdomain")
    assert {e.group_value: e.top_reference for e in top.entries} == \
        brute_group_tops(records, "subdomain")


@settings(max_examples=100, deadline=None)
@given(record_sets)
def test_share_equals_oracle(records):
    assert self_citation_share(records) == brute_self_citation_share(records)


@settings(max_examples=100, deadline=None)
@given(record_sets)
def test_importance_equals_oracle(records):
    if len([r for r in records if r.citation_count is not None]) < 2:
        return
    result = feature_importance(records, "citation_count", ["venue_type", "domain"])
    brute = brute_importance(records, "citation_count", ["venue_type", "domain"])
    for name, score in result:
        assert abs(score - brute[name]) < 1e-9


def test_quantifier_monotone_over_grid():
    ranks = ("some", "large", "most")
    previous = None
    for i in range(1, 1001):
        rank = ranks.index(quantifier_for(i / 1000))
        if previous is not None:
            assert rank >= previous
        previous = rank
    assert quantifier_for(1 / 1000) == "some"
    assert quantifier_for(1.0) == "most"


@settings(max_examples=50, deadline=None)
@given(record_sets, st.integers(min_value=0, max_value=2**31))
def test_profile_permutation_invariant(records, seed):
    shuffled = records[:]
    random.Random(seed).shuffle(shuffled)
    config = default_refset_config()
    a = build_profile(CitingPaper(references=tuple(records)), config)
    b = build_profile(CitingPaper(references=tuple(shuffled)), config)
    assert a == b


@settings(max_examples=50, deadline=None)
@given(record_sets)
def test_profile_deterministic(records):
    config = default_refset_config()
    citing = CitingPaper(references=tuple(records))
    assert build_profile(citing, config) == build_profile(citing, config)


@settings(max_examples=50, deadline=None)
@given(record_sets, st.data())
def test_profile_reads_mappings_and_records_alike(records, data):
    # _asdict is shallow, so the authors stay PersonNames
    flags = data.draw(st.lists(st.booleans(), min_size=len(records), max_size=len(records)))
    mixed = [r._asdict() if as_dict else r
             for r, as_dict in zip(records, flags)]
    for config in (default_refset_config(), default_prodset_config()):
        typed_warnings: list[str] = []
        mixed_warnings: list[str] = []
        typed = build_profile(CitingPaper(references=tuple(records)), config, typed_warnings)
        either = build_profile(CitingPaper(references=tuple(mixed)), config, mixed_warnings)
        assert profile_to_text(either) == profile_to_text(typed)
        assert (either, mixed_warnings) == (typed, typed_warnings)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=400),
              st.sampled_from(["a", "b", "c"]),
              st.sampled_from(["x", "y"])),
    min_size=2, max_size=30))
def test_ordinal_outputs_scale_invariant(rows):
    base = [{"id": str(i), "price": price, "brand": brand, "color": color}
            for i, (price, brand, color) in enumerate(rows)]
    base_importance = [n for n, _ in
                       feature_importance(base, "price", ["brand", "color"])]
    top = base[:max(1, len(base) // 2)]
    base_cmp = subset_vs_superset(top, base, "price")
    for c in (0.5, 3, 1000):
        scaled = [dict(r, price=r["price"] * c) for r in base]
        ranking = [n for n, _ in
                   feature_importance(scaled, "price", ["brand", "color"])]
        assert ranking == base_importance
        comparison = subset_vs_superset(scaled[:max(1, len(base) // 2)], scaled, "price")
        assert (comparison.direction, comparison.magnitude) == \
            (base_cmp.direction, base_cmp.magnitude)


@settings(max_examples=60, deadline=None)
@given(record_sets)
def test_top_lists_scale_invariant(records):
    # doubling every count must not reorder authors or change group winners
    def scaled(record, c):
        count = record.citation_count
        return ReferenceRecord(
            id=record.id, title=record.title, authors=record.authors,
            year=record.year, venue_type=record.venue_type, domain=record.domain,
            subdomain=record.subdomain,
            citation_count=None if count is None else count * c,
            self_citation=record.self_citation)

    base_authors = [a.author.normalized_key for a in top_authors(records, 7)]
    base_tops = {e.group_value: e.top_reference
                 for e in top_reference_per_group(records, "subdomain").entries}
    for c in (3, 1000):
        bigger = [scaled(r, c) for r in records]
        assert [a.author.normalized_key for a in top_authors(bigger, 7)] == base_authors
        assert {e.group_value: e.top_reference
                for e in top_reference_per_group(bigger, "subdomain").entries} == base_tops


# -- build_profile against the public statistics --------------------------------

# One categorical column holds True, 1 and 1.0, which are equal and hash alike
# in Python but are three categories; counts and years hold bools and floats.
_ODD_CATEGORIES = [True, 1, 1.0, "1", False, 0, None, "cs"]


@st.composite
def mixed_records(draw):
    """Rows as dicts or ReferenceRecords, drawn one by one, with odd values."""
    rows = []
    for i in range(draw(st.integers(min_value=1, max_value=25))):
        row = {"id": f"r{i}", "title": draw(st.sampled_from(["", "a", "b"])),
               "authors": tuple(draw(st.lists(names, max_size=3))),
               "year": draw(st.sampled_from([None, 1999, 2001, 2001.0, True])),
               "venue_type": draw(st.sampled_from(_VENUES)),
               "domain": draw(st.sampled_from(_ODD_CATEGORIES)),
               "subdomain": draw(st.sampled_from(_GROUPS + [1, True])),
               "citation_count": draw(st.sampled_from([None, 0, 3, 3.5, True, 10])),
               "self_citation": draw(st.sampled_from([True, False, None, 1]))}
        rows.append(row if draw(st.booleans()) else ReferenceRecord(**row))
    return rows


def _category(value):
    if value is None:
        return "unknown"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _profile_from_public_statistics(records, config, warnings):
    """build_profile's fragments, each from one public statistic on the plain list."""
    qt = config.quantifier_thresholds

    def degrade(statistic, *args, prefix="", **kwargs):
        try:
            return statistic(*args, **kwargs)
        except StatsError as exc:
            warnings.append(f"profile: {prefix}{exc}")
            return None

    distributions = {s.name: categorical_distribution(records, s.name, qt)
                     for s in config.categorical()}
    continuous = {s.name: summary for s in config.continuous()
                  if (summary := degrade(continuous_summary, records, s.name)) is not None}
    share = None
    if config.flags():
        if any(get(r, "self_citation") is not None for r in records):
            share = self_citation_share(records)
        else:
            warnings.append("profile: self-citation flags never derived")
    shape = importance = None
    comparisons, group_tops, authors = {}, {}, ()
    if config.algorithm == "refset":
        group_tops = {s.name: top_reference_per_group(records, s.name, qt)
                      for s in config.attributes if s.role == "grouping"}
        authors = top_authors(records, config.author_k, score_mode=config.author_score_mode)
    else:
        shape = degrade(continuous_summary, records, config.dominating)
        listed = [s.name for s in config.listed()]
        importance = degrade(feature_importance, records, config.dominating, listed)
        for attribute in listed:
            top_value = distributions[attribute].entries[0].value
            subset = [r for r in records if _category(get(r, attribute)) == top_value]
            comparison = degrade(subset_vs_superset, subset, records, config.dominating,
                                 config.comparison_bands, attribute=attribute,
                                 feature_value=top_value, prefix=f"{attribute}: ")
            if comparison is not None:
                comparisons[attribute] = comparison
    return SetProfile(total=len(records), distributions=distributions, continuous=continuous,
                      dominating_shape=shape, group_tops=group_tops, top_authors=authors,
                      importance=importance, comparisons=comparisons,
                      self_citation_share=share)


@settings(max_examples=100, deadline=None)
@given(mixed_records())
def test_profile_of_a_mixed_set_equals_the_public_statistics(records):
    for config in (default_refset_config(), default_prodset_config()):
        built_warnings: list[str] = []
        expected_warnings: list[str] = []
        built = build_profile(CitingPaper(references=tuple(records)), config, built_warnings)
        expected = _profile_from_public_statistics(records, config, expected_warnings)
        assert (built, built_warnings) == (expected, expected_warnings)


def test_true_one_and_one_point_zero_are_three_categories():
    rows = [{"id": "a", "domain": True}, ReferenceRecord("b", domain=1),
            {"id": "c", "domain": 1.0}, {"id": "d", "domain": 1.0}]
    profile = build_profile(CitingPaper(references=tuple(rows)), default_prodset_config())
    assert [(e.value, e.count) for e in profile.distributions["domain"].entries] == \
        [("1.0", 2), ("1", 1), ("true", 1)]


@settings(max_examples=50, deadline=None)
@given(mixed_records(), st.data())
def test_each_profile_call_reads_the_records_afresh(records, data):
    rows = [r._asdict() if isinstance(r, ReferenceRecord)
            else r for r in records]
    citing = CitingPaper(references=tuple(rows))
    for config in (default_refset_config(), default_prodset_config()):
        assert build_profile(citing, config) == \
            build_profile(CitingPaper(references=tuple(deepcopy(rows))), config)
        changed = data.draw(st.sampled_from(rows))
        changed.update(domain=data.draw(st.sampled_from(_ODD_CATEGORIES)),
                       citation_count=data.draw(st.sampled_from([None, 7, 2.5])),
                       authors=(PersonName("olsen", "Q"),))
        assert build_profile(citing, config) == \
            build_profile(CitingPaper(references=tuple(deepcopy(rows))), config)
