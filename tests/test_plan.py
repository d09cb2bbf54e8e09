from __future__ import annotations

import re

import pytest

from refsum import (AuthorList, CategoricalQuant, CitingPaper, CombinedYearSelfCite,
                    ConfigError, DominatingShape, FeatureWithComparison, GroupTopList,
                    IntroWithLeadAttribute, PersonName, PlanningError, ReferenceRecord,
                    build_plan, build_profile, default_prodset_config,
                    default_refset_config, plan_to_text, realize)
from refsum.config import AttributeSpec
from refsum.templates import default_pack


@pytest.fixture
def refset_profile(fixture20_paper):
    return build_profile(fixture20_paper, default_refset_config())


@pytest.fixture
def prodset_profile(fixture20_paper):
    return build_profile(fixture20_paper, default_prodset_config())


_DOMAIN = AttributeSpec("domain", "categorical")
_LEAD = AttributeSpec("venue_type", "categorical", "lead")
_YEAR = AttributeSpec("year", "continuous", "combined")


def _refset(*specs):
    return {"attributes": (_LEAD, *specs)}


@pytest.mark.parametrize("make, overrides, message", [
    (default_refset_config, {"algorithm": "tree"}, "unknown algorithm 'tree'"),
    (default_refset_config, {"author_k": 0}, "author list size must be at least 1"),
    (default_refset_config, {"author_score_mode": "mean"}, "unknown author score mode 'mean'"),
    (default_prodset_config, {"attributes": (_DOMAIN, _DOMAIN)},
     "attribute 'domain' configured twice"),
    (default_refset_config, {"attributes": (_DOMAIN,)}, "refset needs exactly one lead attribute"),
    (default_prodset_config, {"dominating": ""}, "prodset needs a dominating attribute"),
    # what each algorithm renders
    (default_refset_config, _refset(AttributeSpec("domain", "categorical", "combined")),
     "attribute 'domain': refset cannot render a categorical attribute as combined"),
    (default_refset_config, _refset(AttributeSpec("self_citation", "flag", "listed")),
     "attribute 'self_citation': refset cannot render a flag attribute as listed"),
    (default_refset_config, _refset(AttributeSpec("self_citation", "flag", "grouping")),
     "attribute 'self_citation': refset cannot render a flag attribute as grouping"),
    (default_refset_config, _refset(AttributeSpec("open_access", "flag", "combined")),
     "attribute 'open_access': refset renders no flag but self_citation"),
    (default_refset_config, _refset(_YEAR, AttributeSpec("pages", "continuous", "combined")),
     "attribute 'pages': refset renders at most one continuous attribute as combined"),
    (default_refset_config, {"attributes": (AttributeSpec("year", "continuous", "lead"),)},
     "attribute 'year': refset cannot render a continuous attribute as lead"),
    (default_refset_config, {"attributes": (AttributeSpec("self_citation", "flag", "lead"),)},
     "attribute 'self_citation': refset cannot render a flag attribute as lead"),
    (default_refset_config, _refset(AttributeSpec("domain", "label")),
     "attribute 'domain': refset cannot render a label attribute as listed"),
    (default_refset_config, _refset(AttributeSpec("domain", "categorical", "footnote")),
     "attribute 'domain': refset cannot render a categorical attribute as footnote"),
    (default_prodset_config, {"attributes": (AttributeSpec("year", "continuous"),)},
     "attribute 'year': prodset cannot render a continuous attribute as listed"),
    (default_prodset_config, {"attributes": (AttributeSpec("self_citation", "flag"),)},
     "attribute 'self_citation': prodset cannot render a flag attribute as listed"),
    (default_prodset_config, {"attributes": (_LEAD,)},
     "attribute 'venue_type': prodset cannot render a categorical attribute as lead"),
    (default_prodset_config, {"attributes": (AttributeSpec("domain", "categorical", "grouping"),)},
     "attribute 'domain': prodset cannot render a categorical attribute as grouping"),
    (default_prodset_config, {"attributes": (AttributeSpec("year", "continuous", "combined"),)},
     "attribute 'year': prodset cannot render a continuous attribute as combined"),
])
def test_invalid_summary_config_is_refused_when_built(make, overrides, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        make(**overrides)


def test_refset_default_plan_structure(refset_profile):
    plan = build_plan(refset_profile, default_refset_config())
    assert plan.algorithm == "refset"
    assert [p.label for p in plan.paragraphs] == \
        ["intro", "domain", "subdomain", "years", "authors"]
    kinds = [type(p.message) for p in plan.paragraphs]
    assert kinds == [IntroWithLeadAttribute, CategoricalQuant, GroupTopList,
                     CombinedYearSelfCite, AuthorList]
    assert plan.paragraphs[0].message.total == 20
    assert len(plan.paragraphs[-1].message.authors) == 7


def test_refset_plan_is_pure(refset_profile):
    config = default_refset_config()
    assert build_plan(refset_profile, config) == build_plan(refset_profile, config)


def test_refset_skips_subdomains_when_all_absent(fixture20_paper):
    stripped = tuple(r._replace(subdomain=None, domain=None)
                     for r in fixture20_paper.references)
    profile = build_profile(CitingPaper(references=stripped), default_refset_config())
    plan = build_plan(profile, default_refset_config())
    labels = [p.label for p in plan.paragraphs]
    assert "subdomain" not in labels
    assert "domain" not in labels  # all-unknown distribution is skipped too
    assert labels[0] == "intro" and labels[-1] == "authors"


def test_refset_skips_years_when_neither_years_nor_flags_are_known(fixture20_paper):
    stripped = tuple(r._replace(year=None, self_citation=None)
                     for r in fixture20_paper.references)
    warnings: list[str] = []
    profile = build_profile(CitingPaper(references=stripped), default_refset_config(), warnings)
    plan = build_plan(profile, default_refset_config())
    assert [p.label for p in plan.paragraphs] == ["intro", "domain", "subdomain", "authors"]
    assert warnings == ["profile: attribute fully absent: year",
                        "profile: self-citation flags never derived"]


def test_refset_zero_selfcitation_share_still_planned(fixture20_paper):
    cleared = tuple(r._replace(self_citation=False)
                    for r in fixture20_paper.references)
    profile = build_profile(CitingPaper(references=cleared), default_refset_config())
    plan = build_plan(profile, default_refset_config())
    years = next(p for p in plan.paragraphs if p.label == "years")
    assert years.message.share == 0.0


def test_refset_skips_a_listed_continuous_attribute_that_is_fully_absent(fixture20_paper):
    config = default_refset_config(attributes=(_LEAD, AttributeSpec("pages", "continuous",
                                                                     "listed")))
    warnings: list[str] = []
    plan = build_plan(build_profile(fixture20_paper, config, warnings), config)
    assert [p.label for p in plan.paragraphs] == ["intro", "authors"]
    assert warnings == ["profile: attribute fully absent: pages"]


def test_refset_plans_a_listed_continuous_attribute_as_its_range(fixture20_paper):
    config = default_refset_config(attributes=(_LEAD, AttributeSpec("year", "continuous",
                                                                    "listed")))
    plan = build_plan(build_profile(fixture20_paper, config), config)
    assert [p.label for p in plan.paragraphs] == ["intro", "year", "authors"]
    assert "message\tContinuousRange\tattribute=year" in plan_to_text(plan).splitlines()
    assert realize(plan, default_pack()).paragraphs[1] == \
        "The year ranges from 1998 to 2015, centred on 2011."


def test_refset_years_come_from_the_continuous_combined_attribute(fixture20_paper):
    config = default_refset_config()
    flag_first = config._replace(attributes=(*config.attributes[:3], config.attributes[4],
                                             config.attributes[3]))
    profile = build_profile(fixture20_paper, flag_first)
    years = next(p for p in build_plan(profile, flag_first).paragraphs
                 if p.label == "years")
    assert years.message.summary == profile.continuous["year"]
    assert years.message.share == profile.self_citation_share


def test_refset_plans_a_year_range_without_a_self_citation_share(fixture20_paper):
    unflagged = tuple(r._replace(self_citation=None) for r in fixture20_paper.references)
    profile = build_profile(CitingPaper(references=unflagged), default_refset_config())
    years = next(p for p in build_plan(profile, default_refset_config()).paragraphs
                 if p.label == "years")
    assert years.message == CombinedYearSelfCite(profile.continuous["year"], None)


def test_refset_authors_with_one_counted_paper_each_are_counted():
    records = tuple(ReferenceRecord(id=f"r{i}", venue_type="journal", year=2000 + i,
                                    authors=(PersonName(f"Author{i}", "A."),),
                                    citation_count=i + 1)
                    for i in range(3))
    profile = build_profile(CitingPaper(references=records), default_refset_config())
    assert {a.counted_papers for a in profile.top_authors} == {1}
    authors = build_plan(profile, default_refset_config()).paragraphs[-1].message
    assert authors == AuthorList(profile.top_authors, True)


def test_refset_missing_fragment_names_it(refset_profile):
    config = default_refset_config()
    broken = refset_profile._replace(distributions={})
    with pytest.raises(PlanningError, match="venue_type"):
        build_plan(broken, config)


def test_a_refset_profile_without_a_group_top_is_refused(refset_profile):
    broken = refset_profile._replace(group_tops={})
    with pytest.raises(PlanningError, match="^missing profile fragment: group top 'subdomain'$"):
        build_plan(broken, default_refset_config())


def test_refset_never_plans_dominating_shape(refset_profile):
    plan = build_plan(refset_profile, default_refset_config())
    kinds = {type(p.message) for p in plan.paragraphs}
    assert DominatingShape not in kinds


def test_attribute_order_controls_middle_paragraphs(refset_profile):
    config = default_refset_config()
    reordered = config._replace(attributes=(
        config.attributes[0],   # lead
        config.attributes[3],   # year (combined)
        config.attributes[4],   # self_citation (combined)
        config.attributes[2],   # subdomain (grouping)
        config.attributes[1],   # domain (listed)
    ))
    plan = build_plan(refset_profile, reordered)
    assert [p.label for p in plan.paragraphs] == \
        ["intro", "years", "subdomain", "domain", "authors"]


def test_prodset_plan_shape_first_then_importance_order(prodset_profile):
    plan = build_plan(prodset_profile, default_prodset_config())
    assert plan.algorithm == "prodset"
    assert plan.paragraphs[0].label == "shape"
    assert isinstance(plan.paragraphs[0].message, DominatingShape)
    ranked = [name for name, _ in prodset_profile.importance]
    assert [p.label for p in plan.paragraphs[1:]] == ranked
    for paragraph in plan.paragraphs[1:]:
        message = paragraph.message
        assert isinstance(message, FeatureWithComparison)
        assert message.distribution.attribute == paragraph.label


def test_prodset_single_listed_feature_gives_two_paragraphs(fixture20_paper):
    config = default_prodset_config()
    config = config._replace(attributes=(config.attributes[0],))
    profile = build_profile(fixture20_paper, config)
    plan = build_plan(profile, config)
    assert len(plan.paragraphs) == 2


def test_prodset_requires_dominating_values():
    records = tuple(ReferenceRecord(id=str(i), venue_type="journal") for i in range(4))
    config = default_prodset_config()
    profile = build_profile(CitingPaper(references=records), config)
    with pytest.raises(PlanningError, match="dominating"):
        build_plan(profile, config)


def test_prodset_with_one_dominating_value_has_no_feature_importance():
    records = (ReferenceRecord(id="a", venue_type="journal", citation_count=5),
               ReferenceRecord(id="b", venue_type="book"))
    config = default_prodset_config()
    profile = build_profile(CitingPaper(references=records), config)
    assert profile.dominating_shape is not None and profile.importance is None
    with pytest.raises(PlanningError, match="^missing profile fragment: feature importance$"):
        build_plan(profile, config)


def test_every_configured_attribute_in_exactly_one_message(refset_profile):
    config = default_refset_config()
    plan = build_plan(refset_profile, config)
    seen: list[str] = []
    for message in (paragraph.message for paragraph in plan.paragraphs):
        if isinstance(message, IntroWithLeadAttribute):
            seen.append(message.distribution.attribute)
        elif isinstance(message, CategoricalQuant):
            seen.append(message.distribution.attribute)
        elif isinstance(message, GroupTopList):
            seen.append(message.group_top.group_attribute)
        elif isinstance(message, CombinedYearSelfCite):
            seen.append(message.summary.attribute)
            seen.append("self_citation")
    assert sorted(seen) == sorted(s.name for s in config.attributes)


def test_plan_to_text_is_stable(refset_profile):
    plan = build_plan(refset_profile, default_refset_config())
    text = plan_to_text(plan)
    assert text.splitlines()[0] == "plan\trefset"
    assert text == plan_to_text(plan)
    assert "IntroWithLeadAttribute" in text and "AuthorList" in text
