from __future__ import annotations

import dataclasses
import re

import pytest

from refsum import (AuthorList, CategoricalQuant, CitingPaper, CombinedYearSelfCite,
                    ConfigError, DominatingShape, FeatureWithComparison, GroupTopList,
                    IntroWithLeadAttribute, PlanningError, ReferenceRecord,
                    build_prodset_plan, build_refset_plan, build_profile,
                    default_prodset_config, default_refset_config, plan_to_text)
from refsum.config import AttributeSpec


@pytest.fixture
def refset_profile(fixture20_paper):
    return build_profile(fixture20_paper, default_refset_config())


@pytest.fixture
def prodset_profile(fixture20_paper):
    return build_profile(fixture20_paper, default_prodset_config())


_DOMAIN = AttributeSpec("domain", "categorical")


@pytest.mark.parametrize("make, overrides, message", [
    (default_refset_config, {"algorithm": "tree"}, "unknown algorithm 'tree'"),
    (default_refset_config, {"author_k": 0}, "author list size must be at least 1"),
    (default_refset_config, {"author_score_mode": "mean"}, "unknown author score mode 'mean'"),
    (default_prodset_config, {"attributes": (_DOMAIN, _DOMAIN)},
     "attribute 'domain' configured twice"),
    (default_refset_config, {"attributes": (_DOMAIN,)}, "refset needs exactly one lead attribute"),
    (default_prodset_config, {"dominating": ""}, "prodset needs a dominating attribute"),
])
def test_invalid_summary_config_is_refused_when_built(make, overrides, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        make(**overrides)


def test_refset_default_plan_structure(refset_profile):
    plan = build_refset_plan(refset_profile, default_refset_config())
    assert plan.algorithm == "refset"
    assert [p.label for p in plan.paragraphs] == \
        ["intro", "domain", "subdomain", "years", "authors"]
    kinds = [type(p.messages[0]) for p in plan.paragraphs]
    assert kinds == [IntroWithLeadAttribute, CategoricalQuant, GroupTopList,
                     CombinedYearSelfCite, AuthorList]
    assert plan.paragraphs[0].messages[0].total == 20
    assert len(plan.paragraphs[-1].messages[0].authors) == 7


def test_refset_plan_is_pure(refset_profile):
    config = default_refset_config()
    assert build_refset_plan(refset_profile, config) == \
        build_refset_plan(refset_profile, config)


def test_refset_skips_subdomains_when_all_absent(fixture20_paper):
    stripped = tuple(dataclasses.replace(r, subdomain=None, domain=None)
                     for r in fixture20_paper.references)
    profile = build_profile(CitingPaper(references=stripped), default_refset_config())
    plan = build_refset_plan(profile, default_refset_config())
    labels = [p.label for p in plan.paragraphs]
    assert "subdomain" not in labels
    assert "domain" not in labels  # all-unknown distribution is skipped too
    assert labels[0] == "intro" and labels[-1] == "authors"


def test_refset_zero_selfcitation_share_still_planned(fixture20_paper):
    cleared = tuple(dataclasses.replace(r, self_citation=False)
                    for r in fixture20_paper.references)
    profile = build_profile(CitingPaper(references=cleared), default_refset_config())
    plan = build_refset_plan(profile, default_refset_config())
    years = next(p for p in plan.paragraphs if p.label == "years")
    assert years.messages[0].share == 0.0


def test_refset_missing_fragment_names_it(refset_profile):
    config = default_refset_config()
    broken = dataclasses.replace(refset_profile, distributions={})
    with pytest.raises(PlanningError, match="venue_type"):
        build_refset_plan(broken, config)


def test_refset_never_plans_dominating_shape(refset_profile):
    plan = build_refset_plan(refset_profile, default_refset_config())
    kinds = {type(m) for p in plan.paragraphs for m in p.messages}
    assert DominatingShape not in kinds


def test_attribute_order_controls_middle_paragraphs(refset_profile):
    config = default_refset_config()
    reordered = dataclasses.replace(config, attributes=(
        config.attributes[0],   # lead
        config.attributes[3],   # year (combined)
        config.attributes[4],   # self_citation (combined)
        config.attributes[2],   # subdomain (grouping)
        config.attributes[1],   # domain (listed)
    ))
    plan = build_refset_plan(refset_profile, reordered)
    assert [p.label for p in plan.paragraphs] == \
        ["intro", "years", "subdomain", "domain", "authors"]


def test_prodset_plan_shape_first_then_importance_order(prodset_profile):
    plan = build_prodset_plan(prodset_profile, default_prodset_config())
    assert plan.algorithm == "prodset"
    assert plan.paragraphs[0].label == "shape"
    assert isinstance(plan.paragraphs[0].messages[0], DominatingShape)
    ranked = [name for name, _ in prodset_profile.importance]
    assert [p.label for p in plan.paragraphs[1:]] == ranked
    for paragraph in plan.paragraphs[1:]:
        message = paragraph.messages[0]
        assert isinstance(message, FeatureWithComparison)
        assert message.distribution.attribute == paragraph.label


def test_prodset_single_listed_feature_gives_two_paragraphs(fixture20_paper):
    config = default_prodset_config()
    config = dataclasses.replace(config, attributes=(config.attributes[0],))
    profile = build_profile(fixture20_paper, config)
    plan = build_prodset_plan(profile, config)
    assert len(plan.paragraphs) == 2


def test_prodset_requires_dominating_values():
    records = tuple(ReferenceRecord(id=str(i), venue_type="journal") for i in range(4))
    config = default_prodset_config()
    profile = build_profile(CitingPaper(references=records), config)
    with pytest.raises(PlanningError, match="dominating"):
        build_prodset_plan(profile, config)


def test_every_configured_attribute_in_exactly_one_message(refset_profile):
    config = default_refset_config()
    plan = build_refset_plan(refset_profile, config)
    seen: list[str] = []
    for paragraph in plan.paragraphs:
        for message in paragraph.messages:
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
    plan = build_refset_plan(refset_profile, default_refset_config())
    text = plan_to_text(plan)
    assert text.splitlines()[0] == "plan\trefset"
    assert text == plan_to_text(plan)
    assert "IntroWithLeadAttribute" in text and "AuthorList" in text
