"""The value types: NamedTuples, bar the explicit ``PersonName`` class.

Each is immutable; the checked ones check every value built, by the
constructor, ``_make`` or ``_replace``; and importing the CLI loads neither
``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from refsum import (AuthorList, AuthorScore, CategoricalDistribution, CategoricalQuant,
                    CitingPaper, CombinedYearSelfCite, ComparisonBands, ComparisonResult,
                    ConfigError, ContinuousRange, ContinuousSummary, DistributionEntry,
                    DocumentPlan, DominatingShape, EnrichmentReport, FeatureWithComparison,
                    GroupTop, GroupTopEntry, GroupTopList, IntroWithLeadAttribute, ParseIssue,
                    Paragraph, PersonName, QuantifierThresholds, RawEntry,
                    RealizedSummary, ReferenceRecord, SetProfile, SummaryConfig,
                    TaxonomyRule, VenueTaxonomy, default_pack, default_refset_config,
                    plan_to_text)
from refsum.cli import RunConfig
from refsum.config import AttributeSpec

SRC = Path(__file__).resolve().parent.parent / "src"

_NAME = PersonName("Smith", "John")
_SUMMARY = ContinuousSummary("year", 1998.0, 2015.0, 2011.0, 20)
_DIST = CategoricalDistribution(
    "venue_type", (DistributionEntry("journal", 2, 1.0, "most"),), 2)
_TOP = GroupTop("subdomain", (GroupTopEntry("nlp", 1.0, "most", "a", 3, "T"),))
_AUTHOR = AuthorScore(_NAME, 3, 1, 1)
_COMPARISON = ComparisonResult("venue_type", "journal", 3.0, 2.0, "higher", "much")

# One value of every public value type.
VALUES = [
    AttributeSpec("venue_type", "categorical", "lead"),
    QuantifierThresholds(),
    ComparisonBands(),
    default_refset_config(),
    _NAME,
    ReferenceRecord("a", "T", (_NAME,), 2001, "V", "journal"),
    CitingPaper((_NAME,), ()),
    TaxonomyRule("ACL", "proceedings"),
    VenueTaxonomy((TaxonomyRule("ACL"),)),
    ParseIssue("error", "broken", 3, "k"),
    RawEntry("article", "k", {"title": "T"}, 5),
    EnrichmentReport(1, 0, 0, 1, 0, []),
    _DIST.entries[0], _DIST, _SUMMARY, _TOP.entries[0], _TOP, _AUTHOR, _COMPARISON,
    SetProfile(2, {"venue_type": _DIST}, {"year": _SUMMARY}, None, {"subdomain": _TOP},
               (_AUTHOR,), None, {}, None),
    IntroWithLeadAttribute(2, _DIST),
    CategoricalQuant(_DIST),
    ContinuousRange(_SUMMARY),
    CombinedYearSelfCite(_SUMMARY, 0.5),
    GroupTopList(_TOP),
    AuthorList((_AUTHOR,), True),
    DominatingShape(2, _SUMMARY),
    FeatureWithComparison(_DIST, _COMPARISON),
    Paragraph("intro", CategoricalQuant(_DIST)),
    DocumentPlan("refset", ()),
    RealizedSummary(("One.",)),
    default_pack(),
    RunConfig("paper.bib"),
]


def _public_value_types() -> set[type]:
    """Every public class with ``_fields`` that refsum's modules define."""
    modules = [module for name, module in sys.modules.items() if name.startswith("refsum.")]
    return {obj for module in modules for name, obj in vars(module).items()
            if isinstance(obj, type) and hasattr(obj, "_fields")
            and obj.__module__ == module.__name__ and not name.startswith("_")}


def test_the_values_cover_every_public_value_type():
    assert {type(value) for value in VALUES} == _public_value_types()


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_a_value_refuses_attribute_assignment(value):
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("value,bad,error", [
    (QuantifierThresholds(), {"large": 0.6}, ConfigError),
    (ComparisonBands(), {"same": 0.2}, ConfigError),
    (default_refset_config(), {"author_k": 0}, ConfigError),
    (default_refset_config(), {"algorithm": "nope"}, ConfigError),
    (ReferenceRecord("a"), {"venue_type": "blog"}, ValueError),
], ids=lambda v: type(v).__name__ if hasattr(v, "_fields") else None)
def test_a_checked_value_is_checked_however_it_is_built(value, bad, error):
    """``_replace`` and ``_make`` build through the constructor, so neither
    gets round the check."""
    kind = type(value)
    fields = {**value._asdict(), **bad}
    with pytest.raises(error):
        kind(**fields)
    with pytest.raises(error):
        value._replace(**bad)
    with pytest.raises(error):
        kind._make(fields.values())
    assert kind._make(value) == value
    assert type(kind._make(value)) is kind


def test_a_summary_config_may_list_one_author():
    assert default_refset_config(author_k=1).author_k == 1


def test_plan_to_text_prints_the_fields_in_declaration_order():
    plan = DocumentPlan("prodset", (
        Paragraph("shape", DominatingShape(20, _SUMMARY)),
        Paragraph("years", CombinedYearSelfCite(_SUMMARY, None)),
        Paragraph("venue_type", FeatureWithComparison(_DIST, _COMPARISON)),
        Paragraph("authors", AuthorList((_AUTHOR,), False)),
    ))
    assert plan_to_text(plan).splitlines() == [
        "plan\tprodset",
        "paragraph\tshape", "message\tDominatingShape\ttotal=20\tattribute=year",
        "paragraph\tyears", "message\tCombinedYearSelfCite\tattribute=year\tshare=no",
        "paragraph\tvenue_type",
        "message\tFeatureWithComparison\tattribute=venue_type\tentries=1"
        "\tcomparison=higher/much",
        "paragraph\tauthors", "message\tAuthorList\tauthors=1\tcounted=no",
    ]


def test_run_config_defaults_come_from_the_summary_config():
    defaults = RunConfig._field_defaults
    assert (defaults["k"], defaults["author_score_mode"]) == \
        (SummaryConfig._field_defaults["author_k"],
         SummaryConfig._field_defaults["author_score_mode"])
    assert (defaults["quantifier_most"], defaults["quantifier_large"]) == \
        tuple(QuantifierThresholds())
    assert (defaults["compare_same"], defaults["compare_slight"]) == tuple(ComparisonBands())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    code = ("import sys, refsum.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"
