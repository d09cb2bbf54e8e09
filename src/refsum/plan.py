"""Document planning: fixed schemata turn a profile into ordered messages.

A plan is wording-free. Each paragraph holds one typed message, a
NamedTuple per message kind whose fields are profile fragments; the
realiser decides the sentences. The refset schema opens with the total
fused with the lead attribute and closes with the author list; the prodset
schema opens with the dominating column's shape and then walks the listed
features in importance order.

Paragraphs whose underlying data is entirely absent are skipped rather than
realised as filler.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Union

from .config import SummaryConfig
from .errors import PlanningError
from .profile import (AuthorScore, CategoricalDistribution, ComparisonResult,
                      ContinuousSummary, GroupTop, SetProfile, UNKNOWN)


class IntroWithLeadAttribute(NamedTuple):
    """Opening paragraph: the set size fused with the lead attribute's spread."""

    total: int
    distribution: CategoricalDistribution


class CategoricalQuant(NamedTuple):
    """One quantifier sentence per value of a listed categorical attribute."""

    distribution: CategoricalDistribution


class ContinuousRange(NamedTuple):
    """Range and median of a listed continuous attribute."""

    summary: ContinuousSummary


class CombinedYearSelfCite(NamedTuple):
    """Year span fused with the self-citation share; either may be absent."""

    summary: ContinuousSummary | None
    share: float | None


class GroupTopList(NamedTuple):
    """Each group's share of the set and its most cited member."""

    group_top: GroupTop


class AuthorList(NamedTuple):
    """The top authors; ``has_counts`` picks the counted or the listed wording."""

    authors: tuple[AuthorScore, ...]
    has_counts: bool


class DominatingShape(NamedTuple):
    """Range and median of the dominating column over the whole set."""

    total: int
    summary: ContinuousSummary


class FeatureWithComparison(NamedTuple):
    """A feature's spread, then its top value's dominating median against the set's."""

    distribution: CategoricalDistribution
    comparison: ComparisonResult | None


Message = Union[IntroWithLeadAttribute, CategoricalQuant, ContinuousRange,
                CombinedYearSelfCite, GroupTopList, AuthorList, DominatingShape,
                FeatureWithComparison]


class Paragraph(NamedTuple):
    label: str
    message: Message


class DocumentPlan(NamedTuple):
    algorithm: str
    paragraphs: tuple[Paragraph, ...]


def _informative(dist: CategoricalDistribution | None) -> bool:
    """A distribution carries information unless every record is unknown."""
    return dist is not None and any(e.value != UNKNOWN for e in dist.entries)


def _require_distribution(profile: SetProfile, attribute: str) -> CategoricalDistribution:
    dist = profile.distributions.get(attribute)
    if dist is None:
        raise PlanningError(f"missing profile fragment: distribution '{attribute}'")
    return dist


def build_refset_plan(profile: SetProfile, config: SummaryConfig) -> DocumentPlan:
    """Intro with the lead attribute, middle paragraphs in config order,
    author list last. The dominating column's own shape is never planned."""
    lead = config.lead()
    if lead is None:
        raise PlanningError("missing profile fragment: lead attribute")
    paragraphs = [Paragraph("intro", IntroWithLeadAttribute(
        profile.total, _require_distribution(profile, lead.name)))]

    combined_done = False
    for spec in config.attributes:
        if spec.role == "lead":
            continue
        if spec.role == "listed" and spec.kind == "categorical":
            dist = _require_distribution(profile, spec.name)
            if not _informative(dist):
                continue
            paragraphs.append(Paragraph(spec.name, CategoricalQuant(dist)))
        elif spec.role == "listed" and spec.kind == "continuous":
            summary = profile.continuous.get(spec.name)
            if summary is None:
                continue
            paragraphs.append(Paragraph(spec.name, ContinuousRange(summary)))
        elif spec.role == "grouping":
            top = profile.group_tops.get(spec.name)
            if top is None:
                raise PlanningError(f"missing profile fragment: group top '{spec.name}'")
            if not top.entries:
                continue
            paragraphs.append(Paragraph(spec.name, GroupTopList(top)))
        elif spec.role == "combined" and not combined_done:
            combined_done = True
            year_spec = next((s for s in config.attributes
                              if s.role == "combined" and s.kind == "continuous"), None)
            summary = profile.continuous.get(year_spec.name) if year_spec else None
            share = profile.self_citation_share
            if summary is None and share is None:
                continue
            paragraphs.append(Paragraph("years", CombinedYearSelfCite(summary, share)))

    if profile.top_authors:
        paragraphs.append(Paragraph("authors", AuthorList(
            profile.top_authors,
            any(a.counted_papers > 0 for a in profile.top_authors))))
    return DocumentPlan(algorithm="refset", paragraphs=tuple(paragraphs))


def build_prodset_plan(profile: SetProfile, config: SummaryConfig) -> DocumentPlan:
    """Dominating shape first, then one feature paragraph per listed
    attribute in importance order, each with its superset comparison."""
    if profile.dominating_shape is None:
        raise PlanningError("missing profile fragment: dominating shape")
    if profile.importance is None:
        raise PlanningError("missing profile fragment: feature importance")
    paragraphs = [Paragraph("shape", DominatingShape(
        profile.total, profile.dominating_shape))]
    for attribute, _score in profile.importance:
        dist = _require_distribution(profile, attribute)
        if not _informative(dist):
            continue
        paragraphs.append(Paragraph(attribute, FeatureWithComparison(
            dist, profile.comparisons.get(attribute))))
    return DocumentPlan(algorithm="prodset", paragraphs=tuple(paragraphs))


def build_plan(profile: SetProfile, config: SummaryConfig) -> DocumentPlan:
    if config.algorithm == "prodset":
        return build_prodset_plan(profile, config)
    return build_refset_plan(profile, config)


def _field_text(name: str, value: Any) -> list[str]:
    """``key=value`` items for one message field; an absent summary prints none."""
    if isinstance(value, CategoricalDistribution):
        return [f"attribute={value.attribute}", f"entries={len(value.entries)}"]
    if isinstance(value, GroupTop):
        return [f"attribute={value.group_attribute}", f"groups={len(value.entries)}"]
    if name == "summary":
        return [f"attribute={value.attribute}"] if value is not None else []
    if name == "share":
        return [f"share={'yes' if value is not None else 'no'}"]
    if name == "authors":
        return [f"authors={len(value)}"]
    if name == "has_counts":
        return [f"counted={'yes' if value else 'no'}"]
    if name == "comparison":
        return ["comparison=" + (f"{value.direction}/{value.magnitude}" if value else "none")]
    return [f"{name}={value}"]


def plan_to_text(plan: DocumentPlan) -> str:
    """Stable line-oriented dump of a plan, for inspection and testing: each
    message prints its class name, then its fields in declaration order."""
    lines = [f"plan\t{plan.algorithm}"]
    for paragraph in plan.paragraphs:
        message = paragraph.message
        detail = [type(message).__name__]
        for name, value in zip(message._fields, message):
            detail += _field_text(name, value)
        lines += [f"paragraph\t{paragraph.label}", "message\t" + "\t".join(detail)]
    return "\n".join(lines)
