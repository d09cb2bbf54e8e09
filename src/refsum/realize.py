"""Surface realisation: render a document plan to English text.

Rendering is pure formatting. Every number in the output comes straight
from the plan's messages; the only transformations applied here are rounding
for display, percentage formatting, and list aggregation. Output is
byte-stable across runs and platforms: no locale, no randomness.
"""

from __future__ import annotations

import math
from decimal import Decimal, ROUND_HALF_UP
from typing import NamedTuple

from .errors import RealizationError
from .plan import (AuthorList, CategoricalQuant, CombinedYearSelfCite, ContinuousRange,
                   DocumentPlan, DominatingShape, FeatureWithComparison, GroupTopList,
                   IntroWithLeadAttribute)
from .profile import AuthorScore, ContinuousSummary
from .templates import TemplatePack, default_pack


class RealizedSummary(NamedTuple):
    paragraphs: tuple[str, ...]

    @property
    def full_text(self) -> str:
        return "\n\n".join(self.paragraphs)


# -- formatting helpers -------------------------------------------------------

def format_percentage(proportion: float) -> str:
    """Nearest integer percent, halves rounded away from zero."""
    if not 0.0 <= proportion <= 1.0:
        raise ValueError(f"proportion {proportion!r} outside [0, 1]")
    percent = (Decimal(str(proportion)) * 100).quantize(Decimal("1"), rounding=ROUND_HALF_UP)
    return f"{percent}%"


def format_number(value: float) -> str:
    """Plain integer when integral, otherwise one decimal place."""
    if float(value) == int(value):
        return str(int(value))
    return str(Decimal(str(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def format_year(value: float) -> str:
    """Years render as integers; a half rounds down to stay in range."""
    return str(math.ceil(value - 0.5))


def aggregate_list(items: list[str]) -> str:
    """Comma-separated listing with ``and`` before the last item."""
    if not items:
        return ""
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + " and " + items[-1]


# -- sentence builders ----------------------------------------------------------

def _quant_item(pack: TemplatePack, attribute: str, index: int, bucket: str,
                token: str, share: float) -> str:
    """The quantifier sentence for the ``index``-th value of ``attribute``: the
    first names the set noun, later ones elide it."""
    key = f"{bucket}.{'first' if index == 0 else 'subsequent'}"
    return pack.render(f"quant.{attribute}.{key}", f"quant.{key}",
                       value=pack.lexeme(attribute, token), percentage=format_percentage(share))


def _render_quant(pack: TemplatePack, message: CategoricalQuant | IntroWithLeadAttribute
                  | FeatureWithComparison) -> str:
    """One quantifier sentence per value of the message's distribution."""
    dist = message.distribution
    return " ".join(_quant_item(pack, dist.attribute, i, e.bucket, e.value, e.proportion)
                    for i, e in enumerate(dist.entries))


def _continuous_slots(pack: TemplatePack, summary: ContinuousSummary) -> dict[str, str]:
    fmt = format_year if summary.attribute == "year" else format_number
    return {"attribute": pack.lexeme("attributes", summary.attribute),
            "min": fmt(summary.minimum), "max": fmt(summary.maximum),
            "median": fmt(summary.median)}


def _render_intro(pack: TemplatePack, message: IntroWithLeadAttribute) -> str:
    return pack.render("intro.lead", total=str(message.total),
                       lead_sentences=_render_quant(pack, message))


def _render_range(pack: TemplatePack, message: ContinuousRange) -> str:
    summary = message.summary
    return pack.render(f"range.{summary.attribute}", "range", **_continuous_slots(pack, summary))


def _render_year_selfcite(pack: TemplatePack, message: CombinedYearSelfCite) -> str:
    summary, share = message.summary, message.share
    slots = {} if share is None else {"share": format_percentage(share)}
    if summary is None:
        return pack.render("yearspan.share_only", **slots)
    slots.update(_continuous_slots(pack, summary))
    key = "yearspan"
    if summary.minimum == summary.maximum:
        slots["year"] = slots["min"]
        key = "yearspan.single"
    return pack.render(f"{key}.full" if share is not None else f"{key}.year_only", **slots)


def _render_group_tops(pack: TemplatePack, message: GroupTopList) -> str:
    top = message.group_top
    sentences = []
    for i, entry in enumerate(top.entries):
        sentences.append(_quant_item(pack, top.group_attribute, i, entry.bucket,
                                     entry.group_value, entry.share))
        slots = {"title": entry.top_title}
        if entry.top_count is None:
            key = "grouptop.plain"
        elif not pack.show_counts:
            key = "grouptop.named"
        else:
            key = "grouptop.counted.one" if entry.top_count == 1 else "grouptop.counted"
            slots["count"] = str(entry.top_count)
        sentences.append(pack.render(key, **slots))
    return " ".join(sentences)


def _author_item(pack: TemplatePack, author: AuthorScore) -> str:
    name = author.author.display()
    if not (pack.show_counts and author.counted_papers > 0):
        return pack.render("authors.item.plain", name=name)
    if author.score == 1:
        return pack.render("authors.item.counted.one", name=name)
    return pack.render("authors.item.counted", name=name, score=str(author.score))


def _render_authors(pack: TemplatePack, message: AuthorList) -> str:
    authors = message.authors
    listing = aggregate_list([_author_item(pack, a) for a in authors])
    variant = "counted" if message.has_counts else "uncounted"
    key = f"authors.{variant}.single" if len(authors) == 1 else f"authors.{variant}"
    return pack.render(key, k=str(len(authors)), authors=listing)


def _render_shape(pack: TemplatePack, message: DominatingShape) -> str:
    summary = message.summary
    slots = {"total": str(message.total), **_continuous_slots(pack, summary)}
    if summary.minimum == summary.maximum:
        return pack.render("shape.single", value=slots["min"], **slots)
    return pack.render("shape", **slots)


def _render_feature(pack: TemplatePack, message: FeatureWithComparison) -> str:
    sentences = [_render_quant(pack, message)]
    comparison = message.comparison
    if comparison is not None:
        subject = pack.render(
            f"subject.{comparison.attribute}", "subject.default",
            value=pack.lexeme(comparison.attribute, comparison.feature_value))
        sentences.append(pack.render(
            f"compare.{comparison.direction}.{comparison.magnitude}", subject=subject,
            sub=format_number(comparison.subset_median),
            sup=format_number(comparison.superset_median)))
    return " ".join(sentences)


_RENDERERS = {
    IntroWithLeadAttribute: _render_intro,
    CategoricalQuant: _render_quant,
    ContinuousRange: _render_range,
    CombinedYearSelfCite: _render_year_selfcite,
    GroupTopList: _render_group_tops,
    AuthorList: _render_authors,
    DominatingShape: _render_shape,
    FeatureWithComparison: _render_feature,
}


def realize(plan: DocumentPlan, pack: TemplatePack | None = None) -> RealizedSummary:
    """Render every paragraph of the plan, in order."""
    pack = pack or default_pack()
    paragraphs = []
    for paragraph in plan.paragraphs:
        kind = type(paragraph.message)
        if kind not in _RENDERERS:
            raise RealizationError(f"no renderer for message kind {kind.__name__}")
        text = _RENDERERS[kind](pack, paragraph.message)
        paragraphs.append("\n".join(line.rstrip() for line in text.splitlines()).strip())
    return RealizedSummary(paragraphs=tuple(paragraphs))
