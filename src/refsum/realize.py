"""Surface realisation: render a document plan to English text.

Rendering is pure formatting. Every number in the output comes straight
from the plan's messages; the only transformations applied here are rounding
for display, percentage formatting, and list aggregation. Output is
byte-stable across runs and platforms: no locale, no randomness.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP

from .errors import RealizationError
from .plan import (AuthorList, CategoricalQuant, CombinedYearSelfCite, ContinuousRange,
                   DocumentPlan, DominatingShape, FeatureWithComparison, GroupTopList,
                   IntroWithLeadAttribute)
from .profile import AuthorScore, CategoricalDistribution, ContinuousSummary, Quantifier
from .templates import TemplatePack, default_pack

_SLOT_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


@dataclass(frozen=True)
class RealizedSummary:
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


def _fill(template: str, slots: dict[str, str], *, context: str) -> str:
    def sub(match: re.Match) -> str:
        name = match.group(1)
        if name not in slots:
            raise RealizationError(f"{context}: unresolved placeholder '{name}'")
        return slots[name]
    return _SLOT_RE.sub(sub, template)


def _capitalized(noun: str) -> str:
    return noun[0].upper() + noun[1:] if noun else noun


# -- sentence builders ----------------------------------------------------------

def quantifier_sentence(bucket: Quantifier, value: str, percentage: str,
                        position: str, *, pack: TemplatePack | None = None,
                        attribute: str = "") -> str:
    """One quantified sentence; the first position names the set noun, later
    positions elide it."""
    if position not in ("first", "subsequent"):
        raise ValueError(f"position must be first or subsequent, not {position!r}")
    pack = pack or default_pack()
    base = f"quant.{bucket.label}.{position}"
    keys = (f"quant.{attribute}.{bucket.label}.{position}", base) if attribute else (base,)
    template = pack.template(*keys)
    return _fill(template, {
        "noun": pack.noun, "Noun": _capitalized(pack.noun),
        "value": value, "percentage": percentage,
    }, context=base)


def _quant_block(pack: TemplatePack, dist: CategoricalDistribution) -> list[str]:
    sentences = []
    for i, entry in enumerate(dist.entries):
        sentences.append(quantifier_sentence(
            entry.bucket,
            pack.lexeme(dist.attribute, entry.value),
            format_percentage(entry.proportion),
            "first" if i == 0 else "subsequent",
            pack=pack, attribute=dist.attribute,
        ))
    return sentences


def _continuous_slots(pack: TemplatePack, summary: ContinuousSummary) -> dict[str, str]:
    is_year = summary.attribute == "year"
    fmt = format_year if is_year else format_number
    return {
        "attribute": pack.lexeme("attributes", summary.attribute),
        "min": format_number(summary.minimum) if not is_year else str(int(summary.minimum)),
        "max": format_number(summary.maximum) if not is_year else str(int(summary.maximum)),
        "median": fmt(summary.median),
        "noun": pack.noun, "Noun": _capitalized(pack.noun),
        "unit": pack.unit,
    }


def _render_intro(pack: TemplatePack, message: IntroWithLeadAttribute) -> str:
    lead = " ".join(_quant_block(pack, message.distribution))
    return _fill(pack.template("intro.lead"), {
        "total": str(message.total),
        "noun": pack.noun, "Noun": _capitalized(pack.noun),
        "lead_sentences": lead,
    }, context="intro.lead")


def _render_quant(pack: TemplatePack, message: CategoricalQuant) -> str:
    return " ".join(_quant_block(pack, message.distribution))


def _render_range(pack: TemplatePack, message: ContinuousRange) -> str:
    summary = message.summary
    slots = _continuous_slots(pack, summary)
    return _fill(pack.template(f"range.{summary.attribute}", "range"),
                 slots, context="range")


def _render_year_selfcite(pack: TemplatePack, message: CombinedYearSelfCite) -> str:
    summary, share = message.summary, message.share
    slots = {"noun": pack.noun, "Noun": _capitalized(pack.noun)}
    if share is not None:
        slots["share"] = format_percentage(share)
    if summary is None:
        return _fill(pack.template("yearspan.share_only"), slots,
                     context="yearspan.share_only")
    slots.update(_continuous_slots(pack, summary))
    if summary.minimum == summary.maximum:
        slots["year"] = str(int(summary.minimum))
        key = "yearspan.single.full" if share is not None else "yearspan.single.year_only"
    else:
        key = "yearspan.full" if share is not None else "yearspan.year_only"
    return _fill(pack.template(key), slots, context=key)


def _render_group_tops(pack: TemplatePack, message: GroupTopList) -> str:
    top = message.group_top
    sentences = []
    for i, entry in enumerate(top.entries):
        sentences.append(quantifier_sentence(
            entry.bucket,
            pack.lexeme(top.group_attribute, entry.group_value),
            format_percentage(entry.share),
            "first" if i == 0 else "subsequent",
            pack=pack, attribute=top.group_attribute,
        ))
        slots = {"title": entry.top_title, "noun": pack.noun,
                 "Noun": _capitalized(pack.noun)}
        if entry.top_count is None:
            key = "grouptop.plain"
        elif not pack.show_counts:
            key = "grouptop.named"
        elif entry.top_count == 1:
            key = "grouptop.counted.one"
            slots["count"] = "1"
        else:
            key = "grouptop.counted"
            slots["count"] = str(entry.top_count)
        sentences.append(_fill(pack.template(key), slots, context=key))
    return " ".join(sentences)


def _author_item(pack: TemplatePack, author: AuthorScore) -> str:
    slots = {"name": author.author.display()}
    if pack.show_counts and author.counted_papers > 0:
        if author.score == 1:
            return _fill(pack.template("authors.item.counted.one"), slots,
                         context="authors.item.counted.one")
        slots["score"] = str(author.score)
        return _fill(pack.template("authors.item.counted"), slots,
                     context="authors.item.counted")
    return _fill(pack.template("authors.item.plain"), slots,
                 context="authors.item.plain")


def _render_authors(pack: TemplatePack, message: AuthorList) -> str:
    authors = message.authors
    listing = aggregate_list([_author_item(pack, a) for a in authors])
    variant = "counted" if message.has_counts else "uncounted"
    key = f"authors.{variant}.single" if len(authors) == 1 else f"authors.{variant}"
    return _fill(pack.template(key), {
        "k": str(len(authors)), "authors": listing,
        "noun": pack.noun, "Noun": _capitalized(pack.noun),
    }, context=key)


def _render_shape(pack: TemplatePack, message: DominatingShape) -> str:
    summary = message.summary
    slots = _continuous_slots(pack, summary)
    slots["total"] = str(message.total)
    if summary.minimum == summary.maximum:
        slots["value"] = format_number(summary.minimum)
        return _fill(pack.template("shape.single"), slots, context="shape.single")
    return _fill(pack.template("shape"), slots, context="shape")


def _render_feature(pack: TemplatePack, message: FeatureWithComparison) -> str:
    sentences = [" ".join(_quant_block(pack, message.distribution))]
    comparison = message.comparison
    if comparison is not None:
        subject = _fill(
            pack.template(f"subject.{comparison.attribute}", "subject.default"),
            {"noun": pack.noun, "Noun": _capitalized(pack.noun),
             "value": pack.lexeme(comparison.attribute, comparison.feature_value)},
            context="subject")
        key = f"compare.{comparison.direction}.{comparison.magnitude}"
        sentences.append(_fill(pack.template(key), {
            "subject": subject,
            "unit": pack.unit,
            "sub": format_number(comparison.subset_median),
            "sup": format_number(comparison.superset_median),
        }, context=key))
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
        pieces = []
        for message in paragraph.messages:
            renderer = _RENDERERS.get(type(message))
            if renderer is None:
                raise RealizationError(
                    f"no renderer for message kind {type(message).__name__}")
            pieces.append(renderer(pack, message))
        text = " ".join(p for p in pieces if p)
        paragraphs.append("\n".join(line.rstrip() for line in text.splitlines()).strip())
    return RealizedSummary(paragraphs=tuple(paragraphs))
