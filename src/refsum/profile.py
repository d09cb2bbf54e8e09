"""Set statistics feeding the document planner.

Every operation here is a pure function over immutable records and is
deterministic: ties are always broken by a total order (value name, year,
title, id, author key), never by input position. Records may be
ReferenceRecord instances or plain mappings, so the same machinery profiles
bibliographies and any other attribute-tagged set with a numeric column. One
set may mix the two: each statistic reads whole attribute columns, and access
is decided once per record type, not once per value.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping, Sequence
from operator import attrgetter
from typing import Any, NamedTuple

from .config import SCORE_MODES, ComparisonBands, QuantifierThresholds, SummaryConfig
from .errors import EmptySetError, StatsError
from .names import PersonName
from .records import CitingPaper

UNKNOWN = "unknown"

_DEFAULT_QT = QuantifierThresholds()


# -- profile fragment types ---------------------------------------------------

class DistributionEntry(NamedTuple):
    value: str
    count: int
    proportion: float
    bucket: str   # some | large | most


class CategoricalDistribution(NamedTuple):
    attribute: str
    entries: tuple[DistributionEntry, ...]
    total: int


class ContinuousSummary(NamedTuple):
    attribute: str
    minimum: float
    maximum: float
    median: float
    count: int


class GroupTopEntry(NamedTuple):
    group_value: str
    share: float
    bucket: str   # some | large | most
    top_reference: str
    top_count: int | None
    top_title: str = ""


class GroupTop(NamedTuple):
    group_attribute: str
    entries: tuple[GroupTopEntry, ...]


class AuthorScore(NamedTuple):
    author: PersonName
    score: int
    paper_count: int
    counted_papers: int


class ComparisonResult(NamedTuple):
    attribute: str
    feature_value: str
    subset_median: float
    superset_median: float
    direction: str   # higher | lower | same
    magnitude: str   # much | slightly | same


class SetProfile(NamedTuple):
    """Every statistic of one set; the per-attribute fragments are keyed by
    attribute name, in configuration order."""

    total: int
    distributions: dict[str, CategoricalDistribution]
    continuous: dict[str, ContinuousSummary]
    dominating_shape: ContinuousSummary | None
    group_tops: dict[str, GroupTop]
    top_authors: tuple[AuthorScore, ...]
    importance: tuple[tuple[str, float], ...] | None
    comparisons: dict[str, ComparisonResult]
    self_citation_share: float | None


# -- record access ------------------------------------------------------------

def _category(value: Any) -> str:
    if value is None:
        return UNKNOWN
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _number(value: Any) -> float | int | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return value


class _Columns(list):
    """One record set and its attribute columns, each read once and mapped
    through ``_number`` or ``_category`` once.

    Mapping or attribute access is decided once per record type, so one set
    may mix mappings and objects. A statistic given a ``_Columns`` shares its
    columns; ``build_profile`` passes one to every statistic it runs. Any other
    sequence gets fresh columns, so a record changed between calls is read
    afresh; nothing is kept on the records or in this module.
    """

    __slots__ = ("_is_mapping", "_raw", "_numbers", "_categories")

    def __init__(self, records: Sequence[Any]) -> None:
        super().__init__(records)
        self._is_mapping = {kind: issubclass(kind, Mapping) for kind in set(map(type, self))}
        self._raw: dict[str, list[Any]] = {}
        self._numbers: dict[str, list[float | int | None]] = {}
        self._categories: dict[str, list[str]] = {}

    def raw(self, attribute: str) -> list[Any]:
        """The attribute's value on every record, None where it is absent."""
        if attribute not in self._raw:
            self._raw[attribute] = self._read(attribute)
        return self._raw[attribute]

    def _read(self, attribute: str) -> list[Any]:
        is_mapping = self._is_mapping
        if not any(is_mapping.values()):
            try:   # every record has the attribute, as every ReferenceRecord does
                return list(map(attrgetter(attribute), self))
            except AttributeError:
                pass
        return [record.get(attribute) if is_mapping[type(record)]
                else getattr(record, attribute, None) for record in self]

    def numbers(self, attribute: str) -> list[float | int | None]:
        """``_number`` of each value; a plain int or float passes as it is."""
        if attribute not in self._numbers:
            self._numbers[attribute] = [
                v if (kind := type(v)) is int or kind is float else _number(v)
                for v in self.raw(attribute)]
        return self._numbers[attribute]

    def present(self, attribute: str) -> list[float | int]:
        return [v for v in self.numbers(attribute) if v is not None]

    def categories(self, attribute: str) -> list[str]:
        """``_category`` of each value; a plain str passes as it is."""
        if attribute not in self._categories:
            self._categories[attribute] = [v if type(v) is str else _category(v)
                                           for v in self.raw(attribute)]
        return self._categories[attribute]


def _columns(records: Sequence[Any]) -> _Columns:
    """``records`` as columns, shared if they already are; an empty set raises."""
    cols = records if type(records) is _Columns else _Columns(records)
    if not cols:
        raise EmptySetError("empty set")
    return cols


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n % 2:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


# -- operations ---------------------------------------------------------------

def quantifier_for(proportion: float,
                   thresholds: QuantifierThresholds = _DEFAULT_QT) -> str:
    """The quantifier word of a proportion: ``"most"`` at or above
    ``thresholds.most``, ``"large"`` at or above ``thresholds.large``, else
    ``"some"``."""
    if not 0.0 < proportion <= 1.0:
        raise ValueError(f"proportion {proportion!r} outside (0, 1]")
    if proportion >= thresholds.most:
        return "most"
    if proportion >= thresholds.large:
        return "large"
    return "some"


def categorical_distribution(records: Sequence[Any], attribute: str,
                             thresholds: QuantifierThresholds = _DEFAULT_QT,
                             ) -> CategoricalDistribution:
    """Counts, proportions and quantifier buckets per observed value.

    Records missing the attribute are counted under ``unknown``. Entries are
    sorted by proportion descending, ties by value name.
    """
    cols = _columns(records)
    counts = Counter(cols.categories(attribute))
    total = len(cols)
    entries = tuple(
        DistributionEntry(value=value, count=count, proportion=count / total,
                          bucket=quantifier_for(count / total, thresholds))
        for value, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    return CategoricalDistribution(attribute=attribute, entries=entries, total=total)


def continuous_summary(records: Sequence[Any], attribute: str) -> ContinuousSummary:
    """Range and median over the records where the attribute is present."""
    cols = _columns(records)
    values = cols.present(attribute)
    if not values:
        raise StatsError(f"attribute fully absent: {attribute}")
    return ContinuousSummary(attribute=attribute, minimum=min(values),
                             maximum=max(values), median=_median(values),
                             count=len(values))


def top_reference_per_group(records: Sequence[Any], group_attribute: str,
                            thresholds: QuantifierThresholds = _DEFAULT_QT,
                            ) -> GroupTop:
    """Per observed group value: its share of the set and its most cited record.

    Records without a group value are left out of the groups but still count
    toward the share denominator.
    """
    cols = _columns(records)
    groups: dict[str, list[int]] = {}
    labels = cols.categories(group_attribute)   # as its distribution spells them
    for i, value in enumerate(cols.raw(group_attribute)):
        if value is not None:
            groups.setdefault(labels[i], []).append(i)
    counts = cols.numbers("citation_count")
    years = cols.numbers("year")
    titles = ["" if v is None else str(v) for v in cols.raw("title")]
    ids = ["" if v is None else str(v) for v in cols.raw("id")]

    def rank(i: int) -> tuple:
        count, year = counts[i], years[i]
        return (count is None,                 # absent counts rank below all present
                -(count if count is not None else 0),
                year if year is not None else math.inf,  # then the earlier year
                titles[i], ids[i])

    total = len(cols)
    entries = []
    for value, members in sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        top = min(members, key=rank)
        share = len(members) / total
        entries.append(GroupTopEntry(
            group_value=value,
            share=share,
            bucket=quantifier_for(share, thresholds),
            top_reference=ids[top],
            top_count=int(counts[top]) if counts[top] is not None else None,
            top_title=titles[top],
        ))
    return GroupTop(group_attribute=group_attribute, entries=tuple(entries))


class _Tally:
    """One author key's running figures in ``top_authors``."""

    __slots__ = ("score", "papers", "counted", "variants", "last")

    def __init__(self) -> None:
        self.score = self.papers = self.counted = 0
        self.variants: list[PersonName] = []
        self.last = -1   # index of the last record that listed the key


def top_authors(records: Sequence[Any], k: int = SummaryConfig._field_defaults["author_k"], *,
                score_mode: str = SummaryConfig._field_defaults["author_score_mode"],
                ) -> tuple[AuthorScore, ...]:
    """The k authors whose references carry the highest citation counts.

    An author's score is the sum (or max) of counts over the references that
    list them; an absent count contributes 0 and never fabricates standing.
    Ties break by paper count, then by the normalized author key.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if score_mode not in SCORE_MODES:
        raise ValueError(f"unknown author score mode {score_mode!r}")
    cols = records if type(records) is _Columns else _Columns(records)
    tallies: dict[str, _Tally] = {}
    take_max = score_mode == "max"
    columns = zip(cols.raw("authors"), cols.numbers("citation_count"))
    for i, (authors, count) in enumerate(columns):
        contribution = int(count) if count is not None else 0
        for author in authors or ():
            key = author.normalized_key
            tally = tallies.get(key)
            if tally is None:
                tally = tallies[key] = _Tally()
            elif tally.last == i:   # one record lists the key twice: its last variant stands
                tally.variants[-1] = author
                continue
            tally.last = i
            if take_max:
                tally.score = max(tally.score, contribution)
            else:
                tally.score += contribution
            tally.papers += 1
            tally.counted += count is not None
            tally.variants.append(author)
    ranked = sorted(tallies.items(), key=lambda kv: (-kv[1].score, -kv[1].papers, kv[0]))
    return tuple(
        AuthorScore(author=min(t.variants, key=lambda p: (-len(p.given), p.family, p.given)),
                    score=t.score, paper_count=t.papers, counted_papers=t.counted)
        for _key, t in ranked[:k]
    )


def feature_importance(records: Sequence[Any], dominating_attribute: str,
                       candidate_attributes: Sequence[str]) -> tuple[tuple[str, float], ...]:
    """Rank candidate attributes by how far they spread the dominating column,
    as ``(attribute, score)`` pairs, highest score first.

    Score = (spread of per-category medians) / (overall range), computed over
    categories holding at least two records with a present dominating value;
    0 when the overall range collapses.
    """
    cols = records if type(records) is _Columns else _Columns(records)
    dominating = cols.numbers(dominating_attribute)
    overall = cols.present(dominating_attribute)
    if len(overall) < 2:
        raise StatsError(
            f"dominating attribute {dominating_attribute!r} present on fewer than 2 records")
    denominator = max(overall) - min(overall)
    ranking = []
    for attribute in candidate_attributes:
        groups: dict[str, list[float]] = {}
        for value, category in zip(dominating, cols.categories(attribute)):
            if value is not None:
                groups.setdefault(category, []).append(value)
        medians = [_median(vals) for vals in groups.values()
                   if len(vals) >= 2]
        if denominator > 0 and medians:
            score = (max(medians) - min(medians)) / denominator
        else:
            score = 0.0
        ranking.append((attribute, score))
    ranking.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple(ranking)


# build_profile draws each subset from shared columns; fresh columns per subset were 18% slower
def _compare(sub_values: list[float], sup_values: list[float], dominating_attribute: str,
             bands: ComparisonBands, attribute: str, feature_value: str) -> ComparisonResult:
    if not sub_values or not sup_values:
        raise StatsError(f"no {dominating_attribute!r} values to compare")
    m_sub = _median(sub_values)
    m_sup = _median(sup_values)
    if m_sup == 0:
        if m_sub == 0:
            direction, magnitude = "same", "same"
        else:
            # zero baseline: any difference is beyond relative banding
            direction = "higher" if m_sub > 0 else "lower"
            magnitude = "much"
    else:
        ratio = (m_sub - m_sup) / m_sup
        if abs(ratio) < bands.same:
            direction, magnitude = "same", "same"
        else:
            direction = "higher" if ratio > 0 else "lower"
            magnitude = "slightly" if abs(ratio) <= bands.slight else "much"
    return ComparisonResult(attribute=attribute, feature_value=feature_value,
                            subset_median=m_sub, superset_median=m_sup,
                            direction=direction, magnitude=magnitude)


def self_citation_share(records: Sequence[Any]) -> float:
    """Fraction of records flagged as self-citations (absent flags count no)."""
    cols = _columns(records)
    return sum(1 for v in cols.raw("self_citation") if v is True) / len(cols)


# -- assembly -----------------------------------------------------------------

def build_profile(citing: CitingPaper, config: SummaryConfig,
                  warnings: list[str] | None = None) -> SetProfile:
    """Run every statistic the configured algorithm needs.

    Per-attribute gaps (a fully absent column, say) degrade to absent
    fragments with a warning; only an empty reference list is an error.
    Each attribute column is read once per call, whatever reads it.
    """
    if warnings is None:
        warnings = []
    cols = _Columns(citing.references)
    if not cols:
        raise EmptySetError("the reference list is empty")
    qt = config.quantifier_thresholds

    def degrade(statistic, *args, prefix: str = ""):
        """The statistic's result, or None and a warning when it raises StatsError."""
        try:
            return statistic(*args)
        except StatsError as exc:
            warnings.append(f"profile: {prefix}{exc}")
            return None

    distributions = {spec.name: categorical_distribution(cols, spec.name, qt)
                     for spec in config.categorical()}
    continuous = {spec.name: summary for spec in config.continuous()
                  if (summary := degrade(continuous_summary, cols, spec.name)) is not None}

    share = None
    if any(spec.kind == "flag" for spec in config.attributes):  # only self_citation may be one
        if any(v is not None for v in cols.raw("self_citation")):
            share = self_citation_share(cols)
        else:
            warnings.append("profile: self-citation flags never derived")

    shape = importance = None
    comparisons: dict[str, ComparisonResult] = {}
    group_tops: dict[str, GroupTop] = {}
    authors: tuple[AuthorScore, ...] = ()
    if config.algorithm == "refset":
        group_tops = {spec.name: top_reference_per_group(cols, spec.name, qt)
                      for spec in config.attributes if spec.role == "grouping"}
        authors = top_authors(cols, config.author_k, score_mode=config.author_score_mode)
    else:
        dominating = config.dominating
        shape = degrade(continuous_summary, cols, dominating)
        listed = [spec.name for spec in config.listed()]
        importance = degrade(feature_importance, cols, dominating, listed)
        superset = cols.present(dominating)
        for attribute in listed:   # prodset lists only categorical attributes
            top_value = distributions[attribute].entries[0].value
            subset = [v for v, c in zip(cols.numbers(dominating), cols.categories(attribute))
                      if c == top_value and v is not None]
            comparison = degrade(_compare, subset, superset, dominating,
                                 config.comparison_bands, attribute, top_value,
                                 prefix=f"{attribute}: ")
            if comparison is not None:
                comparisons[attribute] = comparison

    return SetProfile(
        total=len(cols),
        distributions=distributions,
        continuous=continuous,
        dominating_shape=shape,
        group_tops=group_tops,
        top_authors=authors,
        importance=importance,
        comparisons=comparisons,
        self_citation_share=share,
    )


def _summary_line(kind: str, s: ContinuousSummary) -> str:
    return (f"{kind}\t{s.attribute}\tmin={s.minimum!r}\tmax={s.maximum!r}"
            f"\tmedian={s.median!r}\tcount={s.count}")


def profile_to_text(profile: SetProfile) -> str:
    """Stable line-oriented dump of a profile, for inspection and testing."""
    lines = [f"total\t{profile.total}"]
    if profile.self_citation_share is not None:
        lines.append(f"self_citation_share\t{profile.self_citation_share!r}")
    for dist in profile.distributions.values():
        lines.append(f"distribution\t{dist.attribute}\ttotal={dist.total}")
        for e in dist.entries:
            lines.append(f"entry\t{e.value}\t{e.count}\t{e.proportion!r}\t{e.bucket}")
    lines += [_summary_line("continuous", summary) for summary in profile.continuous.values()]
    if profile.dominating_shape is not None:
        lines.append(_summary_line("shape", profile.dominating_shape))
    for top in profile.group_tops.values():
        lines.append(f"group_top\t{top.group_attribute}")
        for e in top.entries:
            count = e.top_count if e.top_count is not None else "-"
            lines.append(f"group\t{e.group_value}\tshare={e.share!r}"
                         f"\tbucket={e.bucket}\ttop={e.top_reference}\tcount={count}")
    for a in profile.top_authors:
        lines.append(f"author\t{a.author.normalized_key}\t{a.author.display()}"
                     f"\tscore={a.score}\tpapers={a.paper_count}\tcounted={a.counted_papers}")
    if profile.importance is not None:
        for attribute, score in profile.importance:
            lines.append(f"importance\t{attribute}\t{score!r}")
    for c in profile.comparisons.values():
        lines.append(f"comparison\t{c.attribute}\t{c.feature_value}"
                     f"\tsub={c.subset_median!r}\tsup={c.superset_median!r}"
                     f"\t{c.direction}\t{c.magnitude}")
    return "\n".join(lines)
