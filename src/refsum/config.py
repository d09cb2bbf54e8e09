"""Summary configuration: which attributes are described, and how.

Each attribute has a kind (categorical, continuous, or flag) and a role:

* ``lead``     -- fused into the opening paragraph with the total count
* ``listed``   -- gets its own quantifier paragraph (or feature paragraph
                  in prodset mode)
* ``grouping`` -- per-group top-publication listing
* ``combined`` -- fused into the shared year/self-citation paragraph

The middle-paragraph order of a summary follows the attribute order given
here, so reordering attributes reorders the document.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConfigError

# What each algorithm renders: attribute kind -> the roles it may take. A
# flag renders only as self_citation, and at most one continuous attribute
# is combined with it.
RENDERED_ROLES = {
    "refset": {"categorical": ("lead", "listed", "grouping"),
               "continuous": ("listed", "grouping", "combined"),
               "flag": ("combined",)},
    "prodset": {"categorical": ("listed",)},
}
ALGORITHMS = tuple(RENDERED_ROLES)
SCORE_MODES = ("sum", "max")
LOOKUP_WORKERS = 4  # concurrent citation-count lookups


class Checked:
    """Mixin for a NamedTuple subclass whose ``_check`` runs on every value
    built: by the constructor, ``_make`` or ``_replace``. It comes first
    among the bases, and the subclass sets ``__slots__ = ()``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class AttributeSpec(NamedTuple):
    name: str
    kind: str
    role: str = "listed"


class _Thresholds(NamedTuple):
    most: float = 0.5
    large: float = 0.2


class QuantifierThresholds(Checked, _Thresholds):
    """Proportion bands for the vague quantity words."""

    __slots__ = ()

    def _check(self) -> None:
        if not 0.0 < self.large < self.most <= 1.0:
            raise ConfigError("quantifier thresholds must satisfy 0 < large < most <= 1")


class _Bands(NamedTuple):
    same: float = 0.02
    slight: float = 0.15


class ComparisonBands(Checked, _Bands):
    """Relative-difference bands for subset-vs-superset comparisons."""

    __slots__ = ()

    def _check(self) -> None:
        if not 0.0 < self.same < self.slight:
            raise ConfigError("comparison bands must satisfy 0 < same < slight")


class _Summary(NamedTuple):
    algorithm: str
    attributes: tuple[AttributeSpec, ...]
    dominating: str = "citation_count"
    author_k: int = 7
    author_score_mode: str = "sum"
    quantifier_thresholds: QuantifierThresholds = QuantifierThresholds()
    comparison_bands: ComparisonBands = ComparisonBands()


class SummaryConfig(Checked, _Summary):
    __slots__ = ()

    def _check(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.author_k < 1:
            raise ConfigError("author list size must be at least 1")
        if self.author_score_mode not in SCORE_MODES:
            raise ConfigError(f"unknown author score mode {self.author_score_mode!r}")
        for i, spec in enumerate(self.attributes):
            if spec.name in (s.name for s in self.attributes[:i]):
                raise ConfigError(f"attribute {spec.name!r} configured twice")
            if spec.role not in RENDERED_ROLES[self.algorithm].get(spec.kind, ()):
                raise ConfigError(f"attribute {spec.name!r}: {self.algorithm} cannot render "
                                  f"a {spec.kind} attribute as {spec.role}")
            if spec.kind == "flag" and spec.name != "self_citation":
                raise ConfigError(f"attribute {spec.name!r}: refset renders no flag "
                                  "but self_citation")
        years = [s.name for s in self.continuous() if s.role == "combined"]
        if len(years) > 1:
            raise ConfigError(f"attribute {years[1]!r}: refset renders at most one "
                              "continuous attribute as combined")
        leads = [s for s in self.attributes if s.role == "lead"]
        if self.algorithm == "refset" and len(leads) != 1:
            raise ConfigError("refset needs exactly one lead attribute")
        if self.algorithm == "prodset" and not self.dominating:
            raise ConfigError("prodset needs a dominating attribute")

    # -- attribute views ---------------------------------------------------

    def categorical(self) -> tuple[AttributeSpec, ...]:
        return tuple(s for s in self.attributes if s.kind == "categorical")

    def continuous(self) -> tuple[AttributeSpec, ...]:
        return tuple(s for s in self.attributes if s.kind == "continuous")

    def flags(self) -> tuple[AttributeSpec, ...]:
        return tuple(s for s in self.attributes if s.kind == "flag")

    def lead(self) -> AttributeSpec | None:
        for spec in self.attributes:
            if spec.role == "lead":
                return spec
        return None

    def listed(self) -> tuple[AttributeSpec, ...]:
        return tuple(s for s in self.attributes if s.role == "listed")


def default_refset_config(**overrides) -> SummaryConfig:
    """The standard reference-set setup: venue type leads, authors close."""
    config = SummaryConfig(
        algorithm="refset",
        attributes=(
            AttributeSpec("venue_type", "categorical", "lead"),
            AttributeSpec("domain", "categorical", "listed"),
            AttributeSpec("subdomain", "categorical", "grouping"),
            AttributeSpec("year", "continuous", "combined"),
            AttributeSpec("self_citation", "flag", "combined"),
        ),
    )
    return config._replace(**overrides)


def default_prodset_config(**overrides) -> SummaryConfig:
    """Dominating-column setup applied to references: counts stand in for price."""
    config = SummaryConfig(
        algorithm="prodset",
        attributes=(
            AttributeSpec("venue_type", "categorical", "listed"),
            AttributeSpec("domain", "categorical", "listed"),
            AttributeSpec("subdomain", "categorical", "listed"),
        ),
    )
    return config._replace(**overrides)
