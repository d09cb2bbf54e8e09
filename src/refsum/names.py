"""Person names: parsing of bibliography author fields and identity keys.

Matching across name variants is deliberately coarse: two names are treated
as the same person when the lowercased family name and the first given
initial agree, so "John Smith", "J. Smith" and "Smith, John" all collapse to
the key ``smith.j``. Anything finer would need real author disambiguation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# Lowercase tokens folded into the family name in "Given ... Family" form,
# so "Ludwig van Beethoven" keeps "van Beethoven" as the family.
_PARTICLES = {
    "van", "von", "de", "der", "den", "del", "della", "di", "da",
    "la", "le", "ter", "ten", "op", "af",
}

_AND_SPLIT = re.compile(r"\s+and\s+")


@dataclass(frozen=True)
class PersonName:
    family: str
    given: str = ""
    # Lowercased family plus first given initial, e.g. ``smith.j``; set once
    # when the name is built, and left out of equality, hashing and repr.
    normalized_key: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        key = " ".join(self.family.lower().split())
        for ch in self.given:
            if ch.isalnum():
                key = f"{key}.{ch.lower()}"
                break
        object.__setattr__(self, "normalized_key", key)

    def display(self) -> str:
        if self.given:
            return f"{self.given} {self.family}"
        return self.family


def _clean(part: str) -> str:
    return " ".join(part.replace("{", "").replace("}", "").split())


def _parse_one(raw: str) -> PersonName | None:
    raw = _clean(raw)
    if not raw or raw.lower() == "others":
        return None
    if "," in raw:
        segments = [s.strip() for s in raw.split(",")]
        family, given = segments[0], segments[-1]
        if not family:
            return None
        return PersonName(family=family, given=given)
    tokens = raw.split(" ")
    split = len(tokens) - 1
    while split > 0 and tokens[split - 1] in _PARTICLES:
        split -= 1
    return PersonName(family=" ".join(tokens[split:]), given=" ".join(tokens[:split]))


def parse_person_names(field: str) -> list[PersonName]:
    """Split an author field on ``and`` and parse each name.

    Supports both "Family, Given" and "Given Family" forms; a bare
    ``others`` token (the et-al. convention) is dropped.
    """
    names = []
    for part in _AND_SPLIT.split(field.strip()):
        name = _parse_one(part)
        if name is not None:
            names.append(name)
    return names
