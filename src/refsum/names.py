"""Person names: parsing of bibliography author fields and identity keys.

Matching across name variants is deliberately coarse: two names are treated
as the same person when the lowercased family name and the first given
initial agree, so "John Smith", "J. Smith" and "Smith, John" all collapse to
the key ``smith.j``. Anything finer would need real author disambiguation.
"""

from __future__ import annotations

import re
from functools import lru_cache

# Lowercase tokens folded into the family name in "Given ... Family" form,
# so "Ludwig van Beethoven" keeps "van Beethoven" as the family.
_PARTICLES = {
    "van", "von", "de", "der", "den", "del", "della", "di", "da",
    "la", "le", "ter", "ten", "op", "af",
}

_AND_SPLIT = re.compile(r"\s+and\s+")


class PersonName:
    """A family and a given name; it compares, hashes and prints as that pair.

    ``normalized_key`` is the lowercased family plus the first given initial,
    e.g. ``smith.j``; it is set once when the name is built, and left out of
    equality, hashing and repr. Like the NamedTuple value types, a name has
    ``_fields`` and ``_replace`` and refuses attribute assignment.
    """

    __slots__ = ("family", "given", "normalized_key")
    _fields = ("family", "given")

    def __init__(self, family: str, given: str = "") -> None:
        key = " ".join(family.lower().split())
        for ch in given:
            if ch.isalnum():
                key = f"{key}.{ch.lower()}"
                break
        init = object.__setattr__   # this class's own refuses every name
        init(self, "family", family)
        init(self, "given", given)
        init(self, "normalized_key", key)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set {name!r}: a PersonName is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a PersonName is immutable")

    def __eq__(self, other):
        if type(other) is not PersonName:
            return NotImplemented
        return (self.family, self.given) == (other.family, other.given)

    def __hash__(self) -> int:
        return hash((self.family, self.given))

    def __repr__(self) -> str:
        return f"PersonName(family={self.family!r}, given={self.given!r})"

    def __reduce__(self):   # copy and pickle rebuild the name: assignment is refused
        return PersonName, (self.family, self.given)

    def _replace(self, **changes: str) -> PersonName:
        return PersonName(**{"family": self.family, "given": self.given, **changes})

    def display(self) -> str:
        if self.given:
            return f"{self.given} {self.family}"
        return self.family


def _clean(part: str) -> str:
    return " ".join(part.replace("{", "").replace("}", "").split())


@lru_cache(maxsize=4096)   # bounded and process-wide, as ``re`` keeps its patterns
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
    return [name for part in _AND_SPLIT.split(field.strip())
            if (name := _parse_one(part)) is not None]
