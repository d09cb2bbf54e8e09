"""Reference records: mapping parsed entries onto typed records.

Venue typing runs in two stages. The BibTeX entry kind is authoritative for
the coarse type (an ``@article`` is a journal paper no matter what the
venue string says); the taxonomy then fills in the academic domain and
subdomain, which BibTeX has no field for.
"""

from __future__ import annotations

import json
import re
import unicodedata
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .config import Checked
from .errors import ConfigError, RecordFileError
from .names import PersonName, parse_person_names

VENUE_TYPES = ("proceedings", "journal", "book", "other")

YEAR_MIN = 1000
YEAR_MAX = 3000

# Entry kinds that pin down the venue type, each with its preferred venue
# field and fallbacks; any other kind takes its type from the taxonomy, or
# "other", and the default fields.
_KINDS = {
    "article": ("journal", ("journal", "booktitle", "publisher")),
    "inproceedings": ("proceedings", ("booktitle", "journal", "publisher")),
    "conference": ("proceedings", ("booktitle", "journal", "publisher")),
    "proceedings": ("proceedings", ("booktitle", "publisher", "journal")),
    "book": ("book", ("publisher", "booktitle", "journal")),
    "inbook": ("book", ("publisher", "booktitle", "journal")),
    "incollection": ("book", ("booktitle", "publisher", "journal")),
}
_DEFAULT_VENUE_FIELDS = ("journal", "booktitle", "publisher", "howpublished")

_YEAR_RE = re.compile(r"\d{4}")


# -- LaTeX cleanup ----------------------------------------------------------

_COMBINING = {"'": "́", "`": "̀", '"': "̈", "^": "̂",
              "~": "̃", "=": "̄", ".": "̇"}
_NAMED = {"ss": "ß", "ae": "æ", "AE": "Æ", "oe": "œ", "OE": "Œ",
          "o": "ø", "O": "Ø", "aa": "å", "AA": "Å", "l": "ł", "L": "Ł",
          "i": "ı"}
_ESCAPES = {"\\&": "&", "\\%": "%", "\\_": "_", "\\#": "#", "\\$": "$"}

_ACCENT_RE = re.compile(r"\{?\\(['`\"^~=.])\{?([A-Za-z])\}?\}?")
_CEDILLA_RE = re.compile(r"\{?\\c\{?([cC])\}?\}?")
_CARON_RE = re.compile(r"\{?\\v\{?([a-zA-Z])\}?\}?")
_NAMED_RE = re.compile(r"\{?\\(" + "|".join(sorted(_NAMED, key=len, reverse=True)) + r")\}?(?![A-Za-z])")


def _compose(mark: str, letter: str) -> str:
    return unicodedata.normalize("NFC", letter + _COMBINING[mark])


def de_latex(text: str) -> str:
    """Undo the common LaTeX escapes and accent commands, drop braces.

    Covers a fixed table of frequent sequences only; exotic macros are left
    as-is minus their braces. The passes run in a fixed order that shows in
    the output (``\\o\\'x`` reads ``\\ox́``: the accent pass takes the ``x``
    first). Each pass matches only where the text as it stands holds a
    backslash (the cedilla and caron passes: ``\\c`` or ``\\v``), so it is
    skipped where it has none; most values have none from the start.
    """
    if "\\" in text:
        for seq, plain in _ESCAPES.items():
            text = text.replace(seq, plain)
        text = _ACCENT_RE.sub(lambda m: _compose(m.group(1), m.group(2)), text)
    if "\\c" in text:
        text = _CEDILLA_RE.sub(lambda m: "ç" if m.group(1) == "c" else "Ç", text)
    if "\\v" in text:
        text = _CARON_RE.sub(lambda m: unicodedata.normalize("NFC", m.group(1) + "̌"), text)
    if "\\" in text:
        text = _NAMED_RE.sub(lambda m: _NAMED[m.group(1)], text)
    text = text.replace("~", " ").replace("{", "").replace("}", "")
    return " ".join(text.split())


# -- domain types -------------------------------------------------------------

class _Record(NamedTuple):
    id: str
    title: str = ""
    authors: tuple[PersonName, ...] = ()
    year: int | None = None
    venue_name: str = ""
    venue_type: str = "other"
    domain: str | None = None
    subdomain: str | None = None
    citation_count: int | None = None
    self_citation: bool | None = None


class ReferenceRecord(Checked, _Record):
    """One cited work with the attributes the summariser consumes."""

    __slots__ = ()

    def _check(self) -> None:
        if self.venue_type not in VENUE_TYPES:
            raise ValueError(f"invalid venue type {self.venue_type!r}")


class CitingPaper(NamedTuple):
    """The paper whose reference list is being summarised."""

    authors: tuple[PersonName, ...] = ()
    references: tuple[ReferenceRecord, ...] = ()


@lru_cache(maxsize=None)
def _rule_regex(pattern: str) -> re.Pattern[str]:
    """A rule pattern's regex, compiled at its first use."""
    return re.compile(r"(?<![A-Za-z0-9])" + re.escape(pattern) + r"(?![A-Za-z0-9])",
                      re.IGNORECASE)


class TaxonomyRule(NamedTuple):
    pattern: str
    venue_type: str | None = None
    domain: str | None = None
    subdomain: str | None = None

    def matches(self, venue_name: str) -> bool:
        return _rule_regex(self.pattern).search(venue_name) is not None


class VenueTaxonomy(NamedTuple):
    """Ordered keyword rules mapping venue names to type/domain/subdomain.

    The first matching rule wins; no match means (None, None, None) and the
    caller falls back to its defaults.
    """

    rules: tuple[TaxonomyRule, ...] = ()

    def classify(self, venue_name: str) -> tuple[str | None, str | None, str | None]:
        for rule in self.rules:
            if rule.matches(venue_name):
                return rule.venue_type, rule.domain, rule.subdomain
        return None, None, None


def load_taxonomy(text: str) -> VenueTaxonomy:
    """Parse the tab-separated rule table: pattern, type, domain, subdomain.

    Blank lines and ``#`` comments are skipped; ``-`` or an empty column
    means "leave unset".
    """
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip()
        if not line or line.lstrip().startswith("#"):
            continue
        cols = [c.strip() for c in line.split("\t")]
        if len(cols) < 2:
            raise ConfigError(f"taxonomy line {lineno}: expected tab-separated columns")
        pattern, venue_type, domain, subdomain = (cols + ["", ""])[:4]
        if not pattern:
            raise ConfigError(f"taxonomy line {lineno}: empty pattern")
        venue_type = venue_type if venue_type not in ("", "-") else None
        if venue_type is not None and venue_type not in VENUE_TYPES:
            raise ConfigError(
                f"taxonomy line {lineno}: unknown venue type {venue_type!r}")
        rules.append(TaxonomyRule(
            pattern=pattern,
            venue_type=venue_type,
            domain=domain if domain not in ("", "-") else None,
            subdomain=subdomain if subdomain not in ("", "-") else None,
        ))
    return VenueTaxonomy(tuple(rules))


def load_taxonomy_file(path: str | Path) -> VenueTaxonomy:
    return load_taxonomy(Path(path).read_text(encoding="utf-8"))


# -- record construction ------------------------------------------------------

def _parse_year(raw: str | None) -> int | None:
    if not raw:
        return None
    m = _YEAR_RE.search(raw)
    if not m:
        return None
    year = int(m.group(0))
    if not YEAR_MIN <= year <= YEAR_MAX:
        return None
    return year


@lru_cache(maxsize=1024)   # bounded and process-wide, as ``re`` keeps its patterns
def _venue(raw: str, taxonomy: VenueTaxonomy) -> tuple[str, str | None, str | None, str | None]:
    """A venue value's cleaned name, then its type, domain and subdomain."""
    name = de_latex(raw)
    return (name, *taxonomy.classify(name)) if name else (name, None, None, None)


def to_reference_record(entry, taxonomy: VenueTaxonomy | None = None,
                        warnings: list[str] | None = None) -> ReferenceRecord:
    """Map one RawEntry onto a ReferenceRecord; total, never raises.

    Missing fields degrade to absent values and are noted in ``warnings``.
    """
    taxonomy = taxonomy or VenueTaxonomy()
    if warnings is None:
        warnings = []
    kind = entry.entry_kind.lower()
    fields = entry.fields

    title = de_latex(fields.get("title", ""))
    if not title:
        warnings.append(f"{entry.cite_key}: no title")

    author_field = fields.get("author", "")
    authors = tuple(parse_person_names(de_latex(author_field))) if author_field else ()
    if not authors:
        warnings.append(f"{entry.cite_key}: no authors")

    year = _parse_year(fields.get("year"))
    if year is None:
        warnings.append(f"{entry.cite_key}: no usable year")

    kind_type, venue_fields = _KINDS.get(kind, (None, _DEFAULT_VENUE_FIELDS))
    venue_name, taxo_type, domain, subdomain = "", None, None, None
    for venue_field in venue_fields:
        if fields.get(venue_field):
            venue_name, taxo_type, domain, subdomain = _venue(fields[venue_field], taxonomy)
            break
    if not venue_name:
        warnings.append(f"{entry.cite_key}: no venue field")
    venue_type = kind_type or taxo_type or "other"

    return ReferenceRecord(entry.cite_key, title, authors, year, venue_name, venue_type,
                           domain, subdomain)


def derive_self_citations(records: list[ReferenceRecord],
                          citing_authors: tuple[PersonName, ...]) -> list[ReferenceRecord]:
    """Each record flagged as a self-citation iff it shares an author with
    the citing paper."""
    citing_keys = {a.normalized_key for a in citing_authors}
    return [ReferenceRecord(r.id, r.title, r.authors, r.year, r.venue_name, r.venue_type,
                            r.domain, r.subdomain, r.citation_count,
                            any(a.normalized_key in citing_keys for a in r.authors))
            for r in records]


# -- line-delimited record files ----------------------------------------------

def _names_from_json(value, rid: str, warnings: list[str],
                     memo: dict[str | tuple[str, str], tuple[PersonName, ...]]
                     ) -> tuple[PersonName, ...]:
    """One author item: a name string, split on ``and`` with a warning when it
    holds several, or an object with a non-empty string ``family`` and a
    string, null or missing ``given``; else warn and drop it.

    ``memo`` maps each string item, and each object's ``(family, given)``,
    already seen in this load to its names: equal items share one parse and
    one ``PersonName``, while every warning still fires once per item.
    """
    if isinstance(value, str):
        names = memo.get(value)
        if names is None:
            names = memo[value] = tuple(parse_person_names(value))
        if len(names) > 1:
            warnings.append(f"{rid}: author item {value!r} holds {len(names)} names, split")
        if names:
            return names
    elif (isinstance(value, dict) and isinstance(family := value.get("family"), str)
          and family and isinstance(given := value.get("given"), str | None)):
        pair = (family, given or "")
        names = memo.get(pair)
        if names is None:
            names = memo[pair] = (PersonName(*pair),)
        return names
    warnings.append(f"{rid}: author {value!r} is not a name, dropped")
    return ()


def _typed(obj: dict, key: str, kind: type, default, rid: str, warnings: list[str]):
    """``obj[key]`` if it is a ``kind``; else warn and use ``default``.

    A missing key, or null where the default is None, is absent and silent.
    """
    value = obj.get(key, default)
    if key not in obj or isinstance(value, kind) or (value is None and default is None):
        return value
    warnings.append(f"{rid}: {key} {value!r} is not a {kind.__name__}, dropped")
    return default


_JSON_SPACE = " \t\r"   # JSON whitespace, bar the newline that ends a line
_decode = json.JSONDecoder().raw_decode


def _json_error(line: str, exc: json.JSONDecodeError) -> str:
    """The message ``json.loads(line)`` gives, which checks for a BOM first."""
    if line.startswith("\ufeff"):
        return "Unexpected UTF-8 BOM (decode using utf-8-sig)"
    return exc.msg


def load_record_lines(text: str, warnings: list[str] | None = None) -> list[ReferenceRecord]:
    """Read one reference object per line, fields named as in ReferenceRecord.

    Lines end at ``\n`` only; a trailing ``\r`` is JSON whitespace. One
    byte-order mark (U+FEFF) at the start of the text is dropped; one that
    starts a later line is refused as ``json.loads`` refuses it. A line whose
    ``id`` an earlier line gives is dropped with a warning. A line without one
    is ``r<line>``, or if some ``id`` is that, the first free ``r<line>-2``, ...

    Each line is decoded as ``json.loads`` would, with the same error texts,
    in one pass over the text that cuts one line at a time, so no second copy
    of the whole text is held. A field of the right JSON type costs one type
    test; ``_typed`` runs only for one that fails it, and gives the warnings
    in field order. Equal categorical values share one object, as author
    items do.
    """
    if warnings is None:
        warnings = []
    records = []
    first_line: dict[str, int] = {}   # each id a line gives
    generated: list[tuple[int, int, int, str]] = []   # record, its warnings, r<line>
    memo: dict[str | tuple[str, str], tuple[PersonName, ...]] = {}
    share = {}.setdefault   # venue names, venue types, domains and subdomains
    size, lineno, pos = len(text), 0, int(text.startswith("\ufeff"))
    while pos <= size:
        nl = text.find("\n", pos)
        if nl < 0:
            nl = size
        line, pos, lineno = text[pos:nl], nl + 1, lineno + 1
        body = line.lstrip(_JSON_SPACE)
        if not body or body.isspace():
            continue
        try:
            obj, end = _decode(body)
        except json.JSONDecodeError as exc:
            raise RecordFileError(f"line {lineno}: not a valid record object "
                                  f"({_json_error(line, exc)})")
        if end != len(body) and body[end:].strip(_JSON_SPACE):
            raise RecordFileError(f"line {lineno}: not a valid record object (Extra data)")
        if type(obj) is not dict:
            raise RecordFileError(f"line {lineno}: expected an object")
        get = obj.get
        rid = get("id")
        if unnamed := type(rid) is not str or not rid:
            start = len(warnings)
            rid = _typed(obj, "id", str, None, f"r{lineno}", warnings) or f"r{lineno}"
        elif (first := first_line.setdefault(rid, lineno)) != lineno:
            warnings.append(f"{rid}: duplicate id (first on line {first}), dropped")
            continue
        items = get("authors", ())
        if type(items) is not list:
            items = _typed(obj, "authors", list, (), rid, warnings)
        authors = []
        for item in items:
            names = memo.get(item) if type(item) is str else None
            if names is not None and len(names) == 1:
                authors.append(names[0])
            else:
                authors += _names_from_json(item, rid, warnings, memo)
        year = get("year")
        if year is not None and (type(year) is not int or not YEAR_MIN <= year <= YEAR_MAX):
            warnings.append(f"{rid}: year {year!r} out of range, dropped")
            year = None
        venue_type = get("venue_type")
        if type(venue_type) is not str or venue_type not in VENUE_TYPES:
            venue_type = _typed(obj, "venue_type", str, None, rid, warnings) or "other"
            if venue_type not in VENUE_TYPES:
                warnings.append(f"{rid}: unknown venue type {venue_type!r} mapped to 'other'")
                venue_type = "other"
        count = get("citation_count")
        if count is not None and (type(count) is not int or count < 0):
            warnings.append(f"{rid}: invalid citation count {count!r}, dropped")
            count = None
        title = get("title", "")
        if type(title) is not str:
            title = _typed(obj, "title", str, "", rid, warnings)
        venue_name = get("venue_name", "")
        if type(venue_name) is not str:
            venue_name = _typed(obj, "venue_name", str, "", rid, warnings)
        domain = get("domain")
        if domain is not None and type(domain) is not str:
            domain = _typed(obj, "domain", str, None, rid, warnings)
        subdomain = get("subdomain")
        if subdomain is not None and type(subdomain) is not str:
            subdomain = _typed(obj, "subdomain", str, None, rid, warnings)
        flag = get("self_citation")
        if flag is not None and type(flag) is not bool:
            flag = _typed(obj, "self_citation", bool, None, rid, warnings)
        records.append(ReferenceRecord(rid, title, tuple(authors), year,
                                       share(venue_name, venue_name), share(venue_type, venue_type),
                                       share(domain, domain), share(subdomain, subdomain), count, flag))
        if unnamed:
            generated.append((len(records) - 1, start, len(warnings), rid))
    for index, start, end, rid in generated:   # an explicit id wins over r<line>
        if rid in first_line:   # of len(first_line) + 1 names, one is free
            new = next(f"{rid}-{k}" for k in range(2, len(first_line) + 3)
                       if f"{rid}-{k}" not in first_line)
            records[index] = records[index]._replace(id=new)
            warnings[start:end] = [new + w[len(rid):] for w in warnings[start:end]]
    return records
