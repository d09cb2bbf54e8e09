"""Brute-force reference implementations used to check the library.

These deliberately avoid the library's own code paths: plain loops, the
statistics module, and exhaustive scans. Keep them dumb.
"""

from __future__ import annotations

import json
import re
import statistics
import unicodedata
from collections.abc import Mapping

from refsum import PersonName, ReferenceRecord, parse_person_names
from refsum.errors import RecordFileError
from refsum.records import VENUE_TYPES, YEAR_MAX, YEAR_MIN


def get(record, attribute):
    if isinstance(record, Mapping):
        return record.get(attribute)
    return getattr(record, attribute, None)


def brute_median(values):
    return statistics.median(values)


def brute_range(values):
    return min(values), max(values)


def brute_distribution(records, attribute):
    """value -> (count, proportion) including 'unknown' for absent values."""
    tally = {}
    for r in records:
        v = get(r, attribute)
        if v is None:
            key = "unknown"
        elif isinstance(v, bool):
            key = "true" if v else "false"
        else:
            key = str(v)
        tally[key] = tally.get(key, 0) + 1
    return {k: (c, c / len(records)) for k, c in tally.items()}


def brute_self_citation_share(records):
    return sum(1 for r in records if get(r, "self_citation") is True) / len(records)


def brute_top_authors(records, k):
    """Exhaustive per-author tally: (score, papers) keyed by normalized key."""
    scores = {}
    papers = {}
    for r in records:
        seen = set()
        for a in get(r, "authors") or ():
            if a.normalized_key in seen:
                continue
            seen.add(a.normalized_key)
            c = get(r, "citation_count")
            scores[a.normalized_key] = scores.get(a.normalized_key, 0) + (c or 0)
            papers[a.normalized_key] = papers.get(a.normalized_key, 0) + 1
    order = sorted(scores, key=lambda key: (-scores[key], -papers[key], key))
    return [(key, scores[key], papers[key]) for key in order[:k]]


def brute_author_names(records):
    """key -> (displayed name, papers with a count). A record that lists a key
    twice offers its last variant; the longest given name wins, then family
    and given in order."""
    offered = {}
    counted = {}
    for r in records:
        last = {}
        for a in get(r, "authors") or ():
            last[a.normalized_key] = a
        for key, a in last.items():
            offered.setdefault(key, []).append(a)
            if get(r, "citation_count") is not None:
                counted[key] = counted.get(key, 0) + 1
    return {key: (sorted(names, key=lambda p: (-len(p.given), p.family, p.given))[0],
                  counted.get(key, 0))
            for key, names in offered.items()}


def brute_group_tops(records, attribute):
    """group value -> id of the winning record, by exhaustive comparison."""
    winners = {}
    for r in records:
        g = get(r, attribute)
        if g is None:
            continue
        g = ("true" if g else "false") if isinstance(g, bool) else str(g)
        if g not in winners:
            winners[g] = r
            continue
        winners[g] = _better(r, winners[g])
    return {g: get(r, "id") for g, r in winners.items()}


def _better(a, b):
    ca, cb = get(a, "citation_count"), get(b, "citation_count")
    if (ca is not None) != (cb is not None):
        return a if ca is not None else b
    if ca is not None and ca != cb:
        return a if ca > cb else b
    ya = get(a, "year")
    yb = get(b, "year")
    if (ya is not None) != (yb is not None):
        return a if ya is not None else b
    if ya is not None and ya != yb:
        return a if ya < yb else b
    ta, tb = get(a, "title") or "", get(b, "title") or ""
    if ta != tb:
        return a if ta < tb else b
    return a if (get(a, "id") or "") < (get(b, "id") or "") else b


def brute_importance(records, dominating, candidates, min_size=2):
    """Direct evaluation of the spread-over-range importance formula."""
    present = [get(r, dominating) for r in records if get(r, dominating) is not None]
    lo, hi = min(present), max(present)
    result = {}
    for attribute in candidates:
        buckets = {}
        for r in records:
            v = get(r, dominating)
            if v is None:
                continue
            c = get(r, attribute)
            if c is None:
                key = "unknown"
            elif isinstance(c, bool):
                key = "true" if c else "false"
            else:
                key = str(c)
            buckets.setdefault(key, []).append(v)
        medians = [statistics.median(vals) for vals in buckets.values()
                   if len(vals) >= min_size]
        if hi == lo or not medians:
            result[attribute] = 0.0
        else:
            result[attribute] = (max(medians) - min(medians)) / (hi - lo)
    return result


def brute_percentage(proportion):
    """Integer percent via decimal-string surgery, halves away from zero."""
    text = f"{proportion * 100:.6f}"
    whole, frac = text.split(".")
    n = int(whole)
    if int(frac[0]) >= 5:
        n += 1
    return f"{n}%"


# The LaTeX cleanup done the plain way: all five passes over every value, in
# this order, then '~' and braces, then whitespace with a regex.
_COMBINING = {"'": "\u0301", "`": "\u0300", '"': "\u0308", "^": "\u0302",
              "~": "\u0303", "=": "\u0304", ".": "\u0307"}
_NAMED = {"ss": "ß", "ae": "æ", "AE": "Æ", "oe": "œ", "OE": "Œ",
          "o": "ø", "O": "Ø", "aa": "å", "AA": "Å", "l": "ł", "L": "Ł",
          "i": "ı"}
_ESCAPES = {"\\&": "&", "\\%": "%", "\\_": "_", "\\#": "#", "\\$": "$"}
_ACCENT_RE = re.compile(r"\{?\\(['`\"^~=.])\{?([A-Za-z])\}?\}?")
_CEDILLA_RE = re.compile(r"\{?\\c\{?([cC])\}?\}?")
_CARON_RE = re.compile(r"\{?\\v\{?([a-zA-Z])\}?\}?")
_NAMED_RE = re.compile(r"\{?\\(" + "|".join(sorted(_NAMED, key=len, reverse=True))
                       + r")\}?(?![A-Za-z])")


def brute_de_latex(text):
    for seq, plain in _ESCAPES.items():
        text = text.replace(seq, plain)
    text = _ACCENT_RE.sub(lambda m: unicodedata.normalize(
        "NFC", m.group(2) + _COMBINING[m.group(1)]), text)
    text = _CEDILLA_RE.sub(lambda m: "ç" if m.group(1) == "c" else "Ç", text)
    text = _CARON_RE.sub(lambda m: unicodedata.normalize("NFC", m.group(1) + "\u030c"), text)
    text = _NAMED_RE.sub(lambda m: _NAMED[m.group(1)], text)
    text = text.replace("~", " ").replace("{", "").replace("}", "")
    return re.sub(r"\s+", " ", text).strip()


# Person-name whitespace collapsed with the regex forms: runs of `\s` to one
# space, ends stripped.
def brute_name_clean(part):
    return re.sub(r"\s+", " ", part.replace("{", "").replace("}", "")).strip()


def brute_family_key(family):
    return re.sub(r"\s+", " ", family.strip().lower())


def brute_brace_close(text):
    """Where each ``{`` that closes is closed, by one stack walk over the
    whole text; a ``}`` with nothing open is skipped."""
    close, opened = {}, []
    for i, ch in enumerate(text):
        if ch == "{":
            opened.append(i)
        elif ch == "}" and opened:
            close[opened.pop()] = i
    return close


def serialize_entries(entries):
    """Write entries back out as BibTeX; inverse of parsing up to layout."""
    blocks = []
    for entry in entries:
        lines = [f"@{entry.entry_kind}{{{entry.cite_key},"]
        for name, value in entry.fields.items():
            lines.append(f"  {name} = {{{value}}},")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


# The record-file loader the plain way: `json.loads` on each line, `_typed`
# for every field, keyword construction. Lines end at `\n` only. A first
# pass reads every line, so each line without an id knows all ids up front.
def _brute_names_from_json(value, rid, warnings, memo):
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


def _brute_typed(obj, key, kind, default, rid, warnings):
    value = obj.get(key, default)
    if key not in obj or isinstance(value, kind) or (value is None and default is None):
        return value
    warnings.append(f"{rid}: {key} {value!r} is not a {kind.__name__}, dropped")
    return default


def brute_load_record_lines(text, warnings):
    objects = []
    for lineno, line in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordFileError(f"line {lineno}: not a valid record object ({exc.msg})")
        if not isinstance(obj, dict):
            raise RecordFileError(f"line {lineno}: expected an object")
        objects.append((lineno, obj))
    ids = {obj["id"] for _, obj in objects if isinstance(obj.get("id"), str) and obj["id"]}
    records = []
    first_line = {}
    memo = {}
    for lineno, obj in objects:
        if isinstance(obj.get("id"), str) and obj["id"]:
            rid = obj["id"]
            if rid in first_line:
                warnings.append(f"{rid}: duplicate id (first on line {first_line[rid]}), dropped")
                continue
            first_line[rid] = lineno
        else:
            candidates = [f"r{lineno}"] + [f"r{lineno}-{k}" for k in range(2, len(ids) + 3)]
            rid = [c for c in candidates if c not in ids][0]
            _brute_typed(obj, "id", str, None, rid, warnings)
        names = _brute_typed(obj, "authors", list, (), rid, warnings)
        authors = tuple(n for item in names
                        for n in _brute_names_from_json(item, rid, warnings, memo))
        year = obj.get("year")
        if year is not None:
            if not isinstance(year, int) or not YEAR_MIN <= year <= YEAR_MAX:
                warnings.append(f"{rid}: year {year!r} out of range, dropped")
                year = None
        venue_type = _brute_typed(obj, "venue_type", str, None, rid, warnings) or "other"
        if venue_type not in VENUE_TYPES:
            warnings.append(f"{rid}: unknown venue type {venue_type!r} mapped to 'other'")
            venue_type = "other"
        count = obj.get("citation_count")
        if count is not None and (isinstance(count, bool) or not isinstance(count, int)
                                  or count < 0):
            warnings.append(f"{rid}: invalid citation count {count!r}, dropped")
            count = None
        records.append(ReferenceRecord(
            id=rid,
            title=_brute_typed(obj, "title", str, "", rid, warnings),
            authors=authors,
            year=year,
            venue_name=_brute_typed(obj, "venue_name", str, "", rid, warnings),
            venue_type=venue_type,
            domain=_brute_typed(obj, "domain", str, None, rid, warnings),
            subdomain=_brute_typed(obj, "subdomain", str, None, rid, warnings),
            citation_count=count,
            self_citation=_brute_typed(obj, "self_citation", bool, None, rid, warnings),
        ))
    return records
