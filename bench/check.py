"""Independent checks of the summaries against the generators' ground truth.

Nothing here imports refsum. The expected figures are computed from the
`Ref` records with integer arithmetic and plain loops, and the summary is
read back with the sentence shapes of the default template pack. Each
check returns a list of problems; an empty list means the text is right.
"""

from __future__ import annotations

import re
from fractions import Fraction

from gen import Ref

K = 7                    # author list size, the CLI default

_VENUE_WORDS = {"journal": "journals", "book": "books", "proceedings": "proceedings",
                "other": "other sources"}
_QUANT_FIRST = re.compile(
    r"^(Most|A large proportion of|Some) references \((\d+)%\) (?:are|is) (from|in) (.+)\.$")
_QUANT_NEXT = re.compile(
    r"^(Most|A large proportion|Some) (?:are|is) (from|in) (.+) \((\d+)%\)\.$")
_GROUP_TOP = re.compile(r'^The most cited is "(.+)" \((\d+) citations?\)\.$')
_GROUP_PLAIN = re.compile(r'^A representative publication is "(.+)"\.$')
_INTRO = re.compile(r"^This paper cites (\d+) references\. ")
_YEARS = re.compile(r"^The references were published between (\d+) and (\d+), "
                    r"centred on (\d+); (\d+)% are self-citations\.$")
_AUTHORS = re.compile(r"^The (\d+) authors with the highest citation counts are (.+)\.$")
_AUTHOR_ITEM = re.compile(r"^(.+?)(?: \((\d+) citations?\))?$")
_SHAPE = re.compile(r"^The citation count of the (\d+) references ranges from (\S+) to (\S+), "
                    r"with a median of (\S+)\.$")
_COMPARE = re.compile(r"^References from (.+) (are generally (much|slightly) (more|less) cited|"
                      r"are cited about as often as the full set) \((\S+) vs (\S+)\)\.$")


# -- expected figures -----------------------------------------------------------

def percent(count: int, total: int) -> str:
    """Integer percent of count/total, halves rounded up."""
    return str((200 * count + total) // (2 * total))


def quantifier(count: int, total: int) -> str:
    if 2 * count >= total:
        return "Most"
    if 5 * count >= total:
        return "A large proportion"
    return "Some"


def display(attribute: str, value: str | None) -> str:
    if value is None:
        return "unclassified sources"
    if attribute == "venue_type":
        return _VENUE_WORDS[value]
    return value.replace("-", " ").replace("_", " ")


def tally(refs: list[Ref], attribute: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for ref in refs:
        value = getattr(ref, attribute) or "unknown"
        counts[value] = counts.get(value, 0) + 1
    return counts


def distribution(refs: list[Ref], attribute: str) -> list[tuple[str, str, str]]:
    """(display phrase, percent, quantifier) per value, in summary order."""
    total = len(refs)
    return [(display(attribute, None if value == "unknown" else value),
             percent(n, total), quantifier(n, total))
            for value, n in sorted(tally(refs, attribute).items(), key=lambda kv: (-kv[1], kv[0]))]


def _rank(ref: Ref) -> tuple:
    return (ref.count is None, -(ref.count or 0),
            ref.year if ref.year is not None else 10**9, ref.title, ref.id)


def group_tops(refs: list[Ref]) -> list[tuple[str, str, str, str, int | None]]:
    """(subdomain phrase, percent, quantifier, top title, top count) per subdomain."""
    groups: dict[str, list[Ref]] = {}
    for ref in refs:
        if ref.subdomain is not None:
            groups.setdefault(ref.subdomain, []).append(ref)
    out = []
    for value, members in sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        top = min(members, key=_rank)
        out.append((display("subdomain", value), percent(len(members), len(refs)),
                    quantifier(len(members), len(refs)), top.title, top.count))
    return out


def median_halves(values: list[int]) -> Fraction:
    ordered = sorted(values)
    n = len(ordered)
    if n % 2:
        return Fraction(ordered[n // 2])
    return Fraction(ordered[n // 2 - 1] + ordered[n // 2], 2)


def number(value: Fraction) -> str:
    """Integers plain, anything else to one decimal place, halves up."""
    if value.denominator == 1:
        return str(value.numerator)
    tenths = (value * 10 * 2 + 1) // 2
    return f"{tenths // 10}.{tenths % 10}"


def top_authors(refs: list[Ref], k: int = K) -> list[tuple[str, int, bool]]:
    """(display name, score, has a counted paper) for the k best authors."""
    score: dict[str, int] = {}
    papers: dict[str, int] = {}
    counted: dict[str, int] = {}
    names: dict[str, set] = {}
    for ref in refs:
        for person in {p.key: p for p in ref.authors}.values():
            score[person.key] = score.get(person.key, 0) + (ref.count or 0)
            papers[person.key] = papers.get(person.key, 0) + 1
            counted[person.key] = counted.get(person.key, 0) + (ref.count is not None)
            names.setdefault(person.key, set()).add(person)
    ranked = sorted(score, key=lambda key: (-score[key], -papers[key], key))[:k]
    return [(sorted(names[key], key=lambda p: (-len(p.given), p.family, p.given))[0].display,
             score[key], counted[key] > 0) for key in ranked]


# -- reading the text back ----------------------------------------------------------

def sentences(paragraph: str) -> list[str]:
    """Split on sentence ends: a '.' not followed by a digit, since generated
    titles and names hold no '.' and medians may have a decimal point."""
    return [s.strip() for s in re.findall(r"(?:[^.]|\.(?=\d))*\.", paragraph)]


def read_quant(sentence: str, first: bool) -> tuple[str, str, str] | None:
    if first:
        m = _QUANT_FIRST.match(sentence)
        if m:
            word = "A large proportion" if m.group(1) == "A large proportion of" else m.group(1)
            return m.group(4), m.group(2), word
        return None
    m = _QUANT_NEXT.match(sentence)
    return (m.group(3), m.group(4), m.group(1)) if m else None


def read_quant_block(items: list[str]) -> list[tuple[str, str, str]] | None:
    got = [read_quant(s, i == 0) for i, s in enumerate(items)]
    return None if None in got else got


def _digits_ok(text: str, allowed: set[str], where: str) -> list[str]:
    stray = sorted({run for run in re.findall(r"\d+", text) if run not in allowed})
    return [f"{where}: digits {stray} are none of the expected figures"] if stray else []


def _figure_digits(*figures) -> set[str]:
    allowed: set[str] = set()
    for figure in figures:
        allowed.update(re.findall(r"\d+", str(figure)))
    return allowed


# -- the checks ---------------------------------------------------------------------

def check_refset(text: str, refs: list[Ref]) -> list[str]:
    """The refset summary of `refs`, paragraph by paragraph, figure by figure."""
    problems: list[str] = []
    total = len(refs)
    paragraphs = text.split("\n\n")
    if len(paragraphs) != 5:
        return [f"refset: {len(paragraphs)} paragraphs, expected 5"]
    intro, domain, groups, years, authors = paragraphs
    allowed = {str(total), str(K)}

    m = _INTRO.match(intro)
    if not m or m.group(1) != str(total):
        problems.append(f"refset: intro does not state the total {total}")
    else:
        venue = distribution(refs, "venue_type")
        got = read_quant_block(sentences(intro[m.end():]))
        if got != venue:
            problems.append(f"refset: venue types {got} != expected {venue}")
        allowed |= {p for _, p, _ in venue}

    expected = distribution(refs, "domain")
    got = read_quant_block(sentences(domain))
    if got != expected:
        problems.append(f"refset: domains {got} != expected {expected}")
    allowed |= {p for _, p, _ in expected}

    tops = group_tops(refs)
    items = sentences(groups)
    got_tops = []
    for i in range(0, len(items) - 1, 2):
        quant = read_quant(items[i], i == 0)
        m_count, m_plain = _GROUP_TOP.match(items[i + 1]), _GROUP_PLAIN.match(items[i + 1])
        if quant is None or not (m_count or m_plain):
            got_tops = None
            break
        title = (m_count or m_plain).group(1)
        got_tops.append(quant + (title, int(m_count.group(2)) if m_count else None))
    if got_tops != tops or len(items) != 2 * len(tops):
        problems.append(f"refset: subdomain tops {got_tops} != expected {tops}")
    allowed |= {p for _, p, _, _, _ in tops} | {str(c) for *_, c in tops if c is not None}

    present = [r.year for r in refs if r.year is not None]
    lo, hi = min(present), max(present)
    mid = int(median_halves(present))   # a median year of x.5 is shown as x
    share = percent(sum(r.self_citation for r in refs), total)
    want = (str(lo), str(hi), str(mid), share)
    m = _YEARS.match(years)
    if not m or m.groups() != want:
        problems.append(f"refset: years paragraph {years!r}, expected "
                        f"range {lo}-{hi}, median {mid}, self-citations {share}%")
    allowed |= set(want)

    best = top_authors(refs)
    m = _AUTHORS.match(authors)
    listed = re.split(r", | and ", m.group(2)) if m else []
    got_authors = []
    for item in listed:
        mi = _AUTHOR_ITEM.match(item)
        got_authors.append((mi.group(1), int(mi.group(2)) if mi.group(2) else None))
    want_authors = [(name, score if has_count else None) for name, score, has_count in best]
    if not m or m.group(1) != str(len(best)) or got_authors != want_authors:
        problems.append(f"refset: authors {got_authors} != expected {want_authors}")
    allowed |= {str(score) for _, score, _ in best}

    return problems + _digits_ok(text, allowed, "refset")


def _comparison(subset: list[int], superset: list[int]) -> tuple[set[str], Fraction, Fraction]:
    """The comparison wordings that fit, with both medians.

    The program compares a float ratio with the band edges, so a ratio within
    rounding of an edge may take either neighbouring word.
    """
    sub, sup = median_halves(subset), median_halves(superset)
    if sup == 0:
        return ({"same"} if sub == 0 else {"much more"}), sub, sup
    ratio = (sub - sup) / sup
    direction = "more" if ratio > 0 else "less"

    def word(r: Fraction) -> str:
        if r < Fraction(2, 100):
            return "same"
        return f"{'slightly' if r <= Fraction(15, 100) else 'much'} {direction}"

    eps = Fraction(1, 10**9)
    return {word(abs(ratio) - eps), word(abs(ratio) + eps)}, sub, sup


def check_prodset(text: str, refs: list[Ref]) -> list[str]:
    """The prodset summary: count shape, then one paragraph per feature.

    Feature paragraphs are matched to their attribute by content, so the
    importance order is not checked here.
    """
    problems: list[str] = []
    total = len(refs)
    counts = [r.count for r in refs if r.count is not None]
    lo, hi, mid = min(counts), max(counts), median_halves(counts)
    paragraphs = text.split("\n\n")
    want_shape = (str(total), str(lo), str(hi), number(mid))
    m = _SHAPE.match(paragraphs[0])
    if not m or m.groups() != want_shape:
        problems.append(f"prodset: shape {paragraphs[0]!r}, expected {want_shape}")
    allowed = _figure_digits(*want_shape)

    pending = {attr: distribution(refs, attr) for attr in ("venue_type", "domain", "subdomain")}
    for paragraph in paragraphs[1:]:
        items = sentences(paragraph)
        got = read_quant_block(items[:-1])
        attr = next((a for a, want in pending.items() if want == got), None)
        if attr is None:
            problems.append(f"prodset: feature paragraph {got} matches no attribute")
            continue
        want = pending.pop(attr)
        allowed |= {p for _, p, _ in want}
        top_value = min(tally(refs, attr).items(), key=lambda kv: (-kv[1], kv[0]))[0]
        subset = [r.count for r in refs if r.count is not None
                  and (getattr(r, attr) or "unknown") == top_value]
        words, sub, sup = _comparison(subset, counts)
        m = _COMPARE.match(items[-1])
        if not m:
            problems.append(f"prodset: {attr}: no comparison sentence in {items[-1]!r}")
            continue
        phrase = "same" if m.group(3) is None else f"{m.group(3)} {m.group(4)}"
        if (m.group(1) != want[0][0] or phrase not in words
                or (m.group(5), m.group(6)) != (number(sub), number(sup))):
            problems.append(f"prodset: {attr}: comparison {items[-1]!r}, expected "
                            f"{sorted(words)} with {number(sub)} vs {number(sup)}")
        allowed |= _figure_digits(number(sub), number(sup))
    if pending:
        problems.append(f"prodset: no paragraph for {sorted(pending)}")
    return problems + _digits_ok(text, allowed, "prodset")

