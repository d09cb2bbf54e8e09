"""Seeded inputs for the benchmark, and the ground truth they encode.

Nothing here imports refsum. The program receives only the files these
generators write; the checker compares its output with the `Ref` records
kept here. Sizes are constants, so every seed gives the same number of
entries, records and malformed blocks, and only their content changes.
"""

from __future__ import annotations

import json
import os
import random
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path

PAPER_ENTRIES = 40      # cli-paper: a paper-sized reference list
LARGE_ENTRIES = 2000    # bib-large: well-formed entries, victims included
MALFORMED = 12          # bib-large: broken blocks, each followed by a victim
RECORDS = 4000          # records-cache: lines in the record file
MIN_OPS = 3             # operations per run, however short the run
# Enrichment threads: at most one per core, and at most the two this
# benchmark was sized for.
WORKERS = min(2, os.cpu_count() or 1)

# (pattern, venue type, domain, subdomain): one taxonomy rule per field.
FIELDS = (
    ("computational linguistics", "proceedings", "computing-science", "computational-linguistics"),
    ("machine learning", "proceedings", "computing-science", "machine-learning"),
    ("databases", "proceedings", "computing-science", "databases"),
    ("information retrieval", "proceedings", "computing-science", "information-retrieval"),
    ("cognitive science", "journal", "psychology", "cognitive-science"),
    ("psycholinguistics", "journal", "psychology", "psycholinguistics"),
    ("géométrie algébrique", "journal", "mathematics", "algebraic-geometry"),
    ("number theory", "journal", "mathematics", "number-theory"),
    ("condensed matter", "journal", "physics", "condensed-matter"),
    ("genomics", "journal", "biology", "genomics"),
    ("phonologie", "journal", "linguistics", "phonology"),
    ("sprachwissenschaft", "journal", "linguistics", "historical-linguistics"),
)
PRESS_RULE = ("university press", "book", None, None)
# Venue topics that match no rule: their entries have no domain.
UNMATCHED_TOPICS = ("Maritime History", "Horology", "Culinary Arts", "Applied Aesthetics")

_KIND_VENUE_TYPE = {"article": "journal", "inproceedings": "proceedings",
                    "book": "book", "incollection": "book"}
_KINDS = (("inproceedings", 45), ("article", 30), ("book", 10),
          ("incollection", 8), ("misc", 7))

_GIVEN = ("Anna", "José", "Zoë", "Łukasz", "Søren", "Émile", "Ingrid", "Wei",
          "Priya", "Jürgen", "Ayşe", "Nikolaj", "Chloé", "Tomás", "Mei", "Omar",
          "Björn", "Dana", "Inès", "Kenji", "Rafał", "Ólafur", "Grete", "Xavier",
          "Yusuf", "Hélène", "Bogdan", "Carmen", "Dorothée", "Ewa")
_FAMILY = ("Müller", "Núñez", "García", "Øberg", "Dvořák", "Kowalski", "Zhang",
           "Raman", "Çelik", "Weiß", "Novák", "Lindqvist", "van der Berg",
           "de la Cruz", "Haddad", "Tanaka", "Eriksson", "Moreau", "Schröder",
           "Šimek", "Håkansson", "Ferreira", "Nakamura", "Okafor", "Łęcki",
           "Brønsted", "Castaño", "Villeneuve", "Petrović", "Jæger")
_ADJ = ("Adaptive", "Robust", "Sparse", "Neural", "Bayesian", "Scalable",
        "Incremental", "Probabilistic", "Naïve", "Efficient", "Hierarchical",
        "Latent", "Contrastive", "Distributed", "Semantic", "Causal",
        "Lightweight", "Federated", "Interpretable", "Élégant")
_NOUN = ("Parsing", "Retrieval", "Alignment", "Clustering", "Indexing",
         "Tagging", "Estimation", "Inference", "Segmentation", "Compression",
         "Ranking", "Sampling", "Translation", "Summarisation", "Modelling")
_OBJECT = ("Treebanks", "Query Logs", "Phoneme Inventories", "Gene Networks",
           "Lattices", "Sparse Matrices", "Spin Chains", "Eye-Tracking Data",
           "Citation Graphs", "Dialect Atlases", "Façade Images", "Straße Maps")
_CONTEXT = ("in Low-Resource Settings", "for Zürich Dialects", "at Scale",
            "under Noise", "with Weak Supervision", "across Languages",
            "in Kraków Archives", "for São Paulo Transit", "from Øresund Sensors",
            "in Málaga Clinics", "without Labels", "with Dvořák Kernels",
            "for Search & Rescue", "near Tromsø")
_VICTIM_WORDS = ("Alpha", "Bravo", "Charlie", "Delta", "Echo", "Foxtrot",
                 "Golf", "Hotel", "India", "Juliett", "Kilo", "Lima")
_CITIES = ("Oxbridge", "Uppsala", "Leuven", "Coimbra", "Tübingen")
_ORDINALS = ("Annual", "International", "European", "Joint", "Nordic")

# LaTeX spellings the program documents that it decodes; all braced, so
# they are also safe inside quote-delimited values.
_LATEX = {
    "é": "{\\'e}", "É": "{\\'E}", "è": "{\\`e}", "á": "{\\'a}", "ó": "{\\'o}",
    "ú": "{\\'u}", "í": "{\\'i}", "ü": '{\\"u}', "ö": '{\\"o}', "ä": '{\\"a}',
    "ë": '{\\"e}', "ï": '{\\"i}', "Ö": '{\\"O}', "Ü": '{\\"U}', "ñ": "{\\~n}",
    "ã": "{\\~a}", "â": "{\\^a}", "ê": "{\\^e}", "ô": "{\\^o}", "ç": "{\\c{c}}",
    "Ç": "{\\c{C}}", "š": "{\\v{s}}", "Š": "{\\v{S}}", "ř": "{\\v{r}}",
    "ø": "{\\o}", "Ø": "{\\O}", "ß": "{\\ss}", "ł": "{\\l}", "Ł": "{\\L}",
    "å": "{\\aa}", "Å": "{\\AA}", "æ": "{\\ae}", "&": "\\&",
}


@dataclass(frozen=True)
class Person:
    given: str
    family: str

    @property
    def key(self) -> str:
        """Family plus first given initial, lowercased: the documented identity."""
        family = " ".join(self.family.lower().split())
        initial = next((c.lower() for c in self.given if c.isalnum()), "")
        return f"{family}.{initial}" if initial else family

    @property
    def display(self) -> str:
        return f"{self.given} {self.family}" if self.given else self.family


@dataclass(frozen=True)
class Ref:
    """One reference as the summary should see it."""

    id: str
    title: str
    authors: tuple[Person, ...]
    year: int | None
    venue_type: str
    domain: str | None
    subdomain: str | None
    count: int | None
    self_citation: bool


@dataclass
class Inputs:
    files: dict[str, str]               # file name -> text, written to the run directory
    refs: list[Ref]                     # every well-formed entry or record
    paper_authors: str = ""             # the --paper-authors string, if any
    broken: tuple[str, ...] = ()        # cite keys of malformed blocks

    def write(self, rundir: Path) -> None:
        """The files the program reads, plus meta.json for the benchmark's worker."""
        rundir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (rundir / name).write_text(text, encoding="utf-8")
        (rundir / "meta.json").write_text(json.dumps({"paper_authors": self.paper_authors}),
                                          encoding="utf-8")


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def _rule_matches(pattern: str, venue: str) -> bool:
    return re.search(r"(?<![A-Za-z0-9])" + re.escape(pattern) + r"(?![A-Za-z0-9])",
                     venue, re.IGNORECASE) is not None


def _classify(venue: str) -> tuple[str | None, str | None, str | None]:
    hits = [rule for rule in FIELDS + (PRESS_RULE,) if _rule_matches(rule[0], venue)]
    if len(hits) > 1:
        raise RuntimeError(f"venue {venue!r} matches {len(hits)} taxonomy rules")
    return hits[0][1:] if hits else (None, None, None)


def taxonomy_text(rng: random.Random) -> str:
    rules = list(FIELDS) + [PRESS_RULE]
    rng.shuffle(rules)  # each venue matches one rule, so order changes cost only
    lines = ["# venue taxonomy: pattern, venue type, domain, subdomain"]
    for pattern, vtype, domain, sub in rules:
        lines.append("\t".join((pattern, vtype or "-", domain or "-", sub or "-")))
    return "\n".join(lines) + "\n"


def _latex(text: str, rng: random.Random) -> str:
    """Write about half of the special characters as LaTeX, the rest raw."""
    return "".join(_LATEX[ch] if ch in _LATEX and (ch == "&" or rng.random() < 0.5)
                   else ch for ch in text)


def _people(rng: random.Random, n: int) -> list[Person]:
    people: dict[str, Person] = {}
    while len(people) < n:
        family = rng.choice(_FAMILY)
        if rng.random() < 0.6:
            family += "-" + rng.choice(_FAMILY).split()[-1]
        person = Person(_nfc(rng.choice(_GIVEN)), _nfc(family))
        people.setdefault(person.key, person)
    return list(people.values())


def _titles(rng: random.Random, n: int) -> list[str]:
    seen: dict[str, str] = {}
    while len(seen) < n:
        title = _nfc(f"{rng.choice(_ADJ)} {rng.choice(_NOUN)} of "
                     f"{rng.choice(_OBJECT)} {rng.choice(_CONTEXT)}")
        seen.setdefault(title.lower(), title)
    return list(seen.values())


def _year(rng: random.Random) -> int | None:
    return None if rng.random() < 0.02 else 1970 + int(rng.triangular(0, 55, 46))


def _count(rng: random.Random) -> int:
    return int(rng.lognormvariate(2.5, 1.3))


def _authors(rng: random.Random, pool: list[Person], citing: list[Person]) -> tuple[Person, ...]:
    picked = rng.sample(pool, rng.randint(1, 4))
    if citing and rng.random() < 0.08:
        picked[rng.randrange(len(picked))] = rng.choice(citing)
    return tuple(dict.fromkeys(picked))


def _topic(rng: random.Random) -> str:
    if rng.random() < 0.08:
        return rng.choice(UNMATCHED_TOPICS)
    return rng.choice(FIELDS)[0].title()


def _venue(kind: str, rng: random.Random) -> str:
    topic = _topic(rng)
    if kind == "article":
        return rng.choice((f"Journal of {topic}", f"{topic} Letters",
                           f"Transactions on {topic}"))
    if kind == "inproceedings":
        return rng.choice((f"Proceedings of the {rng.choice(_ORDINALS)} Conference on {topic}",
                           f"Workshop on {topic}"))
    if kind == "book":
        if rng.random() < 0.5:
            return f"{rng.choice(_CITIES)} University Press"
        return f"Press Series on {topic}"
    if kind == "incollection":
        return f"Handbook of {topic}"
    if rng.random() < 0.3:
        return f"{rng.choice(_CITIES)} University Press"
    return f"Preprint Server for {topic}"


_VENUE_FIELD = {"article": "journal", "inproceedings": "booktitle", "book": "publisher",
                "incollection": "booktitle", "misc": "howpublished"}


def _macros() -> dict[str, str]:
    """@string macros for the journal names, one per field."""
    return {f"jrn{chr(ord('a') + i)}": f"Journal of {rule[0].title()}"
            for i, rule in enumerate(FIELDS)}


def _bib_value(text: str, rng: random.Random) -> str:
    return "{" + text + "}" if rng.random() < 0.8 else '"' + text + '"'


def _bib_title(title: str, rng: random.Random) -> str:
    words = title.split(" ")
    if rng.random() < 0.3:
        i = rng.randrange(len(words))
        if words[i][:1].isupper():
            words[i] = "{" + words[i][0] + "}" + words[i][1:]   # protected capital
    return _latex(" ".join(words), rng)


def _bib_authors(authors: tuple[Person, ...], rng: random.Random) -> str:
    parts = []
    for p in authors:
        parts.append(f"{p.family}, {p.given}" if rng.random() < 0.25 else p.display)
    if rng.random() < 0.03:
        parts.append("others")
    return _latex(" and ".join(parts), rng)


def _entry_block(ref: Ref, kind: str, venue: str, rng: random.Random,
                 macros: dict[str, str]) -> str:
    lines = [f"@{kind}{{{ref.id},",
             f"  title = {_bib_value(_bib_title(ref.title, rng), rng)},",
             f"  author = {_bib_value(_bib_authors(ref.authors, rng), rng)},"]
    macro = next((name for name, value in macros.items() if value == venue), None)
    field = _VENUE_FIELD[kind]
    if macro and rng.random() < 0.5:
        lines.append(f"  {field} = {macro},")
    elif venue.startswith("Proceedings of the ") and rng.random() < 0.4:
        rest = venue[len("Proceedings of the "):]
        lines.append(f"  {field} = pcof # {{{_latex(rest, rng)}}},")
    else:
        lines.append(f"  {field} = {_bib_value(_latex(venue, rng), rng)},")
    if ref.year is not None:
        lines.append(f"  year = {ref.year}," if rng.random() < 0.3
                     else f"  year = {{{ref.year}}},")
    lines.append("}")
    return "\n".join(lines) + "\n\n"


def _bib_header(macros: dict[str, str]) -> str:
    lines = ["% Generated bibliography.", "",
             "@comment{ Generated for the refsum benchmark; {nested {braces}} are skipped. }",
             "@preamble{ {\\providecommand{\\noopsort}[1]{}} }", "",
             "@string{pcof = {Proceedings of the }}"]
    lines += [f"@string{{{name} = {{{value}}}}}" for name, value in macros.items()]
    return "\n".join(lines) + "\n\n"


def _broken_block(j: int) -> tuple[str, Ref]:
    """A malformed entry and its victim, the same text on every seed.

    The broken title swallows the rest of its line, so the scanner reports
    an error at the next '@', which starts the victim entry.
    """
    word = _VICTIM_WORDS[j]
    victim = Ref(id=f"victim{word.lower()}", title=f"Fixed Entry {word}",
                 authors=(Person("Vera", "Fixwell"),), year=2010,
                 venue_type="proceedings", domain="computing-science",
                 subdomain="machine-learning", count=None, self_citation=False)
    text = (f"@article{{broken{word.lower()}, title={{Unclosed {{brace}}, year=2021}}\n"
            f"@inproceedings{{{victim.id}, title = {{{victim.title}}}, "
            f"author = {{Vera Fixwell}}, "
            f"booktitle = {{Proceedings of the Annual Conference on Machine Learning}}, "
            f"year = {{2010}}}}\n\n")
    return text, victim


def _bib(rng: random.Random, n_entries: int, n_broken: int, pool_size: int,
         count_share: float) -> tuple[str, list[str], Inputs]:
    """Header text, one text block per entry, and the ground truth."""
    pool = _people(rng, pool_size + 2)
    citing = pool[:2]
    pool = pool[2:]
    macros = _macros()
    n_seeded = n_entries - n_broken
    titles = _titles(rng, n_seeded)
    kinds = [k for k, _ in _KINDS]
    weights = [w for _, w in _KINDS]
    citing_keys = {p.key for p in citing}
    positions = {(j + 1) * n_seeded // (n_broken + 1): j for j in range(n_broken)}
    blocks: list[str] = []
    refs: list[Ref] = []
    counts: dict[str, int] = {}
    broken = []
    for i in range(n_seeded):
        if i in positions:
            text, victim = _broken_block(positions[i])
            blocks.append(text)
            refs.append(victim)
            broken.append("broken" + victim.id[len("victim"):])
        kind = rng.choices(kinds, weights)[0]
        venue = _nfc(_venue(kind, rng))
        rule_type, domain, subdomain = _classify(venue)
        authors = _authors(rng, pool, citing)
        count = _count(rng) if rng.random() < count_share else None
        ref = Ref(id=f"e{i:05d}", title=titles[i], authors=authors, year=_year(rng),
                  venue_type=_KIND_VENUE_TYPE.get(kind) or rule_type or "other",
                  domain=domain, subdomain=subdomain, count=count,
                  self_citation=any(a.key in citing_keys for a in authors))
        if count is not None:
            counts[ref.title] = count
        refs.append(ref)
        blocks.append(_entry_block(ref, kind, venue, rng, macros))
    paper_authors = " and ".join(p.display for p in citing)
    files = {"taxonomy.tax": taxonomy_text(rng),
             "counts.json": json.dumps(counts, ensure_ascii=False, indent=0)}
    return _bib_header(macros), blocks, Inputs(files, refs, paper_authors, tuple(broken))


def paper_inputs(seed: int) -> Inputs:
    """cli-paper: one paper's reference list, run through the CLI."""
    header, blocks, inputs = _bib(random.Random(f"paper-{seed}"), PAPER_ENTRIES, 0,
                                  pool_size=60, count_share=0.9)
    inputs.files["paper.bib"] = header + "".join(blocks)
    return inputs


def large_inputs(seed: int, entries: int = LARGE_ENTRIES, malformed: int = MALFORMED) -> Inputs:
    """bib-large: a few thousand entries, plus a half-size prefix for scan growth."""
    header, blocks, inputs = _bib(random.Random(f"large-{seed}"), entries, malformed,
                                  pool_size=max(10, entries // 4), count_share=0.85)
    inputs.files["large.bib"] = header + "".join(blocks)
    inputs.files["half.bib"] = header + "".join(blocks[:len(blocks) // 2])
    return inputs


def records_inputs(seed: int, records: int = RECORDS) -> Inputs:
    """records-cache: a line-delimited record file and a counts map that
    covers every record without a count, so the warm half needs no provider."""
    rng = random.Random(f"records-{seed}")
    pool = _people(rng, max(10, records // 4))
    titles = _titles(rng, records)
    lines, refs, counts = [], [], {}
    for i, title in enumerate(titles):
        kind = rng.choices([k for k, _ in _KINDS], [w for _, w in _KINDS])[0]
        venue = _nfc(_venue(kind, rng))
        rule_type, domain, subdomain = _classify(venue)
        ref = Ref(id=f"r{i:05d}", title=title, authors=_authors(rng, pool, []),
                  year=_year(rng), venue_type=_KIND_VENUE_TYPE.get(kind) or rule_type or "other",
                  domain=domain, subdomain=subdomain, count=_count(rng),
                  self_citation=rng.random() < 0.1)
        obj: dict = {"id": ref.id, "title": ref.title,
                     "authors": [{"family": p.family, "given": p.given} if rng.random() < 0.2
                                 else p.display for p in ref.authors],
                     "year": ref.year, "venue_name": venue, "venue_type": ref.venue_type,
                     "domain": ref.domain, "subdomain": ref.subdomain,
                     "self_citation": ref.self_citation}
        if rng.random() < 0.1:
            obj["citation_count"] = ref.count
        else:
            counts[ref.title] = ref.count
        lines.append(json.dumps(obj, ensure_ascii=False))
        refs.append(ref)
    files = {"records.jsonl": "\n".join(lines) + "\n",
             "counts.json": json.dumps(counts, ensure_ascii=False, indent=0)}
    return Inputs(files, refs)


GENERATORS = {"cli-paper": paper_inputs, "bib-large": large_inputs,
              "records-cache": records_inputs}
