"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

from __future__ import annotations

import random
import statistics
import time

from oracles import (brute_distribution, brute_group_tops, brute_importance,
                     brute_self_citation_share, brute_top_authors, serialize_entries)
from refsum import (AuthorList, CitingPaper, ComparisonBands, IntroWithLeadAttribute,
                    PersonName, ReferenceRecord, build_plan, build_profile,
                    categorical_distribution, continuous_summary, default_prodset_config,
                    default_refset_config, feature_importance,
                    load_template_pack, parse_bibtex, quantifier_for, realize,
                    scan_bibtex, self_citation_share, top_authors, top_reference_per_group)
from refsum.cli import main
from refsum.config import AttributeSpec
from refsum.profile import _compare
from refsum.templates import PRICE_PACK_TEXT

GOLDEN_VENUE = ("Most references (55%) are from proceedings. "
                "A large proportion is from journals (30%). "
                "Some are from books (15%).")


def _ok(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {message}")


# -- 1. golden paper sentences ---------------------------------------------------

def test_criterion_1_golden_sentences(fixture20_paper):
    config = default_refset_config()
    profile = build_profile(fixture20_paper, config)
    dist = profile.distributions["venue_type"]
    assert [e.proportion for e in dist.entries] == [0.55, 0.30, 0.15]
    plan = build_plan(profile, config)
    intro = realize(plan).paragraphs[0]
    assert intro.endswith(GOLDEN_VENUE)  # zero tolerance, character for character
    _ok(1, "55/30/15 fixture renders the three quantifier sentences exactly")


# -- 2. comparison exemplar --------------------------------------------------------

def test_criterion_2_comparison_exemplar():
    smart = [400, 450, 475, 475, 500, 550]
    basic = [300, 350, 420, 450]
    records = [{"id": f"s{i}", "price": p, "connectivity": "smart-internet"}
               for i, p in enumerate(smart)]
    records += [{"id": f"b{i}", "price": p, "connectivity": "basic"}
                for i, p in enumerate(basic)]
    config = default_prodset_config(
        attributes=(AttributeSpec("connectivity", "categorical", "listed"),),
        dominating="price")
    profile = build_profile(CitingPaper(references=tuple(records)), config)
    result = profile.comparisons["connectivity"]
    assert (result.feature_value, result.subset_median, result.superset_median) == \
        ("smart-internet", 475, 450)
    assert (result.direction, result.magnitude) == ("higher", "slightly")
    pack = load_template_pack(PRICE_PACK_TEXT + """
[lexicon.connectivity]
smart-internet = a Smart-Internet feature
basic = basic connectivity only
""").with_settings(noun="TVs")
    text = realize(build_plan(profile, config), pack).full_text
    assert "slightly more expensive (£475 vs £450)" in text
    _ok(2, "475-vs-450 classifies (higher, slightly) and realises with the unit")


# -- 3. refset structure ------------------------------------------------------------

def test_criterion_3_refset_structure(fixture20_paper):
    config = default_refset_config()
    assert config.author_k == 7
    plan = build_plan(build_profile(fixture20_paper, config), config)
    first, last = plan.paragraphs[0], plan.paragraphs[-1]
    assert isinstance(first.message, IntroWithLeadAttribute)
    assert first.message.distribution.attribute == "venue_type"
    assert isinstance(last.message, AuthorList)
    assert len(last.message.authors) == 7
    _ok(3, "intro+venue first, 7-author list last, k defaults to 7")


# -- 4. oracle suite ------------------------------------------------------------------

_FAMILIES = ["ash", "birch", "cole", "dune", "elm", "fern", "gale", "hart"]
_GROUPS = ["alpha", "beta", "gamma", "delta", None]


def _random_records(rng: random.Random) -> list[ReferenceRecord]:
    size = rng.randint(1, 30)
    out = []
    for i in range(size):
        authors = tuple(
            PersonName(rng.choice(_FAMILIES).title(), rng.choice("ABCDJK"))
            for _ in range(rng.randint(0, 3)))
        out.append(ReferenceRecord(
            id=f"r{i}",
            title=rng.choice("abcdef") * rng.randint(1, 4),
            authors=authors,
            year=rng.choice([None, rng.randint(1980, 2025)]),
            venue_type=rng.choice(["proceedings", "journal", "book", "other"]),
            domain=rng.choice(["cs", "psy", None]),
            subdomain=rng.choice(_GROUPS),
            citation_count=rng.choice([None, rng.randint(0, 500)]),
            self_citation=rng.choice([True, False, None]),
        ))
    return out


def test_criterion_4_oracle_suite():
    rng = random.Random(20250808)
    started = time.perf_counter()
    trials = 0
    for _ in range(100):
        records = _random_records(rng)
        trials += 1
        for attribute in ("venue_type", "domain", "subdomain"):
            dist = categorical_distribution(records, attribute)
            assert {e.value: (e.count, e.proportion) for e in dist.entries} == \
                brute_distribution(records, attribute)
        years = [r.year for r in records if r.year is not None]
        if years:
            summary = continuous_summary(records, "year")
            assert (summary.minimum, summary.maximum) == (min(years), max(years))
            assert summary.median == statistics.median(years)
        counts = [r.citation_count for r in records if r.citation_count is not None]
        if counts:
            shape = continuous_summary(records, "citation_count")
            assert (shape.minimum, shape.maximum) == (min(counts), max(counts))
            assert shape.median == statistics.median(counts)
        assert [(a.author.normalized_key, a.score, a.paper_count)
                for a in top_authors(records, 7)] == brute_top_authors(records, 7)
        tops = top_reference_per_group(records, "subdomain")
        assert {e.group_value: e.top_reference for e in tops.entries} == \
            brute_group_tops(records, "subdomain")
        assert self_citation_share(records) == brute_self_citation_share(records)
        if len(counts) >= 2:
            result = feature_importance(records, "citation_count",
                                        ["venue_type", "domain", "subdomain"])
            brute = brute_importance(records, "citation_count",
                                     ["venue_type", "domain", "subdomain"])
            for name, score in result:
                assert abs(score - brute[name]) <= 1e-9
    elapsed = time.perf_counter() - started
    assert trials >= 100
    assert elapsed < 10.0
    _ok(4, f"{trials} random record sets matched brute force in {elapsed:.2f}s")


# -- 5. invariance suite -----------------------------------------------------------------

def test_criterion_5_invariances(fixture20_records):
    # quantifier monotonicity over the 0..1 grid at step 0.001
    ranks = ("some", "large", "most")
    previous = 0
    for i in range(1, 1001):
        rank = ranks.index(quantifier_for(i / 1000))
        assert rank >= previous
        previous = rank

    # permutation invariance over 50 shuffles
    config = default_refset_config()
    base = build_profile(CitingPaper(references=tuple(fixture20_records)), config)
    rng = random.Random(5)
    for _ in range(50):
        shuffled = list(fixture20_records)
        rng.shuffle(shuffled)
        assert build_profile(CitingPaper(references=tuple(shuffled)), config) == base

    # positive scaling leaves every ordinal output unchanged
    rng = random.Random(99)
    rows = [{"id": str(i),
             "price": rng.randint(0, 400),
             "brand": rng.choice("abc"),
             "color": rng.choice("xy"),
             "authors": (PersonName(rng.choice(_FAMILIES).title(), "A"),),
             "citation_count": rng.choice([None, rng.randint(0, 300)]),
             "subdomain": rng.choice(_GROUPS),
             "title": str(i), "year": 2000 + i % 9}
            for i in range(24)]
    base_importance = [n for n, _ in
                       feature_importance(rows, "price", ["brand", "color"])]

    def versus(prices):
        return _compare(prices[:9], prices, "price", ComparisonBands(), "", "")

    base_direction = versus([r["price"] for r in rows])
    base_authors = [a.author.normalized_key for a in top_authors(rows, 7)]
    base_tops = {e.group_value: e.top_reference
                 for e in top_reference_per_group(rows, "subdomain").entries}
    for c in (0.5, 3, 1000):
        priced = [dict(r, price=r["price"] * c) for r in rows]
        counted = [dict(r, citation_count=None if r["citation_count"] is None
                        else r["citation_count"] * c) for r in rows]
        assert [n for n, _ in
                feature_importance(priced, "price", ["brand", "color"])] == \
            base_importance
        comparison = versus([r["price"] for r in priced])
        assert (comparison.direction, comparison.magnitude) == \
            (base_direction.direction, base_direction.magnitude)
        assert [a.author.normalized_key for a in top_authors(counted, 7)] == base_authors
        assert {e.group_value: e.top_reference
                for e in top_reference_per_group(counted, "subdomain").entries} == \
            base_tops
    _ok(5, "monotone quantifiers; 50-shuffle and x0.5/x3/x1000 scaling invariance")


# -- 6. end-to-end determinism -------------------------------------------------------------

def test_criterion_6_end_to_end_determinism(capsys, data_dir):
    argv = ["summarize", str(data_dir / "fixture20.bib"),
            "--taxonomy", str(data_dir / "fixture.tax"),
            "--provider", "mock",
            "--counts", str(data_dir / "fixture20_counts.json"),
            "--paper-authors", "Alice Novak and Robert Chen"]
    golden = (data_dir / "golden" / "refset_full.txt").read_bytes()
    outputs = []
    slowest = 0.0
    for _ in range(5):
        started = time.perf_counter()
        assert main(list(argv)) == 0
        slowest = max(slowest, time.perf_counter() - started)
        outputs.append(capsys.readouterr().out.encode())
    assert all(o == outputs[0] for o in outputs)
    assert outputs[0] == golden
    assert slowest < 1.0
    _ok(6, f"5 byte-identical runs matching the golden file, worst {slowest * 1000:.0f}ms")


# -- 7. ingestion robustness ------------------------------------------------------------------

def test_criterion_7_ingestion_robustness(data_dir):
    text = (data_dir / "malformed.bib").read_text()
    entries, issues = scan_bibtex(text)
    errors = [i for i in issues if i.severity == "error"]
    assert len(errors) == 1
    assert len(entries) >= 14
    kinds = {e.entry_kind for e in entries}
    assert {"article", "inproceedings", "book", "misc"} <= kinds
    # macro use and nested braces must have survived parsing
    assert any("Journal of Machine Learning Research" in e.fields.get("journal", "")
               for e in entries)
    assert any("{" in value for e in entries for value in e.fields.values())
    reparsed = parse_bibtex(serialize_entries(entries))
    assert [(e.entry_kind, e.cite_key, e.fields) for e in reparsed] == \
        [(e.entry_kind, e.cite_key, e.fields) for e in entries]
    _ok(7, f"{len(entries)} records, exactly 1 error, round trip field-identical")


# -- 8. offline completeness ---------------------------------------------------------------------

def test_criterion_8_offline_completeness(capsys, data_dir):
    code = main(["summarize", str(data_dir / "fixture20.bib"),
                 "--taxonomy", str(data_dir / "fixture.tax"),
                 "--provider", "off",
                 "--paper-authors", "Alice Novak and Robert Chen"])
    out = capsys.readouterr().out
    assert code == 0
    paragraphs = out.strip().split("\n\n")
    assert len(paragraphs) == 5  # nothing dropped, nothing crashed
    assert GOLDEN_VENUE in paragraphs[0]
    # count-dependent paragraphs degrade without fabricating numbers
    assert "citations)" not in out
    assert "A representative publication is" in paragraphs[2]
    assert "The 7 most frequently listed authors are" in paragraphs[4]
    assert "15% are self-citations" in paragraphs[3]
    _ok(8, "offline run is complete and fabricates no counts")
