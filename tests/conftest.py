from __future__ import annotations

import json
from pathlib import Path

import pytest

from refsum import (CitingPaper, StaticCountProvider, enrich_citation_counts,
                    derive_self_citations, load_taxonomy_file, parse_bibtex,
                    parse_person_names, to_reference_record)

DATA_DIR = Path(__file__).parent / "data"

CITING_AUTHORS = "Alice Novak and Robert Chen"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def fixture20_records():
    """The 20-reference corpus: parsed, classified, flagged, and counted."""
    entries = parse_bibtex((DATA_DIR / "fixture20.bib").read_text())
    taxonomy = load_taxonomy_file(DATA_DIR / "fixture.tax")
    records = [to_reference_record(e, taxonomy) for e in entries]
    records = derive_self_citations(records, tuple(parse_person_names(CITING_AUTHORS)))
    counts = json.loads((DATA_DIR / "fixture20_counts.json").read_text())
    records, _report = enrich_citation_counts(records, StaticCountProvider(counts))
    return records


@pytest.fixture(scope="session")
def fixture20_offline():
    """Same corpus without any citation counts (offline mode)."""
    entries = parse_bibtex((DATA_DIR / "fixture20.bib").read_text())
    taxonomy = load_taxonomy_file(DATA_DIR / "fixture.tax")
    records = [to_reference_record(e, taxonomy) for e in entries]
    return derive_self_citations(records, tuple(parse_person_names(CITING_AUTHORS)))


@pytest.fixture(scope="session")
def fixture20_paper(fixture20_records):
    return CitingPaper(authors=tuple(parse_person_names(CITING_AUTHORS)),
                       references=tuple(fixture20_records))
