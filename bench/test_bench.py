"""Fast self-test of the benchmark's generators, checker and tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Runs the in-process pipelines once on tiny seeded inputs; takes a few
seconds. It is not part of the repository's test suite.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import check
import gen
import pipeline
from spans import NullTracer, Tracer

SEED = 7


@pytest.fixture
def rundir():
    path = Path(__file__).resolve().parent / "out" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny_large(seed: int = SEED) -> gen.Inputs:
    return gen.large_inputs(seed, entries=80, malformed=3)


def test_generators_are_deterministic_and_fixed_in_size():
    a, b, c = tiny_large(), tiny_large(), tiny_large(SEED + 1)
    assert a.files == b.files and a.refs == b.refs
    assert a.files["large.bib"] != c.files["large.bib"]
    assert len(a.refs) == len(c.refs) == 80
    assert len(a.broken) == len(c.broken) == 3
    assert len({r.id for r in a.refs}) == 80
    assert len({r.title.lower() for r in a.refs}) == 80
    assert not any(ch.isdigit() for r in a.refs for ch in r.title)


def test_records_counts_map_covers_every_lookup():
    inputs = gen.records_inputs(SEED, records=60)
    counts = json.loads(inputs.files["counts.json"])
    lines = [json.loads(line) for line in inputs.files["records.jsonl"].splitlines()]
    assert all("citation_count" in obj or obj["title"] in counts for obj in lines)


@pytest.mark.parametrize("seed", range(5))
def test_bib_pass_matches_ground_truth(rundir, seed):
    inputs = tiny_large(seed)
    inputs.write(rundir)
    out = pipeline.bib_pass(pipeline.load("bib-large", rundir), rundir, NullTracer())
    truth = {r.id: r for r in inputs.refs}
    assert set(out["ids"]) <= set(truth)
    assert check.check_refset(out["texts"][0], [truth[i] for i in out["ids"]]) == []
    named = {key for _severity, key, _message in out["issues"]}
    assert set(inputs.broken) <= named


@pytest.mark.parametrize("seed", range(5))
def test_records_pass_cold_equals_warm(rundir, seed):
    inputs = gen.records_inputs(seed, records=60)
    inputs.write(rundir)
    out = pipeline.records_pass(pipeline.load("records-cache", rundir), rundir, NullTracer())
    assert out["texts"][:2] == out["texts"][2:]
    assert out["provider_calls"][1] == 0
    assert out["warm_hits"] == out["warm_lookups"] > 0
    assert check.check_refset(out["texts"][0], inputs.refs) == []
    assert check.check_prodset(out["texts"][1], inputs.refs) == []


@pytest.mark.parametrize("old, new", [
    ("(", "(1"),                      # a percentage or count gains a digit
    ("Some", "Most"),                 # a quantifier word changes
    ('"', '"X'),                      # a top title changes
])
def test_checker_rejects_tampered_text(rundir, old, new):
    inputs = tiny_large()
    inputs.write(rundir)
    out = pipeline.bib_pass(pipeline.load("bib-large", rundir), rundir, NullTracer())
    truth = {r.id: r for r in inputs.refs}
    refs = [truth[i] for i in out["ids"]]
    text = out["texts"][0]
    assert old in text
    assert check.check_refset(text.replace(old, new, 1), refs) != []
    assert check.check_refset(text, refs[1:]) != []   # one reference fewer


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        tracer.wrap(lambda: None, "inner")()
    summary = tracer.summary()
    outer = tracer.spans[0][3] - tracer.spans[0][2]
    inner = sum(end - start for name, _p, start, end in tracer.spans if name == "inner")
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["self"] == pytest.approx(outer - inner)
    assert summary["outer"]["total"] == pytest.approx(outer)
