"""The in-process workloads, bib-large and records-cache.

Each pass calls refsum's public functions in the order `refsum.cli` makes
them for ``summarize`` (bib-large) and ``compare`` (records-cache). Stage
spans sit at these call sites; with tracing off they are no-ops.
"""

from __future__ import annotations

import json
import resource
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from refsum import (CitingPaper, CountCache, StaticCountProvider, build_plan,
                    build_profile, default_prodset_config, default_refset_config,
                    derive_self_citations, enrich_citation_counts, load_record_lines,
                    load_taxonomy_file, parse_person_names, realize, scan_bibtex,
                    to_reference_record)
from refsum.templates import default_pack

from gen import MIN_OPS, WORKERS
from spans import NullTracer, Tracer, instrument, layer_metrics, median_layers



class CountingProvider:
    """Delegates to the mock provider and counts the calls it receives."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self.calls = 0

    def resolve(self, title, family, year):
        with self._lock:
            self.calls += 1
        return self._inner.resolve(title, family, year)


@dataclass
class Loaded:
    """What a workload loads once, before its first operation."""

    taxonomy: object
    pack: object
    provider: CountingProvider
    paper_authors: str


def load(workload: str, rundir: Path) -> Loaded:
    taxonomy = None
    if workload != "records-cache":
        taxonomy = load_taxonomy_file(rundir / "taxonomy.tax")
    meta = json.loads((rundir / "meta.json").read_text(encoding="utf-8"))
    return Loaded(taxonomy=taxonomy,
                  pack=default_pack().with_settings(show_counts="yes"),
                  provider=CountingProvider(StaticCountProvider.from_file(rundir / "counts.json")),
                  paper_authors=meta["paper_authors"])


def _summaries(citing: CitingPaper, algos, pack, tr) -> list[str]:
    texts = []
    for algo in algos:
        config = default_refset_config() if algo == "refset" else default_prodset_config()
        with tr.span(f"profile.{algo}"):
            profile = build_profile(citing, config, [])
        with tr.span("plan.build"):
            plan = build_plan(profile, config)
        with tr.span("realize.render"):
            texts.append(realize(plan, pack).full_text)
    return texts


def bib_pass(ld: Loaded, rundir: Path, tr) -> dict:
    """summarize on large.bib: scan, map, self-cite, enrich without cache, refset."""
    text = (rundir / "large.bib").read_text(encoding="utf-8")
    with tr.span("bibtex.scan"):
        entries, issues = scan_bibtex(text)
    warnings: list[str] = []
    with tr.span("records.to_record"):
        records = [to_reference_record(e, ld.taxonomy, warnings) for e in entries]
    with tr.span("names.parse"):
        citing_authors = tuple(parse_person_names(ld.paper_authors))
    with tr.span("records.self_cite"):
        records = derive_self_citations(records, citing_authors)
    before = ld.provider.calls
    with tr.span("enrich.nocache"):
        records, _report = enrich_citation_counts(records, ld.provider, None,
                                                  max_workers=WORKERS)
    citing = CitingPaper(authors=citing_authors, references=tuple(records))
    return {"texts": _summaries(citing, ("refset",), ld.pack, tr),
            "ids": [r.id for r in records],
            "issues": [[i.severity, i.cite_key, i.message] for i in issues],
            "entries": len(entries), "provider_calls": [ld.provider.calls - before]}


def records_pass(ld: Loaded, rundir: Path, tr) -> dict:
    """compare on records.jsonl, twice over one cache directory: cold, then warm."""
    cache_dir = rundir / "cache"
    texts, reports, provider_calls = [], [], []
    for half in ("cold", "warm"):
        text = (rundir / "records.jsonl").read_text(encoding="utf-8")
        with tr.span("records.load_lines"):
            records = load_record_lines(text, [])
        with tr.span("enrich.cache_open"):
            cache = CountCache(cache_dir)
        before = ld.provider.calls
        with tr.span(f"enrich.{half}"):
            records, report = enrich_citation_counts(records, ld.provider, cache,
                                                     max_workers=WORKERS)
        provider_calls.append(ld.provider.calls - before)
        reports.append(report)
        texts += _summaries(CitingPaper(references=tuple(records)),
                            ("refset", "prodset"), ld.pack, tr)
    cold, warm = reports
    return {"texts": texts, "ids": [r.id for r in records], "issues": [],
            "provider_calls": provider_calls,
            "cache_hits": cold.cache_hits + warm.cache_hits,
            "warm_hits": warm.cache_hits, "warm_lookups": warm.looked_up}


PASSES = {"bib-large": bib_pass, "records-cache": records_pass}


def _layer_metrics(tracer: Tracer, start: int, out: dict, wall: float) -> dict[str, float]:
    """One pass's per-layer figures from its spans and its outputs."""
    metrics = layer_metrics(tracer.summary(start))
    metrics["trace.op_s"] = wall
    metrics["enrich.provider_calls"] = sum(out["provider_calls"])
    metrics["bibtex.issues"] = len(out["issues"])
    if "entries" in out:
        metrics["bibtex.entries"] = out["entries"]
    if "warm_lookups" in out:
        metrics["enrich.cache_hits"] = out["cache_hits"]
        metrics["enrich.warm_hits"] = out["warm_hits"]
        metrics["enrich.warm_lookups"] = out["warm_lookups"]
        metrics["enrich.warm_hit_ratio"] = out["warm_hits"] / max(1, out["warm_lookups"])
    return metrics


def run(workload: str, rundir: Path, seconds: float, traced: bool) -> dict:
    """Whole passes until `seconds` have gone by, then the result."""
    ld = load(workload, rundir)
    one_pass = PASSES[workload]
    tracer = Tracer() if traced else None
    tr = tracer or NullTracer()
    walls, cpus, layers, first = [], [], [], None
    same, warm_calls = True, 0
    deadline = time.perf_counter() + seconds
    with instrument(tracer) if traced else nullcontext():
        while len(walls) < MIN_OPS or time.perf_counter() < deadline:
            shutil.rmtree(rundir / "cache", ignore_errors=True)
            start = len(tracer.spans) if traced else 0
            c0, t0 = time.process_time(), time.perf_counter()
            out = one_pass(ld, rundir, tr)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            walls.append(wall)
            cpus.append(cpu)
            if traced:
                layer = _layer_metrics(tracer, start, out, wall)
                if workload == "bib-large":
                    half = (rundir / "half.bib").read_text(encoding="utf-8")
                    t0 = time.perf_counter()
                    scan_bibtex(half)
                    layer["bibtex.scan_half_s"] = time.perf_counter() - t0
                layers.append(layer)
            if first is None:
                first = out
                first_pass_spans = len(tracer.spans) if traced else 0
            same = same and all(out[k] == first[k] for k in ("texts", "ids", "issues"))
            warm_calls = max(warm_calls, sum(out["provider_calls"][1:]))
    result = {"passes": len(walls), "wall_s": median(walls), "cpu_s": median(cpus),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "same": same, "warm_provider_calls": warm_calls, "first": first}
    if traced:
        medians = median_layers(layers)
        if "bibtex.scan_half_s" in medians:
            medians["bibtex.scan_growth_x2"] = (medians["bibtex.scan_s"]
                                                / medians["bibtex.scan_half_s"])
        result["layers"] = medians
        result["spans"] = tracer.spans[:first_pass_spans]
    return result
