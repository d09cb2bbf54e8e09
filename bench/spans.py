"""Spans recorded from the benchmark's own files, kept in memory.

A span is ``[name, parent index, start, end]`` in `time.perf_counter`
seconds. Stage spans come from `Tracer.span` at the benchmark's call sites;
per-record spans come from `instrument`, which wraps a few refsum functions
in their modules for the duration of a ``with`` block. Self time is a span's
duration minus that of its direct children.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from statistics import median_low
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def _open(self, name: str) -> list | None:
        if threading.get_ident() != self._main:
            return None  # worker-thread calls are timed by their caller's span
        record = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list | None) -> None:
        if record is not None:
            record[3] = perf_counter()
            self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)
        return traced

    def counter(self, fn, name: str):
        """Count calls from any thread, without a span."""
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def summary(self, start: int = 0) -> dict[str, dict[str, float]]:
        """Per span name from index `start` on: total, self time and calls."""
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        for name, parent, begin, end in spans:
            if parent >= start:
                child[parent - start] += end - begin
        out: dict[str, dict[str, float]] = {}
        for (name, _parent, begin, end), inner in zip(spans, child):
            agg = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            agg["total"] += end - begin
            agg["self"] += end - begin - inner
            agg["calls"] += 1
        return out


def layer_metrics(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time and call count per span name, as ``<name>_s`` and ``<name>_calls``."""
    metrics: dict[str, float] = {}
    for name, agg in summary.items():
        metrics[f"{name}_s"] = agg["self"]
        metrics[f"{name}_calls"] = agg["calls"]
    metrics["enrich.cache_puts"] = metrics.pop("enrich.cache_put_calls", 0)
    return metrics


def median_layers(layers: list[dict[str, float]]) -> dict[str, float]:
    """Per metric, the low median over operations: a measured value, so
    counts stay whole numbers. A metric an operation lacks counts as 0."""
    names = {name for layer in layers for name in layer}
    return {name: median_low([layer.get(name, 0) for layer in layers]) for name in names}


class NullTracer:
    """Tracing off: stage spans cost one no-op context manager each."""

    def span(self, name: str):
        return nullcontext()


@contextmanager
def instrument(tracer: Tracer, cli: bool = False):
    """Wrap refsum's per-record functions (and, with `cli`, the names that
    `refsum.cli` calls) in spans; restore the originals on exit."""
    import refsum.enrich
    import refsum.records

    patches = [
        (refsum.records, "de_latex", "records.de_latex"),
        (refsum.records, "parse_person_names", "names.parse"),
        (refsum.records.VenueTaxonomy, "classify", "records.classify"),
        (refsum.enrich, "lookup_key", "enrich.lookup_key"),
        (refsum.enrich.CountCache, "put", "enrich.cache_put"),
    ]
    if cli:
        import refsum.cli

        patches += [
            (refsum.cli, "main", "cli.main"),
            (refsum.cli, "scan_bibtex", "bibtex.scan"),
            (refsum.cli, "to_reference_record", "records.to_record"),
            (refsum.cli, "parse_person_names", "names.parse"),
            (refsum.cli, "derive_self_citations", "records.self_cite"),
            (refsum.cli, "enrich_citation_counts", "enrich.nocache"),
            (refsum.cli, "build_profile", "profile.refset"),
            (refsum.cli, "build_plan", "plan.build"),
            (refsum.cli, "realize", "realize.render"),
            (refsum.cli, "default_pack", "templates.pack"),
        ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, name in patches:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name))
    if cli:
        provider = refsum.enrich.StaticCountProvider
        saved.append((provider, "resolve", provider.resolve))
        provider.resolve = tracer.counter(provider.resolve, "enrich.provider_calls")
    try:
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
