"""Citation-count enrichment: pluggable providers plus an on-disk cache.

A provider resolves (title, first-author family, year) to a count or
not-found. Lookups that fail in transport or answer in the wrong shape
degrade softly: the record keeps an absent count and the failure lands in
the report; enrichment never aborts the pipeline.

The cache is an append-only TSV, one record per line:
``key<TAB>count<TAB>timestamp`` where key hashes the lookup triple. Later
lines for the same key win, so updates are plain appends and the file stays
diff-friendly. Only the first two fields are read: a ``key<TAB>count`` line
with no timestamp is a hit as well.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack
from pathlib import Path
from typing import NamedTuple, Protocol

from .config import LOOKUP_WORKERS
from .errors import ProviderError
from .records import ReferenceRecord

CACHE_FILENAME = "citations.tsv"


def _norm(text: str) -> str:
    """Lowercase, with each whitespace run one space and none at the ends."""
    return " ".join(text.lower().split())


def lookup_key(title: str, family: str, year: int | None) -> str:
    """Stable cache key for one lookup triple."""
    import hashlib  # only a run with a cache pays for loading OpenSSL

    blob = "|".join((_norm(title), _norm(family), str(year) if year else ""))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CitationProvider(Protocol):
    """Resolves one lookup triple to a citation count.

    A provider whose ``resolve`` waits on I/O sets the class attribute
    ``blocking = True``, and enrichment spreads its lookups over a thread
    pool. A provider that declares nothing is treated as non-blocking: its
    lookups run inline, one after the other, on the calling thread.
    """

    def resolve(self, title: str, family: str, year: int | None) -> int | None:
        """Return a non-negative count, or None when the work is unknown."""
        ...


class StaticCountProvider:
    """Counts from an in-memory or JSON-file mapping of title -> count."""

    blocking = False

    def __init__(self, counts: dict[str, int]) -> None:
        self._counts = {_norm(title): count for title, count in counts.items()}

    @classmethod
    def from_file(cls, path: str | Path) -> StaticCountProvider:
        """Read a JSON object that maps each title to a non-negative int.

        Anything else raises ``ValueError``; no value is coerced.
        """
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, not {type(data).__name__}")
        for title, count in data.items():
            if type(count) is not int or count < 0:
                raise ValueError(f"count {count!r} for {title!r} is not a non-negative integer")
        return cls(data)

    def resolve(self, title: str, family: str, year: int | None) -> int | None:
        return self._counts.get(_norm(title))


class ScholarLookupProvider:
    """HTTP client for a Semantic-Scholar-compatible paper search endpoint.

    Only http and https URLs are opened. Proxies come from the environment
    (``http_proxy``, ``https_proxy``, ``no_proxy``) and https trust from the
    system's CA store.
    """

    blocking = True

    def __init__(self, base_url: str = "https://api.semanticscholar.org/graph/v1",
                 timeout: float = 10.0) -> None:
        import urllib.request as req   # only a run that looks counts up pays for it

        self._base = base_url.rstrip("/")
        self._timeout = timeout
        # build_opener() would also read file: and data: URLs. UnknownHandler
        # refuses every scheme no other handler takes; without it, open()
        # returns None for them.
        self._opener = req.OpenerDirector()
        for handler in (req.ProxyHandler(), req.UnknownHandler(), req.HTTPHandler(),
                        req.HTTPSHandler(), req.HTTPDefaultErrorHandler(),
                        req.HTTPRedirectHandler(), req.HTTPErrorProcessor()):
            self._opener.add_handler(handler)

    def resolve(self, title: str, family: str, year: int | None) -> int | None:
        from http.client import HTTPException
        from urllib.error import HTTPError
        from urllib.parse import urlencode

        query = urlencode({"query": title, "fields": "title,year,citationCount",
                           "limit": "5"})
        try:
            with self._opener.open(f"{self._base}/paper/search?{query}",
                                   timeout=self._timeout) as resp:
                payload = json.loads(resp.read())
        # OSError holds URLError, HTTPError and timeouts; BadStatusLine and the
        # other HTTPExceptions are not OSErrors.
        except (OSError, ValueError, HTTPException) as exc:
            if isinstance(exc, HTTPError):
                exc.close()   # it holds the error response open
            # A server's text may hold a newline; the failure stays one line.
            detail = " ".join(str(exc).split())
            raise ProviderError(f"lookup failed for {title!r}: {detail}") from exc
        hits = payload.get("data", []) if isinstance(payload, dict) else None
        if not isinstance(hits, list) or not all(isinstance(hit, dict) for hit in hits):
            raise ProviderError(f"lookup failed for {title!r}: malformed response")
        wanted = _norm(title)
        best = next((hit for hit in hits if _norm(str(hit.get("title", ""))) == wanted), None)
        if best is None and year is not None:
            best = next((hit for hit in hits if isinstance(hit.get("year"), int)
                         and abs(hit["year"] - year) <= 1), None)
        count = best.get("citationCount") if best is not None else None
        return count if type(count) is int and count >= 0 else None


class CountCache:
    """Append-only citation-count cache under a directory."""

    def __init__(self, directory: str | Path) -> None:
        self._path = Path(directory) / CACHE_FILENAME
        self._counts: dict[str, int] = {}
        # Bytes that are not UTF-8 only spoil their own line, which is then
        # skipped as corrupt like any other. Only a missing file (or
        # directory, made at the first append) is an empty cache: a directory
        # that is a regular file raises here, before any lookup.
        try:
            text = self._path.read_text(encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return
        for line in text.splitlines():
            parts = line.split("\t")
            if len(parts) >= 2:
                try:
                    count = int(parts[1])
                except ValueError:
                    continue  # tolerate a corrupt line
                if count >= 0:  # a negative count is corrupt too
                    self._counts[parts[0]] = count

    def get(self, key: str) -> int | None:
        return self._counts.get(key)

    def put(self, key: str, count: int) -> None:
        """Record one count and append its line to the file at once."""
        self.update({key: count})

    def update(self, counts: dict[str, int]) -> None:
        """Record counts and append their lines to the file in one write.

        The handle is unbuffered and opened for append, so the lines reach
        the file in one system call and a concurrent appender cannot split
        one of them. Only a short write (a full disk) takes a second call,
        which then raises.
        """
        if not counts:
            return
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self._counts.update(counts)
        data = "".join(f"{key}\t{count}\t{stamp}\n" for key, count in counts.items())
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with self._path.open("ab", buffering=0) as fh:
            view = memoryview(data.encode("utf-8"))
            while view:
                view = view[fh.write(view):]

    def __len__(self) -> int:
        return len(self._counts)


class EnrichmentReport(NamedTuple):
    """Hit/miss bookkeeping for one enrichment pass; ``failures`` holds
    ``(record id, message)`` pairs."""

    looked_up: int
    already_present: int
    cache_hits: int
    provider_hits: int
    not_found: int
    failures: list[tuple[str, str]]

    def summary(self) -> str:
        line = (f"citation counts: {self.looked_up} looked up, "
                f"{self.already_present} already present, {self.cache_hits} from cache, "
                f"{self.provider_hits} from provider, {self.not_found} not found")
        if self.failures:
            line += f", {len(self.failures)} failed"
        return line


def enrich_citation_counts(
    records: list[ReferenceRecord],
    provider: CitationProvider | None,
    cache: CountCache | None = None,
    *,
    max_workers: int = LOOKUP_WORKERS,
) -> tuple[list[ReferenceRecord], EnrichmentReport]:
    """Fill absent citation counts from cache first, then the provider.

    Records that already carry a count are left untouched. Output order is
    the input order regardless of lookup completion order, and the whole
    pass is idempotent once the cache is warm. Only a blocking provider's
    lookups run on a pool of up to ``max_workers`` threads. The pass's new
    counts go to the cache in one append before it returns, also when a
    lookup raises.
    """
    looked_up = already_present = cache_hits = provider_hits = not_found = 0
    failures: list[tuple[str, str]] = []
    counts: dict[int, int] = {}
    jobs: list[tuple[int, str, str | None]] = []   # (index, first-author family, key)
    for i, record in enumerate(records):
        if record.citation_count is not None:
            already_present += 1
            continue
        looked_up += 1
        family = record.authors[0].family if record.authors else ""
        key = lookup_key(record.title, family, record.year) if cache is not None else None
        cached = cache.get(key) if key is not None else None
        if cached is not None:
            cache_hits += 1
            counts[i] = cached
        elif provider is None:
            not_found += 1
        else:
            jobs.append((i, family, key))

    def fetch(job: tuple[int, str, str | None]) -> tuple[int | None, str | None]:
        i, family, _ = job
        try:
            return provider.resolve(records[i].title, family, records[i].year), None
        except ProviderError as exc:
            return None, str(exc)

    fetched: dict[str, int] = {}   # this pass's new cache lines
    try:
        with ExitStack() as stack:
            mapper = map
            if getattr(provider, "blocking", False) and max_workers > 1 and len(jobs) > 1:
                from concurrent.futures import ThreadPoolExecutor

                mapper = stack.enter_context(
                    ThreadPoolExecutor(max_workers=min(max_workers, len(jobs)))).map
            for (i, _, key), (count, error) in zip(jobs, mapper(fetch, jobs)):
                if error is not None:
                    failures.append((records[i].id, error))
                elif count is None:
                    not_found += 1
                else:
                    provider_hits += 1
                    counts[i] = count
                    if key is not None:
                        fetched[key] = count
    finally:
        # Also on an interrupt: the counts fetched so far reach the cache.
        if fetched:
            cache.update(fetched)

    enriched = list(records)
    for i, count in counts.items():
        r = records[i]
        enriched[i] = ReferenceRecord(r.id, r.title, r.authors, r.year, r.venue_name,
                                      r.venue_type, r.domain, r.subdomain, count,
                                      r.self_citation)
    return enriched, EnrichmentReport(looked_up, already_present, cache_hits, provider_hits,
                                      not_found, failures)
