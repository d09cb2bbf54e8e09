from __future__ import annotations

import io
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from refsum import (CountCache, ProviderError, ReferenceRecord,
                    ScholarLookupProvider, StaticCountProvider,
                    enrich_citation_counts, parse_person_names)
from refsum.enrich import _norm, lookup_key


def _record(rid, title, count=None):
    return ReferenceRecord(id=rid, title=title, year=2014,
                           authors=tuple(parse_person_names("John Smith")),
                           citation_count=count)


# Digests written by earlier releases: a citations.tsv keeps answering only
# while lookup_key maps each triple to the same key.
@pytest.mark.parametrize("title,family,year,digest", [
    ("Deep\tLearning\nfor  Search", "Smith", 2019,
     "179d4fae3a39e64e9da0e0592e7b152d7cc0bb2837961f86acd2102fbff4d81e"),
    ("  Padded Title  ", " van Beethoven ", None,
     "2c63d44d7e1c89efa4ae08529e842c60eae79b7a9ac228a93eb5a64a77659262"),
    ("A\x1cB\u2028C", "Ng", 2020,
     "30752967adcd6bdfaff5bb042ad49e624002b26bac38afbf30daa17e9e8a29bf"),
    ("Wide\u3000Space\xa0Title", "M\u00fcller", 0,
     "53c2d77cfe3a6b816a6aa70a56f8514dc0b2c7c830af913de5ac3ecad174cc61"),
    ("\u0130stanbul STRASSE \u03a3", "Stra\u00dfe", 1999,
     "97eabe5583ea59e270805b7121718d4d44e60d3c7c8d165069fd2eec3a9829c6"),
    ("", "", None,
     "565d240f5343e625ae579a4d45a770f1f02c6368b5ed4d06da4fbe6f47c28866"),
])
def test_lookup_key_digests_are_pinned(title, family, year, digest):
    assert lookup_key(title, family, year) == digest


@settings(max_examples=500, deadline=None)
@given(st.text())
def test_norm_matches_the_whitespace_regex(text):
    assert _norm(text) == re.sub(r"\s+", " ", text.strip().lower())


def test_static_provider_fills_counts_and_cache(tmp_path):
    cache = CountCache(tmp_path)
    provider = StaticCountProvider({"T": 17})
    records, report = enrich_citation_counts([_record("a", "T")], provider, cache)
    assert records[0].citation_count == 17
    assert report.provider_hits == 1
    assert cache.get(lookup_key("T", "Smith", 2014)) == 17


@pytest.mark.parametrize("content", [
    '{"A": -5}', '{"A": 3.7}', '{"A": true}', '{"A": "12"}', '{"A": null}', "[]", "{",
])
def test_counts_file_holding_anything_but_non_negative_ints_is_refused(tmp_path, content):
    path = tmp_path / "counts.json"
    path.write_text(content)
    with pytest.raises(ValueError):
        StaticCountProvider.from_file(path)


def test_a_counts_file_may_hold_a_zero_count(tmp_path):
    path = tmp_path / "counts.json"
    path.write_text('{"A": 0}')
    assert StaticCountProvider.from_file(path).resolve("A", "Smith", 2014) == 0


def test_cache_hit_skips_provider(tmp_path):
    cache = CountCache(tmp_path)
    cache.put(lookup_key("T", "Smith", 2014), 120)

    class Exploding:
        def resolve(self, title, family, year):
            raise AssertionError("provider must not be called on a cache hit")

    records, report = enrich_citation_counts([_record("a", "T")], Exploding(), cache)
    assert records[0].citation_count == 120
    assert report.cache_hits == 1


def test_not_found_leaves_count_absent():
    records, report = enrich_citation_counts([_record("a", "T")], StaticCountProvider({}))
    assert records[0].citation_count is None
    assert report.not_found == 1


def test_preexisting_counts_untouched():
    records, report = enrich_citation_counts([_record("a", "T", count=5)],
                                             StaticCountProvider({"T": 99}))
    assert records[0].citation_count == 5
    assert report.already_present == 1


def test_the_report_counts_each_record_once(tmp_path):
    cache = CountCache(tmp_path)
    cache.update({lookup_key("Cached", "Smith", 2014): 7})
    base = [_record("a", "Present", count=1), _record("b", "Cached"), _record("c", "Found"),
            _record("d", "Missing")]
    _, report = enrich_citation_counts(base, StaticCountProvider({"Found": 3}), cache)
    assert report == (3, 1, 1, 1, 1, [])
    _, report = enrich_citation_counts(base, None, cache)   # a cache miss is not found
    assert report == (3, 1, 2, 0, 1, [])


def test_idempotent_with_warm_cache(tmp_path):
    cache = CountCache(tmp_path)
    provider = StaticCountProvider({"A": 1, "B": 2})
    base = [_record("a", "A"), _record("b", "B"), _record("c", "C")]
    first, _ = enrich_citation_counts(base, provider, cache)
    cache_file = (tmp_path / "citations.tsv").read_text()
    second, report = enrich_citation_counts(base, provider, cache)
    assert first == second
    assert (tmp_path / "citations.tsv").read_text() == cache_file
    assert report.cache_hits == 2


def test_provider_failure_is_soft():
    class Flaky:
        def resolve(self, title, family, year):
            if title == "bad":
                raise ProviderError("boom")
            return 3

    records, report = enrich_citation_counts(
        [_record("a", "bad"), _record("b", "good")], Flaky())
    assert records[0].citation_count is None
    assert records[1].citation_count == 3
    assert report.failures == [("a", "boom")]
    assert report.summary().endswith(", 1 from provider, 0 not found, 1 failed")


def test_concurrent_lookups_preserve_input_order():
    class Slow:
        def resolve(self, title, family, year):
            # later titles answer sooner
            time.sleep(0.02 * (5 - int(title)))
            return int(title)

    base = [_record(str(i), str(i)) for i in range(5)]
    records, _ = enrich_citation_counts(base, Slow(), max_workers=5)
    assert [r.citation_count for r in records] == [0, 1, 2, 3, 4]
    assert [r.id for r in records] == [r.id for r in base]


def test_cache_survives_reload_and_corrupt_lines(tmp_path):
    cache = CountCache(tmp_path)
    cache.put("k1", 7)
    with (tmp_path / "citations.tsv").open("a") as f:
        f.write("garbage line no tabs\nk2\tnotanint\tx\n")
    reloaded = CountCache(tmp_path)
    assert reloaded.get("k1") == 7
    assert reloaded.get("k2") is None


def test_negative_cache_count_is_skipped_as_corrupt(tmp_path):
    (tmp_path / "citations.tsv").write_text("k1\t3\tx\nk1\t-5\tx\nk2\t-5\tx\n")
    cache = CountCache(tmp_path)
    assert (cache.get("k1"), cache.get("k2"), len(cache)) == (3, None, 1)


def test_a_cache_line_without_a_timestamp_is_a_hit(tmp_path):
    (tmp_path / "citations.tsv").write_text("k1\t4\nk2\t6\tx\tmore\nk3\n")
    cache = CountCache(tmp_path)
    assert (cache.get("k1"), cache.get("k2"), cache.get("k3"), len(cache)) == (4, 6, None, 2)


def test_bytes_that_are_not_utf8_spoil_only_their_own_cache_line(tmp_path):
    (tmp_path / "citations.tsv").write_bytes(b"k1\t3\tx\nk2\t\xff\tx\nk3\t5\tx\n")
    cache = CountCache(tmp_path)
    assert (cache.get("k1"), cache.get("k2"), cache.get("k3")) == (3, None, 5)


def test_concurrent_cache_writes_stay_intact(tmp_path):
    class Echo:
        def resolve(self, title, family, year):
            time.sleep(0.001)
            return int(title)

    cache = CountCache(tmp_path)
    base = [_record(str(i), str(i)) for i in range(40)]
    records, report = enrich_citation_counts(base, Echo(), cache, max_workers=8)
    assert report.provider_hits == 40
    reloaded = CountCache(tmp_path)
    assert len(reloaded) == 40
    for record in records:
        assert reloaded.get(lookup_key(record.title, "Smith", 2014)) == \
            record.citation_count
    for line in (tmp_path / "citations.tsv").read_text().splitlines():
        assert len(line.split("\t")) == 3



@pytest.mark.parametrize("n", [2, 4])
def test_blocking_provider_lookups_run_concurrently_in_input_order(n):
    class Blocking:
        blocking = True

        def __init__(self):
            self.barrier = threading.Barrier(2, timeout=5)

        def resolve(self, title, family, year):
            # each call waits for a second one: inline lookups would time out
            self.barrier.wait()
            time.sleep(0.01 * (4 - int(title)))
            return int(title)

    base = [_record(str(i), str(i)) for i in range(n)]
    records, report = enrich_citation_counts(base, Blocking(), max_workers=2)
    assert [r.citation_count for r in records] == list(range(n))
    assert [r.id for r in records] == [r.id for r in base]
    assert report.provider_hits == n


def test_in_memory_provider_starts_no_thread(tmp_path, monkeypatch):
    def no_thread(self):
        raise AssertionError("a non-blocking provider must run inline")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    provider = StaticCountProvider({"A": 1, "B": 2, "C": 3})
    base = [_record("a", "A"), _record("b", "B"), _record("c", "C")]
    records, report = enrich_citation_counts(base, provider, CountCache(tmp_path),
                                             max_workers=4)
    assert [r.citation_count for r in records] == [1, 2, 3]
    assert report.provider_hits == 3


def test_no_cache_computes_no_lookup_key(monkeypatch):
    def no_key(*args):
        raise AssertionError("lookup_key is only needed with a cache")

    monkeypatch.setattr("refsum.enrich.lookup_key", no_key)
    records, _ = enrich_citation_counts([_record("a", "A")],
                                        StaticCountProvider({"A": 4}))
    assert records[0].citation_count == 4


def test_one_cache_append_per_pass(tmp_path, monkeypatch):
    cache = CountCache(tmp_path)
    appends = []
    real_open = Path.open

    def counting_open(self, mode="r", *args, **kwargs):
        if "a" in mode:
            appends.append(self.name)
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    provider = StaticCountProvider({str(i): i for i in range(10)})
    base = [_record(str(i), str(i)) for i in range(12)]
    _, report = enrich_citation_counts(base, provider, cache)
    assert report.provider_hits == 10 and report.not_found == 2
    assert appends == ["citations.tsv"]
    lines = (tmp_path / "citations.tsv").read_text().splitlines()
    assert len(lines) == 10
    assert all(len(line.split("\t")) == 3 for line in lines)
    _, report = enrich_citation_counts(base, provider, cache)
    assert report.cache_hits == 10
    assert appends == ["citations.tsv"]   # a pass with nothing new writes nothing


def test_the_cache_appends_through_an_unbuffered_handle(tmp_path, monkeypatch):
    handles = []
    real_open = Path.open

    def recording_open(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        if "a" in mode:
            handles.append(handle)
        return handle

    monkeypatch.setattr(Path, "open", recording_open)
    CountCache(tmp_path).update({"k": 1})
    assert [type(handle) for handle in handles] == [io.FileIO]


@pytest.mark.parametrize("blocks", [False, True])
def test_interrupted_pass_keeps_the_counts_it_fetched(tmp_path, blocks):
    class Interrupted:
        blocking = blocks   # with the pool, the worker's interrupt re-raises in the caller

        def resolve(self, title, family, year):
            if title == "3":
                raise KeyboardInterrupt
            return int(title)

    base = [_record(str(i), str(i)) for i in range(6)]
    with pytest.raises(KeyboardInterrupt):
        enrich_citation_counts(base, Interrupted(), CountCache(tmp_path), max_workers=2)
    reloaded = CountCache(tmp_path)
    assert len(reloaded) == 3
    for i in range(3):
        assert reloaded.get(lookup_key(str(i), "Smith", 2014)) == i


class _FakeScholarHandler(BaseHTTPRequestHandler):
    """Answers every GET with the server's ``status`` and raw ``body``, and
    keeps each path it was asked for; a ``status`` of None sends a status
    line that is not HTTP."""

    def do_GET(self):
        server = self.server
        server.paths.append(self.path)
        if server.status is None:
            self.wfile.write(b"GARBAGE\r\n")
            return
        self.send_response(server.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(server.body)))
        self.end_headers()
        self.wfile.write(server.body)

    def log_message(self, *args):
        pass


@pytest.fixture
def fake_scholar():
    server = HTTPServer(("127.0.0.1", 0), _FakeScholarHandler)
    server.status, server.body, server.paths = 200, b"{}", []
    # a short poll keeps shutdown() from waiting half a second per test
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _provider(server):
    return ScholarLookupProvider(base_url=f"http://127.0.0.1:{server.server_address[1]}")


def _answer(server, payload):
    """A provider on ``server``, which answers with ``payload`` as JSON."""
    server.body = json.dumps(payload).encode()
    return _provider(server)


def test_http_provider_matches_by_title(fake_scholar):
    provider = _answer(fake_scholar, {"data": [
        {"title": "Other Work", "year": 2001, "citationCount": 9},
        {"title": "The T", "year": 2014, "citationCount": 42},
    ]})
    assert provider.resolve("The T", "Smith", 2014) == 42
    assert fake_scholar.paths == [
        "/paper/search?query=The+T&fields=title%2Cyear%2CcitationCount&limit=5"]


def test_http_provider_year_fallback_and_miss(fake_scholar):
    provider = _answer(fake_scholar, {"data": [
        {"title": "Close Enough Variant", "year": 2015, "citationCount": 7},
    ]})
    assert provider.resolve("Some Title", "Smith", 2014) == 7
    fake_scholar.body = b'{"data": []}'
    assert provider.resolve("Some Title", "Smith", 2014) is None


@pytest.mark.parametrize("years, expected", [
    ((2012, 2015), 15), ((2016, 2013), 13), ((2012, 2016), None), ((None, 2014), 14),
])
def test_http_provider_falls_back_to_a_hit_at_most_one_year_off(fake_scholar, years,
                                                                 expected):
    provider = _answer(fake_scholar, {"data": [
        {"title": f"Variant {i}", "year": year, "citationCount": (year or 2099) - 2000}
        for i, year in enumerate(years)]})
    assert provider.resolve("Some Title", "Smith", 2014) == expected
    assert provider.resolve("Some Title", "Smith", None) is None


def test_http_provider_transport_failure_raises_provider_error():
    provider = ScholarLookupProvider(base_url="http://127.0.0.1:1", timeout=0.2)
    with pytest.raises(ProviderError, match="^lookup failed for 'T': "):
        provider.resolve("T", "Smith", 2014)


@pytest.mark.parametrize("status, body, detail", [
    (500, b'{"data": []}', "HTTP Error 500: Internal Server Error"),
    (200, b"<html>", "Expecting value: line 1 column 1 (char 0)"),
    (None, b"", "GARBAGE"),
], ids=["status-500", "not-json", "garbage-status-line"])
def test_http_provider_failure_is_one_soft_line(fake_scholar, status, body, detail):
    fake_scholar.status, fake_scholar.body = status, body
    provider = _provider(fake_scholar)
    with pytest.raises(ProviderError) as caught:
        provider.resolve("T", "Smith", 2014)
    assert str(caught.value) == f"lookup failed for 'T': {detail}"
    records, report = enrich_citation_counts([_record("a", "T")], provider)
    assert records[0].citation_count is None
    assert report.failures == [("a", f"lookup failed for 'T': {detail}")]


def test_http_provider_opens_no_file_or_data_url(tmp_path):
    # What build_opener() would read for this lookup: a file with a count.
    found = tmp_path / "paper" / "search?query=T&fields=title,year,citationCount&limit=5"
    found.parent.mkdir()
    found.write_text('{"data": [{"title": "T", "citationCount": 3}]}')
    for base, scheme in ((tmp_path.as_uri(), "file"),
                         ('data:application/json,{"data": []}', "data")):
        with pytest.raises(ProviderError, match=f"unknown url type: {scheme}"):
            ScholarLookupProvider(base_url=base).resolve("T", "Smith", 2014)


@pytest.mark.parametrize("body", [[], "text", {"data": 5}, {"data": None}, {"data": {}},
                                  {"data": [None]}, {"data": [{"title": "T"}, "T"]}],
                         ids=["list", "string", "data-int", "data-null", "data-object",
                              "hit-null", "hit-string"])
def test_http_provider_response_of_the_wrong_shape_is_a_provider_error(fake_scholar, body):
    provider = _answer(fake_scholar, body)
    with pytest.raises(ProviderError, match="malformed response"):
        provider.resolve("T", "Smith", 2014)
    records, report = enrich_citation_counts([_record("a", "T")], provider)
    assert records[0].citation_count is None
    assert report.failures == [("a", "lookup failed for 'T': malformed response")]


@pytest.mark.parametrize("count, expected", [
    (3, 3), (0, 0), (True, None), (False, None), (-1, None), (3.0, None), ("3", None),
    (None, None),
])
def test_http_provider_accepts_only_a_non_negative_int_count(fake_scholar, count, expected):
    provider = _answer(fake_scholar,
                       {"data": [{"title": "T", "year": 2014, "citationCount": count}]})
    assert provider.resolve("T", "Smith", 2014) == expected


def test_http_provider_without_data_finds_nothing(fake_scholar):
    provider = _answer(fake_scholar, {"total": 0})
    assert provider.resolve("T", "Smith", 2014) is None
