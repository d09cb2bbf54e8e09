"""Command-line interface.

Subcommands:

* ``summarize`` -- one summary (or, via --emit, the plan or profile behind it)
* ``compare``   -- both algorithms side by side on the same input
* ``enrich``    -- warm the citation-count cache, nothing else

Exit codes: 0 success, 1 input/parse error, 2 configuration error,
3 planning/realisation error. Summaries go to stdout; warnings and
enrichment reports go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_type_hints

from .bibtex import raise_first_error, scan_bibtex
from .config import (ALGORITHMS, LOOKUP_WORKERS, ComparisonBands, QuantifierThresholds,
                     SummaryConfig, default_prodset_config, default_refset_config)
from .enrich import (CountCache, ScholarLookupProvider, StaticCountProvider,
                     enrich_citation_counts)
from .errors import (ConfigError, InputError, PlanningError, RealizationError,
                     RecordFileError, RefsumError, TemplateError)
from .names import parse_person_names
from .plan import build_plan, plan_to_text
from .profile import build_profile, profile_to_text
from .realize import realize
from .records import (CitingPaper, VenueTaxonomy, derive_self_citations,
                      load_record_lines, load_taxonomy, to_reference_record)
from .templates import TemplatePack, default_pack, load_template_pack

CACHE_DIR_ENV = "REFSUM_CACHE_DIR"
EMIT_MODES = ("summary", "plan", "profile")
PROVIDERS = ("off", "mock", "http")


class RunConfig(NamedTuple):
    """Everything one pipeline run needs, after merging flags > file > defaults."""

    input_path: str
    algo: str = "refset"
    emit: str = "summary"
    taxonomy: str | None = None
    templates: str | None = None
    provider: str = "off"
    counts: str | None = None
    cache_dir: str | None = None
    endpoint: str | None = None
    workers: int = LOOKUP_WORKERS
    k: int = SummaryConfig._field_defaults["author_k"]
    unit: str | None = None
    noun: str | None = None
    show_counts: bool | None = None
    paper_authors: str = ""
    quantifier_most: float = QuantifierThresholds._field_defaults["most"]
    quantifier_large: float = QuantifierThresholds._field_defaults["large"]
    compare_same: float = ComparisonBands._field_defaults["same"]
    compare_slight: float = ComparisonBands._field_defaults["slight"]
    author_score_mode: str = SummaryConfig._field_defaults["author_score_mode"]
    strict: bool = False


_CONFIG_KEYS = set(RunConfig._fields) - {"input_path"}
_DEFAULTS = RunConfig._field_defaults


def _accepted_types(annotation) -> tuple[type, ...]:
    """The JSON value types a field takes: its own, with int allowed for float."""
    types = get_args(annotation) or (annotation,)
    return types + (int,) if float in types else types


_CONFIG_TYPES = {key: _accepted_types(hint)
                 for key, hint in get_type_hints(RunConfig).items() if key in _CONFIG_KEYS}


def _read_text(path: str, what: str, error: type[RefsumError]) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read raises ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not valid UTF-8 (byte {exc.start})")


def _load_config_file(path: str) -> dict:
    text = _read_text(path, "config file", ConfigError)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc.msg}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"config file {path}: unknown keys {sorted(unknown)}")
    for key, value in data.items():
        if type(value) not in _CONFIG_TYPES[key]:
            expected = " or ".join("null" if t is type(None) else t.__name__
                                   for t in _CONFIG_TYPES[key])
            raise ConfigError(f"config file {path}: key {key!r} must be {expected}, "
                              f"not {type(value).__name__}")
    return data


def _merge_run_config(args: argparse.Namespace) -> RunConfig:
    run = RunConfig(args.input, **(_load_config_file(args.config) if args.config else {}))
    run = run._replace(cache_dir=os.environ.get(CACHE_DIR_ENV) or run.cache_dir)
    run = run._replace(**{key: flag for key in _CONFIG_KEYS
                          if (flag := getattr(args, key, None)) is not None})
    for what, value, choices in (("emit mode", run.emit, EMIT_MODES),
                                 ("provider", run.provider, PROVIDERS),
                                 ("algorithm", run.algo, ALGORITHMS)):
        if value not in choices:
            raise ConfigError(f"unknown {what} {value!r}")
    return run


# -- pipeline pieces ----------------------------------------------------------

def _load_records(run: RunConfig, warnings: list[str]):
    text = _read_text(run.input_path, "input", InputError)
    stripped = text.removeprefix("\ufeff").lstrip()   # as load_record_lines reads it
    if not run.input_path.endswith(".bib") and stripped.startswith("{"):
        try:
            return load_record_lines(text, warnings)
        except RecordFileError as exc:
            raise RecordFileError(f"{run.input_path}: {exc}")
    try:
        taxonomy = load_taxonomy(_read_text(run.taxonomy, "taxonomy", InputError)) \
            if run.taxonomy else VenueTaxonomy()
    except ConfigError as exc:
        raise ConfigError(f"{run.taxonomy}: {exc}")
    entries, issues = scan_bibtex(text)
    errors = [i for i in issues if i.severity == "error"]
    for issue in issues:
        warnings.append(f"{run.input_path}: {issue}")
    if run.strict:
        raise_first_error(issues)
    if not entries:
        _flush_warnings(warnings)   # the issues that explain the error
        raise InputError(f"{run.input_path}: no usable entries"
                         + (f" ({len(errors)} errors)" if errors else ""))
    return [to_reference_record(e, taxonomy, warnings) for e in entries]


def _build_provider(run: RunConfig):
    if run.provider == "off":
        return None
    if run.provider == "mock":
        if not run.counts:
            raise ConfigError("--provider mock needs --counts FILE")
        try:
            return StaticCountProvider.from_file(run.counts)
        except OSError as exc:
            raise ConfigError(f"cannot read counts file {run.counts}: {exc}")
        except ValueError as exc:
            raise ConfigError(f"counts file {run.counts} is not a title->count map: {exc}")
    kwargs = {"base_url": run.endpoint} if run.endpoint else {}
    return ScholarLookupProvider(**kwargs)


def _enrich(records: list, run: RunConfig, warnings: list[str]) -> list:
    """Fill citation counts from the configured provider and cache, if any."""
    provider = _build_provider(run)
    if provider is None and not run.cache_dir:
        return records
    try:
        cache = CountCache(run.cache_dir) if run.cache_dir else None
        records, report = enrich_citation_counts(records, provider, cache,
                                                 max_workers=run.workers)
    except OSError as exc:   # only the cache reads or writes files here
        raise ConfigError(f"cannot use cache directory {run.cache_dir}: {exc}")
    warnings.append(report.summary())
    warnings.extend(f"{rid}: {msg}" for rid, msg in report.failures)
    return records


def _assemble(run: RunConfig, warnings: list[str]) -> CitingPaper:
    records = _load_records(run, warnings)
    citing_authors = tuple(parse_person_names(run.paper_authors)) \
        if run.paper_authors else ()
    if citing_authors:
        records = derive_self_citations(records, citing_authors)
    records = _enrich(records, run, warnings)
    return CitingPaper(authors=citing_authors, references=tuple(records))


def _summary_config(run: RunConfig, algo: str) -> SummaryConfig:
    base = default_refset_config() if algo == "refset" else default_prodset_config()
    return base._replace(
        author_k=run.k,
        author_score_mode=run.author_score_mode,
        quantifier_thresholds=QuantifierThresholds(most=run.quantifier_most,
                                                   large=run.quantifier_large),
        comparison_bands=ComparisonBands(same=run.compare_same,
                                         slight=run.compare_slight),
    )


def _load_pack(run: RunConfig) -> TemplatePack:
    """The run's template pack, with the flags' or config file's settings on top."""
    try:
        pack = load_template_pack(_read_text(run.templates, "template pack", ConfigError)) \
            if run.templates else default_pack()
    except TemplateError as exc:
        raise ConfigError(f"template pack {run.templates}: {exc}")
    return pack.with_settings(
        unit=run.unit or None, noun=run.noun or None,
        show_counts=None if run.show_counts is None else str(run.show_counts))


def _emit(citing: CitingPaper, run: RunConfig, algo: str, emit: str,
          warnings: list[str], pack: Callable[[], TemplatePack]) -> str:
    """One algorithm's output; ``pack`` is called only to render summary text."""
    config = _summary_config(run, algo)
    profile = build_profile(citing, config, warnings)
    if emit == "profile":
        return profile_to_text(profile)
    plan = build_plan(profile, config)
    if emit == "plan":
        return plan_to_text(plan)
    return realize(plan, pack()).full_text


# -- subcommands ----------------------------------------------------------------

def _cmd_summarize(run: RunConfig) -> int:
    warnings: list[str] = []
    citing = _assemble(run, warnings)
    try:
        output = _emit(citing, run, run.algo, run.emit, warnings,
                       partial(_load_pack, run))
    except (PlanningError, RealizationError):
        _flush_warnings(warnings)
        raise
    _flush_warnings(warnings)
    print(output)
    return 0


def _cmd_compare(run: RunConfig) -> int:
    warnings: list[str] = []
    citing = _assemble(run, warnings)
    sections, failures = [], []
    pack = lru_cache(partial(_load_pack, run))   # read and parsed once, for both summaries
    for algo in ALGORITHMS:
        try:
            sections.append(f"[{algo}]\n{_emit(citing, run, algo, 'summary', warnings, pack)}")
        except (PlanningError, RealizationError) as exc:
            failures.append(f"refsum: {algo}: {exc}")
    _flush_warnings(warnings)
    if sections:
        print("\n\n".join(sections))
    _flush_warnings(failures)
    return 3 if failures else 0


def _cmd_enrich(run: RunConfig) -> int:
    if run.provider == "off":
        raise ConfigError("enrich needs --provider mock or http")
    if not run.cache_dir:
        raise ConfigError("enrich needs --cache-dir (or " + CACHE_DIR_ENV + ")")
    warnings: list[str] = []
    _enrich(_load_records(run, warnings), run, warnings)
    _flush_warnings(warnings)
    return 0


def _flush_warnings(warnings: list[str]) -> None:
    for line in warnings:
        print(line, file=sys.stderr)


# -- argument parsing -----------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="bibliography (.bib) or line-delimited record file")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--taxonomy", help="venue taxonomy table (tab-separated)")
    parser.add_argument("--provider", choices=PROVIDERS, default=None,
                        help=f"citation-count source (default {_DEFAULTS['provider']})")
    parser.add_argument("--counts", help="title->count JSON map for --provider mock")
    parser.add_argument("--endpoint", help="base URL for --provider http")
    parser.add_argument("--cache-dir", dest="cache_dir",
                        help=f"citation cache directory (or ${CACHE_DIR_ENV})")
    parser.add_argument("--workers", type=int, default=None,
                        help=f"max concurrent provider lookups (default {_DEFAULTS['workers']})")
    parser.add_argument("--paper-authors", dest="paper_authors", default=None,
                        help="authors of the citing paper, 'A and B' form "
                             "(enables self-citation detection)")
    parser.add_argument("--strict", action="store_true", default=None,
                        help="fail on the first bibliography syntax error")


def _add_summary_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--templates", help="template pack file")
    parser.add_argument("--k", type=int, default=None,
                        help=f"size of the author list (default {_DEFAULTS['k']})")
    parser.add_argument("--unit", default=None, help="unit symbol for comparisons")
    parser.add_argument("--noun", default=None, help="noun for the summarised items")
    parser.add_argument("--no-counts", dest="show_counts", action="store_false",
                        default=None, help="hide citation counts in the text")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refsum",
        description="Generate natural-language overviews of reference lists.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="summarise one bibliography")
    _add_common(p_sum)
    _add_summary_options(p_sum)
    p_sum.add_argument("--algo", choices=ALGORITHMS, default=None,
                       help=f"summary algorithm (default {_DEFAULTS['algo']})")
    p_sum.add_argument("--emit", choices=EMIT_MODES, default=None,
                       help=f"what to print (default {_DEFAULTS['emit']})")
    p_sum.set_defaults(func=_cmd_summarize)

    p_cmp = sub.add_parser("compare", help="both algorithms side by side")
    _add_common(p_cmp)
    _add_summary_options(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_enr = sub.add_parser("enrich", help="warm the citation-count cache")
    _add_common(p_enr)
    p_enr.set_defaults(func=_cmd_enrich)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(_merge_run_config(args))
    except ConfigError as exc:
        print(f"refsum: configuration error: {exc}", file=sys.stderr)
        return 2
    except RefsumError as exc:
        print(f"refsum: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (PlanningError, RealizationError)) else 1


if __name__ == "__main__":
    sys.exit(main())
