"""refsum: natural-language overviews of bibliographies and record sets.

Pipeline: parse (`bibtex`, `records`) -> enrich (`enrich`) -> statistics
(`profile`) -> document plan (`plan`) -> text (`realize`), wired together
by the `cli` module.
"""

from .bibtex import ParseIssue, RawEntry, parse_bibtex, scan_bibtex
from .config import (AttributeSpec, ComparisonBands, QuantifierThresholds,
                     SummaryConfig, default_prodset_config, default_refset_config)
from .enrich import (CitationProvider, CountCache, EnrichmentReport,
                     ScholarLookupProvider, StaticCountProvider, enrich_citation_counts)
from .errors import (BibParseError, ConfigError, EmptySetError, InputError,
                     PlanningError, ProviderError, RealizationError, RefsumError,
                     StatsError, TemplateError)
from .names import PersonName, parse_person_names
from .plan import (AuthorList, CategoricalQuant, CombinedYearSelfCite, ContinuousRange,
                   DocumentPlan, DominatingShape, FeatureWithComparison, GroupTopList,
                   IntroWithLeadAttribute, Message, Paragraph, build_plan, plan_to_text)
from .profile import (AuthorScore, CategoricalDistribution, ComparisonResult,
                      ContinuousSummary, DistributionEntry,
                      GroupTop, GroupTopEntry, SetProfile,
                      build_profile, categorical_distribution, continuous_summary,
                      feature_importance, profile_to_text, quantifier_for,
                      self_citation_share, top_authors, top_reference_per_group)
from .realize import (RealizedSummary, aggregate_list, format_number,
                      format_percentage, format_year, realize)
from .records import (CitingPaper, ReferenceRecord, TaxonomyRule, VenueTaxonomy,
                      de_latex, derive_self_citations,
                      load_record_lines, load_taxonomy, load_taxonomy_file,
                      to_reference_record)
from .templates import TemplatePack, default_pack, load_template_pack, price_pack

__version__ = "0.1.0"
