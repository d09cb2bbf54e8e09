"""Template packs: named surface templates with ``{slot}`` placeholders.

Pack files are plain text. A ``[section]`` header opens either a template
(dotted lowercase key, body lines joined into one template string), the
``[settings]`` table, or a ``[lexicon.<attribute>]`` table mapping value
tokens to display phrases; each header appears once. ``#`` starts a comment
line.

Lookup falls back through progressively less specific keys (for example
``quant.subdomain.most.first`` before ``quant.most.first``), and value
display falls back from the per-attribute lexicon to the shared
``[lexicon.values]`` table to a plain prettified token.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import RealizationError, TemplateError

_SLOT_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")
_FLAGS = {"yes": True, "true": True, "1": True, "no": False, "false": False, "0": False}


class TemplatePack(NamedTuple):
    templates: dict[str, str]
    lexicon: dict[str, dict[str, str]]
    noun: str = "items"
    unit: str = ""
    show_counts: bool = True

    def render(self, *keys: str, **slots: str) -> str:
        """Fill the first of ``keys`` the pack defines from ``slots`` and the
        pack's ``noun``, ``Noun`` and ``unit``; errors name the last key."""
        template = next((self.templates[key] for key in keys if key in self.templates), None)
        if template is None:
            raise TemplateError(f"no template for any of: {', '.join(keys)}")
        slots = {"noun": self.noun, "Noun": self.noun[:1].upper() + self.noun[1:],
                 "unit": self.unit, **slots}

        def sub(match: re.Match) -> str:
            name = match.group(1)
            if name not in slots:
                raise RealizationError(f"{keys[-1]}: unresolved placeholder '{name}'")
            return slots[name]
        return _SLOT_RE.sub(sub, template)

    def lexeme(self, attribute: str, token: str) -> str:
        by_attr = self.lexicon.get(attribute, {})
        if token in by_attr:
            return by_attr[token]
        shared = self.lexicon.get("values", {})
        if token in shared:
            return shared[token]
        return token.replace("-", " ").replace("_", " ")

    def with_settings(self, **values: str | None) -> TemplatePack:
        """A copy with the given pack-file ``[settings]`` values; None keeps one."""
        changes: dict[str, str | bool] = {}
        for key, value in values.items():
            if key not in ("noun", "unit", "show_counts"):
                raise TemplateError(f"[settings]: unknown key {key!r}")
            if value is not None and key == "show_counts":
                if value.lower() not in _FLAGS:
                    raise TemplateError(f"[settings]: show_counts must be yes, no, true, "
                                        f"false, 1 or 0, not {value!r}")
                changes[key] = _FLAGS[value.lower()]
            elif value is not None:
                changes[key] = value
        return self._replace(**changes)


def load_template_pack(text: str) -> TemplatePack:
    templates: dict[str, str] = {}
    lexicon: dict[str, dict[str, str]] = {}
    settings: dict[str, str] = {}
    section: str | None = None
    body: list[str] = []
    headers: set[str] = set()

    def close_section() -> None:
        if section is None:
            return
        if section.startswith("lexicon.") or section == "settings":
            table = settings if section == "settings" else \
                lexicon.setdefault(section[len("lexicon."):], {})
            for line in body:
                if "=" not in line:
                    raise TemplateError(f"[{section}]: expected 'token = display' lines")
                token, _, display = line.partition("=")
                table[token.strip()] = display.strip()
        else:
            if not body:
                raise TemplateError(f"[{section}]: empty template body")
            templates[section] = " ".join(body)

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            close_section()
            section = line[1:-1].strip()
            if not section:
                raise TemplateError("empty section header")
            if section in headers:
                raise TemplateError(f"[{section}]: repeated section header")
            headers.add(section)
            body = []
        elif section is None:
            raise TemplateError(f"content before the first section header: {line!r}")
        else:
            body.append(line)
    close_section()
    return TemplatePack(templates=templates, lexicon=lexicon).with_settings(**settings)


# The stock pack for bibliography summaries (citation counts dominate).
DEFAULT_PACK_TEXT = """\
[settings]
noun = references
unit =
show_counts = yes

[intro.lead]
This paper cites {total} {noun}. {lead_sentences}

[quant.most.first]
Most {noun} ({percentage}) are from {value}.

[quant.most.subsequent]
Most are from {value} ({percentage}).

[quant.large.first]
A large proportion of {noun} ({percentage}) is from {value}.

[quant.large.subsequent]
A large proportion is from {value} ({percentage}).

[quant.some.first]
Some {noun} ({percentage}) are from {value}.

[quant.some.subsequent]
Some are from {value} ({percentage}).

[quant.subdomain.most.first]
Most {noun} ({percentage}) are in {value}.

[quant.subdomain.most.subsequent]
Most are in {value} ({percentage}).

[quant.subdomain.large.first]
A large proportion of {noun} ({percentage}) is in {value}.

[quant.subdomain.large.subsequent]
A large proportion is in {value} ({percentage}).

[quant.subdomain.some.first]
Some {noun} ({percentage}) are in {value}.

[quant.subdomain.some.subsequent]
Some are in {value} ({percentage}).

[range]
The {attribute} ranges from {min} to {max}, centred on {median}.

[yearspan.full]
The {noun} were published between {min} and {max}, centred on {median}; {share} are self-citations.

[yearspan.year_only]
The {noun} were published between {min} and {max}, centred on {median}.

[yearspan.single.full]
The {noun} were all published in {year}; {share} are self-citations.

[yearspan.single.year_only]
The {noun} were all published in {year}.

[yearspan.share_only]
{share} of the {noun} are self-citations.

[grouptop.counted]
The most cited is "{title}" ({count} citations).

[grouptop.counted.one]
The most cited is "{title}" (1 citation).

[grouptop.named]
The most cited is "{title}".

[grouptop.plain]
A representative publication is "{title}".

[authors.counted]
The {k} authors with the highest citation counts are {authors}.

[authors.counted.single]
The author with the highest citation count is {authors}.

[authors.uncounted]
The {k} most frequently listed authors are {authors}.

[authors.uncounted.single]
The most frequently listed author is {authors}.

[authors.item.counted]
{name} ({score} citations)

[authors.item.counted.one]
{name} (1 citation)

[authors.item.plain]
{name}

[shape]
The {attribute} of the {total} {noun} ranges from {unit}{min} to {unit}{max}, with a median of {unit}{median}.

[shape.single]
All {total} {noun} share the same {attribute} of {unit}{value}.

[subject.default]
{Noun} from {value}

[compare.higher.slightly]
{subject} are generally slightly more cited ({unit}{sub} vs {unit}{sup}).

[compare.higher.much]
{subject} are generally much more cited ({unit}{sub} vs {unit}{sup}).

[compare.lower.slightly]
{subject} are generally slightly less cited ({unit}{sub} vs {unit}{sup}).

[compare.lower.much]
{subject} are generally much less cited ({unit}{sub} vs {unit}{sup}).

[compare.same.same]
{subject} are cited about as often as the full set ({unit}{sub} vs {unit}{sup}).

[lexicon.venue_type]
journal = journals
book = books
proceedings = proceedings
other = other sources

[lexicon.attributes]
citation_count = citation count
venue_type = venue type

[lexicon.values]
unknown = unclassified sources
"""

# A pack for priced product sets, where features are things items "have".
PRICE_PACK_TEXT = """\
[settings]
noun = products
unit = £
show_counts = yes

[intro.lead]
This set contains {total} {noun}. {lead_sentences}

[quant.most.first]
Most {noun} ({percentage}) have {value}.

[quant.most.subsequent]
Most have {value} ({percentage}).

[quant.large.first]
A large proportion of {noun} ({percentage}) have {value}.

[quant.large.subsequent]
A large proportion have {value} ({percentage}).

[quant.some.first]
Some {noun} ({percentage}) have {value}.

[quant.some.subsequent]
Some have {value} ({percentage}).

[range]
The {attribute} ranges from {min} to {max}, centred on {median}.

[shape]
The {attribute} of the {total} {noun} ranges from {unit}{min} to {unit}{max}, with a median of {unit}{median}.

[shape.single]
All {total} {noun} share the same {attribute} of {unit}{value}.

[subject.default]
{Noun} with {value}

[compare.higher.slightly]
{subject} are generally slightly more expensive ({unit}{sub} vs {unit}{sup}).

[compare.higher.much]
{subject} are generally much more expensive ({unit}{sub} vs {unit}{sup}).

[compare.lower.slightly]
{subject} are generally slightly less expensive ({unit}{sub} vs {unit}{sup}).

[compare.lower.much]
{subject} are generally much less expensive ({unit}{sub} vs {unit}{sup}).

[compare.same.same]
{subject} generally cost about the same as the full set ({unit}{sub} vs {unit}{sup}).

[lexicon.attributes]
price = price
"""


def default_pack() -> TemplatePack:
    return load_template_pack(DEFAULT_PACK_TEXT)


def price_pack() -> TemplatePack:
    return load_template_pack(PRICE_PACK_TEXT)
