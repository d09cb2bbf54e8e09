"""Hand-rolled BibTeX reader.

Covers the subset that reference managers actually emit: ``@kind{key, ...}``
entries with brace- or quote-delimited values, arbitrarily nested braces
inside values, bare numbers, ``@string`` macros with ``#`` concatenation,
and ``@comment``/``@preamble`` blocks. Macros are resolved at parse time
against definitions seen earlier in the same file.

Scanning is lenient: a malformed entry is reported as an issue and skipped,
so one bad entry does not take down the whole bibliography. ``parse_bibtex``
is the strict wrapper that raises on the first error.

Where a ``{`` closes is found when asked: a group nested at most two deep in
one regex match, any other by a stack walk that keeps every pair it passes.
A walk that reaches the end marks all braces from its start as never closing,
so a value that never closes does not rescan the rest of the file. The next
line-start ``@``, where the scan resumes after a fault, is searched for then.
A ``(``-delimited block ends at its first ``)`` outside brace groups.

Each field of an entry starts with one match of ``_FIELD_HEAD``: the field
name with the whitespace before it, and the ``=`` with the whitespace around
it. Where that pattern does not match, the entry either closes there
or breaks there; a step-by-step read after the field loop tells which, and
raises the fault with its message and offset.

A syntax error that ends a block is raised once, as ``_Fault``, by the site
that finds it; that site also says where scanning resumes. ``_Scanner.scan``
is the one place that records such an error and resumes. The two warnings
(an undefined macro, a duplicate field) end nothing and are recorded where
they are found.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import BibParseError

_KIND = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
# No name starts with '@', which always opens a block: a block cut off at the
# end of its line cannot read the next line's '@article' as a key or a field.
_CITE_KEY = re.compile(r"[^\s,{}()@][^\s,{}()]*")
_FIELD_NAME = re.compile(r"[^\s=,{}()\"#@][^\s=,{}()\"#]*")
# A field name with its '=' and the whitespace around both, in one match.
_FIELD_HEAD = re.compile(r"\s*(" + _FIELD_NAME.pattern + r")\s*=\s*")
_MACRO_NAME = re.compile(r"[^\s,#{}()\"@][^\s,#{}()\"]*")
_NUMBER = re.compile(r"[0-9]+")
# A brace group nested at most two deep, as most values are: its close in
# one match, with no stack walk.
_GROUP = re.compile(r"\{[^{}]*(?:\{[^{}]*\}[^{}]*)*\}")
_WS = re.compile(r"\s*")
_BLOCK_START = re.compile(r"^[^\S\n]*@", re.M)
# What can end a group closed by ')', '}' or '"': that char, or a brace;
# ``_STOPS["}"]`` finds every brace. A quoted value also stops at a
# line-start '@' outside brace groups, which starts a new block.
_STOPS = {ch: re.compile(f"[{{}}{ch}]") for ch in ")}"}
_STOPS['"'] = re.compile(r'[{}"]|' + _BLOCK_START.pattern, re.M)

_SKIPPED_KINDS = ("comment", "preamble")


class ParseIssue(NamedTuple):
    """One problem found while scanning; ``severity`` is error or warning."""

    severity: str
    message: str
    offset: int
    cite_key: str | None = None

    def __str__(self) -> str:
        where = f"byte {self.offset}"
        if self.cite_key:
            where += f", entry '{self.cite_key}'"
        return f"{self.severity} ({where}): {self.message}"


class RawEntry(NamedTuple):
    """One parsed ``@kind{key, ...}`` block with lowercased field names."""

    entry_kind: str
    cite_key: str
    fields: dict[str, str]
    offset: int


class _Fault(Exception):
    """A syntax error that ends the block being read. ``scan`` records it at
    ``pos`` and resumes at ``resume``, which the raising site works out."""

    def __init__(self, message: str, pos: int, resume: int,
                 cite_key: str | None = None) -> None:
        self.message, self.pos, self.resume, self.cite_key = message, pos, resume, cite_key


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.entries: list[RawEntry] = []
        self.issues: list[ParseIssue] = []
        self.macros: dict[str, str] = {}
        self._first_seen: dict[str, int] = {}   # cite key -> its first byte offset
        # Offsets are UTF-8 byte offsets, counted from the '@' of the block
        # being read, which no position asked for precedes: (position, offset).
        self._cursor = (0, 0)
        # The close of each '{' a stack walk passed; every '{' at or after
        # ``_settled`` that is not in it never closes.
        self._close: dict[int, int] = {}
        self._settled = len(text)
        self._found = (0, -1)   # (from, to): no line-start '@' from ``from`` before ``to``

    # -- helpers ----------------------------------------------------------

    def _byte(self, pos: int) -> int:
        at, offset = self._cursor
        return offset + len(self.text[at:pos].encode("utf-8"))

    def _issue(self, severity: str, message: str, pos: int,
               cite_key: str | None = None) -> None:
        self.issues.append(ParseIssue(severity, message, self._byte(pos), cite_key))

    def _skip_ws(self) -> None:
        self.pos = _WS.match(self.text, self.pos).end()

    def _next_block(self, pos: int) -> int:
        """The first line-start ``@`` at or after ``pos``, or the end; a kept
        answer serves every ``pos`` it covers. Looks back only over the
        whitespace just before ``pos`` on its line."""
        if not self._found[0] <= pos <= self._found[1]:
            text, line = self.text, pos
            while line and text[line - 1] != "\n" and text[line - 1].isspace():
                line -= 1
            m = _BLOCK_START.search(text, line)
            self._found = (pos, m.end() - 1 if m else len(text))
        return self._found[1]

    def _close_of(self, start: int) -> int | None:
        """Where the ``{`` at ``start`` closes, or None if it never does."""
        end = self._close.get(start)
        if end is not None or start >= self._settled:
            return end
        if m := _GROUP.match(self.text, start):
            return m.end() - 1
        opened: list[int] = []
        for m in _STOPS["}"].finditer(self.text, start):
            if m.group() == "}":
                end = self._close[opened.pop()] = m.start()
                if not opened:
                    return end
            elif m.start() >= self._settled:
                break   # that '{' never closes, so neither do those below it
            else:
                opened.append(m.start())
        self._settled = start
        return None

    def _block_end(self, pos: int, close_ch: str, stop: int) -> int | None:
        """Just past the first ``close_ch`` at or after ``pos`` outside brace
        groups and before ``stop``; None if there is none, or if an unclosed
        ``{``, a stray ``}`` or, for ``"``, a line-start ``@`` comes first."""
        stops = _STOPS[close_ch]
        while m := stops.search(self.text, pos, stop):
            if m.group() == close_ch:
                return m.end()
            # a stray '}', an '@' or a '{' that never closes
            if m.group() != "{" or (end := self._close_of(m.start())) is None:
                return None
            pos = end + 1
        return None

    def _rest(self, close_ch: str) -> int:
        """Where a block broken at ``pos`` ends: at its own close, or at the
        next line-start ``@`` if that comes first, so later entries survive
        even when the broken one never closes or closes too early."""
        stop = self._next_block(self.pos)
        return self._block_end(self.pos, close_ch, stop) or stop

    # -- value parsing ----------------------------------------------------

    def _read_value(self, where: str, cite_key: str | None, close_ch: str) -> str:
        """One value, ``#`` concatenations included, of the field or macro
        that ``where`` names (``entry 'k'`` or ``@string 'n'``). Starts at the
        value's first character and leaves ``pos`` past the whitespace after
        it. Runs once per value, so it matches ``_WS`` directly rather than
        through ``_skip_ws``."""
        text = self.text
        parts: list[str] = []
        while True:
            start = self.pos
            ch = text[start:start + 1]   # "" at the end of the text
            if ch == "{":
                end = self._close_of(start)
                if end is None:
                    raise _Fault(f"unbalanced braces in {where}", start,
                                 self._next_block(start), cite_key)
                parts.append(text[start + 1:end])
                self.pos = end + 1
            elif ch == '"':
                # Braces must balance inside quotes too.
                end = self._block_end(start + 1, '"', len(text))
                if end is None:
                    resume = self._next_block(start)
                    braces = _STOPS["}"].search(text, start, resume)
                    problem = "unbalanced braces" if braces else "unterminated quoted value"
                    raise _Fault(f"{problem} in {where}", start, resume, cite_key)
                parts.append(text[start + 1:end - 1])
                self.pos = end
            elif m := _NUMBER.match(text, start):
                parts.append(m.group(0))
                self.pos = m.end()
            else:
                m = _MACRO_NAME.match(text, start)
                if not m:
                    raise _Fault(f"expected a field value in {where}", start,
                                 self._rest(close_ch), cite_key)
                name = m.group(0)
                self.pos = m.end()
                resolved = self.macros.get(name.lower())
                if resolved is None:
                    self._issue("warning", f"undefined macro '{name}' kept verbatim",
                                start, cite_key)
                    resolved = name
                parts.append(resolved)
            self.pos = _WS.match(text, self.pos).end()
            if not text.startswith("#", self.pos):
                return "".join(parts)
            self.pos = _WS.match(text, self.pos + 1).end()

    # -- block parsing ----------------------------------------------------

    def _skip_block(self, kind: str, at: int) -> None:
        ch = self.text[self.pos:self.pos + 1]
        if ch not in ("{", "("):
            # bare @comment without a group: nothing to skip
            return
        end = self._block_end(self.pos + 1, "}" if ch == "{" else ")", len(self.text))
        if end is None:
            raise _Fault(f"unbalanced braces in @{kind} block", at, self._next_block(self.pos))
        self.pos = end

    def _open_block(self, what: str) -> str:
        """Step into the block after ``what``; return the char that closes it."""
        ch = self.text[self.pos:self.pos + 1]
        if ch not in ("{", "("):
            raise _Fault(f"expected '{{' after {what}", self.pos, self.pos)
        self.pos += 1
        self._skip_ws()
        return "}" if ch == "{" else ")"

    def _read_macro_def(self) -> None:
        close_ch = self._open_block("@string")
        m = _FIELD_NAME.match(self.text, self.pos)
        if not m:
            raise _Fault("missing macro name in @string block", self.pos, self._rest(close_ch))
        name = m.group(0).lower()
        self.pos = m.end()
        self._skip_ws()
        if self.text[self.pos:self.pos + 1] != "=":
            raise _Fault(f"expected '=' in @string definition of '{name}'", self.pos,
                         self._rest(close_ch))
        self.pos += 1
        self._skip_ws()
        value = self._read_value(f"@string '{name}'", None, close_ch)
        self._skip_ws()
        if self.text[self.pos:self.pos + 1] != close_ch:
            raise _Fault(f"expected '{close_ch}' after @string '{name}'", self.pos,
                         self._rest(close_ch))
        self.pos += 1
        self.macros[name] = value

    def _read_entry(self, kind: str, at: int) -> None:
        close_ch = self._open_block(f"'@{kind}'")
        m = _CITE_KEY.match(self.text, self.pos)
        if not m:
            raise _Fault(f"missing cite key in '@{kind}' entry", self.pos, self._rest(close_ch))
        cite_key = m.group(0)
        self.pos = m.end()
        fields = self._read_fields(cite_key, close_ch, at)
        offset = self._byte(at)
        if cite_key in self._first_seen:
            raise _Fault(f"duplicate cite key '{cite_key}' (first at byte "
                         f"{self._first_seen[cite_key]}, again at byte {offset})",
                         at, self.pos, cite_key)
        self._first_seen[cite_key] = offset
        self.entries.append(RawEntry(kind, cite_key, fields, offset))

    def _read_fields(self, cite_key: str, close_ch: str, at: int) -> dict[str, str]:
        """The fields after the cite key, through the entry's close."""
        self._skip_ws()
        ch = self.text[self.pos:self.pos + 1]
        if ch == ",":
            self.pos += 1
        elif ch != close_ch:
            raise _Fault(f"expected ',' after cite key '{cite_key}'", self.pos,
                         self._rest(close_ch), cite_key)
        where = f"entry '{cite_key}'"
        fields: dict[str, str] = {}
        while head := _FIELD_HEAD.match(self.text, self.pos):
            name = head.group(1).lower()
            self.pos = head.end()
            value = self._read_value(where, cite_key, close_ch)
            if name in fields:
                self._issue("warning", f"duplicate field '{name}' in {where} "
                            "overwrites the earlier value", head.start(1), cite_key)
            fields[name] = value
            ch = self.text[self.pos:self.pos + 1]
            if ch == ",":
                self.pos += 1
            elif ch != close_ch and ch:
                raise _Fault(f"expected ',' or '{close_ch}' after field '{name}' in {where}",
                             self.pos, self._rest(close_ch), cite_key)
        # No field head here: the entry closes, or this is where it breaks.
        self._skip_ws()
        ch = self.text[self.pos:self.pos + 1]
        if ch == close_ch:
            self.pos += 1
            return fields
        if not ch:
            raise _Fault(f"unterminated entry '{cite_key}' (missing '{close_ch}')",
                         at, self.pos, cite_key)
        m = _FIELD_NAME.match(self.text, self.pos)
        if not m:
            raise _Fault(f"expected a field name in {where}", self.pos,
                         self._rest(close_ch), cite_key)
        self.pos = m.end()
        self._skip_ws()
        raise _Fault(f"expected '=' after field name '{m.group(0).lower()}' in {where}",
                     self.pos, self._rest(close_ch), cite_key)

    def scan(self) -> tuple[list[RawEntry], list[ParseIssue]]:
        while (at := self.text.find("@", self.pos)) != -1:
            self.pos = at + 1
            m = _KIND.match(self.text, self.pos)
            if not m:
                continue  # stray @ in free text between entries
            kind = m.group(0).lower()
            self.pos = m.end()
            self._skip_ws()
            self._cursor = (at, self._byte(at))
            try:
                if kind in _SKIPPED_KINDS:
                    self._skip_block(kind, at)
                elif kind == "string":
                    self._read_macro_def()
                else:
                    self._read_entry(kind, at)
            except _Fault as fault:
                self._issue("error", fault.message, fault.pos, fault.cite_key)
                self.pos = fault.resume
        return self.entries, self.issues


def scan_bibtex(text: str) -> tuple[list[RawEntry], list[ParseIssue]]:
    """Lenient scan: returns all well-formed entries plus a list of issues."""
    return _Scanner(text).scan()


def raise_first_error(issues: list[ParseIssue]) -> None:
    """Raise the first error among ``issues`` as a :class:`BibParseError`."""
    for issue in issues:
        if issue.severity == "error":
            raise BibParseError(str(issue), offset=issue.offset, cite_key=issue.cite_key)


def parse_bibtex(text: str) -> list[RawEntry]:
    """Strict parse: raises :class:`BibParseError` on the first error."""
    entries, issues = scan_bibtex(text)
    raise_first_error(issues)
    return entries
