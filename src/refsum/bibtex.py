"""Hand-rolled BibTeX reader and writer.

Covers the subset that reference managers actually emit: ``@kind{key, ...}``
entries with brace- or quote-delimited values, arbitrarily nested braces
inside values, bare numbers, ``@string`` macros with ``#`` concatenation,
and ``@comment``/``@preamble`` blocks. Macros are resolved at parse time
against definitions seen earlier in the same file.

Scanning is lenient: a malformed entry is reported as an issue and skipped,
so one bad entry does not take down the whole bibliography. ``parse_bibtex``
is the strict wrapper that raises on the first error.

Each scan first builds two tables over the whole text: the matching ``}`` of
every ``{`` that closes, and the position of every line-start ``@``. Where a
value or block ends, and where the scan resumes after a broken one, are then
lookups, so a value that never closes does not rescan the rest of the file.
A ``(``-delimited block ends at its first ``)`` outside brace groups.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import BibParseError

_KIND = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
# No name starts with '@', which always opens a block: a block cut off at the
# end of its line cannot read the next line's '@article' as a key or a field.
_CITE_KEY = re.compile(r"[^\s,{}()@][^\s,{}()]*")
_FIELD_NAME = re.compile(r"[^\s=,{}()\"#@][^\s=,{}()\"#]*")
_MACRO_NAME = re.compile(r"[^\s,#{}()\"@][^\s,#{}()\"]*")
_NUMBER = re.compile(r"[0-9]+")
_NON_ASCII = re.compile(r"[^\x00-\x7f]")
_WS = re.compile(r"\s*")
_BLOCK_START = re.compile(r"^[^\S\n]*@", re.M)
# What can end a group closed by ')', '}' or '"': that char, or a brace;
# ``_STOPS["}"]`` finds every brace. A quoted value also stops at a
# line-start '@' outside brace groups, which starts a new block.
_STOPS = {ch: re.compile(f"[{{}}{ch}]") for ch in ")}"}
_STOPS['"'] = re.compile(r'[{}"]|' + _BLOCK_START.pattern, re.M)

_SKIPPED_KINDS = ("comment", "preamble")


@dataclass
class ParseIssue:
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


@dataclass
class RawEntry:
    """One parsed ``@kind{key, ...}`` block with lowercased field names."""

    entry_kind: str
    cite_key: str
    fields: dict[str, str]
    offset: int = field(default=0, compare=False)


class _Unbalanced(Exception):
    def __init__(self, open_pos: int) -> None:
        self.open_pos = open_pos


class _ValueSyntax(Exception):
    def __init__(self, pos: int, message: str) -> None:
        self.pos = pos
        self.message = message


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.entries: list[RawEntry] = []
        self.issues: list[ParseIssue] = []
        self.macros: dict[str, str] = {}
        self._first_seen: dict[str, int] = {}
        # Offsets are UTF-8 byte offsets: a position plus the extra bytes of
        # the non-ASCII characters before it. ``_extra[i]`` is the sum over
        # the first ``i`` of them, so one bisect finds any position's offset.
        self._wide_pos = [m.start() for m in _NON_ASCII.finditer(text)]
        self._extra = [0, *accumulate(len(text[p].encode("utf-8")) - 1
                                      for p in self._wide_pos)]
        # Where each '{' that closes is closed, and where each line-start '@'
        # is: every "where does this end?" below is a lookup in these two.
        self._close: dict[int, int] = {}
        opened: list[int] = []
        for m in _STOPS["}"].finditer(text):
            if m.group() == "{":
                opened.append(m.start())
            elif opened:
                self._close[opened.pop()] = m.start()
        self._starts = [m.end() - 1 for m in _BLOCK_START.finditer(text)]

    # -- helpers ----------------------------------------------------------

    def _byte(self, pos: int) -> int:
        return pos + self._extra[bisect_left(self._wide_pos, pos)]

    def _issue(self, severity: str, message: str, pos: int,
               cite_key: str | None = None) -> None:
        self.issues.append(ParseIssue(severity, message, self._byte(pos), cite_key))

    def _peek(self) -> str | None:
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def _skip_ws(self) -> None:
        self.pos = _WS.match(self.text, self.pos).end()

    def _next_block(self, pos: int) -> int:
        """The first line-start ``@`` at or after ``pos``, or the end."""
        i = bisect_left(self._starts, pos)
        return self._starts[i] if i < len(self._starts) else len(self.text)

    def _block_end(self, pos: int, close_ch: str) -> int | None:
        """Just past the first ``close_ch`` at or after ``pos`` outside brace
        groups; None if an unclosed ``{``, a stray ``}`` or, for ``"``, a
        line-start ``@`` comes first."""
        stops = _STOPS[close_ch]
        while m := stops.search(self.text, pos):
            if m.group() == close_ch:
                return m.end()
            end = self._close.get(m.start())
            if end is None:  # a '{' that never closes, a stray '}' or an '@'
                return None
            pos = end + 1
        return None

    def _recover(self, close_ch: str) -> None:
        """Skip past the rest of a broken entry.

        Stops at the entry's own close, or at any line that starts a new
        ``@`` block if that comes first, so later entries survive even when
        the broken one never closes or closes too early.
        """
        end = self._block_end(self.pos, close_ch) or len(self.text)
        self.pos = min(end, self._next_block(self.pos))

    # -- value parsing ----------------------------------------------------

    def _read_braced(self) -> str:
        open_pos = self.pos
        end = self._close.get(open_pos)
        if end is None:
            raise _Unbalanced(open_pos)
        self.pos = end + 1
        return self.text[open_pos + 1:end]

    def _read_quoted(self) -> str:
        # Braces must balance inside quotes too.
        open_pos = self.pos
        end = self._block_end(open_pos + 1, '"')
        if end is None:
            raise _Unbalanced(open_pos)
        self.pos = end
        return self.text[open_pos + 1:end - 1]

    def _read_value(self, cite_key: str | None) -> str:
        parts: list[str] = []
        while True:
            self._skip_ws()
            ch = self._peek()
            if ch == "{":
                parts.append(self._read_braced())
            elif ch == '"':
                parts.append(self._read_quoted())
            elif ch is not None and ch.isdigit():
                m = _NUMBER.match(self.text, self.pos)
                assert m is not None
                parts.append(m.group(0))
                self.pos = m.end()
            else:
                m = _MACRO_NAME.match(self.text, self.pos) if ch else None
                if not m:
                    raise _ValueSyntax(self.pos, "expected a field value")
                name = m.group(0)
                self.pos = m.end()
                resolved = self.macros.get(name.lower())
                if resolved is None:
                    self._issue("warning", f"undefined macro '{name}' kept verbatim",
                                m.start(), cite_key)
                    resolved = name
                parts.append(resolved)
            self._skip_ws()
            if self._peek() == "#":
                self.pos += 1
                continue
            return "".join(parts)

    # -- block parsing ----------------------------------------------------

    def _skip_block(self, kind: str, at: int) -> None:
        ch = self._peek()
        if ch not in ("{", "("):
            # bare @comment without a group: nothing to skip
            return
        end = self._block_end(self.pos + 1, "}" if ch == "{" else ")")
        if end is None:
            self._issue("error", f"unbalanced braces in @{kind} block", at)
            end = self._next_block(self.pos)
        self.pos = end

    def _read_macro_def(self, at: int) -> None:
        ch = self._peek()
        if ch not in ("{", "("):
            self._issue("error", "expected '{' after @string", self.pos)
            return
        close_ch = "}" if ch == "{" else ")"
        self.pos += 1
        self._skip_ws()
        m = _FIELD_NAME.match(self.text, self.pos)
        if not m:
            self._issue("error", "missing macro name in @string block", self.pos)
            self._recover(close_ch)
            return
        name = m.group(0).lower()
        self.pos = m.end()
        self._skip_ws()
        if self._peek() != "=":
            self._issue("error", f"expected '=' in @string definition of '{name}'", self.pos)
            self._recover(close_ch)
            return
        self.pos += 1
        try:
            value = self._read_value(None)
        except _Unbalanced as exc:
            self._issue("error", f"unbalanced braces in @string '{name}'", exc.open_pos)
            self.pos = self._next_block(exc.open_pos)
            return
        except _ValueSyntax as exc:
            self._issue("error", exc.message + f" in @string '{name}'", exc.pos)
            self._recover(close_ch)
            return
        self._skip_ws()
        if self._peek() == close_ch:
            self.pos += 1
        self.macros[name] = value

    def _read_entry(self, kind: str, at: int) -> None:
        ch = self._peek()
        if ch not in ("{", "("):
            self._issue("error", f"expected '{{' after '@{kind}'", self.pos)
            return
        close_ch = "}" if ch == "{" else ")"
        self.pos += 1
        self._skip_ws()
        m = _CITE_KEY.match(self.text, self.pos)
        if not m:
            self._issue("error", f"missing cite key in '@{kind}' entry", self.pos)
            self._recover(close_ch)
            return
        cite_key = m.group(0)
        self.pos = m.end()
        self._skip_ws()
        fields: dict[str, str] = {}
        ch = self._peek()
        if ch == ",":
            self.pos += 1
            if not self._read_fields(cite_key, close_ch, fields, at):
                return
        elif ch == close_ch:
            self.pos += 1
        else:
            self._issue("error", f"expected ',' after cite key '{cite_key}'",
                        self.pos, cite_key)
            self._recover(close_ch)
            return
        if cite_key in self._first_seen:
            first = self._byte(self._first_seen[cite_key])
            self._issue("error",
                        f"duplicate cite key '{cite_key}' "
                        f"(first at byte {first}, again at byte {self._byte(at)})",
                        at, cite_key)
            return
        self._first_seen[cite_key] = at
        self.entries.append(RawEntry(kind, cite_key, fields, offset=self._byte(at)))

    def _read_fields(self, cite_key: str, close_ch: str,
                     fields: dict[str, str], at: int) -> bool:
        while True:
            self._skip_ws()
            ch = self._peek()
            if ch is None:
                self._issue("error",
                            f"unterminated entry '{cite_key}' (missing '{close_ch}')",
                            at, cite_key)
                return False
            if ch == close_ch:
                self.pos += 1
                return True
            m = _FIELD_NAME.match(self.text, self.pos)
            if not m:
                self._issue("error", f"expected a field name in entry '{cite_key}'",
                            self.pos, cite_key)
                self._recover(close_ch)
                return False
            name = m.group(0).lower()
            self.pos = m.end()
            self._skip_ws()
            if self._peek() != "=":
                self._issue("error",
                            f"expected '=' after field name '{name}' in entry '{cite_key}'",
                            self.pos, cite_key)
                self._recover(close_ch)
                return False
            self.pos += 1
            name_pos = m.start()
            try:
                value = self._read_value(cite_key)
            except _Unbalanced as exc:
                self._issue("error", f"unbalanced braces in entry '{cite_key}'",
                            exc.open_pos, cite_key)
                self.pos = self._next_block(exc.open_pos)
                return False
            except _ValueSyntax as exc:
                self._issue("error", exc.message + f" in entry '{cite_key}'",
                            exc.pos, cite_key)
                self._recover(close_ch)
                return False
            if name in fields:
                self._issue("warning",
                            f"duplicate field '{name}' in entry '{cite_key}' "
                            "overwrites the earlier value", name_pos, cite_key)
            fields[name] = value
            self._skip_ws()
            ch = self._peek()
            if ch == ",":
                self.pos += 1
            elif ch == close_ch or ch is None:
                continue
            else:
                self._issue("error",
                            f"expected ',' or '{close_ch}' after field '{name}' "
                            f"in entry '{cite_key}'", self.pos, cite_key)
                self._recover(close_ch)
                return False

    def scan(self) -> tuple[list[RawEntry], list[ParseIssue]]:
        while True:
            at = self.text.find("@", self.pos)
            if at == -1:
                break
            self.pos = at + 1
            m = _KIND.match(self.text, self.pos)
            if not m:
                continue  # stray @ in free text between entries
            kind = m.group(0).lower()
            self.pos = m.end()
            self._skip_ws()
            if kind in _SKIPPED_KINDS:
                self._skip_block(kind, at)
            elif kind == "string":
                self._read_macro_def(at)
            else:
                self._read_entry(kind, at)
        return self.entries, self.issues


def scan_bibtex(text: str) -> tuple[list[RawEntry], list[ParseIssue]]:
    """Lenient scan: returns all well-formed entries plus a list of issues."""
    return _Scanner(text).scan()


def parse_bibtex(text: str) -> list[RawEntry]:
    """Strict parse: raises :class:`BibParseError` on the first error."""
    entries, issues = scan_bibtex(text)
    for issue in issues:
        if issue.severity == "error":
            raise BibParseError(str(issue), offset=issue.offset, cite_key=issue.cite_key)
    return entries


def serialize_entries(entries: list[RawEntry]) -> str:
    """Write entries back out as BibTeX; inverse of parsing up to layout."""
    blocks = []
    for entry in entries:
        lines = [f"@{entry.entry_kind}{{{entry.cite_key},"]
        for name, value in entry.fields.items():
            lines.append(f"  {name} = {{{value}}},")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
