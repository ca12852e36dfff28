"""Reader and writer for the message-structure textual notation.

``parse`` turns UTF-8 text into a :class:`~msgstruct.core.MessageStructure`
with source spans attached, accepting the sugared surface forms (omitted
complex-substructure names, implicit aggregations inside iterations and
specialisation variants) plus per-field property annotations in parentheses:

    Quantity (op=i; domain=number; example="35")

It reads the vertical tabular layout too, a file that starts with a
``FIELD<TAB>OP<TAB>DOMAIN<TAB>EXAMPLE VALUE`` header row, in place: the
cells after a row's first tab are values of the field before it, and their
spans lie inside the cells.

``to_text`` renders a structure back to text, either as a one-line compact
form or as the vertical tabular layout with OP / DOMAIN / EXAMPLE columns.
Both renderings re-parse to an equivalent structure with identical field
properties.

The parser only locates property values. The rules on them live in the
``core`` constructors, whose ``ValueError`` becomes a P005 or P006
diagnostic at the value's span.

Errors are raised as :class:`ParseError` carrying diagnostics:

    P001  unbalanced bracket
    P002  ``name =`` not followed by ``<``, ``{``, or ``[``
    P003  empty substructure list
    P004  specialisation at initial-substructure position
    P005  malformed property annotation, or a formula nested past 64 levels
    P006  unknown acquisition-operation letter
    P007  unexpected character or token
    P008  nesting too deep: more than ``MAX_NESTING`` (300) levels of brackets
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cache, partial
from itertools import accumulate
from typing import TYPE_CHECKING, NoReturn

from .core import (
    Acquisition,
    Aggregation,
    BASIC_DOMAIN_KINDS,
    EMPTY_PROPERTIES,
    Field,
    FieldProperties,
    Iteration,
    MessageStructure,
    Specialisation,
    Substructure,
    _domain_from_text,
    _escape,
    _fold,
    _lone_aggregation,
    _name,
    _parse_bool,
    _single_spaced,
    _traverse,
    _unescape,
    parse_formula,
)
from .diagnostics import Diagnostic, Severity, SourceSpan, _replace

if TYPE_CHECKING:
    from pathlib import Path

__all__ = ["parse", "parse_formula", "to_text", "structure_to_json_obj", "ParseError", "MAX_NESTING"]

# The deepest nesting of '<', '{' and '[' that ``parse`` accepts. The reader
# recurses twice per level and would overflow the interpreter's default
# 1000-frame stack at about 495 levels; the limit leaves room for callers.
MAX_NESTING = 300


class ParseError(Exception):
    """Raised when the input cannot be parsed; carries the diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(d.message for d in diagnostics))
        self.diagnostics = diagnostics


def _error(code: str, message: str, span: SourceSpan) -> ParseError:
    return ParseError([Diagnostic(Severity.ERROR, code, message, span)])


@cache
def _pattern(name: str, tabular: bool) -> re.Pattern:
    """The pattern ``name`` of one layout, compiled on first use, so that a
    call pays only for the patterns it reads: "token", the fast path's
    "field", the slow path's annotation "entry" and, for the tabular
    layout's extras cell, its "annotation"."""
    return re.compile(_sources(tabular)[name])


def _sources(tabular: bool) -> dict[str, str]:
    """The text of the token and annotation-entry patterns of one layout,
    and of the fast path's field pattern and annotation pattern.

    Blank space and '#' comments come before every token. A comment runs to
    the end of its line; the lookahead keeps a backtracking match from
    ending it early. In the compact layout a tab is blank space. In the
    tabular layout a tab ends the structure cell, so no name, blank run,
    quoted value or bare value crosses it; only the blanks that lead a
    comment line may hold tabs."""
    if tabular:
        blank, gap, stop, escaped = r"(?:(?<![^\n])[ \t]+(?=#)|[ \n])", " +", r"\t", r"[^\t]"
    else:
        blank, gap, stop, escaped = r"[ \t\n]", r"[ \t]+", "", r"[\s\S]"
    ws = rf"{blank}*(?:#[^\n]*(?=\n|\Z){blank}*)*"
    # One token: a name, or a single other character ("" at the end).
    token = rf"{ws}(?:(?P<name>{_name(gap)})|(?P<ch>.?))"
    # One entry, ``key = value`` and the ';' or ')' after it. Every part may
    # be empty, so the match always succeeds; the first part found empty is
    # the one missing, and where it starts is where the error is.
    entry = (
        rf"{ws}(?P<key>[a-z]*){ws}(?P<eq>=?){ws}"
        rf'(?:(?P<quote>")(?P<text>(?:[^"\\\n{stop}]|\\{escaped}?)*)(?P<close>"?)|(?P<bare>[^;)\n{stop}]*))'
        rf"{ws}(?P<sep>[;)]?)"
    )
    # The fast path takes a well-formed annotation in one match: no comment,
    # each key at most once and in the order ``to_text`` writes them, op,
    # domain, required and visible bare and the other values quoted with no
    # '\\' in them. A value group holds the value as the entry loop reads it.
    # In the tabular layout the annotation lies in one cell.
    b = "[ ]" if tabular else r"[ \t\n]"
    value = {
        "op": "[igd]",
        "domain": rf"[^;)\s\"#](?:[^;)\n{stop}]*[^;)\s])?",
        "required": "true|false",
        "visible": "true|false",
    }
    entries = "".join(
        rf"(?:{key}{b}*={b}*" + (f"(?P<{key}>{value[key]})" if key in value else rf'"(?P<{key}>[^"\\\n{stop}]*)"')
        + rf"{b}*(?:;{b}*|(?=\))))?"
        for key in _FAST_KEYS
    )
    annotation = rf"\({b}*(?!\)){entries}\)"
    if tabular:
        # A field's row: a '+' if any, then any other separators and closers
        # (``tail``), the tab that ends the structure cell, and the cells:
        # OP, DOMAIN and the extra properties stripped, EXAMPLE VALUE
        # verbatim with no '"' or '\\', and no fifth cell. Then the token
        # after the row.
        cell = r" *(?P<{}>[^\s](?:[^\t\n]*[^\s])?)? *"
        field = (
            r" *(?:(?P<plus>\+) *)?(?P<tail>[+|>}\]][ +|>}\]]*)?\t *(?P<op>[igd])? *(?:\t" + cell.format("domain")
            + r'(?:\t(?P<example>[^\t\n"\\]*)(?:\t' + cell.format("extras")
            + rf")?)?)?(?=\n|\Z){token}"
        )
    else:
        # A field's annotation if any, a '+' if any, and the token after.
        field = rf"(?:{b}*(?P<annotation>{annotation}))?(?:{ws}(?P<plus>\+))?{token}"
    return {"token": token, "entry": entry, "field": field, "annotation": annotation}


# The property keys, named as ``_properties`` takes them, in the order
# ``FieldProperties.to_mapping`` gives them.
_FAST_KEYS = ("op", "domain", "example", "desc", "label", "link", "required", "init", "visible", "formula")
_ABSENT = (None,) * (len(_FAST_KEYS) - 3)  # no property after op, domain and example
# What may stand between a tabular field's name and the tab that ends its
# structure cell: blanks, separators and closers.
_OWNER_RE = re.compile(r"[ +|>}\]]*\t")
# An EXAMPLE VALUE cell: any text, with '"' and '\\' escaped.
_EXAMPLE_RE = re.compile(r'(?:[^"\\]|\\.)*')

_OPENERS = "<{["
_CLOSERS = ">}]"
_MATCHING = {"<": ">", "{": "}", "[": "]"}
_BRACKETS = {Aggregation: "<>", Iteration: "{}", Specialisation: "[]"}

_TAB_HEADER = ("FIELD", "OP", "DOMAIN", "EXAMPLE VALUE")

# The entries of an annotation or a row's cells: key -> (value, offsets of its text).
_Entries = dict[str, tuple[str, int, int]]


def parse(text: str) -> MessageStructure:
    """Parse one message structure from text (compact or tabular layout)."""
    return _parse(text, None)


def _parse(text: str, names: dict[str, str] | None) -> MessageStructure:
    """``parse``; given ``names``, each name read is looked up there and its
    first string kept, so the structures parsed with one table share one
    string per name (``load_events_manifest``). ``parse`` gives none: the
    names of one structure seldom repeat, and the lookups cost ~2% of it."""
    text = text.lstrip("﻿").replace("\r\n", "\n").replace("\r", "\n")
    return _Parser(text, names).parse_structure()


def _kept(keep, raw: str) -> str:
    """The name ``raw`` spells, as ``keep`` (a table's ``setdefault``) keeps it."""
    name = _single_spaced(raw)
    return keep(name, name)


def _read_source(path: str | Path) -> str:
    """The text of a ``.ms`` file: its bytes after a leading UTF-8 byte-order
    mark, decoded as UTF-8. ``parse`` reads every newline convention, so
    the text is not translated, and the ``utf-8-sig`` codec is not loaded.
    A ``UnicodeDecodeError`` gives positions after the mark, as that codec did."""
    with open(path, "rb") as f:
        data = f.read()
    return (data[3:] if data[:3] == b"\xef\xbb\xbf" else data).decode("utf-8")


# ---------------------------------------------------------------------------
# Scanner / recursive descent
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive descent over string offsets with one token of lookahead.

    ``name`` is the name at the current token (None if it is not a name),
    ``ch`` its first character ("" at the end of input), and ``start`` and
    ``end`` its offsets. Line and column numbers are looked up only when a
    node or a diagnostic needs a span.

    The tabular layout is read in place: reading starts after the header
    row, a field reads the cells of its row (``_read_cells``), and ``cells``
    is the tab before the cells last read, which the token stream skips.

    Most fields take a fast path (``_fast_field``): one match reads the
    name's annotation or row and the token after it. What that match does
    not take, the token loop and the entry loop read, and they report every
    diagnostic. Both paths build properties with ``_properties``.

    ``spell`` gives the name that a name token spells (``_parse``)."""

    def __init__(self, text: str, names: dict[str, str] | None):
        self.text = text
        self.spell = _single_spaced if names is None else partial(_kept, names.setdefault)
        lines = text.split("\n")
        self.line_starts = [0, *accumulate(len(line) + 1 for line in lines)]
        # The header row is the first line that is not blank or a comment,
        # when its first tab-separated cell is FIELD.
        row = next((i for i, ln in enumerate(lines) if ln.strip() and not ln.lstrip().startswith("#")), 0)
        head = lines[row].split("\t")
        self.tabular = len(head) > 1 and head[0].strip() == _TAB_HEADER[0]
        self.token_re, self.field_re = _pattern("token", self.tabular), _pattern("field", self.tabular)
        self.depth = 0
        self.cells = -1
        self.end = self.line_starts[row + 1] if self.tabular else 0
        self._next()

    def _next(self) -> None:
        m = self.token_re.match(self.text, self.end)
        while m[2] == "\t":  # the end of a tabular row's structure cell
            at = m.start(2)
            cells = self._cells(at) if at != self.cells else None
            if cells:
                self._fail("P005", "property cells must follow a field name", cells[0][2], cells[-1][3])
            m = self.token_re.match(self.text, self._line_end(at))
        self.name, ch = m.groups()
        self.ch = ch if self.name is None else self.name[0]
        self.start, self.end = m.start(m.lastindex), m.end()

    def _line_end(self, offset: int) -> int:
        return self.line_starts[bisect_right(self.line_starts, offset)] - 1

    def _loc(self, offset: int) -> tuple[int, int]:
        line = bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1

    def _span(self, start: int, end: int) -> SourceSpan:
        """The span of ``text[start:end]``. It ends one column before
        ``end``, but never before column 1 or before it starts, so an empty
        range is the one character at ``start``."""
        starts = self.line_starts
        line = bisect_right(starts, start)
        col = start - starts[line - 1] + 1
        if end < starts[line]:  # on the same line, as most spans are
            return SourceSpan(line, col, line, max(col, end - starts[line - 1]))
        end_line, end_col = self._loc(end)
        return SourceSpan(line, col, end_line, max(1, end_col - 1))

    def _fast_field(self) -> tuple[Field, bool] | None:
        """The field at the current name, read in one match with its
        annotation or row, a '+' after it if any, and the token after them;
        and whether there was a '+'. None where the fast path does not take
        the field, which the entry loop then reads. A tabular row's other
        separators and closers are scanned as tokens, as there."""
        m = self.field_re.match(self.text, self.end)
        if m is None:
            return None
        if self.tabular:
            plus, tail, *cells, name, ch = m.groups()
        else:
            annotation, *values, plus, name, ch = m.groups()
            tail = None
        if tail is None and (ch == "=" or ch == "(" or ch == "\t"):
            return None  # a complex substructure, or what the match did not take
        try:
            if self.tabular:
                row = self._row_properties(m, *cells)
                if row is None:
                    return None
                properties, end = row
            elif annotation is None:
                properties, end = EMPTY_PROPERTIES, self.end
            else:
                properties, end = _properties(*values), m.end("annotation")
        except ValueError:
            return None
        field = Field(self.spell(self.name), properties, self._span(self.start, end))
        if tail is not None:
            self.cells = m.end("tail")
            self._next()
            return field, False
        self.name, self.ch = name, ch if name is None else name[0]
        self.start, self.end = m.start(m.lastindex), m.end()
        return field, plus is not None

    def _row_properties(self, m: re.Match, op, cell, example, extras) -> tuple[FieldProperties, int] | None:
        """The properties in the cells of a row that ``m`` matched, and the
        end of its last non-blank cell; None where the fast path does not
        take them. A bad value raises ``ValueError``."""
        domain, example, rest = cell and _domain_cell_text(cell), example or None, _ABSENT
        if extras:
            annotation = _pattern("annotation", True).fullmatch(self.text, *m.span("extras"))
            if annotation is None:
                return None
            extra_op, extra_domain, extra_example, *rest = annotation.groups()
            if op and extra_op or cell and extra_domain or example and extra_example is not None:
                return None  # the extra properties repeat a cell
            op, domain, example = op or extra_op, domain or extra_domain, example or extra_example
            end = m.end("extras")
        elif example:
            end = m.end("example")
        elif cell:
            end = m.end("domain")
        elif op:
            end = m.end("op")
        else:  # every cell is blank
            return None
        return _properties(op, domain, example, *rest, cell), end

    def _fail(self, code: str, message: str, start: int, end: int | None = None) -> NoReturn:
        raise _error(code, message, self._span(start, start if end is None else end))

    def _read_name(self, context: str) -> tuple[str, int, int]:
        name, start, end = self.name, self.start, self.end
        if name is None:
            if not self.ch:
                self._fail("P007", f"unexpected end of input, expected {context}", start)
            self._fail("P007", f"unexpected character {self.ch!r}, expected {context}", start)
        self._next()
        return self.spell(name), start, end

    # -- grammar ---------------------------------------------------------------

    def parse_structure(self) -> MessageStructure:
        name, start, _ = self._read_name("a structure name")
        if self.ch != "=":
            self._fail("P007", f"expected '=' after structure name {name!r}", self.start)
        self._next()
        items = self._parse_list()
        if self.ch:
            if self.ch in _CLOSERS:
                self._fail("P001", f"unbalanced bracket: stray {self.ch!r}", self.start)
            self._fail("P007", f"unexpected trailing input {self.ch!r}", self.start)
        root, last = items[0], items[-1].span
        if len(items) > 1 or root.name is not None:
            # Unbracketed top level: the initial aggregation is left implicit.
            first = root.span
            span = SourceSpan(first.start_line, first.start_col, last.end_line, last.end_col)
            root = Aggregation(None, tuple(items), span=span)
        span = SourceSpan(*self._loc(start), last.end_line, last.end_col)
        try:
            return MessageStructure(name, root, span=span)
        except ValueError as exc:  # the root is an anonymous specialisation
            raise _error("P004", str(exc), root.span) from None

    def _parse_list(self) -> list[Substructure]:
        items: list[Substructure] = []
        while True:
            if not self.ch or self.ch in ">}]|+":
                # Nothing where a substructure is required: at list start,
                # or right after a '+' separator.
                self._fail("P003", "empty substructure list", self.start)
            fast = self._fast_field() if self.name is not None else None
            if fast is None:
                items.append(self._parse_element())
            else:
                items.append(fast[0])
                if fast[1]:
                    continue
            if self.ch != "+":
                return items
            self._next()

    def _parse_element(self) -> Substructure:
        name, start = None, self.start
        if self.ch not in _OPENERS:
            # A tabular field owns its row's property cells when only blanks,
            # separators and closers stand between its name and the tab. It
            # reads them before the scan moves on to the next row.
            owner = self.tabular and self.name is not None and _OWNER_RE.match(self.text, self.end)
            properties, end = None, self.end
            if owner:
                self.cells = owner.end() - 1
                properties, end = self._read_cells(self.cells, end)
            name, start, _ = self._read_name("a substructure")
            if properties is None and self.ch == "(":
                entries: _Entries = {}
                end = self.end = self._read_entries(self.start, entries, len(self.text))
                self._next()
                properties = self._build_properties(entries)
            if properties is not None and self.ch == "=":
                self._fail("P007", f"annotated name {name!r} cannot introduce a complex substructure", self.start)
            if self.ch != "=":
                return Field(name, properties or EMPTY_PROPERTIES, span=self._span(start, end))
            eq = self.start
            self._next()
            if not self.ch or self.ch not in _OPENERS:
                message = f"{name!r} = must be followed by '<', '{{', or '[' (a bare name is always a field)"
                self._fail("P002", message, start, eq + 1)
        opener, opened = self.ch, self.start
        self.depth += 1
        if self.depth > MAX_NESTING:
            self._fail("P008", f"nesting too deep: more than {MAX_NESTING} levels", opened)
        self._next()
        lists = [tuple(self._parse_list())]
        while opener == "[" and self.ch == "|":
            self._next()
            lists.append(tuple(self._parse_list()))
        closer = _MATCHING[opener]
        if self.ch != closer:
            if not self.ch:
                self._fail("P001", f"unbalanced bracket: {opener!r} is never closed", opened)
            if self.ch in _CLOSERS:
                self._fail("P001", f"unbalanced bracket: expected {closer!r}, found {self.ch!r}", self.start)
            self._fail("P007", f"expected '+' or {closer!r}, found {self.ch!r}", self.start)
        span = self._span(start, self.end)
        self._next()
        self.depth -= 1
        if opener == "[":
            return Specialisation(name, tuple(lists), span=span)
        return (Aggregation if opener == "<" else Iteration)(name, lists[0], span=span)

    # -- property annotations --------------------------------------------------

    def _cells(self, tab: int) -> list[tuple[int, str, int, int]]:
        """The non-blank cells after the structure cell that ends at ``tab``,
        as (column, text, start, end). Column 0 is OP, 1 DOMAIN, 2 EXAMPLE
        VALUE, 3 the extra properties and 4 whatever follows them. EXAMPLE
        VALUE is taken verbatim, the others stripped."""
        cells = []
        start = tab + 1
        for column, cell in enumerate(self.text[start:self._line_end(tab)].split("\t", 4)):
            value = cell if column == 2 else cell.strip()
            if value:
                at = start + cell.index(value)
                cells.append((column, value, at, at + len(value)))
            start += len(cell) + 1
        return cells

    def _read_cells(self, tab: int, end: int) -> tuple[FieldProperties | None, int]:
        """Read the property cells of a field's row. Return the properties
        (None if every cell is blank) and the end of the last non-blank
        cell (``end`` if none is)."""
        entries: _Entries = {}
        domain_cell = None
        for column, value, start, end in self._cells(tab):
            if column == 0:
                entries["op"] = (value, start, end)
            elif column == 1:
                domain_cell = value
                entries["domain"] = (_domain_cell_text(value), start, end)
            elif column == 2:
                bad = _EXAMPLE_RE.match(value).end()
                if bad < len(value):
                    self._fail("P005", f"unescaped {value[bad]!r} in example value", start + bad)
                entries["example"] = (_unescape(value), start, end)
            elif column == 3:
                if value[0] != "(" or self._read_entries(start, entries, end, cell=True) != end:
                    self._fail("P005", "extra properties cell must be a parenthesised annotation", start, end)
            else:
                self._fail("P005", "a row has at most five cells", start, end)
        return (self._build_properties(entries, domain_cell) if entries else None), end

    def _read_entries(self, opened: int, entries: _Entries, endpos: int, cell: bool = False) -> int:
        """Read the annotation whose '(' is at ``opened``, up to ``endpos``,
        into ``entries``; return the offset just past its ')'. An error at
        the end of a ``cell`` is reported on the cell's last character."""
        text, pos, entry_re = self.text, opened + 1, _pattern("entry", self.tabular)
        last = endpos - 1 if cell else endpos
        while True:
            m = entry_re.match(text, pos, endpos)
            key = m["key"]
            if not key:
                at = m.start("key")
                if text.startswith(")", at):
                    pos = at + 1
                    break
                if at == endpos:
                    self._fail("P005", "unterminated property annotation", opened)
                self._fail("P005", f"expected a property key, found {text[at]!r}", at)
            if not m["eq"]:
                self._fail("P005", f"expected '=' after property key {key!r}", min(m.start("eq"), last))
            if m["quote"]:
                start, end = m.start("quote"), m.end("close")
                if not m["close"]:
                    self._fail("P005", "unterminated string in annotation", start, end)
                value = _unescape(m["text"])
            else:
                start, end = m.span("bare")
                value = m["bare"].strip()
                if not value:
                    self._fail("P005", f"missing value for property {key!r}", min(end, last))
            if key in entries:
                self._fail("P005", f"duplicate property key {key!r}", *m.span("key"))
            entries[key] = (value, start, end)
            pos = m.end()
            if m["sep"] == ")":
                break
            if not m["sep"]:
                at = m.start("sep")
                self._fail("P005", f"expected ';' or ')' in annotation, found {text[at:endpos][:1]!r}", min(at, last))
        if not entries:
            self._fail("P005", "empty property annotation", opened)
        return pos

    def _build_properties(self, entries: _Entries, domain_cell: str | None = None) -> FieldProperties:
        """Turn the entries into field properties through ``_properties``.
        Each entry is read alone first, in the order written, so that a
        ``ValueError`` from a ``core`` constructor is reported at its own
        entry. Domain errors quote ``domain_cell``, a tabular DOMAIN cell as
        written, when there is one."""
        for key, (value, start, end) in entries.items():
            if key not in _FAST_KEYS:
                self._fail("P005", f"unknown property key {key!r}", start, end)
            try:
                # A formula alone is read with op=d: that it needs op=d is
                # the one rule that spans entries, checked on them all below.
                _properties(**{"op": "d", key: value} if key == "formula" else {key: value}, cell=domain_cell)
            except ValueError as exc:
                message = f"bad formula: {exc}" if key in ("formula", "init") else str(exc)
                self._fail("P006" if key == "op" else "P005", message, start, end)
        try:
            return _properties(**{key: value for key, (value, _, _) in entries.items()}, cell=domain_cell)
        except ValueError as exc:
            self._fail("P005", str(exc), *entries["formula"][1:])


# Acquisitions are immutable, so each one without a formula is built once and shared.
_ACQUISITIONS = {op: Acquisition(op) for op in ("i", "g", "d")}


def _properties(
    op=None, domain=None, example=None, desc=None, label=None, link=None, required=None, init=None,
    visible=None, formula=None, cell=None,
) -> FieldProperties:
    """The properties of the values given, by ``_FAST_KEYS`` name; domain
    errors quote ``cell``. A bad value raises its ``core`` owner's ``ValueError``."""
    acquisition = None if op is None else _ACQUISITIONS[op] if op in _ACQUISITIONS else Acquisition(op)
    if formula is not None:
        acquisition = Acquisition(op, parse_formula(formula))
    return FieldProperties(
        acquisition,
        None if domain is None else _domain_from_text(domain, cell),
        example,
        desc,
        label,
        link,
        None if required is None else _parse_bool(required),
        None if init is None else parse_formula(init),
        None if visible is None else _parse_bool(visible),
    )


def _domain_cell_text(cell: str) -> str:
    """The annotation text of a DOMAIN cell: a bare Type is a reference,
    [a|b] an enumeration."""
    if cell.startswith("[") and cell.endswith("]"):
        return "enum:" + cell[1:-1].strip()
    if cell not in BASIC_DOMAIN_KINDS and not cell.startswith(("ref:", "enum:")):
        return "ref:" + cell
    return cell


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def to_text(ms: MessageStructure, style: str = "compact") -> str:
    """Render a structure to text. ``compact`` is a single line; ``tabular``
    is the vertical layout with OP / DOMAIN / EXAMPLE columns. Both forms
    parse back to an equivalent structure with the same field properties."""
    # A name on the root complex cannot be written after "Name =" without
    # re-parsing as a nested element, so it is dropped (names are sugar).
    if ms.root.name is not None:
        ms = _replace(ms, root=_replace(ms.root, name=None))
    if style == "compact":
        return f"{ms.name}={_compact(ms.root)}"
    if style == "tabular":
        return _tabular(ms)
    raise ValueError(f"unknown style {style!r}")


def _annotation(mapping: dict[str, str]) -> str:
    """``(key=value; ...)``, with the values of op, domain, required and
    visible bare and the others quoted."""
    return "(" + "; ".join(
        f"{k}={v}" if k in ("op", "domain", "required", "visible") else f'{k}="{_escape(v)}"'
        for k, v in mapping.items()
    ) + ")"


def _compact(root: Substructure) -> str:
    out: list[str] = []
    elided: set[int] = set()  # the open aggregations written without brackets
    after_entry = True
    for entering, item in _traverse(root):
        kind = type(item)
        # An item entered (a field: None) not right after its parent follows a sibling.
        if not after_entry and entering is not False:
            out.append("|" if kind is tuple else "+")
        after_entry = entering
        if entering is None:
            mapping = item.properties.to_mapping()
            out.append(f"{item.name} {_annotation(mapping)}" if mapping else item.name)
        elif kind is tuple or id(item) in elided:
            if not entering:
                elided.discard(id(item))
        elif entering:
            opener = _BRACKETS[kind][0]
            out.append(f"{item.name}={opener}" if item.name else opener)
        else:
            out.append(_BRACKETS[kind][1])
        # The single anonymous aggregation implicit in an iteration body or a
        # variant is left out, except when its own single child is an
        # aggregation (eliding would merge two nesting levels on re-parse).
        if entering and (kind is tuple or kind is Iteration):
            only = _lone_aggregation(item if kind is tuple else item.children)
            if only is not None and only.name is None and _lone_aggregation(only.children) is None:
                elided.add(id(only))
    return "".join(out)


# -- tabular style -----------------------------------------------------------


class _Row:
    def __init__(self, text: str, fld: Field | None = None, absorb: bool = False):
        self.text = text
        self.field = fld
        self.can_absorb = absorb


def _domain_column(text: str) -> str:
    """The DOMAIN cell of a domain that an annotation spells ``text``:
    ``[a|b]`` for ``enum:a|b``, and ``Type`` for ``ref:Type`` unless the
    type is named like a basic domain."""
    if text.startswith("enum:"):
        return f"[{text[5:]}]"
    if text.startswith("ref:") and text[4:] not in BASIC_DOMAIN_KINDS:
        return text[4:]
    return text


def _tabular(ms: MessageStructure) -> str:
    rows: list[_Row] = [_Row(f"{ms.name} =")]
    pending = ""
    after_entry = True
    for entering, item in _traverse(ms.root):
        kind = type(item)
        if not after_entry and entering is not False:
            # A separator ends the row of the sibling before.
            rows[-1].text += " |" if kind is tuple else " +"
            rows[-1].can_absorb = False
        after_entry = entering
        if entering is None:
            rows.append(_Row(pending + item.name, item, absorb=True))
            pending = ""
        elif kind is tuple:
            continue
        elif entering:
            if item.name:
                rows.append(_Row(pending + item.name + " ="))
                pending = ""
            pending += _BRACKETS[kind][0] + " "
        elif rows[-1].can_absorb:
            rows[-1].text += " " + _BRACKETS[kind][1]
            rows[-1].can_absorb = False
        else:
            rows.append(_Row(_BRACKETS[kind][1]))

    lines = ["\t".join(_TAB_HEADER)]
    for row in rows:
        cells = [row.text]
        if row.field is not None:
            mapping = row.field.properties.to_mapping()
            extras = {
                k: v for k, v in mapping.items() if k not in ("op", "domain", "example")
            }
            op = mapping.get("op", "")
            domain = _domain_column(mapping["domain"]) if "domain" in mapping else ""
            example = _escape(mapping["example"]) if "example" in mapping else ""
            if mapping.get("example") == "":
                # An empty cell reads back as "absent", so an empty example
                # has to travel in the annotation column instead.
                example = ""
                extras = {"example": "", **extras}
            cells += [op, domain, example, _annotation(extras) if extras else ""]
            while cells and cells[-1] == "":
                cells.pop()
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON view of the tree
# ---------------------------------------------------------------------------


def structure_to_json_obj(ms: MessageStructure) -> dict:
    """Plain-data view of the tree; property values use the annotation
    vocabulary (op/domain/example/...)."""

    def build(item: Substructure | tuple, parts: list) -> dict | list:
        if not parts:
            return {"kind": "field", "name": item.name, "properties": item.properties.to_mapping()}
        if type(item) is tuple:
            return parts
        kind = type(item).__name__.lower()
        return {"kind": kind, "name": item.name, "variants" if kind == "specialisation" else "children": parts}

    return {"name": ms.name, "root": _fold(ms.root, build)}
