"""Reader and writer for the message-structure textual notation.

``parse`` turns UTF-8 text into a :class:`~msgstruct.core.MessageStructure`
with source spans attached, accepting the sugared surface forms (omitted
complex-substructure names, implicit aggregations inside iterations and
specialisation variants) plus per-field property annotations in parentheses:

    Quantity (op=i; domain=number; example="35")

``to_text`` renders a structure back to text, either as a one-line compact
form or as the vertical tabular layout with OP / DOMAIN / EXAMPLE columns.
Both renderings re-parse to an equivalent structure with identical field
properties.

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
from dataclasses import replace
from itertools import accumulate
from typing import NoReturn

from .core import (
    Acquisition,
    Aggregation,
    BASIC_DOMAIN_KINDS,
    BinaryOp,
    Call,
    Domain,
    BasicDomain,
    EnumeratedDomain,
    Field,
    FieldProperties,
    FieldRef,
    Formula,
    Iteration,
    MEMORY_LINK_RE,
    MessageStructure,
    Number,
    ReferenceDomain,
    Specialisation,
    Substructure,
    Text,
    _fold,
    _traverse,
    is_identifier,
)
from .diagnostics import Diagnostic, Severity, SourceSpan

__all__ = ["parse", "parse_formula", "to_text", "structure_to_json_obj", "ParseError", "MAX_NESTING"]

# The deepest nesting of '<', '{' and '[' that ``parse`` accepts. The reader
# recurses twice per level and would overflow the interpreter's default
# 1000-frame stack at about 495 levels; the limit leaves room for callers.
MAX_NESTING = 300

# The deepest nesting of a formula (see ``_FormulaParser``). A formula at
# this depth, inside a structure ``MAX_NESTING`` deep, still parses, prints,
# compares and hashes within the interpreter's default recursion limit.
_MAX_FORMULA_DEPTH = 64


class ParseError(Exception):
    """Raised when the input cannot be parsed; carries the diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(d.message for d in diagnostics))
        self.diagnostics = diagnostics


def _error(code: str, message: str, span: SourceSpan) -> ParseError:
    return ParseError([Diagnostic(Severity.ERROR, code, message, span)])


# Whitespace and '#' comments before a token. A comment runs to the end of
# its line; the lookahead keeps a backtracking match from ending it early.
_WS = r"[ \t\n]*(?:#[^\n]*(?=\n|\Z)[ \t\n]*)*"
_NAME = r"[A-Za-z](?:[A-Za-z0-9-]|[ \t]+(?=[A-Za-z0-9]))*"
_NAME_RE = re.compile(_NAME)
_WS_RE = re.compile(r"[ \t\n]+")
# One token of the structure grammar: a name, or a single other character
# ("" at the end of input).
_TOKEN_RE = re.compile(rf"{_WS}(?:({_NAME})|(.?))")
# One annotation entry, ``key = value`` and the ';' or ')' after it. Every
# part may be empty, so the match always succeeds; the first part found
# empty is the one missing, and where it starts is where the error is.
_ENTRY_RE = re.compile(
    rf"{_WS}(?P<key>[a-z]*){_WS}(?P<eq>=?){_WS}"
    r'(?:(?P<quote>")(?P<text>(?:[^"\\\n]|\\[\s\S]?)*)(?P<close>"?)|(?P<bare>[^;)\n]*))'
    rf"{_WS}(?P<sep>[;)]?)"
)
_UNESCAPE_RE = re.compile(r"\\([\s\S]?)")

_OPENERS = "<{["
_CLOSERS = ">}]"
_MATCHING = {"<": ">", "{": "}", "[": "]"}
_BRACKETS = {Aggregation: "<>", Iteration: "{}", Specialisation: "[]"}

_TAB_HEADER = ("FIELD", "OP", "DOMAIN", "EXAMPLE VALUE")

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", '"': '"', "'": "'", "t": "\t", "n": "\n", "r": "\r"}


def _escape(value: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in value)


def _unescape(m: re.Match) -> str:
    return _UNESCAPES.get(m[1], "\\" + m[1])


def parse(text: str) -> MessageStructure:
    """Parse one message structure from text (compact or tabular layout)."""
    text = text.lstrip("﻿").replace("\r\n", "\n").replace("\r", "\n")
    text = _detabulate(text)
    return _Parser(text).parse_structure()


def parse_formula(text: str) -> Formula:
    """Parse a derivation/initialisation formula, e.g. ``:Price * :Quantity``."""
    return _FormulaParser(text).parse()


# ---------------------------------------------------------------------------
# Scanner / recursive descent
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive descent over string offsets with one token of lookahead.

    ``name`` is the name at the current token (None if it is not a name),
    ``ch`` its first character ("" at the end of input), and ``start`` and
    ``end`` its offsets. Line and column numbers are looked up only when a
    node or a diagnostic needs a span."""

    def __init__(self, text: str):
        self.text = text
        self.line_starts = [0, *accumulate(len(line) + 1 for line in text.split("\n"))]
        self.depth = 0
        self.end = 0
        self._next()

    def _next(self) -> None:
        m = _TOKEN_RE.match(self.text, self.end)
        self.name, ch = m.groups()
        self.ch = ch if self.name is None else self.name[0]
        self.start, self.end = m.start(m.lastindex), m.end()

    def _loc(self, offset: int) -> tuple[int, int]:
        line = bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1

    def _span(self, start: int, end: int) -> SourceSpan:
        """The span of ``text[start:end]``. It ends one column before
        ``end``, but never before column 1 or before it starts, so an empty
        range is the one character at ``start``."""
        line, col = self._loc(start)
        end_line, end_col = self._loc(end)
        end_col = max(1, end_col - 1)
        if (end_line, end_col) < (line, col):
            end_line, end_col = line, col
        return SourceSpan(line, col, end_line, end_col)

    def _fail(self, code: str, message: str, start: int, end: int | None = None) -> NoReturn:
        raise _error(code, message, self._span(start, start if end is None else end))

    def _read_name(self, context: str) -> tuple[str, int, int]:
        name, start, end = self.name, self.start, self.end
        if name is None:
            if not self.ch:
                self._fail("P007", f"unexpected end of input, expected {context}", start)
            self._fail("P007", f"unexpected character {self.ch!r}, expected {context}", start)
        self._next()
        return _WS_RE.sub(" ", name), start, end

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
        end = items[-1].span
        span = SourceSpan(*self._loc(start), end.end_line, end.end_col)
        return MessageStructure(name, self._resolve_root(items), span=span)

    def _resolve_root(self, items: list[Substructure]) -> Aggregation | Iteration:
        if len(items) == 1:
            only = items[0]
            if isinstance(only, (Aggregation, Iteration)) and only.name is None:
                return only
            if isinstance(only, Specialisation) and only.name is None:
                raise _error("P004", "a specialisation cannot be the initial substructure", only.span)
        # Unbracketed top level: the initial aggregation is left implicit.
        first, last = items[0].span, items[-1].span
        span = SourceSpan(first.start_line, first.start_col, last.end_line, last.end_col)
        return Aggregation(None, tuple(items), span=span)

    def _parse_list(self) -> list[Substructure]:
        items: list[Substructure] = []
        while True:
            if not self.ch or self.ch in ">}]|+":
                # Nothing where a substructure is required: at list start,
                # or right after a '+' separator.
                self._fail("P003", "empty substructure list", self.start)
            items.append(self._parse_element())
            if self.ch != "+":
                return items
            self._next()

    def _parse_element(self) -> Substructure:
        name, start = None, self.start
        if self.ch not in _OPENERS:
            name, start, end = self._read_name("a substructure")
            if self.ch == "(":
                properties, end = self._parse_annotation()
                if self.ch == "=":
                    self._fail(
                        "P007",
                        f"annotated name {name!r} cannot introduce a complex substructure",
                        self.start,
                    )
                return Field(name, properties, span=self._span(start, end))
            if self.ch != "=":
                return Field(name, span=self._span(start, end))
            eq = self.start
            self._next()
            if not self.ch or self.ch not in _OPENERS:
                self._fail(
                    "P002",
                    f"{name!r} = must be followed by '<', '{{', or '[' "
                    "(a bare name is always a field)",
                    start,
                    eq + 1,
                )
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

    def _parse_annotation(self) -> tuple[FieldProperties, int]:
        """Read the annotation that opens at the current '(' token; return
        its properties and the offset just past its ')'."""
        text, opened, pos = self.text, self.start, self.end
        entries: dict[str, tuple[str, int, int]] = {}
        while True:
            m = _ENTRY_RE.match(text, pos)
            key = m["key"]
            if not key:
                at = m.start("key")
                if text.startswith(")", at):
                    pos = at + 1
                    break
                if at == len(text):
                    self._fail("P005", "unterminated property annotation", opened)
                self._fail("P005", f"expected a property key, found {text[at]!r}", at)
            if not m["eq"]:
                self._fail("P005", f"expected '=' after property key {key!r}", m.start("eq"))
            if m["quote"]:
                start, end = m.start("quote"), m.end("close")
                if not m["close"]:
                    self._fail("P005", "unterminated string in annotation", start, end)
                value = _UNESCAPE_RE.sub(_unescape, m["text"])
            else:
                start, end = m.span("bare")
                value = m["bare"].strip()
                if not value:
                    self._fail("P005", f"missing value for property {key!r}", end)
            if key in entries:
                self._fail("P005", f"duplicate property key {key!r}", *m.span("key"))
            entries[key] = (value, start, end)
            pos = m.end()
            if m["sep"] == ")":
                break
            if not m["sep"]:
                at = m.start("sep")
                self._fail("P005", f"expected ';' or ')' in annotation, found {text[at:at + 1]!r}", at)
        if not entries:
            self._fail("P005", "empty property annotation", opened)
        self.end = pos
        self._next()
        return self._build_properties(entries), pos

    def _build_properties(self, entries: dict[str, tuple[str, int, int]]) -> FieldProperties:
        """Turn the entries, each a value with the offsets of its text, into
        field properties."""
        op: str | None = None
        formula: Formula | None = None
        kwargs: dict = {}
        for key, (value, start, end) in entries.items():
            if key == "op":
                if value not in ("i", "g", "d"):
                    self._fail("P006", f"unknown acquisition operation {value!r}", start, end)
                op = value
            elif key == "formula":
                formula = self._parse_formula_value(value, start, end)
            elif key == "domain":
                try:
                    kwargs["domain"] = _domain_from_text(value)
                except ValueError as exc:
                    self._fail("P005", str(exc), start, end)
            elif key == "example":
                kwargs["example"] = value
            elif key == "desc":
                kwargs["description"] = value
            elif key == "label":
                kwargs["label"] = value
            elif key == "link":
                if not MEMORY_LINK_RE.fullmatch(value):
                    self._fail("P005", f"link must be 'Entity.attribute': {value!r}", start, end)
                kwargs["memory_link"] = value
            elif key == "required":
                kwargs["compulsory"] = self._parse_bool(value, start, end)
            elif key == "visible":
                kwargs["visible"] = self._parse_bool(value, start, end)
            elif key == "init":
                kwargs["initialisation"] = self._parse_formula_value(value, start, end)
            else:
                self._fail("P005", f"unknown property key {key!r}", start, end)
        if formula is not None and op != "d":
            self._fail("P005", "a derivation formula requires op=d", *entries["formula"][1:])
        if op is not None:
            kwargs["acquisition"] = Acquisition(op, formula)
        return FieldProperties(**kwargs)

    def _parse_bool(self, value: str, start: int, end: int) -> bool:
        if value not in ("true", "false"):
            self._fail("P005", f"expected true or false, found {value!r}", start, end)
        return value == "true"

    def _parse_formula_value(self, value: str, start: int, end: int) -> Formula:
        try:
            return parse_formula(value)
        except ValueError as exc:
            self._fail("P005", f"bad formula: {exc}", start, end)


def _domain_from_text(value: str) -> Domain:
    if value in BASIC_DOMAIN_KINDS:
        return BasicDomain(value)
    if value.startswith("ref:"):
        target = value[4:].strip()
        if not is_identifier(target):
            raise ValueError(f"reference domain needs a type name: {value!r}")
        return ReferenceDomain(target)
    if value.startswith("enum:"):
        body = value[5:].strip()
        parts = body.split("|") if "|" in body else body.split()
        literals = tuple(p.strip() for p in parts if p.strip())
        if not literals or not all(is_identifier(lit) for lit in literals):
            raise ValueError(f"bad enumerated domain: {value!r}")
        if len(set(literals)) != len(literals):
            raise ValueError(f"duplicate literals in enumerated domain: {value!r}")
        return EnumeratedDomain(literals)
    raise ValueError(
        f"unknown domain {value!r} (expected one of {', '.join(BASIC_DOMAIN_KINDS)}, "
        "'ref:Type', or 'enum:a|b')"
    )


# ---------------------------------------------------------------------------
# Formula parsing
# ---------------------------------------------------------------------------


class _FormulaParser:
    """Tiny expression grammar: ``+ -`` over ``* /`` over atoms, all
    left-associative; atoms are ``:Field`` references, numbers, quoted
    strings, function calls, and parenthesised groups.

    Each method returns a node with its nesting level: 0 for an atom, and
    one over the deepest operand for an operator, a call or a group. Past
    ``_MAX_FORMULA_DEPTH`` the formula is rejected; ``open`` counts the open
    groups, so the reader's own recursion is bounded too."""

    _NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")
    _IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.open = 0

    def parse(self) -> Formula:
        node, _ = self._expr()
        self._skip()
        if self.pos < len(self.text):
            raise ValueError(f"unexpected {self.text[self.pos]!r} at offset {self.pos}")
        return node

    def _skip(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    @staticmethod
    def _level(depth: int) -> int:
        if depth > _MAX_FORMULA_DEPTH:
            raise ValueError(f"nested too deep: more than {_MAX_FORMULA_DEPTH} levels")
        return depth

    # _expr and _term loop in place, so a group costs three frames, not five.
    def _expr(self) -> tuple[Formula, int]:
        node, depth = self._term()
        while True:
            self._skip()
            op = self._peek()
            if op not in ("+", "-"):
                return node, depth
            self.pos += 1
            right, right_depth = self._term()
            node, depth = BinaryOp(op, node, right), self._level(max(depth, right_depth) + 1)

    def _term(self) -> tuple[Formula, int]:
        node, depth = self._atom()
        while True:
            self._skip()
            op = self._peek()
            if op not in ("*", "/"):
                return node, depth
            self.pos += 1
            right, right_depth = self._atom()
            node, depth = BinaryOp(op, node, right), self._level(max(depth, right_depth) + 1)

    def _atom(self) -> tuple[Formula, int]:
        self._skip()
        ch = self._peek()
        if ch == "":
            raise ValueError("formula ends where a value was expected")
        if ch == "(":
            self.pos += 1
            self.open = self._level(self.open + 1)
            node, depth = self._expr()
            self._skip()
            if self._peek() != ")":
                raise ValueError("missing ')'")
            self.pos += 1
            self.open -= 1
            return node, self._level(depth + 1)
        if ch == ":":
            self.pos += 1
            m = _NAME_RE.match(self.text, self.pos)
            if m is None:
                raise ValueError("':' must be followed by a field name")
            self.pos = m.end()
            return FieldRef(_WS_RE.sub(" ", m.group(0))), 0
        if ch in "'\"":
            return Text(self._string(ch)), 0
        m = self._NUMBER_RE.match(self.text, self.pos)
        if m is not None:
            self.pos = m.end()
            raw = m.group(0)
            return Number(float(raw) if "." in raw else int(raw)), 0
        m = self._IDENT_RE.match(self.text, self.pos)
        if m is not None:
            name = m.group(0)
            self.pos = m.end()
            self._skip()
            if self._peek() != "(":
                raise ValueError(f"function name {name!r} must be followed by '('")
            self.pos += 1
            self.open = self._level(self.open + 1)
            args: list[Formula] = []
            depth = 0
            self._skip()
            while self._peek() != ")":
                if args:
                    if self._peek() != ",":
                        raise ValueError("expected ',' or ')' in argument list")
                    self.pos += 1
                arg, arg_depth = self._expr()
                args.append(arg)
                depth = max(depth, arg_depth)
                self._skip()
            self.pos += 1
            self.open -= 1
            return Call(name, tuple(args)), self._level(depth + 1)
        raise ValueError(f"unexpected {ch!r} in formula")

    def _string(self, quote: str) -> str:
        self.pos += 1
        out: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise ValueError("unterminated string")
            ch = self.text[self.pos]
            if ch == quote:
                self.pos += 1
                return "".join(out)
            if ch == "\\":
                self.pos += 1
                esc = self.text[self.pos] if self.pos < len(self.text) else ""
                self.pos += 1
                out.append(_UNESCAPES.get(esc, "\\" + esc))
                continue
            out.append(ch)
            self.pos += 1


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
        ms = replace(ms, root=replace(ms.root, name=None))
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
        if entering and not after_entry:
            out.append("|" if isinstance(item, tuple) else "+")
        after_entry = entering and not isinstance(item, Field)
        if isinstance(item, Field):
            mapping = item.properties.to_mapping()
            out.append(f"{item.name} {_annotation(mapping)}" if mapping else item.name)
        elif isinstance(item, tuple) or id(item) in elided:
            if not entering:
                elided.discard(id(item))
        elif entering:
            opener = _BRACKETS[type(item)][0]
            out.append(f"{item.name}={opener}" if item.name else opener)
        else:
            out.append(_BRACKETS[type(item)][1])
        # The single anonymous aggregation implicit in an iteration body or a
        # variant is left out, except when its own single child is an
        # aggregation (eliding would merge two nesting levels on re-parse).
        if entering and isinstance(item, (Iteration, tuple)):
            body = item if isinstance(item, tuple) else item.children
            only = body[0]
            if len(body) == 1 and isinstance(only, Aggregation) and only.name is None:
                if not (len(only.children) == 1 and isinstance(only.children[0], Aggregation)):
                    elided.add(id(only))
    return "".join(out)


# -- tabular style -----------------------------------------------------------


class _Row:
    def __init__(self, text: str, fld: Field | None = None, absorb: bool = False):
        self.text = text
        self.field = fld
        self.can_absorb = absorb


def _domain_column(domain: Domain) -> str:
    match domain:
        case BasicDomain(kind):
            return kind
        case ReferenceDomain(target):
            return target
        case EnumeratedDomain(literals):
            return "[" + "|".join(literals) + "]"
    raise TypeError(f"not a domain: {domain!r}")


def _tabular(ms: MessageStructure) -> str:
    rows: list[_Row] = [_Row(f"{ms.name} =")]
    pending = ""
    after_entry = True
    for entering, item in _traverse(ms.root):
        if entering and not after_entry:
            # A separator ends the row of the sibling before.
            rows[-1].text += " |" if isinstance(item, tuple) else " +"
            rows[-1].can_absorb = False
        after_entry = entering and not isinstance(item, Field)
        if isinstance(item, Field):
            rows.append(_Row(pending + item.name, item, absorb=True))
            pending = ""
        elif isinstance(item, tuple):
            continue
        elif entering:
            if item.name:
                rows.append(_Row(pending + item.name + " ="))
                pending = ""
            pending += _BRACKETS[type(item)][0] + " "
        elif rows[-1].can_absorb:
            rows[-1].text += " " + _BRACKETS[type(item)][1]
            rows[-1].can_absorb = False
        else:
            rows.append(_Row(_BRACKETS[type(item)][1]))

    lines = ["\t".join(_TAB_HEADER)]
    for row in rows:
        cells = [row.text]
        if row.field is not None:
            mapping = row.field.properties.to_mapping()
            extras = {
                k: v for k, v in mapping.items() if k not in ("op", "domain", "example")
            }
            op = mapping.get("op", "")
            domain = (
                _domain_column(row.field.properties.domain)
                if row.field.properties.domain is not None
                else ""
            )
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


def _detabulate(text: str) -> str:
    """Rewrite the tabular layout into plain notation (no-op otherwise).

    The first content line must be the column header. Property cells are
    folded into a parenthesised annotation after the row's field name, so
    line numbers in spans stay accurate."""
    lines = text.split("\n")
    first_content = next(
        (ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")), ""
    )
    head = [c.strip() for c in first_content.split("\t")]
    if not head or head[0] != _TAB_HEADER[0] or len(head) < 2:
        return text
    out: list[str] = []
    seen_header = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not seen_header and stripped and not stripped.startswith("#"):
            seen_header = True
            out.append("")  # keep the header's line number occupied
            continue
        if "\t" not in line or not stripped or stripped.startswith("#"):
            out.append(line)
            continue
        cells = line.split("\t")
        struct_text = cells[0]
        op = cells[1].strip() if len(cells) > 1 else ""
        domain = cells[2].strip() if len(cells) > 2 else ""
        example = cells[3] if len(cells) > 3 else ""  # kept verbatim: escaped form
        extras = cells[4].strip() if len(cells) > 4 else ""
        parts: list[str] = []
        if op:
            parts.append(f"op={op}")
        if domain:
            parts.append("domain=" + _domain_column_to_annotation(domain))
        if example:
            parts.append(f'example="{example}"')
        if extras:
            if not (extras.startswith("(") and extras.endswith(")")):
                raise _error(
                    "P005",
                    "extra properties cell must be a parenthesised annotation",
                    SourceSpan(lineno, 1, lineno, max(1, len(line))),
                )
            parts.append(extras[1:-1])
        if not parts:
            out.append(struct_text)
            continue
        annotated = _inject_annotation(struct_text, "; ".join(parts), lineno)
        out.append(annotated)
    return "\n".join(out)


def _inject_annotation(struct_text: str, annotation: str, lineno: int) -> str:
    head = struct_text.rstrip()
    trailer_start = len(head)
    while head and (head[-1] in "+|>}]" or head[-1] in " \t"):
        head = head[:-1]
        trailer_start = len(head)
    lead = head
    while lead and (lead[0] in "<{[|" or lead[0] in " \t"):
        lead = lead[1:]
    if not lead or lead.endswith("="):
        raise _error(
            "P005",
            "property columns are only allowed on field rows",
            SourceSpan(lineno, 1, lineno, max(1, len(struct_text))),
        )
    return struct_text[:trailer_start] + f" ({annotation})" + struct_text[trailer_start:]


def _domain_column_to_annotation(value: str) -> str:
    if value in BASIC_DOMAIN_KINDS:
        return value
    if value.startswith("[") and value.endswith("]"):
        return "enum:" + value[1:-1].strip()
    if value.startswith(("ref:", "enum:")):
        return value
    return f"ref:{value}"


# ---------------------------------------------------------------------------
# JSON view of the tree
# ---------------------------------------------------------------------------


def structure_to_json_obj(ms: MessageStructure) -> dict:
    """Plain-data view of the tree; property values use the annotation
    vocabulary (op/domain/example/...)."""

    def build(item: Substructure | tuple, parts: list) -> dict | list:
        if isinstance(item, Field):
            return {"kind": "field", "name": item.name, "properties": item.properties.to_mapping()}
        if isinstance(item, tuple):
            return parts
        if isinstance(item, Specialisation):
            return {"kind": "specialisation", "name": item.name, "variants": parts}
        kind = "aggregation" if isinstance(item, Aggregation) else "iteration"
        return {"kind": kind, "name": item.name, "children": parts}

    return {"name": ms.name, "root": _fold(ms.root, build)}
