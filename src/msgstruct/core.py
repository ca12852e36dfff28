"""Abstract syntax tree for message structures: node types, canonical form,
structural equivalence, and traversal.

A message structure is a named tree built from three complex substructure
kinds (aggregation ``< >``, iteration ``{ }``, specialisation ``[ | ]``) with
fields at the leaves. All nodes are immutable; every operation here is a pure
function, so values are safe to share across threads.

Equality on nodes is structural and ignores source spans. The text of names
and property values is read and written here; the parser only locates it.
"""

from __future__ import annotations

import re
from functools import cache
from operator import attrgetter
from typing import Iterator, Union

from .diagnostics import SourceSpan, _Record, _replace


def _name(gap: str) -> str:
    """A name: words of letters, digits and hyphens, ``gap`` apart."""
    return rf"[A-Za-z][A-Za-z0-9-]*(?:{gap}[A-Za-z0-9][A-Za-z0-9-]*)*"


# Names start with a letter and may contain letters, digits, hyphens, and
# single internal spaces ("Person in charge").
IDENTIFIER_RE = re.compile(_name(" "))

# Correspondence with a stored attribute: "Entity.attribute".
MEMORY_LINK_RE = re.compile(r"[A-Za-z][A-Za-z0-9 -]*\.[A-Za-z][A-Za-z0-9 -]*")

BASIC_DOMAIN_KINDS = ("text", "number", "money", "date", "time")


def _single_spaced(name: str) -> str:
    """A name with one space for each run of blanks between its words."""
    return " ".join(name.split()) if "  " in name or "\t" in name else name


def _parse_bool(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError(f"expected true or false, found {value!r}")
    return value == "true"


# Quoted text: what a '\\' escape stands for. An unknown escape reads as
# written.
_UNESCAPES = {"\\": "\\", '"': '"', "'": "'", "t": "\t", "n": "\n", "r": "\r"}
_UNESCAPE_RE = re.compile(r"\\([\s\S]?)")


def _escape(value: str) -> str:
    """``value`` with '\\', '"', tab, newline and carriage return escaped.
    A chain of ``str.replace`` scans a clean text five times at C speed, where
    ``str.translate``, whose table writes two characters for one, looks each
    character up in a dict. The backslash goes first, so the escapes made
    after it are not escaped again."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")
    )


def _unescape(text: str) -> str:
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPES.get(m[1], "\\" + m[1]), text)


# ---------------------------------------------------------------------------
# Formulas (derivation and initialisation expressions)
# ---------------------------------------------------------------------------


class FieldRef(_Record):
    """Reference to a sibling field's value, written ``:Field name``."""

    __slots__ = ("name",)
    parts = ()

    def __init__(self, name: str) -> None:
        self._setters[0](self, name)


class Number(_Record):
    """Numeric literal in a formula, e.g. ``100`` or ``0.21``."""

    __slots__ = ("value",)
    parts = ()

    def __init__(self, value: Union[int, float]) -> None:
        self._setters[0](self, value)


class Text(_Record):
    """Quoted string literal in a formula, e.g. ``'EUR'``."""

    __slots__ = ("value",)
    parts = ()

    def __init__(self, value: str) -> None:
        self._setters[0](self, value)


class BinaryOp(_Record):
    """Arithmetic on two sub-formulas, e.g. ``:Price * :Quantity``."""

    __slots__ = ("op", "left", "right")
    parts = property(attrgetter("left", "right"))

    def __init__(self, op: str, left: Formula, right: Formula) -> None:
        set_op, set_left, set_right = self._setters
        set_op(self, op)  # one of + - * /
        set_left(self, left)
        set_right(self, right)


class Call(_Record):
    """Function application, e.g. ``today()``."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[Formula, ...] = ()) -> None:
        set_name, set_args = self._setters
        set_name(self, name)
        set_args(self, args)


Call.parts = Call.args

Formula = Union[FieldRef, Number, Text, BinaryOp, Call]

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_TIGHTEST = max(_PRECEDENCE.values())


def formula_to_text(f: Formula) -> str:
    """Render a formula to its canonical textual form (re-parseable)."""
    return _fold(f, _formula_text)


def _formula_text(f: Formula, parts: list[str]) -> str:
    """The text of formula node ``f``, given the texts of its parts."""
    match f:
        case FieldRef(name):
            return f":{name}"
        case BinaryOp(op, left, right):
            lhs, rhs = parts
            if type(left) is BinaryOp and _PRECEDENCE[left.op] < _PRECEDENCE[op]:
                lhs = f"({lhs})"
            if type(right) is BinaryOp and _PRECEDENCE[right.op] <= _PRECEDENCE[op]:
                rhs = f"({rhs})"
            return f"{lhs} {op} {rhs}"
        case Call(name):
            return f"{name}({', '.join(parts)})"
        case Number(value):
            # Positional, as the number token reads it: 1e-05 is 0.00001.
            text = repr(value)
            if "e" in text:
                from decimal import Decimal

                text = f"{Decimal(text):f}"
            return text if "." in text or isinstance(value, int) else text + ".0"
        case Text(value):
            return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
    raise TypeError(f"not a formula node: {f!r}")


def formula_refs(f: Formula) -> list[str]:
    """Field names referenced anywhere inside a formula, in reading order."""
    return [n.name for n in walk(f) if type(n) is FieldRef]


# The deepest nesting of a formula (see ``_FormulaParser``). Printing takes
# any depth; a formula at this one, inside a structure ``MAX_NESTING`` deep,
# still parses, compares and hashes within the default recursion limit.
_MAX_FORMULA_DEPTH = 64


@cache
def _formula_token_re() -> re.Pattern:
    """One token of a formula: a number, a function name, a ':' field
    reference, a quoted string, or a single other character ("" at the
    end). Compiled on first use: most structures hold no formula."""
    return re.compile(
        r"[ \t\n]*(?P<token>(?P<number>\d+(?:\.\d+)?)|(?P<call>[A-Za-z_][A-Za-z0-9_]*)"
        r"|:(?P<ref>" + _name(r"[ \t]+") + ")?"
        r"""|(?P<quote>['"])(?P<text>(?:(?!(?P=quote))[^\\]|\\[\s\S]?)*)(?P<close>(?P=quote)?)|.?)"""
    )


def parse_formula(text: str) -> Formula:
    """Parse a derivation/initialisation formula, e.g. ``:Price * :Quantity``."""
    reader = _FormulaParser(text)
    node, _ = reader._expr()
    if reader.ch:
        raise ValueError(f"unexpected {reader.ch!r} at offset {reader.start}")
    return node


class _FormulaParser:
    """Tiny expression grammar: the ``_PRECEDENCE`` levels (``+ -`` over
    ``* /``) over atoms, all left-associative; atoms are ``:Field`` refs,
    numbers, quoted strings, function calls, and parenthesised groups. It
    reads one token per match of ``_formula_token_re``: ``m`` is the match,
    ``ch`` the token's first character ("" at the end), ``start`` its offset.

    Each method returns a node with its nesting level: 0 for an atom, and
    one over the deepest operand for an operator, a call or a group. Past
    ``_MAX_FORMULA_DEPTH`` the formula is rejected; ``open`` counts the open
    groups, so the reader's own recursion is bounded too."""

    def __init__(self, text: str):
        self.text = text
        self.end = 0
        self.open = 0
        self.match = _formula_token_re().match
        self._next()

    def _next(self) -> None:
        self.m = m = self.match(self.text, self.end)
        self.start, self.end = m.span("token")
        self.ch = m["token"][:1]

    @staticmethod
    def _level(depth: int) -> int:
        if depth > _MAX_FORMULA_DEPTH:
            raise ValueError(f"nested too deep: more than {_MAX_FORMULA_DEPTH} levels")
        return depth

    def _expr(self, level: int = 1) -> tuple[Formula, int]:
        """The operators of one precedence ``level`` over operands of the
        next, read in a loop, so that a group costs three frames."""
        node, depth = self._atom() if level == _TIGHTEST else self._expr(level + 1)
        while _PRECEDENCE.get(self.ch) == level:
            op = self.ch
            self._next()
            right, right_depth = self._atom() if level == _TIGHTEST else self._expr(level + 1)
            node, depth = BinaryOp(op, node, right), self._level(max(depth, right_depth) + 1)
        return node, depth

    def _atom(self) -> tuple[Formula, int]:
        m, ch = self.m, self.ch
        if ch == "":
            raise ValueError("formula ends where a value was expected")
        if ch == "(":
            self._next()
            self.open = self._level(self.open + 1)
            node, depth = self._expr()
            if self.ch != ")":
                raise ValueError("missing ')'")
            self._next()
            self.open -= 1
            return node, self._level(depth + 1)
        if ch == ":":
            if m["ref"] is None:
                raise ValueError("':' must be followed by a field name")
            self._next()
            return FieldRef(_single_spaced(m["ref"])), 0
        if m["quote"]:
            if not m["close"]:
                raise ValueError("unterminated string")
            self._next()
            return Text(_unescape(m["text"])), 0
        if m["number"]:
            self._next()
            raw = m["number"]
            try:
                value = float(raw) if "." in raw else int(raw)
            except ValueError:  # more digits than ``int`` converts
                value = None
            if value is None or value == float("inf"):  # a decimal past float's range reads as inf
                raise ValueError("number too large")
            return Number(value), 0
        if m["call"]:
            name = m["call"]
            self._next()
            if self.ch != "(":
                raise ValueError(f"function name {name!r} must be followed by '('")
            self._next()
            self.open = self._level(self.open + 1)
            args: list[Formula] = []
            depth = 0
            while self.ch != ")":
                if args:
                    if self.ch != ",":
                        raise ValueError("expected ',' or ')' in argument list")
                    self._next()
                arg, arg_depth = self._expr()
                args.append(arg)
                depth = max(depth, arg_depth)
            self._next()
            self.open -= 1
            return Call(name, tuple(args)), self._level(depth + 1)
        raise ValueError(f"unexpected {ch!r} in formula")


# ---------------------------------------------------------------------------
# Field domains
# ---------------------------------------------------------------------------


class BasicDomain(_Record):
    """One of the five basic data domains: text, number, money, date, time."""

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        if kind not in BASIC_DOMAIN_KINDS:
            raise ValueError(f"unknown basic domain {kind!r}")
        self._setters[0](self, kind)


# The checks of ReferenceDomain and EnumeratedDomain raise "<problem>: <domain
# quoted>". _domain_from_text keeps the text before the first ": " and quotes
# the domain as the user wrote it, so a problem must not contain ": ".
class ReferenceDomain(_Record):
    """Domain of a reference field: a type of business object."""

    __slots__ = ("target",)

    def __init__(self, target: str) -> None:
        if not IDENTIFIER_RE.fullmatch(target):
            raise ValueError(f"reference domain needs a type name: {'ref:' + target!r}")
        self._setters[0](self, target)


class EnumeratedDomain(_Record):
    """Closed set of literal values, e.g. ``enum:theo|prac``."""

    __slots__ = ("literals",)

    def __init__(self, literals: tuple[str, ...]) -> None:
        if not literals or not all(map(IDENTIFIER_RE.fullmatch, literals)):
            raise ValueError(f"bad enumerated domain: {'enum:' + '|'.join(literals)!r}")
        if len(set(literals)) != len(literals):
            raise ValueError(f"duplicate literals in enumerated domain: {'enum:' + '|'.join(literals)!r}")
        self._setters[0](self, literals)


Domain = Union[BasicDomain, ReferenceDomain, EnumeratedDomain]

# The domain of each domain text read so far, seeded with the basic kinds;
# see ``_domain_from_text``.
_DOMAINS: dict[str, Domain] = {kind: BasicDomain(kind) for kind in BASIC_DOMAIN_KINDS}
_MAX_DOMAINS = 1024


def domain_to_text(d: Domain) -> str:
    if d.__class__ is BasicDomain:  # most domains, ahead of the match
        return d.kind
    match d:
        case ReferenceDomain(target):
            return f"ref:{target}"
        case EnumeratedDomain(literals):
            # A lone literal of several words keeps a '|', or it would be
            # read back as one literal per word.
            tail = "|" if len(literals) == 1 and " " in literals[0] else ""
            return "enum:" + "|".join(literals) + tail
    raise TypeError(f"not a domain: {d!r}")


def _domain_from_text(text: str, written: str | None = None) -> Domain:
    """The domain that ``text`` spells: a basic kind, ``ref:Type`` or
    ``enum:a|b`` (literals split at '|', or else at blanks). Errors quote
    ``written``, the text as the user wrote it, or else ``text``.

    Each domain is built once per process and kept in ``_DOMAINS`` under
    its text: the events of a project name the same business objects and
    value sets file after file, while within one file most domain texts
    are new, so a table per call would save little. The table is shared
    state, and safe as such: domains are immutable records, shared already
    as the basic ones and the parser's acquisitions are; it only grows, and
    stops at ``_MAX_DOMAINS`` entries, past which domains are built and not
    kept; without a lock, two threads that read the same new text at once
    at worst build two equal domains and keep one, and threads that meet
    at the bound pass it by one entry each. Only object identity can tell
    a kept domain from a new one.
    A text that fails is never kept, so it fails again, quoting its own
    ``written``, on every call."""
    domain = _DOMAINS.get(text)
    if domain is not None:
        return domain
    written = text if written is None else written
    try:
        if text.startswith("ref:"):
            domain = ReferenceDomain(text[4:].strip())
        elif text.startswith("enum:"):
            body = text[5:].strip()
            parts = body.split("|") if "|" in body else body.split()
            domain = EnumeratedDomain(tuple(p.strip() for p in parts if p.strip()))
    except ValueError as exc:  # the constructor's "<problem>: <domain>"; quote the domain as written
        problem = str(exc).partition(": ")[0]
        raise ValueError(f"{problem}: {written!r}") from None
    if domain is not None:
        if len(_DOMAINS) < _MAX_DOMAINS:
            _DOMAINS[text] = domain
        return domain
    raise ValueError(
        f"unknown domain {written!r} (expected one of {', '.join(BASIC_DOMAIN_KINDS)}, "
        "'ref:Type', or 'enum:a|b')"
    )


# ---------------------------------------------------------------------------
# Field properties
# ---------------------------------------------------------------------------


class Acquisition(_Record):
    """Provenance of a field's value: input 'i', generation 'g', or
    derivation 'd' (which may carry a derivation formula)."""

    __slots__ = ("op", "formula")

    def __init__(self, op: str, formula: Formula | None = None) -> None:
        if formula is not None and op != "d":
            raise ValueError("a derivation formula requires op=d")
        if op not in ("i", "g", "d"):
            raise ValueError(f"unknown acquisition operation {op!r}")
        set_op, set_formula = self._setters
        set_op(self, op)
        set_formula(self, formula)


# The types of a flag's value: ``bool`` cannot be subclassed, so these are exact.
_FLAG_TYPES = frozenset((bool, type(None)))


class FieldProperties(_Record):
    """The annotations of one field: acquisition, domain, example,
    description, label, memory link, compulsoriness, initialisation and
    visibility; ``None`` marks a property left unstated."""

    __slots__ = (
        "acquisition",
        "domain",
        "example",
        "description",
        "label",
        "memory_link",
        "compulsory",
        "initialisation",
        "visible",
    )

    def __init__(
        self,
        acquisition: Acquisition | None = None,
        domain: Domain | None = None,
        example: str | None = None,
        description: str | None = None,
        label: str | None = None,
        memory_link: str | None = None,
        compulsory: bool | None = None,
        initialisation: Formula | None = None,
        visible: bool | None = None,
    ) -> None:
        if memory_link is not None:
            _check_link(memory_link)
        if type(compulsory) not in _FLAG_TYPES or type(visible) not in _FLAG_TYPES:
            key, flag = ("visible", visible) if type(compulsory) in _FLAG_TYPES else ("compulsory", compulsory)
            raise ValueError(f"{key} must be True, False or None, found {flag!r}")
        (
            set_acquisition,
            set_domain,
            set_example,
            set_description,
            set_label,
            set_memory_link,
            set_compulsory,
            set_initialisation,
            set_visible,
        ) = self._setters
        set_acquisition(self, acquisition)
        set_domain(self, domain)
        set_example(self, example)
        set_description(self, description)
        set_label(self, label)
        set_memory_link(self, memory_link)
        set_compulsory(self, compulsory)
        set_initialisation(self, initialisation)
        set_visible(self, visible)

    def to_mapping(self) -> dict[str, str]:
        """Present properties as annotation key/value text, in print order."""
        out: dict[str, str] = {}
        if self.acquisition is not None:
            out["op"] = self.acquisition.op
        if self.domain is not None:
            out["domain"] = domain_to_text(self.domain)
        if self.example is not None:
            out["example"] = self.example
        if self.description is not None:
            out["desc"] = self.description
        if self.label is not None:
            out["label"] = self.label
        if self.memory_link is not None:
            out["link"] = self.memory_link
        if self.compulsory is not None:
            out["required"] = "true" if self.compulsory else "false"
        if self.initialisation is not None:
            out["init"] = formula_to_text(self.initialisation)
        if self.visible is not None:
            out["visible"] = "true" if self.visible else "false"
        if self.acquisition is not None and self.acquisition.formula is not None:
            out["formula"] = formula_to_text(self.acquisition.formula)
        return out


EMPTY_PROPERTIES = FieldProperties()


def _check_link(link: str) -> None:
    if not MEMORY_LINK_RE.fullmatch(link):
        raise ValueError(f"link must be 'Entity.attribute': {link!r}")


# ---------------------------------------------------------------------------
# Substructures
# ---------------------------------------------------------------------------


class _Node(_Record):
    """Structural equality for the tree's nodes: equal class and equal flat
    keys, read off ``walk`` without recursion. A key has one entry per node
    (kind, name, and a field's properties or a complex node's part counts)
    and leaves spans out."""

    __slots__ = ()

    def _key(self) -> tuple:
        key: list = []
        for node in walk(self):
            kind = type(node)
            if kind is Field:
                key.append((Field, node.name, node.properties))
            elif kind is Specialisation:
                key.append((Specialisation, node.name, tuple(map(len, node.variants))))
            else:
                key.append((kind, node.name, len(node.parts)))
        return tuple(key)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class Field(_Node):
    """Leaf element: a basic informational unit of the message."""

    __slots__ = ("name", "properties", "span")
    parts = ()

    def __init__(
        self, name: str, properties: FieldProperties = EMPTY_PROPERTIES, span: SourceSpan | None = None
    ) -> None:
        if not IDENTIFIER_RE.fullmatch(name):
            raise ValueError(f"invalid field name {name!r}")
        set_name, set_properties, set_span = self._setters
        set_name(self, name)
        set_properties(self, properties)
        set_span(self, span)


class Aggregation(_Node):
    """Ordered grouping ``< a + b + ... >``; the parts remain one whole."""

    __slots__ = ("name", "children", "span")

    def __init__(self, name: str | None, children: tuple[Substructure, ...], span: SourceSpan | None = None) -> None:
        _check_complex(name, children)
        set_name, set_children, set_span = self._setters
        set_name(self, name)
        set_children(self, children)
        set_span(self, span)


class Iteration(_Node):
    """Repetition ``{ ... }``: a set of the contained substructure list."""

    __slots__ = ("name", "children", "span")

    def __init__(self, name: str | None, children: tuple[Substructure, ...], span: SourceSpan | None = None) -> None:
        _check_complex(name, children)
        set_name, set_children, set_span = self._setters
        set_name(self, name)
        set_children(self, children)
        set_span(self, span)


class Specialisation(_Node):
    """Structural alternatives ``[ a | b ]``; a single variant expresses
    optionality of its content."""

    __slots__ = ("name", "variants", "span")

    def __init__(
        self, name: str | None, variants: tuple[tuple[Substructure, ...], ...], span: SourceSpan | None = None
    ) -> None:
        if not variants:
            raise ValueError("specialisation needs at least one variant")
        for variant in variants:
            if type(variant) is not tuple:
                raise ValueError(f"not a substructure: {variant!r}")
            _check_complex(name, variant, "specialisation variant may not be empty")
        set_name, set_variants, set_span = self._setters
        set_name(self, name)
        set_variants(self, variants)
        set_span(self, span)


# The parts the traversals read; a variant is a tuple, its own parts.
Aggregation.parts = Aggregation.children
Iteration.parts = Iteration.children
Specialisation.parts = Specialisation.variants


# What a complex substructure holds, as its children or in its variants.
_SUBSTRUCTURE_KINDS = frozenset((Field, Aggregation, Iteration, Specialisation))


def _check_complex(name: str | None, children: tuple, empty="complex substructure needs at least one child") -> None:
    if name is not None and not IDENTIFIER_RE.fullmatch(name):
        raise ValueError(f"invalid substructure name {name!r}")
    if not children:
        raise ValueError(empty)
    # By exact type, one child at a time (cheaper than a set test over a
    # `map` at the sizes trees have): a tuple, or any other value, is refused.
    for child in children:
        if type(child) not in _SUBSTRUCTURE_KINDS:
            raise ValueError(f"not a substructure: {child!r}")


Substructure = Union[Field, Aggregation, Iteration, Specialisation]


class MessageStructure(_Node):
    """Named root of the tree. The initial substructure is an aggregation or
    an iteration; any other root raises ``ValueError``, which the parser
    reports as P004."""

    __slots__ = ("name", "root", "span")

    def __init__(self, name: str, root: Aggregation | Iteration, span: SourceSpan | None = None) -> None:
        if not IDENTIFIER_RE.fullmatch(name):
            raise ValueError(f"invalid structure name {name!r}")
        if not isinstance(root, (Aggregation, Iteration)):
            kind = type(root).__name__.lower()
            raise ValueError(f"a {kind} cannot be the initial substructure")
        set_name, set_root, set_span = self._setters
        set_name(self, name)
        set_root(self, root)
        set_span(self, span)

    def _key(self) -> tuple:
        return self.name, self.root._key()


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------


def walk(node: MessageStructure | Substructure | Formula) -> Iterator[Substructure | Formula]:
    """Depth-first pre-order over every node of a structure (from its root)
    or of a formula, each visited once; a specialisation's variants come in
    order, and the children of each variant in order. It reads each node's
    ``parts`` off an explicit stack, so it is linear in the number of nodes
    at any depth and never meets the interpreter's recursion limit."""
    stack = [getattr(node, "root", node)]
    while stack:
        node = stack.pop()
        yield node
        parts = node.parts
        if parts:
            if type(parts[0]) is tuple:  # a specialisation's variants
                parts = [child for variant in parts for child in variant]
            stack.extend(reversed(parts))


def iter_fields(node: MessageStructure | Substructure) -> Iterator[Field]:
    return (n for n in walk(node) if not n.parts)


def field_names(node: MessageStructure | Substructure) -> list[str]:
    return [f.name for f in iter_fields(node)]


_LEAVE = object()


def _traverse(node: Substructure | Formula) -> Iterator[tuple[bool | None, Substructure | Formula | tuple]]:
    """Depth-first over the items under ``node`` (nodes, and variants),
    with an explicit stack. An item with parts is yielded as ``(True, item)``
    on entry and ``(False, item)`` after its parts; a leaf, once, as
    ``(None, item)``. So an item entered right after another's entry is its
    first part; any other follows a sibling."""
    # Items left to enter, and the leave mark with the item it closes.
    stack: list = [node]
    while stack:
        item = stack.pop()
        if item is _LEAVE:
            yield False, stack.pop()
            continue
        parts = item if type(item) is tuple else item.parts
        if not parts:
            yield None, item
            continue
        yield True, item
        stack += (item, _LEAVE)
        stack.extend(reversed(parts))


def _fold(node: Substructure | Formula, build):
    """Post-order fold over ``_traverse``: ``build(item, results)`` gets each
    item with the list of its parts' results (empty for a leaf) and returns
    the item's own. ``results`` holds one list per open item."""
    results: list = [[]]
    for entering, item in _traverse(node):
        if entering:
            results.append([])
        else:
            value = build(item, () if entering is None else results.pop())
            results[-1].append(value)
    return results[0][0]


# ---------------------------------------------------------------------------
# Canonical form and equivalence
# ---------------------------------------------------------------------------


def canonicalize(ms: MessageStructure) -> MessageStructure:
    """Rewrite a structure into canonical form.

    The surface syntax allows the same structure to be written several ways:
    complex substructure names may be omitted, and the aggregation implicit
    in every iteration and in every specialisation variant may be left out.
    The canonical form makes those aggregations explicit and erases
    complex-substructure names (they are documentation, not semantics).
    Field order and nesting are preserved; the rewrite is idempotent.
    """

    def build(item: Substructure | tuple, parts: list) -> Substructure | tuple:
        if not parts:
            return item
        kind = type(item)
        if kind is tuple:
            return tuple(parts)
        if kind is Iteration:
            parts = [_wrap(tuple(parts), item.span)]
        elif kind is Specialisation:
            parts = [(_wrap(variant, item.span),) for variant in parts]
        return kind(None, tuple(parts), span=item.span)

    return _replace(ms, root=_fold(ms.root, build))


def _wrap(items: tuple[Substructure, ...], span: SourceSpan | None) -> Aggregation:
    return _lone_aggregation(items) or Aggregation(None, items, span=span)


def _lone_aggregation(items: tuple[Substructure, ...]) -> Aggregation | None:
    """The aggregation written alone as an iteration body or a variant, which
    canonical form keeps; ``None`` when canonical form wraps ``items``."""
    return items[0] if len(items) == 1 and isinstance(items[0], Aggregation) else None


def _canonical_name(items: tuple[Substructure, ...]) -> str | None:
    """The name canonical form reads off an iteration body or a variant."""
    only = _lone_aggregation(items)
    return None if only is None else only.name


def equivalent(a: MessageStructure, b: MessageStructure) -> bool:
    """Structural equivalence: equal canonical trees.

    The root structure name, field names, field order, and the nesting of
    complex-substructure kinds all matter; complex-substructure names and
    field properties do not.
    """
    return _shape(a) == _shape(b)


def _shape(ms: MessageStructure) -> tuple:
    # The structure name, then one token per node of the canonical tree in
    # pre-order: a field's name, or a complex node's kind and part count.
    # The counts make the token sequence determine the tree, and a flat
    # tuple compares without recursion however deep the tree is.
    #
    # The tokens are read off the tree as written, without building the
    # canonical one: the content of an iteration or of a variant is pushed
    # as a tuple, which stands for the aggregation canonical form makes of it.
    tokens: list = [ms.name]
    stack: list = [ms.root]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Field:  # the most common node, and its parts are none
            tokens.append(node.name)
            continue
        if kind is tuple:
            only = _lone_aggregation(node)
            if only is not None:
                stack.append(only)
                continue
            kind, parts = Aggregation, node
        else:
            parts = node.parts
        if kind is Iteration:
            tokens.append((Iteration, 1))
            stack.append(parts)
        else:
            tokens.append((kind, len(parts)))
            stack.extend(reversed(parts))
    return tuple(tokens)
