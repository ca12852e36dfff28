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
from typing import Iterator, Union

from .diagnostics import SourceSpan, _Record, _replace, _set


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


# Quoted text: what a '\\' escape stands for, both ways. An unknown escape
# reads as written.
_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\t": "\\t", "\n": "\\n", "\r": "\\r"})
_UNESCAPES = {"\\": "\\", '"': '"', "'": "'", "t": "\t", "n": "\n", "r": "\r"}
_UNESCAPE_RE = re.compile(r"\\([\s\S]?)")


def _escape(value: str) -> str:
    return value.translate(_ESCAPES)


def _unescape(text: str) -> str:
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPES.get(m[1], "\\" + m[1]), text)


# ---------------------------------------------------------------------------
# Formulas (derivation and initialisation expressions)
# ---------------------------------------------------------------------------


class FieldRef(_Record):
    """Reference to a sibling field's value, written ``:Field name``."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class Number(_Record):
    """Numeric literal in a formula, e.g. ``100`` or ``0.21``."""

    __slots__ = ("value",)

    def __init__(self, value: Union[int, float]) -> None:
        _set(self, "value", value)


class Text(_Record):
    """Quoted string literal in a formula, e.g. ``'EUR'``."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        _set(self, "value", value)


class BinaryOp(_Record):
    """Arithmetic on two sub-formulas, e.g. ``:Price * :Quantity``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Formula, right: Formula) -> None:
        _set(self, "op", op)  # one of + - * /
        _set(self, "left", left)
        _set(self, "right", right)


class Call(_Record):
    """Function application, e.g. ``today()``."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[Formula, ...] = ()) -> None:
        _set(self, "name", name)
        _set(self, "args", args)


Formula = Union[FieldRef, Number, Text, BinaryOp, Call]

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_TIGHTEST = max(_PRECEDENCE.values())


def formula_to_text(f: Formula) -> str:
    """Render a formula to its canonical textual form (re-parseable)."""
    match f:
        case FieldRef(name):
            return f":{name}"
        case Number(value):
            # Positional, as the number token reads it: 1e-05 is 0.00001.
            text = repr(value)
            if "e" in text:
                from decimal import Decimal

                text = f"{Decimal(text):f}"
            return text if "." in text or isinstance(value, int) else text + ".0"
        case Text(value):
            return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
        case Call(name, args):
            return f"{name}({', '.join(formula_to_text(a) for a in args)})"
        case BinaryOp(op, left, right):
            lhs = formula_to_text(left)
            rhs = formula_to_text(right)
            if isinstance(left, BinaryOp) and _PRECEDENCE[left.op] < _PRECEDENCE[op]:
                lhs = f"({lhs})"
            if isinstance(right, BinaryOp) and _PRECEDENCE[right.op] <= _PRECEDENCE[op]:
                rhs = f"({rhs})"
            return f"{lhs} {op} {rhs}"
    raise TypeError(f"not a formula node: {f!r}")


def formula_refs(f: Formula) -> list[str]:
    """Field names referenced anywhere inside a formula, in reading order."""
    match f:
        case FieldRef(name):
            return [name]
        case BinaryOp(_, left, right):
            return formula_refs(left) + formula_refs(right)
        case Call(_, args):
            return [r for a in args for r in formula_refs(a)]
        case _:
            return []


# The deepest nesting of a formula (see ``_FormulaParser``). A formula at
# this depth, inside a structure ``MAX_NESTING`` deep, still parses, prints,
# compares and hashes within the interpreter's default recursion limit.
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
            return Number(float(raw) if "." in raw else int(raw)), 0
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
        _set(self, "kind", kind)


# The checks of ReferenceDomain and EnumeratedDomain raise "<problem>: <domain
# quoted>". _domain_from_text keeps the text before the first ": " and quotes
# the domain as the user wrote it, so a problem must not contain ": ".
class ReferenceDomain(_Record):
    """Domain of a reference field: a type of business object."""

    __slots__ = ("target",)

    def __init__(self, target: str) -> None:
        if not IDENTIFIER_RE.fullmatch(target):
            raise ValueError(f"reference domain needs a type name: {'ref:' + target!r}")
        _set(self, "target", target)


class EnumeratedDomain(_Record):
    """Closed set of literal values, e.g. ``enum:theo|prac``."""

    __slots__ = ("literals",)

    def __init__(self, literals: tuple[str, ...]) -> None:
        if not literals or not all(map(IDENTIFIER_RE.fullmatch, literals)):
            raise ValueError(f"bad enumerated domain: {'enum:' + '|'.join(literals)!r}")
        if len(set(literals)) != len(literals):
            raise ValueError(f"duplicate literals in enumerated domain: {'enum:' + '|'.join(literals)!r}")
        _set(self, "literals", literals)


Domain = Union[BasicDomain, ReferenceDomain, EnumeratedDomain]

# Domains are immutable, so each basic one is built once and shared.
_BASIC_DOMAINS = {kind: BasicDomain(kind) for kind in BASIC_DOMAIN_KINDS}


def domain_to_text(d: Domain) -> str:
    match d:
        case BasicDomain(kind):
            return kind
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
    ``written``, the text as the user wrote it, or else ``text``."""
    written = text if written is None else written
    if text in _BASIC_DOMAINS:
        return _BASIC_DOMAINS[text]
    try:
        if text.startswith("ref:"):
            return ReferenceDomain(text[4:].strip())
        if text.startswith("enum:"):
            body = text[5:].strip()
            parts = body.split("|") if "|" in body else body.split()
            return EnumeratedDomain(tuple(p.strip() for p in parts if p.strip()))
    except ValueError as exc:  # the constructor's "<problem>: <domain>"; quote the domain as written
        problem = str(exc).partition(": ")[0]
        raise ValueError(f"{problem}: {written!r}") from None
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
        _set(self, "op", op)
        _set(self, "formula", formula)


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
        _set(self, "acquisition", acquisition)
        _set(self, "domain", domain)
        _set(self, "example", example)
        _set(self, "description", description)
        _set(self, "label", label)
        _set(self, "memory_link", memory_link)
        _set(self, "compulsory", compulsory)
        _set(self, "initialisation", initialisation)
        _set(self, "visible", visible)

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
    (kind, name, and a field's properties or a complex node's child counts)
    and leaves spans out."""

    __slots__ = ()

    def _key(self) -> tuple:
        key: list = [self.name] if isinstance(self, MessageStructure) else []
        for node in walk(self):
            if isinstance(node, Field):
                key.append((Field, node.name, node.properties))
            elif isinstance(node, Specialisation):
                key.append((Specialisation, node.name, tuple(map(len, node.variants))))
            else:
                key.append((type(node), node.name, len(node.children)))
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

    def __init__(
        self, name: str, properties: FieldProperties = EMPTY_PROPERTIES, span: SourceSpan | None = None
    ) -> None:
        if not IDENTIFIER_RE.fullmatch(name):
            raise ValueError(f"invalid field name {name!r}")
        _set(self, "name", name)
        _set(self, "properties", properties)
        _set(self, "span", span)


class Aggregation(_Node):
    """Ordered grouping ``< a + b + ... >``; the parts remain one whole."""

    __slots__ = ("name", "children", "span")

    def __init__(self, name: str | None, children: tuple[Substructure, ...], span: SourceSpan | None = None) -> None:
        _check_complex(name, children)
        _set(self, "name", name)
        _set(self, "children", children)
        _set(self, "span", span)


class Iteration(_Node):
    """Repetition ``{ ... }``: a set of the contained substructure list."""

    __slots__ = ("name", "children", "span")

    def __init__(self, name: str | None, children: tuple[Substructure, ...], span: SourceSpan | None = None) -> None:
        _check_complex(name, children)
        _set(self, "name", name)
        _set(self, "children", children)
        _set(self, "span", span)


class Specialisation(_Node):
    """Structural alternatives ``[ a | b ]``; a single variant expresses
    optionality of its content."""

    __slots__ = ("name", "variants", "span")

    def __init__(
        self, name: str | None, variants: tuple[tuple[Substructure, ...], ...], span: SourceSpan | None = None
    ) -> None:
        _check_complex(name, variants, "specialisation needs at least one variant")
        for variant in variants:
            if not variant:
                raise ValueError("specialisation variant may not be empty")
        _set(self, "name", name)
        _set(self, "variants", variants)
        _set(self, "span", span)


def _check_complex(name: str | None, parts: tuple, empty="complex substructure needs at least one child") -> None:
    if name is not None and not IDENTIFIER_RE.fullmatch(name):
        raise ValueError(f"invalid substructure name {name!r}")
    if not parts:
        raise ValueError(empty)


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
        _set(self, "name", name)
        _set(self, "root", root)
        _set(self, "span", span)


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------


def walk(node: MessageStructure | Substructure) -> Iterator[Substructure]:
    """Depth-first pre-order over every substructure, each visited once.

    A structure yields its root first; a specialisation's variants come in
    order, and the children of each variant in order. The traversal keeps
    an explicit stack, so it is linear in the number of nodes at any depth
    and never meets the interpreter's recursion limit. So do node ``==``
    and ``hash``, which compare keys read off this walk, every stage built
    on ``_traverse``, and ``repr``, which keeps a stack of its own.
    """
    stack = [node.root if isinstance(node, MessageStructure) else node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Aggregation, Iteration)):
            stack.extend(reversed(node.children))
        elif isinstance(node, Specialisation):
            for variant in reversed(node.variants):
                stack.extend(reversed(variant))


def iter_fields(node: MessageStructure | Substructure) -> Iterator[Field]:
    return (n for n in walk(node) if isinstance(n, Field))


def field_names(node: MessageStructure | Substructure) -> list[str]:
    return [f.name for f in iter_fields(node)]


_LEAVE = object()


def _traverse(node: Substructure) -> Iterator[tuple[bool, Substructure | tuple]]:
    """Depth-first over the items under ``node``, with an explicit stack.
    An item (a substructure, or a specialisation's variant, which is a tuple
    of substructures) is yielded as ``(True, item)`` on entry and, unless it
    is a field, as ``(False, item)`` after its parts. So an item entered
    right after another's entry is its first part; any other follows a
    sibling."""
    # Items left to enter, and the leave mark with the item it closes.
    stack: list = [node]
    while stack:
        item = stack.pop()
        if item is _LEAVE:
            yield False, stack.pop()
            continue
        yield True, item
        if isinstance(item, Field):
            continue
        if isinstance(item, tuple):
            parts = item
        elif isinstance(item, Specialisation):
            parts = item.variants
        else:
            parts = item.children
        stack += (item, _LEAVE)
        stack.extend(reversed(parts))


def _fold(node: Substructure, build):
    """Post-order fold over ``_traverse``: ``build(item, results)`` gets each
    item with the list of its parts' results and returns the item's own."""
    results: list = []
    starts: list[int] = []
    for entering, item in _traverse(node):
        if isinstance(item, Field):
            results.append(build(item, []))
        elif entering:
            starts.append(len(results))
        else:
            start = starts.pop()
            value = build(item, results[start:])
            del results[start:]
            results.append(value)
    return results[0]


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
        if isinstance(item, Field):
            return item
        if isinstance(item, tuple):
            return tuple(parts)
        if isinstance(item, Aggregation):
            return Aggregation(None, tuple(parts), span=item.span)
        if isinstance(item, Iteration):
            return Iteration(None, (_wrap(tuple(parts), item.span),), span=item.span)
        variants = tuple((_wrap(variant, item.span),) for variant in parts)
        return Specialisation(None, variants, span=item.span)

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
    # pre-order: a field's name, or a complex node's kind and child count.
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
        if isinstance(node, Field):
            tokens.append(node.name)
        elif isinstance(node, tuple):
            only = _lone_aggregation(node)
            if only is not None:
                stack.append(only)
            else:
                tokens.append((Aggregation, len(node)))
                stack.extend(reversed(node))
        elif isinstance(node, Aggregation):
            tokens.append((Aggregation, len(node.children)))
            stack.extend(reversed(node.children))
        elif isinstance(node, Iteration):
            tokens.append((Iteration, 1))
            stack.append(node.children)
        elif isinstance(node, Specialisation):
            tokens.append((Specialisation, len(node.variants)))
            stack.extend(reversed(node.variants))
        else:
            raise TypeError(f"not a substructure: {node!r}")
    return tuple(tokens)
