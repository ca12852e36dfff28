"""Abstract syntax tree for message structures: node types, canonical form,
structural equivalence, and traversal.

A message structure is a named tree built from three complex substructure
kinds (aggregation ``< >``, iteration ``{ }``, specialisation ``[ | ]``) with
fields at the leaves. All nodes are immutable; every operation here is a pure
function, so values are safe to share across threads.

Equality on nodes is structural and ignores source spans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Iterator, Union

from .diagnostics import SourceSpan

# Names start with a letter and may contain letters, digits, hyphens, and
# single internal spaces ("Person in charge").
IDENTIFIER_RE = re.compile(r"[A-Za-z][A-Za-z0-9-]*(?: [A-Za-z0-9][A-Za-z0-9-]*)*")

# Correspondence with a stored attribute: "Entity.attribute".
MEMORY_LINK_RE = re.compile(
    r"[A-Za-z][A-Za-z0-9 -]*\.[A-Za-z][A-Za-z0-9 -]*"
)

BASIC_DOMAIN_KINDS = ("text", "number", "money", "date", "time")


def is_identifier(name: str) -> bool:
    return IDENTIFIER_RE.fullmatch(name) is not None


# ---------------------------------------------------------------------------
# Formulas (derivation and initialisation expressions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldRef:
    """Reference to a sibling field's value, written ``:Field name``."""

    name: str


@dataclass(frozen=True)
class Number:
    value: Union[int, float]


@dataclass(frozen=True)
class Text:
    value: str


@dataclass(frozen=True)
class BinaryOp:
    op: str  # one of + - * /
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Call:
    """Function application, e.g. ``today()``."""

    name: str
    args: tuple["Formula", ...] = ()


Formula = Union[FieldRef, Number, Text, BinaryOp, Call]

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def formula_to_text(f: Formula) -> str:
    """Render a formula to its canonical textual form (re-parseable)."""
    match f:
        case FieldRef(name):
            return f":{name}"
        case Number(value):
            return repr(value)
        case Text(value):
            escaped = value.replace("\\", "\\\\").replace("'", "\\'")
            return f"'{escaped}'"
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


# ---------------------------------------------------------------------------
# Field domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasicDomain:
    """One of the five basic data domains: text, number, money, date, time."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in BASIC_DOMAIN_KINDS:
            raise ValueError(f"unknown basic domain {self.kind!r}")


@dataclass(frozen=True)
class ReferenceDomain:
    """Domain of a reference field: a type of business object."""

    target: str


@dataclass(frozen=True)
class EnumeratedDomain:
    """Closed set of literal values, e.g. ``enum:theo|prac``."""

    literals: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.literals:
            raise ValueError("enumerated domain needs at least one literal")
        if len(set(self.literals)) != len(self.literals):
            raise ValueError(f"duplicate enum literals in {self.literals}")


Domain = Union[BasicDomain, ReferenceDomain, EnumeratedDomain]


def domain_to_text(d: Domain) -> str:
    match d:
        case BasicDomain(kind):
            return kind
        case ReferenceDomain(target):
            return f"ref:{target}"
        case EnumeratedDomain(literals):
            return "enum:" + "|".join(literals)
    raise TypeError(f"not a domain: {d!r}")


# ---------------------------------------------------------------------------
# Field properties
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Acquisition:
    """Provenance of a field's value: input 'i', generation 'g', or
    derivation 'd' (which may carry a derivation formula)."""

    op: str
    formula: Formula | None = None

    def __post_init__(self) -> None:
        if self.op not in ("i", "g", "d"):
            raise ValueError(f"unknown acquisition operation {self.op!r}")
        if self.formula is not None and self.op != "d":
            raise ValueError("only derivation ('d') carries a formula")


@dataclass(frozen=True)
class FieldProperties:
    acquisition: Acquisition | None = None
    domain: Domain | None = None
    example: str | None = None
    description: str | None = None
    label: str | None = None
    memory_link: str | None = None
    compulsory: bool | None = None
    initialisation: Formula | None = None
    visible: bool | None = None

    def __post_init__(self) -> None:
        if self.memory_link is not None and not MEMORY_LINK_RE.fullmatch(self.memory_link):
            raise ValueError(f"memory link must be 'Entity.attribute': {self.memory_link!r}")

    def is_empty(self) -> bool:
        return self == EMPTY_PROPERTIES

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


# ---------------------------------------------------------------------------
# Substructures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """Leaf element: a basic informational unit of the message."""

    name: str
    properties: FieldProperties = EMPTY_PROPERTIES
    span: SourceSpan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not is_identifier(self.name):
            raise ValueError(f"invalid field name {self.name!r}")


@dataclass(frozen=True)
class Aggregation:
    """Ordered grouping ``< a + b + ... >``; the parts remain one whole."""

    name: str | None
    children: tuple["Substructure", ...]
    span: SourceSpan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _check_complex(self.name, self.children)


@dataclass(frozen=True)
class Iteration:
    """Repetition ``{ ... }``: a set of the contained substructure list."""

    name: str | None
    children: tuple["Substructure", ...]
    span: SourceSpan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _check_complex(self.name, self.children)


@dataclass(frozen=True)
class Specialisation:
    """Structural alternatives ``[ a | b ]``; a single variant expresses
    optionality of its content."""

    name: str | None
    variants: tuple[tuple["Substructure", ...], ...]
    span: SourceSpan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.name is not None and not is_identifier(self.name):
            raise ValueError(f"invalid substructure name {self.name!r}")
        if not self.variants:
            raise ValueError("specialisation needs at least one variant")
        for variant in self.variants:
            if not variant:
                raise ValueError("specialisation variant may not be empty")


def _check_complex(name: str | None, children: tuple) -> None:
    if name is not None and not is_identifier(name):
        raise ValueError(f"invalid substructure name {name!r}")
    if not children:
        raise ValueError("complex substructure needs at least one child")


Complex = Union[Aggregation, Iteration, Specialisation]
Substructure = Union[Field, Aggregation, Iteration, Specialisation]


@dataclass(frozen=True)
class MessageStructure:
    """Named root of the tree. The initial substructure is an aggregation or
    an iteration (a specialisation root is rejected by the parser and, for
    programmatically built trees, reported by the guideline checks)."""

    name: str
    root: Complex
    span: SourceSpan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not is_identifier(self.name):
            raise ValueError(f"invalid structure name {self.name!r}")


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------


def walk(node: MessageStructure | Substructure) -> Iterator[Substructure]:
    """Depth-first pre-order over every substructure, each visited once."""
    if isinstance(node, MessageStructure):
        yield from walk(node.root)
        return
    yield node
    match node:
        case Aggregation(_, children) | Iteration(_, children):
            for child in children:
                yield from walk(child)
        case Specialisation(_, variants):
            for variant in variants:
                for child in variant:
                    yield from walk(child)


def iter_fields(node: MessageStructure | Substructure) -> Iterator[Field]:
    return (n for n in walk(node) if isinstance(n, Field))


def field_names(node: MessageStructure | Substructure) -> list[str]:
    return [f.name for f in iter_fields(node)]


# ---------------------------------------------------------------------------
# Canonical form and equivalence
# ---------------------------------------------------------------------------


def canonicalize(ms: MessageStructure, *, keep_names: bool = False) -> MessageStructure:
    """Rewrite a structure into canonical form.

    The surface syntax allows the same structure to be written several ways:
    complex substructure names may be omitted, and the aggregation implicit
    in every iteration and in every specialisation variant may be left out.
    The canonical form makes those aggregations explicit and, by default,
    erases complex-substructure names (they are documentation, not
    semantics). Field order and nesting are preserved; the rewrite is
    idempotent.

    ``keep_names=True`` performs the same structural rewrite but retains
    names; the class-diagram derivation and the fragmenter rely on it.
    """
    return replace(ms, root=_canon(ms.root, keep_names))


def _canon(node: Substructure, keep_names: bool) -> Substructure:
    match node:
        case Field():
            return node
        case Aggregation(name, children):
            return Aggregation(
                name if keep_names else None,
                tuple(_canon(c, keep_names) for c in children),
                span=node.span,
            )
        case Iteration(name, children):
            inner = tuple(_canon(c, keep_names) for c in children)
            return Iteration(
                name if keep_names else None,
                (_wrap(inner, node.span),),
                span=node.span,
            )
        case Specialisation(name, variants):
            wrapped = tuple(
                _wrap(tuple(_canon(c, keep_names) for c in variant), node.span)
                for variant in variants
            )
            return Specialisation(
                name if keep_names else None,
                tuple((v,) for v in wrapped),
                span=node.span,
            )
    raise TypeError(f"not a substructure: {node!r}")


def _wrap(items: tuple[Substructure, ...], span: SourceSpan | None) -> Substructure:
    # The content of an iteration (or of a variant) is implicitly aggregated;
    # keep an existing explicit aggregation, otherwise add an anonymous one.
    if len(items) == 1 and isinstance(items[0], Aggregation):
        return items[0]
    return Aggregation(None, items, span=span)


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
    tokens: list = [ms.name]
    for node in walk(canonicalize(ms)):
        if isinstance(node, Field):
            tokens.append(node.name)
        elif isinstance(node, Specialisation):
            tokens.append((Specialisation, len(node.variants)))
        else:
            tokens.append((type(node), len(node.children)))
    return tuple(tokens)
