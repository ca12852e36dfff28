"""Hypothesis generators for message-structure trees.

``structures()`` draws arbitrary well-formed trees (with properties) for
round-trip, canonicalisation, and fragmentation properties. ``resugared``
applies meaning-preserving rewrites (rename complexes, make implicit
aggregations explicit or vice versa) to build equivalent-by-construction
pairs. ``diagram_projects`` draws lists of structures with globally unique
class-bearing names so that derivation and integration are conflict-free.
"""

from __future__ import annotations

import string

from hypothesis import strategies as st

from msgstruct.core import (
    Acquisition,
    Aggregation,
    BASIC_DOMAIN_KINDS,
    BasicDomain,
    BinaryOp,
    Call,
    EnumeratedDomain,
    Field,
    FieldProperties,
    FieldRef,
    Iteration,
    MessageStructure,
    Number,
    ReferenceDomain,
    Specialisation,
    Text,
)

_LETTERS = string.ascii_letters
_WORD_CHARS = _LETTERS + string.digits + "-"

_first_word = st.builds(
    lambda a, b: a + b, st.sampled_from(_LETTERS), st.text(_WORD_CHARS, max_size=3)
)
_extra_word = st.builds(
    lambda a, b: " " + a + b,
    st.sampled_from(_WORD_CHARS[:-1]),
    st.text(_WORD_CHARS, max_size=2),
)


# Mostly single words; multi-word names appear often enough to matter.
_names = st.builds(
    lambda f, s: f + (s or ""), _first_word, st.none() | st.none() | _extra_word
)


def names(max_words: int = 2):
    return _first_word if max_words == 1 else _names


maybe_names = st.none() | names()

# Free-text property values; includes quotes, backslashes, tabs, and
# newlines to exercise the escaping in both print styles.
value_texts = st.text(
    alphabet=string.ascii_letters + string.digits + " .,:;'\"\\()|<>{}[]+=#\t\n€-",
    max_size=12,
)


@st.composite
def formulas(draw, depth: int = 2):
    atoms = [
        st.builds(FieldRef, names()),
        # Every number the grammar reads: below 1e-4 and from 1e16 up,
        # ``repr`` writes an exponent, which the printer must not.
        st.builds(Number, st.integers(0, 10**30)),
        st.builds(Number, st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)),
        st.builds(Text, value_texts),
        st.builds(
            Call,
            st.sampled_from(["today", "now", "max", "round", "f_1"]),
            st.just(()),
        ),
    ]
    if depth <= 0:
        return draw(st.one_of(atoms))
    node = draw(st.one_of(atoms + [st.just(None)]))
    if node is not None:
        return node
    kind = draw(st.sampled_from(["bin", "call"]))
    if kind == "bin":
        return BinaryOp(
            draw(st.sampled_from("+-*/")),
            draw(formulas(depth - 1)),
            draw(formulas(depth - 1)),
        )
    args = tuple(
        draw(formulas(depth - 1)) for _ in range(draw(st.integers(1, 2)))
    )
    return Call(draw(st.sampled_from(["max", "coalesce"])), args)


# Reference targets include the basic kind names, and enum literals may have
# several words: every domain the constructors accept must print and re-read.
domains = st.one_of(
    st.builds(BasicDomain, st.sampled_from(BASIC_DOMAIN_KINDS)),
    st.builds(ReferenceDomain, names() | st.sampled_from(BASIC_DOMAIN_KINDS)),
    st.builds(
        EnumeratedDomain,
        st.lists(names(), min_size=1, max_size=3, unique=True).map(tuple),
    ),
)

acquisitions = st.one_of(
    st.builds(Acquisition, st.sampled_from(["i", "g"])),
    st.builds(Acquisition, st.just("d"), st.none() | formulas()),
)

memory_links = st.builds(
    lambda a, b: f"{a}.{b}", names(max_words=1), names(max_words=1)
)

_rich_properties = st.builds(
    FieldProperties,
    acquisition=st.none() | acquisitions,
    domain=st.none() | domains,
    example=st.none() | value_texts,
    description=st.none() | value_texts,
    label=st.none() | value_texts,
    memory_link=st.none() | memory_links,
    compulsory=st.none() | st.booleans(),
    initialisation=st.none() | formulas(),
    visible=st.none() | st.booleans(),
)

# Two thirds of fields carry no properties; drawing the full record for
# every field would dominate generation time without adding coverage.
field_properties = st.one_of(
    st.just(FieldProperties()), st.just(FieldProperties()), _rich_properties
)

fields = st.builds(Field, names(), field_properties)


def _substructures(leaf):
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(
                lambda n, kids: Aggregation(n, tuple(kids)),
                maybe_names,
                st.lists(inner, min_size=1, max_size=3),
            ),
            st.builds(
                lambda n, kids: Iteration(n, tuple(kids)),
                maybe_names,
                st.lists(inner, min_size=1, max_size=3),
            ),
            st.builds(
                lambda n, vs: Specialisation(n, tuple(tuple(v) for v in vs)),
                maybe_names,
                st.lists(
                    st.lists(inner, min_size=1, max_size=2), min_size=1, max_size=3
                ),
            ),
        ),
        max_leaves=8,
    )


substructures = _substructures(fields)


def structures(node=substructures):
    """Message structures whose root aggregates or iterates 1-3 ``node``s."""
    return st.builds(
        lambda name, children, root, root_name: MessageStructure(
            name, root(root_name, tuple(children))
        ),
        names(),
        st.lists(node, min_size=1, max_size=3),
        st.sampled_from([Aggregation, Iteration]),
        maybe_names,
    )


bare_structures = structures(node=_substructures(st.builds(Field, names())))


# ---------------------------------------------------------------------------
# Meaning-preserving resugaring
# ---------------------------------------------------------------------------


def _is_single_aggregation(items: tuple) -> bool:
    return len(items) == 1 and isinstance(items[0], Aggregation)


@st.composite
def _resugar_body(draw, items: tuple, rename: bool) -> tuple:
    """Randomly toggle the implicit aggregation of an iteration body or a
    specialisation variant, preserving equivalence."""
    items = tuple(draw(_resugar_node(item, rename)) for item in items)
    if _is_single_aggregation(items) and items[0].name is None:
        inner = items[0].children
        if not _is_single_aggregation(inner) and draw(st.booleans()):
            return inner  # drop the explicit aggregation
    elif not _is_single_aggregation(items) and draw(st.booleans()):
        name = draw(maybe_names) if rename else None
        return (Aggregation(name, items),)  # make it explicit
    return items


@st.composite
def _resugar_node(draw, node, rename: bool):
    if isinstance(node, Field):
        return node
    new_name = draw(st.sampled_from(["keep", "drop", "fresh"])) if rename else "keep"
    name = node.name if new_name == "keep" else (
        None if new_name == "drop" else draw(names())
    )
    if isinstance(node, Aggregation):
        return Aggregation(name, tuple(draw(_resugar_node(c, rename)) for c in node.children))
    if isinstance(node, Iteration):
        return Iteration(name, draw(_resugar_body(node.children, rename)))
    return Specialisation(
        name, tuple(draw(_resugar_body(v, rename)) for v in node.variants)
    )


@st.composite
def resugared(draw, ms: MessageStructure, rename: bool = True) -> MessageStructure:
    """An equivalent structure: implicit aggregations written out or dropped
    and, if ``rename``, complex-substructure names kept, dropped or replaced.
    Without ``rename`` every name stays and each aggregation written out is
    anonymous."""
    root = draw(_resugar_node(ms.root, rename))
    if isinstance(root, Specialisation):  # keep the root well-formed
        root = ms.root
    return MessageStructure(ms.name, root)


@st.composite
def equivalent_pairs(draw):
    ms = draw(bare_structures)
    return ms, draw(resugared(ms))


# ---------------------------------------------------------------------------
# Derivation-safe projects (unique names, named variants)
# ---------------------------------------------------------------------------


class _NamePool:
    def __init__(self, shared_refs: bool = False) -> None:
        self.counter = 0
        self.shared_refs = shared_refs

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"


# The draws below are plain helpers over module-level strategies: building a
# strategy per node makes hypothesis validate it anew on every draw. _FRESH
# stands for the name the pool hands out just before the draw, so the pool's
# call order (and with it every generated name) is that of drawing
# ``st.none() | st.just(pool.fresh(...))``.
_FRESH = object()
_maybe_fresh = st.none() | st.just(_FRESH)
_one_to_three = st.integers(1, 3)
_node_kinds = st.sampled_from(["field", "field", "agg", "iter", "spec"])
_safe_domains = (
    st.none()
    | st.builds(BasicDomain, st.sampled_from(BASIC_DOMAIN_KINDS))
    | st.just(_FRESH)
)
# In multi-structure projects, "shared" reference targets recur across
# structures so that integration actually merges referenced classes.
_shared_safe_domains = _safe_domains | st.builds(
    ReferenceDomain, st.sampled_from(["Shared", "Counterparty"])
)
_safe_acquisitions = st.none() | st.builds(Acquisition, st.sampled_from(["i", "g"]))


def _fresh_or_none(draw, pool: _NamePool, prefix: str) -> str | None:
    name = pool.fresh(prefix)
    return name if draw(_maybe_fresh) is _FRESH else None


def _safe_node(draw, pool: _NamePool, depth: int):
    if depth <= 0:
        return _safe_field(draw, pool)
    kind = draw(_node_kinds)
    if kind == "field":
        return _safe_field(draw, pool)
    if kind == "agg":
        return Aggregation(
            _fresh_or_none(draw, pool, "G"), tuple(_safe_list(draw, pool, depth - 1))
        )
    if kind == "iter":
        return Iteration(pool.fresh("It"), tuple(_safe_list(draw, pool, depth - 1)))
    n_variants = draw(_one_to_three)
    variants = []
    for _ in range(n_variants):
        body = tuple(_safe_list(draw, pool, depth - 1))
        if n_variants == 1:
            variants.append(body)
        else:
            variants.append((Aggregation(pool.fresh("V"), body),))
    return Specialisation(_fresh_or_none(draw, pool, "S"), tuple(variants))


def _safe_field(draw, pool: _NamePool) -> Field:
    ref = pool.fresh("Ref")
    domain = draw(_shared_safe_domains if pool.shared_refs else _safe_domains)
    if domain is _FRESH:
        domain = ReferenceDomain(ref)
    acquisition = draw(_safe_acquisitions)
    return Field(
        pool.fresh("f"), FieldProperties(acquisition=acquisition, domain=domain)
    )


def _safe_list(draw, pool: _NamePool, depth: int) -> list:
    return [_safe_node(draw, pool, depth) for _ in range(draw(_one_to_three))]


@st.composite
def diagram_projects(draw, min_structures: int = 1, max_structures: int = 1):
    """Structures whose derivation is free of D001/D002/D003/D004 and whose
    class names never collide, so counting laws and integration
    order-insensitivity hold exactly."""
    pool = _NamePool(shared_refs=max_structures > 1)
    out = []
    for _ in range(draw(st.integers(min_structures, max_structures))):
        name = pool.fresh("Ev")
        children = tuple(_safe_list(draw, pool, draw(st.integers(0, 2))))
        root = (
            Aggregation(None, children)
            if draw(st.booleans())
            else Iteration(None, children)
        )
        out.append(MessageStructure(name, root))
    return out


@st.composite
def diagram_structures(draw):
    return draw(diagram_projects())[0]
