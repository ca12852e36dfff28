"""Canonical form, equivalence, and traversal."""

from __future__ import annotations

import itertools

import pytest

from conftest import SUGAR_FORMS
from msgstruct.core import (
    Acquisition,
    Aggregation,
    Field,
    Iteration,
    MessageStructure,
    Specialisation,
    canonicalize,
    equivalent,
    field_names,
    walk,
)
from msgstruct.parser import parse
from properties import prop_canonicalize_idempotent, prop_equivalence_relation


@pytest.mark.parametrize("a, b", list(itertools.combinations(SUGAR_FORMS, 2)))
def test_all_sugar_forms_have_equal_canonical_trees(a, b):
    assert canonicalize(parse(a)) == canonicalize(parse(b))
    assert equivalent(parse(a), parse(b))


def test_already_canonical_structure_is_unchanged():
    ms = parse("A=<a>")
    assert canonicalize(ms) == ms


def test_canonical_form_of_named_sugar():
    # Explicit inner aggregation named D, iteration named C: names go away,
    # the iteration keeps one anonymous aggregation.
    ms = canonicalize(parse("A=<a+b+C={D=<e+f+g>}>"))
    assert isinstance(ms.root, Aggregation) and ms.root.name is None
    a, b, c = ms.root.children
    assert (a.name, b.name) == ("a", "b")
    assert isinstance(c, Iteration) and c.name is None
    (inner,) = c.children
    assert isinstance(inner, Aggregation) and inner.name is None
    assert [x.name for x in inner.children] == ["e", "f", "g"]


def test_canonical_order_tree(order):
    # Hand-applied rewrite of the client-order structure: the two nested
    # iterations end up wrapping one anonymous aggregation each, all
    # complex-substructure names erased.
    ms = canonicalize(order)
    root = ms.root
    assert isinstance(root, Aggregation) and root.name is None
    assert [c.name for c in root.children[:4]] == [
        "Order number",
        "Request date",
        "Payment type",
        "Client",
    ]
    destinations = root.children[4]
    assert isinstance(destinations, Iteration) and destinations.name is None
    (destination,) = destinations.children
    assert isinstance(destination, Aggregation) and destination.name is None
    assert [c.name for c in destination.children[:2]] == ["Address", "Person in charge"]
    lines = destination.children[2]
    assert isinstance(lines, Iteration) and lines.name is None
    (line,) = lines.children
    assert isinstance(line, Aggregation) and line.name is None
    assert [c.name for c in line.children] == ["Product", "Price", "Quantity"]
    # Field order is untouched.
    assert field_names(ms) == field_names(order)


def test_variant_bodies_get_explicit_aggregations():
    ms = canonicalize(parse("A=<[a+b|c]>"))
    spec = ms.root.children[0]
    assert isinstance(spec, Specialisation)
    for (wrapped,) in spec.variants:
        assert isinstance(wrapped, Aggregation) and wrapped.name is None
    assert equivalent(parse("A=<[a+b|c]>"), parse("A=<[<a+b>|<c>]>"))
    assert equivalent(parse("A=<[a]>"), parse("A=<[<a>]>"))


def test_keep_names_variant_preserves_documentation_names():
    ms = canonicalize(parse("A=<a+C={D=<e>}>"), keep_names=True)
    c = ms.root.children[1]
    assert c.name == "C"
    assert c.children[0].name == "D"


def test_equivalence_examples(order):
    assert equivalent(parse(SUGAR_FORMS[0]), parse(SUGAR_FORMS[3]))
    assert equivalent(parse("A=<a>"), parse("A=<a>"))
    # Child order is significant.
    assert not equivalent(parse("A=<a+b>"), parse("A=<b+a>"))
    # The root structure name is significant.
    assert not equivalent(parse("A=<a>"), parse("B=<a>"))
    for form in SUGAR_FORMS:
        assert not equivalent(order, parse(form))


def test_equivalence_ignores_field_properties():
    assert equivalent(parse('A=<a (op=i; domain=number)>'), parse("A=<a>"))


def test_equivalence_distinguishes_complex_kinds():
    assert not equivalent(parse("A=<a+<b>>"), parse("A=<a+{b}>"))
    assert not equivalent(parse("A=<a+{b}>"), parse("A=<a+[b]>"))


def test_walk_flat_aggregation():
    ms = parse("A=<a+b>")
    nodes = list(walk(ms))
    assert len(nodes) == 3
    assert isinstance(nodes[0], Aggregation)
    assert [n.name for n in nodes[1:]] == ["a", "b"]


def test_walk_order_visits_every_substructure_once(order):
    nodes = list(walk(order))
    assert len(nodes) == 14  # 1 root + 4 named complex + 9 fields
    fields = [n for n in nodes if isinstance(n, Field)]
    assert len(fields) == 9


def test_walk_canonicalized_singleton_iteration():
    ms = canonicalize(parse("A={a}"))
    kinds = [type(n).__name__ for n in walk(ms)]
    assert kinds == ["Iteration", "Aggregation", "Field"]
    # Before canonicalisation the implicit aggregation is absent.
    assert len(list(walk(parse("A={a}")))) == 2


def test_specialisation_walk_covers_variants(assignment):
    names = [n.name for n in walk(assignment) if isinstance(n, Field)]
    assert names == [
        "Type of assignment",
        "Subject",
        "Title",
        "Programming language",
        "Functionality",
    ]


@pytest.mark.parametrize(
    "build",
    [
        lambda: Aggregation("A", ()),
        lambda: Iteration(None, ()),
        lambda: Specialisation(None, ()),
        lambda: Specialisation(None, ((),)),
        lambda: Field("9tail"),
        lambda: Field(""),
        lambda: MessageStructure("", Aggregation(None, (Field("a"),))),
        lambda: Acquisition("x"),
        lambda: Acquisition("i", formula=()),
    ],
)
def test_ill_formed_nodes_are_rejected(build):
    with pytest.raises((ValueError, TypeError)):
        build()


def test_multi_word_names_allowed():
    assert Field("Person in charge").name == "Person in charge"
    assert Field("e-mail").name == "e-mail"


@pytest.mark.parametrize(
    "wrap",
    [
        lambda node: Aggregation(None, (node,)),
        lambda node: Iteration(None, (node,)),
        lambda node: Specialisation(None, ((node,),)),
    ],
    ids=["aggregation", "iteration", "specialisation"],
)
def test_equivalence_of_deeply_nested_structures(wrap):
    def nested(depth):
        node = Field("x")
        for _ in range(depth):
            node = wrap(node)
        return MessageStructure("M", Aggregation(None, (node,)))

    ms = nested(300)
    assert equivalent(ms, ms)
    assert not equivalent(ms, nested(299))


def test_canonicalize_idempotence_property():
    prop_canonicalize_idempotent()


def test_equivalence_relation_property():
    prop_equivalence_relation()
