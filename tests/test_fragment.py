"""First-normal-form fragmentation and abstract interface assignment."""

from __future__ import annotations

import pytest

from msgstruct.fragment import (
    REGISTRY,
    SET_OF_REGISTRIES,
    AbstractInterfaceStructure,
    Fragment,
    assign_abstract,
    fragment_1nf,
    fragments_to_json_obj,
)
from msgstruct.parser import parse
from properties import prop_fragment_field_conservation


def test_order_fragments(order):
    f0, f1, f2 = fragment_1nf(order)

    assert f0.id == "ORDER" and f0.depth == 0 and f0.parent_key is None
    assert [f.name for f in f0.fields] == [
        "Order number",
        "Request date",
        "Payment type",
        "Client",
    ]

    assert f1.id == "ORDER/DESTINATIONS" and f1.depth == 1
    assert f1.parent_key == "ORDER"
    assert [f.name for f in f1.fields] == ["Address", "Person in charge"]

    assert f2.id == "ORDER/DESTINATIONS/LINES" and f2.depth == 2
    assert f2.parent_key == "ORDER/DESTINATIONS"
    assert [f.name for f in f2.fields] == ["Product", "Price", "Quantity"]

    # Field properties ride along with the fragment fields.
    assert f2.fields[1].properties.example == "25,40 €"
    assert sum(len(f.fields) for f in (f0, f1, f2)) == 9


def test_order_abstract_assignment(order):
    kinds = [a.kind for a in assign_abstract(fragment_1nf(order))]
    assert kinds == [REGISTRY, SET_OF_REGISTRIES, SET_OF_REGISTRIES]


def test_flat_structure_is_one_registry():
    fragments = fragment_1nf(parse("A=<a+b>"))
    assert len(fragments) == 1
    assert [f.name for f in fragments[0].fields] == ["a", "b"]
    (assigned,) = assign_abstract(fragments)
    assert assigned.kind == REGISTRY


def test_pure_iteration_keeps_an_empty_root():
    fragments = fragment_1nf(parse("A={a}"))
    assert [(f.id, f.depth, [x.name for x in f.fields]) for f in fragments] == [
        ("A", 0, []),
        ("A/it1", 1, ["a"]),
    ]
    kinds = [a.kind for a in assign_abstract(fragments)]
    assert kinds == [REGISTRY, SET_OF_REGISTRIES]


def test_specialisation_folds_into_the_enclosing_fragment(assignment):
    (fragment,) = fragment_1nf(assignment)
    assert [f.name for f in fragment.fields] == [
        "Type of assignment",
        "Subject",
        "Title",
        "Programming language",
        "Functionality",
    ]
    assert fragment.discriminators == ("TYPE:THEORY|PRACTICE",)


def test_iteration_inside_a_variant_spawns_a_child_fragment():
    ms = parse("A=<x+[ONE=<a+ROWS={r}>|TWO=<b>]>")
    fragments = fragment_1nf(ms)
    assert [(f.id, f.depth, f.parent_key) for f in fragments] == [
        ("A", 0, None),
        ("A/ROWS", 1, "A"),
    ]
    assert [f.name for f in fragments[0].fields] == ["x", "a", "b"]
    assert [f.name for f in fragments[1].fields] == ["r"]


def test_sibling_anonymous_iterations_get_distinct_ids():
    ms = parse("A=<{a}+{b}+{c}>")
    fragments = fragment_1nf(ms)
    ids = [f.id for f in fragments]
    assert len(set(ids)) == 4
    assert fragments[0].id == "A"
    assert all(f.parent_key == "A" for f in fragments[1:])


def test_same_named_iteration_labels_skip_used_ones():
    """A repeated name takes the first unused of L, L-2, L-3, ...: a sibling
    literally named L-2 is skipped, and so is an anonymous itN label that a
    named sibling already holds."""
    ms = parse("A=<L={a}+L-2={b}+L={c}+L={d}+it2={e}+{f}+{g}+L={h}>")
    ids = [f.id.removeprefix("A/") for f in fragment_1nf(ms)[1:]]
    assert ids == ["L", "L-2", "L-3", "L-4", "it2", "it6", "it7", "L-5"]
    ms = parse("A=<it2={a}+{b}+{c}+{d}>")
    ids = [f.id.removeprefix("A/") for f in fragment_1nf(ms)[1:]]
    assert ids == ["it2", "it2-2", "it3", "it4"]


def test_named_iterations_name_the_path():
    ms = parse("A=<LINES={x+INNER={y}}>")
    fragments = fragment_1nf(ms)
    assert [f.id for f in fragments] == ["A", "A/LINES", "A/LINES/INNER"]


def test_fragment_json_shape(order):
    obj = fragments_to_json_obj(fragment_1nf(order))
    assert set(obj) == {"fragments", "abstract"}
    first, second, third = obj["fragments"]
    assert "parentKey" not in first
    assert second["parentKey"] == "ORDER"
    assert second["depth"] == 1
    assert third["fields"][0] == {
        "name": "Product",
        "op": "i",
        "domain": "ref:Product",
        "example": "ST39455, Rounded scissors (cebra) box-100",
    }
    assert obj["abstract"][0] == {"fragmentId": "ORDER", "kind": REGISTRY}


def test_invariants_on_the_types():
    with pytest.raises(ValueError, match="^fragment depth must be >= 0$"):
        Fragment("x", -1, ())
    with pytest.raises(ValueError):
        Fragment("x", 1, (), parent_key=None)  # depth 1 needs a parent
    with pytest.raises(ValueError):
        Fragment("x", 0, (), parent_key="p")
    root = Fragment("x", 0, ())
    with pytest.raises(ValueError):
        AbstractInterfaceStructure(root, SET_OF_REGISTRIES)


def test_field_conservation_property():
    prop_fragment_field_conservation()
