"""Class-diagram derivation, integration, and export."""

from __future__ import annotations

import json

import pytest

from msgstruct.core import canonicalize
from msgstruct.derive import (
    Association,
    Attribute,
    ClassDiagram,
    ClassSpec,
    CommunicativeEvent,
    DerivationError,
    class_name,
    derive_view,
    diagram_from_json_obj,
    diagram_to_json_obj,
    export_diagram,
    integrate,
)
from msgstruct.parser import parse
from properties import (
    prop_class_count_law,
    prop_integration_permutation_insensitive,
)

# Hand-derived expectation for the client-order structure: one class per
# nesting level, one referenced class per business-object type, one
# composition per iteration, one reference per reference field.
EXPECTED_ORDER_VIEW = {
    "classes": [
        {
            "name": "Order",
            "kind": "defined",
            "attributes": [
                {"name": "Order number", "domain": "number", "acquisition": "g"},
                {"name": "Request date", "domain": "date", "acquisition": "i"},
                {"name": "Payment type", "domain": "text", "acquisition": "i"},
            ],
        },
        {"name": "Client", "kind": "referenced", "attributes": []},
        {
            "name": "Destination",
            "kind": "defined",
            "attributes": [
                {"name": "Person in charge", "domain": "text", "acquisition": "i"}
            ],
        },
        {"name": "ClientAddress", "kind": "referenced", "attributes": []},
        {
            "name": "Line",
            "kind": "defined",
            "attributes": [
                {"name": "Price", "domain": "money", "acquisition": "i"},
                {"name": "Quantity", "domain": "number", "acquisition": "i"},
            ],
        },
        {"name": "Product", "kind": "referenced", "attributes": []},
    ],
    "associations": [
        {"from": "Order", "to": "Client", "kind": "reference", "multiplicity": "one"},
        {
            "from": "Order",
            "to": "Destination",
            "kind": "composition",
            "multiplicity": "many",
        },
        {
            "from": "Destination",
            "to": "ClientAddress",
            "kind": "reference",
            "multiplicity": "one",
        },
        {
            "from": "Destination",
            "to": "Line",
            "kind": "composition",
            "multiplicity": "many",
        },
        {"from": "Line", "to": "Product", "kind": "reference", "multiplicity": "one"},
    ],
}


def _event(ms, id_="EV1", order=1):
    return CommunicativeEvent(id_, "event", order, ms)


@pytest.fixture()
def order_view(order):
    return derive_view(_event(order))


def test_order_view_matches_the_frozen_fixture(order_view):
    assert diagram_to_json_obj(order_view) == EXPECTED_ORDER_VIEW


def test_order_view_counts(order_view):
    defined = [c for c in order_view.classes if c.kind == "defined"]
    referenced = [c for c in order_view.classes if c.kind == "referenced"]
    assert len(defined) == 3 and len(referenced) == 3
    compositions = [a for a in order_view.associations if a.kind == "composition"]
    references = [a for a in order_view.associations if a.kind == "reference"]
    assert len(compositions) == 2
    assert all(a.multiplicity == "many" for a in compositions)
    assert len(references) == 3
    partition = {c.name: len(c.attributes) for c in defined}
    assert partition == {"Order": 3, "Destination": 1, "Line": 2}


def test_single_field_structure():
    view = derive_view(_event(parse("A=<a>")))
    assert view == ClassDiagram(
        (ClassSpec("A", "defined", (Attribute("a"),)),), ()
    )


def test_assignment_generalisation(assignment):
    view = derive_view(_event(assignment))
    by_name = {c.name: c for c in view.classes}
    assert by_name["Assignment"].kind == "defined"
    assert [a.name for a in by_name["Assignment"].attributes] == ["Type of assignment"]
    assert by_name["Theory"].kind == "subclass"
    assert by_name["Theory"].parent == "Assignment"
    assert [a.name for a in by_name["Theory"].attributes] == ["Title"]
    assert by_name["Practice"].kind == "subclass"
    assert [a.name for a in by_name["Practice"].attributes] == ["Functionality"]
    assert by_name["Subject"].kind == "referenced"
    assert by_name["Language"].kind == "referenced"
    gen = {(a.source, a.target) for a in view.associations if a.kind == "generalisation"}
    assert gen == {("Assignment", "Theory"), ("Assignment", "Practice")}
    refs = {(a.source, a.target) for a in view.associations if a.kind == "reference"}
    assert refs == {("Theory", "Subject"), ("Practice", "Language")}


def test_one_variant_specialisation_marks_attributes_optional():
    view = derive_view(_event(parse("A=<a+[b+c]>")))
    (cls,) = view.classes
    assert [(a.name, a.optional) for a in cls.attributes] == [
        ("a", False),
        ("b", True),
        ("c", True),
    ]
    assert view.associations == ()


def test_root_iteration_composes_an_item_class():
    view = derive_view(_event(parse("A={a+b}")))
    names = [(c.name, c.kind) for c in view.classes]
    assert names == [("A", "defined"), ("A_item", "defined")]
    assert view.associations == (Association("A", "A_item", "composition", "many"),)


def test_iteration_class_name_falls_back_to_the_iteration_name():
    view = derive_view(_event(parse("A=<ITEMS={a}>")))
    assert [c.name for c in view.classes] == ["A", "Items"]


def test_anonymous_variant_raises_d001():
    with pytest.raises(DerivationError) as exc:
        derive_view(_event(parse("A=<[a|b]>")))
    assert exc.value.diagnostic.code == "D001"
    assert exc.value.diagnostic.span is not None


def test_duplicate_attribute_raises_d002():
    with pytest.raises(DerivationError) as exc:
        derive_view(_event(parse("A=<x+x>")))
    assert exc.value.diagnostic.code == "D002"


def test_two_parents_in_one_event_raise_d004():
    with pytest.raises(DerivationError) as exc:
        derive_view(_event(parse("A=<[P=<x>|Q=<y>] + B={[P=<z>|R=<w>]}>")))
    assert exc.value.diagnostic.code == "D004"


def test_derived_field_keeps_its_formula():
    view = derive_view(_event(parse('A=<Price+Amount (op=d; formula=":Price * 2")>')))
    amount = view.classes[0].attributes[1]
    assert amount.acquisition == "d"
    assert amount.formula is not None


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("ORDER", "Order"),
        ("Client address", "ClientAddress"),
        ("NumberPlate", "NumberPlate"),
        ("e-mail", "EMail"),
        ("LINE", "Line"),
    ],
)
def test_class_name_normalisation(raw, expected):
    assert class_name(raw) == expected


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def test_single_view_fold_is_identity(order_view):
    assert integrate([order_view]) == order_view


def test_self_merge_is_idempotent(order_view):
    assert integrate([order_view, order_view]) == order_view


def test_two_events_extend_the_same_class(order, supplier_response):
    views = [
        derive_view(_event(order, "EV1", 1)),
        derive_view(_event(supplier_response, "EV2", 2)),
    ]
    diagram = integrate(views)
    names = [c.name for c in diagram.classes]
    assert len(names) == len(set(names)) == 7
    merged = next(c for c in diagram.classes if c.name == "Order")
    assert [a.name for a in merged.attributes] == [
        "Order number",
        "Request date",
        "Payment type",
        "Planned delivery date",
    ]
    refs = {(a.source, a.target) for a in diagram.associations if a.kind == "reference"}
    assert ("Order", "Supplier") in refs


def test_integrate_nothing_gives_an_empty_diagram():
    assert integrate([]) == ClassDiagram((), ())


def test_conflicting_domains_raise_d003():
    a = ClassDiagram(
        (ClassSpec("X", "defined", (Attribute("v", parse_domain("number")),)),), ()
    )
    b = ClassDiagram(
        (ClassSpec("X", "defined", (Attribute("v", parse_domain("text")),)),), ()
    )
    with pytest.raises(DerivationError) as exc:
        integrate([a, b])
    assert exc.value.diagnostic.code == "D003"


def parse_domain(text):
    from msgstruct.parser import _domain_from_text

    return _domain_from_text(text)


def test_two_parents_raise_d004():
    a = ClassDiagram((ClassSpec("S", "subclass", (), "P1"),), ())
    b = ClassDiagram((ClassSpec("S", "subclass", (), "P2"),), ())
    with pytest.raises(DerivationError) as exc:
        integrate([a, b])
    assert exc.value.diagnostic.code == "D004"


@pytest.mark.parametrize("first, merged", [(None, "g"), ("i", "i")])
def test_merge_fills_an_absent_domain_in_place(first, merged):
    a = ClassDiagram(
        (ClassSpec("X", "defined", (Attribute("v", acquisition=first), Attribute("w"))),),
        (),
    )
    b = ClassDiagram(
        (
            ClassSpec(
                "X", "defined", (Attribute("u"), Attribute("v", parse_domain("number"), "g"))
            ),
        ),
        (),
    )
    (cls,) = integrate([a, b]).classes
    assert cls.attributes == (
        Attribute("v", parse_domain("number"), merged),
        Attribute("w"),
        Attribute("u"),
    )


def test_multiplicity_widens_on_disagreement():
    a = ClassDiagram(
        (ClassSpec("X", "defined"), ClassSpec("Y", "referenced")),
        (Association("X", "Y", "reference", "one"),),
    )
    b = ClassDiagram(
        (ClassSpec("X", "defined"), ClassSpec("Y", "referenced")),
        (Association("X", "Y", "reference", "many"),),
    )
    diagram = integrate([a, b])
    assert diagram.associations == (Association("X", "Y", "reference", "many"),)


def test_defined_beats_referenced():
    a = ClassDiagram((ClassSpec("X", "referenced"),), ())
    b = ClassDiagram((ClassSpec("X", "defined", (Attribute("v"),)),), ())
    diagram = integrate([a, b])
    assert diagram.classes[0].kind == "defined"
    assert [x.name for x in diagram.classes[0].attributes] == ["v"]


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def test_plantuml_export(order_view):
    text = export_diagram(order_view, "plantuml")
    assert text.startswith("@startuml\n") and text.endswith("@enduml\n")
    assert 'Order "1" *-- "*" Destination' in text
    assert 'Destination "1" *-- "*" Line' in text
    assert 'Order "1" --> "1" Client' in text
    assert "Order number : number <<generated>>" in text


def test_plantuml_generalisation_arrows(assignment):
    text = export_diagram(derive_view(_event(assignment)), "plantuml")
    assert "Assignment <|-- Theory" in text
    assert "Assignment <|-- Practice" in text


def test_empty_diagram_exports():
    assert json.loads(export_diagram(ClassDiagram(), "json")) == {
        "classes": [],
        "associations": [],
    }
    assert export_diagram(ClassDiagram(), "plantuml") == "@startuml\n@enduml\n"


def test_json_round_trip(order_view, assignment):
    for view in (order_view, derive_view(_event(assignment))):
        recovered = diagram_from_json_obj(json.loads(export_diagram(view, "json")))
        assert recovered == view


def test_derivation_runs_on_the_canonical_form(order):
    sugared = derive_view(_event(order))
    explicit = derive_view(_event(canonicalize(order, keep_names=True)))
    assert sugared == explicit


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def test_class_count_law_property():
    prop_class_count_law()


def test_integration_permutation_property():
    prop_integration_permutation_insensitive()
