"""Class-diagram derivation, integration, and export."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as strat
from conftest import SUGAR_FORMS
from msgstruct.core import BinaryOp, FieldRef, Number
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
    load_events_manifest,
)
from msgstruct.fragment import fragment_1nf
from msgstruct.parser import ParseError, parse
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


@pytest.mark.parametrize(
    "text, code",
    [("A=<[a|b]>", "D001"), ("A=<x+x>", "D002"), ("A=<[P=<x>|Q=<y>] + B={[P=<z>|R=<w>]}>", "D004")],
)
def test_an_error_of_one_view_names_the_event_file(text, code):
    event = CommunicativeEvent("EV1", "event", 1, parse(text), "events/ev1.ms")
    with pytest.raises(DerivationError) as exc:
        derive_view(event)
    assert exc.value.diagnostic.code == code
    assert exc.value.file == event.file


@pytest.mark.parametrize(
    "first, second, code",
    [
        ("A=<x (op=i; domain=number)>", "A=<x (op=i; domain=text)>", "D003"),
        ("A=<[P=<x>|Q=<y>]>", "B=<[P=<z>|R=<w>]>", "D004"),
    ],
)
def test_an_error_of_integration_names_no_file(first, second, code):
    views = [
        derive_view(CommunicativeEvent(f"EV{i}", "event", i, parse(text), f"ev{i}.ms"))
        for i, text in enumerate((first, second))
    ]
    with pytest.raises(DerivationError) as exc:
        integrate(views)
    assert exc.value.diagnostic.code == code
    assert exc.value.file is None


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
    from msgstruct.core import _domain_from_text

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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ClassSpec("A", "abstract"), "unknown class kind 'abstract'"),
        (lambda: ClassSpec("A", None), "unknown class kind None"),
        (lambda: Association("A", "B", "x"), "unknown association kind 'x'"),
        (lambda: Association("A", "B", ["reference"]), r"unknown association kind \['reference'\]"),
        (lambda: Association("A", "B", "reference", "few"), "unknown multiplicity 'few'"),
        (lambda: Association("A", "B", "generalisation", ""), "unknown multiplicity ''"),
    ],
)
def test_the_diagram_records_refuse_unknown_kinds_and_multiplicities(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_a_diagram_built_in_code_exports_every_kind_and_multiplicity():
    classes = (ClassSpec("A", "defined"), ClassSpec("B", "referenced"), ClassSpec("C", "subclass", parent="A"))
    associations = tuple(
        Association("A", target, kind, multiplicity)
        for target, kind in (("B", "composition"), ("B", "reference"), ("C", "generalisation"))
        for multiplicity in ("one", "many", None)
    )
    assert export_diagram(ClassDiagram(classes, associations), "plantuml").splitlines() == [
        "@startuml", "class A", "class B <<referenced>>", "class C",
        'A "1" *-- "1" B', 'A "1" *-- "*" B', 'A "1" *-- "1" B',
        'A "1" --> "1" B', 'A "1" --> "*" B', 'A "1" --> "1" B',
        "A <|-- C", "A <|-- C", "A <|-- C",
        "@enduml",
    ]


def test_json_export_holds_at_most_three_times_its_text():
    # 3,000 attributes in 60 classes. The export makes each class's object
    # only when the writer reaches it, and holds the pieces of text while it
    # joins them: 2.5-2.6 times the text on Python 3.10-3.13. Building the
    # whole JSON object of the diagram first held 4.3-4.9 times, and
    # json.dumps's pure-Python indenting encoder 8-9 times.
    import tracemalloc

    from msgstruct.core import BasicDomain, ReferenceDomain

    classes = tuple(
        ClassSpec(f"Class{c}", "defined", tuple(
            Attribute(f"attribute {c} {i}", ReferenceDomain(f"Type{i}") if i % 3 else BasicDomain("text"), "i")
            for i in range(50)
        ))
        for c in range(60)
    )
    diagram = ClassDiagram(classes, tuple(Association(f"Class{c}", f"Class{c + 1}", "composition", "many") for c in range(59)))
    text = export_diagram(diagram, "json")
    tracemalloc.start()
    try:
        assert export_diagram(diagram, "json") == text
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text), (peak, len(text))


def test_json_round_trip(order_view, assignment):
    for view in (order_view, derive_view(_event(assignment))):
        recovered = diagram_from_json_obj(json.loads(export_diagram(view, "json")))
        assert recovered == view


_ATTRIBUTE = {"name": "x", "domain": "text", "acquisition": "i"}


def _one_class(**attribute) -> dict:
    return {"classes": [{"name": "A", "kind": "defined", "attributes": [_ATTRIBUTE, attribute]}]}


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "diagram: expected an object, found an array"),
        (None, "diagram: expected an object, found null"),
        ({"classes": 5}, "classes: expected an array, found a number"),
        ({"classes": [3]}, "classes[0]: expected an object, found a number"),
        ({"classes": [{"name": "A"}]}, "classes[0].kind: missing"),
        ({"classes": [{"name": "A", "kind": "abstract"}]}, "classes[0].kind: expected one of defined, referenced, "),
        ({"classes": [{"name": "A", "kind": "defined", "attributes": {}}]}, "classes[0].attributes: expected an array"),
        (_one_class(domain="text"), "classes[0].attributes[1].name: missing"),
        (_one_class(name="y", domain=5), "classes[0].attributes[1].domain: expected a string, found a number"),
        (_one_class(name="y", domain=["x"]), "classes[0].attributes[1].domain: expected a string, found an array"),
        (_one_class(name="y", domain="enum:a|a"), "classes[0].attributes[1].domain: duplicate literals"),
        (_one_class(name="y", acquisition="x"), "classes[0].attributes[1].acquisition: expected one of i, g, d"),
        (_one_class(name="y", formula=":x +"), "classes[0].attributes[1].formula: "),
        (_one_class(name="y", formula=True), "classes[0].attributes[1].formula: expected a string, found a boolean"),
        ({"associations": [{"from": "A", "to": "B"}]}, "associations[0].kind: missing"),
        ({"associations": [{"from": "A", "to": "B", "kind": "reference", "multiplicity": "few"}]}, "associations[0].mul"),
    ],
)
def test_a_malformed_diagram_object_names_the_bad_item(obj, message):
    with pytest.raises(ValueError) as exc:
        diagram_from_json_obj(obj)
    assert str(exc.value).startswith(message)


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.sampled_from(["", "x", "text", "enum:a|b", ":x * 2", "one"])
)
# Objects take their keys from the schema, so that draws reach past the top.
_JSON_KEYS = st.sampled_from(
    ["classes", "associations", "name", "kind", "parent", "attributes", "domain", "acquisition", "formula",
     "optional", "from", "to", "multiplicity"]
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_KEYS, inner, max_size=5),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON)
def test_diagram_from_json_obj_is_total(obj):
    try:
        diagram = diagram_from_json_obj(obj)
    except ValueError:
        return
    # What it reads, it exports.
    assert diagram_from_json_obj(json.loads(export_diagram(diagram, "json"))) == diagram
    export_diagram(diagram, "plantuml")


def test_json_round_trip_of_a_formula_with_a_small_number():
    view = derive_view(_event(parse('A=<y (op=i) + x (op=d; formula="0.00001 * :y")>')))
    text = export_diagram(view, "json")
    assert '"0.00001 * :y"' in text
    recovered = diagram_from_json_obj(json.loads(text))
    assert recovered == view
    assert recovered.classes[0].attributes[1].formula == BinaryOp("*", Number(0.00001), FieldRef("y"))


# ---------------------------------------------------------------------------
# Events manifest
# ---------------------------------------------------------------------------


def _write_manifest(path, files) -> None:
    entries = [{"id": f"E{i}", "name": f"event {i}", "order": i, "file": f} for i, f in enumerate(files)]
    path.write_text(json.dumps(entries), encoding="utf-8")


def test_the_events_of_a_manifest_share_one_string_per_name(tmp_path):
    (tmp_path / "order.ms").write_text("ORDER = < Order  number (op=g) + Client name (op=i) >\n", encoding="utf-8")
    (tmp_path / "invoice.ms").write_text(
        "FIELD\tOP\tDOMAIN\tEXAMPLE VALUE\nINVOICE =\n< Order number +\ti\tnumber\t1\nTotal >\ti\tmoney\t2\n",
        encoding="utf-8",
    )
    _write_manifest(tmp_path / "events.json", ["order.ms", "invoice.ms"])
    order, invoice = load_events_manifest(tmp_path / "events.json")
    first, second = order.structure.root.children[0].name, invoice.structure.root.children[0].name
    assert first == second == "Order number"
    assert first is second


# The file of a manifest entry, the manifest as the caller spells it (from
# the manifest's folder), and the file path that pathlib made of them.
@pytest.mark.parametrize("file", ["./ev.ms", "sub//ev.ms", "../ev.ms", "<absolute>", ""])
@pytest.mark.parametrize("manifest", ["<absolute>", "m.json", "./m.json", "../events//m.json/"])
def test_manifest_paths_are_spelled_as_pathlib_spells_them(tmp_path, monkeypatch, file, manifest):
    from pathlib import Path

    folder = tmp_path / "events"
    (folder / "sub").mkdir(parents=True)
    for directory in (tmp_path, folder, folder / "sub"):
        (directory / "ev.ms").write_text("A = < x >\n", encoding="utf-8")
    file = str(folder / "ev.ms") if file == "<absolute>" else file
    manifest = str(folder / "m.json") if manifest == "<absolute>" else manifest
    _write_manifest(folder / "m.json", [file])
    monkeypatch.chdir(folder)
    expected = str(Path(manifest).parent / file)
    if file:
        [event] = load_events_manifest(manifest)
        assert event.file == expected
    else:  # the manifest's folder
        with pytest.raises(ValueError, match=f"^cannot read {re.escape(expected)}: "):
            load_events_manifest(manifest)


def test_a_manifest_entry_may_start_with_two_slashes(tmp_path):
    # POSIX leaves a path's two leading slashes to the system, and pathlib
    # keeps them; on Linux they name the same file as one.
    from pathlib import Path

    (tmp_path / "ev.ms").write_text("A = < x >\n", encoding="utf-8")
    file = "/" + str(tmp_path / "ev.ms")
    _write_manifest(tmp_path / "m.json", [file])
    [event] = load_events_manifest(tmp_path / "m.json")
    assert event.file == str(Path(file)) == file
    assert event.structure == parse("A = < x >")


def test_a_structure_that_fails_to_parse_raises_its_parse_error_with_the_file(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "bad.ms").write_text("A = < x\n", encoding="utf-8")
    _write_manifest(tmp_path / "events.json", ["./sub//bad.ms"])
    with pytest.raises(ParseError) as exc:
        load_events_manifest(tmp_path / "events.json")
    with pytest.raises(ParseError) as direct:
        parse("A = < x\n")
    path = str(tmp_path / "sub" / "bad.ms")
    assert exc.value.file == path
    assert exc.value.diagnostics == direct.value.diagnostics
    assert str(exc.value) == f"{path}: {direct.value}"
    assert direct.value.file is None


def test_derivation_runs_on_the_canonical_form():
    # Each sugared form against the same structure with its implicit
    # aggregation written out, names unchanged: derivation and fragmentation
    # read the canonical form off either tree.
    sugared = [form for form in SUGAR_FORMS if "{e+f+g}" in form]
    assert len(sugared) == 2
    for form in sugared:
        explicit = parse(form.replace("{e+f+g}", "{<e+f+g>}"))
        assert derive_view(_event(parse(form))) == derive_view(_event(explicit))
        assert fragment_1nf(parse(form)) == fragment_1nf(explicit)


def _derived(ms):
    try:
        return derive_view(_event(ms))
    except DerivationError as exc:
        return exc.diagnostic


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_derivation_and_fragments_ignore_how_implicit_aggregations_are_written(data):
    ms = data.draw(strat.structures())
    twin = data.draw(strat.resugared(ms, rename=False))
    assert _derived(twin) == _derived(ms)
    assert fragment_1nf(twin) == fragment_1nf(ms)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def test_class_count_law_property():
    prop_class_count_law()


def test_integration_permutation_property():
    prop_integration_permutation_insensitive()
