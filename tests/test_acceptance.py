"""Acceptance gate: the seven release criteria, one test each.

Every test prints a single ``[acceptance] criterion N: PASS/FAIL`` line
(visible with ``pytest -s tests/test_acceptance.py``) and then asserts.
"""

from __future__ import annotations

import itertools
import time

import pytest

from conftest import (
    ASSIGNMENT_TEXT,
    ORDER_TABLE,
    ORDER_TEXT,
    SUGAR_FORMS,
    VEHICLE_AMBIGUOUS,
    VEHICLE_NESTED,
)
from msgstruct.core import equivalent
from msgstruct.derive import (
    CommunicativeEvent,
    derive_view,
    diagram_to_json_obj,
    integrate,
    load_events_manifest,
)
from msgstruct.diagnostics import Severity
from msgstruct.fragment import REGISTRY, SET_OF_REGISTRIES, assign_abstract, fragment_1nf
from msgstruct.lint import APPLICABILITY, Level, PROPERTY_KINDS, Phase, lint
from msgstruct.parser import ParseError, parse
from properties import ALL_PROPERTIES
from test_derive import EXPECTED_ORDER_VIEW
from test_lint import MATRIX_FIXTURE


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number}: {status} — {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_paper_corpus_parses():
    corpus = [ORDER_TEXT, ORDER_TABLE, ASSIGNMENT_TEXT, VEHICLE_NESTED, *SUGAR_FORMS]
    started = time.perf_counter()
    parsed_ok = True
    for text in corpus:
        try:
            parse(text)
        except ParseError:
            parsed_ok = False
    ambiguous_code = None
    try:
        parse(VEHICLE_AMBIGUOUS)
    except ParseError as exc:
        ambiguous_code = exc.diagnostics[0].code
    elapsed = time.perf_counter() - started
    ok = parsed_ok and ambiguous_code == "P002" and elapsed < 1.0
    _report(
        1,
        ok,
        f"{len(corpus)} documents parsed, ambiguous vehicle -> "
        f"{ambiguous_code}, {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_sugar_equivalence(order):
    forms = [parse(t) for t in SUGAR_FORMS]
    pairs = list(itertools.combinations(range(4), 2))
    equal_pairs = sum(1 for i, j in pairs if equivalent(forms[i], forms[j]))
    order_vs_forms = sum(1 for f in forms if not equivalent(order, f))
    ok = equal_pairs == 6 and order_vs_forms == 4
    _report(
        2,
        ok,
        f"{equal_pairs}/6 sugar pairs equivalent, "
        f"{order_vs_forms}/4 order-vs-form pairs distinct",
    )


def test_criterion_3_applicability_matrix(order):
    cells_ok = all(
        APPLICABILITY[(phase, kind)] is Level(symbol)
        for phase, row in MATRIX_FIXTURE.items()
        for kind, symbol in zip(PROPERTY_KINDS, row.split())
    ) and len(APPLICABILITY) == 36

    clean = lint(order, Phase.ANALYSIS)
    errors_on_clean = [d for d in clean if d.severity is Severity.ERROR]

    injected = parse(
        ORDER_TEXT.replace(
            'Quantity (op=i; domain=number; example="35")',
            'Quantity (op=i; domain=number; example="35") + Amount (op=d)',
        )
    )
    injected_errors = [
        d for d in lint(injected, Phase.ANALYSIS) if d.severity is Severity.ERROR
    ]

    labelled = parse('A=<a (label="Qty")>')
    label_warnings = [
        d
        for d in lint(labelled, Phase.DESIGN_MEMORY)
        if d.severity is Severity.WARNING
    ]

    ok = (
        cells_ok
        and not errors_on_clean
        and len(injected_errors) == 1
        and injected_errors[0].code == "L-OPD"
        and len(label_warnings) == 1
        and label_warnings[0].code == "L-LABEL"
    )
    _report(
        3,
        ok,
        f"matrix 36/36, clean order errors={len(errors_on_clean)}, "
        f"d-op errors={len(injected_errors)}, label warnings={len(label_warnings)}",
    )


def test_criterion_4_order_derivation(order):
    view = derive_view(CommunicativeEvent("EV1", "order request", 1, order))
    ok = diagram_to_json_obj(view) == EXPECTED_ORDER_VIEW
    defined = [c for c in view.classes if c.kind == "defined"]
    referenced = [c for c in view.classes if c.kind == "referenced"]
    compositions = [a for a in view.associations if a.kind == "composition"]
    references = [a for a in view.associations if a.kind == "reference"]
    partition = {c.name: len(c.attributes) for c in defined}
    ok = (
        ok
        and len(defined) == 3
        and len(referenced) == 3
        and len(compositions) == 2
        and all(a.multiplicity == "many" for a in compositions)
        and len(references) == 3
        and partition == {"Order": 3, "Destination": 1, "Line": 2}
    )
    _report(
        4,
        ok,
        f"defined={len(defined)}, referenced={len(referenced)}, "
        f"compositions={len(compositions)}, references={len(references)}, "
        f"attributes={partition}",
    )


def test_criterion_5_order_fragmentation(order):
    fragments = fragment_1nf(order)
    depths = [f.depth for f in fragments]
    total_fields = sum(len(f.fields) for f in fragments)
    kinds = [a.kind for a in assign_abstract(fragments)]
    ok = (
        len(fragments) == 3
        and depths == [0, 1, 2]
        and total_fields == 9
        and kinds == [REGISTRY, SET_OF_REGISTRIES, SET_OF_REGISTRIES]
    )
    _report(
        5,
        ok,
        f"fragments={len(fragments)}, depths={depths}, "
        f"fields={total_fields}, kinds={kinds}",
    )


def test_criterion_6_property_suites():
    # Each suite's time is in the report, so a run over the bound shows
    # which suite took it.
    times = {}
    first = time.perf_counter()
    for prop in ALL_PROPERTIES:
        started = time.perf_counter()
        prop()  # each is a 200-example hypothesis suite
        times[prop.__name__] = time.perf_counter() - started
    elapsed = time.perf_counter() - first
    ok = elapsed < 30.0
    _report(
        6,
        ok,
        f"{len(ALL_PROPERTIES)} suites x 200 generated cases in {elapsed:.1f} s ("
        + ", ".join(f"{name} {t:.1f} s" for name, t in times.items())
        + ")",
    )


def test_criterion_7_multi_event_integration(corpus_dir):
    events = load_events_manifest(corpus_dir / "events.json")
    assert [e.id for e in events] == ["EV1", "EV2"]  # sorted by (order, id)
    diagram = integrate([derive_view(e) for e in events])
    names = [c.name for c in diagram.classes]
    merged = next(c for c in diagram.classes if c.name == "Order")
    attribute_names = [a.name for a in merged.attributes]
    ok = (
        len(names) == len(set(names))
        and attribute_names
        == ["Order number", "Request date", "Payment type", "Planned delivery date"]
    )
    _report(
        7,
        ok,
        f"classes={len(names)} (no duplicates), merged order attributes={attribute_names}",
    )


@pytest.fixture(scope="session", autouse=True)
def _summary_banner():
    yield
    print("\n[acceptance] suite complete")
