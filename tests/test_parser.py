"""Parsing, error reporting, and printing."""

from __future__ import annotations

import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msgstruct.core as core

from conftest import (
    ORDER_TABLE,
    ORDER_TEXT,
    VEHICLE_AMBIGUOUS,
    VEHICLE_NESTED,
)
from msgstruct.core import (
    Acquisition,
    Aggregation,
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
    _parse_bool,
    canonicalize,
    equivalent,
    formula_to_text,
    iter_fields,
    walk,
)
from msgstruct.derive import diagram_from_json_obj
from msgstruct.parser import (
    MAX_NESTING,
    ParseError,
    _FAST_KEYS,
    _Parser,
    parse,
    parse_formula,
    structure_to_json_obj,
    to_text,
)
import parse_golden
import strategies
from parse_golden import mutate
from properties import prop_print_parse_roundtrip


def _fail_code(text: str) -> str:
    with pytest.raises(ParseError) as exc:
        parse(text)
    (diag,) = exc.value.diagnostics
    assert diag.span is not None, "parse errors must carry a span"
    assert 1 <= diag.span.start_line <= text.count("\n") + 1
    return diag.code


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def test_order_structure_shape(order):
    root = order.root
    assert order.name == "ORDER"
    assert isinstance(root, Aggregation)
    assert len(root.children) == 5
    iterations = [n for n in _all(order) if isinstance(n, Iteration)]
    assert [i.name for i in iterations] == ["DESTINATIONS", "LINES"]
    fields = list(iter_fields(order))
    assert len(fields) == 9
    ops = [f.properties.acquisition.op for f in fields]
    assert ops.count("g") == 1 and ops.count("i") == 8


def _all(ms):
    from msgstruct.core import walk

    return list(walk(ms))


def test_order_field_properties(order):
    by_name = {f.name: f.properties for f in iter_fields(order)}
    assert by_name["Order number"].domain == BasicDomain("number")
    assert by_name["Order number"].example == "10352"
    assert by_name["Client"].domain == ReferenceDomain("Client")
    assert by_name["Address"].domain == ReferenceDomain("Client address")
    assert by_name["Price"].example == "25,40 €"


def test_ambiguous_vehicle_is_rejected_at_the_inner_equals():
    with pytest.raises(ParseError) as exc:
        parse(VEHICLE_AMBIGUOUS)
    (diag,) = exc.value.diagnostics
    assert diag.code == "P002"
    assert "Motor" in diag.message
    assert diag.span.start_col == VEHICLE_AMBIGUOUS.index("Motor=") + 1


def test_parenthesised_vehicle_keeps_the_message_together():
    ms = parse(VEHICLE_NESTED)
    assert [c.name for c in ms.root.children] == [
        "NumberPlate",
        "Brand",
        "Model",
        "Motor",
        "Colour",
    ]
    motor = ms.root.children[3]
    assert isinstance(motor, Aggregation)
    assert [c.name for c in motor.children] == ["CubicCapacity", "Valves", "Fuel"]


def test_minimal_structure_with_spacing():
    ms = parse("A = < a >")
    assert isinstance(ms.root, Aggregation)
    assert [c.name for c in ms.root.children] == ["a"]


def test_assignment_specialisation(assignment):
    spec = next(n for n in _all(assignment) if isinstance(n, Specialisation))
    assert spec.name == "TYPE"
    assert len(spec.variants) == 2
    theory, practice = (v[0] for v in spec.variants)
    assert theory.name == "THEORY" and len(theory.children) == 2
    assert practice.name == "PRACTICE" and len(practice.children) == 2
    discriminator = assignment.root.children[0]
    assert discriminator.properties.domain == EnumeratedDomain(("theo", "prac"))


def test_enum_domain_accepts_space_or_pipe_separators():
    pipe = parse('A=<a (domain=enum:theo|prac)>')
    space = parse('A=<a (domain=enum:theo prac)>')
    expected = EnumeratedDomain(("theo", "prac"))
    for ms in (pipe, space):
        assert next(iter_fields(ms)).properties.domain == expected
    # The pipe form is canonical on output.
    assert 'domain=enum:theo|prac' in to_text(pipe)


def _domain_of(ms: MessageStructure):
    return next(iter_fields(ms)).properties.domain


@pytest.mark.parametrize(
    "annotation, cell",
    [("ref:Customer", "Customer"), ("enum:cash|card", "[cash|card]")],
)
def test_a_domain_text_gives_one_domain_object(annotation, cell):
    first = _domain_of(parse(f"A=<x (domain={annotation})>"))
    tabular = _TABLE + f"A =\n< x\ti\t{cell}\n>\n"
    readings = [
        parse(f"B=<y (op=i; domain={annotation})>"),
        # Keys out of print order: the entry loop reads them.
        parse(f'A=<x (# note\nexample="1"; domain={annotation})>'),
        parse(tabular),
    ]
    with mock.patch.object(_Parser, "_fast_field", lambda self: None):
        readings += [parse(tabular), parse(f"A=<x (domain={annotation})>")]
    assert all(_domain_of(ms) is first for ms in readings)
    diagram = diagram_from_json_obj(
        {"classes": [{"name": "A", "kind": "defined", "attributes": [{"name": "x", "domain": annotation}]}]}
    )
    assert diagram.classes[0].attributes[0].domain is first


def test_a_bad_domain_fails_on_every_call_quoting_what_was_written():
    row = _TABLE + "A =\n< x\ti\ttime;\n>"

    def failures() -> list[str]:
        messages = []
        for text, written in (("ref:time;", None), ("ref:time;", "time;"), ("enum:a|a", None)):
            with pytest.raises(ValueError) as exc:
                core._domain_from_text(text, written)
            messages.append(str(exc.value))
        return messages + [_diagnostic(row)[1]]

    expected = [
        "reference domain needs a type name: 'ref:time;'",
        "reference domain needs a type name: 'time;'",
        "duplicate literals in enumerated domain: 'enum:a|a'",
        "reference domain needs a type name: 'time;'",
    ]
    assert failures() == expected
    # Good texts next to the bad ones are kept; the bad ones still fail.
    assert core._domain_from_text("ref:time") == ReferenceDomain("time")
    assert core._domain_from_text("enum:a") == EnumeratedDomain(("a",))
    assert failures() == expected
    assert "ref:time;" not in core._DOMAINS and "enum:a|a" not in core._DOMAINS


def test_past_its_bound_the_domain_table_stops_growing(monkeypatch):
    table = dict(core._DOMAINS)
    monkeypatch.setattr(core, "_DOMAINS", table)
    for i in range(core._MAX_DOMAINS):
        core._domain_from_text(f"ref:Filler{i}")
    assert len(table) == core._MAX_DOMAINS
    late = [
        ("A=<x (domain=ref:Overflow)>", "ref:Overflow", ReferenceDomain("Overflow")),
        (_TABLE + "A =\n< x\ti\t[over|flow]\n>\n", "enum:over|flow", EnumeratedDomain(("over", "flow"))),
    ]
    for text, key, built in late:
        assert key not in table
        once, again = _domain_of(parse(text)), _domain_of(parse(text))
        assert once == again == built and once is not again
    assert len(table) == core._MAX_DOMAINS


def test_top_level_list_is_an_implicit_aggregation():
    ms = parse("A=a+b")
    assert isinstance(ms.root, Aggregation) and ms.root.name is None
    assert equivalent(ms, parse("A=<a+b>"))


def test_named_specialisation_below_the_top_is_allowed():
    ms = parse("A=TYPE=[a|b]")
    assert isinstance(ms.root, Aggregation)
    assert isinstance(ms.root.children[0], Specialisation)


# ---------------------------------------------------------------------------
# Error catalogue
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, code",
    [
        ("A=<a", "P001"),
        ("A=<a+{b>", "P001"),
        ("A=<a}", "P001"),
        ("A=<a>>", "P001"),
        ("A=a>", "P001"),
        ("Vehicle=<NumberPlate+Motor=CubicCapacity+Valves>", "P002"),
        ("A=<>", "P003"),
        ("A=<a+>", "P003"),
        ("A=<a++b>", "P003"),
        ("A={}", "P003"),
        ("A=<[a|]>", "P003"),
        ("A=", "P003"),
        ("A=[a|b]", "P004"),
        ("A=[a]", "P004"),
        ('A=<a (domain=bogus)>', "P005"),
        ('A=<a (op=i>', "P005"),
        ('A=<a ()>', "P005"),
        ('A=<a (shiny=1)>', "P005"),
        ('A=<a (link="notdotted")>', "P005"),
        ('A=<a (required=maybe)>', "P005"),
        ('A=<a (op=i; op=g)>', "P005"),
        ('A=<a (init=":Price * ")>', "P005"),
        ('A=<a (formula=":x")>', "P005"),  # formula without op=d
        ('A=<a (example="unclosed)>', "P005"),
        ('A=<a (op=x)>', "P006"),
        ("A=<a b\nc>", "P007"),
        ("A=<a>junk", "P007"),
        ("A=<a;b>", "P007"),
        ("9=<a>", "P007"),
    ],
)
def test_error_catalogue(text, code):
    assert _fail_code(text) == code


def test_errors_are_deterministic():
    first = second = None
    for target in ("first", "second"):
        try:
            parse("A=<a+{b>")
        except ParseError as exc:
            if target == "first":
                first = exc.diagnostics
            else:
                second = exc.diagnostics
    assert first == second


# ---------------------------------------------------------------------------
# Lexical conveniences
# ---------------------------------------------------------------------------


def test_comments_crlf_and_bom():
    text = "﻿# heading\r\nA =\r\n< a + # trailing note\r\n  b >\r\n"
    ms = parse(text)
    assert [c.name for c in ms.root.children] == ["a", "b"]


def test_whitespace_between_name_words_collapses():
    ms = parse("A=<Person   in\tcharge>")
    assert ms.root.children[0].name == "Person in charge"


def test_names_do_not_cross_newlines():
    assert _fail_code("A=<Person\nin charge>") == "P007"


def test_full_annotation_round_trip():
    text = (
        'A=<Amount (op=d; domain=money; example="12,50 €"; desc="line total"; '
        'label="Amt"; link="Order.amount"; required=true; init="today()"; '
        'visible=false; formula=":Price * :Quantity")>'
    )
    ms = parse(text)
    (f,) = list(iter_fields(ms))
    p = f.properties
    assert p.acquisition.op == "d"
    assert p.acquisition.formula == BinaryOp("*", FieldRef("Price"), FieldRef("Quantity"))
    assert p.initialisation == Call("today")
    assert p.memory_link == "Order.amount"
    assert p.compulsory is True and p.visible is False
    assert parse(to_text(ms)) == ms


def test_escape_sequences_in_quoted_values():
    ms = parse('A=<a (example="say \\"hi\\"\\t\\\\")>')
    assert next(iter_fields(ms)).properties.example == 'say "hi"\t\\'


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet=st.sampled_from('\\"\'\t\n\rtnrq é') | st.characters()))
def test_unescape_inverts_escape(value):
    assert core._unescape(core._escape(value)) == value


# What ``_escape`` writes for each character it escapes; others stay as written.
_ESCAPED = {"\\": "\\\\", '"': '\\"', "\t": "\\t", "\n": "\\n", "\r": "\\r"}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet=st.sampled_from('\\"\t\n\r\'aZq') | st.characters(min_codepoint=0x80)))
def test_escape_writes_each_special_character_as_its_escape(value):
    assert core._escape(value) == "".join(_ESCAPED.get(ch, ch) for ch in value)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, tree",
    [
        (":Price * :Quantity", BinaryOp("*", FieldRef("Price"), FieldRef("Quantity"))),
        ("today()", Call("today")),
        (
            ":a + :b * 2",
            BinaryOp("+", FieldRef("a"), BinaryOp("*", FieldRef("b"), Number(2))),
        ),
        (
            "(:a + :b) * 2",
            BinaryOp("*", BinaryOp("+", FieldRef("a"), FieldRef("b")), Number(2)),
        ),
        ("max(:a, 1.5)", Call("max", (FieldRef("a"), Number(1.5)))),
    ],
)
def test_formula_grammar(text, tree):
    assert parse_formula(text) == tree


def test_formula_subtraction_groups_left():
    f = parse_formula(":a - :b - :c")
    assert f == BinaryOp("-", BinaryOp("-", FieldRef("a"), FieldRef("b")), FieldRef("c"))


@pytest.mark.parametrize(
    "text, printed",
    [
        ("(:a + :b) * :c", "(:a + :b) * :c"),
        (":a - (:b - :c)", ":a - (:b - :c)"),
        (":a / (:b * :c)", ":a / (:b * :c)"),
        # Subtraction groups left, so the left operand needs no parentheses.
        ("(:a - :b) - :c", ":a - :b - :c"),
        # Numbers are written as the number token reads them: no exponent.
        ("0.00001", "0.00001"),
        ("10000000000000000.0", "10000000000000000.0"),
    ],
)
def test_formula_printing_keeps_only_the_parentheses_it_needs(text, printed):
    formula = parse_formula(text)
    assert formula_to_text(formula) == printed
    assert parse_formula(printed) == formula


def test_the_formula_reader_is_the_one_in_core():
    assert parse_formula is core.parse_formula


@pytest.mark.parametrize(
    "number",
    ["9" * 400 + ".5", "9" * 5000],
    ids=["decimal-past-float", "integer-past-int-digits"],
)
def test_a_formula_number_too_large_to_print_back_is_p005(number):
    text = f'A=<x (op=d; formula="{number}")>'
    quote = text.index('"')
    code, message, span = _diagnostic(text)
    assert code == "P005"
    assert message == "bad formula: number too large"
    assert span == f"1:{quote + 1}-1:{quote + len(number) + 2}"


@pytest.mark.parametrize("style", ["compact", "tabular"])
@pytest.mark.parametrize(
    "number, value",
    [("9" * 4300, int("9" * 4300)), ("1" + "0" * 308 + ".0", 1e308)],
    ids=["integer-4300-digits", "decimal-1e308"],
)
def test_the_largest_formula_numbers_parse_and_round_trip(style, number, value):
    ms = parse(f'A=<x (op=d; formula="{number}")>')
    assert ms.root.children[0].properties.acquisition.formula == Number(value)
    text = to_text(ms, style)
    assert number in text
    assert parse(text) == ms


# A formula nests at most 64 levels: each operator, call and parenthesised
# group is one level over its deepest operand (README, "Notation").
_FORMULA_DEPTH = 64


@pytest.mark.parametrize(
    "deepest, deeper",
    [
        (":x" + "+:x" * _FORMULA_DEPTH, ":x" + "+:x" * (_FORMULA_DEPTH + 1)),
        ("(" * _FORMULA_DEPTH + ":x" + ")" * _FORMULA_DEPTH, "(" * 5000 + ":x" + ")" * 5000),
        ("f(" * _FORMULA_DEPTH + ")" * _FORMULA_DEPTH, "f(" * (_FORMULA_DEPTH + 1) + ")" * (_FORMULA_DEPTH + 1)),
        ("2*" * _FORMULA_DEPTH + ":x", "(" + ":x" + "+:x" * _FORMULA_DEPTH + ")"),
    ],
    ids=["sum", "parentheses", "calls", "product"],
)
def test_formula_nesting_past_the_bound_is_p005(deepest, deeper):
    parse_formula(deepest)
    ms = parse(f'A=<x (op=d; formula="{deepest}")>')
    assert ms.root.children[0].properties.acquisition.formula == parse_formula(deepest)
    text = f'A=<x (op=d; formula="{deeper}")>'
    quote = text.index('"')
    code, message, span = _diagnostic(text)
    assert code == "P005"
    assert message == f"bad formula: nested too deep: more than {_FORMULA_DEPTH} levels"
    assert span == f"1:{quote + 1}-1:{quote + len(deeper) + 2}"


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def test_compact_identity_on_canonical_sugar():
    from msgstruct.core import canonicalize

    ms = canonicalize(parse("A=<a+b+{e+f+g}>"))
    assert to_text(ms) == "A=<a+b+{e+f+g}>"


def test_compact_preserves_explicit_nesting():
    for text in ("A=<a+{<b>+<c>}>", "A={<<a>>}", "A=<[a+b|c]>", "A={C=<a>}"):
        ms = parse(text)
        assert parse(to_text(ms)) == ms, text


def test_tabular_matches_the_reference_table(order):
    assert to_text(order, "tabular") == ORDER_TABLE


def test_tabular_layout_parses_back(order):
    again = parse(ORDER_TABLE)
    assert equivalent(again, order)
    assert [f.properties for f in iter_fields(again)] == [
        f.properties for f in iter_fields(order)
    ]


def test_tabular_extra_properties_column():
    ms = parse('A=<a (op=i; domain=number; desc="note"; required=true)>')
    table = to_text(ms, "tabular")
    assert '(desc="note"; required=true)' in table
    assert parse(table) == ms


def test_tabular_of_specialisation_round_trips(assignment):
    table = to_text(assignment, "tabular")
    again = parse(table)
    assert equivalent(again, assignment)
    assert [f.properties for f in iter_fields(again)] == [
        f.properties for f in iter_fields(assignment)
    ]


def test_parse_is_deterministic_and_json_stable(order):
    import json

    one = json.dumps(structure_to_json_obj(parse(ORDER_TEXT)), sort_keys=False)
    two = json.dumps(structure_to_json_obj(parse(ORDER_TEXT)), sort_keys=False)
    assert one == two
    assert parse(ORDER_TEXT) == order


def test_print_parse_roundtrip_property():
    prop_print_parse_roundtrip()


# ---------------------------------------------------------------------------
# Scanner edge cases
# ---------------------------------------------------------------------------


def _diagnostic(text: str) -> tuple[str, str, str]:
    with pytest.raises(ParseError) as exc:
        parse(text)
    (diag,) = exc.value.diagnostics
    s = diag.span
    return diag.code, diag.message, f"{s.start_line}:{s.start_col}-{s.end_line}:{s.end_col}"


def _field_span(ms, name: str) -> str:
    s = next(f for f in iter_fields(ms) if f.name == name).span
    return f"{s.start_line}:{s.start_col}-{s.end_line}:{s.end_col}"


_TABLE = "FIELD\tOP\tDOMAIN\tEXAMPLE VALUE\n"


@pytest.mark.parametrize(
    "text, expected",
    [
        # A comment runs to the end of its line, even when it holds '")"'.
        (
            'A=<x (example="a"# c=")" +\nB (op=i)>',
            ("P005", "expected ';' or ')' in annotation, found 'B'", "2:1-2:1"),
        ),
        ("A=<x (op=i\nB)>", ("P005", "expected ';' or ')' in annotation, found 'B'", "2:1-2:1")),
        ("A=<x (op=i; op=g)>", ("P005", "duplicate property key 'op'", "1:13-1:14")),
        ('A=<x (example="a\\', ("P005", "unterminated string in annotation", "1:15-1:17")),
        ("A=<x (op=i #n\n)>", ("P006", "unknown acquisition operation 'i #n'", "1:10-1:13")),
        # A name followed by '=' at the end of input is P002, like any non-opener.
        (
            "A = < b + C =",
            (
                "P002",
                "'C' = must be followed by '<', '{', or '[' (a bare name is always a field)",
                "1:11-1:13",
            ),
        ),
        (
            "A = C =",
            (
                "P002",
                "'C' = must be followed by '<', '{', or '[' (a bare name is always a field)",
                "1:5-1:7",
            ),
        ),
        # The tabular layout is read in place: each diagnostic points into
        # the cell at fault, and a cell is a value, never annotation syntax.
        (_TABLE + "A =\n< x\tq\n>", ("P006", "unknown acquisition operation 'q'", "3:5-3:5")),
        (
            _TABLE + "A =\n< x\ti\t[a|a]\n>",
            ("P005", "duplicate literals in enumerated domain: '[a|a]'", "3:7-3:11"),
        ),
        (_TABLE + 'A =\n< x\ti\ttext\tsay "hi\n>', ("P005", "unescaped '\"' in example value", "3:16-3:16")),
        (
            _TABLE + 'A =\n< x\ti\t\t\t(link="bad")\n>',
            ("P005", "link must be 'Entity.attribute': 'bad'", "3:15-3:19"),
        ),
        (_TABLE + "A =\n< L = {\ti\nx }\n>", ("P005", "property cells must follow a field name", "3:9-3:9")),
        (_TABLE + "A =\n<\ti\nx\n>", ("P005", "property cells must follow a field name", "3:3-3:3")),
        (
            _TABLE + 'A =\n< a\ti\tnumber\t1\t(desc="x")\tjunk\n>',
            ("P005", "a row has at most five cells", "3:27-3:30"),
        ),
        (
            _TABLE + 'A =\n< x\ti; label="L"\n>',
            ("P006", "unknown acquisition operation 'i; label=\"L\"'", "3:5-3:16"),
        ),
        (_TABLE + 'A =\n< x\ti\ttext\tx"; desc="y\n>', ("P005", "unescaped '\"' in example value", "3:13-3:13")),
        # A '#' in the extra-properties cell comments out the rest of the
        # cell, not the rows below: the value is missing at the cell's end,
        # and the error lands on the cell's last character.
        (
            _TABLE + 'A =\n< x +\t\t\t\t(desc=#"note")\ny\ti\n>',
            ("P005", "missing value for property 'desc'", "3:23-3:23"),
        ),
        # A DOMAIN error quotes the cell as written.
        (
            _TABLE + "A =\n< x\ti\ttime;\n>",
            ("P005", "reference domain needs a type name: 'time;'", "3:7-3:11"),
        ),
        (_TABLE + "A =\n< x\ti\t[]\n>", ("P005", "bad enumerated domain: '[]'", "3:7-3:8")),
        # An extras cell that ends inside its annotation.
        (
            _TABLE + 'A =\n< x +\t\t\t\t(desc="x"\ny\ti\n>',
            ("P005", "expected ';' or ')' in annotation, found ''", "3:18-3:18"),
        ),
        (_TABLE + "A =\n< x +\t\t\t\t(desc=\ny\ti\n>", ("P005", "missing value for property 'desc'", "3:15-3:15")),
        (
            _TABLE + "A =\n< x +\t\t\t\t(desc\ny\ti\n>",
            ("P005", "expected '=' after property key 'desc'", "3:14-3:14"),
        ),
        (
            "A=<x (op=i) = <y>>",
            ("P007", "annotated name 'x' cannot introduce a complex substructure", "1:13-1:13"),
        ),
        # An extras cell may not repeat a property of another cell.
        (_TABLE + "A =\n< x\ti\t\t\t(op=g) >\n", ("P005", "duplicate property key 'op'", "3:10-3:11")),
        # The same at the end of input, where the fast path reads the row
        # and hands it back to the entry loop.
        (_TABLE + "A =\n< x\ti\t\t\t(op=g)", ("P005", "duplicate property key 'op'", "3:10-3:11")),
        (
            _TABLE + "A =\n< x\t\ttext\t\t(domain=number)",
            ("P005", "duplicate property key 'domain'", "3:13-3:18"),
        ),
        (
            _TABLE + 'A =\n< x\t\t\t7\t(example="8")',
            ("P005", "duplicate property key 'example'", "3:10-3:16"),
        ),
    ],
)
def test_scanner_diagnostics(text, expected):
    assert _diagnostic(text) == expected


@pytest.mark.parametrize(
    "annotation, build",
    [
        ("op=q", lambda: Acquisition("q")),
        ("op=i; formula=:y", lambda: Acquisition("i", FieldRef("y"))),
        ("formula=:y", lambda: Acquisition(None, FieldRef("y"))),
        ("link=bad", lambda: FieldProperties(memory_link="bad")),
        ("domain=enum:a|a", lambda: EnumeratedDomain(("a", "a"))),
        ("domain=enum:", lambda: EnumeratedDomain(())),
        ("domain=enum:9", lambda: EnumeratedDomain(("9",))),
        ("domain=ref:9x", lambda: ReferenceDomain("9x")),
        ("required=yes", lambda: _parse_bool("yes")),
        ("visible=1", lambda: _parse_bool("1")),
        ("init=1+", lambda: parse_formula("1+")),
        ("init=(1", lambda: parse_formula("(1")),
        ("init=:", lambda: parse_formula(":")),
        ("init='x", lambda: parse_formula("'x")),
        ('init="f(1 2)"', lambda: parse_formula("f(1 2)")),
    ],
)
def test_a_bad_value_is_reported_with_its_owners_message(annotation, build):
    # Each value rule is stated once, by the owner of the value it governs;
    # the parser reports the owner's message at the value. The value at
    # fault is the last one in ``annotation``.
    with pytest.raises(ValueError) as owner:
        build()
    expected = f"bad formula: {owner.value}" if annotation.startswith("init=") else str(owner.value)
    entries = annotation.split("; ")
    bad_value = entries[-1].split("=", 1)[1]
    forms = [
        f"A=<x ({annotation})>",
        # Keys reversed after a comment: the fast path never takes this
        # form, so the entry loop reads it from the start.
        f"A=<x (# note\n{'; '.join(reversed(entries))})>",
        # The tabular layout's extras cell.
        _TABLE + f"A =\n< x\t\t\t\t({annotation})\n>\n",
    ]
    for text in forms:
        code, message, span = _diagnostic(text)
        assert code == ("P006" if annotation == "op=q" else "P005"), text
        assert message == expected, text
        line, start_col, end_line, end_col = map(int, re.split("[:-]", span))
        assert end_line == line, text
        assert text.split("\n")[line - 1][start_col - 1:end_col] == bad_value, text


def test_annotation_entries_may_continue_on_the_next_line():
    ms = parse("A=<x (op=i\n; domain=text)>")
    assert _field_span(ms, "x") == "1:4-2:14"
    assert next(iter_fields(ms)).properties.domain == BasicDomain("text")


def test_only_quoted_text_with_an_escape_compiles_the_unescape_pattern():
    core._unescape_re.cache_clear()
    # Both are read by the entry loop, as the annotation spans two lines.
    assert next(iter_fields(parse('A=<a (op=i;\n desc="x y")>'))).properties.description == "x y"
    assert core._unescape_re.cache_info().currsize == 0
    assert next(iter_fields(parse('A=<a (op=i;\n desc="x\\ty")>'))).properties.description == "x\ty"
    assert core._unescape_re.cache_info().currsize == 1


def test_quoted_values_keep_unknown_escapes():
    ms = parse('A=<x (example="a\\\nb")>')
    assert next(iter_fields(ms)).properties.example == "a\\\nb"
    ms = parse('A=<x (example="\\q")>')
    assert next(iter_fields(ms)).properties.example == "\\q"


def test_spans_after_a_bom_and_crlf():
    ms = parse("\ufeffA=<x +\r\n  y (op=i)>\r\n")
    assert _field_span(ms, "y") == "2:3-2:10"


def test_annotated_name_with_mixed_whitespace():
    ms = parse("A=<Person\t in  charge (op=i)>")
    assert ms.root.children[0].name == "Person in charge"
    assert _field_span(ms, "Person in charge") == "1:4-1:28"


# ---------------------------------------------------------------------------
# Nesting limit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("opener, closer", [("<", ">"), ("{", "}"), ("[", "]")])
def test_nesting_up_to_the_limit_parses(opener, closer):
    depth = MAX_NESTING - 1  # inside the root aggregation
    ms = parse("A=<" + opener * depth + "x" + closer * depth + ">")
    assert len(list(walk(ms))) == MAX_NESTING + 1


@pytest.mark.parametrize("opener, closer", [("<", ">"), ("{", "}"), ("[", "]")])
def test_parsed_trees_at_the_limit_compare_and_hash(opener, closer):
    depth = MAX_NESTING - 1
    text = "A=<" + opener * depth + "x" + closer * depth + ">"
    assert parse(text) == parse(text) and hash(parse(text)) == hash(parse(text))
    assert parse(text) != parse(text.replace("x", "y"))


@pytest.mark.parametrize("opener, closer", [("<", ">"), ("{", "}"), ("[", "]")])
def test_compact_text_at_the_limit_prints_back(opener, closer):
    depth = MAX_NESTING - 1
    text = "A=<" + opener * depth + "x" + closer * depth + ">"
    ms = parse(text)
    assert to_text(ms) == text
    assert to_text(canonicalize(ms)) == text


@pytest.mark.parametrize(
    "wrap, opener, closer",
    [
        (lambda node: Aggregation(None, (node,)), "<", ">"),
        (lambda node: Iteration(None, (node,)), "{", "}"),
        (lambda node: Specialisation(None, ((node,),)), "[", "]"),
    ],
    ids=["aggregation", "iteration", "specialisation"],
)
def test_compact_text_of_a_tree_built_in_code_ignores_depth(wrap, opener, closer):
    node = Field("x")
    for _ in range(5000):
        node = wrap(node)
    ms = MessageStructure("M", Aggregation(None, (node,)))
    assert to_text(ms) == "M=<" + opener * 5000 + "x" + closer * 5000 + ">"


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 5000])
def test_nesting_past_the_limit_is_p008(depth):
    code, message, span = _diagnostic("A=" + "<" * depth + "x" + ">" * depth)
    assert code == "P008"
    assert message == f"nesting too deep: more than {MAX_NESTING} levels"
    column = 3 + MAX_NESTING  # the opener that crosses the limit
    assert span == f"1:{column}-1:{column}"


# ---------------------------------------------------------------------------
# Total over arbitrary text
# ---------------------------------------------------------------------------

_PIECES = list('<>{}[]|+=();:"\\#\n\r\t .-1xyzABé\ufeff') + [
    "FIELD\tOP\tDOMAIN\tEXAMPLE VALUE\n",
    "op=",
    "domain=",
    'example="',
    "C =",
    "# note\n",
]
_CORPUS = (ORDER_TEXT, ORDER_TABLE, VEHICLE_AMBIGUOUS, VEHICLE_NESTED)
_pieces = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)
_edits = st.lists(
    st.tuples(
        st.integers(0, 2000),
        st.sampled_from(parse_golden.EDITS),
        st.sampled_from(_PIECES),
    ),
    min_size=1,
    max_size=4,
)
_texts = _pieces | st.builds(mutate, st.sampled_from(_CORPUS), _edits)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_texts)
def test_parse_is_total_on_arbitrary_text(text):
    """``parse`` returns a structure or raises ParseError, and every span it
    reports lies inside the input."""
    lines = text.lstrip("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    try:
        spans = [n.span for n in walk(parse(text))]
    except ParseError as exc:
        spans = [d.span for d in exc.diagnostics]
    for span in spans:
        assert 1 <= span.start_line <= span.end_line <= len(lines)
        assert span.start_col >= 1 and span.end_col >= 1
        assert span.start_col <= len(lines[span.start_line - 1]) + 1
        assert span.end_col <= len(lines[span.end_line - 1]) + 1


def test_parse_matches_the_golden_file():
    """Trees, spans and diagnostics are those pinned in
    ``tests/data/parse_golden.jsonl`` (see ``tests/parse_golden.py``)."""
    bases, records = parse_golden.load()
    assert len(records) > 1500
    changed = []
    for record in records:
        text = parse_golden.text_of(record, bases)
        expected = {k: record[k] for k in ("tree", "error") if k in record}
        if parse_golden.outcome(text) != expected:
            changed.append(text)
    assert not changed, f"{len(changed)} of {len(records)} differ, the first: {changed[0]!r}"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(strategies.structures())
def test_the_fast_path_reads_what_the_general_path_reads(tree):
    # The token and entry loops, which report every diagnostic, are the
    # reference for the one-match fast path: with it declining every field,
    # each printed tree parses to the same tree, spans included.
    for style in ("compact", "tabular"):
        text = to_text(tree, style)
        with mock.patch.object(_Parser, "_fast_field", lambda self: None):
            general = parse(text)
        assert repr(parse(text)) == repr(general)


def test_the_fast_keys_are_in_print_order():
    # The fast path's pattern takes the keys in ``_FAST_KEYS`` order, which
    # must be the order ``to_text`` writes them; otherwise every annotated
    # field would fall back to the entry loop, with no output to show it.
    # The JSON view (``to_mapping``) lists them in the same order.
    every = FieldProperties(
        Acquisition("d", FieldRef("x")),
        BasicDomain("text"),
        "e",
        "a description",
        "a label",
        "Entity.attribute",
        True,
        Number(1),
        False,
    )
    ms = MessageStructure("M", Aggregation(None, (Field("a", every),)))
    compact = to_text(ms)
    extras = to_text(ms, "tabular").splitlines()[-1].split("\t")[-1]
    assert tuple(re.findall(r"(?:\(|; )([a-z]+)=", compact)) == _FAST_KEYS
    assert ("op", "domain", "example", *re.findall(r"(?:\(|; )([a-z]+)=", extras)) == _FAST_KEYS
    assert tuple(every.to_mapping()) == _FAST_KEYS


# A reference copy of the printers as they were when each field's annotation
# was written from ``FieldProperties.to_mapping``, with five ``str.replace``
# scans over every quoted value. ``to_text`` writes what they write, byte for
# byte.
_REFERENCE_BRACKETS = {Aggregation: "<>", Iteration: "{}", Specialisation: "[]"}


def _reference_escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\t", "\\t").replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def _reference_annotation(mapping: dict[str, str]) -> str:
    return "(" + "; ".join(
        f"{k}={v}" if k in ("op", "domain", "required", "visible") else f'{k}="{_reference_escape(v)}"'
        for k, v in mapping.items()
    ) + ")"


def _reference_compact(root) -> str:
    out: list[str] = []
    elided: set[int] = set()
    after_entry = True
    for entering, item in core._traverse(root):
        kind = type(item)
        if not after_entry and entering is not False:
            out.append("|" if kind is tuple else "+")
        after_entry = entering
        if entering is None:
            mapping = item.properties.to_mapping()
            out.append(f"{item.name} {_reference_annotation(mapping)}" if mapping else item.name)
        elif kind is tuple or id(item) in elided:
            if not entering:
                elided.discard(id(item))
        elif entering:
            opener = _REFERENCE_BRACKETS[kind][0]
            out.append(f"{item.name}={opener}" if item.name else opener)
        else:
            out.append(_REFERENCE_BRACKETS[kind][1])
        if entering and (kind is tuple or kind is Iteration):
            only = core._lone_aggregation(item if kind is tuple else item.children)
            if only is not None and only.name is None and core._lone_aggregation(only.children) is None:
                elided.add(id(only))
    return "".join(out)


def _reference_domain_column(text: str) -> str:
    if text.startswith("enum:"):
        return f"[{text[5:]}]"
    if text.startswith("ref:") and text[4:] not in core.BASIC_DOMAIN_KINDS:
        return text[4:]
    return text


def _reference_tabular(ms: MessageStructure) -> str:
    rows: list = [(f"{ms.name} =", None)]
    absorb = False
    pending = ""
    after_entry = True
    for entering, item in core._traverse(ms.root):
        kind = type(item)
        if not after_entry and entering is not False:
            text, fld = rows[-1]
            rows[-1] = (text + (" |" if kind is tuple else " +"), fld)
            absorb = False
        after_entry = entering
        if entering is None:
            rows.append((pending + item.name, item))
            absorb = True
            pending = ""
        elif kind is tuple:
            continue
        elif entering:
            if item.name:
                rows.append((pending + item.name + " =", None))
                absorb = False
                pending = ""
            pending += _REFERENCE_BRACKETS[kind][0] + " "
        elif absorb:
            text, fld = rows[-1]
            rows[-1] = (text + " " + _REFERENCE_BRACKETS[kind][1], fld)
            absorb = False
        else:
            rows.append((_REFERENCE_BRACKETS[kind][1], None))
    lines = ["FIELD\tOP\tDOMAIN\tEXAMPLE VALUE"]
    for text, fld in rows:
        cells = [text]
        if fld is not None:
            mapping = fld.properties.to_mapping()
            extras = {k: v for k, v in mapping.items() if k not in ("op", "domain", "example")}
            op = mapping.get("op", "")
            domain = _reference_domain_column(mapping["domain"]) if "domain" in mapping else ""
            example = _reference_escape(mapping["example"]) if "example" in mapping else ""
            if mapping.get("example") == "":
                example = ""
                extras = {"example": "", **extras}
            cells += [op, domain, example, _reference_annotation(extras) if extras else ""]
            while cells and cells[-1] == "":
                cells.pop()
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def _reference_to_text(ms: MessageStructure, style: str) -> str:
    if ms.root.name is not None:
        ms = MessageStructure(ms.name, type(ms.root)(None, ms.root.parts))
    return f"{ms.name}={_reference_compact(ms.root)}" if style == "compact" else _reference_tabular(ms)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(strategies.structures())
def test_the_printers_write_what_the_reference_printers_write(tree):
    for style in ("compact", "tabular"):
        assert to_text(tree, style) == _reference_to_text(tree, style)


@pytest.mark.parametrize(
    "properties, compact, cells",
    [
        # An empty example: an empty EXAMPLE VALUE cell would read as absent.
        (FieldProperties(example=""), 'a (example="")', '\t\t\t\t(example="")'),
        (
            FieldProperties(Acquisition("i"), BasicDomain("text"), "", "d"),
            'a (op=i; domain=text; example=""; desc="d")',
            '\ti\ttext\t\t(example=""; desc="d")',
        ),
        # '\\', '"', tab, newline and carriage return, in every quoted value,
        # each also alone.
        (
            FieldProperties(example='say "hi"\t\\', description="two\nlines\r", label='\\"'),
            'a (example="say \\"hi\\"\\t\\\\"; desc="two\\nlines\\r"; label="\\\\\\"")',
            '\t\t\tsay \\"hi\\"\\t\\\\\t(desc="two\\nlines\\r"; label="\\\\\\"")',
        ),
        (
            FieldProperties(example="\r", description="\t", label="\n"),
            'a (example="\\r"; desc="\\t"; label="\\n")',
            '\t\t\t\\r\t(desc="\\t"; label="\\n")',
        ),
        (
            FieldProperties(example="\\", description='"'),
            'a (example="\\\\"; desc="\\"")',
            '\t\t\t\\\\\t(desc="\\"")',
        ),
        # A lone literal of several words keeps its '|'.
        (
            FieldProperties(domain=EnumeratedDomain(("Credit card",))),
            "a (domain=enum:Credit card|)",
            "\t\t[Credit card|]",
        ),
        # A type named like a basic domain keeps its "ref:".
        (FieldProperties(domain=ReferenceDomain("text")), "a (domain=ref:text)", "\t\tref:text"),
        (FieldProperties(domain=ReferenceDomain("Client")), "a (domain=ref:Client)", "\t\tClient"),
        # Formulas are quoted, with the quotes and backslashes of their text escaped.
        (
            FieldProperties(
                Acquisition("d", BinaryOp("*", FieldRef("Price"), Call("max", (Text('a"b\\'), Number(2))))),
                initialisation=Call("today"),
                visible=True,
            ),
            'a (op=d; init="today()"; visible=true; formula=":Price * max(\'a\\"b\\\\\\\\\', 2)")',
            '\td\t\t\t(init="today()"; visible=true; formula=":Price * max(\'a\\"b\\\\\\\\\', 2)")',
        ),
    ],
)
def test_the_printers_write_each_property_as_it_reads_back(properties, compact, cells):
    ms = MessageStructure("M", Aggregation(None, (Field("a", properties),)))
    assert to_text(ms) == f"M=<{compact}>"
    assert to_text(ms, "tabular") == f"FIELD\tOP\tDOMAIN\tEXAMPLE VALUE\nM =\n< a >{cells}\n"
    for style in ("compact", "tabular"):
        assert to_text(ms, style) == _reference_to_text(ms, style)
        assert parse(to_text(ms, style)) == ms
