"""Applicability matrix and guideline checks."""

from __future__ import annotations

import itertools

import pytest

from conftest import ORDER_TEXT
from msgstruct.core import Field, MessageStructure, Specialisation
from msgstruct.diagnostics import Severity
from msgstruct.lint import (
    APPLICABILITY,
    Level,
    LintConfig,
    PROPERTY_KINDS,
    Phase,
    guideline_checks,
    lint,
)
from msgstruct.parser import ParseError, parse

# Independent transcription of the applicability table, row by row:
# name, op-i, op-g, op-d, domain, example, description, label, link,
# compulsoriness, initialisation, visibility.
MATRIX_FIXTURE = {
    Phase.ANALYSIS: "++ ++ ++ -- ++ ++ ++ -- -- -- -- --",
    Phase.DESIGN_MEMORY: "++ ++ ++ ++ ++ ++ ++ - ++ + - -",
    Phase.DESIGN_INTERFACE: "++ ++ ++ ++ ++ ++ ++ ++ ++ ++ ++ +",
}


def test_matrix_matches_fixture_cell_for_cell():
    checked = 0
    for phase, row in MATRIX_FIXTURE.items():
        symbols = row.split()
        assert len(symbols) == 12
        for kind, symbol in zip(PROPERTY_KINDS, symbols):
            assert APPLICABILITY[(phase, kind)] is Level(symbol), (phase, kind)
            checked += 1
    assert checked == 36
    assert len(APPLICABILITY) == 36


def test_level_ordering_is_total():
    assert (
        Level.HIGHLY_RECOMMENDED.value,
        Level.RECOMMENDED.value,
        Level.NOT_RECOMMENDED.value,
        Level.DISCOURAGED.value,
    ) == ("++", "+", "-", "--")


# ---------------------------------------------------------------------------
# Matrix-driven lint
# ---------------------------------------------------------------------------


def test_order_is_clean_at_analysis(order):
    assert lint(order, Phase.ANALYSIS) == []


def test_derivation_operation_is_an_error_at_analysis():
    ms = parse('A=<Amount (op=d)>')
    diags = lint(ms, Phase.ANALYSIS)
    assert len(diags) == 1
    (d,) = diags
    assert d.severity is Severity.ERROR
    assert d.code == "L-OPD"
    assert d.message.startswith("derivation operation discouraged in analysis")
    assert d.span is not None


def test_visibility_is_an_error_at_analysis():
    diags = lint(parse("A=<a (visible=true)>"), Phase.ANALYSIS)
    assert [d.code for d in diags] == ["L-VIS"]
    assert diags[0].severity is Severity.ERROR


def test_label_is_a_warning_at_design_memory():
    diags = lint(parse('A=<a (label="Qty")>'), Phase.DESIGN_MEMORY)
    assert [(d.code, d.severity) for d in diags] == [("L-LABEL", Severity.WARNING)]


def test_design_interface_tolerates_everything():
    text = (
        'A=<Amount (op=d; domain=money; example="1"; desc="x"; label="Amt"; '
        'link="Order.amount"; required=true; init="today()"; visible=true; '
        'formula=":Amount + 1")>'
    )
    diags = lint(parse(text), Phase.DESIGN_INTERFACE)
    assert diags == []


def test_absent_properties_are_never_diagnosed():
    assert lint(parse("A=<a+b>"), Phase.ANALYSIS) == []
    assert lint(parse("A=<a+b>"), Phase.DESIGN_INTERFACE) == []


def test_report_missing_flag_adds_info_reminders():
    config = LintConfig(report_missing=True)
    diags = lint(parse("A=<a>"), Phase.ANALYSIS, config)
    assert {d.code for d in diags} == {"L-MISS"}
    assert all(d.severity is Severity.INFO for d in diags)
    mentioned = " ".join(d.message for d in diags)
    for label in ("acquisition operation", "domain", "example", "description"):
        assert label in mentioned


def test_lint_is_deterministic(order):
    a = lint(order, Phase.DESIGN_MEMORY)
    b = lint(order, Phase.DESIGN_MEMORY)
    assert a == b


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_severity_override_promotes_warnings():
    config = LintConfig.from_json({"severity": {"-": "error"}})
    diags = lint(parse('A=<a (label="x")>'), Phase.DESIGN_MEMORY, config)
    assert diags[0].severity is Severity.ERROR


def test_severity_override_can_silence_discouraged():
    config = LintConfig.from_json({"severity": {"--": "warning", "-": "info"}})
    diags = lint(parse("A=<a (op=d)>"), Phase.ANALYSIS, config)
    assert diags[0].severity is Severity.WARNING


_SEVERITIES = ["error", "warning", "info", "ignore"]
_RANK = {name: rank for rank, name in enumerate(reversed(_SEVERITIES))}


@pytest.mark.parametrize(
    "discouraged, not_recommended", list(itertools.product(_SEVERITIES, _SEVERITIES))
)
def test_severity_monotonicity_is_enforced(discouraged, not_recommended):
    obj = {"severity": {"--": discouraged, "-": not_recommended}}
    if _RANK[discouraged] >= _RANK[not_recommended]:
        config = LintConfig.from_json(obj)
        assert config.severity_map[Level.DISCOURAGED] in (
            Severity.ERROR,
            Severity.WARNING,
            Severity.INFO,
            None,
        )
    else:
        with pytest.raises(ValueError):
            LintConfig.from_json(obj)


def test_unknown_config_values_are_rejected():
    with pytest.raises(ValueError):
        LintConfig.from_json({"severity": {"~~": "error"}})
    with pytest.raises(ValueError):
        LintConfig.from_json({"severity": {"--": "fatal"}})
    with pytest.raises(ValueError):
        LintConfig.from_json({"report_missing": "false"})


# ---------------------------------------------------------------------------
# Guideline checks
# ---------------------------------------------------------------------------


def test_g1_flags_likely_derivable_names(order):
    assert guideline_checks(order, Phase.ANALYSIS) == []
    ms = parse(ORDER_TEXT.replace("Quantity (", "Amount (op=i) + Quantity ("))
    diags = guideline_checks(ms, Phase.ANALYSIS)
    assert [d.code for d in diags] == ["G1"]
    assert diags[0].severity is Severity.INFO
    assert "Amount" in diags[0].message


def test_g1_respects_the_configured_wordlist():
    ms = parse("A=<Grand total+Subtotal>")
    default = guideline_checks(ms, Phase.ANALYSIS)
    assert [d.code for d in default] == ["G1"]  # "total" matches as a word
    config = LintConfig(g1_wordlist=("subtotal",))
    custom = guideline_checks(ms, Phase.ANALYSIS, config)
    assert len(custom) == 1 and "Subtotal" in custom[0].message


def test_g1_is_analysis_only():
    ms = parse("A=<Amount>")
    assert guideline_checks(ms, Phase.DESIGN_MEMORY) == []


def test_g2_unknown_formula_reference():
    ms = parse('A=<Price+Quantity+Amount (op=d; formula=":Pricee * :Quantity")>')
    diags = guideline_checks(ms, Phase.DESIGN_MEMORY)
    assert [d.code for d in diags] == ["G2"]
    assert diags[0].severity is Severity.ERROR
    assert "Pricee" in diags[0].message


def test_g2_checks_initialisation_formulas_too():
    ms = parse('A=<a (init=":missing")>')
    assert [d.code for d in guideline_checks(ms, Phase.DESIGN_MEMORY)] == ["G2"]


def test_g2_accepts_known_references():
    ms = parse('A=<Price+Quantity+Amount (op=d; formula=":Price * :Quantity")>')
    assert guideline_checks(ms, Phase.DESIGN_MEMORY) == []


def test_g3_flags_specialisation_duplicating_an_enum(assignment):
    diags = guideline_checks(assignment, Phase.ANALYSIS)
    codes = [d.code for d in diags]
    assert codes == ["G3"]
    assert diags[0].severity is Severity.WARNING


def test_g3_requires_matching_variants():
    ms = parse('A=<kind (domain=enum:x|y)+[ONE=<a>|TWO=<b>|THREE=<c>]>')
    assert guideline_checks(ms, Phase.ANALYSIS) == []


@pytest.mark.parametrize(
    "literals, expected",
    [
        # Same count as the variants, but 'cd' names no variant.
        ("ab|cd", []),
        ("ab|xy", [("G3", "specialisation duplicates the enumerated domain of field 'f' (ab|xy)", "1:28")]),
    ],
)
def test_g3_needs_every_literal_to_match_a_variant(literals, expected):
    ms = parse(f"A=<f (domain=enum:{literals}) + [AB=<x>|XY=<y>]>")
    diags = guideline_checks(ms, Phase.ANALYSIS)
    assert [(d.code, d.message, str(d.span)) for d in diags] == expected


def test_g4_rejects_specialisation_roots_built_programmatically():
    # G4 is retired: the constructor owns the root rule, and the parser
    # reports its message as P004.
    with pytest.raises(ValueError) as owner:
        MessageStructure("A", Specialisation(None, ((Field("a"),), (Field("b"),))))
    with pytest.raises(ParseError) as exc:
        parse("A=[a|b]")
    (diag,) = exc.value.diagnostics
    assert (diag.code, diag.message) == ("P004", str(owner.value))


def test_no_findings_on_a_quiet_structure():
    assert guideline_checks(parse("A=<a+b>"), Phase.ANALYSIS) == []
