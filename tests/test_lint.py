"""Applicability matrix and guideline checks."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from conftest import ORDER_TEXT
from msgstruct.core import Field, MessageStructure, Specialisation, iter_fields, walk
from msgstruct.derive import CommunicativeEvent, DerivationError, derive_view
from msgstruct.diagnostics import Diagnostic, Severity
from msgstruct.fragment import fragment_1nf
from msgstruct.lint import (
    APPLICABILITY,
    Level,
    LintConfig,
    PROPERTY_KINDS,
    Phase,
    _ROWS,
    _VOCABULARY,
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


def _reference_lint(ms: MessageStructure, phase: Phase, config: LintConfig) -> list[Diagnostic]:
    """The matrix check as a plain loop over every field's present kinds:
    list them in column order, then look each one up in the phase's row."""

    def present_kinds(f: Field) -> list[str]:
        p = f.properties
        kinds = ["name"]
        if p.acquisition is not None:
            kinds.append(f"op-{p.acquisition.op}")
        for kind, value in (
            ("domain", p.domain),
            ("example", p.example),
            ("description", p.description),
            ("label", p.label),
            ("link", p.memory_link),
            ("compulsoriness", p.compulsory),
            ("initialisation", p.initialisation),
            ("visibility", p.visible),
        ):
            if value is not None:
                kinds.append(kind)
        return kinds

    reported = {}
    wanted = []
    for kind, level in zip(PROPERTY_KINDS, _ROWS[phase]):
        code, label = _VOCABULARY[kind][:2]
        severity = config.severity_map[level]
        if severity is not None:
            word = "discouraged" if level is Level.DISCOURAGED else "not recommended"
            reported[kind] = (severity, code, f"{label} {word}")
        if level is Level.HIGHLY_RECOMMENDED:
            wanted.append(kind)
    out = []
    for f in iter_fields(ms):
        present = present_kinds(f)
        for kind in present:
            if kind in reported:
                severity, code, text = reported[kind]
                out.append(Diagnostic(severity, code, f"{text} in {phase.value} (field {f.name!r})", f.span))
        if config.report_missing:
            missing = []
            if "op-i" in wanted and not any(k.startswith("op-") for k in present):
                missing.append("acquisition operation")
            missing += [_VOCABULARY[k][1] for k in wanted if not k.startswith("op-") and k not in present]
            for label in missing:
                message = f"{label} is highly recommended in {phase.value} but missing (field {f.name!r})"
                out.append(Diagnostic(Severity.INFO, "L-MISS", message, f.span))
    return out


_LAW_CONFIGS = (
    LintConfig(),
    LintConfig(report_missing=True),
    # Every level reports, and so does every missing property.
    LintConfig.from_json({"severity": {"++": "info", "+": "info", "-": "warning"}, "report_missing": True}),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(strategies.structures())
def test_lint_tests_only_the_kinds_its_phase_reports(ms):
    # Testing only the kinds that report, in column order, gives what
    # testing every present kind gives: the same diagnostics in the same order.
    for phase, config in itertools.product(Phase, _LAW_CONFIGS):
        assert lint(ms, phase, config) == _reference_lint(ms, phase, config), (phase, config)


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
    with pytest.raises(ValueError, match="^'severity' must be an object$"):
        LintConfig.from_json({"severity": []})


def test_a_config_keeps_its_severity_map():
    # The map is read-only: an edit would skip the order check and change
    # every later call that takes the default config.
    default = lint(parse('A=<x (op=i; label="L")>'), Phase.ANALYSIS)
    assert [d.code for d in default] == ["L-LABEL"]
    with pytest.raises(TypeError):
        LintConfig().severity_map[Level.DISCOURAGED] = None
    given = dict(LintConfig().severity_map)
    config = LintConfig(severity_map=given)
    given[Level.DISCOURAGED], given[Level.HIGHLY_RECOMMENDED] = None, Severity.ERROR
    assert config == LintConfig()
    assert lint(parse('A=<x (op=i; label="L")>'), Phase.ANALYSIS, config) == default


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


@pytest.mark.parametrize(
    "build", [lambda: LintConfig(g1_wordlist=("Total",)), lambda: LintConfig.from_json({"g1_wordlist": ["Total"]})],
    ids=["constructor", "from_json"],
)
def test_g1_words_match_regardless_of_case(build):
    config = build()
    assert config.g1_wordlist == ("total",)
    diags = guideline_checks(parse("A=<Total amount+Item>"), Phase.ANALYSIS, config)
    assert [d.code for d in diags] == ["G1"] and "'total'" in diags[0].message


@pytest.mark.parametrize("words", [5, "total", ["total", 5], None], ids=["number", "string", "mixed", "none"])
def test_a_g1_wordlist_that_is_not_strings_is_refused(words):
    with pytest.raises(ValueError, match="^'g1_wordlist' must be a list of strings$"):
        LintConfig(g1_wordlist=words)


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
    # References inside a function's arguments count too.
    ms = parse('A=<a (init="round(:missing, 2)")>')
    diags = guideline_checks(ms, Phase.DESIGN_MEMORY)
    assert [(d.code, d.message) for d in diags] == [
        ("G2", "formula on field 'a' references unknown field 'missing'")
    ]


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
    # A variant is named only by the aggregation written alone in it, as
    # derive_view and fragment_1nf name it: a lone named iteration or
    # specialisation leaves it unnamed, so no literal matches it.
    for variants in ("AB={x}|XY={y}", "AB=[x]|XY=[y]"):
        ms = parse(f"A=<f (domain=enum:{literals}) + [{variants}]>")
        assert guideline_checks(ms, Phase.ANALYSIS) == [], variants


# How a variant may be written: alone as an aggregation, an iteration or a
# specialisation, named or not, or as bare fields.
_VARIANT_FORMS = ("{name}=<{body}>", "<{body}>", "{name}={{{body}}}", "{{{body}}}",
                  "{name}=[{body}]", "[{body}]", "{body}")


@st.composite
def _enum_beside_variants(draw) -> MessageStructure:
    """An enum field whose literals are the lowercased variant names of the
    specialisation beside it. The names start with distinct letters, so the
    literals match the names in any order."""
    letters = draw(st.lists(st.sampled_from("ABCDEFGHJKLMNPQRSTUVWXYZ"), min_size=2, max_size=4, unique=True))
    names = [a + draw(st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=3)) for a in letters]
    variants = []
    for i, name in enumerate(names):
        body = " + ".join(f"{v}{i}" for v in "xy"[: draw(st.integers(1, 2))])
        # Over half the variants are named aggregations, so G3 fires often.
        form = draw(st.just(_VARIANT_FORMS[0]) | st.sampled_from(_VARIANT_FORMS))
        variants.append(form.format(name=name, body=body))
    literals = draw(st.permutations([n.lower() for n in names]))
    return parse(f"Msg1=<f (op=i; domain=enum:{'|'.join(literals)}) + [{'|'.join(variants)}]>")


def _within(inner, outer) -> bool:
    start, end = (inner.start_line, inner.start_col), (inner.end_line, inner.end_col)
    return (outer.start_line, outer.start_col) <= start and end <= (outer.end_line, outer.end_col)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_enum_beside_variants())
def test_g3_derive_and_fragment_name_variants_by_one_rule(ms):
    # G3 fires on the specialisation exactly where derive_view can name a
    # subclass for every variant, and fragment_1nf a discriminator.
    spec = next(n for n in walk(ms) if isinstance(n, Specialisation))
    g3 = [d for d in guideline_checks(ms, Phase.ANALYSIS) if d.code == "G3" and d.span == spec.span]
    try:
        derive_view(CommunicativeEvent("E1", "e", 1, ms))
        d001 = False
    except DerivationError as exc:
        d001 = exc.diagnostic.code == "D001" and _within(exc.diagnostic.span, spec.span)
    unnamed = "?" in fragment_1nf(ms)[0].discriminators[0]
    assert bool(g3) is not d001
    assert d001 is unnamed


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
