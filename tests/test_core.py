"""Canonical form, equivalence, and traversal."""

from __future__ import annotations

import copy
import itertools
import re

import pytest
from hypothesis import given, settings

import strategies as strat
from conftest import SUGAR_FORMS
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
    _shape,
    canonicalize,
    domain_to_text,
    equivalent,
    field_names,
    formula_refs,
    formula_to_text,
    iter_fields,
    walk,
)
from msgstruct.derive import ClassDiagram, CommunicativeEvent, DerivationError, derive_view, export_diagram
from msgstruct.diagnostics import SourceSpan
from msgstruct.fragment import fragment_1nf, fragments_to_json_obj
from msgstruct.lint import Phase, guideline_checks, lint
from msgstruct.parser import parse, structure_to_json_obj, to_text
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


_ONE = (Field("a"),)

# Each ill-formed input, and the message of the ValueError it raises.
_ILL_FORMED = {
    (lambda: Aggregation("A", ())): "complex substructure needs at least one child",
    (lambda: Iteration(None, ())): "complex substructure needs at least one child",
    (lambda: Specialisation(None, ())): "specialisation needs at least one variant",
    (lambda: Specialisation(None, ((),))): "specialisation variant may not be empty",
    (lambda: Field("9tail")): "invalid field name '9tail'",
    (lambda: Field("")): "invalid field name ''",
    (lambda: MessageStructure("", Aggregation(None, _ONE))): "invalid structure name ''",
    (lambda: Acquisition("x")): "unknown acquisition operation 'x'",
    (lambda: Acquisition("i", formula=())): "a derivation formula requires op=d",
    (lambda: ReferenceDomain("9x")): "reference domain needs a type name: 'ref:9x'",
    (lambda: ReferenceDomain("")): "reference domain needs a type name: 'ref:'",
    (lambda: EnumeratedDomain(("9",))): "bad enumerated domain: 'enum:9'",
    (lambda: EnumeratedDomain(("a", "a"))): "duplicate literals in enumerated domain: 'enum:a|a'",
    (lambda: FieldProperties(memory_link="bad")): "link must be 'Entity.attribute': 'bad'",
    # Flags are tested by type: 0 in (True, False) holds.
    (lambda: FieldProperties(compulsory="no")): "compulsory must be True, False or None, found 'no'",
    (lambda: FieldProperties(visible=0)): "visible must be True, False or None, found 0",
    (lambda: BasicDomain("blob")): "unknown basic domain 'blob'",
    (lambda: Aggregation("9x", _ONE)): "invalid substructure name '9x'",
    (lambda: Specialisation("9x", (_ONE,))): "invalid substructure name '9x'",
    (lambda: SourceSpan(2, 1, 1, 1)): "span end precedes start: 2:1-1:1",
    (lambda: CommunicativeEvent("E", "e", -1, MessageStructure("A", Aggregation(None, _ONE)))): (
        "event order must be >= 0"
    ),
    (lambda: to_text(MessageStructure("A", Aggregation(None, _ONE)), "xml")): "unknown style 'xml'",
    (lambda: export_diagram(ClassDiagram(), "svg")): "unknown diagram format 'svg'",
}


@pytest.mark.parametrize("build", list(_ILL_FORMED))
def test_ill_formed_nodes_are_rejected(build):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == _ILL_FORMED[build]


def test_nodes_of_different_kinds_are_unequal():
    # ``==`` across node classes falls back to identity, so it is False.
    assert (Field("a") == Aggregation(None, (Field("a"),))) is False
    assert Aggregation(None, _ONE) != Iteration(None, _ONE)


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


# ---------------------------------------------------------------------------
# Linear traversal: differential checks against the recursive definitions,
# and the depth contract for trees built in code. These hypothesis suites
# run on their own, outside the acceptance gate's property budget.
# ---------------------------------------------------------------------------


def _reference_walk(node):
    """Recursive pre-order: the definition ``walk`` must agree with."""
    if isinstance(node, MessageStructure):
        yield from _reference_walk(node.root)
        return
    yield node
    if isinstance(node, (Aggregation, Iteration)):
        for child in node.children:
            yield from _reference_walk(child)
    elif isinstance(node, Specialisation):
        for variant in node.variants:
            for child in variant:
                yield from _reference_walk(child)


def _reference_shape(ms):
    """The name, then one token per node of the canonical tree."""
    tokens = [ms.name]
    for node in _reference_walk(canonicalize(ms)):
        if isinstance(node, Field):
            tokens.append(node.name)
        elif isinstance(node, Specialisation):
            tokens.append((Specialisation, len(node.variants)))
        else:
            tokens.append((type(node), len(node.children)))
    return tuple(tokens)


def _assert_walk_matches_reference(node):
    got, want = list(walk(node)), list(_reference_walk(node))
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


_DIFFERENTIAL = settings(max_examples=200, deadline=None, derandomize=True)


@_DIFFERENTIAL
@given(strat.structures())
def test_differential_walk_and_shape_on_structures(ms):
    for tree in (ms, canonicalize(ms)):
        _assert_walk_matches_reference(tree)
        _assert_walk_matches_reference(tree.root)
        assert _shape(tree) == _reference_shape(tree)


@_DIFFERENTIAL
@given(strat.equivalent_pairs())
def test_differential_walk_and_shape_on_sugar_variants(pair):
    for ms in pair:
        _assert_walk_matches_reference(ms)
        assert _shape(ms) == _reference_shape(ms)
    assert _shape(pair[0]) == _shape(pair[1])


_DEEP = 5000  # far past the parser's MAX_NESTING, which only parse enforces


@pytest.mark.parametrize(
    "wrap, fields, opener, closer",
    [
        (lambda node: Aggregation(None, (node,)), ["x"], "<", ">"),
        (lambda node: Iteration(None, (Field("i"), node)), ["i"] * _DEEP + ["x"], "{i+", "}"),
        (
            lambda node: Specialisation(None, ((node,), (Field("s"),))),
            ["x"] + ["s"] * _DEEP,
            "[",
            "|s]",
        ),
    ],
    ids=["aggregation", "iteration", "specialisation"],
)
def test_traversals_of_trees_built_in_code_ignore_depth(wrap, fields, opener, closer):
    def chain(depth):
        node = Field("x", FieldProperties(label="X"))
        for _ in range(depth):
            node = wrap(node)
        return MessageStructure("M", Aggregation(None, (node,)))

    ms = chain(_DEEP)
    nodes = list(walk(ms))
    assert len(nodes) == 1 + _DEEP + len(fields)
    assert nodes[0] is ms.root and nodes[1] is ms.root.children[0]
    assert [f.name for f in iter_fields(ms)] == fields
    assert equivalent(ms, ms)
    assert not equivalent(ms, chain(_DEEP - 1))
    for phase in Phase:
        assert guideline_checks(ms, phase) == []
    assert [d.code for d in lint(ms, Phase.ANALYSIS)] == ["L-LABEL"]
    assert lint(ms, Phase.DESIGN_INTERFACE) == []

    same, shorter = chain(_DEEP), chain(_DEEP - 1)
    assert ms == same and not ms != same and hash(ms) == hash(same)
    assert ms != shorter and not ms == shorter
    # A record is its own copy, so copying does not descend the chain.
    assert copy.copy(ms) is ms and copy.deepcopy(ms) is ms

    canonical = canonicalize(ms)
    assert equivalent(canonical, ms)
    assert canonicalize(canonical) == canonical

    fragments = fragment_1nf(ms)
    assert [f.name for fragment in fragments for f in fragment.fields] == fields
    assert max(fragment.depth for fragment in fragments) == (_DEEP if opener == "{i+" else 0)

    event = CommunicativeEvent("EV1", "deep", 1, ms)
    if opener == "[":
        # The variants are anonymous, so there is no subclass to derive.
        with pytest.raises(DerivationError) as exc:
            derive_view(event)
        assert exc.value.diagnostic.code == "D001"
    else:
        view = derive_view(event)
        assert [a.name for c in view.classes for a in c.attributes] == fields

    kinds, stack = [], [structure_to_json_obj(ms)["root"]]
    while stack:
        obj = stack.pop()
        kinds.append(obj["kind"])
        stack += obj.get("children", []) + [c for v in obj.get("variants", []) for c in v]
    assert len(kinds) == len(nodes) and kinds.count("field") == len(fields)

    label = 'x (label="X")'
    assert to_text(ms) == "M=<" + opener * _DEEP + label + closer * _DEEP + ">"
    tabular = to_text(ms, "tabular")
    assert sum(map(tabular.count, "<{[")) == sum(map(tabular.count, ">}]")) == _DEEP + 1
    assert [line.split("\t")[-1] for line in tabular.splitlines() if "label" in line] == ['(label="X")']

    text = repr(ms)
    assert text.startswith("MessageStructure(name='M', root=Aggregation(name=None, children=(")
    assert sum(map(text.count, ("Aggregation(", "Iteration(", "Specialisation("))) == _DEEP + 1
    assert text.count("Field(") == len(fields) and text.endswith("span=None),), span=None), span=None)")


# A formula built in code nests as deep as it likes: left-deep, right-deep
# (every level parenthesised), and calls in calls. Each is printed, has its
# references read, and goes through every stage that prints or reads it.
def _left_chain(depth):
    f = FieldRef("a")
    for _ in range(depth):
        f = BinaryOp("+", f, FieldRef("b"))
    return f, ":a" + " + :b" * depth, ["a"] + ["b"] * depth


def _right_chain(depth):
    f = FieldRef("a")
    for _ in range(depth):
        f = BinaryOp("-", FieldRef("b"), f)
    return f, ":b - (" * (depth - 1) + ":b - :a" + ")" * (depth - 1), ["b"] * depth + ["a"]


def _nested_calls(depth):
    f = FieldRef("a")
    for _ in range(depth):
        f = Call("g", (f,))
    return f, "g(" * depth + ":a" + ")" * depth, ["a"]


@pytest.mark.parametrize("chain", [_left_chain, _right_chain, _nested_calls], ids=["left", "right", "calls"])
def test_formulas_built_in_code_ignore_depth(chain):
    formula, text, refs = chain(_DEEP)
    assert formula_to_text(formula) == text
    assert formula_refs(formula) == refs

    props = FieldProperties(Acquisition("d", formula), BasicDomain("number"))
    ms = MessageStructure("M", Aggregation(None, (Field("a"), Field("t", props))))
    annotation = f'formula="{text}"'
    assert to_text(ms) == f"M=<a+t (op=d; domain=number; {annotation})>"
    assert to_text(ms, "tabular").splitlines()[-1] == f"t >\td\tnumber\t\t({annotation})"
    assert structure_to_json_obj(ms)["root"]["children"][1]["properties"]["formula"] == text
    assert fragments_to_json_obj(fragment_1nf(ms))["fragments"][0]["fields"][1]["formula"] == text
    # G2 reads the references: each reference to the missing field 'b' is one.
    for phase in Phase:
        assert [d.code for d in guideline_checks(ms, phase)] == ["G2"] * refs.count("b")

    view = derive_view(CommunicativeEvent("EV1", "deep", 1, ms))
    assert f'"formula": "{text}"' in export_diagram(view, "json")
    assert f"t : number <<derived>> = {text}" in export_diagram(view, "plantuml")


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _reference_formula_text(f):
    """Recursive printing: the definition ``formula_to_text`` must agree with."""
    if isinstance(f, FieldRef):
        return f":{f.name}"
    if isinstance(f, Number):
        text = repr(f.value)
        if "e" in text:
            from decimal import Decimal

            text = f"{Decimal(text):f}"
        return text if "." in text or isinstance(f.value, int) else text + ".0"
    if isinstance(f, Text):
        return "'" + f.value.replace("\\", "\\\\").replace("'", "\\'") + "'"
    if isinstance(f, Call):
        return f"{f.name}({', '.join(map(_reference_formula_text, f.args))})"
    lhs, rhs = _reference_formula_text(f.left), _reference_formula_text(f.right)
    if isinstance(f.left, BinaryOp) and _PRECEDENCE[f.left.op] < _PRECEDENCE[f.op]:
        lhs = f"({lhs})"
    if isinstance(f.right, BinaryOp) and _PRECEDENCE[f.right.op] <= _PRECEDENCE[f.op]:
        rhs = f"({rhs})"
    return f"{lhs} {f.op} {rhs}"


def _reference_formula_refs(f):
    """Recursive reading order of the references."""
    if isinstance(f, FieldRef):
        return [f.name]
    if isinstance(f, BinaryOp):
        return _reference_formula_refs(f.left) + _reference_formula_refs(f.right)
    if isinstance(f, Call):
        return [name for arg in f.args for name in _reference_formula_refs(arg)]
    return []


@_DIFFERENTIAL
@given(strat.formulas(depth=4))
def test_differential_formula_text_and_refs(formula):
    assert formula_to_text(formula) == _reference_formula_text(formula)
    assert formula_refs(formula) == _reference_formula_refs(formula)


_STRAY = "x"  # not a node: the constructors refuse it, and so does every traversal


def _with_stray():
    # Unpickling sets a record's fields without calling its constructor, so a
    # stray child can still come in that way; the traversals refuse it too.
    iteration = Iteration.__new__(Iteration)
    iteration.__setstate__([None, (Field("b"), _STRAY), None])
    return MessageStructure("M", Aggregation(None, (Field("a"), iteration)))


@pytest.mark.parametrize(
    "use",
    [
        lambda ms: list(walk(ms)),
        lambda ms: equivalent(ms, ms),
        lambda ms: ms == _with_stray(),
        canonicalize,
        to_text,
        lambda ms: to_text(ms, "tabular"),
        fragment_1nf,
        lambda ms: derive_view(CommunicativeEvent("EV1", "stray", 1, ms)),
    ],
    ids=["walk", "equivalent", "eq", "canonicalize", "compact", "tabular", "fragment_1nf", "derive_view"],
)
def test_a_child_that_is_not_a_node_is_refused_by_every_traversal(use):
    with pytest.raises(AttributeError, match="'str' object has no attribute"):
        use(_with_stray())


@pytest.mark.parametrize("stray", [_STRAY, (Field("b"),)], ids=["str", "tuple"])
@pytest.mark.parametrize(
    "build",
    [
        lambda child: Aggregation(None, (Field("a"), child)),
        lambda child: Iteration(None, (child, Field("a"))),
        lambda child: Specialisation(None, ((Field("a"),), (Field("p"), child))),
    ],
    ids=["aggregation", "iteration", "specialisation"],
)
def test_a_child_that_is_not_a_node_is_refused_by_the_constructors(build, stray):
    # A tuple child would otherwise be read as a specialisation's variant.
    with pytest.raises(ValueError, match=re.escape(f"not a substructure: {stray!r}")):
        build(stray)


@pytest.mark.parametrize("variant", [[Field("a")], Field("a")], ids=["list", "node"])
def test_a_variant_that_is_not_a_tuple_is_refused_by_the_constructor(variant):
    with pytest.raises(ValueError, match=re.escape(f"not a substructure: {variant!r}")):
        Specialisation(None, ((Field("p"),), variant))


def test_the_printers_refuse_what_is_not_a_formula_or_a_domain():
    # A field has parts, as every node does, but is neither.
    with pytest.raises(TypeError, match="^not a formula node: Field"):
        formula_to_text(Field("x"))
    with pytest.raises(TypeError, match="^not a domain: Field"):
        domain_to_text(Field("x"))
