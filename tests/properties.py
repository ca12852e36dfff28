"""The generated-input property suites.

Each ``prop_*`` function is a fully decorated hypothesis test run at 200
examples. They are exercised individually from the per-module test files
and together (timed) by the acceptance gate.
"""

from __future__ import annotations

from hypothesis import given, settings

import strategies as strat
from msgstruct.core import (
    Iteration,
    ReferenceDomain,
    Specialisation,
    canonicalize,
    equivalent,
    field_names,
    iter_fields,
    walk,
)
from msgstruct.derive import (
    Association,
    ClassDiagram,
    ClassSpec,
    CommunicativeEvent,
    class_name,
    derive_view,
    integrate,
)
from msgstruct.fragment import fragment_1nf
from msgstruct.parser import parse, to_text

_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@_SETTINGS
@given(strat.structures(), strat.st.sampled_from(["compact", "tabular"]))
def prop_print_parse_roundtrip(ms, style):
    reparsed = parse(to_text(ms, style))
    assert equivalent(reparsed, ms)
    original_fields = list(iter_fields(ms))
    reparsed_fields = list(iter_fields(reparsed))
    assert [f.name for f in original_fields] == [f.name for f in reparsed_fields]
    assert [f.properties for f in original_fields] == [
        f.properties for f in reparsed_fields
    ]


@_SETTINGS
@given(strat.bare_structures)
def prop_canonicalize_idempotent(ms):
    once = canonicalize(ms)
    assert canonicalize(once) == once
    # Canonicalisation never adds, drops, or reorders fields.
    assert field_names(once) == field_names(ms)


@_SETTINGS
@given(strat.equivalent_pairs(), strat.bare_structures)
def prop_equivalence_relation(pair, other):
    a, b = pair
    assert equivalent(a, a)  # reflexive
    assert equivalent(a, b)  # resugaring preserves meaning
    assert equivalent(b, a)  # symmetric
    assert equivalent(a, other) == equivalent(other, a)
    if equivalent(a, other):  # transitive through b ~ a ~ other
        assert equivalent(b, other)


@_SETTINGS
@given(strat.diagram_structures())
def prop_class_count_law(ms):
    view = derive_view(CommunicativeEvent("E", "event", 0, ms))
    iterations = sum(1 for n in walk(ms) if isinstance(n, Iteration))
    variant_count = sum(
        len(n.variants)
        for n in walk(ms)
        if isinstance(n, Specialisation) and len(n.variants) >= 2
    )
    ref_targets = {
        class_name(f.properties.domain.target)
        for f in iter_fields(ms)
        if isinstance(f.properties.domain, ReferenceDomain)
    }
    defined = [c for c in view.classes if c.kind in ("defined", "subclass")]
    referenced = [c for c in view.classes if c.kind == "referenced"]
    assert len(defined) == 1 + iterations + variant_count
    assert len(referenced) == len(ref_targets)
    # Each iteration composes exactly one item class, multiplicity many.
    compositions = [a for a in view.associations if a.kind == "composition"]
    assert len(compositions) == iterations
    assert all(a.multiplicity == "many" for a in compositions)
    # Every data field lands as exactly one attribute in exactly one class.
    data_fields = sorted(
        f.name
        for f in iter_fields(ms)
        if not isinstance(f.properties.domain, ReferenceDomain)
    )
    attributes = sorted(a.name for c in view.classes for a in c.attributes)
    assert attributes == data_fields


def _isomorphic(d: ClassDiagram) -> tuple:
    def cls_key(c: ClassSpec) -> tuple:
        return (c.name, c.kind, c.parent or "", tuple(sorted(a.name for a in c.attributes)))

    def assoc_key(a: Association) -> tuple:
        return (a.source, a.target, a.kind, a.multiplicity or "")

    return (
        tuple(sorted(cls_key(c) for c in d.classes)),
        tuple(sorted(assoc_key(a) for a in d.associations)),
    )


@_SETTINGS
@given(
    strat.diagram_projects(min_structures=2, max_structures=4),
    strat.st.randoms(use_true_random=False),
)
def prop_integration_permutation_insensitive(project, rng):
    views = [
        derive_view(CommunicativeEvent(f"E{i}", "event", i, ms))
        for i, ms in enumerate(project)
    ]
    shuffled = list(views)
    rng.shuffle(shuffled)
    assert _isomorphic(integrate(views)) == _isomorphic(integrate(shuffled))
    # Folding the same view twice changes nothing.
    assert integrate(views + views[:1]) == integrate(views)


@_SETTINGS
@given(strat.bare_structures)
def prop_fragment_field_conservation(ms):
    fragments = fragment_1nf(ms)
    scattered = sorted(f.name for frag in fragments for f in frag.fields)
    assert scattered == sorted(field_names(ms))
    iterations = sum(1 for n in walk(ms) if isinstance(n, Iteration))
    assert len(fragments) == 1 + iterations
    by_id = {f.id: f for f in fragments}
    assert len(by_id) == len(fragments)
    for frag in fragments:
        if frag.depth == 0:
            assert frag.parent_key is None
            continue
        parent = by_id[frag.parent_key]
        assert parent.depth == frag.depth - 1


ALL_PROPERTIES = (
    prop_print_parse_roundtrip,
    prop_canonicalize_idempotent,
    prop_equivalence_relation,
    prop_class_count_law,
    prop_integration_permutation_insensitive,
    prop_fragment_field_conservation,
)
