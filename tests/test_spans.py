"""Spans on demand: a parsed node or diagnostic keeps its place in its
text, and its ``SourceSpan`` is built only when ``span`` is read.

The laws pin that a built span is the one the parser used to build for
every node, and that reading records through ``repr``, ``pickle``,
``copy`` and ``dataclasses`` shows nothing of how a span is kept. The
guard pins that no stage on a success path reads a span."""

from __future__ import annotations

import copy
import dataclasses
import pickle
from bisect import bisect_right
from itertools import accumulate
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from conftest import ASSIGNMENT_TEXT, ORDER_TABLE, ORDER_TEXT, SUPPLIER_RESPONSE_TEXT, VEHICLE_NESTED
from msgstruct.core import Aggregation, Field, MessageStructure, Specialisation, _fold, canonicalize, equivalent, walk
from msgstruct.derive import CommunicativeEvent, derive_view, export_diagram, integrate
from msgstruct.diagnostics import Severity, SourceSpan, _Source
from msgstruct.fragment import fragment_1nf
from msgstruct.lint import Level, LintConfig, Phase, guideline_checks, lint
from msgstruct.parser import parse, to_text

_PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True)

# Every level reports, and absent properties too, so that every field
# gives diagnostics.
_EVERY_LEVEL = LintConfig(dict.fromkeys(Level, Severity.INFO), report_missing=True)


def _reference_span(line_starts: list[int], start: int, end: int) -> SourceSpan:
    """The parser's rule as it was when every node's span was built at
    once (``_Parser._span``), kept here as the reference."""
    line = bisect_right(line_starts, start)
    col = start - line_starts[line - 1] + 1
    if end < line_starts[line]:
        return SourceSpan(line, col, line, max(col, end - line_starts[line - 1]))
    end_line = bisect_right(line_starts, end)
    end_col = end - line_starts[end_line - 1] + 1
    return SourceSpan(line, col, end_line, max(1, end_col - 1))


def _offsets(record) -> tuple[int, int]:
    """The offsets that a parsed record keeps in its source's table."""
    source = record._where
    table = source.table if type(source.table) is memoryview else memoryview(source.table).cast("I")
    at = source.lines + 1 + 2 * record._index
    return table[at], table[at + 1]


def _built_in_code(ms: MessageStructure) -> MessageStructure:
    """A copy of ``ms`` built through the constructors, with each node's
    span given as a ``SourceSpan``: what a parsed tree must look like."""

    def build(item, parts):
        if not parts:
            return Field(item.name, item.properties, item.span)
        if type(item) is tuple:
            return tuple(parts)
        return type(item)(item.name, tuple(parts), item.span)

    return MessageStructure(ms.name, _fold(ms.root, build), ms.span)


def _diagnostics(ms: MessageStructure) -> list:
    return [d for phase in Phase for d in lint(ms, phase, _EVERY_LEVEL) + guideline_checks(ms, phase)]


def _views(record) -> list[str]:
    """What ``repr`` shows of ``record`` and of its copies."""
    twins = (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)), dataclasses.replace(record))
    return [repr(twin) for twin in (record, *twins)]


@_PROPERTIES
@given(strategies.structures(), st.sampled_from(["compact", "tabular"]))
def test_a_parsed_span_is_the_one_the_parser_built(tree, style):
    text = to_text(tree, style)
    ms = parse(text)
    line_starts = [0, *accumulate(len(line) + 1 for line in text.split("\n"))]
    for node in (ms, *walk(ms)):
        assert type(node._where) is _Source
        span = node.span
        assert type(span) is SourceSpan
        assert span == _reference_span(line_starts, *_offsets(node))
        assert node.span == span  # a second read builds an equal span
    twin = _built_in_code(ms)
    assert all(type(node._where) is not _Source for node in (twin, *walk(twin)))
    assert _views(ms) == _views(twin)
    assert [_views(node) for node in walk(ms)] == [_views(node) for node in walk(twin)]
    found, expected = _diagnostics(ms), _diagnostics(twin)
    assert found == expected
    assert [hash(d) for d in found] == [hash(d) for d in expected]
    assert [_views(d) for d in found] == [_views(d) for d in expected]
    assert [d.to_json_obj() for d in found] == [d.to_json_obj() for d in expected]
    assert [d.render("a.ms") for d in found] == [d.render("a.ms") for d in expected]


def test_the_implicit_root_and_the_structure_span_their_items():
    # The root aggregation left implicit and the structure itself are given
    # places of their own, from the first item's start (or the name's) to
    # the last item's end.
    ms = parse("# note\nA =\n  x (op=i) +\n  B = < y > +\n  z\n")
    assert ms.span == SourceSpan(2, 1, 5, 3)
    assert ms.root.span == SourceSpan(3, 3, 5, 3)
    assert [node.span for node in ms.root.children] == [
        SourceSpan(3, 3, 3, 10),
        SourceSpan(4, 3, 4, 11),
        SourceSpan(5, 3, 5, 3),
    ]


def test_copies_keep_the_place_and_code_keeps_its_span():
    ms = parse(ASSIGNMENT_TEXT)
    canon = canonicalize(ms)
    spec = next(node for node in walk(canon) if type(node) is Specialisation)
    original = next(node for node in walk(ms) if type(node) is Specialisation)
    assert spec._where is original._where and spec.span == original.span
    # The aggregations that canonical form makes take the place of the node
    # they are made for.
    made = Aggregation(None, (Field("a"),), SourceSpan(1, 1, 1, 1))
    assert made.span is made.span and made._where is made.span
    renamed = dataclasses.replace(ms, name="B")
    assert renamed.span == ms.span and type(renamed._where) is SourceSpan


_CORPUS = (ORDER_TEXT, ORDER_TABLE, ASSIGNMENT_TEXT, SUPPLIER_RESPONSE_TEXT, VEHICLE_NESTED)


def test_no_stage_reads_a_span_on_its_success_path():
    built = []
    span = _Source.span

    def counted(source, index):
        built.append(index)
        return span(source, index)

    with mock.patch.object(_Source, "span", counted):
        trees = [parse(text) for text in _CORPUS]
        for ms in trees:
            for phase in Phase:
                diagnostics = lint(ms, phase, _EVERY_LEVEL) + guideline_checks(ms, phase)
                assert diagnostics  # made, with their places, but not read
            equivalent(canonicalize(ms), ms)
            to_text(ms, "tabular")
            fragment_1nf(ms)
        events = [CommunicativeEvent(f"EV{i}", "e", i, ms) for i, ms in enumerate(trees)]
        diagram = integrate([derive_view(event) for event in events])
        export_diagram(diagram, "json")
        export_diagram(diagram, "plantuml")
        assert built == []
        assert diagnostics[0].span is not None
    assert len(built) == 1
