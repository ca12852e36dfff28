"""The record contract: every public model type constructs, compares,
hashes, refuses changes, copies, pickles and prints as the frozen
dataclasses it replaced did, and the ``dataclasses`` functions accept it."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from conftest import ORDER_TEXT
from msgstruct.core import (
    EMPTY_PROPERTIES,
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
)
from msgstruct.derive import Association, Attribute, ClassDiagram, ClassSpec, CommunicativeEvent, derive_view
from msgstruct.diagnostics import Diagnostic, Severity, SourceSpan
from msgstruct.fragment import REGISTRY, AbstractInterfaceStructure, Fragment, fragment_1nf
from msgstruct.lint import DEFAULT_WORDLIST, Level, LintConfig, Phase, lint
from msgstruct.parser import parse

_SPAN = SourceSpan(1, 2, 3, 4)
_LEAF = (Field("a"),)
_FRAGMENT = Fragment("M", 0, _LEAF)
_SEVERITY = {
    Level.HIGHLY_RECOMMENDED: None,
    Level.RECOMMENDED: Severity.INFO,
    Level.NOT_RECOMMENDED: Severity.ERROR,
    Level.DISCOURAGED: Severity.ERROR,
}
_DEFAULT_SEVERITY = {
    Level.HIGHLY_RECOMMENDED: None,
    Level.RECOMMENDED: None,
    Level.NOT_RECOMMENDED: Severity.WARNING,
    Level.DISCOURAGED: Severity.ERROR,
}

# Each public record class with a value for every field, in constructor
# order, and the default of each field that may be left out. Only the
# depth-0 fragment's parent key has its default as value.
_RECORDS = [
    (SourceSpan, {"start_line": 1, "start_col": 2, "end_line": 3, "end_col": 4}, {}),
    (
        Diagnostic,
        {"severity": Severity.ERROR, "code": "P001", "message": "bad", "span": _SPAN},
        {"span": None},
    ),
    (FieldRef, {"name": "Price"}, {}),
    (Number, {"value": 2}, {}),
    (Text, {"value": "EUR"}, {}),
    (BinaryOp, {"op": "*", "left": FieldRef("Price"), "right": Number(2)}, {}),
    (Call, {"name": "round", "args": (FieldRef("Price"),)}, {"args": ()}),
    (BasicDomain, {"kind": "money"}, {}),
    (ReferenceDomain, {"target": "Client"}, {}),
    (EnumeratedDomain, {"literals": ("theo", "prac")}, {}),
    (Acquisition, {"op": "d", "formula": FieldRef("x")}, {"formula": None}),
    (
        FieldProperties,
        {
            "acquisition": Acquisition("i"),
            "domain": BasicDomain("text"),
            "example": "ex",
            "description": "desc",
            "label": "Label",
            "memory_link": "Client.name",
            "compulsory": True,
            "initialisation": Text("x"),
            "visible": False,
        },
        dict.fromkeys(
            [
                "acquisition",
                "domain",
                "example",
                "description",
                "label",
                "memory_link",
                "compulsory",
                "initialisation",
                "visible",
            ]
        ),
    ),
    (
        Field,
        {"name": "Price", "properties": FieldProperties(label="P"), "span": _SPAN},
        {"properties": EMPTY_PROPERTIES, "span": None},
    ),
    (Aggregation, {"name": "LINE", "children": _LEAF, "span": _SPAN}, {"span": None}),
    (Iteration, {"name": "LINES", "children": _LEAF, "span": _SPAN}, {"span": None}),
    (Specialisation, {"name": "S", "variants": (_LEAF, (Field("b"),)), "span": _SPAN}, {"span": None}),
    (MessageStructure, {"name": "M", "root": Aggregation(None, _LEAF), "span": _SPAN}, {"span": None}),
    (
        CommunicativeEvent,
        {"id": "EV1", "name": "placed", "order": 1, "structure": parse(ORDER_TEXT), "file": "order.ms"},
        {"file": None},
    ),
    (
        Attribute,
        {
            "name": "Price",
            "domain": BasicDomain("money"),
            "acquisition": "d",
            "formula": FieldRef("x"),
            "optional": True,
        },
        {"domain": None, "acquisition": None, "formula": None, "optional": False},
    ),
    (
        ClassSpec,
        {"name": "Order", "kind": "subclass", "attributes": (Attribute("a"),), "parent": "Parent"},
        {"attributes": (), "parent": None},
    ),
    (
        Association,
        {"source": "Order", "target": "Line", "kind": "composition", "multiplicity": "many"},
        {"multiplicity": None},
    ),
    (
        ClassDiagram,
        {"classes": (ClassSpec("A", "defined"),), "associations": (Association("A", "B", "reference", "one"),)},
        {"classes": (), "associations": ()},
    ),
    (
        Fragment,
        {"id": "M", "depth": 0, "fields": _LEAF, "parent_key": None, "discriminators": ("P|Q",)},
        {"parent_key": None, "discriminators": ()},
    ),
    (AbstractInterfaceStructure, {"fragment": _FRAGMENT, "kind": REGISTRY}, {}),
    (
        LintConfig,
        {"severity_map": _SEVERITY, "g1_wordlist": ("total",), "report_missing": True},
        {"severity_map": _DEFAULT_SEVERITY, "g1_wordlist": DEFAULT_WORDLIST, "report_missing": False},
    ),
]

# Fields that ``==`` and ``hash`` leave out.
_UNCOMPARED = {
    **{node: {"span"} for node in (Field, Aggregation, Iteration, Specialisation, MessageStructure)},
    CommunicativeEvent: {"file"},
}

_IDS = [cls.__name__ for cls, _, _ in _RECORDS]


@pytest.mark.parametrize("cls, values, defaults", _RECORDS, ids=_IDS)
def test_records_construct_by_position_keyword_and_default(cls, values, defaults):
    record = cls(*values.values())
    assert {name: getattr(record, name) for name in values} == values
    assert repr(cls(**values)) == repr(record)
    required = [value for name, value in values.items() if name not in defaults]
    assert {name: getattr(cls(*required), name) for name in defaults} == defaults


@pytest.mark.parametrize("cls, values, defaults", _RECORDS, ids=_IDS)
def test_records_compare_and_hash_by_their_compared_fields(cls, values, defaults):
    record, twin = cls(**values), cls(**values)
    assert record == twin and not record != twin
    assert record != "not a record"
    assert hash(record) == hash(twin)
    for name, default in defaults.items():
        other = cls(**{**values, name: default})
        if name in _UNCOMPARED.get(cls, ()) or default == values[name]:
            assert other == record and hash(other) == hash(record)
        else:
            assert other != record


@pytest.mark.parametrize("cls, values, defaults", _RECORDS, ids=_IDS)
def test_records_set_their_fields_through_their_own_slot_setters(cls, values, defaults):
    # One setter per field, in constructor order: the ``__set__`` of the
    # class's own slot descriptor, bound to it.
    assert [setter.__self__.__name__ for setter in cls._setters] == list(cls.__slots__) == list(values)
    for setter, name in zip(cls._setters, cls.__slots__):
        assert setter.__self__ is cls.__dict__[name] and setter.__name__ == "__set__"
    assert not {"_set", "__setattr__"} & set(cls.__init__.__code__.co_names)


def test_equal_lint_configs_hash_equal():
    strict = LintConfig.from_json({"severity": {"-": "error"}, "g1_wordlist": ["Total"]})
    twin = LintConfig({**strict.severity_map}, ("total",))
    assert twin == strict and hash(twin) == hash(strict)
    assert len({LintConfig(), LintConfig(None), LintConfig(_DEFAULT_SEVERITY), strict, twin}) == 2


@pytest.mark.parametrize("cls, values, defaults", _RECORDS, ids=_IDS)
def test_records_refuse_changes(cls, values, defaults):
    record = cls(**values)
    for name in [*values, "no_such_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert {name: getattr(record, name) for name in values} == values


@pytest.mark.parametrize("cls, values, defaults", _RECORDS, ids=_IDS)
def test_records_copy_and_pickle(cls, values, defaults):
    record = cls(**values)
    # ``repr`` shows every field, spans and event files included.
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == repr(record)


@pytest.mark.parametrize("cls, values, defaults", _RECORDS, ids=_IDS)
def test_dataclasses_functions_accept_records(cls, values, defaults):
    record = cls(**values)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)
    fields = dataclasses.fields(record)
    assert [f.name for f in fields] == list(values)
    assert {f.name for f in fields if not f.compare} == _UNCOMPARED.get(cls, set()) - {"span"}
    assert repr(dataclasses.replace(record)) == repr(record)
    for name, default in defaults.items():
        assert getattr(dataclasses.replace(record, **{name: default}), name) == default
    if cls is LintConfig:
        # The exception: its severity map is a read-only mapping, which the
        # deep copy that ``asdict`` makes of a value cannot copy.
        with pytest.raises(TypeError, match="mappingproxy"):
            dataclasses.asdict(record)
        return
    # Records inside, also in tuples, become dicts; other values stay.
    as_dict = dataclasses.asdict(record)
    assert list(as_dict) == list(values)
    for name, value in values.items():
        if not dataclasses.is_dataclass(value) and type(value) is not tuple:
            assert as_dict[name] == value


def test_dataclasses_replace_checks_the_result():
    with pytest.raises(ValueError, match="span end precedes start: 5:2-3:4"):
        dataclasses.replace(_SPAN, start_line=5)
    with pytest.raises(TypeError):
        dataclasses.replace(_SPAN, no_such_field=1)


def test_records_keep_the_repr_text_of_dataclasses():
    assert repr(parse(ORDER_TEXT)) == _ORDER_REPR
    assert repr(lint(parse('A=<x (label="X")>'), Phase.ANALYSIS)[0]) == (
        "Diagnostic(severity=<Severity.ERROR: 'error'>, code='L-LABEL', "
        "message=\"label discouraged in analysis (field 'x')\", "
        "span=SourceSpan(start_line=1, start_col=4, end_line=1, end_col=16))"
    )
    text = 'A=<x (op=i; domain=text) + t (op=d; domain=number; formula=":x * 2") + {L=<y (op=i; domain=ref:B)>}>'
    assert repr(derive_view(CommunicativeEvent("EV1", "e", 1, parse(text)))) == (
        "ClassDiagram(classes=(ClassSpec(name='A', kind='defined', attributes=("
        "Attribute(name='x', domain=BasicDomain(kind='text'), acquisition='i', formula=None, optional=False), "
        "Attribute(name='t', domain=BasicDomain(kind='number'), acquisition='d', "
        "formula=BinaryOp(op='*', left=FieldRef(name='x'), right=Number(value=2)), optional=False)), parent=None), "
        "ClassSpec(name='L', kind='defined', attributes=(), parent=None), "
        "ClassSpec(name='B', kind='referenced', attributes=(), parent=None)), "
        "associations=(Association(source='A', target='L', kind='composition', multiplicity='many'), "
        "Association(source='L', target='B', kind='reference', multiplicity='one')))"
    )
    assert repr(fragment_1nf(parse("A=<x + {L=<y>}+[p|q]>"))[1]) == (
        "Fragment(id='A/L', depth=1, fields=(Field(name='y', properties=FieldProperties("
        "acquisition=None, domain=None, example=None, description=None, label=None, memory_link=None, "
        "compulsory=None, initialisation=None, visible=None), "
        "span=SourceSpan(start_line=1, start_col=12, end_line=1, end_col=12)),), "
        "parent_key='A', discriminators=())"
    )
    assert repr(LintConfig()) == (
        "LintConfig(severity_map=mappingproxy({<Level.HIGHLY_RECOMMENDED: '++'>: None, "
        "<Level.RECOMMENDED: '+'>: None, <Level.NOT_RECOMMENDED: '-'>: <Severity.WARNING: 'warning'>, "
        "<Level.DISCOURAGED: '--'>: <Severity.ERROR: 'error'>}), "
        "g1_wordlist=('amount', 'total', 'sum'), report_missing=False)"
    )


_ORDER_REPR = (
    "MessageStructure(name='ORDER', root=Aggregation(name=None, "
    "children=(Field(name='Order number', "
    "properties=FieldProperties(acquisition=Acquisition(op='g', formula=None), "
    "domain=BasicDomain(kind='number'), example='10352', description=None, label=None, "
    'memory_link=None, compulsory=None, initialisation=None, visible=None), '
    'span=SourceSpan(start_line=3, start_col=3, end_line=3, end_col=53)), '
    "Field(name='Request date', properties=FieldProperties(acquisition=Acquisition(op='i', "
    "formula=None), domain=BasicDomain(kind='date'), example='31-08-2009', description=None, "
    'label=None, memory_link=None, compulsory=None, initialisation=None, visible=None), '
    'span=SourceSpan(start_line=4, start_col=3, end_line=4, end_col=56)), '
    "Field(name='Payment type', properties=FieldProperties(acquisition=Acquisition(op='i', "
    "formula=None), domain=BasicDomain(kind='text'), example='Cash', description=None, "
    'label=None, memory_link=None, compulsory=None, initialisation=None, visible=None), '
    "span=SourceSpan(start_line=5, start_col=3, end_line=5, end_col=50)), Field(name='Client', "
    "properties=FieldProperties(acquisition=Acquisition(op='i', formula=None), "
    "domain=ReferenceDomain(target='Client'), example='56746163-R, John Papiro Jr.', "
    'description=None, label=None, memory_link=None, compulsory=None, initialisation=None, '
    'visible=None), span=SourceSpan(start_line=6, start_col=3, end_line=6, end_col=73)), '
    "Iteration(name='DESTINATIONS', children=(Aggregation(name='DESTINATION', "
    "children=(Field(name='Address', "
    "properties=FieldProperties(acquisition=Acquisition(op='i', formula=None), "
    "domain=ReferenceDomain(target='Client address'), example='Blvd. Blue mountain, 35-14A, "
    "2363 Toontown', description=None, label=None, memory_link=None, compulsory=None, "
    'initialisation=None, visible=None), span=SourceSpan(start_line=9, start_col=7, '
    "end_line=9, end_col=101)), Field(name='Person in charge', "
    "properties=FieldProperties(acquisition=Acquisition(op='i', formula=None), "
    "domain=BasicDomain(kind='text'), example='Brayden Hitchcock', description=None, "
    'label=None, memory_link=None, compulsory=None, initialisation=None, visible=None), '
    'span=SourceSpan(start_line=10, start_col=7, end_line=10, end_col=71)), '
    "Iteration(name='LINES', children=(Aggregation(name='LINE', "
    "children=(Field(name='Product', "
    "properties=FieldProperties(acquisition=Acquisition(op='i', formula=None), "
    "domain=ReferenceDomain(target='Product'), example='ST39455, "
    "Rounded scissors (cebra) box-100', description=None, label=None, memory_link=None, "
    'compulsory=None, initialisation=None, visible=None), span=SourceSpan(start_line=13, '
    "start_col=11, end_line=13, end_col=97)), Field(name='Price', "
    "properties=FieldProperties(acquisition=Acquisition(op='i', formula=None), "
    "domain=BasicDomain(kind='money'), example='25,40 €', description=None, label=None, "
    'memory_link=None, compulsory=None, initialisation=None, visible=None), '
    'span=SourceSpan(start_line=14, start_col=11, end_line=14, end_col=55)), '
    "Field(name='Quantity', properties=FieldProperties(acquisition=Acquisition(op='i', "
    "formula=None), domain=BasicDomain(kind='number'), example='35', description=None, "
    'label=None, memory_link=None, compulsory=None, initialisation=None, visible=None), '
    'span=SourceSpan(start_line=15, start_col=11, end_line=15, end_col=54))), '
    'span=SourceSpan(start_line=12, start_col=9, end_line=15, end_col=56)),), '
    'span=SourceSpan(start_line=11, start_col=7, end_line=16, end_col=7))), '
    'span=SourceSpan(start_line=8, start_col=5, end_line=17, end_col=5)),), '
    'span=SourceSpan(start_line=7, start_col=3, end_line=18, end_col=3))), '
    'span=SourceSpan(start_line=3, start_col=1, end_line=19, end_col=1)), '
    'span=SourceSpan(start_line=2, start_col=1, end_line=19, end_col=1))'
)
