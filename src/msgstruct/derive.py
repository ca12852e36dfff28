"""Class-diagram derivation from ordered communicative events.

Each event carries the message structure of the information it feeds into
the system. Processing one structure yields a class-diagram view; folding
the views of all events in temporal order yields the full diagram.

Mapping rules (on the canonical form read off the tree as written: an
iteration body or a variant is named by the aggregation written alone there):

    R1  the initial substructure becomes a defined class named after the
        message structure
    R2  each data field (basic or enumerated domain) becomes an attribute
        of the nearest enclosing class
    R3  each reference field becomes a referenced class plus a reference
        association from the enclosing class, multiplicity one
    R4  each iteration becomes a defined class (named by its inner
        aggregation, else by the iteration itself, else parent + "_item")
        plus a composition from the enclosing class, multiplicity many
    R5  inside specialisation variants, R2/R3 apply with the subclass as
        the enclosing class
    R6  a multi-variant specialisation becomes a generalisation set: the
        enclosing class is the parent and each named variant a subclass;
        a single-variant specialisation expresses optionality instead and
        only marks the contained attributes optional

Errors:

    D001  a multi-variant specialisation has an anonymous variant
    D002  duplicate attribute name within one derived class
    D003  same-name attribute merged with a conflicting domain
    D004  a class is a subclass of two different parents, within one event
          or across events
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from .core import (
    Domain,
    Formula,
    Iteration,
    MessageStructure,
    ReferenceDomain,
    Specialisation,
    _canonical_name,
    _domain_from_text,
    _lone_aggregation,
    _traverse,
    domain_to_text,
    formula_to_text,
    parse_formula,
)
from .diagnostics import Diagnostic, Severity, SourceSpan, _json_text, _Record, _replace
from .parser import ParseError, _parse, _read_source

if TYPE_CHECKING:
    from pathlib import Path

__all__ = [
    "CommunicativeEvent",
    "Attribute",
    "ClassSpec",
    "Association",
    "ClassDiagram",
    "DerivationError",
    "derive_view",
    "integrate",
    "export_diagram",
    "diagram_to_json_obj",
    "diagram_from_json_obj",
    "load_events_manifest",
    "class_name",
]


class DerivationError(Exception):
    """Raised when a structure cannot be mapped to a view; carries the
    diagnostic explaining why."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class CommunicativeEvent(_Record, compare=("id", "name", "order", "structure")):
    """A business-process activity feeding new information to the system.

    ``order`` ranks events by temporal precedence; ties break on ``id``.
    ``file`` names the structure's source, where it has one; events compare
    without it.
    """

    __slots__ = ("id", "name", "order", "structure", "file")

    def __init__(self, id: str, name: str, order: int, structure: MessageStructure, file: str | None = None) -> None:
        if order < 0:
            raise ValueError("event order must be >= 0")
        set_id, set_name, set_order, set_structure, set_file = self._setters
        set_id(self, id)
        set_name(self, name)
        set_order(self, order)
        set_structure(self, structure)
        set_file(self, file)


class Attribute(_Record):
    """An attribute of a derived class: name, domain, acquisition operation,
    derivation formula, and whether a value may be absent."""

    __slots__ = ("name", "domain", "acquisition", "formula", "optional")

    def __init__(
        self,
        name: str,
        domain: Domain | None = None,
        acquisition: str | None = None,  # 'i' | 'g' | 'd'
        formula: Formula | None = None,
        optional: bool = False,
    ) -> None:
        set_name, set_domain, set_acquisition, set_formula, set_optional = self._setters
        set_name(self, name)
        set_domain(self, domain)
        set_acquisition(self, acquisition)
        set_formula(self, formula)
        set_optional(self, optional)


class ClassSpec(_Record):
    """A class of the diagram: its name, how it arose (defined, referenced
    or subclass), its attributes, and the superclass of a subclass."""

    __slots__ = ("name", "kind", "attributes", "parent")

    def __init__(
        self,
        name: str,
        kind: str,  # defined | referenced | subclass
        attributes: tuple[Attribute, ...] = (),
        parent: str | None = None,
    ) -> None:
        set_name, set_kind, set_attributes, set_parent = self._setters
        set_name(self, name)
        set_kind(self, kind)
        set_attributes(self, attributes)
        set_parent(self, parent)


class Association(_Record):
    """A directed association between two classes: composition, reference or
    generalisation, with the multiplicity at the target."""

    __slots__ = ("source", "target", "kind", "multiplicity")

    def __init__(
        self,
        source: str,
        target: str,
        kind: str,  # composition | reference | generalisation
        multiplicity: str | None = None,  # one | many (generalisations carry none)
    ) -> None:
        set_source, set_target, set_kind, set_multiplicity = self._setters
        set_source(self, source)
        set_target(self, target)
        set_kind(self, kind)
        set_multiplicity(self, multiplicity)


class ClassDiagram(_Record):
    """The classes and associations derived from one or more events."""

    __slots__ = ("classes", "associations")

    def __init__(self, classes: tuple[ClassSpec, ...] = (), associations: tuple[Association, ...] = ()) -> None:
        set_classes, set_associations = self._setters
        set_classes(self, classes)
        set_associations(self, associations)


def class_name(raw: str) -> str:
    """Normalise a structure/field name to a class name: UpperCamelCase
    words, all-caps words title-cased ("ORDER" -> "Order",
    "Client address" -> "ClientAddress", "NumberPlate" unchanged)."""
    words = raw.replace("-", " ").split()
    out = []
    for word in words:
        if word.isupper():
            out.append(word.capitalize())
        else:
            out.append(word[0].upper() + word[1:])
    return "".join(out)


# ---------------------------------------------------------------------------
# View derivation
# ---------------------------------------------------------------------------


class _ViewBuilder:
    """A class diagram under construction, indexed by class name.

    ``derive_view`` and ``integrate`` both fill one, so the class-merge rules
    live in ``add_class`` alone. Classes, attributes and associations keep
    first-seen order.
    """

    def __init__(self) -> None:
        self.kinds: dict[str, str] = {}
        self.parents: dict[str, str] = {}
        self.attrs: dict[str, dict[str, Attribute]] = {}
        self.associations: dict[tuple[str, str, str], Association] = {}

    def add_class(self, name: str, kind: str, parent: str | None = None) -> str:
        """Add a class or merge into the one of that name: a referenced class
        takes any later kind, a defined class met as a variant becomes a
        subclass, and a second, different parent is an error (D004)."""
        known = self.kinds.get(name)
        if known is None:
            self.attrs[name] = {}
        elif kind == "referenced" or (known != "referenced" and kind != "subclass"):
            return name
        prior = self.parents.get(name)
        if prior is not None and parent is not None and prior != parent:
            raise DerivationError(
                Diagnostic(
                    Severity.ERROR,
                    "D004",
                    f"class {name!r} cannot specialise both {prior!r} and {parent!r}",
                )
            )
        self.kinds[name] = kind
        if parent is not None:
            self.parents[name] = parent
        return name

    def add_attribute(self, cls: str, attr: Attribute, span: SourceSpan | None) -> None:
        """Derivation: a second attribute of one name in a class is an error."""
        attrs = self.attrs[cls]
        if attr.name in attrs:
            raise DerivationError(
                Diagnostic(
                    Severity.ERROR,
                    "D002",
                    f"duplicate attribute {attr.name!r} in class {cls!r}",
                    span,
                )
            )
        attrs[attr.name] = attr

    def merge_attribute(self, cls: str, attr: Attribute) -> None:
        """Integration: a same-name attribute keeps its place and what it
        already knows, takes a domain it lacked, and must not carry a
        different domain (D003)."""
        attrs = self.attrs[cls]
        seen = attrs.get(attr.name)
        if seen is None:
            attrs[attr.name] = attr
        elif attr.domain is None:
            return
        elif seen.domain is None:
            attrs[attr.name] = _replace(
                seen,
                domain=attr.domain,
                acquisition=seen.acquisition or attr.acquisition,
                formula=seen.formula if seen.formula is not None else attr.formula,
            )
        elif seen.domain != attr.domain:
            raise DerivationError(
                Diagnostic(
                    Severity.ERROR,
                    "D003",
                    f"attribute {attr.name!r} of class {cls!r} has "
                    f"conflicting domains ({domain_to_text(seen.domain)} vs "
                    f"{domain_to_text(attr.domain)})",
                )
            )

    def associate(self, assoc: Association) -> None:
        """Union by (source, target, kind); multiplicities that disagree
        widen to many."""
        key = (assoc.source, assoc.target, assoc.kind)
        seen = self.associations.get(key)
        if seen is None:
            self.associations[key] = assoc
        elif seen.multiplicity != assoc.multiplicity:
            self.associations[key] = _replace(seen, multiplicity="many")

    def build(self) -> ClassDiagram:
        classes = tuple(
            ClassSpec(name, kind, tuple(self.attrs[name].values()), self.parents.get(name))
            for name, kind in self.kinds.items()
        )
        return ClassDiagram(classes, tuple(self.associations.values()))


def derive_view(event: CommunicativeEvent) -> ClassDiagram:
    """Map one event's message structure to a class-diagram view."""
    builder = _ViewBuilder()
    # The class the next fields go to, whether they are optional, and the
    # specialisation whose variants are entered next, if they become
    # subclasses; ``saved`` holds them for each open item.
    cls, optional, spec = builder.add_class(class_name(event.structure.name), "defined"), False, None
    saved: list[tuple[str, bool, Specialisation | None]] = []
    for entering, item in _traverse(event.structure.root):
        if entering is None:  # a field
            domain, acquisition = item.properties.domain, item.properties.acquisition
            if isinstance(domain, ReferenceDomain):
                target = builder.add_class(class_name(domain.target), "referenced")
                builder.associate(Association(cls, target, "reference", "one"))
            elif acquisition is None:
                builder.add_attribute(cls, Attribute(item.name, domain, optional=optional), item.span)
            else:
                attr = Attribute(item.name, domain, acquisition.op, acquisition.formula, optional)
                builder.add_attribute(cls, attr, item.span)
            continue
        if not entering:
            cls, optional, spec = saved.pop()
            continue
        saved.append((cls, optional, spec))
        if type(item) is Iteration:
            raw = _canonical_name(item.children) or item.name or f"{cls}_item"
            item_cls = builder.add_class(class_name(raw), "defined")
            builder.associate(Association(cls, item_cls, "composition", "many"))
            cls, optional = item_cls, False
        elif type(item) is Specialisation:
            # One variant means the content is optional, not an alternative.
            if len(item.variants) == 1:
                optional = True
            else:
                spec = item
        elif type(item) is tuple and spec is not None:
            name = _canonical_name(item)
            if name is None:
                node = _lone_aggregation(item)
                raise DerivationError(
                    Diagnostic(
                        Severity.ERROR,
                        "D001",
                        f"variant of a specialisation under class {cls!r} has no name "
                        "to derive a subclass from",
                        (node and node.span) or spec.span,
                    )
                )
            sub = builder.add_class(class_name(name), "subclass", parent=cls)
            builder.associate(Association(cls, sub, "generalisation", None))
            cls, spec = sub, None
    return builder.build()


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def integrate(views: list[ClassDiagram]) -> ClassDiagram:
    """Fold views left to right into one diagram.

    Classes merge by name under the rules of ``derive_view``, attribute lists
    union preserving first-seen order, and associations union by (source,
    target, kind) with the target multiplicity widened from one to many on
    disagreement.
    """
    builder = _ViewBuilder()
    for view in views:
        for cls in view.classes:
            builder.add_class(cls.name, cls.kind, cls.parent)
            for attr in cls.attributes:
                builder.merge_attribute(cls.name, attr)
        for assoc in view.associations:
            builder.associate(assoc)
    return builder.build()


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def diagram_to_json_obj(d: ClassDiagram) -> dict:
    return {
        "classes": [_class_to_json(c) for c in d.classes],
        "associations": [_association_to_json(a) for a in d.associations],
    }


def _class_to_json(cls: ClassSpec) -> dict:
    obj: dict = {"name": cls.name, "kind": cls.kind}
    if cls.parent is not None:
        obj["parent"] = cls.parent
    obj["attributes"] = [_attribute_to_json(a) for a in cls.attributes]
    return obj


def _association_to_json(assoc: Association) -> dict:
    obj: dict = {"from": assoc.source, "to": assoc.target, "kind": assoc.kind}
    if assoc.multiplicity is not None:
        obj["multiplicity"] = assoc.multiplicity
    return obj


def _attribute_to_json(a: Attribute) -> dict:
    obj: dict = {
        "name": a.name,
        "domain": domain_to_text(a.domain) if a.domain is not None else None,
        "acquisition": a.acquisition,
    }
    if a.formula is not None:
        obj["formula"] = formula_to_text(a.formula)
    if a.optional:
        obj["optional"] = True
    return obj


def diagram_from_json_obj(obj: dict) -> ClassDiagram:
    classes = tuple(
        ClassSpec(
            c["name"],
            c["kind"],
            tuple(
                Attribute(
                    a["name"],
                    _domain_from_text(a["domain"]) if a.get("domain") else None,
                    a.get("acquisition"),
                    parse_formula(a["formula"]) if a.get("formula") else None,
                    bool(a.get("optional", False)),
                )
                for a in c.get("attributes", [])
            ),
            c.get("parent"),
        )
        for c in obj.get("classes", [])
    )
    associations = tuple(
        Association(a["from"], a["to"], a["kind"], a.get("multiplicity"))
        for a in obj.get("associations", [])
    )
    return ClassDiagram(classes, associations)


_PLANTUML_EDGE = {"composition": "*--", "reference": "-->", "generalisation": "<|--"}
_PLANTUML_MULT = {"one": "1", "many": "*"}


def export_diagram(d: ClassDiagram, fmt: str = "json") -> str:
    """Serialise a diagram: ``json`` (schema above) or ``plantuml``."""
    if fmt == "json":
        # The object of ``diagram_to_json_obj``, its items made one at a time
        # as the writer reaches them, so only one class's object is alive.
        items = {"classes": map(_class_to_json, d.classes), "associations": map(_association_to_json, d.associations)}
        return _json_text(items) + "\n"
    if fmt != "plantuml":
        raise ValueError(f"unknown diagram format {fmt!r}")
    lines = ["@startuml"]
    for cls in d.classes:
        if not cls.attributes:
            stereo = " <<referenced>>" if cls.kind == "referenced" else ""
            lines.append(f"class {_uml_name(cls.name)}{stereo}")
            continue
        lines.append(f"class {_uml_name(cls.name)} {{")
        for a in cls.attributes:
            lines.append(f"  {_uml_attribute(a)}")
        lines.append("}")
    for assoc in d.associations:
        edge = _PLANTUML_EDGE[assoc.kind]
        if assoc.kind == "generalisation":
            lines.append(f"{_uml_name(assoc.source)} {edge} {_uml_name(assoc.target)}")
        else:
            mult = _PLANTUML_MULT[assoc.multiplicity or "one"]
            lines.append(
                f'{_uml_name(assoc.source)} "1" {edge} "{mult}" {_uml_name(assoc.target)}'
            )
    lines.append("@enduml")
    return "\n".join(lines) + "\n"


def _uml_name(name: str) -> str:
    return name if name.isalnum() else f'"{name}"'


def _uml_attribute(a: Attribute) -> str:
    text = a.name
    if a.domain is not None:
        text += f" : {domain_to_text(a.domain)}"
    if a.acquisition == "g":
        text += " <<generated>>"
    if a.acquisition == "d":
        text += " <<derived>>"
        if a.formula is not None:
            text += f" = {formula_to_text(a.formula)}"
    if a.optional:
        text += " <<optional>>"
    return text


# ---------------------------------------------------------------------------
# Events manifest
# ---------------------------------------------------------------------------


def load_events_manifest(path: str | Path) -> list[CommunicativeEvent]:
    """Read a JSON array of ``{id, name, order, file}`` entries, parse each
    referenced ``.ms`` file (paths resolve relative to the manifest), and
    return the events sorted by (order, id). The parses share one string per
    name (``parser._parse``): the events of one process describe the same
    business objects, so their structures repeat the same names."""
    import json

    manifest_path = _path_text(os.fspath(path))
    try:
        with open(manifest_path, encoding="utf-8") as f:
            raw = json.loads(f.read())
    except RecursionError:  # nested deeper than the decoder follows
        raise ValueError("events manifest is nested too deep") from None
    if not isinstance(raw, list):
        raise ValueError("events manifest must be a JSON array")
    folder = os.path.dirname(manifest_path)
    names: dict[str, str] = {}
    events = []
    for entry in raw:
        try:
            ms_path = _path_text(os.path.join(folder, entry["file"]))
            event_id = str(entry["id"])
            name = str(entry["name"])
            order = int(entry["order"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"bad manifest entry {entry!r}: {exc}") from None
        try:
            structure = _parse(_read_source(ms_path), names)
        except OSError as exc:
            raise ValueError(f"cannot read {ms_path}: {exc}") from None
        except ParseError as exc:
            raise _ManifestParseError(ms_path, exc) from None
        events.append(CommunicativeEvent(event_id, name, order, structure, ms_path))
    events.sort(key=lambda e: (e.order, e.id))
    return events


def _path_text(path: str) -> str:
    """``str(pathlib.Path(path))`` on POSIX: empty and ``.`` parts dropped,
    ``..`` kept, and ``.`` for no parts. ``pathlib`` is not used because it
    interns every part of every path, and the dead interned strings of each
    load fill the interpreter's table of them until it is rebuilt."""
    if path[:2] == "//" and path[2:3] != "/":
        root = "//"  # POSIX leaves two leading slashes to the system; pathlib keeps them
    else:
        root = "/" if path[:1] == "/" else ""
    return root + "/".join(part for part in path.split("/") if part not in ("", ".")) or "."


class _ManifestParseError(Exception):
    """A referenced structure file failed to parse."""

    def __init__(self, filename: str, cause: ParseError):
        super().__init__(f"{filename}: {cause}")
        self.filename = filename
        self.cause = cause
