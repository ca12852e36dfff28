"""Toolkit for the message-structures notation: parse the structured-text
form, canonicalise and compare structures, lint field properties per
development phase, derive class diagrams from event sequences, and fragment
structures into first-normal-form interface pieces."""

from .core import (
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
    canonicalize,
    equivalent,
    field_names,
    iter_fields,
    walk,
)
from .derive import (
    Association,
    Attribute,
    ClassDiagram,
    ClassSpec,
    CommunicativeEvent,
    DerivationError,
    derive_view,
    export_diagram,
    integrate,
)
from .diagnostics import Diagnostic, Severity, SourceSpan
from .fragment import (
    AbstractInterfaceStructure,
    Fragment,
    assign_abstract,
    fragment_1nf,
)
from .lint import LintConfig, Phase, guideline_checks, lint
from .parser import ParseError, parse, parse_formula, to_text

__version__ = "0.1.0"

__all__ = [
    "Acquisition",
    "Aggregation",
    "AbstractInterfaceStructure",
    "Association",
    "Attribute",
    "BasicDomain",
    "BinaryOp",
    "Call",
    "ClassDiagram",
    "ClassSpec",
    "CommunicativeEvent",
    "DerivationError",
    "Diagnostic",
    "EnumeratedDomain",
    "Field",
    "FieldProperties",
    "FieldRef",
    "Fragment",
    "Iteration",
    "LintConfig",
    "MessageStructure",
    "Number",
    "ParseError",
    "Phase",
    "ReferenceDomain",
    "Severity",
    "SourceSpan",
    "Specialisation",
    "Text",
    "assign_abstract",
    "canonicalize",
    "derive_view",
    "equivalent",
    "export_diagram",
    "field_names",
    "fragment_1nf",
    "guideline_checks",
    "integrate",
    "iter_fields",
    "lint",
    "parse",
    "parse_formula",
    "to_text",
    "walk",
]
