"""Toolkit for the message-structures notation: parse the structured-text
form, canonicalise and compare structures, lint field properties per
development phase, derive class diagrams from event sequences, and fragment
structures into first-normal-form interface pieces.

Importing the package loads none of its submodules. Each public name is
looked up in its submodule on first use (PEP 562), so a command-line call
pays only for the modules it runs.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    "Acquisition": "core",
    "Aggregation": "core",
    "AbstractInterfaceStructure": "fragment",
    "Association": "derive",
    "Attribute": "derive",
    "BasicDomain": "core",
    "BinaryOp": "core",
    "Call": "core",
    "ClassDiagram": "derive",
    "ClassSpec": "derive",
    "CommunicativeEvent": "derive",
    "DerivationError": "derive",
    "Diagnostic": "diagnostics",
    "EnumeratedDomain": "core",
    "Field": "core",
    "FieldProperties": "core",
    "FieldRef": "core",
    "Fragment": "fragment",
    "Iteration": "core",
    "LintConfig": "lint",
    "MessageStructure": "core",
    "Number": "core",
    "ParseError": "parser",
    "Phase": "lint",
    "ReferenceDomain": "core",
    "Severity": "diagnostics",
    "SourceSpan": "diagnostics",
    "Specialisation": "core",
    "Text": "core",
    "assign_abstract": "fragment",
    "canonicalize": "core",
    "derive_view": "derive",
    "equivalent": "core",
    "export_diagram": "derive",
    "field_names": "core",
    "fragment_1nf": "fragment",
    "guideline_checks": "lint",
    "integrate": "derive",
    "iter_fields": "core",
    "lint": "lint",
    "parse": "parser",
    "parse_formula": "core",
    "to_text": "parser",
    "walk": "core",
}

__all__ = list(_HOMES)


def __getattr__(name: str) -> object:
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        # Loading a submodule binds it on the package. The submodule
        # ``msgstruct.lint`` must not hide the public function ``lint``.
        if name in _HOMES and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
