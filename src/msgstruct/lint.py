"""Phase-aware validation of field properties plus methodological checks.

Each field property has an applicability level per development phase
(analysis, memory design, interface design): highly recommended ``++``,
recommended ``+``, not recommended ``-``, or discouraged ``--``. Using a
property where it is discouraged is an error and where it is merely not
recommended a warning; both mappings can be overridden by configuration, but
never so that ``--`` reports less severely than ``-``.

The guideline checks catch method smells the matrix cannot express:

    G1  field name suggests a derivable total (analysis only, wordlist)
    G2  a formula references a field that does not exist in the structure
    G3  an enumerated field domain duplicates a sibling specialisation
    G4  the initial substructure is not an aggregation or iteration
        (programmatically built trees only; the parser rejects this)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from enum import Enum
from pathlib import Path

from .core import (
    Aggregation,
    EnumeratedDomain,
    Field,
    Iteration,
    MessageStructure,
    Specialisation,
    Substructure,
    field_names,
    formula_refs,
    iter_fields,
    walk,
)
from .diagnostics import Diagnostic, Severity

__all__ = [
    "Phase",
    "Level",
    "LintConfig",
    "APPLICABILITY",
    "PROPERTY_KINDS",
    "lint",
    "guideline_checks",
]


class Phase(Enum):
    ANALYSIS = "analysis"
    DESIGN_MEMORY = "design-memory"
    DESIGN_INTERFACE = "design-interface"


class Level(Enum):
    HIGHLY_RECOMMENDED = "++"
    RECOMMENDED = "+"
    NOT_RECOMMENDED = "-"
    DISCOURAGED = "--"


PROPERTY_KINDS = (
    "name",
    "op-i",
    "op-g",
    "op-d",
    "domain",
    "example",
    "description",
    "label",
    "link",
    "compulsoriness",
    "initialisation",
    "visibility",
)

_PP, _P, _N, _NN = Level.HIGHLY_RECOMMENDED, Level.RECOMMENDED, Level.NOT_RECOMMENDED, Level.DISCOURAGED

_ROWS: dict[Phase, tuple[Level, ...]] = {
    Phase.ANALYSIS: (_PP, _PP, _PP, _NN, _PP, _PP, _PP, _NN, _NN, _NN, _NN, _NN),
    Phase.DESIGN_MEMORY: (_PP, _PP, _PP, _PP, _PP, _PP, _PP, _N, _PP, _P, _N, _N),
    Phase.DESIGN_INTERFACE: (_PP, _PP, _PP, _PP, _PP, _PP, _PP, _PP, _PP, _PP, _PP, _P),
}

APPLICABILITY: dict[tuple[Phase, str], Level] = {
    (phase, kind): level
    for phase, row in _ROWS.items()
    for kind, level in zip(PROPERTY_KINDS, row)
}

_CODES = {
    "name": "L-NAME",
    "op-i": "L-OPI",
    "op-g": "L-OPG",
    "op-d": "L-OPD",
    "domain": "L-DOM",
    "example": "L-EX",
    "description": "L-DESC",
    "label": "L-LABEL",
    "link": "L-LINK",
    "compulsoriness": "L-REQ",
    "initialisation": "L-INIT",
    "visibility": "L-VIS",
}

_LABELS = {
    "name": "name",
    "op-i": "input operation",
    "op-g": "generation operation",
    "op-d": "derivation operation",
    "domain": "domain",
    "example": "example",
    "description": "description",
    "label": "label",
    "link": "link with memory",
    "compulsoriness": "compulsoriness",
    "initialisation": "initialisation",
    "visibility": "visibility",
}

_SEVERITY_ORDER = {None: 0, Severity.INFO: 1, Severity.WARNING: 2, Severity.ERROR: 3}
_SEVERITY_NAMES = {
    "error": Severity.ERROR,
    "warning": Severity.WARNING,
    "info": Severity.INFO,
    "ignore": None,
}

DEFAULT_WORDLIST = ("amount", "total", "sum")


@dataclass(frozen=True)
class LintConfig:
    """Tunable lint behaviour; see ``from_json`` for the file format."""

    severity_map: dict[Level, Severity | None] = dc_field(
        default_factory=lambda: {
            Level.HIGHLY_RECOMMENDED: None,
            Level.RECOMMENDED: None,
            Level.NOT_RECOMMENDED: Severity.WARNING,
            Level.DISCOURAGED: Severity.ERROR,
        }
    )
    g1_wordlist: tuple[str, ...] = DEFAULT_WORDLIST
    report_missing: bool = False

    def __post_init__(self) -> None:
        ranks = [
            _SEVERITY_ORDER[self.severity_map[level]]
            for level in (Level.DISCOURAGED, Level.NOT_RECOMMENDED, Level.RECOMMENDED, Level.HIGHLY_RECOMMENDED)
        ]
        if ranks != sorted(ranks, reverse=True):
            raise ValueError(
                "severity overrides must not invert the applicability order "
                "('--' must report at least as severely as '-', and so on)"
            )

    @classmethod
    def from_json(cls, obj: dict) -> "LintConfig":
        """Build a config from a JSON object. Recognised keys:

        - ``severity``: map of level symbol (``"--"``, ``"-"``, ``"+"``,
          ``"++"``) to ``error`` | ``warning`` | ``info`` | ``ignore``
        - ``g1_wordlist``: list of words flagged as likely derivable
        - ``report_missing``: report absent highly-recommended properties
          at info level
        """
        if not isinstance(obj, dict):
            raise ValueError("lint configuration must be a JSON object")
        severity = obj.get("severity", {})
        if not isinstance(severity, dict):
            raise ValueError("'severity' must be an object")
        severity_map = dict(cls().severity_map)
        for symbol, value in severity.items():
            try:
                level = Level(symbol)
            except ValueError:
                raise ValueError(f"unknown applicability level {symbol!r}") from None
            if not isinstance(value, str) or value not in _SEVERITY_NAMES:
                raise ValueError(f"unknown severity {value!r} for level {symbol!r}")
            severity_map[level] = _SEVERITY_NAMES[value]
        words = obj.get("g1_wordlist", DEFAULT_WORDLIST)
        if not isinstance(words, (list, tuple)) or not all(isinstance(w, str) for w in words):
            raise ValueError("'g1_wordlist' must be a list of strings")
        wordlist = tuple(w.lower() for w in words)
        return cls(
            severity_map=severity_map,
            g1_wordlist=wordlist,
            report_missing=bool(obj.get("report_missing", False)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "LintConfig":
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


DEFAULT_CONFIG = LintConfig()


def _present_kinds(f: Field) -> list[str]:
    """Property kinds present on a field, in matrix column order."""
    p = f.properties
    kinds = ["name"]
    if p.acquisition is not None:
        kinds.append(f"op-{p.acquisition.op}")
    if p.domain is not None:
        kinds.append("domain")
    if p.example is not None:
        kinds.append("example")
    if p.description is not None:
        kinds.append("description")
    if p.label is not None:
        kinds.append("label")
    if p.memory_link is not None:
        kinds.append("link")
    if p.compulsory is not None:
        kinds.append("compulsoriness")
    if p.initialisation is not None:
        kinds.append("initialisation")
    if p.visible is not None:
        kinds.append("visibility")
    return kinds


def lint(
    ms: MessageStructure,
    phase: Phase,
    config: LintConfig = DEFAULT_CONFIG,
) -> list[Diagnostic]:
    """Check every present field property against the applicability matrix.

    Absent properties are never diagnosed (the matrix governs what is
    written down, not what is left out) unless ``config.report_missing``
    asks for info-level reminders about absent highly-recommended ones.
    """
    out: list[Diagnostic] = []
    for f in iter_fields(ms):
        present = _present_kinds(f)
        for kind in present:
            level = APPLICABILITY[(phase, kind)]
            severity = config.severity_map[level]
            if severity is None:
                continue
            word = "discouraged" if level is Level.DISCOURAGED else "not recommended"
            out.append(
                Diagnostic(
                    severity,
                    _CODES[kind],
                    f"{_LABELS[kind]} {word} in {phase.value} (field {f.name!r})",
                    f.span,
                )
            )
        if config.report_missing:
            for label in _missing_labels(phase, present):
                out.append(
                    Diagnostic(
                        Severity.INFO,
                        "L-MISS",
                        f"{label} is highly recommended in {phase.value} "
                        f"but missing (field {f.name!r})",
                        f.span,
                    )
                )
    return out


def _missing_labels(phase: Phase, present: list[str]) -> list[str]:
    missing = []
    if (
        not any(k.startswith("op-") for k in present)
        and APPLICABILITY[(phase, "op-i")] is Level.HIGHLY_RECOMMENDED
    ):
        missing.append("acquisition operation")
    for kind in PROPERTY_KINDS:
        if kind.startswith("op-") or kind in present:
            continue
        if APPLICABILITY[(phase, kind)] is Level.HIGHLY_RECOMMENDED:
            missing.append(_LABELS[kind])
    return missing


def guideline_checks(
    ms: MessageStructure,
    phase: Phase,
    config: LintConfig = DEFAULT_CONFIG,
) -> list[Diagnostic]:
    """Methodological checks G1-G4 (see module docstring)."""
    out: list[Diagnostic] = []
    known = set(field_names(ms))

    if not isinstance(ms.root, (Aggregation, Iteration)):
        out.append(
            Diagnostic(
                Severity.ERROR,
                "G4",
                "the initial substructure must be an aggregation or an iteration",
                ms.root.span or ms.span,
            )
        )

    for f in iter_fields(ms):
        if phase is Phase.ANALYSIS:
            words = {w.lower() for w in f.name.replace("-", " ").split()}
            hits = sorted(words & set(config.g1_wordlist))
            if hits:
                out.append(
                    Diagnostic(
                        Severity.INFO,
                        "G1",
                        f"field {f.name!r} looks derivable from the rest of the "
                        f"message (name contains {', '.join(repr(h) for h in hits)}); "
                        "such fields are better left to design",
                        f.span,
                    )
                )
        for formula in (
            f.properties.acquisition.formula if f.properties.acquisition else None,
            f.properties.initialisation,
        ):
            if formula is None:
                continue
            for ref in formula_refs(formula):
                if ref not in known:
                    out.append(
                        Diagnostic(
                            Severity.ERROR,
                            "G2",
                            f"formula on field {f.name!r} references unknown field {ref!r}",
                            f.span,
                        )
                    )

    for node in walk(ms):
        if isinstance(node, (Aggregation, Iteration)):
            out.extend(_check_domain_carrier(list(node.children)))
        elif isinstance(node, Specialisation):
            for variant in node.variants:
                out.extend(_check_domain_carrier(list(variant)))
    return out


def _check_domain_carrier(siblings: list[Substructure]) -> list[Diagnostic]:
    """G3: an enumerated field next to a specialisation whose variant names
    repeat the enum literals specifies the same domain twice (the Table-style
    ``[theo prac]`` next to ``[THEORY = ... | PRACTICE = ...]`` pattern)."""
    out: list[Diagnostic] = []
    specs = [s for s in siblings if isinstance(s, Specialisation)]
    if not specs:
        return out
    enums = [
        f
        for f in siblings
        if isinstance(f, Field) and isinstance(f.properties.domain, EnumeratedDomain)
    ]
    for spec in specs:
        variant_names = [_variant_name(v) for v in spec.variants]
        if any(n is None for n in variant_names) or len(variant_names) < 2:
            continue
        for f in enums:
            literals = f.properties.domain.literals
            if len(literals) != len(variant_names):
                continue
            if _literals_match(literals, [n for n in variant_names if n]):
                out.append(
                    Diagnostic(
                        Severity.WARNING,
                        "G3",
                        f"specialisation duplicates the enumerated domain of "
                        f"field {f.name!r} ({'|'.join(literals)})",
                        spec.span,
                    )
                )
    return out


def _variant_name(variant: tuple[Substructure, ...]) -> str | None:
    if len(variant) == 1 and not isinstance(variant[0], Field):
        return variant[0].name
    return None


def _literals_match(literals: tuple[str, ...], names: list[str]) -> bool:
    remaining = [n.lower() for n in names]
    for lit in literals:
        low = lit.lower()
        match = next(
            (n for n in remaining if n.startswith(low) or low.startswith(n)), None
        )
        if match is None:
            return False
        remaining.remove(match)
    return True
