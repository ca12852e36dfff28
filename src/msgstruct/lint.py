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
    G3  an enumerated field domain duplicates a sibling specialisation;
        a variant is named as ``derive_view`` and ``fragment_1nf`` name it,
        by the aggregation written alone in it, else not at all

The initial substructure is an aggregation or an iteration by construction:
``MessageStructure`` rejects any other root.
"""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .core import (
    EnumeratedDomain,
    Field,
    FieldProperties,
    MessageStructure,
    Specialisation,
    Substructure,
    _canonical_name,
    formula_refs,
    iter_fields,
    walk,
)
from .diagnostics import Diagnostic, Severity, _locate, _Record

if TYPE_CHECKING:
    from pathlib import Path

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


# The property kinds of the applicability matrix, in its column order, each
# with the code and the label of its diagnostics, and its test of whether a
# field's properties hold it.
_VOCABULARY = {
    "name": ("L-NAME", "name", lambda p: True),
    "op-i": ("L-OPI", "input operation", lambda p: p.acquisition is not None and p.acquisition.op == "i"),
    "op-g": ("L-OPG", "generation operation", lambda p: p.acquisition is not None and p.acquisition.op == "g"),
    "op-d": ("L-OPD", "derivation operation", lambda p: p.acquisition is not None and p.acquisition.op == "d"),
    "domain": ("L-DOM", "domain", lambda p: p.domain is not None),
    "example": ("L-EX", "example", lambda p: p.example is not None),
    "description": ("L-DESC", "description", lambda p: p.description is not None),
    "label": ("L-LABEL", "label", lambda p: p.label is not None),
    "link": ("L-LINK", "link with memory", lambda p: p.memory_link is not None),
    "compulsoriness": ("L-REQ", "compulsoriness", lambda p: p.compulsory is not None),
    "initialisation": ("L-INIT", "initialisation", lambda p: p.initialisation is not None),
    "visibility": ("L-VIS", "visibility", lambda p: p.visible is not None),
}
PROPERTY_KINDS = tuple(_VOCABULARY)

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

_SEVERITY_ORDER = {None: 0, Severity.INFO: 1, Severity.WARNING: 2, Severity.ERROR: 3}
_SEVERITY_NAMES = {
    "error": Severity.ERROR,
    "warning": Severity.WARNING,
    "info": Severity.INFO,
    "ignore": None,
}

DEFAULT_WORDLIST = ("amount", "total", "sum")

_DEFAULT_SEVERITY_MAP = {
    Level.HIGHLY_RECOMMENDED: None,
    Level.RECOMMENDED: None,
    Level.NOT_RECOMMENDED: Severity.WARNING,
    Level.DISCOURAGED: Severity.ERROR,
}


class LintConfig(_Record):
    """Tunable lint behaviour, frozen down to its severity map (``None``
    gives the default map); see ``from_json`` for the file format. G1
    matches words regardless of case, so its words are kept lowercased."""

    __slots__ = ("severity_map", "g1_wordlist", "report_missing")

    def __init__(
        self,
        severity_map: Mapping[Level, Severity | None] | None = None,
        g1_wordlist: Sequence[str] = DEFAULT_WORDLIST,
        report_missing: bool = False,
    ) -> None:
        severity_map = MappingProxyType(dict(_DEFAULT_SEVERITY_MAP if severity_map is None else severity_map))
        ranks = [
            _SEVERITY_ORDER[severity_map[level]]
            for level in (Level.DISCOURAGED, Level.NOT_RECOMMENDED, Level.RECOMMENDED, Level.HIGHLY_RECOMMENDED)
        ]
        if ranks != sorted(ranks, reverse=True):
            raise ValueError(
                "severity overrides must not invert the applicability order "
                "('--' must report at least as severely as '-', and so on)"
            )
        if not isinstance(g1_wordlist, (list, tuple)) or not all(isinstance(w, str) for w in g1_wordlist):
            raise ValueError("'g1_wordlist' must be a list of strings")
        set_severity_map, set_g1_wordlist, set_report_missing = self._setters
        set_severity_map(self, severity_map)
        set_g1_wordlist(self, tuple(w.lower() for w in g1_wordlist))
        set_report_missing(self, report_missing)

    def __hash__(self) -> int:
        # A mapping proxy has no hash; the map's items do.
        return hash((self.__class__, frozenset(self.severity_map.items()), self.g1_wordlist, self.report_missing))

    def __reduce__(self) -> tuple:
        # A mapping proxy does not pickle; the constructor makes it again.
        return type(self), (dict(self.severity_map), self.g1_wordlist, self.report_missing)

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
        severity_map = dict(_DEFAULT_SEVERITY_MAP)
        for symbol, value in severity.items():
            try:
                level = Level(symbol)
            except ValueError:
                raise ValueError(f"unknown applicability level {symbol!r}") from None
            if not isinstance(value, str) or value not in _SEVERITY_NAMES:
                raise ValueError(f"unknown severity {value!r} for level {symbol!r}")
            severity_map[level] = _SEVERITY_NAMES[value]
        report_missing = obj.get("report_missing", False)
        if not isinstance(report_missing, bool):
            raise ValueError("'report_missing' must be true or false")
        return cls(
            severity_map=severity_map,
            g1_wordlist=obj.get("g1_wordlist", DEFAULT_WORDLIST),
            report_missing=report_missing,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "LintConfig":
        """Read a config file, UTF-8 with or without a byte-order mark, as
        ``parse`` reads a ``.ms`` file."""
        import json

        from .parser import _read_source

        try:
            obj = json.loads(_read_source(path))
        except RecursionError:  # nested deeper than the decoder follows
            raise ValueError("lint configuration is nested too deep") from None
        return cls.from_json(obj)


DEFAULT_CONFIG = LintConfig()


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
    # The phase's row of the matrix, resolved once per call, in column
    # order: the kinds that report, with their test, severity, code and
    # text; and, for ``report_missing``, the highly recommended ones with
    # their test and label, where one acquisition operation stands for the
    # three.
    reported: list[tuple[Callable[[FieldProperties], bool], Severity, str, str]] = []
    wanted: list[tuple[Callable[[FieldProperties], bool], str]] = []
    for kind, level in zip(PROPERTY_KINDS, _ROWS[phase]):
        code, label, present = _VOCABULARY[kind]
        severity = config.severity_map[level]
        if severity is not None:
            word = "discouraged" if level is Level.DISCOURAGED else "not recommended"
            reported.append((present, severity, code, f"{label} {word}"))
        if config.report_missing and level is Level.HIGHLY_RECOMMENDED:
            if kind == "op-i":
                wanted.append((_has_acquisition, "acquisition operation"))
            elif not kind.startswith("op-"):
                wanted.append((present, label))
    if not reported and not wanted:
        return []
    out: list[Diagnostic] = []
    for f in iter_fields(ms):
        p = f.properties
        for present, severity, code, text in reported:
            if present(p):
                message = f"{text} in {phase.value} (field {f.name!r})"
                out.append(_locate(Diagnostic(severity, code, message, f._where), f))
        for present, label in wanted:
            if not present(p):
                message = f"{label} is highly recommended in {phase.value} but missing (field {f.name!r})"
                out.append(_locate(Diagnostic(Severity.INFO, "L-MISS", message, f._where), f))
    return out


def _has_acquisition(p: FieldProperties) -> bool:
    return p.acquisition is not None


def guideline_checks(
    ms: MessageStructure,
    phase: Phase,
    config: LintConfig = DEFAULT_CONFIG,
) -> list[Diagnostic]:
    """Methodological checks G1-G3 (see module docstring)."""
    out: list[Diagnostic] = []
    # One walk: the fields feed G1 and G2, which need every field name
    # first; G3 is decided per sibling list on the way and reported last.
    fields: list[Field] = []
    carriers: list[Diagnostic] = []
    for node in walk(ms):
        parts = node.parts
        if not parts:
            fields.append(node)
        elif type(parts[0]) is tuple:  # a specialisation's variants
            for variant in parts:
                carriers.extend(_check_domain_carrier(variant))
        else:
            carriers.extend(_check_domain_carrier(parts))
    known = {f.name for f in fields}
    wordlist = set(config.g1_wordlist)

    for f in fields:
        if phase is Phase.ANALYSIS:
            words = {w.lower() for w in f.name.replace("-", " ").split()}
            hits = sorted(words & wordlist)
            if hits:
                message = (
                    f"field {f.name!r} looks derivable from the rest of the "
                    f"message (name contains {', '.join(repr(h) for h in hits)}); "
                    "such fields are better left to design"
                )
                out.append(_locate(Diagnostic(Severity.INFO, "G1", message, f._where), f))
        for formula in (
            f.properties.acquisition.formula if f.properties.acquisition else None,
            f.properties.initialisation,
        ):
            if formula is None:
                continue
            for ref in formula_refs(formula):
                if ref not in known:
                    message = f"formula on field {f.name!r} references unknown field {ref!r}"
                    out.append(_locate(Diagnostic(Severity.ERROR, "G2", message, f._where), f))

    out.extend(carriers)
    return out


def _check_domain_carrier(siblings: tuple[Substructure, ...]) -> list[Diagnostic]:
    """G3: an enumerated field next to a specialisation whose variant names
    repeat the enum literals specifies the same domain twice (the Table-style
    ``[theo prac]`` next to ``[THEORY = ... | PRACTICE = ...]`` pattern)."""
    out: list[Diagnostic] = []
    specs = [s for s in siblings if type(s) is Specialisation]
    if not specs:
        return out
    enums = [f for f in siblings if not f.parts and type(f.properties.domain) is EnumeratedDomain]
    for spec in specs:
        variant_names = [_canonical_name(v) for v in spec.variants]
        if None in variant_names or len(variant_names) < 2:
            continue
        for f in enums:
            literals = f.properties.domain.literals
            if len(literals) == len(variant_names) and _literals_match(literals, variant_names):
                message = f"specialisation duplicates the enumerated domain of field {f.name!r} ({'|'.join(literals)})"
                out.append(_locate(Diagnostic(Severity.WARNING, "G3", message, spec._where), spec))
    return out


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
