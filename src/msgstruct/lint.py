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
from typing import TYPE_CHECKING, Mapping

from .core import (
    EnumeratedDomain,
    Field,
    MessageStructure,
    Specialisation,
    Substructure,
    _canonical_name,
    formula_refs,
    iter_fields,
    walk,
)
from .diagnostics import Diagnostic, Severity, _Record

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
# with the code and the label of its diagnostics.
_VOCABULARY = {
    "name": ("L-NAME", "name"),
    "op-i": ("L-OPI", "input operation"),
    "op-g": ("L-OPG", "generation operation"),
    "op-d": ("L-OPD", "derivation operation"),
    "domain": ("L-DOM", "domain"),
    "example": ("L-EX", "example"),
    "description": ("L-DESC", "description"),
    "label": ("L-LABEL", "label"),
    "link": ("L-LINK", "link with memory"),
    "compulsoriness": ("L-REQ", "compulsoriness"),
    "initialisation": ("L-INIT", "initialisation"),
    "visibility": ("L-VIS", "visibility"),
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
    gives the default map); see ``from_json`` for the file format."""

    __slots__ = ("severity_map", "g1_wordlist", "report_missing")

    def __init__(
        self,
        severity_map: Mapping[Level, Severity | None] | None = None,
        g1_wordlist: tuple[str, ...] = DEFAULT_WORDLIST,
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
        set_severity_map, set_g1_wordlist, set_report_missing = self._setters
        set_severity_map(self, severity_map)
        set_g1_wordlist(self, g1_wordlist)
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
        words = obj.get("g1_wordlist", DEFAULT_WORDLIST)
        if not isinstance(words, (list, tuple)) or not all(isinstance(w, str) for w in words):
            raise ValueError("'g1_wordlist' must be a list of strings")
        wordlist = tuple(w.lower() for w in words)
        report_missing = obj.get("report_missing", False)
        if not isinstance(report_missing, bool):
            raise ValueError("'report_missing' must be true or false")
        return cls(
            severity_map=severity_map,
            g1_wordlist=wordlist,
            report_missing=report_missing,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "LintConfig":
        import json
        from pathlib import Path

        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except RecursionError:  # nested deeper than the decoder follows
            raise ValueError("lint configuration is nested too deep") from None
        return cls.from_json(obj)


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
    # The phase's row of the matrix, resolved once per call: the kinds that
    # report, with their severity and the word for their level, and the
    # kinds that are highly recommended.
    reported: dict[str, tuple[Severity, str, str]] = {}
    wanted: list[str] = []
    for kind, level in zip(PROPERTY_KINDS, _ROWS[phase]):
        severity = config.severity_map[level]
        if severity is not None:
            word = "discouraged" if level is Level.DISCOURAGED else "not recommended"
            code, label = _VOCABULARY[kind]
            reported[kind] = (severity, code, f"{label} {word}")
        if level is Level.HIGHLY_RECOMMENDED:
            wanted.append(kind)
    out: list[Diagnostic] = []
    for f in iter_fields(ms):
        present = _present_kinds(f)
        for kind in present:
            rule = reported.get(kind)
            if rule is None:
                continue
            severity, code, text = rule
            out.append(
                Diagnostic(
                    severity,
                    code,
                    f"{text} in {phase.value} (field {f.name!r})",
                    f.span,
                )
            )
        if config.report_missing:
            for label in _missing_labels(wanted, present):
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


def _missing_labels(wanted: list[str], present: list[str]) -> list[str]:
    # ``wanted``: the kinds highly recommended in the phase, in matrix order.
    missing = []
    if "op-i" in wanted and not any(k.startswith("op-") for k in present):
        missing.append("acquisition operation")
    for kind in wanted:
        if not kind.startswith("op-") and kind not in present:
            missing.append(_VOCABULARY[kind][1])
    return missing


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
        if isinstance(node, Field):
            fields.append(node)
        elif isinstance(node, Specialisation):
            for variant in node.variants:
                carriers.extend(_check_domain_carrier(variant))
        else:
            carriers.extend(_check_domain_carrier(node.children))
    known = {f.name for f in fields}
    wordlist = set(config.g1_wordlist)

    for f in fields:
        if phase is Phase.ANALYSIS:
            words = {w.lower() for w in f.name.replace("-", " ").split()}
            hits = sorted(words & wordlist)
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

    out.extend(carriers)
    return out


def _check_domain_carrier(siblings: tuple[Substructure, ...]) -> list[Diagnostic]:
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
        variant_names = [_canonical_name(v) for v in spec.variants]
        if None in variant_names or len(variant_names) < 2:
            continue
        for f in enums:
            literals = f.properties.domain.literals
            if len(literals) == len(variant_names) and _literals_match(literals, variant_names):
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
