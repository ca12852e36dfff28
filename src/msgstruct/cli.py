"""Command-line front end.

Subcommands: parse, canon, check, equiv, derive, fragment. Diagnostics go
to stderr; artifacts (structures, diagrams, fragment reports) go to stdout,
so output can be piped. Exit status: 0 success, 1 at least one error-level
diagnostic (or a negative equiv verdict), 2 usage or I/O problems.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .core import MessageStructure
    from .diagnostics import Diagnostic
    from .lint import LintConfig

# Each command imports the modules it runs inside its own function, so that
# a call loads only those. For the same reason the values of ``lint.Phase``
# are written out here; a test keeps the two equal.
_PHASES = ["analysis", "design-memory", "design-interface"]


class _UsageError(Exception):
    """Problem with arguments, files, or configuration: exit status 2."""


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"msgstruct: error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msgstruct",
        description="Parse, check, compare, and transform message structures.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser("parse", help="parse a .ms file and print it back")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="print the tree as JSON")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("canon", help="print the canonical form of a .ms file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("check", help="lint a .ms file for a development phase")
    p.add_argument("file")
    p.add_argument("--phase", required=True, choices=_PHASES)
    p.add_argument("--config", help="lint configuration JSON (default: $MSGSTRUCT_CONFIG)")
    p.add_argument("--json", action="store_true", help="print diagnostics as JSON")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("equiv", help="compare two .ms files for equivalence")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("derive", help="derive a class diagram from an events manifest")
    p.add_argument("--events", required=True, help="JSON manifest of {id,name,order,file}")
    p.add_argument("--format", choices=["json", "plantuml"], default="json")
    p.add_argument("--force", action="store_true", help="derive even with lint errors")
    p.add_argument("--config", help="lint configuration JSON (default: $MSGSTRUCT_CONFIG)")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("fragment", help="fragment a .ms file into interface structures")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="print fragments as JSON")
    p.set_defaults(func=_cmd_fragment)

    return parser


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot decode {path}: {exc}") from None


def _emit_diagnostics(diagnostics: list[Diagnostic], filename: str) -> None:
    for d in diagnostics:
        print(d.render(filename), file=sys.stderr)


def _parse_or_report(path: str) -> MessageStructure | None:
    from .parser import ParseError, parse

    try:
        return parse(_read_file(path))
    except ParseError as exc:
        _emit_diagnostics(exc.diagnostics, path)
        return None


def _load_config(path: str | None) -> LintConfig:
    from .lint import DEFAULT_CONFIG, LintConfig

    path = path or os.environ.get("MSGSTRUCT_CONFIG")
    if not path:
        return DEFAULT_CONFIG
    try:
        return LintConfig.from_file(path)
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc.strerror or exc}") from None
    except (ValueError, KeyError) as exc:
        raise _UsageError(f"bad config {path}: {exc}") from None


def _dump_json(obj: object) -> None:
    print(_json_text(obj))


def _json_text(obj: object) -> str:
    """``json.dumps(obj, indent=2, ensure_ascii=False)`` for dicts with
    string keys, lists, tuples and scalars, written from an explicit stack: the
    indenting encoder in ``json`` recurses once per level and runs out of
    frames on a structure ``MAX_NESTING`` deep."""
    import json

    scalar = json.JSONEncoder(ensure_ascii=False).encode
    out: list[str] = []
    # One entry per open container: its items left, its closer, whether it
    # is a dict, and whether an item was written.
    stack: list[list] = []
    end = object()
    value = obj
    while True:
        if isinstance(value, (dict, list, tuple)) and value:
            is_dict = isinstance(value, dict)
            out.append("{" if is_dict else "[")
            stack.append([iter(value.items() if is_dict else value), "}" if is_dict else "]", is_dict, False])
        else:
            out.append("{}" if isinstance(value, dict) else "[]" if isinstance(value, (list, tuple)) else scalar(value))
        while stack:
            open_ = stack[-1]
            item = next(open_[0], end)
            if item is not end:
                break
            stack.pop()
            out.append("\n" + "  " * len(stack) + open_[1])
        else:
            return "".join(out)
        out.append(("," if open_[3] else "") + "\n" + "  " * len(stack))
        open_[3] = True
        if open_[2]:
            key, value = item
            out.append(scalar(key) + ": ")
        else:
            value = item


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_parse(args: argparse.Namespace) -> int:
    from .parser import structure_to_json_obj, to_text

    ms = _parse_or_report(args.file)
    if ms is None:
        return 1
    if args.json:
        _dump_json(structure_to_json_obj(ms))
    else:
        print(to_text(ms))
    return 0


def _cmd_canon(args: argparse.Namespace) -> int:
    from .core import canonicalize
    from .parser import to_text

    ms = _parse_or_report(args.file)
    if ms is None:
        return 1
    print(to_text(canonicalize(ms)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .diagnostics import has_errors
    from .lint import Phase, guideline_checks, lint

    config = _load_config(args.config)
    ms = _parse_or_report(args.file)
    if ms is None:
        return 1
    phase = Phase(args.phase)
    diagnostics = lint(ms, phase, config) + guideline_checks(ms, phase, config)
    if args.json:
        _dump_json(
            {
                "file": args.file,
                "phase": phase.value,
                "diagnostics": [d.to_json_obj() for d in diagnostics],
            }
        )
    else:
        _emit_diagnostics(diagnostics, args.file)
        summary = _summarise(diagnostics)
        print(f"{args.file}: {summary}", file=sys.stderr)
    return 1 if has_errors(diagnostics) else 0


def _summarise(diagnostics: list[Diagnostic]) -> str:
    from .diagnostics import Severity

    if not diagnostics:
        return "clean"
    counts = {s: 0 for s in Severity}
    for d in diagnostics:
        counts[d.severity] += 1
    return ", ".join(
        f"{n} {s.value}{'s' if n != 1 else ''}" for s, n in counts.items() if n
    )


def _cmd_equiv(args: argparse.Namespace) -> int:
    from .core import equivalent

    ms_a = _parse_or_report(args.file_a)
    ms_b = _parse_or_report(args.file_b)
    if ms_a is None or ms_b is None:
        return 1
    if equivalent(ms_a, ms_b):
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


def _cmd_derive(args: argparse.Namespace) -> int:
    from .derive import (
        DerivationError,
        _ManifestParseError,
        derive_view,
        export_diagram,
        integrate,
        load_events_manifest,
    )
    from .diagnostics import Severity
    from .lint import Phase, guideline_checks, lint

    config = _load_config(args.config)
    try:
        events = load_events_manifest(args.events)
    except _ManifestParseError as exc:
        _emit_diagnostics(exc.cause.diagnostics, exc.filename)
        return 1
    except (OSError, ValueError) as exc:
        raise _UsageError(f"bad events manifest {args.events}: {exc}") from None

    blocking: list[Diagnostic] = []
    for event in events:
        found = lint(event.structure, Phase.DESIGN_MEMORY, config)
        found += guideline_checks(event.structure, Phase.DESIGN_MEMORY, config)
        errors = [d for d in found if d.severity is Severity.ERROR]
        if errors:
            _emit_diagnostics(errors, event.file)
            blocking.extend(errors)
    if blocking and not args.force:
        print(
            "msgstruct: refusing to derive from structures with lint errors "
            "(use --force to override)",
            file=sys.stderr,
        )
        return 1

    views = []
    for event in events:
        try:
            views.append(derive_view(event))
        except DerivationError as exc:
            # D001 and D002 point into the event's .ms file; D004 has no span.
            where = event.file if exc.diagnostic.span is not None else args.events
            _emit_diagnostics([exc.diagnostic], where)
            return 1
    try:
        diagram = integrate(views)
    except DerivationError as exc:  # D003 and D004 have no span
        _emit_diagnostics([exc.diagnostic], args.events)
        return 1
    sys.stdout.write(export_diagram(diagram, args.format))
    return 0


def _cmd_fragment(args: argparse.Namespace) -> int:
    from .fragment import assign_abstract, fragment_1nf, fragments_to_json_obj

    ms = _parse_or_report(args.file)
    if ms is None:
        return 1
    fragments = fragment_1nf(ms)
    if args.json:
        _dump_json(fragments_to_json_obj(fragments))
        return 0
    for item in assign_abstract(fragments):
        f = item.fragment
        parent = f" parent={f.parent_key}" if f.parent_key else ""
        names = ", ".join(fld.name for fld in f.fields) or "(no fields)"
        print(f"{f.id} [depth {f.depth}, {item.kind}{parent}]: {names}")
        for note in f.discriminators:
            print(f"  discriminator: {note}")
    return 0
