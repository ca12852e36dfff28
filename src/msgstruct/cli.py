"""Command-line front end.

Subcommands: parse, canon, check, equiv, derive, fragment. Diagnostics go
to stderr; artifacts (structures, diagrams, fragment reports) go to stdout,
so output can be piped. Exit status: 0 success, 1 at least one error-level
diagnostic (or a negative equiv verdict), 2 usage or I/O problems.

The arguments are read from one table, ``_COMMANDS``, which also gives the
help and usage text; ``argparse`` is not imported, to keep start-up short.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .core import MessageStructure
    from .diagnostics import Diagnostic
    from .lint import LintConfig

# Each command imports the modules it runs inside its own function, so that
# a call loads only those. For the same reason the values of ``lint.Phase``
# are written out here; a test keeps the two equal.
_PHASES = ["analysis", "design-memory", "design-interface"]


class _UsageError(Exception):
    """Problem with arguments, files, or configuration: exit status 2.
    ``command`` is set when the arguments are at fault: it names the
    command whose usage line is printed ("" for the program's own)."""

    def __init__(self, message: str, command: str | None = None):
        super().__init__(message)
        self.command = command


def main(argv: list[str] | None = None) -> int:
    try:
        read = _read_argv(sys.argv[1:] if argv is None else argv)
        if read is None:  # help was printed
            return 0
        command, args = read
        return command(args)
    except _UsageError as exc:
        prog = "msgstruct"
        if exc.command is not None:
            print(_usage(exc.command), file=sys.stderr)
            prog = f"{prog} {exc.command}".rstrip()
        print(f"{prog}: error: {exc}", file=sys.stderr)
        return 2


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


def _cmd_parse(args: SimpleNamespace) -> int:
    from .parser import structure_to_json_obj, to_text

    ms = _parse_or_report(args.file)
    if ms is None:
        return 1
    if args.json:
        _dump_json(structure_to_json_obj(ms))
    else:
        print(to_text(ms))
    return 0


def _cmd_canon(args: SimpleNamespace) -> int:
    from .core import canonicalize
    from .parser import to_text

    ms = _parse_or_report(args.file)
    if ms is None:
        return 1
    print(to_text(canonicalize(ms)))
    return 0


def _cmd_check(args: SimpleNamespace) -> int:
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


def _cmd_equiv(args: SimpleNamespace) -> int:
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


def _cmd_derive(args: SimpleNamespace) -> int:
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


def _cmd_fragment(args: SimpleNamespace) -> int:
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


# ---------------------------------------------------------------------------
# Arguments
# ---------------------------------------------------------------------------

_REQUIRED = object()
_CONFIG = ("CONFIG", None, "lint configuration JSON (default: $MSGSTRUCT_CONFIG)")

# command -> (function, help line, positionals, options). An option maps to
# (value, default, help): its value is None for a flag, a metavar for a free
# value, or the tuple of its choices; the default ``_REQUIRED`` makes it
# required.
_COMMANDS: dict[str, tuple[Callable[[SimpleNamespace], int], str, tuple[str, ...], dict[str, tuple]]] = {
    "parse": (_cmd_parse, "parse a .ms file and print it back", ("file",), {
        "--json": (None, False, "print the tree as JSON"),
    }),
    "canon": (_cmd_canon, "print the canonical form of a .ms file", ("file",), {}),
    "check": (_cmd_check, "lint a .ms file for a development phase", ("file",), {
        "--phase": (tuple(_PHASES), _REQUIRED, ""),
        "--config": _CONFIG,
        "--json": (None, False, "print diagnostics as JSON"),
    }),
    "equiv": (_cmd_equiv, "compare two .ms files for equivalence", ("file_a", "file_b"), {}),
    "derive": (_cmd_derive, "derive a class diagram from an events manifest", (), {
        "--events": ("EVENTS", _REQUIRED, "JSON manifest of {id,name,order,file}"),
        "--format": (("json", "plantuml"), "json", ""),
        "--force": (None, False, "derive even with lint errors"),
        "--config": _CONFIG,
    }),
    "fragment": (_cmd_fragment, "fragment a .ms file into interface structures", ("file",), {
        "--json": (None, False, "print fragments as JSON"),
    }),
}


def _read_argv(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace] | None:
    """The function of the command that ``argv`` names and its arguments,
    read as ``_COMMANDS`` lists them; None once help is printed. Options
    come before, between or after the positionals, as ``--name value`` or
    ``--name=value``; every word after ``--`` is a positional."""
    if argv[:1] in (["-h"], ["--help"]):
        print(_help(""))
        return None
    if not argv:
        raise _UsageError("the following arguments are required: command", "")
    name = argv[0]
    if name not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _UsageError(f"argument command: invalid choice: {name!r} (choose from {choices})", "")
    function, _, positionals, options = _COMMANDS[name]
    values = {option[2:]: default for option, (_, default, _) in options.items()}
    given: list[str] = []
    words = iter(argv[1:])
    for word in words:
        if word == "--":
            given.extend(words)
        elif word[:1] != "-" or word == "-":
            given.append(word)
        elif word in ("-h", "--help"):
            print(_help(name))
            return None
        else:
            option, eq, value = word.partition("=")
            if option not in options:
                raise _UsageError(f"unrecognized arguments: {word}", name)
            kind = options[option][0]
            if kind is None:
                if eq:
                    raise _UsageError(f"argument {option}: ignored explicit argument {value!r}", name)
                value = True
            else:
                if not eq:
                    value = next(words, None)
                    if value is None or value[:1] == "-" and value != "-":
                        raise _UsageError(f"argument {option}: expected one argument", name)
                if isinstance(kind, tuple) and value not in kind:
                    choices = ", ".join(map(repr, kind))
                    raise _UsageError(f"argument {option}: invalid choice: {value!r} (choose from {choices})", name)
            values[option[2:]] = value
    missing = [*positionals[len(given):], *(o for o in options if values[o[2:]] is _REQUIRED)]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing), name)
    if len(given) > len(positionals):
        raise _UsageError("unrecognized arguments: " + " ".join(given[len(positionals):]), name)
    values.update(zip(positionals, given))
    return function, SimpleNamespace(**values)


def _option_text(option: str, kind: str | tuple[str, ...] | None) -> str:
    if kind is None:
        return option
    return f"{option} {{{','.join(kind)}}}" if isinstance(kind, tuple) else f"{option} {kind}"


def _usage(name: str) -> str:
    """The usage line of command ``name``, or of the program for ""."""
    if not name:
        return "usage: msgstruct [-h] command ..."
    _, _, positionals, options = _COMMANDS[name]
    parts = ["[-h]"]
    for option, (kind, default, _) in options.items():
        text = _option_text(option, kind)
        parts.append(text if default is _REQUIRED else f"[{text}]")
    return " ".join(["usage: msgstruct", name, *parts, *positionals])


def _help(name: str) -> str:
    """The ``-h`` text of command ``name``, or of the program for ""."""
    rows = [("-h, --help", "show this help message and exit")]
    if not name:
        commands = [(command, entry[1]) for command, entry in _COMMANDS.items()]
        sections = [("commands", commands), ("options", rows)]
        about = "Parse, check, compare, and transform message structures."
    else:
        _, about, positionals, options = _COMMANDS[name]
        rows += [(_option_text(option, kind), text) for option, (kind, _, text) in options.items()]
        sections = [("positional arguments", [(p, "") for p in positionals]), ("options", rows)]
    out = [_usage(name), "", about]
    for title, entries in sections:
        if entries:
            out += ["", f"{title}:"]
        out += [f"  {label:<22}{text}".rstrip() for label, text in entries]
    return "\n".join(out)
