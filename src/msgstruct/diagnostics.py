"""Source positions and diagnostics shared by the parser, linter, and deriver,
the frozen record base that every model type of the package builds on, and
the package's JSON writer."""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from itertools import chain
from operator import attrgetter


def _replace(record, /, **changes):
    """A copy of ``record`` with some fields changed, as ``dataclasses.replace``
    makes it: through the class's own constructor, which checks the result.
    A parsed record's span that is not changed is copied as kept, not built."""
    if "span" in changes or not isinstance(record, _Located):
        origin = None
    else:
        origin, changes["span"] = record, record._where
    for name in record.__match_args__:
        if name not in changes:
            changes[name] = getattr(record, name)
    return _locate(type(record)(**changes), origin)


class _DataclassFields:
    """A record class's ``__dataclass_fields__``, made on first use from its
    slots and its ``__init__`` defaults, so that ``dataclasses.replace``,
    ``fields``, ``asdict`` and ``is_dataclass`` accept records while no
    command imports ``dataclasses``."""

    def __get__(self, record, cls):
        import dataclasses

        names = cls.__match_args__
        init = cls.__init__
        defaults = dict(zip(reversed(names), reversed(init.__defaults__ or ())))
        made = dataclasses.make_dataclass(
            cls.__name__,
            [
                (
                    name,
                    init.__annotations__.get(name, object),
                    dataclasses.field(default=defaults.get(name, dataclasses.MISSING), compare=name in cls._eq_fields),
                )
                for name in names
            ],
            frozen=True,
        )
        cls.__dataclass_fields__ = made.__dataclass_fields__
        return made.__dataclass_fields__


class _Record:
    """Base of the frozen records. A record class lists its fields in
    ``__slots__``, in constructor order, and sets them in its own
    ``__init__`` through ``_setters``, the ``__set__`` of each slot, past the
    frozen ``__setattr__``. The base gives what ``@dataclass(frozen=True)``
    gave: immutability, ``==`` and ``hash`` over the fields (or over the
    ``compare`` names of the class statement), positional patterns, the
    ``repr`` text, copying and pickling, and the view of the ``dataclasses``
    functions."""

    __slots__ = ()

    def __init_subclass__(cls, compare: tuple[str, ...] | None = None) -> None:
        super().__init_subclass__()
        if "__init__" not in cls.__dict__:  # a base, with no fields of its own
            return
        cls.__match_args__ = cls.__slots__
        # Each slot's own ``__set__`` stores a field without the generic
        # attribute lookup; the table is a class attribute, not a field.
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
        cls._eq_fields = compare or cls.__slots__
        # With the class in front it is a tuple also for one field, and a
        # tuple compares its items by identity first, as dataclasses did.
        cls._eq_key = attrgetter("__class__", *cls._eq_fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:  # a shared record, such as a kept domain
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._eq_key(self) == other._eq_key(other)

    def __hash__(self) -> int:
        return hash(self._eq_key(self))

    # A record cannot change, so a copy of it, shallow or deep, is the record
    # itself, at any depth of the values it holds.
    def __copy__(self) -> _Record:
        return self

    def __deepcopy__(self, memo: dict) -> _Record:
        return self

    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self.__match_args__]

    def __setstate__(self, state: list) -> None:
        for setter, value in zip(self._setters, state):
            setter(self, value)

    __replace__ = _replace
    __dataclass_fields__ = _DataclassFields()

    def __repr__(self) -> str:
        """``Name(field=value, ...)``, as dataclasses write it. The text is
        built from an explicit stack of values to write and literal text,
        descending into records and tuples, so it is written at any depth."""
        out: list[str] = []
        stack: list[tuple[bool, object]] = [(False, self)]
        while stack:
            literal, item = stack.pop()
            if literal:
                out.append(item)
                continue
            if isinstance(item, _Record):
                out.append(type(item).__qualname__ + "(")
                parts = [(name + "=", getattr(item, name)) for name in item.__match_args__]
                close = ")"
            elif type(item) is tuple:
                out.append("(")
                parts = [("", value) for value in item]
                close = ",)" if len(item) == 1 else ")"
            else:
                out.append(repr(item))
                continue
            stack.append((True, close))
            for i in reversed(range(len(parts))):
                label, value = parts[i]
                stack += (False, value), (True, (", " if i else "") + label)
        return "".join(out)


class SourceSpan(_Record):
    """Region of the input text, 1-based, end-inclusive."""

    __slots__ = ("start_line", "start_col", "end_line", "end_col")

    def __init__(self, start_line: int, start_col: int, end_line: int, end_col: int) -> None:
        if (end_line, end_col) < (start_line, start_col):
            raise ValueError(f"span end precedes start: {start_line}:{start_col}-{end_line}:{end_col}")
        set_start_line, set_start_col, set_end_line, set_end_col = self._setters
        set_start_line(self, start_line)
        set_start_col(self, start_col)
        set_end_line(self, end_line)
        set_end_col(self, end_col)

    def __str__(self) -> str:
        return f"{self.start_line}:{self.start_col}"


def _span_of(starts, lines: int, start: int, end: int) -> SourceSpan:
    """The span of ``text[start:end]``, given the offsets ``starts[:lines]``
    where the text's lines start and ``starts[lines]``, one past its end. It
    ends one column before ``end``, but never before column 1 or before it
    starts, so an empty range is the one character at ``start``."""
    line = bisect_right(starts, start, 0, lines)
    base = starts[line - 1]
    col = start - base + 1
    if end < starts[line]:  # on the same line, as most spans are
        return SourceSpan(line, col, line, max(col, end - base))
    end_line = bisect_right(starts, end, 0, lines)
    return SourceSpan(line, col, end_line, max(1, end - starts[end_line - 1]))


class _Source:
    """Where the records parsed from one text lie in it. While the text is
    parsed, ``table`` is the list of the offsets where its lines start and
    ``offsets`` holds the start and end offset of each record placed in
    it, in the order of their ``_index``."""

    __slots__ = ("table", "lines", "offsets")

    def __init__(self, line_starts: list[int]) -> None:
        self.table, self.lines, self.offsets = line_starts, len(line_starts) - 1, []

    def place(self, record: _Located, start: int, end: int) -> _Located:
        """``record``, built with this source as its span, placed at ``text[start:end]``."""
        offsets = self.offsets
        _set_index(record, len(offsets) >> 1)
        offsets += start, end
        return record

    def bounds(self, first: _Located, last: _Located) -> tuple[int, int]:
        """The start of ``first`` and the end of ``last``, placed here."""
        offsets = self.offsets
        return offsets[2 * first._index], offsets[2 * last._index + 1]

    def pack(self) -> None:
        """Keep the line starts and the offsets in one bytearray of unsigned
        ints, once the text is parsed, so that a tree keeps no int object
        per line or per node."""
        values = self.table + self.offsets
        view = memoryview(bytearray(4 * len(values))).cast("I")
        for i, value in enumerate(values):
            view[i] = value
        self.table, self.offsets = view.obj, None
        view.release()

    def span(self, index: int) -> SourceSpan:
        """The span of the record placed at ``index``, in a packed source.
        The first read keeps the table's view, for the reads after it."""
        table, lines = self.table, self.lines
        if type(table) is bytearray:
            table = self.table = memoryview(table).cast("I")
        at = lines + 1 + 2 * index
        return _span_of(table, lines, table[at], table[at + 1])


class _SpanField(property):
    """The ``span`` field of a located record: the span as kept, read
    through the slot, or the ``SourceSpan`` of its place, built on each read."""

    def __init__(self, slot) -> None:
        get = slot.__get__

        def span(record: _Located) -> SourceSpan | None:
            where = get(record)
            return where.span(record._index) if where.__class__ is _Source else where

        super().__init__(span, slot.__set__)
        self.__name__ = "span"


class _Located(_Record):
    """Base of the records with a ``span`` field: the tree's nodes and
    ``Diagnostic``. A record built in code keeps the ``SourceSpan`` (or None)
    it is given. A parsed record keeps its place instead: the ``_Source`` of
    its text in the span's slot, read as ``_where``, and its number there in
    ``_index``. Its ``span`` is built from that when read, so a span read
    twice is equal but not the same object. Copies, pickles, ``repr``,
    ``==`` and the ``dataclasses`` functions read the built span."""

    __slots__ = ("_index",)

    def __init_subclass__(cls, **kwargs) -> None:
        slot = cls.__dict__.get("span")
        if slot is not None:
            cls._where = slot
            cls.span = _SpanField(slot)
        super().__init_subclass__(**kwargs)


_set_index = _Located._index.__set__


def _locate(record: _Record, origin: _Record | None) -> _Record:
    """``record``, just built with ``span=origin._where``, placed where the
    parsed ``origin`` is; the span is copied as kept, not built."""
    if origin is not None and origin._where.__class__ is _Source:
        _set_index(record, origin._index)
    return record


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


class Diagnostic(_Located):
    """One reported finding. Codes are stable across releases for a given rule."""

    __slots__ = ("severity", "code", "message", "span")

    def __init__(self, severity: Severity, code: str, message: str, span: SourceSpan | None = None) -> None:
        set_severity, set_code, set_message, set_span = self._setters
        set_severity(self, severity)
        set_code(self, code)
        set_message(self, message)
        set_span(self, span)

    def render(self, filename: str | None = None) -> str:
        where, span = filename or "<input>", self.span
        if span is not None:
            where = f"{where}:{span.start_line}:{span.start_col}"
        return f"{where}: {self.severity.value}: {self.code}: {self.message}"

    def to_json_obj(self) -> dict:
        obj: dict = {
            "severity": self.severity.value,
            "code": self.code,
            "message": self.message,
        }
        span = self.span
        if span is not None:
            obj["span"] = {
                "startLine": span.start_line,
                "startCol": span.start_col,
                "endLine": span.end_line,
                "endCol": span.end_col,
            }
        return obj


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


# What ``next`` gives for an iterator with no items left.
_NO_ITEM = object()


def _json_text(obj: object) -> str:
    """``json.dumps(obj, indent=2, ensure_ascii=False)``, byte for byte, for
    dicts with string keys, lists, tuples and scalars: strings and other
    scalars are encoded by the functions that ``json`` itself uses. An
    iterator is written as the list of its items, taken one at a time, so a
    caller can hand over items that are made only as they are written.

    The text is written top-down from an explicit stack, so it is written at
    any depth, where the indenting encoder in ``json`` recurses once per level.
    It also keeps fewer strings alive: each item goes out as one piece (its
    separator, indent, key and value), and a container that holds only
    scalars is joined into one piece when it closes. Containers that hold
    containers are not joined, as that would copy each level's text again."""
    import json

    string = json.encoder.encode_basestring
    scalar = json.JSONEncoder(ensure_ascii=False).encode  # also "{}" and "[]"
    if hasattr(obj, "__next__"):  # an iterator at the top is read whole first
        obj = list(obj)
    if not (isinstance(obj, (dict, list, tuple)) and obj):
        return scalar(obj)
    out: list[str] = []
    # One entry per open container: its items left, whether it is a dict,
    # the index in ``out`` of its first piece, whether it holds only scalars
    # so far, and the newline and indent of its items.
    stack: list[list] = []
    value, head, indent = obj, "", "\n"  # the container to open, the text before it, its line's indent
    while True:
        if stack:
            stack[-1][3] = False
        is_dict = isinstance(value, dict)
        out.append(head + ("{" if is_dict else "["))
        stack.append([iter(value.items() if is_dict else value), is_dict, len(out) - 1, True, indent + "  "])
        while stack:
            open_ = stack[-1]
            items, is_dict, start, _, indent = open_
            for item in items:
                # The container has written an item if it has a piece after its first.
                head = "," + indent if len(out) - 1 > start else indent
                if is_dict:
                    key, value = item
                    head += string(key) + ": "
                else:
                    value = item
                if isinstance(value, str):
                    out.append(head + string(value))
                elif isinstance(value, (dict, list, tuple)) and value:
                    break  # to open it
                elif hasattr(value, "__next__"):  # an iterator: a list, "[]" if empty
                    first = next(value, _NO_ITEM)
                    if first is _NO_ITEM:
                        out.append(head + "[]")
                        continue
                    value = chain((first,), value)
                    break
                else:
                    out.append(head + scalar(value))
            else:
                stack.pop()
                out.append((stack[-1][4] if stack else "\n") + ("}" if is_dict else "]"))
                if open_[3]:
                    out[start:] = ["".join(out[start:])]
                continue
            break
        else:
            return "".join(out)
