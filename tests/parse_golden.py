"""The parser's outputs, pinned: ``tests/data/parse_golden.jsonl``.

The file holds what ``parse`` makes of the paper corpus and of seeded
mutations of it, in the compact and the tabular layout. Its first lines
hold the base texts, ``{"base": text}``. Each later line holds one input,
written as the index of its base and the edits ``mutate`` applies to it,
or as a text of pieces, and the outcome of parsing it (``outcome``).
``tests/test_parser.py`` compares ``parse`` against the file.

Regenerate it only when a change to the parser's output is intended, from
the repository root:

    PYTHONPATH=src:tests python3 tests/parse_golden.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from msgstruct.core import Field, Specialisation, walk
from msgstruct.parser import ParseError, parse

PATH = Path(__file__).parent / "data" / "parse_golden.jsonl"

# Every node kind as one letter.
_KINDS = {"Field": "F", "Aggregation": "A", "Iteration": "I", "Specialisation": "S"}

# The pieces an edit inserts, deletes or replaces: the notation's own
# characters, and the starts of annotations and of a tabular header.
_HEADER = "FIELD\tOP\tDOMAIN\tEXAMPLE VALUE\n"
PIECES = list('<>{}[]|+=();:"\\#\n\r\t .-1xyzABé\ufeff') + [
    _HEADER,
    "op=",
    "domain=",
    'example="',
    "C =",
    "# note\n",
    "op=d; formula=",
    "; desc=",
    "enum:",
    "ref:",
    "\t\t",
]


EDITS = ("insert", "delete", "replace", "truncate")


def mutate(text: str, edits: list[tuple[int, str, str]]) -> str:
    """Apply ``(offset, edit, piece)`` edits in turn: insert the piece,
    delete or overwrite as many characters as it has, or cut the text off.
    An edit may be named by its first letter. Offsets wrap around the
    text's length."""
    for at, edit, piece in edits:
        at %= len(text) + 1
        if edit[0] == "i":
            text = text[:at] + piece + text[at:]
        elif edit[0] == "d":
            text = text[:at] + text[at + len(piece) :]
        elif edit[0] == "r":
            text = text[:at] + piece + text[at + len(piece) :]
        else:
            text = text[:at]
    return text


def _span(span) -> str:
    return f"{span.start_line}:{span.start_col}-{span.end_line}:{span.end_col}"


def outcome(text: str) -> dict:
    """``{"tree": nodes}`` with one ``kind span name`` string per node in
    ``walk`` order, where a field adds its properties and a specialisation
    the sizes of its variants, or
    ``{"error": diagnostics}`` with one ``code span message`` string each."""
    try:
        ms = parse(text)
    except ParseError as exc:
        return {"error": [f"{d.code} {_span(d.span)} {d.message}" for d in exc.diagnostics]}
    nodes = [f"{ms.name} {_span(ms.span)}"]
    for node in walk(ms):
        entry = f"{_KINDS[type(node).__name__]} {_span(node.span)} {node.name or ''}"
        if isinstance(node, Field):
            entry += "".join(f" {k}={v};" for k, v in node.properties.to_mapping().items())
        elif isinstance(node, Specialisation):
            entry += " " + ",".join(str(len(v)) for v in node.variants)
        nodes.append(entry)
    return {"tree": nodes}


def load() -> tuple[list[str], list[dict]]:
    """The base texts, and the records of the inputs."""
    bases, records = [], []
    with PATH.open(encoding="utf-8") as f:
        for line in f:
            record = json.loads(line)
            if "base" in record and isinstance(record["base"], str):
                bases.append(record["base"])
            else:
                records.append(record)
    return bases, records


def text_of(record: dict, bases: list[str]) -> str:
    if "text" in record:
        return record["text"]
    return mutate(bases[record["base"]], record["edits"])


def _bases() -> list[str]:
    from conftest import (
        ASSIGNMENT_TEXT,
        ORDER_TABLE,
        ORDER_TEXT,
        SUGAR_FORMS,
        SUPPLIER_RESPONSE_TEXT,
        VEHICLE_AMBIGUOUS,
        VEHICLE_NESTED,
    )
    from msgstruct.parser import to_text

    compact = [ORDER_TEXT, ASSIGNMENT_TEXT, SUPPLIER_RESPONSE_TEXT, VEHICLE_NESTED, *SUGAR_FORMS]
    # An annotated event with formulas, links, flags and a specialisation.
    compact.append(
        "SALE =\n"
        "< Sale id (op=g; domain=number; example=\"7\") +\n"
        "  Kind (op=i; domain=enum:cash|card; desc=\"how \\\"paid\\\"\") +\n"
        "  Net (op=i; domain=money; link=Sale.net; required=true) +\n"
        "  Tax (op=d; domain=money; formula=\":Net * 0.21\"; visible=false) +\n"
        "  Due (op=i; domain=date; init=\"today()\"; label=\"Due date\") +\n"
        "  ITEMS = { Item (op=i; domain=ref:Product) + Qty (op=i; domain=number) } +\n"
        "  PAY = [ CASH = < Till (op=i) > | CARD = < Card no (op=i; example=\"4111 1111\") > ] # done\n"
        ">\n"
    )
    tabular = [ORDER_TABLE] + [to_text(parse(t), "tabular") for t in compact if t is not ORDER_TEXT]
    return compact + [VEHICLE_AMBIGUOUS] + tabular


def main() -> None:
    rnd = random.Random(20261018)
    bases = _bases()
    lines = [{"base": b} for b in bases]
    inputs: list[dict] = [{"base": i, "edits": []} for i in range(len(bases))]
    for _ in range(1540):
        edits = [
            [rnd.randrange(2001), rnd.choice(EDITS)[0], rnd.choice(PIECES)] for _ in range(rnd.randint(1, 2))
        ]
        inputs.append({"base": rnd.randrange(len(bases)), "edits": edits})
    for i in range(250):
        head = _HEADER if i % 2 else ""  # half of them tabular
        inputs.append({"text": head + "".join(rnd.choice(PIECES) for _ in range(rnd.randint(0, 40)))})
    for record in inputs:
        record.update(outcome(text_of(record, bases)))
    lines += inputs
    PATH.parent.mkdir(exist_ok=True)
    with PATH.open("w", encoding="utf-8") as f:
        for line in lines:
            f.write(json.dumps(line, ensure_ascii=False, separators=(",", ":")) + "\n")
    print(f"{PATH}: {len(inputs)} inputs, {PATH.stat().st_size} bytes", file=sys.stderr)


if __name__ == "__main__":
    main()
