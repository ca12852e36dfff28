"""Shared corpus fixtures: the client-order structure, the assignment
fragment with a specialisation, the four equivalent sugar forms, and the
vehicle disambiguation examples."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import msgstruct
from msgstruct import parse

# The directory that holds the msgstruct package this test process imported.
PACKAGE_ROOT = str(Path(msgstruct.__file__).resolve().parent.parent)

ORDER_TEXT = """\
# A client places an order (analysis time).
ORDER =
< Order number (op=g; domain=number; example="10352") +
  Request date (op=i; domain=date; example="31-08-2009") +
  Payment type (op=i; domain=text; example="Cash") +
  Client (op=i; domain=ref:Client; example="56746163-R, John Papiro Jr.") +
  DESTINATIONS =
  { DESTINATION =
    < Address (op=i; domain=ref:Client address; example="Blvd. Blue mountain, 35-14A, 2363 Toontown") +
      Person in charge (op=i; domain=text; example="Brayden Hitchcock") +
      LINES =
      { LINE =
        < Product (op=i; domain=ref:Product; example="ST39455, Rounded scissors (cebra) box-100") +
          Price (op=i; domain=money; example="25,40 €") +
          Quantity (op=i; domain=number; example="35") >
      }
    >
  }
>
"""

# The same order structure in the vertical column layout.
ORDER_TABLE = (
    "FIELD\tOP\tDOMAIN\tEXAMPLE VALUE\n"
    "ORDER =\n"
    "< Order number +\tg\tnumber\t10352\n"
    "Request date +\ti\tdate\t31-08-2009\n"
    "Payment type +\ti\ttext\tCash\n"
    "Client +\ti\tClient\t56746163-R, John Papiro Jr.\n"
    "DESTINATIONS =\n"
    "{ DESTINATION =\n"
    "< Address +\ti\tClient address\tBlvd. Blue mountain, 35-14A, 2363 Toontown\n"
    "Person in charge +\ti\ttext\tBrayden Hitchcock\n"
    "LINES =\n"
    "{ LINE =\n"
    "< Product +\ti\tProduct\tST39455, Rounded scissors (cebra) box-100\n"
    "Price +\ti\tmoney\t25,40 €\n"
    "Quantity >\ti\tnumber\t35\n"
    "}\n"
    ">\n"
    "}\n"
    ">\n"
)

# A student hands in an assignment: either theory or practice work.
ASSIGNMENT_TEXT = """\
ASSIGNMENT =
< Type of assignment (op=i; domain=enum:theo|prac) +
  TYPE =
  [ THEORY =
    < Subject (op=i; domain=ref:Subject) +
      Title (op=i; domain=text) >
  | PRACTICE =
    < Programming language (op=i; domain=ref:Language) +
      Functionality (op=i; domain=text) >
  ]
>
"""

# Four ways of writing the same structure.
SUGAR_FORMS = (
    "A=<a+b+C={D=<e+f+g>}>",
    "A=<a+b+{D=<e+f+g>}>",
    "A=<a+b+C={e+f+g}>",
    "A=<a+b+{e+f+g}>",
)

# An unparenthesised nested aggregation is ambiguous and rejected...
VEHICLE_AMBIGUOUS = "Vehicle=NumberPlate+Brand+Model+Motor=CubicCapacity+Valves+Fuel+Colour"
# ...while the parenthesised form keeps the message in one piece.
VEHICLE_NESTED = "Vehicle=<NumberPlate+Brand+Model+Motor=<CubicCapacity+Valves+Fuel>+Colour>"

# The supplier's response fills the order fields left untouched by the
# request event.
SUPPLIER_RESPONSE_TEXT = """\
ORDER =
< Supplier (op=i; domain=ref:Supplier; example="OFFIRAP, Office Rapid Ltd.") +
  Planned delivery date (op=i; domain=date; example="05-09-2009") >
"""


@pytest.fixture(scope="session")
def order():
    return parse(ORDER_TEXT)


@pytest.fixture(scope="session")
def assignment():
    return parse(ASSIGNMENT_TEXT)


@pytest.fixture(scope="session")
def supplier_response():
    return parse(SUPPLIER_RESPONSE_TEXT)


@pytest.fixture()
def corpus_dir(tmp_path: Path) -> Path:
    """Corpus written out as .ms files plus a two-event manifest."""
    (tmp_path / "order.ms").write_text(ORDER_TEXT, encoding="utf-8")
    (tmp_path / "assignment.ms").write_text(ASSIGNMENT_TEXT, encoding="utf-8")
    (tmp_path / "vehicle_a.ms").write_text(VEHICLE_AMBIGUOUS + "\n", encoding="utf-8")
    (tmp_path / "vehicle_c.ms").write_text(VEHICLE_NESTED + "\n", encoding="utf-8")
    (tmp_path / "response.ms").write_text(SUPPLIER_RESPONSE_TEXT, encoding="utf-8")
    (tmp_path / "flat.ms").write_text("A=<a+b>\n", encoding="utf-8")
    for i, form in enumerate(SUGAR_FORMS, start=1):
        (tmp_path / f"form{i}.ms").write_text(form + "\n", encoding="utf-8")
    (tmp_path / "events.json").write_text(
        '[{"id": "EV2", "name": "supplier responds", "order": 2, "file": "response.ms"},\n'
        ' {"id": "EV1", "name": "a client places an order", "order": 1, "file": "order.ms"}]\n',
        encoding="utf-8",
    )
    return tmp_path


def cli_env(**extra: str) -> dict[str, str]:
    """Environment for a ``python -m msgstruct`` child process.

    Every child runs in dev mode with warnings as errors, as ``python -X dev
    -W error`` does, so a warning that a command raises fails its test.
    The child runs in another working directory, where a relative
    ``PYTHONPATH`` entry such as ``src`` no longer resolves, so the absolute
    directory of the package under test goes first; inherited entries follow.
    ``extra`` may replace any of these variables.
    """
    inherited = os.environ.get("PYTHONPATH")
    path = PACKAGE_ROOT + (os.pathsep + inherited if inherited else "")
    return {**os.environ, "PYTHONPATH": path, "PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error", **extra}


@pytest.fixture()
def run_cli():
    """Run ``python -m msgstruct *args`` in ``cwd`` with ``cli_env(**env)``;
    its output is text, or bytes when ``text`` is false. A child whose
    stderr holds a traceback or a warning fails the test."""

    def run(*args: str, cwd: Path | None = None, text: bool = True, **env: str) -> subprocess.CompletedProcess:
        result = subprocess.run(
            [sys.executable, "-m", "msgstruct", *args],
            capture_output=True,
            text=text,
            cwd=cwd,
            env=cli_env(**env),
            timeout=60,
        )
        err = result.stderr if text else result.stderr.decode("utf-8", "replace")
        assert "Traceback" not in err and "Warning" not in err, err
        return result

    return run
