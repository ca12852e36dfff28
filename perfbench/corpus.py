"""The paper's worked examples (España et al., *Message structures*): the
texts as written in the paper, the record of each, and the class-diagram
view the paper derives from ORDER."""

from __future__ import annotations

from .model import AGG, ITER, SPEC, Doc, F, Node

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

SUGAR_FORMS = (
    "A=<a+b+C={D=<e+f+g>}>",
    "A=<a+b+{D=<e+f+g>}>",
    "A=<a+b+C={e+f+g}>",
    "A=<a+b+{e+f+g}>",
)

VEHICLE_AMBIGUOUS = "Vehicle=NumberPlate+Brand+Model+Motor=CubicCapacity+Valves+Fuel+Colour"
VEHICLE_NESTED = "Vehicle=<NumberPlate+Brand+Model+Motor=<CubicCapacity+Valves+Fuel>+Colour>"

SUPPLIER_RESPONSE_TEXT = """\
ORDER =
< Supplier (op=i; domain=ref:Supplier; example="OFFIRAP, Office Rapid Ltd.") +
  Planned delivery date (op=i; domain=date; example="05-09-2009") >
"""


def _f(name: str, op: str | None = None, domain: str | None = None, example: str | None = None) -> F:
    props = {k: v for k, v in (("op", op), ("domain", domain), ("example", example)) if v is not None}
    return F(name, props)


def _order(*line_extra: F) -> Doc:
    return Doc("ORDER", Node(AGG, None, [
        _f("Order number", "g", "number", "10352"),
        _f("Request date", "i", "date", "31-08-2009"),
        _f("Payment type", "i", "text", "Cash"),
        _f("Client", "i", "ref:Client", "56746163-R, John Papiro Jr."),
        Node(ITER, "DESTINATIONS", [Node(AGG, "DESTINATION", [
            _f("Address", "i", "ref:Client address", "Blvd. Blue mountain, 35-14A, 2363 Toontown"),
            _f("Person in charge", "i", "text", "Brayden Hitchcock"),
            Node(ITER, "LINES", [Node(AGG, "LINE", [
                _f("Product", "i", "ref:Product", "ST39455, Rounded scissors (cebra) box-100"),
                _f("Price", "i", "money", "25,40 €"),
                _f("Quantity", "i", "number", "35"),
                *line_extra,
            ])]),
        ])]),
    ]))


ORDER = _order()

ASSIGNMENT = Doc(
    "ASSIGNMENT",
    Node(AGG, None, [
        _f("Type of assignment", "i", "enum:theo|prac"),
        Node(SPEC, "TYPE", [
            [Node(AGG, "THEORY", [_f("Subject", "i", "ref:Subject"), _f("Title", "i", "text")])],
            [Node(AGG, "PRACTICE", [
                _f("Programming language", "i", "ref:Language"),
                _f("Functionality", "i", "text"),
            ])],
        ]),
    ]),
)

VEHICLE = Doc(
    "Vehicle",
    Node(AGG, None, [
        _f("NumberPlate"), _f("Brand"), _f("Model"),
        Node(AGG, "Motor", [_f("CubicCapacity"), _f("Valves"), _f("Fuel")]),
        _f("Colour"),
    ]),
)

SUPPLIER_RESPONSE = Doc(
    "ORDER",
    Node(AGG, None, [
        _f("Supplier", "i", "ref:Supplier", "OFFIRAP, Office Rapid Ltd."),
        _f("Planned delivery date", "i", "date", "05-09-2009"),
    ]),
)

# ORDER with a derived field added, which the analysis phase discourages.
ORDER_DERIVED_TEXT = ORDER_TEXT.replace(
    'Quantity (op=i; domain=number; example="35")',
    'Quantity (op=i; domain=number; example="35") + Amount (op=d)',
)
ORDER_DERIVED = _order(F("Amount", {"op": "d"}))

# The first sugar form; the other three differ only in names and in which
# aggregations are left implicit.
SUGAR = Doc("A", Node(AGG, None, [
    _f("a"), _f("b"), Node(ITER, "C", [Node(AGG, "D", [_f("e"), _f("f"), _f("g")])]),
]))

# The view the paper derives from ORDER (the same diagram the unit tests pin).
EXPECTED_ORDER_VIEW = {
    "classes": [
        {"name": "Order", "kind": "defined", "attributes": [
            {"name": "Order number", "domain": "number", "acquisition": "g"},
            {"name": "Request date", "domain": "date", "acquisition": "i"},
            {"name": "Payment type", "domain": "text", "acquisition": "i"},
        ]},
        {"name": "Client", "kind": "referenced", "attributes": []},
        {"name": "Destination", "kind": "defined", "attributes": [
            {"name": "Person in charge", "domain": "text", "acquisition": "i"},
        ]},
        {"name": "ClientAddress", "kind": "referenced", "attributes": []},
        {"name": "Line", "kind": "defined", "attributes": [
            {"name": "Price", "domain": "money", "acquisition": "i"},
            {"name": "Quantity", "domain": "number", "acquisition": "i"},
        ]},
        {"name": "Product", "kind": "referenced", "attributes": []},
    ],
    "associations": [
        {"from": "Order", "to": "Client", "kind": "reference", "multiplicity": "one"},
        {"from": "Order", "to": "Destination", "kind": "composition", "multiplicity": "many"},
        {"from": "Destination", "to": "ClientAddress", "kind": "reference", "multiplicity": "one"},
        {"from": "Destination", "to": "Line", "kind": "composition", "multiplicity": "many"},
        {"from": "Line", "to": "Product", "kind": "reference", "multiplicity": "one"},
    ],
}
EXPECTED_ORDER_FRAGMENTS = ("ORDER", "ORDER/DESTINATIONS", "ORDER/DESTINATIONS/LINES")
