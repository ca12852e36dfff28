"""Seeded generators for the project and wide-document workloads.

For ``project``, the seed picks the vocabulary: the field, class, kind and
example-character lists are permuted by it. Every other choice (sizes,
branches, properties, domains, sugar forms, which events share a class)
comes from one fixed stream, and each choice draws a position in a list, so
every seed gives the same shapes under other names and the same amount of
work. With the shapes drawn from the seed too, the median per-file time
and the program's peak memory differed by 10-15% from seed to seed.

For ``wide``, the seed drives every choice; the sizes are fixed.
"""

from __future__ import annotations

import random

from .model import AGG, BASIC, ITER, SPEC, Doc, F, Node, fields

_WORDS = (
    "Request date", "Unit price", "Quantity", "Status", "Notes", "Start time",
    "Reference code", "Weight", "Discount", "Due date", "Tax rate", "Surname",
    "Phone", "Email", "Street", "City", "Postcode", "Country", "Opening hour",
    "Capacity", "Serial number", "Batch", "Colour", "Size", "Grade", "Score",
    "Priority", "Channel", "Currency", "Balance", "Limit", "Deposit", "Fee",
    "Rating", "Sequence", "Version", "Category", "Region", "Shift", "Badge",
)
_ENUMS = ("enum:open|closed|held", "enum:low|mid|high", "enum:new|used", "enum:a|b|c|d")
_NUMERIC = ("number", "money")
_ENTITIES = (
    "Order", "Client", "Product", "Invoice", "Supplier", "Delivery",
    "Payment", "Warehouse", "Employee", "Contract", "Shipment", "Account",
)
_ITEMS = ("Line", "Destination", "Package", "Instalment", "Task", "Visit", "Item", "Stop")
_KIND_SUFFIXES = ("PRIORITY", "STANDARD", "EXPRESS", "BULK")
_EXAMPLE_CHARS = "ABCDEFGHJKLMNPQRSTUVWXYZ0123456789"
_PROJECT_SHAPES = 0  # the seed of the fixed stream behind every project's shapes


def _domain(rnd: random.Random) -> str:
    r = rnd.random()
    if r < 0.12:
        return rnd.choice(_ENUMS)
    if r < 0.45:
        return rnd.choice(_NUMERIC)
    return rnd.choice(BASIC)


def _props(rnd: random.Random, owner: str, name: str, domain: str | None, chars: str = _EXAMPLE_CHARS) -> dict:
    """A seeded mix of the annotation properties a field carries."""
    p: dict = {}
    r = rnd.random()
    if r < 0.75:
        p["op"] = "i"
    elif r < 0.9:
        p["op"] = "g"
    if domain is not None and rnd.random() < 0.88:
        p["domain"] = domain
    if rnd.random() < 0.7:
        p["example"] = "".join(rnd.choice(chars) for _ in range(rnd.randint(3, 9)))
    if rnd.random() < 0.2:
        p["desc"] = f"the {name.lower()} of the {owner.lower()}"
    if rnd.random() < 0.1:
        p["label"] = name.upper()
    if rnd.random() < 0.1:
        p["link"] = f"{owner}.{name.lower()}"
    if rnd.random() < 0.15:
        p["required"] = rnd.choice(("true", "false"))
    if domain == "date" and rnd.random() < 0.3:
        p["init"] = "today()"
    if rnd.random() < 0.1:
        p["visible"] = rnd.choice(("true", "false"))
    return p


def _derived(rnd: random.Random, name: str, scope: list[F]) -> F | None:
    """A derived field whose formula multiplies or adds two numeric fields."""
    numeric = [f for f in scope if f.props.get("domain") in _NUMERIC]
    if len(numeric) < 2:
        return None
    a, b = rnd.sample(numeric, 2)
    return F(name, {"op": "d", "domain": "money", "formula": f":{a.name} {rnd.choice('*+')} :{b.name}"})


# ---------------------------------------------------------------------------
# project_batch: many paper-sized events whose classes overlap
# ---------------------------------------------------------------------------


class _Vocab:
    """The name lists of one project, in the order its seed gives them."""

    def __init__(self, seed: int):
        rnd = random.Random(seed)
        self.words = rnd.sample(_WORDS, len(_WORDS))
        self.entities = rnd.sample(_ENTITIES, len(_ENTITIES))
        self.items = rnd.sample(_ITEMS, len(_ITEMS))
        self.suffixes = rnd.sample(_KIND_SUFFIXES, len(_KIND_SUFFIXES))
        self.chars = "".join(rnd.sample(_EXAMPLE_CHARS, len(_EXAMPLE_CHARS)))


class _Catalog:
    """Per-class attribute names with one domain each, fixed for a project,
    so that the same attribute never meets a conflicting domain (D003)."""

    def __init__(self, rnd: random.Random, vocab: _Vocab, size: int):
        self.rnd = rnd
        self.vocab = vocab
        self.size = size
        self.attrs: dict[str, list[tuple[str, str]]] = {}

    def of(self, cls: str) -> list[tuple[str, str]]:
        if cls not in self.attrs:
            names = self.rnd.sample(self.vocab.words, self.size)
            self.attrs[cls] = [(n, _domain(self.rnd)) for n in names]
        return self.attrs[cls]


def project(seed: int, events: int = 60) -> list[tuple[str, int, Doc]]:
    """``events`` structures as (event id, order, record); every fourth is in
    tabular layout. Orders tie in pairs, so the manifest's id tie-break is
    exercised."""
    vocab = _Vocab(seed)
    rnd = random.Random(_PROJECT_SHAPES)
    catalog = _Catalog(rnd, vocab, 16)
    kinds = {e: rnd.sample(vocab.suffixes, 2) for e in vocab.entities}
    out = []
    for i in range(events):
        entity = rnd.choice(vocab.entities)
        doc = _event(rnd, catalog, entity, kinds[entity])
        doc.layout = "tabular" if i % 4 == 3 else "compact"
        out.append((f"EV{i:03d}", i // 2 + 1, doc))
    return out


def _data_fields(rnd: random.Random, catalog: _Catalog, cls: str, pool: list, n: int) -> list[F]:
    out = []
    for _ in range(min(n, len(pool))):
        name, domain = pool.pop()
        out.append(F(name, _props(rnd, cls, name, domain, catalog.vocab.chars)))
    return out


def _event(rnd: random.Random, catalog: _Catalog, entity: str, kinds: list[str]) -> Doc:
    pool = list(catalog.of(entity))
    rnd.shuffle(pool)
    root: list = _data_fields(rnd, catalog, entity, pool, rnd.randint(6, 9))
    others = [e for e in catalog.vocab.entities if e != entity]
    for target in rnd.sample(others, rnd.randint(1, 2)):
        root.insert(rnd.randrange(len(root) + 1), F(target, {"op": "i", "domain": f"ref:{target}"}))
    items = rnd.sample(catalog.vocab.items, 3)
    root.append(_iteration(rnd, catalog, items[0], items[2] if rnd.random() < 0.6 else None, others))
    if rnd.random() < 0.5:
        root.append(_iteration(rnd, catalog, items[1], None, others))
    if rnd.random() < 0.5:
        variants = [
            [Node(AGG, f"{suffix} {entity.upper()}", _data_fields(
                rnd, catalog, f"{suffix} {entity}", list(catalog.of(f"{suffix} {entity}")), rnd.randint(2, 3)))]
            for suffix in kinds
        ]
        if rnd.random() < 0.5:
            literals = "|".join(s.lower() for s in kinds)
            root.append(F("Service kind", {"op": "i", "domain": f"enum:{literals}"}))
        root.append(Node(SPEC, rnd.choice((None, f"{entity.upper()} KIND")), variants))
    if rnd.random() < 0.5:
        optional = _data_fields(rnd, catalog, entity, pool, 2)
        body = [Node(AGG, "EXTRAS", optional)] if rnd.random() < 0.5 else optional
        root.append(Node(SPEC, None, [body]))
    derived = _derived(rnd, "Total amount", fields(Node(AGG, None, root)))
    if derived is not None:
        root.append(derived)
    return Doc(entity.upper(), Node(AGG, None, root))


def _iteration(rnd, catalog, item: str, nested: str | None, targets: list[str]) -> Node:
    pool = list(catalog.of(item))
    rnd.shuffle(pool)
    body: list = _data_fields(rnd, catalog, item, pool, rnd.randint(3, 6))
    if rnd.random() < 0.5:
        target = rnd.choice(targets)
        body.insert(rnd.randrange(len(body) + 1), F(target, {"op": "i", "domain": f"ref:{target}"}))
    if nested is not None:
        body.append(_iteration(rnd, catalog, nested, None, targets))
    return _iteration_form(rnd, item, body)


def _iteration_form(rnd: random.Random, item: str, body: list) -> Node:
    """One of the three sugar forms that all name the item class ``item``."""
    upper = item.upper()
    form = rnd.randrange(3)
    if form == 0:
        return Node(ITER, f"{upper}S", [Node(AGG, upper, body)])
    if form == 1:
        return Node(ITER, None, [Node(AGG, upper, body)])
    return Node(ITER, upper, body)


# ---------------------------------------------------------------------------
# wide_document: a few large documents
# ---------------------------------------------------------------------------


class _Names:
    """Field names unique within one document."""

    def __init__(self, rnd: random.Random):
        self.rnd = rnd
        self.n = 0

    def __call__(self) -> str:
        self.n += 1
        return f"{self.rnd.choice(_WORDS)} {self.n}"


def _flat(rnd: random.Random, names: _Names, owner: str, n: int) -> list[F]:
    out = []
    for _ in range(n):
        name = names()
        out.append(F(name, _props(rnd, owner, name, _domain(rnd))))
    return out


def wide(seed: int) -> list[Doc]:
    """Three documents: a wide compact ledger, a wide ledger in tabular
    layout, and a deep one (depth 60, well inside every recursion limit)."""
    rnd = random.Random(seed)
    return [
        _wide_doc(rnd, "WIDE LEDGER", 2400, "compact"),
        _wide_doc(rnd, "TABLE LEDGER", 1600, "tabular"),
        _deep_doc(rnd, "DEEP FORM", 60, 12),
    ]


def ledger(seed: int, width: int) -> Doc:
    """One flat aggregation of ``width`` annotated fields."""
    rnd = random.Random(seed)
    return Doc("LEDGER", Node(AGG, None, _flat(rnd, _Names(rnd), "Ledger", width)))


def _wide_doc(rnd: random.Random, name: str, width: int, layout: str) -> Doc:
    names = _Names(rnd)
    owner = name.title().replace(" ", "")
    root: list = _flat(rnd, names, owner, width)
    for k in range(4):
        root.append(Node(ITER, f"GROUP {k}", [Node(AGG, f"ENTRY {k}", _flat(rnd, names, f"Entry{k}", width // 16))]))
    root.append(Node(SPEC, "KIND", [
        [Node(AGG, f"VARIANT {v}", _flat(rnd, names, f"Variant{v}", width // 24))] for v in "AB"
    ]))
    root.append(Node(SPEC, None, [_flat(rnd, names, owner, width // 48)]))
    derived = _derived(rnd, "Grand total", root[:width])
    if derived is not None:
        root.append(derived)
    return Doc(name, Node(AGG, None, root), layout)


def _deep_doc(rnd: random.Random, name: str, levels: int, per_level: int) -> Doc:
    """Nested levels; every third is an iteration, the rest anonymous
    aggregations that fold into the enclosing class."""
    names = _Names(rnd)
    inner: list = _flat(rnd, names, "Level", per_level)
    for level in range(levels - 1, 0, -1):
        body = _flat(rnd, names, "Level", per_level) + [
            Node(ITER, f"LEVEL {level}", inner) if level % 3 == 0 else Node(AGG, None, inner)
        ]
        inner = body
    return Doc(name, Node(AGG, None, inner), "compact")
