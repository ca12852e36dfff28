"""The generator's record of a message structure, its two text renderings,
and the oracle that predicts every output the benchmark checks.

Nothing here imports ``msgstruct``: the expected results follow from the
record and from the rules of the paper restated below (canonical form,
mapping rules R1-R6, first-normal-form fragments, the applicability
matrix), never from the program's own tables.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

AGG, ITER, SPEC = "aggregation", "iteration", "specialisation"
_OPEN = {AGG: "<", ITER: "{", SPEC: "["}
_CLOSE = {AGG: ">", ITER: "}", SPEC: "]"}
BASIC = ("text", "number", "money", "date", "time")


@dataclass
class F:
    """A field; ``props`` uses the annotation vocabulary (op, domain,
    example, desc, label, link, required, init, visible, formula)."""

    name: str
    props: dict


@dataclass
class Node:
    """A complex substructure. For a specialisation ``children`` is the list
    of variants, each a list of parts."""

    kind: str
    name: str | None
    children: list


@dataclass
class Doc:
    name: str
    root: Node
    layout: str = "compact"


def fields(part) -> list[F]:
    """Fields in reading order."""
    if isinstance(part, F):
        return [part]
    members = [c for v in part.children for c in v] if part.kind == SPEC else part.children
    return [f for c in members for f in fields(c)]


# ---------------------------------------------------------------------------
# Text renderings
# ---------------------------------------------------------------------------

_BARE_KEYS = ("op", "domain", "required", "visible")


def _esc(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _annotation(props: dict) -> str:
    return "; ".join(
        f"{k}={v}" if k in _BARE_KEYS else f'{k}="{_esc(v)}"' for k, v in props.items()
    )


def render(doc: Doc) -> str:
    return render_tabular(doc) if doc.layout == "tabular" else render_compact(doc)


def render_compact(doc: Doc) -> str:
    out = [f"{doc.name} ="]
    _compact(doc.root, out)
    return "\n".join(out) + "\n"


def _compact(part, out: list[str], sep: str = "") -> None:
    if isinstance(part, F):
        out.append(part.name + (f" ({_annotation(part.props)})" if part.props else "") + sep)
        return
    out.append((f"{part.name} = " if part.name else "") + _OPEN[part.kind])
    lists = part.children if part.kind == SPEC else [part.children]
    for i, items in enumerate(lists):
        if i:
            out.append("|")
        for j, child in enumerate(items):
            _compact(child, out, " +" if j < len(items) - 1 else "")
    out.append(_CLOSE[part.kind] + sep)


def _domain_cell(domain: str) -> str:
    if domain.startswith("ref:"):
        return domain[4:]
    if domain.startswith("enum:"):
        return "[" + domain[5:] + "]"
    return domain


def render_tabular(doc: Doc) -> str:
    """The vertical layout: a header row, one row per field with OP, DOMAIN
    and EXAMPLE VALUE cells and any other property in a fifth cell;
    brackets and names on rows of their own."""
    out = ["FIELD\tOP\tDOMAIN\tEXAMPLE VALUE", f"{doc.name} ="]
    _tabular(doc.root, out)
    return "\n".join(out) + "\n"


def _tabular(part, out: list[str], sep: str = "") -> None:
    if isinstance(part, F):
        p = part.props
        extras = {k: v for k, v in p.items() if k not in ("op", "domain", "example")}
        cells = [
            part.name + sep,
            p.get("op", ""),
            _domain_cell(p["domain"]) if "domain" in p else "",
            _esc(p.get("example", "")),
            f"({_annotation(extras)})" if extras else "",
        ]
        while cells[-1] == "":
            cells.pop()
        out.append("\t".join(cells))
        return
    if part.name:
        out.append(f"{part.name} =")
    out.append(_OPEN[part.kind])
    lists = part.children if part.kind == SPEC else [part.children]
    for i, items in enumerate(lists):
        last_sep = " |" if i < len(lists) - 1 else ""
        for j, child in enumerate(items):
            _tabular(child, out, " +" if j < len(items) - 1 else last_sep)
    out.append(_CLOSE[part.kind] + sep)


# ---------------------------------------------------------------------------
# Parsed tree (the JSON view of `msgstruct parse --json`)
# ---------------------------------------------------------------------------


def tree_json(doc: Doc) -> dict:
    return {"name": doc.name, "root": _tree_json(doc.root)}


def _tree_json(part) -> dict:
    if isinstance(part, F):
        return {"kind": "field", "name": part.name, "properties": dict(part.props)}
    if part.kind == SPEC:
        return {
            "kind": SPEC,
            "name": part.name,
            "variants": [[_tree_json(c) for c in v] for v in part.children],
        }
    return {"kind": part.kind, "name": part.name, "children": [_tree_json(c) for c in part.children]}


# ---------------------------------------------------------------------------
# Canonical form: the aggregation implicit in every iteration body and every
# specialisation variant made explicit. Names kept here; the shape used for
# equivalence erases them.
# ---------------------------------------------------------------------------


def _wrap(items: list) -> Node:
    if len(items) == 1 and isinstance(items[0], Node) and items[0].kind == AGG:
        return items[0]
    return Node(AGG, None, items)


def canonical(part):
    if isinstance(part, F):
        return part
    if part.kind == AGG:
        return Node(AGG, part.name, [canonical(c) for c in part.children])
    if part.kind == ITER:
        return Node(ITER, part.name, [_wrap([canonical(c) for c in part.children])])
    return Node(SPEC, part.name, [[_wrap([canonical(c) for c in v])] for v in part.children])


def shape(part) -> tuple:
    """Name-free, property-free shape: what equivalence compares."""
    if isinstance(part, F):
        return ("f", part.name)
    if part.kind == SPEC:
        return ("[", tuple(tuple(shape(c) for c in v) for v in part.children))
    return (_OPEN[part.kind], tuple(shape(c) for c in part.children))


# ---------------------------------------------------------------------------
# First-normal-form fragments: one per iteration plus the root
# ---------------------------------------------------------------------------


def fragments_json(doc: Doc) -> dict:
    frags: list[dict] = []

    def new(id_: str, depth_: int, parent: str | None) -> dict:
        frag = {"id": id_, "depth": depth_, "parent": parent, "fields": [], "disc": [], "used": set()}
        frags.append(frag)
        return frag

    def collect(frag: dict, items: list) -> None:
        for child in items:
            if isinstance(child, F):
                frag["fields"].append({"name": child.name, **child.props})
            elif child.kind == AGG:
                collect(frag, child.children)
            elif child.kind == ITER:
                inner = child.children[0]
                base = child.name or inner.name or f"it{len(frag['used']) + 1}"
                label, k = base, 2
                while label in frag["used"]:
                    label, k = f"{base}-{k}", k + 1
                frag["used"].add(label)
                collect(new(f"{frag['id']}/{label}", frag["depth"] + 1, frag["id"]), inner.children)
            else:
                note = "|".join(v[0].name or "?" for v in child.children)
                frag["disc"].append(f"{child.name}:{note}" if child.name else note)
                for v in child.children:
                    collect(frag, v[0].children)

    root = canonical(doc.root)
    collect(new(doc.name, 0, None), [root] if root.kind == ITER else root.children)
    out = []
    for f in frags:
        obj = {"id": f["id"], "depth": f["depth"]}
        if f["parent"] is not None:
            obj["parentKey"] = f["parent"]
        if f["disc"]:
            obj["discriminators"] = f["disc"]
        obj["fields"] = f["fields"]
        out.append(obj)
    abstract = [
        {"fragmentId": f["id"], "kind": "registry" if f["depth"] == 0 else "set-of-registries"}
        for f in out
    ]
    return {"fragments": out, "abstract": abstract}


# ---------------------------------------------------------------------------
# Class diagrams: mapping rules R1-R6 and the fold over events
# ---------------------------------------------------------------------------


class OracleError(Exception):
    """The record breaks a precondition the generator promised to keep."""


def class_name(raw: str) -> str:
    """UpperCamelCase words; all-caps words title-cased."""
    return "".join(
        w.capitalize() if w.isupper() else w[0].upper() + w[1:]
        for w in raw.replace("-", " ").split()
    )


class Diagram:
    def __init__(self) -> None:
        self.order: list[str] = []
        self.kinds: dict[str, str] = {}
        self.parents: dict[str, str] = {}
        self.attrs: dict[str, list[dict]] = {}
        self.assocs: dict[tuple, str | None] = {}
        self.attr_names: dict[str, set] = {}

    def add_class(self, name: str, kind: str, parent: str | None = None) -> str:
        if name not in self.kinds:
            self.order.append(name)
            self.kinds[name], self.attrs[name] = kind, []
            if parent is not None:
                self.parents[name] = parent
        elif kind != "referenced" and self.kinds[name] == "referenced":
            self.kinds[name] = kind
            if parent is not None:
                self.parents[name] = parent
        return name

    def to_json(self) -> dict:
        classes = []
        for name in self.order:
            obj = {"name": name, "kind": self.kinds[name]}
            if name in self.parents:
                obj["parent"] = self.parents[name]
            obj["attributes"] = [dict(a) for a in self.attrs[name]]
            classes.append(obj)
        assocs = []
        for (src, tgt, kind), mult in self.assocs.items():
            obj = {"from": src, "to": tgt, "kind": kind}
            if mult is not None:
                obj["multiplicity"] = mult
            assocs.append(obj)
        return {"classes": classes, "associations": assocs}

    def attribute_count(self) -> int:
        return sum(len(a) for a in self.attrs.values())


def derive(doc: Doc) -> Diagram:
    """One event's view (R1-R6), on the canonical tree with names kept."""
    d = Diagram()
    root = canonical(doc.root)
    cls = d.add_class(class_name(doc.name), "defined")  # R1
    _derive_into(d, cls, [root] if root.kind == ITER else root.children, False)
    return d


def _derive_into(d: Diagram, cls: str, members: list, optional: bool) -> None:
    for child in members:
        if isinstance(child, F):
            domain = child.props.get("domain")
            if domain is not None and domain.startswith("ref:"):  # R3
                target = d.add_class(class_name(domain[4:]), "referenced")
                d.assocs.setdefault((cls, target, "reference"), "one")
                continue
            if child.name in d.attr_names.setdefault(cls, set()):
                raise OracleError(f"duplicate attribute {child.name!r} in {cls}")
            d.attr_names[cls].add(child.name)
            attr = {"name": child.name, "domain": domain, "acquisition": child.props.get("op")}
            if "formula" in child.props:
                attr["formula"] = child.props["formula"]
            if optional:
                attr["optional"] = True
            d.attrs[cls].append(attr)  # R2, R5
        elif child.kind == AGG:
            _derive_into(d, cls, child.children, optional)
        elif child.kind == ITER:  # R4
            inner = child.children[0]
            item = d.add_class(class_name(inner.name or child.name or f"{cls}_item"), "defined")
            d.assocs.setdefault((cls, item, "composition"), "many")
            _derive_into(d, item, inner.children, False)
        elif len(child.children) == 1:  # R6, optional content
            _derive_into(d, cls, child.children[0][0].children, True)
        else:  # R6, generalisation set
            for variant in child.children:
                node = variant[0]
                if node.name is None:
                    raise OracleError(f"anonymous variant under {cls}")
                sub = d.add_class(class_name(node.name), "subclass", cls)
                d.assocs.setdefault((cls, sub, "generalisation"), None)
                _derive_into(d, sub, node.children, optional)


def integrate(views: list[Diagram]) -> Diagram:
    """Fold views in event order: classes merge by name, attributes union in
    first-seen order (a later domain fills an absent one), associations
    union with the multiplicity widened to many on disagreement."""
    out = Diagram()
    for view in views:
        for name in view.order:
            kind, parent = view.kinds[name], view.parents.get(name)
            if name not in out.kinds:
                out.add_class(name, kind, parent)
                out.attrs[name] = [dict(a) for a in view.attrs[name]]
                continue
            if kind != "referenced":
                if out.kinds[name] == "referenced":
                    out.kinds[name] = kind
                    if parent is not None:
                        out.parents[name] = parent
                elif kind == "subclass":
                    prior = out.parents.get(name)
                    if prior is not None and parent is not None and prior != parent:
                        raise OracleError(f"{name} has two parents")
                    out.kinds[name] = "subclass"
                    if parent is not None:
                        out.parents[name] = parent
            merged = {a["name"]: a for a in out.attrs[name]}
            for attr in view.attrs[name]:
                seen = merged.get(attr["name"])
                if seen is None:
                    out.attrs[name].append(dict(attr))
                    merged[attr["name"]] = out.attrs[name][-1]
                elif seen["domain"] is not None and attr["domain"] is not None:
                    if seen["domain"] != attr["domain"]:
                        raise OracleError(f"conflicting domains for {name}.{attr['name']}")
                elif seen["domain"] is None and attr["domain"] is not None:
                    seen["domain"] = attr["domain"]
                    seen["acquisition"] = seen["acquisition"] or attr["acquisition"]
                    if "formula" not in seen and "formula" in attr:
                        seen["formula"] = attr["formula"]
        for key, mult in view.assocs.items():
            if key not in out.assocs:
                out.assocs[key] = mult
            elif out.assocs[key] != mult:
                out.assocs[key] = "many"
    return out


def plantuml_edges(diagram: dict) -> list[str]:
    """The association lines a PlantUML export must contain."""
    edge = {"composition": "*--", "reference": "-->", "generalisation": "<|--"}
    out = []
    for a in diagram["associations"]:
        if a["kind"] == "generalisation":
            out.append(f"{a['from']} <|-- {a['to']}")
        else:
            mult = "*" if a.get("multiplicity") == "many" else "1"
            out.append(f'{a["from"]} "1" {edge[a["kind"]]} "{mult}" {a["to"]}')
    return out


# ---------------------------------------------------------------------------
# Phase checks: the applicability matrix of the paper, restated
# ---------------------------------------------------------------------------

PHASES = ("analysis", "design-memory", "design-interface")
_KINDS = (
    ("name", None, "L-NAME"),
    ("op-i", None, "L-OPI"),
    ("op-g", None, "L-OPG"),
    ("op-d", None, "L-OPD"),
    ("domain", "domain", "L-DOM"),
    ("example", "example", "L-EX"),
    ("description", "desc", "L-DESC"),
    ("label", "label", "L-LABEL"),
    ("link", "link", "L-LINK"),
    ("compulsoriness", "required", "L-REQ"),
    ("initialisation", "init", "L-INIT"),
    ("visibility", "visible", "L-VIS"),
)
MATRIX = {
    "analysis": "++ ++ ++ -- ++ ++ ++ -- -- -- -- --".split(),
    "design-memory": "++ ++ ++ ++ ++ ++ ++ - ++ + - -".split(),
    "design-interface": "++ ++ ++ ++ ++ ++ ++ ++ ++ ++ ++ +".split(),
}
_SEVERITY = {"--": "error", "-": "warning"}
_G1_WORDS = {"amount", "total", "sum"}
_FIELD_IN_MESSAGE = re.compile(r"field '([^']*)'")
_FORMULA_REF = re.compile(r":([A-Za-z](?:[A-Za-z0-9-]| (?=[A-Za-z0-9]))*)")


def expected_diagnostics(doc: Doc, phase: str) -> Counter:
    """(code, severity, field) of every finding `check` reports with the
    default configuration."""
    out: Counter = Counter()
    everything = fields(doc.root)
    known = {f.name for f in everything}
    for f in everything:
        for i, (kind, key, code) in enumerate(_KINDS):
            present = (
                kind == "name"
                or (kind.startswith("op-") and f.props.get("op") == kind[3:])
                or (key is not None and key in f.props)
            )
            severity = _SEVERITY.get(MATRIX[phase][i])
            if present and severity:
                out[(code, severity, f.name)] += 1
        if phase == "analysis" and {w.lower() for w in f.name.replace("-", " ").split()} & _G1_WORDS:
            out[("G1", "info", f.name)] += 1
        for key in ("formula", "init"):
            for ref in _FORMULA_REF.findall(f.props.get(key, "")):
                if ref not in known:
                    out[("G2", "error", f.name)] += 1
    _g3(doc.root, out)
    return out


def _g3(part, out: Counter) -> None:
    """An enumerated field beside a specialisation whose variant names repeat
    its literals states the same domain twice."""
    if isinstance(part, F):
        return
    lists = part.children if part.kind == SPEC else [part.children]
    for siblings in lists:
        enums = [
            c for c in siblings
            if isinstance(c, F) and c.props.get("domain", "").startswith("enum:")
        ]
        for spec in (c for c in siblings if isinstance(c, Node) and c.kind == SPEC):
            names = [
                v[0].name if len(v) == 1 and isinstance(v[0], Node) else None
                for v in spec.children
            ]
            if None in names or len(names) < 2:
                continue
            for f in enums:
                literals = f.props["domain"][5:].split("|")
                if len(literals) == len(names) and _literals_match(literals, names):
                    out[("G3", "warning", f.name)] += 1
        for child in siblings:
            _g3(child, out)


def _literals_match(literals: list[str], names: list[str]) -> bool:
    remaining = [n.lower() for n in names]
    for lit in (x.lower() for x in literals):
        hit = next((n for n in remaining if n.startswith(lit) or lit.startswith(n)), None)
        if hit is None:
            return False
        remaining.remove(hit)
    return True


def found_diagnostics(diagnostics: list[dict]) -> Counter:
    """The same projection of the program's `--json` diagnostics."""
    out: Counter = Counter()
    for d in diagnostics:
        m = _FIELD_IN_MESSAGE.search(d["message"])
        out[(d["code"], d["severity"], m.group(1) if m else None)] += 1
    return out
