"""First-normal-form fragmentation for interface reasoning.

A message structure with nested iterations cannot be laid out as one flat
form. Fragmenting flattens it: one fragment per iteration-nesting level,
each holding only fields, each non-root fragment linked to its parent.
Fragments are then assigned an abstract interface structure: the root
fragment is a registry (one record on screen), every deeper fragment a set
of registries (a repeating block).

Specialisation variants do not repeat, so their fields fold into the
enclosing fragment; the fragment records the variant split as a
discriminator note, the way single-table inheritance keeps one table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Aggregation,
    Field,
    Iteration,
    MessageStructure,
    Specialisation,
    Substructure,
    canonicalize,
)

__all__ = [
    "Fragment",
    "AbstractInterfaceStructure",
    "REGISTRY",
    "SET_OF_REGISTRIES",
    "fragment_1nf",
    "assign_abstract",
    "fragments_to_json_obj",
]

REGISTRY = "registry"
SET_OF_REGISTRIES = "set-of-registries"


@dataclass(frozen=True)
class Fragment:
    """A flat run of fields at one iteration-nesting depth.

    ``id`` is deterministic: the structure name joined with the names of
    the iterations on the path here. ``parent_key`` is absent only at
    depth 0.
    """

    id: str
    depth: int
    fields: tuple[Field, ...]
    parent_key: str | None = None
    discriminators: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("fragment depth must be >= 0")
        if (self.depth == 0) != (self.parent_key is None):
            raise ValueError("exactly the depth-0 fragment has no parent key")


@dataclass(frozen=True)
class AbstractInterfaceStructure:
    fragment: Fragment
    kind: str  # REGISTRY | SET_OF_REGISTRIES

    def __post_init__(self) -> None:
        expected = REGISTRY if self.fragment.depth == 0 else SET_OF_REGISTRIES
        if self.kind != expected:
            raise ValueError(f"depth {self.fragment.depth} fragment must be {expected}")


class _FragmentBuilder:
    def __init__(self, id_: str, depth: int, parent_key: str | None):
        self.id = id_
        self.depth = depth
        self.parent_key = parent_key
        self.fields: list[Field] = []
        self.discriminators: list[str] = []
        self.used_labels: set[str] = set()

    def freeze(self) -> Fragment:
        return Fragment(
            self.id,
            self.depth,
            tuple(self.fields),
            self.parent_key,
            tuple(self.discriminators),
        )


def fragment_1nf(ms: MessageStructure) -> list[Fragment]:
    """Flatten a structure into linked first-normal-form fragments.

    The root fragment collects every field not under an iteration; each
    iteration starts a child fragment one level deeper. Field order is
    preserved. The fragment list is in depth-first encounter order, root
    first.
    """
    normal = canonicalize(ms, keep_names=True)
    fragments: list[_FragmentBuilder] = []

    def new_fragment(id_: str, depth: int, parent: str | None) -> _FragmentBuilder:
        builder = _FragmentBuilder(id_, depth, parent)
        fragments.append(builder)
        return builder

    def collect(builder: _FragmentBuilder, items: tuple[Substructure, ...]) -> None:
        for child in items:
            if isinstance(child, Field):
                builder.fields.append(child)
            elif isinstance(child, Aggregation):
                collect(builder, child.children)
            elif isinstance(child, Iteration):
                # Canonical form: an iteration's only child and every
                # variant's only member are aggregations.
                inner = child.children[0]
                label = _iteration_label(child, inner, builder)
                sub = new_fragment(f"{builder.id}/{label}", builder.depth + 1, builder.id)
                collect(sub, inner.children)
            elif isinstance(child, Specialisation):
                builder.discriminators.append(_discriminator_note(child))
                for variant in child.variants:
                    collect(builder, variant[0].children)

    root = new_fragment(ms.name, 0, None)
    root_node = normal.root
    if isinstance(root_node, Iteration):
        collect(root, (root_node,))
    else:
        collect(root, root_node.children)
    return [b.freeze() for b in fragments]


def _iteration_label(node: Iteration, inner: Aggregation, parent: _FragmentBuilder) -> str:
    base = node.name or inner.name
    if base is None:
        base = f"it{len(parent.used_labels) + 1}"
    label = base
    k = 2
    while label in parent.used_labels:
        label = f"{base}-{k}"
        k += 1
    parent.used_labels.add(label)
    return label


def _discriminator_note(spec: Specialisation) -> str:
    note = "|".join(variant[0].name or "?" for variant in spec.variants)
    return f"{spec.name}:{note}" if spec.name else note


def assign_abstract(fragments: list[Fragment]) -> list[AbstractInterfaceStructure]:
    """Assign each fragment its interface role: the root fragment is a
    registry, every repeated (deeper) fragment a set of registries."""
    return [
        AbstractInterfaceStructure(
            f, REGISTRY if f.depth == 0 else SET_OF_REGISTRIES
        )
        for f in fragments
    ]


def fragments_to_json_obj(fragments: list[Fragment]) -> dict:
    """JSON view: ``{fragments: [...], abstract: [...]}`` with field
    properties in the annotation vocabulary."""
    frags = []
    for f in fragments:
        obj: dict = {"id": f.id, "depth": f.depth}
        if f.parent_key is not None:
            obj["parentKey"] = f.parent_key
        if f.discriminators:
            obj["discriminators"] = list(f.discriminators)
        obj["fields"] = [
            {"name": fld.name, **fld.properties.to_mapping()} for fld in f.fields
        ]
        frags.append(obj)
    abstract = [
        {"fragmentId": a.fragment.id, "kind": a.kind}
        for a in assign_abstract(fragments)
    ]
    return {"fragments": frags, "abstract": abstract}
