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

from .core import (
    Field,
    Iteration,
    MessageStructure,
    Specialisation,
    _canonical_name,
    _traverse,
)
from .diagnostics import _Record

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


class Fragment(_Record):
    """A flat run of fields at one iteration-nesting depth.

    ``id`` is deterministic: the structure name joined with the names of
    the iterations on the path here. ``parent_key`` is absent only at
    depth 0.
    """

    __slots__ = ("id", "depth", "fields", "parent_key", "discriminators")

    def __init__(
        self,
        id: str,
        depth: int,
        fields: tuple[Field, ...],
        parent_key: str | None = None,
        discriminators: tuple[str, ...] = (),
    ) -> None:
        if depth < 0:
            raise ValueError("fragment depth must be >= 0")
        if (depth == 0) != (parent_key is None):
            raise ValueError("exactly the depth-0 fragment has no parent key")
        set_id, set_depth, set_fields, set_parent_key, set_discriminators = self._setters
        set_id(self, id)
        set_depth(self, depth)
        set_fields(self, fields)
        set_parent_key(self, parent_key)
        set_discriminators(self, discriminators)


class AbstractInterfaceStructure(_Record):
    """A fragment with its interface kind: a registry at depth 0, a set of
    registries below it."""

    __slots__ = ("fragment", "kind")

    def __init__(self, fragment: Fragment, kind: str) -> None:
        expected = REGISTRY if fragment.depth == 0 else SET_OF_REGISTRIES
        if kind != expected:
            raise ValueError(f"depth {fragment.depth} fragment must be {expected}")
        set_fragment, set_kind = self._setters
        set_fragment(self, fragment)
        set_kind(self, kind)


class _FragmentBuilder:
    def __init__(self, id_: str, depth: int, parent: _FragmentBuilder | None):
        self.id = id_
        self.depth = depth
        self.parent = parent
        self.fields: list[Field] = []
        self.discriminators: list[str] = []
        self.used_labels: set[str] = set()
        # For each base label, the suffix its next probe starts at (1 for
        # the bare base): every label it skipped is used for good.
        self.next_suffix: dict[str, int] = {}

    def freeze(self) -> Fragment:
        return Fragment(
            self.id,
            self.depth,
            tuple(self.fields),
            self.parent.id if self.parent else None,
            tuple(self.discriminators),
        )


def fragment_1nf(ms: MessageStructure) -> list[Fragment]:
    """Flatten a structure into linked first-normal-form fragments.

    The root fragment collects every field not under an iteration; each
    iteration starts a child fragment one level deeper. Field order is
    preserved. The fragment list is in depth-first encounter order, root
    first.
    """
    current = _FragmentBuilder(ms.name, 0, None)
    fragments = [current]
    for entering, item in _traverse(ms.root):
        if entering is None:  # a field
            current.fields.append(item)
        elif type(item) is Iteration:
            if entering:
                label = _iteration_label(item, current)
                current = _FragmentBuilder(f"{current.id}/{label}", current.depth + 1, current)
                fragments.append(current)
            else:
                current = current.parent
        elif entering and type(item) is Specialisation:
            current.discriminators.append(_discriminator_note(item))
    return [b.freeze() for b in fragments]


def _iteration_label(node: Iteration, parent: _FragmentBuilder) -> str:
    base = node.name or _canonical_name(node.children)
    if base is None:
        base = f"it{len(parent.used_labels) + 1}"
    # The first unused of base, base-2, base-3, ...; the probe resumes
    # where the last one for this base stopped, so labels take linear time.
    k = parent.next_suffix.get(base, 1)
    label = base if k == 1 else f"{base}-{k}"
    while label in parent.used_labels:
        k += 1
        label = f"{base}-{k}"
    parent.next_suffix[base] = k + 1
    parent.used_labels.add(label)
    return label


def _discriminator_note(spec: Specialisation) -> str:
    note = "|".join(_canonical_name(variant) or "?" for variant in spec.variants)
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
