"""Spans around the public calls into each layer of ``msgstruct``.

``Tracer.install`` rebinds every module-level name under which a layer's
public function is reachable (in the package and in every module that
imported it) to a wrapper that records a span, so calls from one layer into
another nest. ``uninstall`` restores the originals. Nothing under ``src/``
changes. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

_MODULES = ("msgstruct", "msgstruct.parser", "msgstruct.core", "msgstruct.lint",
            "msgstruct.derive", "msgstruct.fragment", "msgstruct.cli")


def _walk_count(result) -> int:
    from msgstruct.core import walk

    return sum(1 for _ in walk(result))


def _attrs(diagram) -> int:
    return sum(len(c.attributes) for c in diagram.classes)


# span name -> (module, function, counters taken from (args, result) after the span ends)
LAYERS = {
    "parser.parse": ("msgstruct.parser", "parse", {
        "parser.parse_calls": lambda a, r: 1,
        "parser.parse_bytes": lambda a, r: len(a[0].encode("utf-8")),
    }),
    "parser.to_text": ("msgstruct.parser", "to_text", {}),
    "parser.json": ("msgstruct.parser", "structure_to_json_obj", {}),
    "core.canonicalize": ("msgstruct.core", "canonicalize", {
        "core.canon_nodes": lambda a, r: _walk_count(r),
    }),
    "core.equivalent": ("msgstruct.core", "equivalent", {}),
    "lint.lint": ("msgstruct.lint", "lint", {"lint.diagnostics": lambda a, r: len(r)}),
    "lint.guideline_checks": ("msgstruct.lint", "guideline_checks", {
        "lint.diagnostics": lambda a, r: len(r),
    }),
    "derive.derive_view": ("msgstruct.derive", "derive_view", {
        "derive.classes": lambda a, r: len(r.classes),
    }),
    "derive.integrate": ("msgstruct.derive", "integrate", {
        "derive.view_attributes": lambda a, r: sum(_attrs(v) for v in a[0]),
        "derive.diagram_attributes": lambda a, r: _attrs(r),
    }),
    "derive.load_events_manifest": ("msgstruct.derive", "load_events_manifest", {}),
    "derive.export_diagram": ("msgstruct.derive", "export_diagram", {}),
    "fragment.fragment_1nf": ("msgstruct.fragment", "fragment_1nf", {
        "fragment.fragments": lambda a, r: len(r),
    }),
    "fragment.to_json": ("msgstruct.fragment", "fragments_to_json_obj", {}),
}


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, operation id)
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn, counters: dict):
        def count(args, result) -> None:
            for key, counter in counters.items():
                self.counts[key] = self.counts.get(key, 0) + counter(args, result)

        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counters:
                # A span of its own, so that counting is not charged to the
                # self time of the caller's layer.
                self.span("trace.count", count, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in _MODULES]
        for name, (home, attr, counters) in LAYERS.items():
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(name, original, counters)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"spans": self.spans, "counts": self.counts}, out)


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the time
    its direct children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out


def coverage(spans: list[tuple], prefix: str) -> float:
    """Share of the time of the operation spans named ``prefix``* that layer
    calls inside them cover, counting only layer calls not made from another
    layer call. The tracer's own counting is left out of both sides."""
    total = covered = 0.0
    in_op: list[bool] = []  # inside an operation span named prefix*
    in_layer: list[bool] = []  # inside a layer call
    for name, start, end, parent, _ in spans:
        op = parent >= 0 and in_op[parent]
        layer = parent >= 0 and (in_layer[parent] or spans[parent][0] in LAYERS)
        in_op.append(op or name.startswith(prefix))
        in_layer.append(layer)
        if not op:
            if name.startswith(prefix):
                total += end - start
        elif name == "trace.count":
            total -= end - start
            if layer:
                covered -= end - start
        elif name in LAYERS and not layer:
            covered += end - start
    return covered / total if total else 0.0
