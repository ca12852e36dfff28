"""The three workloads. Each is closed-loop: one process, one operation at
a time. ``setup`` writes the seeded inputs and the oracle's expectations;
``run_round`` performs the same operations every time, checks every output
and returns a ``Round``.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from importlib import import_module

# By module, not by name, so that the spans the tracer installs are seen.
# (`import msgstruct.lint as lint` would give the function the package
# re-exports under that name.)
core, derive, fragment, lint, parser = (
    import_module(f"msgstruct.{m}") for m in ("core", "derive", "fragment", "lint", "parser"))

from . import corpus, gen, model, speed
from .model import Doc
from .spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = str(Path(__file__).resolve().parent / "traced_cli.py")


class CheckError(Exception):
    """An output differs from what the record and the paper's rules predict."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


@dataclass
class Round:
    # (stage, operation key, seconds) in the same order in every round. The
    # stages of one input's pipeline share a key; the derive operation of
    # the in-process workloads has the key None.
    times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    cpu: list = field(default_factory=list)  # child CPU seconds per invocation
    rss_kb: int = 0  # largest child peak RSS
    derive_reps: int = 1  # times the round derives each manifest
    ref: list = field(default_factory=list)  # tries of the reference work (speed.py)


def validate_oracle() -> None:
    """The oracle must reproduce the paper's worked example before it judges
    anything else."""
    expect(model.derive(corpus.ORDER).to_json() == corpus.EXPECTED_ORDER_VIEW,
           "oracle: ORDER view differs from the paper's")
    ids = tuple(f["id"] for f in model.fragments_json(corpus.ORDER)["fragments"])
    expect(ids == corpus.EXPECTED_ORDER_FRAGMENTS, f"oracle: ORDER fragments {ids}")


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """The package under test first on the path, and bytecode caching on
    whatever the caller's environment says, as for an installed package:
    the warm-up invocation in set-up writes the caches under ``src/``."""
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + inherited if inherited else ""))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall: float
    cpu: float
    rss_kb: int


def spawn(argv: list[str], cwd: Path, env: dict, timeout: float = 60.0) -> Child:
    """Run one child to its end; wall time, CPU time and peak RSS are its own."""
    import subprocess

    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=cwd, env=env)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss,
        )


# ---------------------------------------------------------------------------
# cli_paper
# ---------------------------------------------------------------------------


def _in_order(text: str, names: list[str]) -> bool:
    at = 0
    for name in names:
        at = text.find(name, at)
        if at < 0:
            return False
        at += len(name)
    return True


def _fragment_lines(expected: dict) -> list[str]:
    """The text form of `msgstruct fragment`, one line per fragment plus one
    per discriminator."""
    lines = []
    for f in expected["fragments"]:
        kind = "registry" if f["depth"] == 0 else "set-of-registries"
        parent = f" parent={f['parentKey']}" if "parentKey" in f else ""
        names = ", ".join(x["name"] for x in f["fields"]) or "(no fields)"
        lines.append(f"{f['id']} [depth {f['depth']}, {kind}{parent}]: {names}")
        lines += [f"  discriminator: {d}" for d in f.get("discriminators", ())]
    return lines


class CliPaper:
    """Each subcommand as its own ``python -m msgstruct`` process on the
    paper corpus, plus exit-status probes that fail until mended."""

    def __init__(self, seed: int):
        self.seed = seed
        self.env = child_env()

    def setup(self, directory: Path) -> None:
        self.dir = directory
        files = {
            "order.ms": corpus.ORDER_TEXT,
            "order_table.ms": corpus.ORDER_TABLE,
            "order_derived.ms": corpus.ORDER_DERIVED_TEXT,
            "assignment.ms": corpus.ASSIGNMENT_TEXT,
            "vehicle_a.ms": corpus.VEHICLE_AMBIGUOUS + "\n",
            "vehicle_c.ms": corpus.VEHICLE_NESTED + "\n",
            "response.ms": corpus.SUPPLIER_RESPONSE_TEXT,
            "events.json": json.dumps([
                {"id": "EV2", "name": "supplier responds", "order": 2, "file": "response.ms"},
                {"id": "EV1", "name": "a client places an order", "order": 1, "file": "order.ms"},
            ]),
            # Probe inputs are fixed: they do not depend on the seed.
            "deep400.ms": "A=" + "<" * 400 + "x" + ">" * 400 + "\n",
            "deep300.ms": "A=" + "<" * 300 + "x" + ">" * 300 + "\n",
            "config_list.json": "[]\n",
            "config_type.json": '{"g1_wordlist": 5}\n',
        }
        for i, form in enumerate(corpus.SUGAR_FORMS, start=1):
            files[f"form{i}.ms"] = form + "\n"
        for name, text in files.items():
            _write(directory / name, text)
        (directory / "latin1.ms").write_bytes(b"A=<caf\xe9>\n")

        diagram = model.integrate([model.derive(corpus.ORDER), model.derive(corpus.SUPPLIER_RESPONSE)]).to_json()
        analysis = model.expected_diagnostics(corpus.ORDER, "analysis")
        derived = model.expected_diagnostics(corpus.ORDER_DERIVED, "analysis")
        memory = model.expected_diagnostics(corpus.ASSIGNMENT, "design-memory")
        interface = model.expected_diagnostics(corpus.ORDER, "design-interface")
        order_names = [f.name for f in model.fields(corpus.ORDER.root)]
        sugar_names = [f.name for f in model.fields(corpus.SUGAR.root)]
        order_frags = model.fragments_json(corpus.ORDER)
        assignment_lines = _fragment_lines(model.fragments_json(corpus.ASSIGNMENT))
        texts: dict = {}

        def same_text(key):
            def check(c):
                expect(texts.setdefault(key, c.out) == c.out, f"{key}: outputs differ")
            return check

        def parsed(doc):
            return lambda c: expect(json.loads(c.out) == model.tree_json(doc), f"parse --json {doc.name}")

        def diagnosed(expected, json_out=True):
            def check(c):
                errors = any(k[1] == "error" for k in expected)
                expect(c.code == (1 if errors else 0), f"check exit {c.code}")
                if json_out:
                    found = model.found_diagnostics(json.loads(c.out)["diagnostics"])
                    expect(found == expected, f"check diagnostics {found} != {expected}")
                elif not expected:
                    expect(c.err.rstrip().endswith(": clean"), "check summary is not clean")
            return check

        def verdict(word, code):
            return lambda c: expect((c.out.strip(), c.code) == (word, code), f"equiv gave {c.out!r}")

        # (stage, arguments, check of a successful run)
        ops = [
            ("roundtrip", ["parse", "order.ms"],
             lambda c: (expect(_in_order(c.out, order_names), "parse order"), same_text("order")(c))),
            ("roundtrip", ["parse", "order_table.ms"], lambda c: same_text("order")(c)),
            ("parse", ["parse", "--json", "order.ms"], parsed(corpus.ORDER)),
            ("parse", ["parse", "--json", "assignment.ms"], parsed(corpus.ASSIGNMENT)),
            ("parse", ["parse", "--json", "vehicle_c.ms"], parsed(corpus.VEHICLE)),
            ("parse", ["parse", "vehicle_a.ms"],
             lambda c: expect(c.code == 1 and ": P002:" in c.err, "ambiguous VEHICLE not rejected")),
            ("roundtrip", ["canon", "form1.ms"],
             lambda c: (expect(_in_order(c.out, sugar_names) and "C=" not in c.out and "D=" not in c.out,
                               f"canon {c.out!r}"), same_text("canon")(c))),
            ("roundtrip", ["canon", "form4.ms"], lambda c: same_text("canon")(c)),
            ("equiv", ["equiv", "form1.ms", "form2.ms"], verdict("equivalent", 0)),
            ("equiv", ["equiv", "order.ms", "order_table.ms"], verdict("equivalent", 0)),
            ("equiv", ["equiv", "order.ms", "assignment.ms"], verdict("not equivalent", 1)),
            ("check", ["check", "--json", "--phase", "analysis", "order.ms"], diagnosed(analysis)),
            ("check", ["check", "--json", "--phase", "analysis", "order_derived.ms"], diagnosed(derived)),
            ("check", ["check", "--json", "--phase", "design-memory", "assignment.ms"], diagnosed(memory)),
            ("check", ["check", "--phase", "design-interface", "order_table.ms"], diagnosed(interface, False)),
            ("derive", ["derive", "--events", "events.json"],
             lambda c: expect(json.loads(c.out) == diagram, "derive json")),
            ("derive", ["derive", "--events", "events.json", "--format", "plantuml"],
             lambda c: expect(all(e in c.out for e in model.plantuml_edges(diagram)), "derive plantuml")),
            ("fragment", ["fragment", "--json", "order.ms"],
             lambda c: expect(json.loads(c.out) == order_frags, "fragment json")),
            ("fragment", ["fragment", "assignment.ms"],
             lambda c: expect(c.out.splitlines() == assignment_lines, f"fragment text {c.out!r}")),
        ]
        # Exit-status probes: the documented status, and no traceback.
        probes = [
            ("probe", ["parse", "latin1.ms"], lambda c: c.code == 2),
            ("probe", ["parse", "deep400.ms"], lambda c: c.code == 0 or (c.code == 1 and ": P0" in c.err)),
            ("probe", ["equiv", "deep300.ms", "deep300.ms"], lambda c: c.code == 0 and c.out.strip() == "equivalent"),
            ("probe", ["check", "--phase", "analysis", "--config", "config_list.json", "order.ms"],
             lambda c: c.code == 2),
            ("probe", ["check", "--phase", "analysis", "--config", "config_type.json", "order.ms"],
             lambda c: c.code == 2),
        ]
        self.ops = ops + probes
        random.Random(self.seed).shuffle(self.ops)
        warm = spawn([sys.executable, "-m", "msgstruct", "parse", "order.ms"], directory, self.env)
        expect(warm.code == 0, f"warm-up failed: {warm.err}")

    def reference(self) -> float:
        """One try of the reference work (``speed.py``): a bare interpreter."""
        return spawn([sys.executable, "-c", "pass"], self.dir, self.env).wall

    def run_round(self, tracer: Tracer | None) -> Round:
        r = Round()
        start = perf_counter()
        for i, (stage, argv, check) in enumerate(self.ops):
            if i % 4 == 0:
                r.ref.append(self.reference())
            if tracer is None:
                c = spawn([sys.executable, "-m", "msgstruct", *argv], self.dir, self.env)
            else:
                c = traced_spawn(tracer, argv, self.dir, self.env)
            r.attempted += 1
            if stage == "probe":
                if not check(c) or "Traceback" in c.err:
                    r.failed += 1
                continue
            expect("Traceback" not in c.err, f"{argv}: {c.err}")
            check(c)
            r.times.append((stage, i, c.wall))
            r.cpu.append(c.cpu)
            r.rss_kb = max(r.rss_kb, c.rss_kb)
        r.wall = perf_counter() - start
        return r


def traced_spawn(tracer: Tracer, argv: list[str], cwd: Path, env: dict) -> Child:
    """Run the CLI through ``traced_cli.py`` inside an ``op.cli`` span and
    adopt the child's spans under it. ``perf_counter`` reads the system's
    monotonic clock, so the child's times line up with ours."""
    path = cwd / ".spans.json"
    op = len(tracer.spans)
    c = tracer.span("op.cli", spawn, [sys.executable, TRACED_CLI, str(path), *argv], cwd, env)
    data = json.loads(path.read_text(encoding="utf-8"))
    base = len(tracer.spans)
    for name, start, end, parent, _ in data["spans"]:
        tracer.spans.append((name, start, end, parent + base if parent >= 0 else op, tracer.op))
    for key, value in data["counts"].items():
        tracer.counts[key] = tracer.counts.get(key, 0) + value
    path.unlink()
    tracer.op += 1
    return c


# ---------------------------------------------------------------------------
# In-process pipeline shared by project_batch and wide_document
# ---------------------------------------------------------------------------

_PHASES = [lint.Phase(p) for p in model.PHASES]


def _bare(part, rename: str | None = None):
    """A property-free, name-free tree with every implicit aggregation made
    explicit: a sugar variant of the record, optionally with one field
    renamed."""
    if isinstance(part, model.F):
        return core.Field(part.name + " renamed" if part.name == rename else part.name)
    if part.kind == model.SPEC:
        return core.Specialisation(None, tuple(
            (_explicit([_bare(c, rename) for c in v]),) for v in part.children))
    kids = tuple(_bare(c, rename) for c in part.children)
    if part.kind == model.ITER:
        return core.Iteration(None, (_explicit(list(kids)),))
    return core.Aggregation(None, kids)


def _explicit(items: list):
    if len(items) == 1 and isinstance(items[0], core.Aggregation):
        return items[0]
    return core.Aggregation(None, tuple(items))


def program_shape(node) -> tuple:
    """The same name-free shape as ``model.shape``, read off a program tree."""
    if isinstance(node, core.Field):
        return ("f", node.name)
    if isinstance(node, core.Specialisation):
        return ("[", tuple(tuple(program_shape(c) for c in v) for v in node.variants))
    return ("<" if isinstance(node, core.Aggregation) else "{", tuple(program_shape(c) for c in node.children))


class Input:
    """One document with everything the pipeline's outputs must match."""

    def __init__(self, doc: Doc):
        self.text = model.render(doc)
        self.tree = model.tree_json(doc)
        self.diagnostics = {p: model.expected_diagnostics(doc, p) for p in model.PHASES}
        self.fragments = model.fragments_json(doc)
        self.canonical = model.shape(model.canonical(doc.root))
        first = model.fields(doc.root)[0].name
        root = _bare(doc.root)
        moved = core.Aggregation(None, root.children[1:] + root.children[:1])
        self.variants = [
            core.MessageStructure(doc.name, root),
            core.MessageStructure(doc.name, _bare(doc.root, first)),
            core.MessageStructure(doc.name, moved),
        ]
        self.verdicts = [True, False, False, True]


def _timed(r: Round, tracer: Tracer | None, stage: str, key, fn):
    """Run ``fn(clock)`` as one stage of ``key``'s pipeline, inside an
    ``op.<stage>`` span when tracing. ``clock(call, *args)`` times each
    layer call on its own, so that a stage's best time is the sum of its
    calls' best times, each taken at the run's quietest moment for it."""

    def clock(call, *args):
        start = perf_counter()
        result = call(*args)
        r.times.append((stage, key, perf_counter() - start))
        return result

    return fn(clock) if tracer is None else tracer.span(f"op.{stage}", fn, clock)


def file_pipeline(item: Input, r: Round, tracer: Tracer | None) -> None:
    """Parse, check in all three phases, fragment, round-trip through both
    text layouts, and decide equivalence against sugar, rename and move
    variants and against the tabular re-rendering."""

    def parse(clock):
        ms = clock(parser.parse, item.text)
        return ms, clock(parser.structure_to_json_obj, ms)

    def check(clock):
        return [clock(lint.lint, ms, p) + clock(lint.guideline_checks, ms, p) for p in _PHASES]

    def frag(clock):
        return clock(fragment.fragments_to_json_obj, clock(fragment.fragment_1nf, ms))

    def roundtrip(clock):
        return (clock(parser.parse, clock(parser.to_text, ms)),
                clock(parser.parse, clock(parser.to_text, ms, "tabular")))

    def equiv(clock):
        canon = clock(core.canonicalize, ms)
        return canon, [clock(core.equivalent, ms, v) for v in (*item.variants, back_tabular)]

    ms, tree = _timed(r, tracer, "parse", item, parse)
    diagnostics = _timed(r, tracer, "check", item, check)
    frags = _timed(r, tracer, "fragment", item, frag)
    back, back_tabular = _timed(r, tracer, "roundtrip", item, roundtrip)
    canon, verdicts = _timed(r, tracer, "equiv", item, equiv)
    if tracer is not None:
        tracer.op += 1
    r.attempted += 1

    name = item.tree["name"]
    expect(tree == item.tree, f"{name}: parsed tree differs from the record")
    for phase, found in zip(model.PHASES, diagnostics):
        got, want = model.found_diagnostics([d.to_json_obj() for d in found]), item.diagnostics[phase]
        if got != want:
            raise CheckError(f"{name}: {phase} diagnostics: extra {got - want}, missing {want - got}")
    expect(frags == item.fragments, f"{name}: fragments differ")
    expect(back == ms, f"{name}: parse(to_text(ms)) != ms")
    expect(program_shape(canon.root) == item.canonical, f"{name}: canonical form differs")
    expect(verdicts == item.verdicts, f"{name}: equivalence verdicts {verdicts}")


class Manifest:
    """An events manifest with the diagram its events must fold into."""

    def __init__(self, path: Path, events: list[tuple[str, int, Doc]], files: list[str]):
        self.path = path
        entries = [
            {"id": eid, "name": f"{doc.name.lower()} {eid}", "order": order, "file": f}
            for (eid, order, doc), f in zip(events, files)
        ]
        # Out of order on disk, so that the manifest's sort is exercised.
        _write(path, json.dumps(entries[1::2] + entries[::2]))
        ordered = sorted(events, key=lambda e: (e[1], e[0]))
        self.diagram = model.integrate([model.derive(doc) for _, _, doc in ordered]).to_json()
        self.edges = model.plantuml_edges(self.diagram)
        self.classes = len(self.diagram["classes"])


def derive_pipeline(m: Manifest, r: Round, tracer: Tracer | None) -> None:
    """Manifest to exported diagram, as `msgstruct derive` does it: load,
    the design-memory lint gate, one view per event, integrate, export."""

    def run(clock):
        events = clock(derive.load_events_manifest, m.path)
        blocking = []
        for event in events:
            found = clock(lint.lint, event.structure, lint.Phase.DESIGN_MEMORY)
            found += clock(lint.guideline_checks, event.structure, lint.Phase.DESIGN_MEMORY)
            blocking += [d for d in found if d.severity.value == "error"]
        diagram = clock(derive.integrate, [clock(derive.derive_view, e) for e in events])
        return (blocking, clock(derive.export_diagram, diagram, "json"),
                clock(derive.export_diagram, diagram, "plantuml"))

    blocking, as_json, as_uml = _timed(r, tracer, "derive", None, run)
    if tracer is not None:
        tracer.op += 1
    r.attempted += 1
    expect(not blocking, f"{m.path.name}: lint gate blocked: {blocking[:3]}")
    expect(json.loads(as_json) == m.diagram, f"{m.path.name}: diagram differs from the oracle's")
    expect(all(e in as_uml for e in m.edges), f"{m.path.name}: plantuml misses an association")
    expect(as_uml.count("\nclass ") == m.classes, f"{m.path.name}: plantuml class count")


def warm_up() -> None:
    """One pass over the paper's ORDER, so lazy set-up is paid before timing."""
    scratch = Round()
    file_pipeline(Input(corpus.ORDER), scratch, None)


class ProjectBatch:
    """Many paper-sized event structures and one manifest over all of them.
    A round derives the manifest five times: ``load_events_manifest`` is
    one ~0.1 s call, and a single try per round would leave its best time
    to the luck of a few dozen tries."""

    DERIVE_REPS = 5

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, directory: Path) -> None:
        events = gen.project(self.seed)
        self.inputs, files = [], []
        for eid, _, doc in events:
            item = Input(doc)
            files.append(f"{eid.lower()}.ms")
            _write(directory / files[-1], item.text)
            self.inputs.append(item)
        self.manifest = Manifest(directory / "events.json", events, files)
        warm_up()

    reference = staticmethod(speed.loop)

    def run_round(self, tracer: Tracer | None) -> Round:
        r = Round(derive_reps=self.DERIVE_REPS)
        start = perf_counter()
        for item in self.inputs:
            file_pipeline(item, r, tracer)
            r.ref.append(self.reference())
        for _ in range(self.DERIVE_REPS):
            derive_pipeline(self.manifest, r, tracer)
            r.ref.append(self.reference())
        r.wall = perf_counter() - start
        return r


class WideDocument:
    """A few large documents, each through the pipeline and through a
    one-event manifest."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, directory: Path) -> None:
        self.inputs, self.manifests = [], []
        for i, doc in enumerate(gen.wide(self.seed)):
            item = Input(doc)
            _write(directory / f"doc{i}.ms", item.text)
            self.inputs.append(item)
            self.manifests.append(
                Manifest(directory / f"events{i}.json", [(f"EV{i}", 1, doc)], [f"doc{i}.ms"]))
        warm_up()

    reference = staticmethod(speed.loop)

    def run_round(self, tracer: Tracer | None) -> Round:
        r = Round()
        start = perf_counter()
        for item, manifest in zip(self.inputs, self.manifests):
            file_pipeline(item, r, tracer)
            derive_pipeline(manifest, r, tracer)
            r.ref += [self.reference() for _ in range(20)]
        r.wall = perf_counter() - start
        return r


WORKLOADS = {"cli_paper": CliPaper, "project_batch": ProjectBatch, "wide_document": WideDocument}
