"""Benchmark for msgstruct: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli_paper,project_batch,wide_document}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. Inputs are generated from the seed under ``.perfbench/``. The
run repeats whole rounds of the same operations until S seconds have
passed, checks every output against the generator's record, and prints one
line per metric, then a JSON object as the last line of stdout.

``--trace 0`` reports the end-to-end metrics that ``BENCHMARK.json``
gates, with their times scaled to a reference speed (``speed.py``), then
figures it does not gate: the speed factor, the measured times and the
stage times. ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics from the
traced ones plus the tracing overhead; the spans are written to
``.perfbench/spans-<workload>-<seed>.json``.

``BENCHMARK.json`` lists ``cli_paper`` and ``project_batch``, the workloads
whose figures repeat from run to run well enough to gate a change.
``wide_document`` runs the same way but is left out of it; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUPS = 9
CALIBRATION_SPAWNS = 5

END_TO_END_UNITS = {"setup_s": "s", "peak_mem_mb": "MB", "op_ms_p50": "ms", "ops_per_s": "1/s", "derive_s": "s"}
STAGES = ("parse", "check", "derive", "fragment", "equiv", "roundtrip")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("cli_paper", "project_batch", "wide_document"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    try:
        import msgstruct
    except ImportError as exc:
        print(f"perfbench: cannot import msgstruct from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(msgstruct.__file__).resolve().parent != ROOT / "src" / "msgstruct":
        print(f"perfbench: msgstruct comes from {msgstruct.__file__}, not this checkout", file=sys.stderr)
        return 2

    from perfbench import workloads
    from perfbench.spans import Tracer

    workloads.validate_oracle()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_times = []
    for i in range(SETUPS):
        directory = WORK / f"{args.workload}-{args.seed}" / f"setup{i}"
        shutil.rmtree(directory, ignore_errors=True)
        start = perf_counter()
        directory.mkdir(parents=True)
        workload.setup(directory)
        setup_times.append(perf_counter() - start)
    # The inputs and expectations live for the whole run; keep them out of
    # the collector's way so that they do not inflate the program's GC cost.
    gc.collect()
    gc.freeze()

    tracer = Tracer() if args.trace else None
    rounds, traced = [], []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or len(traced) < (2 if tracer else 0):
        if tracer is not None and len(rounds) > len(traced):
            tracer.install()
            try:
                traced.append(workload.run_round(tracer))
            finally:
                tracer.uninstall()
        else:
            rounds.append(workload.run_round(None))

    peak_mb, untimed = program_peak(args.workload, workload, rounds) if tracer is None else (0.0, [])
    attempted = sum(r.attempted for r in rounds + traced + untimed)
    failed = sum(r.failed for r in rounds + traced + untimed)
    ungated: dict = {}
    if tracer is None:
        metrics, ungated = end_to_end(args.workload, rounds, setup_times, peak_mb)
        units = END_TO_END_UNITS
    else:
        metrics, units = per_layer(args.workload, rounds, traced, tracer)
        tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.json")
    shutil.rmtree(WORK / f"{args.workload}-{args.seed}", ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(rounds) + len(traced)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    for name, (value, unit) in ungated.items():
        print(f"  {name:32s} {value:14.6f} {unit} (not gated)")
    if tracer is not None:
        from perfbench.spans import coverage

        stages = sorted({s[0] for s in tracer.spans if s[0].startswith("op.")})
        print("  layer-span coverage: " + ", ".join(
            f"{s} {coverage(tracer.spans, s) * 100:.1f}%" for s in stages))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def program_peak(name: str, workload, rounds: list) -> tuple[float, list]:
    """The program's own peak memory in MB, and the untimed rounds run to
    find it. On ``cli_paper`` it is the largest peak RSS of a CLI child. In
    process, it is the peak of the memory allocated during one more round:
    the benchmark process' RSS is mostly the interpreter, the inputs and the
    oracle's predictions, and would hide the program's."""
    if name == "cli_paper":
        return max(r.rss_kb for r in rounds) / 1024, []
    tracemalloc.start()
    try:
        extra = workload.run_round(None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, [extra]


def end_to_end(name: str, rounds: list, setup_times: list[float], peak_mb: float) -> tuple[dict, dict]:
    """The gated metrics, then figures that are printed but not gated: the
    speed factor, the measured times behind the gated ones, and the stage
    times. The times of the rounds are scaled to the reference speed
    (``speed.py``); the set-up time is not.

    Each timed call gets one figure over the run's rounds: its best in
    process, its median on ``cli_paper``. An in-process call takes
    milliseconds and has hundreds of tries in a run, so its best comes from
    a quiet moment and a sum of many bests repeats from run to run. A CLI
    child takes ~90 ms of start-up, import and system calls and has only
    ~17 tries, so its best wanders with the run's luck while its median
    holds."""
    from perfbench import speed

    pick = statistics.median if name == "cli_paper" else min
    per_call = [pick(times) for times in zip(*([t for _, _, t in r.times] for r in rounds))]
    stages = dict.fromkeys(STAGES, 0.0)
    per_op: dict = {}
    for (stage, key, _), t in zip(rounds[0].times, per_call):
        stages[stage] += t
        if key is not None:
            per_op[key] = per_op.get(key, 0.0) + t
    stages["derive"] /= rounds[0].derive_reps
    measured = {
        "op_ms_p50": statistics.median(per_op.values()) * 1000,
        "ops_per_s": len(per_op) / sum(per_op.values()),
        "derive_s": stages["derive"],
    }
    k = speed.factor(name, [t for r in rounds for t in r.ref])
    metrics = {"setup_s": statistics.median(setup_times), "peak_mem_mb": peak_mb}
    metrics.update((m, v * k if m == "ops_per_s" else v / k) for m, v in measured.items())
    ungated = {"speed_factor": (k, "x")}
    ungated.update((f"measured_{m}", (v, END_TO_END_UNITS[m])) for m, v in measured.items())
    ungated.update((f"{stage}_s", (t / k, "s")) for stage, t in stages.items() if stage != "derive")
    return metrics, ungated


LAYER_UNITS = {
    "parser.parse_s": "s", "parser.parse_calls": "count", "parser.parse_kB_per_s": "kB/s",
    "parser.to_text_s": "s", "parser.json_s": "s",
    "core.canonicalize_s": "s", "core.equivalent_s": "s", "core.canon_nodes": "count",
    "lint.lint_s": "s", "lint.guideline_checks_s": "s", "lint.diagnostics": "count",
    "derive.derive_view_s": "s", "derive.classes": "count", "derive.integrate_s": "s",
    "derive.view_attributes": "count", "derive.diagram_attributes": "count",
    "derive.load_events_manifest_s": "s", "derive.export_diagram_s": "s",
    "fragment.fragment_1nf_s": "s", "fragment.to_json_s": "s", "fragment.fragments": "count",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.work_ms": "ms", "cli.child_cpu_ms": "ms",
    "trace.overhead_pct": "%", "trace.coverage_pct": "%",
}

_SPAN_OF = {
    "parser.parse_s": "parser.parse", "parser.to_text_s": "parser.to_text", "parser.json_s": "parser.json",
    "core.canonicalize_s": "core.canonicalize", "core.equivalent_s": "core.equivalent",
    "lint.lint_s": "lint.lint", "lint.guideline_checks_s": "lint.guideline_checks",
    "derive.derive_view_s": "derive.derive_view", "derive.integrate_s": "derive.integrate",
    "derive.load_events_manifest_s": "derive.load_events_manifest",
    "derive.export_diagram_s": "derive.export_diagram",
    "fragment.fragment_1nf_s": "fragment.fragment_1nf", "fragment.to_json_s": "fragment.to_json",
}
_COUNTS = ("parser.parse_calls", "core.canon_nodes", "lint.diagnostics", "derive.classes",
           "derive.view_attributes", "derive.diagram_attributes", "fragment.fragments")


def per_layer(name: str, rounds: list, traced: list, tracer) -> tuple[dict, dict]:
    """Self time and counts per traced round, the CLI's start-up split, and
    the cost of tracing."""
    from perfbench import corpus, workloads
    from perfbench.spans import coverage, self_times

    n = len(traced)
    selfs = self_times(tracer.spans)
    out = {metric: selfs.get(span, 0.0) / n for metric, span in _SPAN_OF.items()}
    for key in _COUNTS:
        out[key] = tracer.counts.get(key, 0) / n
    out["parser.parse_kB_per_s"] = tracer.counts.get("parser.parse_bytes", 0) / 1000 / n / out["parser.parse_s"]
    out["trace.coverage_pct"] = coverage(tracer.spans, "op.") * 100

    # CLI start-up: a bare interpreter, then one that imports the CLI.
    directory = WORK / f"{name}-calibration"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    (directory / "order.ms").write_text(corpus.ORDER_TEXT, encoding="utf-8")
    env = workloads.child_env()

    def walls(argv):
        return [workloads.spawn(argv, directory, env) for _ in range(CALIBRATION_SPAWNS)]

    bare = statistics.median(c.wall for c in walls([sys.executable, "-c", "pass"]))
    imported = statistics.median(c.wall for c in walls([sys.executable, "-c", "import msgstruct.cli"]))
    if name == "cli_paper":
        cpu = [t for r in rounds for t in r.cpu]
    else:
        cpu = [c.cpu for c in walls([sys.executable, "-m", "msgstruct", "parse", "--json", "order.ms"])]
        for _ in range(CALIBRATION_SPAWNS):
            c = workloads.traced_spawn(tracer, ["parse", "--json", "order.ms"], directory, env)
            workloads.expect(c.code == 0, f"traced CLI failed: {c.err}")
    shutil.rmtree(directory, ignore_errors=True)
    mains = [s[2] - s[1] for s in tracer.spans if s[0] == "cli.main"]
    out["cli.interpreter_ms"] = bare * 1000
    out["cli.import_ms"] = (imported - bare) * 1000
    out["cli.work_ms"] = statistics.median(mains) * 1000
    out["cli.child_cpu_ms"] = statistics.median(cpu) * 1000

    out["trace.overhead_pct"] = (min(r.wall for r in traced) / min(r.wall for r in rounds) - 1) * 100
    return out, LAYER_UNITS


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # the result line must not be printed on failure
        from traceback import print_exc

        print_exc()
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        sys.exit(1)
