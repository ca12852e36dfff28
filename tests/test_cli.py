"""Command-line behaviour: outputs, formats, and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import cli_env


def test_parse_prints_compact_text(run_cli, corpus_dir):
    result = run_cli("parse", "order.ms", cwd=corpus_dir)
    assert result.returncode == 0
    assert result.stdout.startswith("ORDER=<Order number")
    assert result.stderr == ""


def test_parse_json_is_valid_and_stable(run_cli, corpus_dir):
    first = run_cli("parse", "--json", "order.ms", cwd=corpus_dir)
    second = run_cli("parse", "--json", "order.ms", cwd=corpus_dir)
    assert first.returncode == 0
    payload = json.loads(first.stdout)
    assert payload["name"] == "ORDER"
    assert payload["root"]["kind"] == "aggregation"
    assert first.stdout == second.stdout


def test_parse_reads_its_own_output_of_a_small_number(run_cli, tmp_path):
    (tmp_path / "a.ms").write_text('A=<x (op=d; formula="0.00001")>\n', encoding="utf-8")
    first = run_cli("parse", "a.ms", cwd=tmp_path)
    assert first.returncode == 0, first.stderr
    assert 'formula="0.00001"' in first.stdout
    (tmp_path / "b.ms").write_text(first.stdout, encoding="utf-8")
    second = run_cli("parse", "b.ms", cwd=tmp_path)
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout


def test_parse_reports_diagnostics_on_stderr(run_cli, corpus_dir):
    result = run_cli("parse", "vehicle_a.ms", cwd=corpus_dir)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "P002" in result.stderr
    assert "vehicle_a.ms:1:" in result.stderr


def test_parse_missing_file_exits_2(run_cli, corpus_dir):
    result = run_cli("parse", "missing.ms", cwd=corpus_dir)
    assert result.returncode == 2
    assert "missing.ms" in result.stderr


def test_parse_non_utf8_file_exits_2(run_cli, corpus_dir):
    (corpus_dir / "latin1.ms").write_bytes(b"A=<caf\xe9>\n")
    result = run_cli("parse", "latin1.ms", cwd=corpus_dir)
    assert result.returncode == 2
    assert "latin1.ms" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "text, diagnostic",
    [
        ("A = < b + C =", "cut.ms:1:11: error: P002: "),
        ("A=" + "<" * 400 + "x" + ">" * 400 + "\n", "cut.ms:1:303: error: P008: "),
    ],
)
def test_parse_error_at_the_end_or_too_deep_exits_1(run_cli, corpus_dir, text, diagnostic):
    (corpus_dir / "cut.ms").write_text(text, encoding="utf-8")
    result = run_cli("parse", "cut.ms", cwd=corpus_dir)
    assert result.returncode == 1
    assert diagnostic in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("opener, closer", [("<", ">"), ("{", "}"), ("[", "]")])
@pytest.mark.parametrize("command", ["parse", "canon"])
def test_parse_and_canon_print_300_levels(run_cli, corpus_dir, command, opener, closer):
    text = "M=<" + opener * 299 + "x" + closer * 299 + ">"
    (corpus_dir / "deep.ms").write_text(text + "\n", encoding="utf-8")
    result = run_cli(command, "deep.ms", cwd=corpus_dir)
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    assert result.stdout == text + "\n"


@pytest.mark.parametrize(
    "formula", [":x" + "+:x" * 4999, "(" * 5000 + ":x" + ")" * 5000], ids=["sum", "parentheses"]
)
@pytest.mark.parametrize("command", ["parse", "check"])
def test_a_formula_nested_too_deep_exits_1_with_p005(run_cli, corpus_dir, command, formula):
    (corpus_dir / "deep.ms").write_text(f'A=<x (op=d; formula="{formula}")>\n', encoding="utf-8")
    args = ["--phase", "design-memory"] if command == "check" else []
    result = run_cli(command, *args, "deep.ms", cwd=corpus_dir)
    assert result.returncode == 1
    assert "deep.ms:1:21: error: P005: bad formula: nested too deep" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("opener, closer", [("<", ">"), ("{", "}"), ("[", "]")])
def test_every_command_runs_on_the_deepest_structure(tmp_path, capsys, opener, closer):
    # In process, below pytest's own frames: the parser's MAX_NESTING levels
    # of brackets around fields carrying the deepest formulas it accepts.
    from msgstruct import cli
    from msgstruct.parser import MAX_NESTING

    depth = MAX_NESTING - 1  # inside the root aggregation
    fields = 'x (op=d; formula=":x{}") + y (op=d; formula="{}:y{}")'.format(
        "+:x" * 64, "(" * 64, ")" * 64
    )
    (tmp_path / "deep.ms").write_text("M=<" + opener * depth + fields + closer * depth + ">\n", encoding="utf-8")
    (tmp_path / "events.json").write_text(
        json.dumps([{"id": "EV1", "name": "deep", "order": 1, "file": "deep.ms"}])
    )
    deep, events = str(tmp_path / "deep.ms"), str(tmp_path / "events.json")
    commands = [
        ["parse", deep],
        ["parse", "--json", deep],
        ["canon", deep],
        ["equiv", deep, deep],
        ["fragment", deep],
        ["fragment", "--json", deep],
        *(["check", "--phase", phase, deep] for phase in cli._PHASES),
        ["check", "--json", "--phase", "analysis", deep],
        ["derive", "--events", events],
        ["derive", "--format", "plantuml", "--events", events],
    ]
    for argv in commands:
        assert cli.main(argv) in (0, 1), argv
        out, err = capsys.readouterr()
        assert "P0" not in err, argv
    assert cli.main(["equiv", deep, deep]) == 0


def test_json_output_is_that_of_json_dumps(corpus_dir):
    """``parse``, ``check`` and ``fragment`` print ``--json`` byte for byte as
    ``json.dumps(obj, indent=2, ensure_ascii=False)`` did."""
    from msgstruct.cli import _json_text
    from msgstruct.fragment import fragment_1nf, fragments_to_json_obj
    from msgstruct.lint import Phase, guideline_checks, lint
    from msgstruct.parser import ParseError, parse, structure_to_json_obj

    objs = []
    for path in sorted(corpus_dir.glob("*.ms")):
        try:
            ms = parse(path.read_text(encoding="utf-8"))
        except ParseError as exc:
            objs.append([d.to_json_obj() for d in exc.diagnostics])
            continue
        objs += [structure_to_json_obj(ms), fragments_to_json_obj(fragment_1nf(ms))]
        for phase in Phase:
            found = lint(ms, phase) + guideline_checks(ms, phase)
            objs.append({"file": str(path), "phase": phase.value, "diagnostics": [d.to_json_obj() for d in found]})
    assert len(objs) > 30
    for obj in objs:
        assert _json_text(obj) == json.dumps(obj, indent=2, ensure_ascii=False)


@pytest.mark.parametrize("opener, closer", [("<", ">"), ("{", "}"), ("[", "]")])
def test_parse_json_runs_on_the_deepest_structure_in_812_frames(tmp_path, opener, closer):
    from msgstruct.parser import MAX_NESTING

    depth = MAX_NESTING - 1  # inside the root aggregation
    (tmp_path / "deep.ms").write_text("M=<" + opener * depth + "x" + closer * depth + ">\n", encoding="utf-8")
    code = "import sys; sys.setrecursionlimit(812); from msgstruct.cli import main; sys.exit(main(sys.argv[1:]))"
    result = subprocess.run(
        [sys.executable, "-c", code, "parse", "--json", "deep.ms"],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env(), timeout=60,
    )
    assert result.returncode == 0, result.stderr[-500:]
    assert result.stdout.count("\n") > 3 * MAX_NESTING


def test_canon_prints_the_canonical_form(run_cli, corpus_dir):
    result = run_cli("canon", "form1.ms", cwd=corpus_dir)
    assert result.returncode == 0
    assert result.stdout == "A=<a+b+{e+f+g}>\n"


def test_check_clean_structure_exits_0(run_cli, corpus_dir):
    result = run_cli("check", "--phase", "analysis", "order.ms", cwd=corpus_dir)
    assert result.returncode == 0
    assert "clean" in result.stderr


def test_check_derivation_in_analysis_exits_1(run_cli, corpus_dir):
    (corpus_dir / "derived.ms").write_text(
        'A=<Price+Amount (op=d; formula=":Price * 2")>\n', encoding="utf-8"
    )
    result = run_cli("check", "--phase", "analysis", "derived.ms", cwd=corpus_dir)
    assert result.returncode == 1
    assert "L-OPD" in result.stderr


def test_check_json_mode_writes_machine_output(run_cli, corpus_dir):
    (corpus_dir / "labelled.ms").write_text(
        'A=<a (label="Qty")>\n', encoding="utf-8"
    )
    result = run_cli(
        "check", "--phase", "design-memory", "--json", "labelled.ms", cwd=corpus_dir
    )
    assert result.returncode == 0  # warnings are not errors
    payload = json.loads(result.stdout)
    assert payload["phase"] == "design-memory"
    codes = [d["code"] for d in payload["diagnostics"]]
    assert codes == ["L-LABEL"]
    assert payload["diagnostics"][0]["span"]["startLine"] == 1


def test_check_unknown_phase_exits_2(run_cli, corpus_dir):
    result = run_cli("check", "--phase", "bogus", "order.ms", cwd=corpus_dir)
    assert result.returncode == 2


def test_check_offers_exactly_the_lint_phases():
    from msgstruct import cli
    from msgstruct.lint import Phase

    assert cli._PHASES == [p.value for p in Phase]


def test_check_config_override(run_cli, corpus_dir):
    (corpus_dir / "labelled.ms").write_text('A=<a (label="Qty")>\n', encoding="utf-8")
    (corpus_dir / "strict.json").write_text(
        '{"severity": {"-": "error"}}\n', encoding="utf-8"
    )
    result = run_cli(
        "check",
        "--phase",
        "design-memory",
        "--config",
        "strict.json",
        "labelled.ms",
        cwd=corpus_dir,
    )
    assert result.returncode == 1
    assert "error: L-LABEL" in result.stderr


@pytest.mark.parametrize(
    "config", ["[]", '{"g1_wordlist": 5}', '{"severity": []}', '{"report_missing": "false"}']
)
def test_check_config_of_the_wrong_shape_exits_2(run_cli, corpus_dir, config):
    (corpus_dir / "bad.json").write_text(config, encoding="utf-8")
    result = run_cli(
        "check", "--phase", "analysis", "--config", "bad.json", "order.ms", cwd=corpus_dir
    )
    assert result.returncode == 2
    assert "bad config bad.json" in result.stderr
    assert "Traceback" not in result.stderr


def test_config_comes_from_the_environment_too(corpus_dir):
    (corpus_dir / "labelled.ms").write_text('A=<a (label="Qty")>\n', encoding="utf-8")
    (corpus_dir / "strict.json").write_text(
        '{"severity": {"-": "error"}}\n', encoding="utf-8"
    )
    env = cli_env(MSGSTRUCT_CONFIG=str(corpus_dir / "strict.json"))
    result = subprocess.run(
        [sys.executable, "-m", "msgstruct", "check", "--phase", "design-memory", "labelled.ms"],
        capture_output=True,
        text=True,
        cwd=corpus_dir,
        env=env,
        timeout=60,
    )
    assert result.returncode == 1
    assert "error: L-LABEL" in result.stderr


def test_equiv_on_sugar_forms(run_cli, corpus_dir):
    result = run_cli("equiv", "form1.ms", "form4.ms", cwd=corpus_dir)
    assert result.returncode == 0
    assert result.stdout.strip() == "equivalent"


def test_equiv_of_a_file_with_itself(run_cli, corpus_dir):
    result = run_cli("equiv", "order.ms", "order.ms", cwd=corpus_dir)
    assert result.returncode == 0


def test_equiv_of_different_structures(run_cli, corpus_dir):
    result = run_cli("equiv", "order.ms", "assignment.ms", cwd=corpus_dir)
    assert result.returncode == 1
    assert result.stdout.strip() == "not equivalent"


def test_derive_single_event_plantuml(run_cli, corpus_dir):
    (corpus_dir / "single.json").write_text(
        '[{"id": "EV1", "name": "order", "order": 1, "file": "order.ms"}]\n',
        encoding="utf-8",
    )
    result = run_cli(
        "derive", "--events", "single.json", "--format", "plantuml", cwd=corpus_dir
    )
    assert result.returncode == 0
    class_lines = [l for l in result.stdout.splitlines() if l.startswith("class ")]
    assert len(class_lines) == 6
    assert 'Order "1" *-- "*" Destination' in result.stdout


def test_derive_two_events_merges_order(run_cli, corpus_dir):
    result = run_cli("derive", "--events", "events.json", cwd=corpus_dir)
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    order_cls = next(c for c in payload["classes"] if c["name"] == "Order")
    assert [a["name"] for a in order_cls["attributes"]] == [
        "Order number",
        "Request date",
        "Payment type",
        "Planned delivery date",
    ]
    names = [c["name"] for c in payload["classes"]]
    assert len(names) == len(set(names)) == 7


def test_derive_empty_manifest(run_cli, corpus_dir):
    (corpus_dir / "none.json").write_text("[]\n", encoding="utf-8")
    result = run_cli("derive", "--events", "none.json", cwd=corpus_dir)
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"classes": [], "associations": []}


def test_derive_unreadable_structure_file_exits_2(run_cli, corpus_dir):
    (corpus_dir / "dangling.json").write_text(
        '[{"id": "E", "name": "x", "order": 0, "file": "nope.ms"}]\n', encoding="utf-8"
    )
    result = run_cli("derive", "--events", "dangling.json", cwd=corpus_dir)
    assert result.returncode == 2


def test_derive_bad_manifest_exits_2(run_cli, corpus_dir):
    (corpus_dir / "broken.json").write_text('{"not": "a list"}\n', encoding="utf-8")
    result = run_cli("derive", "--events", "broken.json", cwd=corpus_dir)
    assert result.returncode == 2


def test_derive_refuses_lint_errors_without_force(run_cli, corpus_dir):
    (corpus_dir / "bad_formula.ms").write_text(
        'A=<Price+Amount (op=d; formula=":Pricee * 2")>\n', encoding="utf-8"
    )
    (corpus_dir / "bad.json").write_text(
        '[{"id": "E", "name": "x", "order": 0, "file": "bad_formula.ms"}]\n',
        encoding="utf-8",
    )
    refused = run_cli("derive", "--events", "bad.json", cwd=corpus_dir)
    assert refused.returncode == 1
    assert "G2" in refused.stderr
    forced = run_cli("derive", "--events", "bad.json", "--force", cwd=corpus_dir)
    assert forced.returncode == 0
    assert json.loads(forced.stdout)["classes"]


def test_derive_names_the_structure_file_of_a_lint_blocker(run_cli, corpus_dir):
    (corpus_dir / "events").mkdir()
    (corpus_dir / "events" / "bad_formula.ms").write_text(
        'A=<Price+Amount (op=d; formula=":Pricee * 2")>\n', encoding="utf-8"
    )
    (corpus_dir / "events" / "bad.json").write_text(
        '[{"id": "E1", "name": "x", "order": 0, "file": "bad_formula.ms"}]\n',
        encoding="utf-8",
    )
    result = run_cli("derive", "--events", "events/bad.json", cwd=corpus_dir)
    assert result.returncode == 1
    path = os.path.join("events", "bad_formula.ms")
    assert result.stderr.startswith(f"{path}:1:10: error: G2: ")


def test_derive_names_the_structure_file_of_a_d002(run_cli, corpus_dir):
    (corpus_dir / "dup.ms").write_text(
        "A=<x (op=i; domain=text) +\n  x (op=i; domain=text)>\n", encoding="utf-8"
    )
    (corpus_dir / "dup.json").write_text(
        '[{"id": "E1", "name": "x", "order": 0, "file": "dup.ms"}]\n', encoding="utf-8"
    )
    result = run_cli("derive", "--events", "dup.json", cwd=corpus_dir)
    assert result.returncode == 1
    assert result.stderr == "dup.ms:2:3: error: D002: duplicate attribute 'x' in class 'A'\n"


def test_derive_conflicting_domains_exit_1_with_d003(run_cli, corpus_dir):
    (corpus_dir / "as_number.ms").write_text(
        'ORDER=<Number (op=i; domain=number; example="1")>\n', encoding="utf-8"
    )
    (corpus_dir / "as_text.ms").write_text(
        'ORDER=<Number (op=i; domain=text; example="x")>\n', encoding="utf-8"
    )
    (corpus_dir / "conflict.json").write_text(
        '[{"id": "EV1", "name": "a", "order": 1, "file": "as_number.ms"},\n'
        ' {"id": "EV2", "name": "b", "order": 2, "file": "as_text.ms"}]\n',
        encoding="utf-8",
    )
    result = run_cli("derive", "--events", "conflict.json", cwd=corpus_dir)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "conflict.json: error: D003: " in result.stderr
    assert "Traceback" not in result.stderr


def test_derive_prints_a_d003_of_integration_under_the_manifest(tmp_path, monkeypatch, capsys):
    # The test above runs a child process; this one runs in process, so the
    # exact message is pinned where the integration error path is traced.
    from msgstruct import cli

    for name, domain in (("num", "number"), ("txt", "text")):
        (tmp_path / f"{name}.ms").write_text(f"A = < x (op=i; domain={domain}) >\n", encoding="utf-8")
    (tmp_path / "ev.json").write_text(
        '[{"id": "E1", "name": "a", "order": 1, "file": "num.ms"},\n'
        ' {"id": "E2", "name": "b", "order": 2, "file": "txt.ms"}]\n',
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    assert cli.main(["derive", "--events", "ev.json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "ev.json: error: D003: attribute 'x' of class 'A' has conflicting domains (number vs text)\n"


def test_derive_parse_failure_in_event_file_exits_1(run_cli, corpus_dir):
    (corpus_dir / "badparse.json").write_text(
        '[{"id": "E", "name": "x", "order": 0, "file": "vehicle_a.ms"}]\n',
        encoding="utf-8",
    )
    result = run_cli("derive", "--events", "badparse.json", cwd=corpus_dir)
    assert result.returncode == 1
    assert "P002" in result.stderr


def test_fragment_report(run_cli, corpus_dir):
    result = run_cli("fragment", "order.ms", cwd=corpus_dir)
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("ORDER [depth 0, registry]")
    assert "set-of-registries" in lines[1] and "set-of-registries" in lines[2]


def test_fragment_flat_file(run_cli, corpus_dir):
    result = run_cli("fragment", "flat.ms", cwd=corpus_dir)
    assert result.returncode == 0
    assert result.stdout.count("registry") == 1


def test_fragment_json_and_stability(run_cli, corpus_dir):
    first = run_cli("fragment", "--json", "order.ms", cwd=corpus_dir)
    second = run_cli("fragment", "--json", "order.ms", cwd=corpus_dir)
    assert first.returncode == 0
    payload = json.loads(first.stdout)
    assert [f["id"] for f in payload["fragments"]] == [
        "ORDER",
        "ORDER/DESTINATIONS",
        "ORDER/DESTINATIONS/LINES",
    ]
    assert first.stdout == second.stdout


def test_fragment_parse_failure_exits_1(run_cli, corpus_dir):
    result = run_cli("fragment", "vehicle_a.ms", cwd=corpus_dir)
    assert result.returncode == 1
    assert "P002" in result.stderr


def test_tabular_files_are_accepted(run_cli, corpus_dir):
    from conftest import ORDER_TABLE

    (corpus_dir / "order_table.ms").write_text(ORDER_TABLE, encoding="utf-8")
    result = run_cli("equiv", "order.ms", "order_table.ms", cwd=corpus_dir)
    assert result.returncode == 0
    assert result.stdout.strip() == "equivalent"


@pytest.mark.parametrize("command", ["parse", "canon", "fragment"])
def test_artifacts_go_to_stdout_only(run_cli, corpus_dir, command):
    result = run_cli(command, "order.ms", cwd=corpus_dir)
    assert result.returncode == 0
    assert result.stdout and result.stderr == ""


def _run_python(code: str, cwd) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter, which has imported nothing of
    msgstruct yet (this test process holds every module)."""
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
        timeout=60,
    )


_LOADED_AFTER = """
import sys
{statement}
print(" ".join(m for m in sys.modules if m.startswith("msgstruct.") or m in (
    "json", "dataclasses", "inspect", "argparse", "gettext", "locale",
)))
"""


# The records are not dataclasses and the arguments are read from a table,
# so no command pays for that machinery or for argparse's translations.
_UNUSED_BY_ANY = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
_UNUSED_BY_PARSING = {"msgstruct.derive", "msgstruct.fragment", "json"} | _UNUSED_BY_ANY


@pytest.mark.parametrize(
    "argv, not_loaded",
    [
        (["parse", "order.ms"], _UNUSED_BY_PARSING | {"msgstruct.lint"}),
        (["canon", "order.ms"], _UNUSED_BY_PARSING | {"msgstruct.lint"}),
        (["equiv", "order.ms", "order.ms"], _UNUSED_BY_PARSING | {"msgstruct.lint"}),
        (["check", "--phase", "analysis", "order.ms"], _UNUSED_BY_PARSING),
        (["derive", "--events", "events.json"], _UNUSED_BY_ANY | {"msgstruct.fragment"}),
        (["fragment", "order.ms"], _UNUSED_BY_ANY | {"msgstruct.derive", "msgstruct.lint", "json"}),
    ],
    ids=["parse", "canon", "equiv", "check", "derive-events", "fragment"],
)
def test_a_command_loads_only_the_modules_it_runs(corpus_dir, argv, not_loaded):
    statement = f"from msgstruct import cli; cli.main({argv!r})"
    result = _run_python(_LOADED_AFTER.format(statement=statement), corpus_dir)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.splitlines()[-1].split())
    assert "msgstruct.parser" in loaded
    assert not loaded & not_loaded


def test_a_compact_parse_compiles_only_the_token_and_field_patterns(corpus_dir):
    # ORDER holds no formula and every annotation takes the fast path.
    statement = (
        "from msgstruct import cli, core, parser; cli.main(['parse', 'order.ms']); "
        "print(parser._pattern.cache_info().currsize, core._formula_token_re.cache_info().currsize)"
    )
    result = _run_python(statement, corpus_dir)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "2 0"


def test_importing_the_package_loads_no_submodule(corpus_dir):
    result = _run_python(_LOADED_AFTER.format(statement="import msgstruct"), corpus_dir)
    assert result.returncode == 0, result.stderr
    assert not {m for m in result.stdout.split() if m.startswith("msgstruct.")}


_PUBLIC_API = """
import sys
import msgstruct.lint  # the submodule named like the public function `lint`
import msgstruct

star = {}
exec("from msgstruct import *", star)
assert set(star) - {"__builtins__"} == set(msgstruct.__all__)
for name in msgstruct.__all__:
    value = getattr(msgstruct, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("msgstruct."), (name, home)
    assert getattr(home, name) is value, name
    assert star[name] is value, name
    assert name in dir(msgstruct), name
try:
    msgstruct.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("msgstruct.no_such_name did not raise AttributeError")
"""


def test_every_public_name_is_the_object_its_submodule_defines(corpus_dir):
    result = _run_python(_PUBLIC_API, corpus_dir)
    assert result.returncode == 0, result.stderr


# The argument contract: argv -> (exit status, the stream left empty, the
# start of the first stderr line). Usage errors also end in a
# ``msgstruct…: error:`` line and leave stdout empty.
_USAGE = "usage: msgstruct"
_CONTRACT = [
    # The README examples, and the other forms an option is written in.
    (["parse", "order.ms"], 0, "stderr", None),
    (["parse", "--json", "order.ms"], 0, "stderr", None),
    (["canon", "order.ms"], 0, "stderr", None),
    (["equiv", "form1.ms", "form4.ms"], 0, "stderr", None),
    (["check", "--phase", "analysis", "order.ms"], 0, "stdout", "order.ms: clean"),
    (["derive", "--events", "events.json", "--format", "plantuml"], 0, "stderr", None),
    (["fragment", "order.ms", "--json"], 0, "stderr", None),
    (["check", "--phase=analysis", "order.ms"], 0, "stdout", "order.ms: clean"),
    (["check", "order.ms", "--json", "--phase", "design-memory"], 0, "stderr", None),
    (["derive", "--format=plantuml", "--events=events.json"], 0, "stderr", None),
    (["parse", "--", "order.ms"], 0, "stderr", None),
    # Help, for the program and for each command.
    *(([*command, flag], 0, "stderr", None)
      for command in ([], ["parse"], ["canon"], ["check"], ["equiv"], ["derive"], ["fragment"])
      for flag in ("-h", "--help")),
    (["check", "order.ms", "-h"], 0, "stderr", None),
    # Usage errors.
    ([], 2, "stdout", _USAGE),
    (["bogus"], 2, "stdout", _USAGE),
    (["--json"], 2, "stdout", _USAGE),
    (["parse"], 2, "stdout", _USAGE),
    (["equiv", "order.ms"], 2, "stdout", _USAGE),
    (["parse", "order.ms", "extra.ms"], 2, "stdout", _USAGE),
    (["canon", "order.ms", "--json"], 2, "stdout", _USAGE),
    (["parse", "--bogus", "order.ms"], 2, "stdout", _USAGE),
    (["parse", "--json=yes", "order.ms"], 2, "stdout", _USAGE),
    (["check", "order.ms"], 2, "stdout", _USAGE),
    (["check", "--phase", "order.ms"], 2, "stdout", _USAGE),
    (["derive"], 2, "stdout", _USAGE),
    (["derive", "--format", "plantuml"], 2, "stdout", _USAGE),
    (["check", "--phase", "bogus", "order.ms"], 2, "stdout", _USAGE),
    (["check", "--phase=bogus", "order.ms"], 2, "stdout", _USAGE),
    (["derive", "--events", "events.json", "--format", "svg"], 2, "stdout", _USAGE),
    (["derive", "--events", "events.json", "--format="], 2, "stdout", _USAGE),
]


@pytest.mark.parametrize("argv, status, empty, first_err", _CONTRACT, ids=[" ".join(c[0]) or "-" for c in _CONTRACT])
def test_the_argument_contract(corpus_dir, monkeypatch, capsys, argv, status, empty, first_err):
    from msgstruct import cli

    monkeypatch.chdir(corpus_dir)
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # its code counts as the status
        got = exc.code
    out, err = capsys.readouterr()
    assert got == status, err
    assert {"stdout": out, "stderr": err}[empty] == ""
    if first_err is not None:
        assert err.splitlines()[0].startswith(first_err), err
    if status == 2:
        assert any(line.startswith("msgstruct") and ": error: " in line for line in err.splitlines()), err
    elif "-h" in argv or "--help" in argv:
        command = [word for word in argv[:1] if not word.startswith("-")]
        assert out.startswith(" ".join([_USAGE, *command, ""])), out
