"""Command-line behaviour: outputs, formats, and exit codes."""

from __future__ import annotations

import json
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


@pytest.mark.parametrize("config", ["[]", '{"g1_wordlist": 5}', '{"severity": []}'])
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
