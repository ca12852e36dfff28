"""The command line is total: for any argument list, and for any bytes
given as a structure file, an events manifest or a lint configuration,
``cli.main`` returns 0, 1 or 2 and raises nothing.

These hypothesis suites run on their own, outside the acceptance gate's
property budget: derandomized, with a bounded number of examples.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies as strat
from msgstruct import cli
from msgstruct.parser import to_text

_TOTALITY = settings(max_examples=60, deadline=None, derandomize=True)

# Bytes that are text of the notation, near misses of it, or neither.
_STRUCTURE_BYTES = st.one_of(
    st.binary(max_size=200),
    st.text(alphabet='<>{}[]|+=();:"\\# \n\t.-1xyzAé', max_size=80).map(str.encode),
    st.builds(to_text, strat.structures(), st.sampled_from(["compact", "tabular"])).map(str.encode),
)

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def _entries(values):
    keys = st.sampled_from(["id", "name", "order", "file"])
    files = st.sampled_from(["a.ms", "s.ms", "missing.ms", "", "."])
    entry = st.fixed_dictionaries(
        {"id": values, "name": values, "order": st.one_of(st.integers(-2, 3), values), "file": files}
    )
    return st.lists(st.one_of(entry, st.dictionaries(keys, values, max_size=4)), max_size=3)


_MANIFEST_BYTES = st.one_of(
    st.binary(max_size=120),
    _JSON.map(json.dumps).map(str.encode),
    _entries(_JSON_SCALARS).map(json.dumps).map(str.encode),
)

_CONFIG_BYTES = st.one_of(
    st.binary(max_size=120),
    _JSON.map(json.dumps).map(str.encode),
    st.fixed_dictionaries(
        {},
        optional={
            "severity": st.dictionaries(st.sampled_from(["--", "-", "+", "++", "~"]), _JSON, max_size=4),
            "g1_wordlist": _JSON,
            "report_missing": _JSON,
        },
    ).map(json.dumps).map(str.encode),
)

_DEEP_JSON = b"[" * 100_000


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("totality")
    (path / "a.ms").write_text("A=<a (op=i; domain=number) + {b + c}>\n", encoding="utf-8")
    (path / "events.json").write_text(
        json.dumps([{"id": "EV1", "name": "a", "order": 1, "file": "a.ms"},
                    {"id": "EV2", "name": "s", "order": 2, "file": "s.ms"}]),
        encoding="utf-8",
    )
    return path


def _statuses(*argvs: list[str]) -> list[int]:
    out = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            out.append(cli.main(argv))
    return out


@_TOTALITY
@given(data=_STRUCTURE_BYTES)
@example(data=b"A=<x (op=d; formula=\"" + b"(" * 5000 + b":x" + b")" * 5000 + b"\")>")
@example(data=b"\xff\xfeA=<a>")
def test_cli_is_total_on_structure_bytes(workdir, data):
    (workdir / "s.ms").write_bytes(data)
    s, a, events = (str(workdir / name) for name in ("s.ms", "a.ms", "events.json"))
    statuses = _statuses(
        ["parse", s],
        ["parse", "--json", s],
        ["canon", s],
        ["equiv", s, a],
        ["fragment", s],
        ["fragment", "--json", s],
        *(["check", "--phase", phase, s] for phase in cli._PHASES),
        ["check", "--json", "--phase", "analysis", s],
        ["derive", "--events", events],
        ["derive", "--force", "--format", "plantuml", "--events", events],
    )
    assert set(statuses) <= {0, 1, 2}


@_TOTALITY
@given(data=_MANIFEST_BYTES)
@example(data=_DEEP_JSON)
@example(data=b'[{"id": 1, "name": "a", "order": Infinity, "file": "a.ms"}]')
def test_cli_is_total_on_manifest_bytes(workdir, data):
    (workdir / "m.json").write_bytes(data)
    m = str(workdir / "m.json")
    statuses = _statuses(
        ["derive", "--events", m],
        ["derive", "--force", "--format", "plantuml", "--events", m],
    )
    assert set(statuses) <= {0, 1, 2}


@_TOTALITY
@given(data=_CONFIG_BYTES)
@example(data=_DEEP_JSON)
@example(data=b'{"report_missing": "false"}')
def test_cli_is_total_on_config_bytes(workdir, data):
    (workdir / "c.json").write_bytes(data)
    c, a = str(workdir / "c.json"), str(workdir / "a.ms")
    events = str(workdir / "events.json")
    statuses = _statuses(
        ["check", "--config", c, "--phase", "analysis", a],
        ["check", "--config", c, "--json", "--phase", "design-memory", a],
        ["derive", "--config", c, "--events", events],
    )
    assert set(statuses) <= {0, 1, 2}


_OPTIONS = ["--json", "--phase", "--config", "--events", "--format", "--force"]
# Files of the workdir, relative to it; "." is a directory.
_FILES = ["a.ms", "events.json", "c.json", "missing.ms", "."]
# Command names, option names bare and with a value (good or bad), help,
# ``--``, files and junk.
_ARGV = st.lists(
    st.one_of(
        st.sampled_from(["parse", "canon", "check", "equiv", "derive", "fragment", "-h", "--help", "--", "-", ""]),
        st.sampled_from(_OPTIONS),
        st.builds(
            "{}={}".format,
            st.sampled_from(_OPTIONS),
            st.sampled_from([*_OPTIONS, *cli._PHASES, "json", "plantuml", "bogus", "", *_FILES]),
        ),
        st.sampled_from(_FILES),
        st.text(alphabet="-=abh x.", max_size=6),
    ),
    max_size=6,
)


@_TOTALITY
@given(argv=_ARGV)
@example(argv=[])
@example(argv=["-h", "bogus"])
@example(argv=["check", "--phase=", "--config"])
@example(argv=["derive", "--events", "events.json", "--format=plantuml", "--force"])
def test_cli_is_total_on_argv(workdir, argv):
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        (status,) = _statuses(argv)
    except SystemExit as exc:  # its code counts as the status
        status = exc.code
    finally:
        os.chdir(cwd)
    assert status in (0, 1, 2), argv
