"""The machine's speed during a run, from fixed reference work that runs no
``msgstruct`` code, interleaved with the workload's operations.

The machine is shared. Its speed drifts by up to a half over spells of
seconds to minutes, and a whole 45 s run can fall inside a slow spell, so
the run's absolute times move with the spell. The gated times are
therefore scaled to a reference speed: a time measured while the reference
work ran at ``k`` times its nominal cost is divided by ``k``. A change to
the program moves the scaled time as much as the measured one, since the
reference work does not depend on the program. The measured times are
printed beside the scaled ones.

There are two kinds of reference work, matched to how a workload spends
its time:

- **In process** (``project_batch``, ``wide_document``): ``loop``, a
  pure-Python tokenise, group and serialise of a fixed text, like the
  parser's and exporters' work. Its figure over a run is the 5th
  percentile of its tries, which, like the best time of a program call,
  comes from the run's quiet moments.
- **CLI children** (``cli_paper``): a bare ``python -c pass``. Its figure
  is the median of its tries, as for the CLI invocations.

The set-up time is not scaled (see README.md). The nominal costs are those of this
machine in a quiet spell (see README.md, *Machine*).
"""

from __future__ import annotations

import json
import re
import statistics
from time import perf_counter

LOOP_NOMINAL_S = 285e-6
SPAWN_NOMINAL_S = 0.055

_TEXT = " ".join(f"F{i}=<a{i}, b{i} (ex=v{i}), {{c{i}}}>" for i in range(40))
_TOKEN = re.compile(r"\w+|[<>{}(),=]")


def _loop() -> str:
    positions: dict = {}
    for i, token in enumerate(_TOKEN.findall(_TEXT)):
        positions.setdefault(token, []).append(i)
    return json.dumps(sorted((k, len(v)) for k, v in positions.items()))


def loop() -> float:
    """One try of the in-process reference work; its wall time."""
    start = perf_counter()
    _loop()
    return perf_counter() - start


def factor(name: str, tries: list[float]) -> float:
    """How many times slower than nominal the machine ran the reference
    work during the run."""
    if name == "cli_paper":
        return statistics.median(tries) / SPAWN_NOMINAL_S
    return statistics.quantiles(tries, n=20)[0] / LOOP_NOMINAL_S
