"""Stage times at three input sizes, to show which stages grow faster than
their input.

    python3 perfbench/scaling.py

Times ``parser.parse`` and ``derive.derive_view`` on one flat aggregation of
2000, 4000 and 8000 annotated fields, and ``derive.integrate`` on two views
whose root classes share one name and each hold half of those attributes.
Each figure is the median of three calls. A linear stage doubles from one
size to the next; a quadratic one quadruples.
"""

from __future__ import annotations

import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WIDTHS = (2000, 4000, 8000)


def _median_time(fn, *args) -> float:
    times = []
    for _ in range(3):
        start = perf_counter()
        fn(*args)
        times.append(perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    from msgstruct import CommunicativeEvent, derive_view, integrate, parse

    from perfbench import gen, model

    rows: dict[str, list[float]] = {"parser.parse": [], "derive.derive_view": [], "derive.integrate": []}
    for width in WIDTHS:
        text = model.render(gen.ledger(1, width))
        ms = parse(text)
        rows["parser.parse"].append(_median_time(parse, text))
        rows["derive.derive_view"].append(_median_time(derive_view, CommunicativeEvent("EV1", "ledger", 1, ms)))
        half = width // 2
        views = [
            derive_view(CommunicativeEvent(f"EV{i}", "ledger", i, _slice_root(ms, part)))
            for i, part in enumerate((slice(0, half), slice(half, width)), start=1)
        ]
        rows["derive.integrate"].append(_median_time(integrate, views))

    print(f"{'stage (seconds)':24s}" + "".join(f"{w:>10d}" for w in WIDTHS))
    for stage, times in rows.items():
        print(f"{stage:24s}" + "".join(f"{t:10.4f}" for t in times))
    return 0


def _slice_root(ms, part: slice):
    """The structure restricted to a slice of its root's fields."""
    return replace(ms, root=replace(ms.root, children=ms.root.children[part]))


if __name__ == "__main__":
    sys.exit(main())
