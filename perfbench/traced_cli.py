"""``python -m msgstruct`` with layer spans recorded around the public calls
the CLI makes.

    python perfbench/traced_cli.py SPANS.json <msgstruct arguments>

The spans are written to SPANS.json when the command ends, whether it
returns, exits or raises; exit status and stderr are the command's own.
"""

import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.spans import Tracer  # noqa: E402


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    import msgstruct.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.span("cli.main", msgstruct.cli.main, argv)
    finally:
        tracer.dump(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
