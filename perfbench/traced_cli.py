"""Run the chargegame CLI with the layer tracer installed.

The traced cli-configs run launches each command through this file
instead of ``python -m chargegame.cli``.  It writes the process's span
totals and spans into ``--totals-dir`` and exits with the CLI's code.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import json  # noqa: E402

import tracer as tracing  # noqa: E402
from chargegame import cli  # noqa: E402


def main() -> int:
    split = sys.argv.index("--")
    totals_dir = sys.argv[sys.argv.index("--totals-dir") + 1]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[split + 1:])
    finally:
        tracer.uninstall()
    os.makedirs(totals_dir, exist_ok=True)
    stem = os.path.join(totals_dir, str(os.getpid()))
    with open(stem + ".totals.json", "w") as handle:
        json.dump(tracer.totals(), handle)
    tracer.write(stem + ".spans")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
