"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 perfbench/rep.py SPEC_JSON`` with ``src`` on ``PYTHONPATH``
(``run.py`` starts it that way).  Prints the repetition's measurements as
one JSON line on standard output.
"""

from __future__ import annotations

import json
import sys

from workloads import run_repetition


def main() -> None:
    print(json.dumps(run_repetition(json.loads(sys.argv[1]))))


if __name__ == "__main__":
    main()
