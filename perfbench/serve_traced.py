"""Run ``repro`` CLI commands with the query-layer tracer installed.

Usage: ``python perfbench/serve_traced.py --trace-out FILE -- query serve DIR``

The tracer goes in before the server builds its index, and its aggregate
is written to FILE when the command returns (``repro query serve`` returns
on SIGTERM).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import install_query  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", required=True, type=Path)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    # Import the modules whose functions the tracer patches by name.
    import repro.cli
    import repro.query.reader  # noqa: F401
    import repro.query.server  # noqa: F401

    tracer = Tracer()
    install_query(tracer)
    try:
        return repro.cli.main(argv)
    finally:
        args.trace_out.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
