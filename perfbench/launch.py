"""Traced stand-in for the ``exqip`` command, for the cold-process workloads.

    python3 perfbench/launch.py SPANS_FILE -- <exqip arguments>

Imports exqip, installs the benchmark's span wrappers, calls
``exqip.cli.main(argv)``, writes the spans to SPANS_FILE and exits with the
command's exit code.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    spans_file = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: launch.py SPANS_FILE -- ARGS...")
    import tracer

    t = tracer.Tracer()
    t.install()
    import exqip.cli

    try:
        return exqip.cli.main(sys.argv[3:])
    finally:
        t.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
