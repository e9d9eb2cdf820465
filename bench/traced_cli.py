"""Run `repchain` main(argv) in a child process with the span tracer installed.

Usage: python3 bench/traced_cli.py SPANS_JSON ARGV...

Writes the child's span rollup and records to SPANS_JSON, then exits with
main's return code. The span clock is time.perf_counter, which the parent
process shares on Linux, so records merge onto the parent's timeline.
"""

import json
import sys

from spans import Tracer


def run() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.keep = True
    tracer.push("cli.import")
    import repchain.cli
    tracer.pop()
    tracer.install()
    try:
        code = repchain.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
