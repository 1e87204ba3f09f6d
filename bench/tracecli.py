"""Run one ``afmcavity`` CLI command with span recording, for traced benchmark runs.

    python3 bench/tracecli.py SPANS_JSON -- <afmcavity arguments>

Behaves like ``python3 -m afmcavity.cli <arguments>`` (same exit code) and
writes the spans and counts it recorded to SPANS_JSON.
"""

import json
import sys

import afmcavity
import afmcavity.cli
from spans import Tracer


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracecli.py SPANS_JSON -- ARGS...")
    tracer = Tracer()
    tracer.install(afmcavity)
    try:
        code = afmcavity.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts["setup"]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
