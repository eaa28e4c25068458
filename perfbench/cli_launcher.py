"""Traced CLI child: runs ``deltainv.cli.main`` with the tracer installed.

    python3 perfbench/cli_launcher.py SPANS_OUT ARGS...

behaves like ``python -m deltainv.cli ARGS...`` (same stdout, stderr and
exit code) and writes the recorded spans to SPANS_OUT as JSON.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import deltainv.cli

    tracer = Tracer()
    tracer.install()
    try:
        return deltainv.cli.main(argv)
    finally:
        tracer.uninstall()
        names, starts, ends, parents, _ = tracer.spans()
        # descent results as (f, converged); the frame is not needed
        results = {i: [float(r[0]), bool(r[2])] for i, r in tracer.results.items()}
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(
                {"name": names, "start": starts, "end": ends, "parent": parents,
                 "results": results},
                fh,
            )


if __name__ == "__main__":
    sys.exit(main())
