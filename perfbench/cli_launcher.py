"""Run the ellipsurf CLI with layer tracing installed.

    python3 perfbench/cli_launcher.py SPANS_JSON <ellipsurf arguments...>

Imports ``ellipsurf.cli`` (timed), installs the wrappers of
``tracing.Tracer``, calls ``ellipsurf.cli.main`` with the remaining
arguments, writes the spans, counts and import time to SPANS_JSON and
exits with main's exit code.  ``src`` must be on PYTHONPATH.
"""

import json
import sys
import time


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import ellipsurf.cli
    import_s = time.perf_counter() - t0

    import tracing

    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        code = ellipsurf.cli.main(argv)
    finally:
        tracer.uninstall()
        data = tracer.dump()
        data["import_s"] = import_s
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
