"""Run one nospillover CLI command with every traced function wrapped.

    python trace_child.py SPANS_JSON CLI_ARGS...

Imports ``nospillover.cli`` (timed as the ``cli.import`` span), installs the
wrappers of ``tracing``, runs the command, restores the wrappers, writes this
process's spans to SPANS_JSON and exits with the command's exit code.
"""

import json
import sys
import time

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import nospillover.cli

    end = time.perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracer.record("cli.import", start, end)
    replaced, _ = tracing.install(tracer)
    try:
        code = tracer.call("cli.main", nospillover.cli.main, (argv,))
    finally:
        tracing.restore(replaced)
        with open(spans_path, "w", encoding="utf-8") as out:
            json.dump(tracing.to_json(tracer.spans), out)
    sys.exit(code)
