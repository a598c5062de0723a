"""Run one toruszeta CLI job in a fresh interpreter and report its costs.

    python3 child.py SRC_DIR TRACE -- CLI_ARGS...

Times the import of ``toruszeta.cli`` (set-up) and the call
``toruszeta.cli.main(CLI_ARGS)`` (compute), with the traced layers wrapped
when TRACE is 1.  Whatever the CLI prints is left as it is; the report
follows on stderr as one line, ``REPORT_PREFIX`` plus JSON, and the process
exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

REPORT_PREFIX = "@@toruszeta-bench-report@@ "


def main() -> int:
    src, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC_DIR TRACE -- CLI_ARGS...")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import toruszeta.cli as cli
    setup_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"toruszeta imported from {cli.__file__}, not {src}")
    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = tracer.call_main(cli.main, argv) if tracer else cli.main(argv)
    compute_s = time.perf_counter() - start
    sys.stdout.flush()
    report = {"code": code, "setup_s": setup_s, "compute_s": compute_s,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        report["spans"] = tracer.spans
        report["missing"] = tracer.missing
    sys.stderr.write("\n" + REPORT_PREFIX + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
