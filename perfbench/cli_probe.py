"""`qcontexts <args>` with its start-up phases timed; used by the traced `cli` workload.

Run as `python perfbench/cli_probe.py run FILE ...`. The report goes to stdout
exactly as `python -m qcontexts.cli` writes it; after it, one JSON line on
stderr carries CLOCK_MONOTONIC stamps (system-wide, so comparable with the
parent's spawn time): interpreter ready, `qcontexts.cli` imported, `main` done.
"""

import time

start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import sys  # noqa: E402

from qcontexts import cli  # noqa: E402

imported_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
code = cli.main(sys.argv[1:])
main_done_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402

sys.stderr.write(json.dumps({"start_ns": start_ns, "imported_ns": imported_ns, "main_done_ns": main_done_ns}) + "\n")
sys.exit(code)
