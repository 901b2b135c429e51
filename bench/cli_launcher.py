"""Run one traced CLI command.

    python3 bench/cli_launcher.py STATS.json <testingplus arguments>...

Imports `testingplus.cli` (timing the import), installs the benchmark's
wrappers, calls `testingplus.cli.main` with the remaining arguments and
writes the span aggregates and spans to STATS.json. The exit code is the
command's.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import testingplus.cli as cli

    import_ms = (time.perf_counter() - t0) * 1000
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    tracer.active = True
    try:
        return cli.main(argv)
    finally:
        tracer.active = False
        with open(stats_path, "w") as fh:
            json.dump({"import_ms": import_ms, "stats": tracer.dump(),
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
