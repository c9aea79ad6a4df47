"""One timed CLI command, run as its own process by ``bench/run.py``.

    python3 bench/launcher.py [--traced] -- <noma-aloha arguments>

The parent puts its CLOCK_MONOTONIC reading from just before the spawn in
BENCH_T0 and a pipe's write end in BENCH_REPORT_FD.  This process measures
set-up (interpreter start plus ``import noma_aloha.cli``) and the time in
``noma_aloha.cli.main``, and writes both to the pipe as one JSON object.
The parent reads the process's wall time and peak RSS itself.

With ``--traced`` the public functions the CLI calls into are wrapped, and
the report adds ``self_s``: time in ``main`` minus time in those calls.
``--import-only`` stops after the import (the parent's warm-up).
"""

import contextlib
import os
import sys
import time

WRAPPED = ("coordinate_ascent", "run_simulation", "success_probability", "average_throughput")


def main() -> int:
    t0 = float(os.environ["BENCH_T0"])
    fd = int(os.environ["BENCH_REPORT_FD"])
    split = sys.argv.index("--")
    flags, argv = sys.argv[1:split], sys.argv[split + 1 :]
    traced = "--traced" in flags

    import noma_aloha.cli as cli

    t_ready = time.monotonic()
    with contextlib.ExitStack() as stack:
        spans = []
        if traced:
            from probe import Counted

            spans = [stack.enter_context(Counted(cli, name)) for name in WRAPPED]
        t_main = time.monotonic()
        rc = 0 if "--import-only" in flags else cli.main(argv)
        t_done = time.monotonic()

    import json

    report = {
        "rc": rc,
        "setup_s": t_ready - t0,
        "main_s": t_done - t_main,
        "package": os.path.dirname(os.path.abspath(cli.__file__)),
    }
    if traced:
        report["self_s"] = report["main_s"] - sum(c.seconds for c in spans)
    os.write(fd, json.dumps(report).encode())
    os.close(fd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
