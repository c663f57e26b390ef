"""Run the ryddephase CLI in this process, for the benchmark's timing.

usage: python3 entry.py SRC READY_FILE SPANS_DIR|- [CLI ARGS...]

Imports `ryddephase.cli` from SRC, writes into READY_FILE the CLOCK_MONOTONIC
time (ns) at which `main` is about to start, then runs `main(CLI ARGS)` and
exits with its code.  With a SPANS_DIR the tracer's wrappers are installed
first and the names it could not find are written to SPANS_DIR/missing.json.
Without CLI ARGS it stops after the import: a set-up probe.
"""

import json
import os
import sys
import time


def main() -> int:
    src, ready_file, spans_dir = sys.argv[1:4]
    cli_args = sys.argv[4:]
    recorder = None
    if spans_dir != "-":
        import tracer  # from this file's directory, still first on sys.path
    sys.path[0] = src
    import ryddephase.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"ryddephase imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    if spans_dir != "-":
        recorder, missing = tracer.install(spans_dir)
        with open(os.path.join(spans_dir, "missing.json"), "w") as fh:
            json.dump(missing, fh)
    with open(ready_file, "w") as fh:
        fh.write(str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)))
    if not cli_args:
        return 0
    if recorder is None:
        return cli.main(cli_args)
    return recorder.run("cli.main", cli.main, (cli_args,))


if __name__ == "__main__":
    sys.exit(main())
