"""One timed relcomp run in a fresh interpreter; started by run.py.

usage: python3 child.py T0 RUN_DIR TRACE RUN_ID [-- RELCOMP ARGS...]

T0 is the parent's ``time.monotonic()`` just before it started this process
(the clock is system-wide), so set-up time is interpreter start until
``relcomp.cli`` is imported.  Without relcomp arguments the child only
measures set-up.  Otherwise it calls ``relcomp.cli.main`` in-process,
writes the captured stdout and stderr (and, with TRACE 1, the spans) into
RUN_DIR, and prints its measurements as one JSON line.
"""

import sys
import time

T0 = float(sys.argv[1])
import relcomp.cli  # noqa: E402

SETUP_S = time.monotonic() - T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def main():
    run_dir, trace, run_id = sys.argv[2], sys.argv[3] == "1", sys.argv[4]
    argv = sys.argv[6:]
    result = {"setup_s": SETUP_S}
    if not argv:
        print(json.dumps(result))
        return 0
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = relcomp.cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if tracer:
        tracer.uninstall()
        tracer.write(os.path.join(run_dir, "spans.jsonl"))
    for fname, buf in (("stdout.txt", out), ("stderr.txt", err)):
        with open(os.path.join(run_dir, fname), "wb") as fh:
            fh.write(buf.getvalue().encode())
    result.update(exit=code, wall_s=wall, cpu_s=cpu,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
