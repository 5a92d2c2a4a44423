"""Starts the benchmark's CLI runs and reports each one's wall time and peak RSS.

Linux carries a process's memory high-water mark across fork and exec, so a
child's ``ru_maxrss`` is at least the resident size of the process that
spawned it.  ``run.py`` parses outputs of tens of megabytes and grows; this
process only spawns and waits, so it stays smaller than any CLI run and the
peak it reports is the child's own.

Protocol: one JSON request per line on standard input, ``{"argv", "cwd",
"env", "limit"}``; one JSON reply per line on standard output, ``{"wall",
"maxrss_kb", "code"}``.  The child's output goes to ``.stdout`` and
``.stderr`` in ``cwd``; a child still running after ``limit`` seconds is
killed.  Exits at the end of its input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(os.path.join(req["cwd"], ".stdout"), "wb") as out, \
                open(os.path.join(req["cwd"], ".stderr"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(req["limit"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "maxrss_kb": usage.ru_maxrss,
                          "code": proc.returncode}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
