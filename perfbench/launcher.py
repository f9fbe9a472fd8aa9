"""Starts the benchmark's commands from a small process and reports their cost.

Reads one JSON request per stdin line, ``{"argv": [...], "log": path}``, runs
the command to completion with stdout discarded and stderr appended to
``log``, and answers with one JSON line ``[exit code, wall s, peak RSS MB]``.

Linux carries a process's RSS high-water mark across fork and exec, so a
child started by the benchmark process would report at least the
benchmark's own peak, which holds whole input files while it permutes and
checks them.  This process stays small, so ``ru_maxrss`` of each child is
the command's own peak.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "ab") as err:
            started = perf_counter()
            proc = subprocess.Popen(
                request["argv"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, wall, usage.ru_maxrss / 1024.0]), flush=True)


if __name__ == "__main__":
    main()
