"""Run one command and print its wall time and resource use as one JSON line.

    python3 perfbench/launch.py PROGRAM [ARGUMENTS ...]

A process's peak RSS starts at its parent's RSS when it is forked, and the
benchmark's harness holds the per-class reference in memory (about 100 MB for
degenerate-3x9).  So the harness starts this small launcher, and the
launcher starts the campaign and measures it.  CPU time and peak RSS come
from wait4 and cover the command and every worker it reaped.  The command's
standard output is discarded; its standard error is this process's.
"""

import json
import os
import sys
import time


def main(argv) -> int:
    if not argv:
        sys.exit("usage: launch.py PROGRAM [ARGUMENTS ...]")
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    print(json.dumps({"exit": os.waitstatus_to_exitcode(status), "wall_s": wall,
                      "cpu_s": usage.ru_utime + usage.ru_stime,
                      "max_rss_mb": usage.ru_maxrss / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
