"""
Run one command and report its wall time, CPU time and peak memory.

    python3 -S perfbench/launch.py OUT ERR CMD...

The command's stdout goes to OUT and its stderr to ERR. The last line of
this script's stdout is ``{"wall": s, "cpu": s, "rss_mib": MiB, "code": n}``.

On Linux a process's ``ru_maxrss`` starts from the peak memory of the
process that spawned it. ``run.py`` holds reports and reference tables, so
it spawns every timed process through this small one, which imports only
``os``, ``json`` and ``time``: then ``rss_mib`` is the command's own peak.
"""

import json
import os
import sys
import time


def main(argv) -> int:
    out_path, err_path, *cmd = argv
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(json.dumps({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                      "rss_mib": usage.ru_maxrss / 1024,
                      "code": os.waitstatus_to_exitcode(status)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
