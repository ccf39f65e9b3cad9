"""Small process launcher for the cli_cold workload.

Reads one JSON request per line on stdin (``argv``, ``cwd``, ``env``),
runs it, and answers one JSON line: spawn-to-exit wall seconds, exit
code, stdout, stderr and the child's peak resident set.

Children are spawned from this small interpreter rather than from the
benchmark process, because a child's peak-RSS figure starts from the
memory of the process it was forked from.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 120.0


def run(request):
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        request["argv"],
        cwd=request["cwd"],
        env=request["env"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "wall_s": wall,
        "returncode": proc.returncode,
        "stdout": out,
        "stderr": err[0],
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
