"""Small launcher process that starts, times and reaps the benchmark's calls.

Linux carries a process's peak RSS across fork and exec, so a child forked
from the benchmark process (which holds the inputs in memory) would report
the benchmark's peak as its own. This process stays small and does the
forking instead.

Protocol: one JSON request per stdin line, {"argv", "cwd", "env", "out",
"err", "timeout"}; one JSON reply per stdout line, {"rc", "wall", "user",
"sys", "maxrss_kb", "timed_out"}. It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req):
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"],
                                env=req["env"])
        expired = threading.Event()

        def kill():
            expired.set()
            proc.kill()

        timer = threading.Timer(req["timeout"], kill)
        timer.start()
        try:
            # wait4 reaps this child alone, so its rusage is the call's own
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall, "user": usage.ru_utime,
            "sys": usage.ru_stime, "maxrss_kb": usage.ru_maxrss, "timed_out": expired.is_set()}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
