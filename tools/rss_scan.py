"""Scan the peak RSS of one slzkit call over the lengths of its --out path.

The byte lengths of argv and of the environment move where the heap of a
call lies, and with it the call's peak RSS. This tool runs
``python -m slzkit.cli ARGV`` in a fresh process for each length from FIRST
to LAST, one process at a time, with the path after ``--out`` padded with
``x`` to that many characters. It reads each call's peak RSS from wait4
and prints one line per length, then the min, median and max in MB
(KiB / 1024, as perfbench reports them). Run it from anywhere as

    python tools/rss_scan.py FIRST LAST ARGV...
    python tools/rss_scan.py 40 71 refine-demo --base 448 --hidden 16 --T 4 --out /tmp/scan/o

The calls run this checkout's ``src``, put first on PYTHONPATH, with the
environment otherwise as given. A padded path must not exist before its
call; the tool removes what the call wrote there. Linux carries the peak
RSS of a process into the children it forks, so the scanning process
imports nothing heavy and stays far below the calls it measures.
"""

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mb(argv, env):
    """The peak RSS of one ``python -m slzkit.cli argv`` process, in MB;
    SystemExit with the call's stderr if it fails."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "slzkit.cli", *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        # wait4 reaps this child alone, so its rusage is the call's own
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            raise SystemExit(f"exit {proc.returncode}: {' '.join(argv)}\n"
                             f"{err.read().decode(errors='replace')}")
    return usage.ru_maxrss / 1024.0


def main(args):
    if len(args) < 3 or not all(a.isdigit() for a in args[:2]):
        return __doc__
    first, last, argv = int(args[0]), int(args[1]), args[2:]
    if argv.count("--out") != 1 or argv.index("--out") == len(argv) - 1:
        return "the slzkit argv needs one --out PATH"
    at = argv.index("--out") + 1
    if first < len(argv[at]) or last < first:
        return f"lengths must run up from {len(argv[at])}, the length of {argv[at]}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    readings = []
    for length in range(first, last + 1):
        out = argv[at] + "x" * (length - len(argv[at]))
        if os.path.lexists(out):
            return f"{out} exists; the scan writes only paths that do not"
        try:
            readings.append(peak_rss_mb(argv[:at] + [out] + argv[at + 1:], env))
        finally:
            if os.path.isdir(out):
                shutil.rmtree(out)
            elif os.path.lexists(out):
                os.remove(out)
        print(f"{length:6d} {readings[-1]:8.1f}", flush=True)
    print(f"min {min(readings):.1f} median {statistics.median(readings):.1f} "
          f"max {max(readings):.1f} MB over {len(readings)} lengths")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
