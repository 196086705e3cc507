"""Print the peak RSS and the median wall time of each kind of call in a
perfbench run record, the call with the largest peak first.

A run record is the ``.perfbench/<workload>-s<seed>-t0.json`` file that
``perfbench/run.py --trace 0`` writes; its ``calls`` list holds each call's
``family``, the first two words of its ``argv``, ``rss_mb`` and ``wall_s``.
A kind of call is its family and the words of that argv that are not
flags. The tool only reads the records. Run it from anywhere as

    python tools/bench_calls.py .perfbench/many-regions-s1-t0.json [more records]

and it prints one table per record.
"""

import json
import statistics
import sys


def call_kinds(calls):
    """``{kind: (max rss_mb, median wall_s, number of calls)}`` of a record's calls."""
    by_kind = {}
    for call in calls:
        words = " ".join(w for w in call["argv"] if not w.startswith("-"))
        by_kind.setdefault(f"{call['family']}: {words}", []).append(call)
    return {kind: (max(c["rss_mb"] for c in group), statistics.median(c["wall_s"] for c in group),
                   len(group)) for kind, group in by_kind.items()}


def main(paths):
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        print(f"{path}: {record['workload']}, seed {record['seed']}, "
              f"{len(record['calls'])} calls")
        print(f"{'call':32} {'max_rss_mb':>10} {'median_wall_s':>13} {'n':>4}")
        kinds = call_kinds(record["calls"])
        for kind, (rss, wall, n) in sorted(kinds.items(), key=lambda kv: (-kv[1][0], kv[0])):
            print(f"{kind:32} {rss:10.1f} {wall:13.4f} {n:4d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]) if len(sys.argv) > 1 else __doc__)
