import statistics
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "rss_scan.py"


def _scan(first, last, *argv):
    return subprocess.run([sys.executable, str(TOOL), str(first), str(last), *argv],
                          capture_output=True, text=True)


def test_rss_scan_runs_one_call_per_path_length_and_removes_its_output(tmp_path):
    out = str(tmp_path / "o")
    n = len(out)
    done = _scan(n, n + 2, "refine-demo", "--base", "28", "--hidden", "2", "--T", "1",
                 "--out", out)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    rows = [line.split() for line in lines[:-1]]
    assert [int(length) for length, _ in rows] == [n, n + 1, n + 2]
    rss = [float(mb) for _, mb in rows]
    assert all(10.0 < mb < 1000.0 for mb in rss)
    assert lines[-1] == (f"min {min(rss):.1f} median {statistics.median(rss):.1f} "
                         f"max {max(rss):.1f} MB over 3 lengths")
    # each padded --out held a whole refine-demo tree until the tool removed it
    assert list(tmp_path.iterdir()) == []


def test_rss_scan_leaves_an_existing_path_alone_and_reports_a_failed_call(tmp_path):
    out = str(tmp_path / "o")
    (tmp_path / "ox").mkdir()
    (tmp_path / "ox" / "keep").write_text("mine")
    done = _scan(len(out), len(out) + 1, "refine-demo", "--out", out)
    assert done.returncode == 1 and f"{out}x exists" in done.stderr
    assert (tmp_path / "ox" / "keep").read_text() == "mine"
    done = _scan(len(out), len(out), "refine-demo", "--base", "30", "--out", out)
    assert done.returncode == 1 and done.stderr.startswith("exit 2: refine-demo --base 30")
    assert done.stdout == "" and list(tmp_path.iterdir()) == [tmp_path / "ox"]
