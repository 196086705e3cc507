import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_calls.py"


def _call(family, argv, rss_mb, wall_s):
    return {"family": family, "argv": argv, "rss_mb": rss_mb, "wall_s": wall_s, "rc": 0}


def test_bench_calls_names_the_call_that_sets_the_peak(tmp_path):
    record = {"workload": "many-regions", "seed": 3, "calls": [
        _call("area", ["area", "--depth"], 47.4, 0.30),
        _call("area", ["area", "--depth"], 47.1, 0.20),
        _call("area", ["area", "--depth"], 46.9, 0.25),
        _call("loss", ["loss", "slz"], 48.0, 0.24),
        _call("grad_check", ["loss", "slz"], 30.3, 0.19),
        _call("startup", ["loss", "combined"], 15.1, 0.08),
        _call("startup", ["loss", "combined"], 15.3, 0.10),
    ]}
    path = tmp_path / "many-regions-s3-t0.json"
    path.write_text(json.dumps(record))
    out = subprocess.run([sys.executable, str(TOOL), str(path)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0] == f"{path}: many-regions, seed 3, 7 calls"
    rows = [line.rsplit(None, 3) for line in out[2:]]
    # the largest peak first; a family's calls of other argv words are apart
    assert rows == [["loss: loss slz", "48.0", "0.2400", "1"],
                    ["area: area", "47.4", "0.2500", "3"],
                    ["grad_check: loss slz", "30.3", "0.1900", "1"],
                    ["startup: loss combined", "15.3", "0.0900", "2"]]
