#!/usr/bin/env python3
"""Benchmark of the slzkit command line on seeded 720p workloads.

Run from the root of a checkout (the program is taken from its `src/`):

    python3 perfbench/run.py --workload landing-frames --seed 1 --seconds 40 --trace 0

--trace 0 times every call in its own `python -m slzkit.cli` process and
reports the end-to-end metrics; --trace 1 runs the same calls in-process
through `slzkit.cli.main`, once plain and once with every public slzkit
function wrapped in a span, and reports the per-layer metrics. Either way
each call's output is checked against numpy references. `--workload all`
runs every workload in turn. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the full record
(quartiles, sample counts, per-call accounting, environment and input
sha256s) goes to .perfbench/<workload>-s<seed>-t<trace>.json, and the
spans of a traced run to the matching .spans.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np
import scipy

import inputs
import workloads
from spans import Tracer, aggregate

CALL_TIMEOUT_S = 60.0
SETUP_REPEATS = 3  # setup_s is the median of this many whole set-ups
ROUND_S = 20.0  # nominal length of one round on a 2-core machine

END_TO_END = {  # metric -> unit; the per-call ones are medians over the run
    "setup_s": "s", "startup_s": "s", "area_s": "s", "candidates_s": "s",
    "evaluate_s": "s", "refine_s": "s", "loss_step_s": "s", "grad_check_s": "s",
    "op_s.tail": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
}
FAMILY_METRIC = {"startup": "startup_s", "area": "area_s", "candidates": "candidates_s",
                 "evaluate": "evaluate_s", "refine": "refine_s"}
GROUP_METRIC = {"loss": ("loss_step_s", 4), "grad_check": ("grad_check_s", 2)}


@dataclass
class Result:
    rc: int
    out: str
    err: str
    wall: float
    user: float = 0.0
    sys: float = 0.0
    rss_mb: float = 0.0
    timed_out: bool = False


class SubprocessRunner:
    """Runs `python -m slzkit.cli ARGV` with the checkout's src first on
    PYTHONPATH, through the small launcher process in launch.py so that each
    call's peak RSS and CPU times are its own. Use as a context manager."""

    def __init__(self, src, work):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.work = work
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__), "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.wait(timeout=CALL_TIMEOUT_S + 10)
        self.launcher.stdout.close()

    def python(self, args):
        out_path = os.path.join(self.work, "call.out")
        err_path = os.path.join(self.work, "call.err")
        self.launcher.stdin.write(json.dumps({
            "argv": [sys.executable, *args], "cwd": self.work, "env": self.env,
            "out": out_path, "err": err_path, "timeout": CALL_TIMEOUT_S}) + "\n")
        self.launcher.stdin.flush()
        rep = json.loads(self.launcher.stdout.readline())
        with open(out_path, encoding="utf-8", errors="replace") as out, \
                open(err_path, encoding="utf-8", errors="replace") as err:
            return Result(rep["rc"], out.read(), err.read(), rep["wall"], rep["user"],
                          rep["sys"], rep["maxrss_kb"] / 1024.0, rep["timed_out"])

    def __call__(self, argv):
        return self.python(["-m", "slzkit.cli", *argv])


class InProcessRunner:
    """Calls `slzkit.cli.main(argv)` with stdout and stderr captured."""

    def __init__(self, cli):
        self.cli = cli

    def __call__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # the run goes on; the call counts as failed
                rc = 1
                print(f"{type(exc).__name__}: {exc}", file=err)
        return Result(rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0)


def judge(op, res):
    """None when the call succeeded and its output passed the op's check.
    Flushes the call's output directory first, outside its timing."""
    if op.writes and os.path.isdir(op.writes):
        inputs.fsync_tree(op.writes)
    if res.timed_out:
        return f"timed out after {CALL_TIMEOUT_S:.0f} s"
    if res.rc != 0:
        return f"exit {res.rc}: {res.err.strip()[-300:]}"
    try:
        return op.check(res.out)
    except (ValueError, IndexError, KeyError, OSError) as exc:
        return f"check could not read the output: {type(exc).__name__}: {exc}"


def run_rounds(wl, execute, seconds):
    """Closed loop, one call at a time, in `seconds` / ROUND_S whole rounds
    (at least one). A fixed number of rounds keeps the mix of calls, and so
    the medians and the tail, the same from run to run whatever the
    machine's pace. Returns (rounds, loop wall seconds)."""
    start = time.perf_counter()
    rounds = max(1, round(seconds / ROUND_S))
    for rnd in range(rounds):
        for unit in wl.round_units(rnd):
            for op in unit:
                execute(op, rnd)
    return rounds, time.perf_counter() - start


def spread(values):
    values = sorted(values)
    if len(values) == 1:
        return {"value": values[0], "n": 1, "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "n": len(values), "q1": q1, "q3": q3}


def tail(values):
    """Highest whole percentile with at least 10 calls beyond it (nearest rank)."""
    values = sorted(values)
    n = len(values)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return values[rank - 1], pct, rank


def end_to_end(calls, setup_seconds, loop_wall):
    """Medians over successful calls; a family whose calls all failed falls
    back to its failed ones (the run is then not correct anyway)."""
    ok = [c for c in calls if c["error"] is None]
    out = {"setup_s": spread(setup_seconds)}
    for family, metric in FAMILY_METRIC.items():
        out[metric] = spread([c["wall_s"] for c in ok if c["family"] == family]
                             or [c["wall_s"] for c in calls if c["family"] == family])
    for family, (metric, size) in GROUP_METRIC.items():
        groups = {}
        for c in calls:
            if c["family"] == family:
                groups.setdefault(c["group"], []).append(c)
        whole = [g for g in groups.values() if len(g) == size]
        out[metric] = spread([sum(c["wall_s"] for c in g) for g in whole
                              if all(c["error"] is None for c in g)]
                             or [sum(c["wall_s"] for c in g) for g in whole])
    value, pct, rank = tail([c["wall_s"] for c in ok] or [c["wall_s"] for c in calls])
    out["op_s.tail"] = {"value": value, "percentile": pct, "rank": rank, "n": len(ok)}
    out["ops_per_s"] = {"value": len(ok) / loop_wall, "n": len(ok)}
    out["peak_rss_mb"] = {"value": max(c["rss_mb"] for c in calls), "n": len(calls)}
    return out


# --- environment ---------------------------------------------------------------

def blas_threads():
    """Thread count reported by the OpenBLAS this process loaded, if any."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="ascii") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "loadavg_start": os.getloadavg(), "platform": platform.platform(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
    }


# --- the two modes ---------------------------------------------------------------

def run_untraced(name, seed, seconds, src, work):
    with SubprocessRunner(src, work) as runner:
        probe = runner.python(["-c", "import slzkit, slzkit.cli; print(slzkit.__file__)"])
        if probe.rc != 0:
            raise RuntimeError(f"cannot import slzkit from {src}: {probe.err.strip()}")
        return _timed_run(runner, name, seed, seconds, probe.out.strip())


def _timed_run(runner, name, seed, seconds, slzkit_file):
    work = runner.work
    wl = workloads.Workload(name, seed, work, runner)
    wl.build(SETUP_REPEATS)
    fingerprint = wl.fingerprint()
    wl.references()
    calls = []

    def execute(op, rnd):
        res = runner(op.argv)
        calls.append({"family": op.family, "argv": op.argv[:2], "round": rnd, "group": op.group,
                      "wall_s": res.wall, "user_s": res.user, "sys_s": res.sys,
                      "rss_mb": res.rss_mb, "rc": res.rc, "error": judge(op, res)})

    rounds, loop_wall = run_rounds(wl, execute, seconds)
    stats = end_to_end(calls, wl.setup.seconds, loop_wall)
    metrics = {m: {"value": stats[m]["value"], "unit": unit} for m, unit in END_TO_END.items()}
    details = {"slzkit_file": slzkit_file, "rounds": rounds, "loop_wall_s": loop_wall,
               "stats": stats, "calls": calls}
    return wl, fingerprint, calls, metrics, details


PER_LAYER_SELF = [
    "io.read_raster", "io.read_mask", "io.write_raster", "camera.read_intrinsics",
    "geometry.normals_from_depth", "geometry.region_area", "slz.connected_components",
    "slz.top_k_candidates", "slz.binarize", "slz.dilate_unsafe", "metrics.confusion",
    "losses.sample_triplets", "losses.virtual_normal_loss",
    "losses.depth_normal_consistency_grad", "losses.sequential_depth_loss_grad",
    "losses.slz_loss_grad", "losses.grad_check",
    *[f"refinement.conv_gru_step.{b}" for b in ("gru_fourteenth", "gru_seventh",
                                                "gru_quarter", "gru_slz")],
    "refinement.conv2d", "refinement.project", "refinement.save_state",
    "refinement.load_state",
]
CLI_COMMANDS = ["area", "candidates", "evaluate", "refine-demo", "loss-vnl",
                "loss-sequential", "loss-dncl", "loss-slz", "loss-combined"]


def per_layer(spans, rounds, import_s, overhead):
    per_name, per_family = aggregate(spans, lambda op: isinstance(op, int))
    setup_names, _ = aggregate(spans, lambda op: op == "setup")

    def get(name, key="self_s"):
        return per_name.get(name, {}).get(key, 0.0)

    m = {f"{n}.self_s": (get(n) / rounds, "s") for n in PER_LAYER_SELF}
    m["io.read_raster.mb"] = (get("io.read_raster", "work") / rounds, "MB")
    m["io.write_raster.mb"] = (get("io.write_raster", "work") / rounds, "MB")
    m["io.read_mask.calls"] = (get("io.read_mask", "calls") / rounds, "count")
    m["geometry.normals_from_depth.mpix_per_s"] = (
        get("geometry.normals_from_depth", "work")
        / max(get("geometry.normals_from_depth", "total_s"), 1e-12), "Mpix/s")
    m["geometry.region_area.calls"] = (get("geometry.region_area", "calls") / rounds, "count")
    m["slz.regions"] = (get("slz.connected_components", "work") / rounds, "count")
    m["metrics.confusion.calls"] = (get("metrics.confusion", "calls") / rounds, "count")
    m["losses.grad_check.total_s"] = (get("losses.grad_check", "total_s") / rounds, "s")
    m["losses.grad_check.loss_evals"] = (get("losses.grad_check", "work") / rounds, "count")
    m["refinement.conv2d.gflop_per_s"] = (
        get("refinement.conv2d", "work") / max(get("refinement.conv2d"), 1e-12), "GFLOP/s")
    m["synth.render_scene.self_s"] = (  # per set-up, not per round
        setup_names.get("synth.render_scene", {}).get("self_s", 0.0), "s")
    m["cli.import_s"] = (import_s, "s")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = (get(f"cli.cmd_{cmd.replace('-', '_')}") / rounds, "s")
    cand = per_family.get("candidates")
    m["candidates.top_k_share"] = (cand["total"]["slz.top_k_candidates"] / cand["op_s"], "ratio")
    m["candidates.normals_share"] = (
        cand["total"].get("geometry.normals_from_depth", 0.0) / cand["op_s"], "ratio")
    ops_s = sum(f["op_s"] for f in per_family.values())
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m["trace.coverage"] = (sum(f["layer_s"] for f in per_family.values()) / ops_s, "ratio")
    # per command: the call time spans cover, and the eight largest self times
    shares = {fam: {"op_s": f["op_s"], "layer_coverage": f["layer_s"] / f["op_s"],
                    "self_share": {n: s / f["op_s"] for n, s in sorted(
                        f["self"].items(), key=lambda kv: -kv[1])[:8]}}
              for fam, f in per_family.items()}
    shares["candidates"]["labelling_ranking_self_share"] = (
        cand["self"]["slz.connected_components"] + cand["self"]["slz.top_k_candidates"]
    ) / cand["op_s"]
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, shares


def run_traced(name, seed, seconds, src, work):
    sys.path.insert(0, src)
    import slzkit
    import slzkit.cli

    if not os.path.abspath(slzkit.__file__).startswith(os.path.abspath(src)):
        raise RuntimeError(f"imported slzkit from {slzkit.__file__}, not from {src}")
    imports, bare = [], []
    with SubprocessRunner(src, work) as sub:
        for _ in range(5):
            imports.append(sub.python(["-c", "import slzkit.cli"]).wall)
            bare.append(sub.python(["-c", "pass"]).wall)
    import_s = statistics.median(imports) - statistics.median(bare)

    tracer = Tracer()
    plain = InProcessRunner(slzkit.cli)

    def traced_call(argv, op, family):
        tracer.install()
        try:
            with tracer.op_span(op, family):
                return plain(argv)
        finally:
            tracer.uninstall()

    wl = workloads.Workload(name, seed, work, lambda argv: traced_call(argv, "setup", "synth"))
    wl.build()
    fingerprint = wl.fingerprint()
    wl.references()
    calls = []
    walls = {"plain": 0.0, "traced": 0.0}

    def execute(op, rnd):
        # alternate which pass goes first so warm caches favour neither
        order = ("plain", "traced") if len(calls) % 4 == 0 else ("traced", "plain")
        for mode in order:
            if mode == "plain":
                res = plain(op.argv)
            else:
                res = traced_call(op.argv, len(calls), op.family)
            walls[mode] += res.wall
            calls.append({"family": op.family, "mode": mode, "round": rnd, "group": op.group,
                          "wall_s": res.wall, "rc": res.rc, "error": judge(op, res)})

    rounds, loop_wall = run_rounds(wl, execute, seconds)
    metrics, shares = per_layer(tracer.spans, rounds, import_s,
                                walls["traced"] / walls["plain"])
    details = {"slzkit_file": slzkit.__file__, "rounds": rounds, "loop_wall_s": loop_wall,
               "import_samples": {"import": imports, "bare": bare},
               "family_shares": shares, "calls": calls}
    return wl, fingerprint, calls, metrics, details, tracer


def run_one(name, args, root, src, results):
    work = tempfile.mkdtemp(prefix="work-", dir=results)
    started = time.time()
    env = environment()
    try:
        if args.trace:
            wl, fingerprint, calls, metrics, details, tracer = run_traced(
                name, args.seed, args.seconds, src, work)
        else:
            wl, fingerprint, calls, metrics, details = run_untraced(
                name, args.seed, args.seconds, src, work)
            tracer = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [c for c in calls if c["error"] is not None]
    stem = os.path.join(results, f"{name}-s{args.seed}-t{args.trace}")
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "started": started, "environment": env,
        "inputs": {"sha256": fingerprint,
                   "frames": [{"name": f.name, "derive_normals": f.derive_normals,
                               "regions": f.expect.get("regions_seen"),
                               "expected_total": f.expect.get("total")}
                              for f in wl.setup.frames],
                   "setup_s": wl.setup.seconds, "setup_unit_s": wl.setup.unit_seconds},
        "attempted": len(calls), "failed": len(failed),
        "failed_ratio": len(failed) / len(calls),
        "failures": [{"family": c["family"], "error": c["error"]} for c in failed[:20]],
        "metrics": metrics, **details,
    }
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, default=str)
    stats = details.get("stats", {})
    print(f"== {name} seed={args.seed} trace={args.trace} rounds={details['rounds']} "
          f"calls={len(calls)} failed={len(failed)} slzkit={details['slzkit_file']}")
    for metric, v in metrics.items():
        s = stats.get(metric, {})
        extra = (f"  n={s['n']} q1={s['q1']:.4g} q3={s['q3']:.4g}" if "q1" in s
                 else f"  p{s['percentile']} rank {s['rank']} of {s['n']}" if "rank" in s else "")
        print(f"  {metric:<46} {v['value']:>12.6g} {v['unit']}{extra}")
    for c in failed[:5]:
        print(f"  FAILED {c['family']}: {c['error']}")
    print(f"  record: {os.path.relpath(stem + '.json', root)}")
    return len(calls), len(failed), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "slzkit", "cli.py")):
        print(f"error: no slzkit sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    results = os.path.join(root, ".perfbench")
    os.makedirs(results, exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_one(name, args, root, src, results)
        attempted += a
        failed += f
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
