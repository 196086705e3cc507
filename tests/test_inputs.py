"""Every input the CLI accepts changes an output or is rejected.

INPUTS holds one row per input:
- each flag of every subcommand of ``build_parser()``;
- each ``cli.DEFAULTS`` key, set through ``--config`` on every command
  that has the matching flag;
- each field of an intrinsics file (the ``CameraIntrinsics`` fields);
- each scene-spec key of ``synth._SCENE_KEYS``;
- each ``meta.txt`` key of a ``refine-demo --out`` directory.

A row is two calls that differ only in that input. The first is a working
call (exit 0); the two must differ in their exit code, a stdout byte or a
written file. An input with no row fails ``test_every_input_has_a_row``,
so a flag or file key that nothing reads cannot come in unseen.

Documented exceptions, which the README's Defaults paragraph allows with
"a command uses the keys it has flags for":
- a ``--config`` key for which the command has no flag is checked and
  unused, so it has no row;
- ``--config`` itself on the commands of KEYLESS, which have no such flag
  and read no key. Its row there gives a malformed file, which exits 2
  where a valid one exits 0.
``-h``/``--help`` is argparse's own and has no row.
"""

import argparse
import contextlib
import io as std_io
import os
import shutil
from dataclasses import asdict, fields

import numpy as np
import pytest

from slzkit import io as sio
from slzkit.camera import CameraIntrinsics, write_intrinsics
from slzkit.cli import DEFAULTS, build_parser, main
from slzkit.geometry import normals_from_depth
from slzkit.synth import _SCENE_KEYS, plane_depth

INTR = CameraIntrinsics(100.0, 110.0, 11.5, 9.5)
KEYLESS = ("evaluate", "loss dncl", "synth")

# the first call of each row: a command and its flags; a list is an nargs="+" value
BASE = {
    "area": {"--depth": "d.f32r", "--intrinsics": "intr.txt", "--normals": "n.f32r",
             "--mask": "m.pgm"},
    "candidates": {"--depth": "d.f32r", "--intrinsics": "intr.txt", "--normals": "n.f32r",
                   "--mask": "m.pgm"},
    "evaluate": {"--pred-dir": "pd", "--gt-dir": "gd"},
    "refine-demo": {"--out": "o", "--base": "28", "--T": "1"},
    "loss vnl": {"--pred": "lp0.f32r", "--gt": "lgd.f32r", "--intrinsics": "intr.txt"},
    "loss sequential": {"--preds": ["lp0.f32r", "lp1.f32r"], "--confs": ["lc0.f32r", "lc1.f32r"],
                        "--gt-depth": "lgd.f32r", "--gt-conf": "lgc.f32r"},
    "loss dncl": {"--depth": "lgd.f32r", "--normals": "ln.f32r", "--intrinsics": "intr.txt"},
    "loss slz": {"--logits": ["lz0.f32r", "lz1.f32r"], "--labels": "ll.pgm"},
    "loss combined": {"--vnl": "1", "--seq": "1", "--dncl": "1"},
    "synth": {"--spec": "s.txt", "--out": "so"},
}

# (command, flag) -> the flag's two values, or the two changes to BASE, where
# a flag maps to its value (True: given bare, None: left out) and a file path
# to the text written there before the call
FLAGS = {
    **{(cmd, flag): pair for cmd in ("area", "candidates") for flag, pair in {
        "--depth": ("d.f32r", "d2.f32r"),
        "--intrinsics": ("intr.txt", "intr2.txt"),
        "--normals": ("n.f32r", "n2.f32r"),
        "--derive-normals": ({}, {"--derive-normals": True, "--normals": None}),
        "--n-z-min": ("0.5", "0.9"),
        "--mask": ("m.pgm", "m2.pgm"),
    }.items()},
    ("area", "--region-id"): ("1", "2"),
    ("candidates", "--logits"): ({"--mask": None, "--logits": "z.f32r"},
                                 {"--mask": None, "--logits": "z2.f32r"}),
    ("candidates", "--k"): ("1", "2"),
    ("candidates", "--dilate"): ("0", "1"),
    ("evaluate", "--pred-dir"): ("pd", "pd2"),
    ("evaluate", "--gt-dir"): ("gd", "gd2"),
    ("refine-demo", "--out"): ("o", "o2"),
    ("refine-demo", "--base"): ("28", "56"),
    ("refine-demo", "--seed"): ("0", "1"),
    ("refine-demo", "--T"): ("1", "2"),
    ("refine-demo", "--hidden"): ("2", "3"),
    ("refine-demo", "--weights"): ("run/weights", "run1/weights"),
    ("refine-demo", "--resume"): ({"--base": None, "--resume": "run"},
                                  {"--base": None, "--resume": "run1"}),
    ("refine-demo", "--gamma"): ("0.9", "0.5"),
    ("loss vnl", "--pred"): ("lp0.f32r", "lp1.f32r"),
    ("loss vnl", "--gt"): ("lgd.f32r", "lgd2.f32r"),
    ("loss vnl", "--intrinsics"): ("intr.txt", "intr2.txt"),
    ("loss vnl", "--samples"): ("50", "100"),
    ("loss vnl", "--seed"): ("0", "1"),
    ("loss sequential", "--preds"): (["lp0.f32r", "lp1.f32r"], ["lp1.f32r", "lp0.f32r"]),
    ("loss sequential", "--confs"): (["lc0.f32r", "lc1.f32r"], ["lc1.f32r", "lc0.f32r"]),
    ("loss sequential", "--gt-depth"): ("lgd.f32r", "lgd2.f32r"),
    ("loss sequential", "--gt-conf"): ("lgc.f32r", "lgc2.f32r"),
    ("loss sequential", "--gamma"): ("0.9", "0.5"),
    ("loss sequential", "--valid"): (None, "lv.pgm"),
    ("loss sequential", "--grad-check"): (None, True),
    ("loss dncl", "--depth"): ("lgd.f32r", "lgd2.f32r"),
    ("loss dncl", "--normals"): ("ln.f32r", "ln2.f32r"),
    ("loss dncl", "--intrinsics"): ("intr.txt", "intr2.txt"),
    ("loss dncl", "--grad-check"): (None, True),
    ("loss slz", "--logits"): (["lz0.f32r", "lz1.f32r"], ["lz1.f32r", "lz0.f32r"]),
    ("loss slz", "--labels"): ("ll.pgm", "ll2.pgm"),
    ("loss slz", "--gamma"): ("0.9", "0.5"),
    ("loss slz", "--w-safe"): ("1", "2"),
    ("loss slz", "--w-unsafe"): ("1", "2"),
    ("loss slz", "--valid"): (None, "lv.pgm"),
    ("loss slz", "--grad-check"): (None, True),
    ("loss combined", "--vnl"): ("1", "2"),
    ("loss combined", "--seq"): ("1", "2"),
    ("loss combined", "--dncl"): ("1", "2"),
    ("loss combined", "--lambda1"): ("0.5", "1"),
    ("loss combined", "--lambda2"): ("0.5", "1"),
    ("loss combined", "--lambda3"): ("0.5", "1"),
    ("synth", "--spec"): ("s.txt", "s2.txt"),
    ("synth", "--out"): ("so", "so2"),
    # KEYLESS: a valid file against a malformed one
    **{(cmd, "--config"): ({"--config": "cfg.txt", "cfg.txt": "k=3\n"},
                           {"--config": "cfg.txt", "cfg.txt": "k\n"}) for cmd in KEYLESS},
}


def _intrinsics_text(**changes):
    return "".join(f"{k}={v!r}\n" for k, v in {**asdict(INTR), **changes}.items())


SCENE = {"scene": {"width": 16, "height": 12, "fx": 20.0, "fy": 22.0, "cx": 7.5, "cy": 5.5,
                   "buffer": 1},
         "plane": {"a": 0.1, "b": -0.2, "c": 5.0},
         "box": {"u0": 2, "v0": 3, "u1": 5, "v1": 6, "height": 1.0}}
# a second value of each scene key
SCENE_B = {"width": 17, "height": 13, "fx": 25.0, "fy": 27.0, "cx": 6.5, "cy": 4.5, "buffer": 2,
           "a": 0.2, "b": -0.1, "c": 6.0, "u0": 1, "v0": 2, "u1": 6, "v1": 7}
BOX_HEIGHT_B = 1.5  # [box] height; [scene] has a height key too


def _scene_text(section=None, key=None, value=None):
    """The SCENE spec, with `key` of `section` set to `value` when given."""
    return "".join(f"[{name}]\n" + "".join(f"{k}={value if (name, k) == (section, key) else v}\n"
                                           for k, v in keys.items())
                   for name, keys in SCENE.items())


def _rows():
    """input id -> (command, first change to BASE, second change)."""
    rows = {}
    for (cmd, flag), (a, b) in FLAGS.items():
        a, b = (v if isinstance(v, dict) else {flag: v} for v in (a, b))
        rows[f"{cmd} {flag}"] = (cmd, a, b)
    # a DEFAULTS key through --config takes the values of the flag, which is left out
    parsers = dict(_subcommands(build_parser()))
    for cmd, parser in parsers.items():
        for action in parser._actions:
            if action.dest in DEFAULTS:
                flag = action.option_strings[-1]
                rows[f"{cmd} --config {action.dest}"] = (cmd, *(
                    {flag: None, "--config": "cfg.txt", "cfg.txt": f"{action.dest}={v}\n"}
                    for v in FLAGS[cmd, flag]))
    for f in fields(CameraIntrinsics):
        rows[f"intrinsics {f.name}"] = ("area", *(
            {"--derive-normals": True, "--normals": None, "intr.txt": text}
            for text in (_intrinsics_text(),
                         _intrinsics_text(**{f.name: getattr(INTR, f.name) + 7.0}))))
    for section, keys in SCENE.items():
        for key in keys:
            b = BOX_HEIGHT_B if (section, key) == ("box", "height") else SCENE_B[key]
            rows[f"scene [{section}] {key}"] = ("synth", {"s.txt": _scene_text()},
                                                {"s.txt": _scene_text(section, key, b)})
    for name, key, a, b in (("weights", "hidden_channels", 8, 4), ("state", "t", 1, 2)):
        rows[f"meta {name}/meta.txt {key}"] = ("refine-demo", *(
            {"--base": None, "--resume": "run", f"run/{name}/meta.txt": f"{key}={v}\n"}
            for v in (a, b)))
    return rows


def _subcommands(parser, path=()):
    """(command, parser) of each leaf subcommand, 'loss vnl' for a nested one."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, path + (name,))
    if path and not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions):
        yield " ".join(path), parser


INPUTS = _rows()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """The input files every row reads, by the relative names BASE and FLAGS use."""
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(21)
    write_intrinsics(root / "intr.txt", INTR)
    write_intrinsics(root / "intr2.txt", CameraIntrinsics(90.0, 120.0, 12.5, 8.0))

    def raster(name, arr):
        sio.write_raster(arr, root / name)

    def unit_normals(shape):
        n = np.concatenate([rng.uniform(-1, 1, shape + (2,)), -np.ones(shape + (1,))], axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    # a 20x24 frame: a tilted noisy plane and three safe blocks of different sizes
    depth = plane_depth(20, 24, INTR, 0.2, -0.3, 5.0) * (1 + rng.uniform(-1e-3, 1e-3, (20, 24)))
    raster("d.f32r", depth)
    raster("d2.f32r", 1.5 * depth)
    raster("n.f32r", unit_normals((20, 24)))
    raster("n2.f32r", unit_normals((20, 24)))
    raster("z.f32r", rng.normal(size=(20, 24, 2)))
    raster("z2.f32r", rng.normal(size=(20, 24, 2)))
    for name, blocks in (("m.pgm", ((2, 8, 2, 10), (12, 18, 4, 20), (2, 6, 14, 22))),
                         ("m2.pgm", ((1, 9, 1, 5), (10, 19, 8, 23)))):
        mask = np.ones((20, 24), np.uint8)
        for r0, r1, c0, c1 in blocks:
            mask[r0:r1, c0:c1] = 0
        sio.write_mask(mask, root / name)

    # 10x10 loss rasters
    gt = plane_depth(10, 10, INTR, 0.1, 0.2, 4.0)
    raster("lgd.f32r", gt)
    raster("lgd2.f32r", gt * (1 + rng.uniform(-0.1, 0.1, gt.shape)))
    for t in range(2):
        raster(f"lp{t}.f32r", gt + rng.normal(0, 0.1, gt.shape))
        raster(f"lc{t}.f32r", rng.uniform(size=gt.shape))
        raster(f"lz{t}.f32r", rng.normal(size=(10, 10, 2)))
    raster("lgc.f32r", rng.uniform(size=gt.shape))
    raster("lgc2.f32r", rng.uniform(size=gt.shape))
    raster("ln.f32r", normals_from_depth(gt * (1 + rng.uniform(-1e-2, 1e-2, gt.shape)), INTR))
    raster("ln2.f32r", unit_normals((10, 10)))
    for name in ("ll.pgm", "ll2.pgm", "lv.pgm"):
        sio.write_mask((rng.uniform(size=(10, 10)) < 0.4).astype(np.uint8), root / name)

    for name in ("pd", "gd", "pd2", "gd2"):
        (root / name).mkdir()
        sio.write_mask((rng.uniform(size=(6, 7)) < 0.5).astype(np.uint8), root / name / "a.pgm")
    (root / "s.txt").write_text(_scene_text())
    (root / "s2.txt").write_text(_scene_text("plane", "c", 7.0))
    for seed in range(2):
        assert main(["refine-demo", "--out", str(root / f"run{seed or ''}"), "--base", "28",
                     "--T", "1", "--seed", str(seed)]) == 0
    return root


@pytest.fixture(scope="module")
def run(workspace, tmp_path_factory):
    """A function from (command, change to BASE) to the call's exit code,
    stdout, stderr and written files; each call runs once, in its own copy
    of the workspace."""
    done = {}

    def call(cmd, change):
        key = repr((cmd, sorted(change.items())))
        if key not in done:
            cwd = tmp_path_factory.mktemp("call")
            shutil.rmtree(cwd)
            shutil.copytree(workspace, cwd)
            argv = cmd.split()
            for flag, value in {**BASE[cmd], **change}.items():
                if not flag.startswith("--"):
                    (cwd / flag).write_text(value)
                elif value is not None:
                    argv += [flag] + ([] if value is True else [value] if isinstance(value, str)
                                      else value)
            before = _files(cwd)
            out, err = std_io.StringIO(), std_io.StringIO()
            here = os.getcwd()
            os.chdir(cwd)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse's own exits
                        code = exc.code
            finally:
                os.chdir(here)
            after = _files(cwd)
            written = {p: b for p, b in after.items() if before.get(p) != b}
            written.update((p, None) for p in before if p not in after)  # removed
            done[key] = code, out.getvalue(), err.getvalue(), written
        return done[key]

    return call


def _files(root):
    """{path relative to root: bytes} of every file under root."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _inputs(parser, run_dir):
    """The id of every input the CLI accepts, but for the documented exceptions."""
    ids = set()
    for cmd, sub in _subcommands(parser):
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            flag = action.option_strings[-1]
            if flag != "--config":
                ids.add(f"{cmd} {flag}")
                continue
            keys = [a.dest for a in sub._actions if a.dest in DEFAULTS]
            ids.update(f"{cmd} --config {key}" for key in keys)
            if not keys:
                ids.add(f"{cmd} --config")
    ids.update(f"intrinsics {f.name}" for f in fields(CameraIntrinsics))
    ids.update(f"scene [{section}] {key}" for section, keys in _SCENE_KEYS.items()
               for key in keys)
    for meta in run_dir.rglob("meta.txt"):
        ids.update(f"meta {meta.parent.name}/meta.txt {line.partition('=')[0]}"
                   for line in meta.read_text().splitlines())
    return ids


def test_every_input_has_a_row(workspace):
    ids = _inputs(build_parser(), workspace / "run")
    assert not ids - set(INPUTS), f"inputs with no row: {sorted(ids - set(INPUTS))}"
    assert not set(INPUTS) - ids, f"rows of no input: {sorted(set(INPUTS) - ids)}"
    parsers = dict(_subcommands(build_parser()))
    assert set(parsers) == set(BASE)
    assert KEYLESS == tuple(cmd for cmd, p in parsers.items()
                            if not any(a.dest in DEFAULTS for a in p._actions))


def test_a_flag_with_no_row_is_found(workspace):
    parser = build_parser()
    sub = dict(_subcommands(parser))["area"]
    sub.add_argument("--zoom", type=float)
    assert "area --zoom" in _inputs(parser, workspace / "run") - set(INPUTS)


@pytest.mark.parametrize("input_id", INPUTS)
def test_each_input_changes_an_output(run, input_id):
    cmd, a, b = INPUTS[input_id]
    code_a, out_a, err_a, written_a = run(cmd, a)
    code_b, out_b, _, written_b = run(cmd, b)
    assert code_a == 0, err_a
    assert (code_a, out_a, written_a) != (code_b, out_b, written_b)


@pytest.mark.parametrize("key", ["f_c", "skew", "FX"])
def test_an_intrinsics_key_outside_the_fields_exits_2(run, key):
    # f_c was read, checked for > 0 and then ignored by every command
    code, out, err, written = run("area", {"intr.txt": _intrinsics_text() + f"{key}=1000\n"})
    assert (code, out, written) == (2, "", {})
    assert f"intr.txt:5: unknown key {key!r}\n" in err


# --- the F32R inputs that area, candidates and loss dncl read by rows --------

# (command, change to BASE, the raster it reads by rows), one per such input
STREAMED = {
    "area depth": ("area", {}, "d.f32r"),
    "area --derive-normals depth": ("area", {"--derive-normals": True, "--normals": None},
                                    "d.f32r"),
    "area normals": ("area", {}, "n.f32r"),
    "candidates logits": ("candidates", {"--mask": None, "--logits": "z.f32r"}, "z.f32r"),
    "loss dncl depth": ("loss dncl", {}, "lgd.f32r"),
    "loss dncl normals": ("loss dncl", {}, "ln.f32r"),
}


def _streamed_call(workspace, tmp_path, cmd, change, edit=None):
    """Exit code, stdout and stderr of one call in a copy of the workspace,
    whose files `edit(root)` changes first."""
    root = tmp_path / "ws"
    shutil.copytree(workspace, root)
    if edit is not None:
        edit(root)
    argv = cmd.split()
    for flag, value in {**BASE[cmd], **change}.items():
        if value is not None:
            argv += [flag] + ([] if value is True else [value] if isinstance(value, str)
                              else value)
    out, err = std_io.StringIO(), std_io.StringIO()
    here = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue()


def _payload_bytes(path):
    """The payload size its header declares, and the header's length."""
    header = path.read_bytes().split(b"\n", 1)[0]
    width, height, channels = (int(v) for v in header.split()[1:])
    return width * height * channels * 4, len(header) + 1


@pytest.mark.parametrize("case", STREAMED)
def test_a_truncated_streamed_raster_exits_2_before_any_output(workspace, tmp_path, case):
    cmd, change, name = STREAMED[case]
    nbytes, start = _payload_bytes(workspace / name)

    def cut(root):
        (root / name).write_bytes((root / name).read_bytes()[:start + nbytes - 6])

    code, out, err = _streamed_call(workspace, tmp_path, cmd, change, cut)
    assert (code, out) == (2, "")
    assert err == f"error: {name}: payload has {nbytes - 6} bytes, header declares {nbytes}\n"


@pytest.mark.parametrize("case", STREAMED)
def test_a_raster_cut_short_after_its_header_check_exits_2(workspace, tmp_path, monkeypatch,
                                                          case):
    # the file loses its last rows once the reader has checked it: a band
    # read then stops short, and the call fails rather than read garbage
    cmd, change, name = STREAMED[case]
    nbytes, start = _payload_bytes(workspace / name)
    opened = sio.RasterRows.__init__

    def open_then_cut(self, path):
        opened(self, path)
        if os.path.basename(path) == name:
            with open(path, "r+b") as fh:
                fh.truncate(start + nbytes // 2 + 3)

    monkeypatch.setattr(sio.RasterRows, "__init__", open_then_cut)
    code, out, err = _streamed_call(workspace, tmp_path, cmd, change)
    assert (code, out) == (2, "")
    assert err == (f"error: {name}: payload has {nbytes // 2 + 3} bytes, "
                   f"header declares {nbytes}\n")


@pytest.mark.parametrize("cmd,change,name,want", [
    ("area", {"--depth": "n.f32r"}, "n.f32r", "depth must be single-channel, got 3 channels"),
    ("area", {"--normals": "d.f32r"}, "d.f32r", "normals must be 3-channel, got 1 channel"),
    ("candidates", {"--mask": None, "--logits": "d.f32r"}, "d.f32r",
     "logits must be 2-channel, got 1 channel"),
    ("loss dncl", {"--normals": "lgd.f32r"}, "lgd.f32r",
     "normals must be 3-channel, got 1 channel"),
    ("loss dncl", {"--grad-check": True, "--normals": "lgd.f32r"}, "lgd.f32r",
     "normals must be 3-channel, got 1 channel"),
    ("loss vnl", {"--pred": "lz0.f32r"}, "lz0.f32r",
     "depth must be single-channel, got 2 channels"),
    ("loss slz", {"--logits": ["lp0.f32r", "lz1.f32r"]}, "lp0.f32r",
     "logits must be 2-channel, got 1 channel"),
])
def test_a_channel_count_mismatch_exits_3_before_any_band_is_read(workspace, tmp_path,
                                                                 monkeypatch, cmd, change,
                                                                 name, want):
    reads = []
    read = sio.RasterRows.__getitem__
    monkeypatch.setattr(sio.RasterRows, "__getitem__",
                        lambda self, rows: reads.append(self.path) or read(self, rows))
    code, out, err = _streamed_call(workspace, tmp_path, cmd, change)
    assert (code, out, reads) == (3, "", [])
    assert err == f"error: {name}: {want}\n"


@pytest.mark.parametrize("change,name,want", [
    ({"--gt-conf": "lz0.f32r"}, "lz0.f32r", "confidence must be single-channel, got 2 channels"),
    ({"--preds": ["lz0.f32r", "lp1.f32r"]}, "lz0.f32r",
     "depth must be single-channel, got 2 channels"),
])
def test_a_channel_count_mismatch_of_loss_sequential_exits_3_unread(workspace, tmp_path,
                                                                    monkeypatch, change, name,
                                                                    want):
    # the ground truths are read whole before the first step is opened, so
    # only the mismatched file must go unread
    reads = []
    read = sio.RasterRows.__getitem__
    monkeypatch.setattr(sio.RasterRows, "__getitem__",
                        lambda self, rows: reads.append(self.path) or read(self, rows))
    code, out, err = _streamed_call(workspace, tmp_path, "loss sequential", change)
    assert (code, out) == (3, "")
    assert name not in reads
    assert err == f"error: {name}: {want}\n"


@pytest.mark.parametrize("cmd,change,names", [
    ("area", {"--derive-normals": True, "--normals": None}, ["d.f32r"]),
    ("area", {}, ["d.f32r", "n.f32r"]),
    ("candidates", {"--mask": None, "--logits": "z.f32r"}, ["d.f32r", "z.f32r", "n.f32r"]),
    ("loss dncl", {}, ["lgd.f32r", "ln.f32r"]),
])
def test_trailing_bytes_warn_once_per_streamed_raster(workspace, tmp_path, cmd, change, names):
    # a file read band by band warns when it is opened, not at each read
    def pad(root):
        for name in names:
            with open(root / name, "ab") as fh:
                fh.write(b"\0\0\0")

    code, out, err = _streamed_call(workspace, tmp_path, cmd, change, pad)
    want = _streamed_call(workspace, tmp_path / "plain", cmd, change)
    assert (code, out) == want[:2] and code == 0
    assert err == "".join(f"warning: {name}: 3 trailing bytes ignored\n" for name in names)
