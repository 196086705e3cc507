"""Spans around every public function of slzkit, for the traced run.

`Tracer.install` rebinds module attributes of the slzkit modules to timing
wrappers, including names one module imports from another (such as
`slz.region_area`), so nested calls give parent/child spans. Nothing in
slzkit changes; `uninstall` puts the original functions back.

A span is [name, start, end, parent, op, work]: `parent` indexes the
enclosing span (-1 for none), `op` names the benchmark call it belongs
to, and `work` is a per-function amount (MB, Mpix, GFLOP, regions, loss
evaluations) for the functions listed in WORK.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("io", "camera", "geometry", "slz", "metrics", "losses", "refinement", "synth", "cli")
GRU_BLOCKS = ("gru_quarter", "gru_seventh", "gru_fourteenth", "gru_slz")


def _conv_gflop(args, kwargs, result):
    """2 * H * W * kh * kw * cin * cout of a same-padded conv2d, computed."""
    h, w = np.shape(args[0])[:2]
    kh, kw, cin, cout = np.shape(args[1])
    return 2.0 * h * w * kh * kw * cin * cout / 1e9


WORK = {
    "io.read_raster": lambda a, k, r: r.nbytes / 1e6,
    "io.write_raster": lambda a, k, r: np.size(a[0]) * 4 / 1e6,
    "geometry.normals_from_depth": lambda a, k, r: np.size(a[0]) / 1e6,
    "slz.connected_components": lambda a, k, r: len(r),
    "refinement.conv2d": _conv_gflop,
    "losses.grad_check": lambda a, k, r: 2 * np.size(a[1]),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.blocks = {}  # id(ConvGruWeights) -> block name
        self._wrappers = {}  # original function -> wrapper
        self._bound = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        work = WORK.get(name)
        spans, stack = self.spans, self.stack
        if name == "refinement.conv_gru_step":
            def span_name(args):
                return f"{name}.{self.blocks.get(id(args[0]), 'unknown')}"
        else:
            def span_name(args):
                return name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [span_name(args), 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                rec[5] = work(args, kwargs, result)
            if name in ("refinement.init_weights", "refinement.load_weights"):
                self.blocks.update({id(getattr(result, b)): b for b in GRU_BLOCKS})
            return result

        return traced

    def install(self):
        for short in MODULES:
            mod = importlib.import_module(f"slzkit.{short}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("slzkit.")):
                    continue
                if obj not in self._wrappers:
                    self._wrappers[obj] = self._wrap(
                        f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}", obj)
                setattr(mod, attr, self._wrappers[obj])
                self._bound.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self._bound:
            setattr(mod, attr, obj)
        self._bound.clear()

    @contextlib.contextmanager
    def op_span(self, op, family):
        """Root span of one benchmark call; spans inside it carry `op`."""
        self.op = op
        rec = [f"op.{family}", 0.0, 0.0, -1, op, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
            self.op = None

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "work": work}) + "\n")


def aggregate(spans, keep):
    """Totals over the spans whose op satisfies `keep`.

    Returns ({name: {"calls", "self_s", "total_s", "work"}}, {family:
    {"op_s", "layer_s", "total": {name: s}, "self": {name: s}}}). self_s is
    span time not covered by child spans; layer_s is call time covered by
    spans outside the `cli` layer; `total` and `self` are per-name inclusive
    and self seconds inside that family's calls.
    """
    child = defaultdict(float)
    for name, start, end, parent, op, work in spans:
        if parent >= 0:
            child[parent] += end - start
    per_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0.0})
    per_family = defaultdict(lambda: {"op_s": 0.0, "layer_s": 0.0, "total": defaultdict(float),
                                      "self": defaultdict(float)})
    family_of = {}
    for i, (name, start, end, parent, op, work) in enumerate(spans):
        if not keep(op):
            continue
        dur = end - start
        if parent == -1:
            family_of[i] = fam = per_family[name[len("op."):]]
            fam["op_s"] += dur
            continue
        agg = per_name[name]
        agg["calls"] += 1
        agg["self_s"] += dur - child[i]
        agg["total_s"] += dur
        agg["work"] += work
        root = parent
        while spans[root][3] != -1:
            root = spans[root][3]
        fam = family_of[root]
        fam["total"][name] += dur
        fam["self"][name] += dur - child[i]
        if not name.startswith("cli.") and spans[parent][0].startswith(("cli.", "op.")):
            fam["layer_s"] += dur
    return dict(per_name), dict(per_family)
