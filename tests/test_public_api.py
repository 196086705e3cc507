"""The public surface of ``slzkit``: a name that leaves it shows in this diff,
each name has a user, and the README examples that call them run."""

import ast
import pathlib
import re

import numpy as np

import oracles
import slzkit
from slzkit.metrics import MetricsReport

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = pathlib.Path(slzkit.__file__).resolve().parent

PUBLIC = [
    "AreaReport", "CameraIntrinsics", "ClassWeights", "LossWeights",
    "MetricsReport", "RefinementState", "RefinementWeights", "binarize",
    "confusion", "connected_components", "conv_gru_step",
    "depth_normal_consistency", "dilate_unsafe", "evaluate", "fine_tune_loss", "grad_check", "normals_from_depth", "pixel_areas", "read_intrinsics",
    "refinement_step", "region_area", "run_refinement", "sequential_depth_loss", "slz_loss",
    "top_k_candidates", "virtual_normal_loss",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(slzkit.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(slzkit, name).__module__.startswith("slzkit.")


def test_dir_lists_every_public_name():
    listed = dir(slzkit)
    assert set(PUBLIC) <= set(listed) and listed == sorted(listed)


def test_readme_library_example_runs(capsys):
    # the "Library at a glance" block runs on the `depth` and `mask` it names
    # and prints the area report and the candidates
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library at a glance\n\n```python\n(.*?)^```$", text,
                      re.M | re.S).group(1)
    rng = np.random.default_rng(7)
    scope = {"depth": rng.uniform(4.0, 6.0, (24, 32)),
             "mask": (rng.uniform(size=(24, 32)) < 0.4).astype(np.uint8)}
    exec(compile(block, str(README), "exec"), scope)
    out = capsys.readouterr().out
    assert out.startswith(f"{scope['report'].total_area} m^2, ")
    assert len(scope["order"]) == min(5, len(scope["stats"])) > 0


def _used_in_package(name):
    """Whether the package's code reads `name`, takes an attribute of that
    name or imports it. Its def or class statement, an assignment to it and
    its ``_HOMES`` key, a string, are none of these."""
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if ((isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                 and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.alias) and node.name == name)):
                return True
    return False


def test_every_public_name_is_used_in_the_package_or_named_in_the_readme():
    # a public name that nothing in the package calls and the README does
    # not document serves only the tests, and belongs with them
    readme = README.read_text(encoding="utf-8")
    unused = [name for name in slzkit.__all__
              if not _used_in_package(name) and not re.search(rf"\b{name}\b", readme)]
    assert unused == []


def test_readme_dataset_pooling_is_the_oracles_pooled_report():
    # the README's pooling expression gives the report of the loop-counted,
    # pooled confusion counts, NaN for a class that no pixel holds included
    text = README.read_text(encoding="utf-8")
    expression = re.search(r"`(evaluate\(sum\(confusion\(p, g\) for p, g in pairs\)\))`",
                           text).group(1)
    rng = np.random.default_rng(3)
    random_pairs = [tuple((rng.uniform(size=(2, h, w)) < 0.4).astype(np.uint8))
                    for h, w in ((1, 1), (5, 7), (9, 3))]
    all_safe = [(np.zeros((3, 4), np.uint8), np.zeros((3, 4), np.uint8))] * 2
    for pairs in (random_pairs, all_safe):
        got = eval(expression, {"evaluate": slzkit.evaluate, "confusion": slzkit.confusion,
                                "pairs": pairs})
        want = oracles.evaluate_dataset(pairs)
        assert type(got) is MetricsReport and repr(got) == repr(want)
