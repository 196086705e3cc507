"""The public surface of ``slzkit``: a name that leaves it shows in this diff,
and the README example that calls it runs."""

import pathlib
import re

import numpy as np

import slzkit

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "AreaReport", "CameraIntrinsics", "ClassWeights", "LossWeights",
    "MetricsReport", "RefinementState", "RefinementWeights", "binarize",
    "confusion", "connected_components", "conv_gru_step",
    "depth_normal_consistency", "dilate_unsafe", "evaluate", "evaluate_dataset",
    "fine_tune_loss", "grad_check", "normals_from_depth", "pixel_areas", "read_intrinsics",
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
