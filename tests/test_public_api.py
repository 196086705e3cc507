"""The public surface of ``slzkit``: a name that leaves it shows in this diff."""

import slzkit

PUBLIC = [
    "AreaReport", "CameraIntrinsics", "CanonicalSpec", "ClassWeights", "LossWeights",
    "MetricsReport", "RefinementState", "RefinementWeights", "binarize",
    "canonical_scale", "confusion", "connected_components", "conv_gru_step",
    "depth_normal_consistency", "dilate_unsafe", "evaluate", "evaluate_dataset",
    "fine_tune_loss", "from_canonical", "grad_check", "normals_from_depth", "read_intrinsics",
    "refinement_step", "region_area", "run_refinement", "sequential_depth_loss", "slz_loss",
    "to_canonical", "top_k_candidates", "virtual_normal_loss",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(slzkit.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(slzkit, name).__module__.startswith("slzkit.")
