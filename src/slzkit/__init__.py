"""Geometry, losses, refinement and evaluation for safe-landing-zone rasters."""

from .camera import (
    CameraIntrinsics,
    CanonicalSpec,
    canonical_scale,
    from_canonical,
    read_intrinsics,
    to_canonical,
)
from .geometry import AreaReport, normals_from_depth, region_area
from .losses import (
    ClassWeights,
    LossWeights,
    depth_normal_consistency,
    fine_tune_loss,
    grad_check,
    sequential_depth_loss,
    slz_loss,
    virtual_normal_loss,
)
from .metrics import MetricsReport, confusion, evaluate, evaluate_dataset
from .refinement import (
    RefinementState,
    RefinementWeights,
    conv_gru_step,
    depth_normal_flow_step,
    run_refinement,
    slz_flow_step,
)
from .slz import binarize, connected_components, dilate_unsafe, top_k_candidates

__version__ = "0.1.0"

__all__ = [
    "AreaReport",
    "CameraIntrinsics",
    "CanonicalSpec",
    "ClassWeights",
    "LossWeights",
    "MetricsReport",
    "RefinementState",
    "RefinementWeights",
    "binarize",
    "canonical_scale",
    "confusion",
    "connected_components",
    "conv_gru_step",
    "depth_normal_consistency",
    "depth_normal_flow_step",
    "dilate_unsafe",
    "evaluate",
    "evaluate_dataset",
    "fine_tune_loss",
    "from_canonical",
    "grad_check",
    "normals_from_depth",
    "read_intrinsics",
    "region_area",
    "run_refinement",
    "sequential_depth_loss",
    "slz_loss",
    "slz_flow_step",
    "to_canonical",
    "top_k_candidates",
    "virtual_normal_loss",
]
