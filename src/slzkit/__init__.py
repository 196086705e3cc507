"""Geometry, losses, refinement and evaluation for safe-landing-zone rasters.

Each public name is imported from its module on first access (PEP 562), so
``import slzkit`` loads no submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "AreaReport": "geometry",
    "CameraIntrinsics": "camera",
    "ClassWeights": "settings",
    "LossWeights": "settings",
    "MetricsReport": "metrics",
    "RefinementState": "refinement",
    "RefinementWeights": "refinement",
    "binarize": "slz",
    "confusion": "metrics",
    "connected_components": "slz",
    "conv_gru_step": "refinement",
    "depth_normal_consistency": "losses",
    "dilate_unsafe": "slz",
    "evaluate": "metrics",
    "fine_tune_loss": "settings",
    "grad_check": "losses",
    "normals_from_depth": "geometry",
    "pixel_areas": "geometry",
    "read_intrinsics": "camera",
    "refinement_step": "refinement",
    "region_area": "geometry",
    "run_refinement": "refinement",
    "sequential_depth_loss": "losses",
    "slz_loss": "losses",
    "top_k_candidates": "slz",
    "virtual_normal_loss": "losses",
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
