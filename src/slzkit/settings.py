"""The paper's settings: loss weights, temporal decay, the n_z cut-off and
the weighted combination of the fine-tune losses.

Plain Python, so that the CLI can list its defaults and compute
``loss combined`` without importing numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_GAMMA = 0.9  # temporal decay of the sequential and safe-zone losses
# Pixels with |n_z| below this are excluded from area sums: the per-pixel
# area diverges as |n_z| -> 0 and such surfaces are never landable.
DEFAULT_NZ_MIN = 0.1


@dataclass(frozen=True)
class LossWeights:
    """Balancing coefficients of the vnl, sequential and dncl components."""

    lambda1: float = 0.2
    lambda2: float = 0.5
    lambda3: float = 0.01

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class ClassWeights:
    """Per-class weights for the safe/unsafe cross-entropy."""

    w_safe: float = 2.0
    w_unsafe: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


def fine_tune_loss(vnl, sequential, dncl, weights: LossWeights = LossWeights()):
    """Weighted combination of the three fine-tuning components.

    `sequential` is the already decay-summed sequential loss value.
    """
    for name, val in (("vnl", vnl), ("sequential", sequential), ("dncl", dncl)):
        if not math.isfinite(val):
            raise ValueError(f"non-finite {name} component: {val}")
    return weights.lambda1 * vnl + weights.lambda2 * sequential + weights.lambda3 * dncl
