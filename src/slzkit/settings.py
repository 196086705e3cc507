"""The paper's settings: loss weights, temporal decay, the n_z cut-off and
the weighted combination of the fine-tune losses.

Plain Python, so that the CLI can list its defaults and compute
``loss combined`` without importing numpy.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

DEFAULT_GAMMA = 0.9  # temporal decay of the sequential and safe-zone losses
# Pixels with |n_z| below this are excluded from area sums: the per-pixel
# area diverges as |n_z| -> 0 and such surfaces are never landable.
DEFAULT_NZ_MIN = 0.1


class _Weights:
    """Checks each field of a weight record: finite, and ``>= 0`` or ``> 0``
    as the record's ``_bound`` says. Every construction checks, ``_make``,
    ``_replace``, ``copy.copy`` and unpickling included."""

    __slots__ = ()
    _bound = operator.ge, ">="

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        test, sign = cls._bound
        for name, value in zip(self._fields, self):
            if not (math.isfinite(value) and test(value, 0)):
                raise ValueError(f"{name} must be finite and {sign} 0, got {value}")
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through this, so it checks too
        return cls(*iterable)


class LossWeights(_Weights, namedtuple("LossWeights", "lambda1 lambda2 lambda3",
                                       defaults=(0.2, 0.5, 0.01))):
    """Balancing coefficients of the vnl, sequential and dncl components."""

    __slots__ = ()


class ClassWeights(_Weights, namedtuple("ClassWeights", "w_safe w_unsafe", defaults=(2.0, 1.0))):
    """Per-class weights for the safe/unsafe cross-entropy."""

    __slots__ = ()
    _bound = operator.gt, ">"


def fine_tune_loss(vnl, sequential, dncl, weights: LossWeights = LossWeights()):
    """Weighted combination of the three fine-tuning components.

    `sequential` is the already decay-summed sequential loss value.
    """
    for name, val in (("vnl", vnl), ("sequential", sequential), ("dncl", dncl)):
        if not math.isfinite(val):
            raise ValueError(f"non-finite {name} component: {val}")
    return weights.lambda1 * vnl + weights.lambda2 * sequential + weights.lambda3 * dncl
