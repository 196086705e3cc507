"""Exception types shared across the package.

The CLI maps these onto exit codes: parse/input problems -> 2,
shape/consistency problems -> 3, numeric degeneracy -> 4.
"""


class InvalidIntrinsicsError(ValueError):
    """Camera intrinsics are non-finite or non-positive where positivity is required."""


class ShapeMismatchError(ValueError):
    """Rasters/masks that must share dimensions do not."""


class DegenerateInputError(ValueError):
    """Input leaves an operation without a well-defined value (e.g. empty valid set)."""
