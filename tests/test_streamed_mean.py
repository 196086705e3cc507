"""The streamed mean of the banded losses against numpy's own mean.

`losses._StreamedMean` takes its values a run at a time and is bit for bit
``np.mean`` of them in one contiguous float64 array only while numpy sums
such an array pairwise as it does now: a run of more than 128 values splits
at n // 2 - (n // 2) % 8, and the halves are summed alike and added. A numpy
whose rule differs fails here, at the first length and leaf size whose bits
differ, before a loss value changes without a word.
"""

import numpy as np
import pytest

from slzkit import losses
from slzkit.losses import _MEAN_LEAF, _StreamedMean

LEAVES = [128, 1000, _MEAN_LEAF]
# every length up to 300, and 2^k - 1 ... 2^k + 9 around each power of two
SMALL = sorted({*range(1, 301), *(2 ** k + d for k in range(8, 21) for d in range(-1, 10))})
# a 720p plane, a 720p two-channel raster and a 4K plane
LARGE = [1280 * 720, 1280 * 720 * 2, 3840 * 2160]


def spread(rng, shape):
    """Normal values scaled by 2^-53 .. 2^53, about 16 decades either way,
    so every addition rounds and the order of the additions shows."""
    x = rng.standard_normal(shape)
    return np.ldexp(x, rng.integers(-53, 54, shape, dtype=np.int8), out=x)


@pytest.fixture(params=LEAVES)
def leaf(request, monkeypatch):
    """Each leaf size in turn, as the streamed mean's ``_MEAN_LEAF``."""
    monkeypatch.setattr(losses, "_MEAN_LEAF", request.param)
    return request.param


def streamed_mean(x, leaf, rng):
    """The streamed mean of x's last axis, fed in runs of random lengths,
    from a single value to two leaves."""
    mean = _StreamedMean(x.shape[-1], x.shape[:-1])
    start = 0
    while start < x.shape[-1]:
        stop = start + int(rng.integers(1, 2 * leaf + 1))
        mean.add(x[..., start:stop])
        start = stop
    return mean.mean()


def assert_numpy_bits(got, x, leaf):
    want = np.mean(x, axis=-1)
    assert np.array_equal(np.asarray(got).view(np.int64), want.view(np.int64)), (
        f"numpy {np.__version__} no longer sums {x.shape[-1]} float64 values in the pairwise "
        f"order that losses._StreamedMean follows (leaf {leaf}): its mean is {got!r}, "
        f"np.mean's {want!r}")


def test_streamed_mean_is_numpys_mean_at_small_lengths(leaf):
    rng = np.random.default_rng(leaf)
    for n in SMALL:
        x = spread(rng, n)
        assert_numpy_bits(streamed_mean(x, leaf, rng), x, leaf)


@pytest.mark.parametrize("n", LARGE)
def test_streamed_mean_is_numpys_mean_at_frame_sizes(leaf, n):
    rng = np.random.default_rng(n + leaf)
    x = spread(rng, n)
    assert_numpy_bits(streamed_mean(x, leaf, rng), x, leaf)


def test_streamed_mean_of_a_stack_is_numpys_mean_of_each_row(leaf):
    # the runs of a stack are (b, k): one mean per row, each row's bits
    rng = np.random.default_rng(7 * leaf)
    for n in (1, 129, 1000, 4103, 70001):
        x = spread(rng, (3, n))
        assert_numpy_bits(streamed_mean(x, leaf, rng), x, leaf)



def test_leaf_holds_at_least_one_block_numpy_adds_whole():
    # numpy adds a run of up to 128 values as one unsplit block; a smaller
    # leaf would cut such a block and add its values in another order
    assert _MEAN_LEAF >= 128
