"""Two-class segmentation metrics over pooled confusion counts.

Per-class ratios with a zero denominator are reported as NaN and left
out of the class means, so degenerate images (e.g. all-safe ground
truth) do not bias the averages. Fscore per class is the Dice value
(2TP / (2TP + FP + FN)) and Acc per class the recall; reports
conventionally carry all four columns, so ``MetricsReport.fscore`` and
``MetricsReport.acc`` derive theirs from ``dice`` and ``recall``.

The counts and metrics are plain Python ints and floats, so that
``slzkit evaluate`` runs without numpy: each count is exact and each
ratio one correctly rounded IEEE division, the values numpy gives.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DegenerateInputError, ShapeMismatchError

_CLASS_NAMES = ("safe", "unsafe")
# Gray bytes counted per int. Ints of whole 720p payloads would each take
# fresh pages from the OS, and popcounts cost per 30-bit digit.
_CHUNK = 1 << 15
_HIGH = int.from_bytes(b"\x80" * _CHUNK, "little")  # bit 7, the class, of each byte
# Three halvings pack a chunk's class bits eight to a byte: each ORs the
# upper half of the int onto the lower half, shifted 1, 2 and then 4 bits
# further down so that its bits land beside those already there.
_FOLDS = [((1 << (8 * _CHUNK >> k)) - 1, (8 * _CHUNK >> k) + (1 << (k - 1))) for k in (1, 2, 3)]


class MetricsReport(namedtuple("MetricsReport", "aAcc iou dice precision recall")):
    """Percentages in [0, 100]; the per-class fields are (safe, unsafe)
    float tuples that hold NaN where a class is undefined."""

    __slots__ = ()

    @property
    def fscore(self):
        """Per-class Fscore (F1), which equals the Dice value."""
        return self.dice

    @property
    def acc(self):
        """Per-class accuracy, which equals the recall."""
        return self.recall

    @staticmethod
    def _mean(values):
        defined = [v for v in values if not math.isnan(v)]
        if len(defined) == 2:
            return (defined[0] + defined[1]) / 2
        return defined[0] if defined else math.nan

    @property
    def mIoU(self):
        return self._mean(self.iou)

    @property
    def mAcc(self):
        return self._mean(self.acc)

    @property
    def mDice(self):
        return self._mean(self.dice)

    @property
    def mFscore(self):
        return self._mean(self.fscore)

    @property
    def mPrecision(self):
        return self._mean(self.precision)

    @property
    def mRecall(self):
        return self._mean(self.recall)


def _packed(chunk):
    """The classes of a chunk of at most _CHUNK gray bytes, bit 7 of each
    byte, packed eight to a byte into one int."""
    x = int.from_bytes(chunk, "little") & _HIGH
    for low, shift in _FOLDS:
        x = (x & low) | (x >> shift)
    return x


def _counts(pred, gt):
    """Confusion counts ``(c00, c01, c10, c11)``, c[gt class][pred class], of
    two equal-length gray payloads, a byte >= 128 being unsafe (class 1).

    Each chunk of a payload becomes one int of its pixels' classes; three
    popcounts give the unsafe pixels of pred, of gt and of both.
    """
    n = len(pred)
    both = p1 = g1 = 0
    for i in range(0, n, _CHUNK):
        p, g = _packed(pred[i:i + _CHUNK]), _packed(gt[i:i + _CHUNK])
        both += (p & g).bit_count()
        p1 += p.bit_count()
        g1 += g.bit_count()
    return n - p1 - g1 + both, p1 - both, g1 - both, both


def _pooled(counts):
    """The 2x2 sum of one or more ``_counts`` tuples, as two rows."""
    total = [sum(c) for c in zip(*counts)]
    return total[:2], total[2:]


def confusion(pred, gt):
    """2x2 confusion counts of two same-shape masks, indexed [gt class][pred class],
    each mask checked by the mask contract."""
    import numpy as np

    from .io import _check_mask

    p = _check_mask(pred, "pred")
    g = _check_mask(gt, "gt")
    if p.shape != g.shape:
        raise ShapeMismatchError(f"pred shape {p.shape} != gt shape {g.shape}")
    # class 1 -> byte 128; uint8 casts: the masks may be bool or float
    counts = _counts(*((m.astype(np.uint8, copy=False) << 7).tobytes() for m in (p, g)))
    return np.array(counts, dtype=np.int64).reshape(2, 2)


def _shape(x):
    """The shape numpy would give a nested list or tuple, read along its first items."""
    shape = ()
    while isinstance(x, (list, tuple)):
        shape += (len(x),)
        x = x[0] if x else None
    return shape


def _count(value):
    """A confusion count as an int; ValueError unless it is a finite integer >= 0."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError(f"confusion counts must be finite integers, got {value!r}")
    if n < 0:
        raise ValueError("confusion counts must be >= 0")
    return n


def _ratio(num, den):
    """num / den as a percentage, NaN where den is 0."""
    return num / den * 100.0 if den > 0 else math.nan


def evaluate(cm) -> MetricsReport:
    """Per-class IoU/Acc/Dice/Fscore/Precision/Recall plus overall accuracy
    of a 2x2 count matrix (nested sequences or an array)."""
    rows = cm.tolist() if hasattr(cm, "tolist") else cm
    if _shape(rows) != (2, 2) or _shape(rows[1]) != (2,):
        raise ShapeMismatchError(f"confusion matrix must be 2x2, got shape {_shape(rows)}")
    (c00, c01), (c10, c11) = ((_count(a), _count(b)) for a, b in rows)
    total = c00 + c01 + c10 + c11
    if total == 0:
        raise DegenerateInputError("empty confusion matrix")
    # each a (safe, unsafe) pair, from each class's true positives, false
    # positives and false negatives
    iou, dice, precision, recall = zip(*(
        (_ratio(tp, tp + fp + fn), _ratio(2 * tp, 2 * tp + fp + fn),
         _ratio(tp, tp + fp), _ratio(tp, tp + fn))
        for tp, fp, fn in ((c00, c10, c01), (c11, c01, c10))))
    return MetricsReport((c00 + c11) / total * 100.0, iou, dice, precision, recall)


def to_csv_rows(report: MetricsReport):
    """Rows of (metric, safe, unsafe, mean), percentages at 2 decimals."""

    def fmt(x):
        return "nan" if math.isnan(x) else f"{x:.2f}"

    rows = [("metric",) + _CLASS_NAMES + ("mean",), ("aAcc", "", "", fmt(report.aAcc))]
    for name in ("IoU", "Acc", "Dice", "Fscore", "Precision", "Recall"):
        values = getattr(report, name.lower())
        rows.append((name, fmt(values[0]), fmt(values[1]), fmt(getattr(report, "m" + name))))
    return rows
