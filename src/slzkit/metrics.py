"""Two-class segmentation metrics over pooled confusion counts.

Per-class ratios with a zero denominator are reported as NaN and left
out of the class means, so degenerate images (e.g. all-safe ground
truth) do not bias the averages. Fscore per class is the Dice value
(2TP / (2TP + FP + FN)) and Acc per class the recall; reports
conventionally carry all four columns, so ``MetricsReport.fscore`` and
``MetricsReport.acc`` derive theirs from ``dice`` and ``recall``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ShapeMismatchError
from .io import _check_mask

_CLASS_NAMES = ("safe", "unsafe")


@dataclass(frozen=True)
class MetricsReport:
    """Percentages in [0, 100]; per-class arrays hold NaN when undefined."""

    aAcc: float
    iou: np.ndarray
    dice: np.ndarray
    precision: np.ndarray
    recall: np.ndarray

    @property
    def fscore(self):
        """Per-class Fscore (F1), which equals the Dice value."""
        return self.dice

    @property
    def acc(self):
        """Per-class accuracy, which equals the recall."""
        return self.recall

    def _mean(self, values):
        defined = values[~np.isnan(values)]
        return float(defined.mean()) if defined.size else float("nan")

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


def confusion(pred, gt):
    """2x2 confusion counts of two same-shape masks, indexed [gt class][pred class]."""
    p = _check_mask(pred, "pred")
    g = _check_mask(gt, "gt")
    if p.shape != g.shape:
        raise ShapeMismatchError(f"pred shape {p.shape} != gt shape {g.shape}")
    # uint8 casts: the masks may be float, which bincount refuses
    idx = 2 * g.astype(np.uint8, copy=False) + p.astype(np.uint8, copy=False)
    return np.bincount(idx.ravel(), minlength=4).reshape(2, 2)


def _ratio(num, den):
    """num / den of float64 arrays where den > 0, NaN elsewhere."""
    return np.divide(num, den, out=np.full(num.shape, np.nan), where=den > 0)


def evaluate(cm) -> MetricsReport:
    """Per-class IoU/Acc/Dice/Fscore/Precision/Recall plus overall accuracy."""
    cm = np.asarray(cm, dtype=np.int64)
    if cm.shape != (2, 2):
        raise ShapeMismatchError(f"confusion matrix must be 2x2, got shape {cm.shape}")
    if (cm < 0).any():
        raise ValueError("confusion counts must be >= 0")
    total = cm.sum()
    if total == 0:
        raise DegenerateInputError("empty confusion matrix")
    tp = np.diag(cm).astype(np.float64)
    gt_total = cm.sum(axis=1).astype(np.float64)
    pred_total = cm.sum(axis=0).astype(np.float64)
    fn = gt_total - tp
    fp = pred_total - tp

    iou = _ratio(tp, tp + fp + fn)
    dice = _ratio(2 * tp, 2 * tp + fp + fn)
    recall = _ratio(tp, tp + fn)
    precision = _ratio(tp, tp + fp)
    return MetricsReport(
        aAcc=float(tp.sum() / total) * 100.0,
        iou=iou * 100.0,
        dice=dice * 100.0,
        precision=precision * 100.0,
        recall=recall * 100.0,
    )


def evaluate_dataset(pairs) -> MetricsReport:
    """Pool confusion counts over (pred, gt) mask pairs, then evaluate."""
    total = np.zeros((2, 2), dtype=np.int64)
    count = 0
    for pred, gt in pairs:
        total += confusion(pred, gt)
        count += 1
    if count == 0:
        raise DegenerateInputError("no mask pairs to evaluate")
    return evaluate(total)


def to_csv_rows(report: MetricsReport):
    """Rows of (metric, safe, unsafe, mean), percentages at 2 decimals."""

    def fmt(x):
        return "nan" if np.isnan(x) else f"{x:.2f}"

    rows = [("metric",) + _CLASS_NAMES + ("mean",), ("aAcc", "", "", fmt(report.aAcc))]
    for name in ("IoU", "Acc", "Dice", "Fscore", "Precision", "Recall"):
        values = getattr(report, name.lower())
        rows.append((name, fmt(values[0]), fmt(values[1]), fmt(getattr(report, "m" + name))))
    return rows
