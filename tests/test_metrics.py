import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from slzkit import io as sio
from slzkit import metrics
from slzkit.errors import DegenerateInputError, ShapeMismatchError
from slzkit.cli import main
from slzkit.metrics import confusion, evaluate, to_csv_rows


def test_confusion_perfect_prediction():
    rng = np.random.default_rng(0)
    gt = (rng.uniform(size=(4, 4)) > 0.5).astype(np.uint8)
    cm = confusion(gt, gt)
    assert cm[0, 1] == 0 and cm[1, 0] == 0
    assert cm.sum() == 16


def test_confusion_inverted_prediction():
    rng = np.random.default_rng(1)
    gt = (rng.uniform(size=(4, 4)) > 0.5).astype(np.uint8)
    cm = confusion(1 - gt, gt)
    assert cm[0, 0] == 0 and cm[1, 1] == 0


def test_confusion_matches_per_pixel_tally():
    pred = np.array([[0, 1, 1], [1, 0, 0], [1, 1, 0]], np.uint8)
    gt = np.array([[0, 0, 1], [1, 1, 0], [0, 1, 1]], np.uint8)
    assert np.array_equal(confusion(pred, gt), oracles.confusion_ref(pred, gt))


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64])
@pytest.mark.parametrize("with_ignore", [False, True])
def test_confusion_of_any_mask_dtype_matches_the_loop_count(dtype, with_ignore):
    rng = np.random.default_rng(7)
    pred, gt, ignore = rng.uniform(size=(3, 9, 11)) < np.array([0.4, 0.6, 0.3])[:, None, None]
    pred, gt = pred.astype(dtype), gt.astype(dtype)
    ignore = ignore.astype(np.uint8) if with_ignore else None
    if with_ignore:
        # confusion has no ignore mask: the oracle's ignored pixels leave
        # the count when both masks keep only the others, as one row
        cm = confusion(pred[ignore == 0][None], gt[ignore == 0][None])
    else:
        cm = confusion(pred, gt)
    assert cm.dtype == np.int64
    assert np.array_equal(cm, oracles.confusion_ref(pred, gt, ignore))


def test_confusion_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        confusion(np.zeros((2, 2), np.uint8), np.zeros((2, 3), np.uint8))


def test_evaluate_perfect():
    rep = evaluate(np.array([[7, 0], [0, 9]]))
    assert rep.aAcc == 100.0
    for value in (rep.mIoU, rep.mAcc, rep.mDice, rep.mFscore, rep.mPrecision, rep.mRecall):
        assert value == 100.0


def test_acc_is_the_recall():
    rep = evaluate(np.array([[2, 1], [1, 4]]))
    assert "acc" not in rep._fields
    assert np.array_equal(rep.acc, rep.recall) and rep.mAcc == rep.mRecall


def test_evaluate_hand_example():
    rep = evaluate(np.array([[2, 1], [1, 4]]))
    assert rep.iou[0] == pytest.approx(50.0)
    assert rep.iou[1] == pytest.approx(200.0 / 3.0)
    assert round(rep.mIoU, 2) == 58.33
    assert round(rep.aAcc, 2) == 75.00


def test_evaluate_degenerate_class_excluded_from_means():
    # Only the safe class appears and it is predicted perfectly.
    rep = evaluate(np.array([[5, 0], [0, 0]]))
    assert rep.aAcc == 100.0
    assert rep.iou[0] == 100.0 and np.isnan(rep.iou[1])
    assert rep.mIoU == 100.0
    assert np.isnan(rep.recall[1])
    assert rep.mRecall == 100.0


def test_evaluate_errors():
    with pytest.raises(DegenerateInputError):
        evaluate(np.zeros((2, 2), np.int64))
    with pytest.raises(ShapeMismatchError):
        evaluate(np.zeros((3, 3), np.int64))
    with pytest.raises(ValueError):
        evaluate(np.array([[1, -1], [0, 2]]))
    # a count must be a finite whole number: 2.7 is not read as 2, and a
    # NaN or inf raises before any cast can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (2.7, np.nan, np.inf):
            for cm in ([[bad, 1], [1, 4]], np.array([[1, 1], [1, bad]])):
                with pytest.raises(ValueError, match=f"must be finite integers, got {bad}"):
                    evaluate(cm)


def test_mdice_equals_mfscore_and_f1_identity():
    rng = np.random.default_rng(2)
    for _ in range(200):
        cm = rng.integers(1, 500, (2, 2))
        rep = evaluate(cm)
        assert abs(rep.mDice - rep.mFscore) <= 1e-12
        # Fscore really is the harmonic mean of per-class precision/recall
        for c in range(2):
            p, r = rep.precision[c] / 100, rep.recall[c] / 100
            assert rep.fscore[c] / 100 == pytest.approx(2 * p * r / (p + r), rel=1e-12)


def test_iou_bounded_by_dice():
    rng = np.random.default_rng(3)
    for _ in range(100):
        rep = evaluate(rng.integers(0, 50, (2, 2)) + np.eye(2, dtype=int))
        for c in range(2):
            if not np.isnan(rep.iou[c]):
                assert rep.iou[c] <= rep.dice[c] + 1e-12


def test_class_permutation_invariance():
    rng = np.random.default_rng(4)
    for _ in range(50):
        pred = (rng.uniform(size=(6, 6)) > 0.4).astype(np.uint8)
        gt = (rng.uniform(size=(6, 6)) > 0.6).astype(np.uint8)
        a = evaluate(confusion(pred, gt))
        b = evaluate(confusion(1 - pred, 1 - gt))
        assert a.mIoU == pytest.approx(b.mIoU, rel=1e-12)
        assert a.mDice == pytest.approx(b.mDice, rel=1e-12)
        assert a.mPrecision == pytest.approx(b.mPrecision, rel=1e-12)


def test_aacc_depends_only_on_diagonal_and_total():
    a = evaluate(np.array([[10, 4], [2, 8]]))
    b = evaluate(np.array([[10, 2], [4, 8]]))
    assert a.aAcc == b.aAcc


def evaluate_cli(capsys, root, pairs):
    """The CSV rows that ``slzkit evaluate`` prints for (pred, gt) mask
    pairs, written as same-named PGM files under root/pred and root/gt."""
    for side in ("pred", "gt"):
        (root / side).mkdir(parents=True)
    for i, pair in enumerate(pairs):
        for side, mask in zip(("pred", "gt"), pair):
            sio.write_mask(mask, root / side / f"{i:03d}.pgm")
    assert main(["evaluate", "--pred-dir", str(root / "pred"), "--gt-dir", str(root / "gt")]) == 0
    return [tuple(row) for row in csv.reader(io.StringIO(capsys.readouterr().out))]


def test_evaluate_dataset_single_pair(capsys, tmp_path):
    rng = np.random.default_rng(5)
    pred = (rng.uniform(size=(5, 5)) > 0.5).astype(np.uint8)
    gt = (rng.uniform(size=(5, 5)) > 0.5).astype(np.uint8)
    a = evaluate_cli(capsys, tmp_path, [(pred, gt)])
    b = to_csv_rows(evaluate(confusion(pred, gt)))
    assert a == b


def test_evaluate_dataset_duplication_invariance(capsys, tmp_path):
    rng = np.random.default_rng(6)
    pairs = [((rng.uniform(size=(4, 4)) > 0.5).astype(np.uint8),
              (rng.uniform(size=(4, 4)) > 0.5).astype(np.uint8)) for _ in range(3)]
    a = evaluate_cli(capsys, tmp_path / "once", pairs)
    b = evaluate_cli(capsys, tmp_path / "twice", pairs + pairs)
    assert a == b


def test_evaluate_dataset_pools_confusions(capsys, tmp_path):
    pred1 = np.array([[0, 1], [1, 1]], np.uint8)
    gt1 = np.array([[0, 0], [1, 1]], np.uint8)
    pred2 = np.array([[1, 1], [0, 0]], np.uint8)
    gt2 = np.array([[1, 0], [0, 1]], np.uint8)
    rep = evaluate_cli(capsys, tmp_path, [(pred1, gt1), (pred2, gt2)])
    pooled = oracles.confusion_ref(pred1, gt1) + oracles.confusion_ref(pred2, gt2)
    ref = to_csv_rows(evaluate(pooled))
    assert rep == ref


def test_csv_rows_format():
    rows = to_csv_rows(evaluate(np.array([[2, 1], [1, 4]])))
    assert rows[0] == ("metric", "safe", "unsafe", "mean")
    assert rows[1] == ("aAcc", "", "", "75.00")
    iou = next(r for r in rows if r[0] == "IoU")
    assert iou == ("IoU", "50.00", "66.67", "58.33")


def test_evaluate_takes_nested_sequences_and_whole_float_counts():
    want = evaluate(np.array([[2, 1], [1, 4]]))
    assert evaluate([[2, 1], [1, 4]]) == evaluate(((2.0, 1.0), (1.0, 4.0))) == want
    assert evaluate(np.array([[2.0, 1.0], [1.0, 4.0]])) == want
    for bad in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [1, 2, 3, 4], np.ones((2, 2, 1))):
        with pytest.raises(ShapeMismatchError, match="confusion matrix must be 2x2"):
            evaluate(bad)


def _evaluate_numpy(cm):
    """The metrics in numpy float64 arithmetic: per-class vectors, np.divide
    where the denominator is > 0, and the mean of the defined entries."""
    cm = np.asarray(cm, dtype=np.int64)
    tp = np.diag(cm).astype(np.float64)
    fn = cm.sum(axis=1) - tp
    fp = cm.sum(axis=0) - tp

    def ratio(num, den):
        return np.divide(num, den, out=np.full(2, np.nan), where=den > 0) * 100.0

    def mean(v):
        return v[~np.isnan(v)].mean() if (~np.isnan(v)).any() else np.nan

    per_class = [ratio(tp, tp + fp + fn), ratio(2 * tp, 2 * tp + fp + fn),
                 ratio(tp, tp + fp), ratio(tp, tp + fn)]
    return [float(tp.sum() / cm.sum()) * 100.0] + [x for v in per_class for x in (*v, mean(v))]


def test_evaluate_gives_numpys_float64_values_bit_for_bit():
    rng = np.random.default_rng(12)
    for i in range(2000):
        cm = rng.integers(0, [3, 100, 10**6, 10**9][i % 4], (2, 2))
        if i % 3 == 0:  # an empty class now and then
            cm[rng.integers(2), rng.integers(2)] = 0
        if cm.sum() == 0:
            continue
        rep = evaluate(cm)
        got = [rep.aAcc] + [x for v, m in ((rep.iou, rep.mIoU), (rep.dice, rep.mDice),
                                           (rep.precision, rep.mPrecision),
                                           (rep.recall, rep.mRecall)) for x in (*v, m)]
        want = np.array(_evaluate_numpy(cm))
        assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64)), cm


def _pgm(path, gray):
    path.write_bytes(f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii")
                     + gray.tobytes())


# one int packs a chunk of the payload: sizes below, at and across its bound
_CHUNK = metrics._CHUNK


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), height=st.integers(1, 40), width=st.integers(1, 40),
       levels=st.sampled_from(["edges", "random"]))
@example(seed=0, height=1, width=1, levels="edges")
@example(seed=1, height=1, width=37, levels="edges")
@example(seed=2, height=37, width=1, levels="random")
@example(seed=3, height=1, width=_CHUNK - 1, levels="edges")
@example(seed=4, height=1, width=_CHUNK, levels="random")
@example(seed=5, height=_CHUNK + 1, width=1, levels="edges")
@example(seed=6, height=183, width=181, levels="random")
@example(seed=7, height=257, width=255, levels="edges")
def test_byte_counter_matches_the_loop_count_of_pgm_files(tmp_path_factory, seed, height,
                                                         width, levels):
    rng = np.random.default_rng(seed)
    if levels == "edges":  # the gray values either side of the threshold
        grays = [rng.choice(np.array([0, 127, 128, 255], np.uint8), (height, width))
                 for _ in range(2)]
    else:
        grays = [rng.integers(0, 256, (height, width), dtype=np.uint8) for _ in range(2)]
    tmp = tmp_path_factory.mktemp("pgm")
    paths = [tmp / "pred.pgm", tmp / "gt.pgm"]
    for path, gray in zip(paths, grays):
        _pgm(path, gray)
    (pred_shape, pred), (gt_shape, gt) = (sio._read_pgm(p, bytearray()) for p in paths)
    assert pred_shape == gt_shape == (height, width)
    want = oracles.confusion_ref(*(g >= 128 for g in grays))
    assert np.array_equal(np.reshape(metrics._counts(pred, gt), (2, 2)), want)
    masks = [sio.read_mask(p) for p in paths]
    assert np.array_equal(confusion(*masks), want)
