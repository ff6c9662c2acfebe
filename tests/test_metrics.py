import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosdistill import metrics
from mosdistill.errors import IndexOutOfRange, LengthMismatch
from mosdistill.metrics import accumulate, iou

class_ids = st.lists(st.integers(0, 3), min_size=0, max_size=40)


def empty():
    """A confusion matrix with no counts."""
    return np.zeros((4, 4), dtype=np.int64)


class TestAccumulate:
    def test_perfect_predictions(self):
        cm = accumulate(empty(), [3, 3, 1], [3, 3, 1])
        assert cm[3, 3] == 2
        assert cm[1, 1] == 1
        assert cm.sum() == 3

    def test_unlabeled_truth_skipped(self):
        cm = accumulate(empty(), [1, 2, 3], [0, 0, 3])
        assert cm.sum() == 1
        assert cm[3, 3] == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            accumulate(empty(), [1, 2], [1])

    @pytest.mark.parametrize("preds,truth", [([1, 4], [1, 1]), ([1, 1], [1, 4]), ([-1], [1])])
    def test_class_id_out_of_range_raises(self, preds, truth):
        cm = empty()
        with pytest.raises(IndexOutOfRange):
            accumulate(cm, preds, truth)
        assert cm.sum() == 0

    @given(class_ids, class_ids, class_ids, class_ids)
    @settings(max_examples=40, deadline=None)
    def test_additive_over_concatenation(self, p1, t1, p2, t2):
        n1, n2 = min(len(p1), len(t1)), min(len(p2), len(t2))
        p1, t1, p2, t2 = p1[:n1], t1[:n1], p2[:n2], t2[:n2]
        split = accumulate(accumulate(empty(), p1, t1), p2, t2)
        joined = accumulate(empty(), p1 + p2, t1 + t2)
        np.testing.assert_array_equal(split, joined)

    @given(class_ids, class_ids, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, preds, truth, rnd):
        n = min(len(preds), len(truth))
        pairs = list(zip(preds[:n], truth[:n]))
        shuffled = pairs[:]
        rnd.shuffle(shuffled)
        a = accumulate(empty(), [p for p, _ in pairs], [t for _, t in pairs])
        b = accumulate(
            empty(), [p for p, _ in shuffled], [t for _, t in shuffled]
        )
        np.testing.assert_array_equal(a, b)


class TestIou:
    def test_perfect(self):
        cm = accumulate(empty(), [1, 2, 3], [1, 2, 3])
        for c in (1, 2, 3):
            assert iou(cm, c) == 1.0

    def test_formula(self):
        cm = empty()
        cm[3, 3] = 1  # TP
        cm[1, 3] = 1  # FP
        cm[3, 1] = 2  # FN
        assert iou(cm, 3) == pytest.approx(0.25)

    def test_all_wrong(self):
        cm = accumulate(empty(), [1, 1], [3, 3])
        assert iou(cm, 3) == 0.0

    def test_absent_class_convention(self):
        cm = accumulate(empty(), [1], [1])
        assert iou(cm, 3) == 1.0

    def test_monotone_in_tp(self):
        cm = empty()
        cm[3, 3] = 1
        cm[1, 3] = 2
        cm[3, 2] = 2
        lo = iou(cm, 3)
        cm[3, 3] += 5
        assert iou(cm, 3) > lo

    @given(class_ids, class_ids)
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, preds, truth):
        n = min(len(preds), len(truth))
        cm = accumulate(empty(), preds[:n], truth[:n])
        for c in range(4):
            assert 0.0 <= iou(cm, c) <= 1.0

    def test_merge(self):
        a = accumulate(empty(), [3], [3])
        b = accumulate(empty(), [3], [1])
        # matrices merge by adding counts, as accumulating both batches does
        merged = a + b
        accumulate(a, [3], [1])
        np.testing.assert_array_equal(a, merged)
        assert a[1, 3] == 1 and a[3, 3] == 1


class TestReport:
    def test_write_read_round_trip(self, tmp_path):
        cell = accumulate(empty(), [1, 2, 3], [1, 2, 3])
        point = accumulate(empty(), [1, 3, 3], [1, 2, 3])
        report = metrics.metrics_report(cell, point)
        path = tmp_path / "metrics.txt"
        metrics.write_metrics(report, path)
        back = metrics.read_metrics(path)
        assert set(back) == set(report)
        assert float(back["moving_iou"]) == pytest.approx(report["moving_iou"])
        assert back["cell_cm_moving"] == report["cell_cm_moving"]

    def test_headline_is_point_level(self):
        cell = accumulate(empty(), [3], [3])
        point = accumulate(empty(), [1, 3], [3, 3])
        report = metrics.metrics_report(cell, point)
        assert report["moving_iou"] == pytest.approx(0.5)
        assert report["cell_iou_moving"] == pytest.approx(1.0)
