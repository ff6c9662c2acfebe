import numpy as np
import pytest

from mosdistill import losses
from mosdistill.bev import CellLabelGrid
from mosdistill.losses import DistillConfig, LogitGrid
from mosdistill.verify import (
    check_lovasz_grad,
    lovasz_class_loss_bruteforce,
    lovasz_value_bruteforce,
    suite_lovasz,
)


def rows_case(labels, scores):
    """Student probabilities and labels of (M, C) logit rows."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1, 4)
    return losses.softmax_probs(scores), np.asarray(labels, dtype=np.int64)


class TestLovaszSoftmax:
    def test_hard_correct_predictions(self):
        labels = [0, 1, 2, 3, 1]
        scores = np.full((5, 4), -40.0)
        for i, c in enumerate(labels):
            scores[i, c] = 40.0
        out = losses.lovasz_softmax(*rows_case(labels, scores))
        assert out.value == pytest.approx(0.0, abs=1e-12)

    def test_single_cell_is_plain_error(self):
        # one cell, true class 2 with p = 0.7: the extension collapses to
        # the error itself, 0.3
        p = np.array([0.1, 0.1, 0.7, 0.1])
        out = losses.lovasz_softmax(*rows_case([2], np.log(p)))
        assert out.value == pytest.approx(0.3, abs=1e-12)

    def test_six_cell_instance_matches_set_function_oracle(self, rng):
        z = rng.normal(0, 2, size=(6, 4))
        t = rng.integers(0, 4, size=6)
        ours = losses.lovasz_softmax(losses.softmax_probs(z), t).value
        ref = lovasz_value_bruteforce(z, t)
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_oracle_suite(self):
        result = suite_lovasz()
        assert result.passed, result.format()

    def test_gradient_finite_difference(self, rng):
        for _ in range(5):
            assert check_lovasz_grad(rng) < 1e-4

    def test_gradient_zero_at_invalid_cells(self, rng):
        # zero class weights and gamma = 0 leave only the Lovasz term in
        # total_loss's gradient
        valid = np.array([[True, False, True, True]])
        labels = np.array([[1, 0, 2, 1]], dtype=np.uint8)
        lab = CellLabelGrid(labels=labels, valid=valid)
        grid = LogitGrid(rng.normal(size=(1, 4, 4)), valid)
        out = losses.total_loss(grid, None, lab, DistillConfig(gamma=0.0), np.zeros(4))
        ls = losses.lovasz_softmax(*rows_case(labels[valid], grid.scores[valid]))
        assert (out.grad[~valid] == 0.0).all()
        np.testing.assert_array_equal(out.grad[valid], ls.grad)

    def test_classes_subset(self, rng):
        p, t = rows_case([1, 2, 3, 1], rng.normal(size=(4, 4)))
        full = losses.lovasz_softmax(p, t)
        only_moving = losses.lovasz_softmax(p, t, classes=(3,))
        expected = lovasz_class_loss_bruteforce(p[:, 3], (t == 3).astype(np.float64))
        assert only_moving.value == pytest.approx(expected, abs=1e-12)
        assert full.value != pytest.approx(only_moving.value)

    def test_absent_subset_gives_zero(self, rng):
        p, t = rows_case([1, 1], rng.normal(size=(2, 4)))
        out = losses.lovasz_softmax(p, t, classes=(3,))
        assert out.value == 0.0
        assert (out.grad == 0.0).all()

    def test_stable_sort_tie_break(self):
        # two identical errors: stable descending sort keeps index order,
        # so the result is deterministic and finite
        p = np.array([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]])
        rows = rows_case([0, 0], np.log(np.maximum(p, 1e-12)))
        out1 = losses.lovasz_softmax(*rows)
        out2 = losses.lovasz_softmax(*rows)
        assert out1.value == out2.value
        np.testing.assert_array_equal(out1.grad, out2.grad)
