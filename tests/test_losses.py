import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosdistill import losses
from mosdistill.bev import CellLabelGrid
from mosdistill.errors import EmptyFrame, ShapeMismatch
from mosdistill.losses import DistillConfig, LogitGrid
from mosdistill.verify import (
    check_total_grad,
    check_wce_grad,
    check_wdcd_grad,
    decomposition_residual,
)
import oracle_utils as oracle

finite_logits = st.lists(st.floats(-8, 8), min_size=4, max_size=4).map(np.array)


def grid_case(rng, h=3, w=4, invalid=(0, 0)):
    """Teacher and student grids and labels; ``invalid`` indexes the
    invalid cells."""
    valid = np.ones((h, w), dtype=bool)
    valid[invalid] = False
    labels = rng.integers(0, 4, size=(h, w)).astype(np.uint8)
    labels[~valid] = 0
    lab = CellLabelGrid(labels=labels, valid=valid)
    zt = LogitGrid(rng.normal(0, 2, (h, w, 4)), valid)
    zs = LogitGrid(rng.normal(0, 2, (h, w, 4)), valid)
    return zt, zs, lab


def rows_case(rng, m=11):
    """(M, C) teacher and student logit rows with their labels."""
    t = rng.integers(0, 4, size=m)
    return rng.normal(0, 2, (m, 4)), rng.normal(0, 2, (m, 4)), t


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(
            losses.softmax_probs(np.zeros(4)), np.full(4, 0.25), atol=1e-15
        )

    @given(finite_logits, st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, z, c):
        np.testing.assert_allclose(
            losses.softmax_probs(z), losses.softmax_probs(z + c), atol=1e-12
        )

    def test_one_high_logit(self):
        # direct evaluation oracle: p_0 = e / (e + 3)
        p = losses.softmax_probs(np.array([1.0, 0.0, 0.0, 0.0]))
        e = np.exp(1.0)
        assert p[0] == pytest.approx(e / (e + 3.0), abs=1e-15)
        assert p[0] == pytest.approx(0.4753668864, abs=1e-9)

    @given(finite_logits, st.floats(0.25, 8))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, z, tau):
        assert abs(losses.softmax_probs(z / tau).sum() - 1.0) < 1e-12


def one_cell(zt, zs, t, tau=1.0):
    """kd_split of a single cell, raw logits scaled by tau."""
    return losses.kd_split(np.atleast_2d(zt) / tau, np.atleast_2d(zs) / tau, np.array([t]))


def one_cell_wdcd(zt, zs, t, cfg):
    """wdcd_frame of a one-cell frame: its weight is 1, so at tau = 1 it is DCD."""
    return losses.wdcd_frame(zt.reshape(1, 4), zs.reshape(1, 4), np.array([t]), cfg).value


class TestTargetSplit:
    # the (p_t, 1 - p_t) split TCKD compares, for teacher and student
    def test_uniform(self):
        kd = one_cell(np.zeros(4), np.zeros(4), 2)
        assert (kd.q_t[0], 1.0 - kd.q_t[0]) == (0.25, 0.75)
        assert (kd.p_t[0], 1.0 - kd.p_t[0]) == (0.25, 0.75)

    def test_one_hot(self):
        z = np.array([0.0, 800.0, 0.0, 0.0])  # exp(-800) underflows to 0
        kd = one_cell(z, z, 1)
        assert (kd.p_t[0], 1.0 - kd.p_t[0]) == (1.0, 0.0)

    def test_plain_vector(self):
        z = np.log([0.1, 0.2, 0.3, 0.4])
        kd = one_cell(z, z, 2)
        assert kd.p_t[0] == pytest.approx(0.3)
        assert 1.0 - kd.p_t[0] == pytest.approx(0.7)


class TestNontargetProbs:
    def test_uniform(self):
        kd = one_cell(np.zeros(4), np.zeros(4), 0)
        np.testing.assert_allclose(kd.p_hat[0], [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        assert kd.p_hat[0, 0] == 0.0

    @given(finite_logits, st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_consistency_with_full_softmax(self, z, t):
        # identity p_hat_i * (1 - p_t) = p_i for every i != t
        kd = one_cell(z, z, t)
        rest = kd.p[0].copy()
        rest[t] = 0.0
        np.testing.assert_allclose(kd.p_hat[0] * (1.0 - kd.p_t[0]), rest, atol=1e-12)

    def test_independent_of_target_logit(self):
        z = np.array([0.3, -1.0, 2.0, 0.5])
        z_big = z.copy()
        z_big[1] = 50.0
        np.testing.assert_allclose(
            one_cell(z, z, 1).p_hat, one_cell(z_big, z_big, 1).p_hat, atol=1e-12
        )


class TestKdAndDecomposition:
    def test_equal_logits(self):
        z = np.array([1.0, -0.5, 0.2, 0.0])
        kd = one_cell(z, z, 2)
        assert kd.tckd[0] == pytest.approx(0.0, abs=1e-15)
        assert kd.nckd[0] == pytest.approx(0.0, abs=1e-15)

    def test_shifted_logits(self):
        z = np.array([1.0, -0.5, 0.2, 0.0])
        kd = one_cell(z, z + 3.0, 1)
        assert kd.tckd[0] == pytest.approx(0.0, abs=1e-12)
        assert kd.nckd[0] == pytest.approx(0.0, abs=1e-12)

    def test_frozen_example(self):
        # teacher (1,0,0,0), student uniform: KD = sum p_T log(4 p_T)
        zt = np.array([1.0, 0.0, 0.0, 0.0])
        zs = np.zeros(4)
        p = losses.softmax_probs(zt)
        expected = float((p * np.log(4.0 * p)).sum())
        for t in range(4):
            kd = one_cell(zt, zs, t)
            split = kd.tckd[0] + (1.0 - kd.q_t[0]) * kd.nckd[0]
            assert split == pytest.approx(expected, abs=1e-12)

    def test_non_negative(self, rng):
        zt = rng.normal(0, 3, (200, 4))
        zs = rng.normal(0, 3, (200, 4))
        t = rng.integers(4, size=200)
        kd = losses.kd_split(zt, zs, t)
        assert (kd.tckd >= -1e-12).all()
        assert (kd.nckd >= -1e-12).all()

    def test_matches_scalar_oracles(self, rng):
        for tau in (1.0, 2.0, 4.0):
            for _ in range(20):
                zt, zs = rng.normal(0, 2, 4), rng.normal(0, 2, 4)
                t = int(rng.integers(4))
                kd = one_cell(zt, zs, t, tau)
                assert kd.tckd[0] == pytest.approx(oracle.tckd(zt, zs, t, tau), rel=1e-10)
                assert kd.nckd[0] == pytest.approx(oracle.nckd(zt, zs, t, tau), rel=1e-10)

    def test_decomposition_identity(self, rng):
        zt = rng.normal(0, 2, (300, 4))
        zs = rng.normal(0, 2, (300, 4))
        t = rng.integers(4, size=300)
        for tau in (1.0, 2.0, 4.0):
            assert decomposition_residual(zt, zs, t, tau).max() < 1e-9

    def test_saturated_teacher_suppresses_nckd(self):
        # as p_t_teacher -> 1 the non-target term's share of KD vanishes
        zt = np.array([30.0, 0.0, 0.0, 0.0])
        zs = np.array([0.0, 3.0, -2.0, 1.0])
        kd = one_cell(zt, zs, 0)
        assert (1.0 - kd.q_t[0]) * kd.nckd[0] < 1e-9
        assert abs(oracle.kd_kl(zt, zs) - kd.tckd[0]) < 1e-9

    def test_nckd_ignores_target_logit_of_both_models(self):
        zt = np.array([0.5, 1.0, -1.0, 0.0])
        zs = np.array([-0.3, 0.4, 0.9, 2.0])
        base = one_cell(zt, zs, 1).nckd[0]
        zt2, zs2 = zt.copy(), zs.copy()
        zt2[1] = 99.0
        zs2[1] = -99.0
        assert one_cell(zt2, zs2, 1).nckd[0] == pytest.approx(base, abs=1e-12)


class TestDcd:
    def test_moving_equal_logits(self):
        z = np.array([0.1, 0.2, 0.3, 0.4])
        assert one_cell_wdcd(z, z, 3, DistillConfig()) == pytest.approx(0.0, abs=1e-15)

    def test_non_moving_has_no_tckd(self):
        # changing only the target logit leaves non-moving DCD unchanged
        cfg = DistillConfig()
        zt = np.array([1.0, 0.5, -0.5, 0.0])
        zs = np.array([0.2, -0.2, 0.8, 0.1])
        base = one_cell_wdcd(zt, zs, 1, cfg)
        zt2 = zt.copy()
        zt2[1] += 5.0
        assert one_cell_wdcd(zt2, zs, 1, cfg) == pytest.approx(base, abs=1e-12)
        assert base == pytest.approx(one_cell(zt, zs, 1).nckd[0], rel=1e-12)

    def test_moving_composition_with_beta(self, rng):
        cfg = DistillConfig(beta=2.0)
        for _ in range(20):
            zt = rng.normal(0, 2, 4)
            zs = rng.normal(0, 2, 4)
            kd = one_cell(zt, zs, 3)
            expected = kd.tckd[0] + 2.0 * kd.nckd[0]
            assert one_cell_wdcd(zt, zs, 3, cfg) == pytest.approx(expected, rel=1e-12)

    def test_scope_all_applies_tckd_everywhere(self, rng):
        cfg = DistillConfig(tckd_scope="all")
        zt, zs = rng.normal(0, 2, 4), rng.normal(0, 2, 4)
        kd = one_cell(zt, zs, 1)
        expected = kd.tckd[0] + kd.nckd[0]
        assert one_cell_wdcd(zt, zs, 1, cfg) == pytest.approx(expected, rel=1e-12)


class TestFrameWeights:
    def make_labels(self, counts):
        return np.concatenate([np.full(n, c, dtype=np.int64) for c, n in enumerate(counts)])

    def test_rare_moving(self):
        t = self.make_labels([0, 99, 0, 1])
        w = losses.frame_weights(t, DistillConfig())
        assert w[3] == pytest.approx(0.01)

    def test_single_class(self):
        t = self.make_labels([0, 10, 0, 0])
        w = losses.frame_weights(t, DistillConfig())
        assert w[1] == pytest.approx(1.0)

    def test_absent_class_floored(self):
        t = self.make_labels([0, 10, 0, 0])
        w = losses.frame_weights(t, DistillConfig())
        assert w[3] == pytest.approx(1.0 / 10)  # auto floor = 1 / valid cells
        w2 = losses.frame_weights(t, DistillConfig(weight_floor=1e-3))
        assert w2[3] == pytest.approx(1e-3)

    def test_unfloored_shares_sum_to_one(self, rng):
        counts = rng.integers(1, 30, size=4)
        t = self.make_labels(counts)
        shares = counts / counts.sum()
        np.testing.assert_allclose(shares.sum(), 1.0)
        w = losses.frame_weights(t, DistillConfig(weight_floor=1e-12))
        np.testing.assert_allclose(w, shares, atol=1e-15)

    def test_empty_frame(self):
        # a frame without valid cells has no class shares: total_loss
        # raises before the weights are taken, whatever the floor
        lab = CellLabelGrid(
            labels=np.zeros((2, 2), np.uint8), valid=np.zeros((2, 2), bool)
        )
        z = LogitGrid(np.zeros((2, 2, 4)), lab.valid)
        for floor in (None, 1e-3):
            with pytest.raises(EmptyFrame):
                losses.total_loss(z, z, lab, DistillConfig(weight_floor=floor), np.ones(4))


class TestWdcdFrame:
    def test_equal_logits_zero(self, rng):
        zt, _, t = rows_case(rng)
        out = losses.wdcd_frame(zt, zt, t, DistillConfig())
        assert out.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out.grad, 0.0, atol=1e-12)

    def test_rare_class_upweighting(self):
        # one moving cell among 100, otherwise static: the moving cell's
        # per-cell weight is 100x a static cell's
        t = np.full(100, 1)
        t[0] = 3
        weights = losses.frame_weights(t, DistillConfig())
        assert (1.0 / weights[3]) / (1.0 / weights[1]) == pytest.approx(99.0)

    def test_count_scaling_is_exact(self):
        # same total, k x more moving cells: per-cell weight divides by k
        def weight_for(n_moving, total=120):
            t = np.full(total, 1)
            t[:n_moving] = 3
            return 1.0 / losses.frame_weights(t, DistillConfig())[3]

        assert weight_for(2) == pytest.approx(weight_for(6) * 3.0)

    def test_gradient_finite_difference(self, rng):
        for _ in range(5):
            assert check_wdcd_grad(rng, DistillConfig()) < 1e-4

    def test_gradient_zero_at_invalid_cells(self, rng):
        # zero class weights and no Lovasz class leave only the distillation
        # term in total_loss's gradient
        zt, zs, lab = grid_case(rng)
        cfg = DistillConfig()
        out = losses.total_loss(zs, zt, lab, cfg, np.zeros(4), lovasz_classes=())
        zt_rows, zs_rows, t, _ = term_rows(zt, zs, lab)
        kd = losses.wdcd_frame(zt_rows, zs_rows, t, cfg)
        assert (out.grad[~lab.valid] == 0.0).all()
        np.testing.assert_array_equal(out.grad[lab.valid], cfg.gamma * kd.grad)

    def test_matches_per_cell_scalar_composition(self, rng):
        # frame value = tau^2 * mean over cells of dcd(cell) / w[label],
        # recomposed here from the scalar oracles
        for tau in (1.0, 2.0):
            zt, zs, t = rows_case(rng)
            cfg = DistillConfig(temperature=tau, beta=1.5)
            w = losses.frame_weights(t, cfg)
            cells = [oracle.dcd(zt[i], zs[i], int(t[i]), cfg) / w[t[i]] for i in range(len(t))]
            expected = tau * tau * float(np.mean(cells))
            got = losses.wdcd_frame(zt, zs, t, cfg).value
            assert got == pytest.approx(expected, rel=1e-10)

    # the frame checks of the distillation path run in total_loss

    def test_valid_mask_mismatch(self, rng):
        zt, zs, lab = grid_case(rng)
        other = np.ones_like(lab.valid)
        with pytest.raises(ShapeMismatch, match="teacher and student validity masks differ"):
            losses.total_loss(zs, LogitGrid(zt.scores, other), lab, DistillConfig(), np.ones(4))
        with pytest.raises(ShapeMismatch, match="logit and label validity masks differ"):
            losses.total_loss(LogitGrid(zs.scores, other), zt, lab, DistillConfig(), np.ones(4))

    def test_empty_frame(self):
        # with a teacher and without: the student terms need valid cells too
        lab = CellLabelGrid(
            labels=np.zeros((2, 2), np.uint8), valid=np.zeros((2, 2), bool)
        )
        z = LogitGrid(np.zeros((2, 2, 4)), lab.valid)
        for teacher, gamma in ((z, 0.25), (None, 0.0)):
            with pytest.raises(EmptyFrame):
                losses.total_loss(z, teacher, lab, DistillConfig(gamma=gamma), np.ones(4))


class TestWeightedCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        scores = np.zeros((1, 4))
        scores[0, 2] = 50.0
        out = losses.weighted_cross_entropy(
            losses.softmax_probs(scores), np.array([2]), np.ones(4)
        )
        assert out.value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_ln4(self):
        out = losses.weighted_cross_entropy(np.full((4, 4), 0.25), np.arange(4), np.ones(4))
        assert out.value == pytest.approx(np.log(4.0), abs=1e-12)

    def test_gradient_finite_difference(self, rng):
        for _ in range(5):
            assert check_wce_grad(rng) < 1e-4

    def test_zero_weight_class_contributes_nothing(self, rng):
        _, zs, t = rows_case(rng)
        weights = np.array([0.0, 1.0, 1.0, 1.0])
        out = losses.weighted_cross_entropy(losses.softmax_probs(zs), t, weights)
        assert (t == 0).any()
        assert (out.grad[t == 0] == 0.0).all()


def term_rows(zt, zs, lab):
    """The valid cells of a grid case as rows: teacher, student, labels,
    student softmax."""
    v = lab.valid
    t = lab.labels[v].astype(np.int64)
    return zt.scores[v], zs.scores[v], t, losses.softmax_probs(zs.scores[v])


class TestTotalLoss:
    def test_gamma_zero_reduces_to_student_loss(self, rng):
        zt, zs, lab = grid_case(rng)
        cw = np.ones(4)
        cfg = DistillConfig(gamma=0.0)
        total = losses.total_loss(zs, zt, lab, cfg, cw)
        _, _, t, p = term_rows(zt, zs, lab)
        wce = losses.weighted_cross_entropy(p, t, cw)
        ls = losses.lovasz_softmax(p, t)
        assert total.value == pytest.approx(wce.value + ls.value, rel=1e-15)
        np.testing.assert_array_equal(total.grad[lab.valid], wce.grad + ls.grad)

    def test_default_gamma(self):
        assert DistillConfig().gamma == 0.25

    def test_grad_is_sum_of_components(self, rng):
        zt, zs, lab = grid_case(rng)
        cw = np.array([0.0, 1.0, 1.0, 1.0])
        cfg = DistillConfig()
        total = losses.total_loss(zs, zt, lab, cfg, cw)
        zt_rows, zs_rows, t, p = term_rows(zt, zs, lab)
        wce = losses.weighted_cross_entropy(p, t, cw)
        ls = losses.lovasz_softmax(p, t)
        kd = losses.wdcd_frame(zt_rows, zs_rows, t, cfg)
        np.testing.assert_allclose(
            total.grad[lab.valid], wce.grad + ls.grad + cfg.gamma * kd.grad, atol=1e-12
        )
        assert total.value == pytest.approx(
            wce.value + ls.value + cfg.gamma * kd.value, abs=1e-12
        )
        assert total.parts["wdcd"] == pytest.approx(kd.value)

    def test_gradient_finite_difference(self, rng):
        for _ in range(3):
            assert check_total_grad(rng, DistillConfig()) < 1e-4

    def test_gradient_zero_at_invalid_cells(self, rng):
        # the one scatter: every term's gradient lands on the valid cells only
        for cfg, classes in [
            (DistillConfig(), None),
            (DistillConfig(tckd_scope="all", temperature=2.0), (3,)),
            (DistillConfig(gamma=0.0), (1, 2, 3)),
        ]:
            zt, zs, lab = grid_case(rng, h=4, w=5, invalid=(1, slice(2, None)))
            out = losses.total_loss(zs, zt, lab, cfg, np.ones(4), classes)
            assert (out.grad[~lab.valid] == 0.0).all()
            assert (out.grad[lab.valid] != 0.0).any(axis=-1).all()

    def test_teacher_required_when_gamma_positive(self, rng):
        _, zs, lab = grid_case(rng)
        with pytest.raises(ValueError):
            losses.total_loss(zs, None, lab, DistillConfig(), np.ones(4))

    def test_argmax_unchanged_by_loss_evaluation(self, rng):
        zt, zs, lab = grid_case(rng)
        before = zs.scores.copy()
        losses.total_loss(zs, zt, lab, DistillConfig(), np.ones(4))
        np.testing.assert_array_equal(zs.scores, before)
