import struct

import numpy as np
import pytest

from mosdistill import losses, teacher
from mosdistill.bev import CellLabelGrid
from mosdistill.config import RunConfig
from mosdistill.errors import ConfigError, FormatError, IoFailure
from mosdistill.losses import DistillConfig, LogitGrid


def f32_grid(rng, h, w, valid_p=0.8):
    scores = rng.normal(0, 3, size=(h, w, 4)).astype(np.float32).astype(np.float64)
    valid = rng.uniform(size=(h, w)) < valid_p
    return LogitGrid(scores=scores, valid=valid)


class TestLogitsFile:
    def test_minimal_layout(self, tmp_path):
        grid = LogitGrid(np.zeros((1, 1, 4)), np.ones((1, 1), bool))
        path = tmp_path / "000000.logits"
        teacher.write_logits(grid, path)
        data = path.read_bytes()
        assert len(data) == 16 + 16 + 1
        assert data[:4] == b"KDTL"
        version, c, h, w = struct.unpack("<HHII", data[4:16])
        assert (version, c, h, w) == (1, 4, 1, 1)
        assert data[16:32] == bytes(16)  # four float32 zeros
        assert data[32] == 1  # validity bit for the single cell, LSB-first

    def test_round_trip_values(self, tmp_path, rng):
        grid = f32_grid(rng, 5, 7)
        path = tmp_path / "g.logits"
        teacher.write_logits(grid, path)
        back = teacher.read_logits(path)
        np.testing.assert_array_equal(back.scores, grid.scores)
        np.testing.assert_array_equal(back.valid, grid.valid)

    def test_round_trip_file_bytes(self, tmp_path, rng):
        grid = f32_grid(rng, 9, 4)
        path = tmp_path / "g.logits"
        teacher.write_logits(grid, path)
        first = path.read_bytes()
        teacher.write_logits(teacher.read_logits(path), path)
        assert path.read_bytes() == first

    def test_larger_shapes(self, tmp_path, rng):
        for h, w in ((1, 64), (33, 17), (1024, 1024)):
            grid = f32_grid(rng, h, w)
            path = tmp_path / "g.logits"
            teacher.write_logits(grid, path)
            back = teacher.read_logits(path)
            np.testing.assert_array_equal(back.scores, grid.scores)
            np.testing.assert_array_equal(back.valid, grid.valid)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.logits"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(FormatError):
            teacher.read_logits(path)

    def test_bad_size_arithmetic(self, tmp_path, rng):
        grid = f32_grid(rng, 2, 2)
        path = tmp_path / "g.logits"
        teacher.write_logits(grid, path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError):
            teacher.read_logits(path)

    def test_bad_version(self, tmp_path):
        header = b"KDTL" + struct.pack("<HHII", 9, 4, 1, 1)
        path = tmp_path / "v.logits"
        path.write_bytes(header + bytes(17))
        with pytest.raises(FormatError):
            teacher.read_logits(path)

    def test_non_finite_payload(self, tmp_path):
        header = b"KDTL" + struct.pack("<HHII", 1, 4, 1, 1)
        payload = struct.pack("<4f", 1.0, float("nan"), 0.0, 0.0)
        path = tmp_path / "n.logits"
        path.write_bytes(header + payload + bytes(1))
        with pytest.raises(FormatError):
            teacher.read_logits(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            teacher.read_logits(tmp_path / "none.logits")

    def test_filename_convention(self):
        assert teacher.logits_filename(42) == "000042.logits"


class TestSynthTeacher:
    def labels(self, rng, h=6, w=8):
        valid = rng.uniform(size=(h, w)) < 0.9
        labels = rng.integers(0, 4, size=(h, w)).astype(np.uint8)
        labels[~valid] = 0
        return CellLabelGrid(labels=labels, valid=valid)

    def test_noise_free_argmax_equals_labels(self, rng):
        lab = self.labels(rng)
        grid = teacher.synth_teacher(lab, confidence=10.0, noise=0.0, seed=0)
        pred = np.argmax(grid.scores, axis=2)
        assert (pred[lab.valid] == lab.labels[lab.valid]).all()

    def test_noise_free_target_probability(self, rng):
        # softmax oracle: p_t = e^10 / (e^10 + 3)
        lab = self.labels(rng)
        grid = teacher.synth_teacher(lab, confidence=10.0, noise=0.0, seed=0)
        expected = np.exp(10.0) / (np.exp(10.0) + 3.0)
        u, v = np.argwhere(lab.valid)[0]
        p = losses.softmax_probs(grid.scores[u, v])
        assert p[lab.labels[u, v]] == pytest.approx(expected, abs=1e-12)

    def test_deterministic_per_seed(self, rng):
        lab = self.labels(rng)
        a = teacher.synth_teacher(lab, 10.0, 1.0, seed=3)
        b = teacher.synth_teacher(lab, 10.0, 1.0, seed=3)
        np.testing.assert_array_equal(a.scores, b.scores)
        c = teacher.synth_teacher(lab, 10.0, 1.0, seed=4)
        assert not np.array_equal(a.scores, c.scores)

    def test_invalid_cells_zero(self, rng):
        lab = self.labels(rng)
        grid = teacher.synth_teacher(lab, 10.0, 1.0, seed=0)
        assert (grid.scores[~lab.valid] == 0.0).all()

    def test_matching_student_gets_zero_distill_gradient(self, rng):
        lab = self.labels(rng)
        grid = teacher.synth_teacher(lab, 10.0, 0.0, seed=0)
        rows, t = grid.scores[lab.valid], lab.labels[lab.valid].astype(np.int64)
        out = losses.wdcd_frame(rows, rows, t, DistillConfig())
        assert out.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out.grad, 0.0, atol=1e-12)

    def test_validation(self):
        # kappa and sigma are checked where they are set, not by the teacher
        cfg = RunConfig.defaults()
        with pytest.raises(ConfigError, match=r"^teacher.kappa must be > 0, got 0$"):
            cfg.set("teacher.kappa", "0")
        with pytest.raises(ConfigError, match=r"^teacher.sigma must be >= 0, got -1$"):
            cfg.set("teacher.sigma", "-1")
        cfg.set("teacher.sigma", "0")  # a noise-free teacher is legal
