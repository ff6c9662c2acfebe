import numpy as np
import pytest

from mosdistill import geometry
from mosdistill.errors import ConfigError
from mosdistill.kitti_io import CLASS_MOVING, read_calib, read_labels, read_poses, read_scan, remap_labels
from mosdistill.synthbench import SceneConfig, export_kitti_sequence, gen_scene, gen_sequence


def small_cfg(**kw):
    base = dict(
        n_frames=5,
        n_moving=1,
        n_static_movable=1,
        n_static=200,
        points_per_disc=40,
        seed=3,
    )
    base.update(kw)
    return SceneConfig(**base)


class TestGeneration:
    def test_deterministic_per_seed(self):
        a_frames, a_labels, a_poses = gen_sequence(small_cfg())
        b_frames, b_labels, b_poses = gen_sequence(small_cfg())
        for fa, fb in zip(a_frames, b_frames):
            np.testing.assert_array_equal(fa.points, fb.points)
        for la, lb in zip(a_labels, b_labels):
            np.testing.assert_array_equal(la, lb)
        for pa, pb in zip(a_poses, b_poses):
            np.testing.assert_array_equal(pa.matrix, pb.matrix)

    def test_different_seed_differs(self):
        a, _, _ = gen_sequence(small_cfg(seed=1))
        b, _, _ = gen_sequence(small_cfg(seed=2))
        assert not np.array_equal(a[0].points, b[0].points)

    def test_no_moving_objects(self):
        _, labels, _ = gen_sequence(small_cfg(n_moving=0))
        assert set(np.unique(labels[0])) <= {1, 2}

    def test_moving_centroid_advances(self):
        # one disc at speed (1, 0), no ego motion: the centroid oracle
        # must advance exactly 1 m/frame
        cfg = small_cfg(
            n_moving=1,
            n_static_movable=0,
            n_static=0,
            speed_range=(1.0, 1.0),
            ego_velocity=(0.0, 0.0),
        )
        frames, labels, poses, truth = gen_scene(cfg)
        disc = truth.discs[0]
        vdir = disc.velocity / np.linalg.norm(disc.velocity)
        lo, hi = disc.point_range
        centroids = [f.xyz[lo:hi, :2].astype(np.float64).mean(axis=0) for f in frames]
        for k in range(1, len(centroids)):
            step = centroids[k] - centroids[k - 1]
            np.testing.assert_allclose(step, vdir, atol=1e-4)
            assert np.linalg.norm(step) == pytest.approx(1.0, abs=1e-4)

    def test_moving_fraction_below_five_percent_default(self):
        cfg = SceneConfig()
        _, labels, _ = gen_sequence(cfg)
        frac = float((labels[0] == CLASS_MOVING).mean())
        assert 0.0 < frac < 0.05

    def test_point_counts_match_config(self):
        cfg = small_cfg()
        frames, labels, _ = gen_sequence(cfg)
        expected = 2 * cfg.points_per_disc + cfg.n_static
        assert all(len(f) == expected for f in frames)
        assert all(len(lbl) == expected for lbl in labels)

    def test_overcrowded_arena_raises(self):
        with pytest.raises(ConfigError):
            gen_sequence(
                SceneConfig(
                    n_moving=0,
                    n_static_movable=60,
                    arena_radius=6.0,
                    radius_range=(2.0, 2.5),
                )
            )

    def test_labels_constant_across_frames(self):
        _, labels, _ = gen_sequence(small_cfg())
        for lbl in labels[1:]:
            np.testing.assert_array_equal(lbl, labels[0])


class TestAlignmentConsistency:
    def test_static_centroids_coincide_after_alignment(self):
        cfg = small_cfg(ego_velocity=(0.5, -0.25), n_moving=0, n_static=500)
        frames, labels, poses, truth = gen_scene(cfg)
        seq = geometry.align_to_current(frames, poses, len(frames) - 1)
        ref = seq[0].xyz.astype(np.float64).mean(axis=0)
        for cloud in seq[1:]:
            err = np.linalg.norm(cloud.xyz.astype(np.float64).mean(axis=0) - ref)
            assert err < 1e-6

    def test_moving_disc_displaces_by_speed_after_alignment(self):
        cfg = small_cfg(
            n_moving=1,
            n_static_movable=0,
            n_static=0,
            speed_range=(0.75, 0.75),
            ego_velocity=(0.4, 0.1),
        )
        frames, labels, poses, truth = gen_scene(cfg)
        disc = truth.discs[0]
        lo, hi = disc.point_range
        seq = geometry.align_to_current(frames, poses, len(frames) - 1)
        current = seq[0].xyz[lo:hi, :2].astype(np.float64).mean(axis=0)
        for dt, cloud in enumerate(seq[1:], start=1):
            past = cloud.xyz[lo:hi, :2].astype(np.float64).mean(axis=0)
            displacement = current - past
            np.testing.assert_allclose(displacement, disc.velocity * dt, atol=1e-5)


class TestKittiExport:
    def test_round_trip(self, tmp_path):
        cfg = small_cfg()
        frames, labels, poses = gen_sequence(cfg)
        seq_dir = tmp_path / "00"
        export_kitti_sequence(cfg, seq_dir)
        calib = read_calib(seq_dir / "calib.txt")
        back_poses = read_poses(seq_dir / "poses.txt", calib)
        for k, (cloud, classes, pose) in enumerate(zip(frames, labels, poses)):
            scan = read_scan(seq_dir / "velodyne" / f"{k:06d}.bin")
            np.testing.assert_array_equal(scan.points, cloud.points)
            raw = read_labels(seq_dir / "labels" / f"{k:06d}.label", len(scan))
            np.testing.assert_array_equal(remap_labels(raw), classes)
            np.testing.assert_array_equal(back_poses[k].matrix, pose.matrix)

    def test_byte_identical_trees(self, tmp_path):
        cfg = small_cfg()
        a = tmp_path / "a"
        b = tmp_path / "b"
        export_kitti_sequence(cfg, a)
        export_kitti_sequence(cfg, b)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_zero_frames(self, tmp_path):
        cfg = small_cfg(n_frames=0)
        n = export_kitti_sequence(cfg, tmp_path / "00")
        assert n == 0
        assert not list((tmp_path / "00" / "velodyne").glob("*.bin"))
