import numpy as np
import pytest

from mosdistill import geometry
from mosdistill.errors import IndexOutOfRange
from mosdistill.kitti_io import PointCloud, Pose


def cloud_from_xyz(xyz, frame_id=0):
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    pts = np.concatenate([xyz, np.zeros((len(xyz), 1))], axis=1)
    return PointCloud(points=pts, frame_id=frame_id)


def rot_z(deg):
    th = np.deg2rad(deg)
    return np.array(
        [[np.cos(th), -np.sin(th), 0.0], [np.sin(th), np.cos(th), 0.0], [0.0, 0.0, 1.0]]
    )


def random_pose(rng):
    # random rotation via QR of a gaussian matrix, positive determinant
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return Pose.from_rt(q, rng.normal(scale=5.0, size=3))


class TestTransformPoints:
    def test_identity(self):
        c = cloud_from_xyz([[1, 2, 3], [4, 5, 6]])
        out = geometry.transform_points(c, Pose.identity())
        np.testing.assert_array_equal(out.xyz, c.xyz)

    def test_translation(self):
        c = cloud_from_xyz([[1, 1, 0]])
        out = geometry.transform_points(c, Pose.from_rt(np.eye(3), [0, 0, 5]))
        np.testing.assert_allclose(out.xyz[0], [1, 1, 5])

    def test_rotation_90z(self):
        c = cloud_from_xyz([[1, 0, 0]])
        out = geometry.transform_points(c, Pose.from_rt(rot_z(90), np.zeros(3)))
        np.testing.assert_allclose(out.xyz[0], [0, 1, 0], atol=1e-15)

    def test_intensity_and_frame_preserved(self):
        pts = np.array([[1.0, 2.0, 3.0, 0.75]])
        out = geometry.transform_points(
            PointCloud(points=pts, frame_id=7), Pose.from_rt(rot_z(45), [1, 2, 3])
        )
        assert out.frame_id == 7
        assert out.intensity[0] == 0.75

    @pytest.mark.parametrize("seed", range(5))
    def test_inverse_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        c = cloud_from_xyz(rng.normal(scale=20.0, size=(50, 3)))
        pose = random_pose(rng)
        back = geometry.transform_points(
            geometry.transform_points(c, pose), pose.inverse()
        )
        assert np.abs(back.xyz - c.xyz).max() < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_distances_preserved(self, seed):
        rng = np.random.default_rng(100 + seed)
        xyz = rng.normal(scale=10.0, size=(20, 3))
        c = cloud_from_xyz(xyz)
        out = geometry.transform_points(c, random_pose(rng))
        d_before = np.linalg.norm(xyz[:, None] - xyz[None, :], axis=2)
        d_after = np.linalg.norm(out.xyz[:, None] - out.xyz[None, :], axis=2)
        rel = np.abs(d_after - d_before) / np.maximum(d_before, 1e-30)
        np.fill_diagonal(rel, 0.0)
        assert rel.max() < 1e-9

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_row_major_product(self, dtype, seed):
        rng = np.random.default_rng(200 + seed)
        n = [0, 1, 7, 4099][seed]
        pts = rng.normal(scale=30.0, size=(n, 4)).astype(dtype)
        pose = random_pose(rng)
        out = geometry.transform_points(PointCloud(points=pts, frame_id=seed + 2), pose)
        r, t = pose.matrix[:3, :3], pose.matrix[:3, 3]
        expected = pts[:, :3].astype(np.float64) @ r.T + t
        assert out.points.shape == (n, 4) and out.points.dtype == np.float64
        assert out.points.flags.f_contiguous  # each coordinate column contiguous
        assert out.frame_id == seed + 2
        assert np.ascontiguousarray(out.xyz).tobytes() == expected.tobytes()
        assert out.intensity.tobytes() == pts[:, 3].astype(np.float64).tobytes()


class TestAlignToCurrent:
    def test_identity_poses(self):
        frames = [cloud_from_xyz([[k, 0, 0]], frame_id=k) for k in range(4)]
        poses = [Pose.identity()] * 4
        seq = geometry.align_to_current(frames, poses, 3)
        # entry j is the frame j steps back
        assert [c.frame_id for c in seq] == [3, 2, 1, 0]
        for aligned, orig in zip(seq, reversed(frames)):
            np.testing.assert_array_equal(aligned.xyz, orig.xyz)

    def test_static_world_point_coincides(self):
        # ego moved +1 m in x between frames; a static world point must
        # land on its current-frame copy after alignment
        world = np.array([5.0, 2.0, 0.3])
        f0 = cloud_from_xyz([world], frame_id=0)                 # ego at origin
        f1 = cloud_from_xyz([world - [1.0, 0.0, 0.0]], frame_id=1)  # ego at x=1
        poses = [Pose.identity(), Pose.from_rt(np.eye(3), [1.0, 0.0, 0.0])]
        seq = geometry.align_to_current([f0, f1], poses, 1)
        current = seq[0].xyz[0]
        past = seq[1].xyz[0]
        assert np.linalg.norm(past - current) < 1e-6

    def test_self_alignment_is_identity(self):
        frame = cloud_from_xyz([[1, 2, 3]])
        seq = geometry.align_to_current(
            [frame], [Pose.from_rt(rot_z(30), [1, 0, 0])], 0
        )
        assert len(seq) == 1
        np.testing.assert_array_equal(seq[0].xyz, frame.xyz)

    def test_bad_index(self):
        frames = [cloud_from_xyz([[0, 0, 0]])]
        with pytest.raises(IndexOutOfRange):
            geometry.align_to_current(frames, [Pose.identity()], 1)

    def test_length_mismatch(self):
        frames = [cloud_from_xyz([[0, 0, 0]])]
        with pytest.raises(IndexOutOfRange):
            geometry.align_to_current(frames, [], 0)
