import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosdistill import kitti_io as kio
from mosdistill.errors import (
    IoFailure,
    LabelCountMismatch,
    MalformedCalib,
    MalformedLabel,
    MalformedPoseLine,
    MalformedScan,
)


def rot_z(deg):
    th = np.deg2rad(deg)
    return np.array(
        [[np.cos(th), -np.sin(th), 0.0], [np.sin(th), np.cos(th), 0.0], [0.0, 0.0, 1.0]]
    )


class TestReadScan:
    def test_two_point_fixture(self, tmp_path):
        path = tmp_path / "000000.bin"
        vals = [1.0, 2.0, 3.0, 0.5, -1.0, 0.0, 0.0, 0.0]
        path.write_bytes(struct.pack("<8f", *vals))
        cloud = kio.read_scan(path)
        assert len(cloud) == 2
        assert cloud.frame_id == 0
        np.testing.assert_array_equal(cloud.points, np.array(vals, np.float32).reshape(2, 4))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "000003.bin"
        path.write_bytes(b"")
        cloud = kio.read_scan(path)
        assert len(cloud) == 0
        assert cloud.frame_id == 3

    def test_count_matches_file_size(self, tmp_path, rng):
        # oracle: stat the file and divide by the record size
        pts = rng.normal(size=(137, 4)).astype(np.float32)
        path = tmp_path / "000001.bin"
        kio.write_scan(kio.PointCloud(points=pts, frame_id=1), path)
        assert len(kio.read_scan(path)) == path.stat().st_size // 16

    def test_bad_size(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 15)
        with pytest.raises(MalformedScan):
            kio.read_scan(path)

    def test_non_finite_coordinate(self, tmp_path):
        path = tmp_path / "nan.bin"
        path.write_bytes(struct.pack("<4f", 1.0, float("nan"), 0.0, 0.0))
        with pytest.raises(MalformedScan):
            kio.read_scan(path)

    def test_non_finite_intensity_allowed(self, tmp_path):
        # only coordinates are constrained
        path = tmp_path / "inf_i.bin"
        path.write_bytes(struct.pack("<4f", 1.0, 0.0, 0.0, float("inf")))
        assert len(kio.read_scan(path)) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            kio.read_scan(tmp_path / "nope.bin")


class TestReadLabels:
    def test_fixture(self, tmp_path):
        path = tmp_path / "000000.label"
        path.write_bytes(struct.pack("<2I", 252, 10))
        labels = kio.read_labels(path, 2)
        np.testing.assert_array_equal(labels.raw, [252, 10])

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "x.label"
        path.write_bytes(struct.pack("<2I", 252, 10))
        with pytest.raises(LabelCountMismatch):
            kio.read_labels(path, 3)

    def test_bad_size(self, tmp_path):
        path = tmp_path / "x.label"
        path.write_bytes(b"\x00" * 6)
        with pytest.raises(MalformedLabel):
            kio.read_labels(path, 1)

    def test_bit_split(self):
        labels = kio.LabelArray(raw=np.array([0x0001_00FC], dtype=np.uint32))
        assert labels.semantic[0] == 252


class TestRoundTrip:
    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, width=32),
                st.floats(-100, 100, width=32),
                st.floats(-10, 10, width=32),
                st.floats(0, 1, width=32),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_scan_bytes(self, tmp_path_factory, pts):
        path = tmp_path_factory.mktemp("rt") / "s.bin"
        arr = np.array(pts, dtype=np.float32).reshape(-1, 4)
        kio.write_scan(kio.PointCloud(points=arr), path)
        first = path.read_bytes()
        back = kio.read_scan(path)
        np.testing.assert_array_equal(back.points, arr)
        kio.write_scan(back, path)
        assert path.read_bytes() == first

    @given(st.lists(st.integers(0, 2**32 - 1), max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_label_bytes(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("rt") / "s.label"
        arr = np.array(raw, dtype=np.uint32)
        kio.write_labels(kio.LabelArray(raw=arr), path)
        back = kio.read_labels(path, len(arr))
        np.testing.assert_array_equal(back.raw, arr)
        kio.write_labels(back, path)
        assert np.frombuffer(path.read_bytes(), "<u4").tolist() == raw


class TestRemap:
    def test_defaults(self):
        labels = kio.LabelArray(raw=np.array([252, 10, 40, 0], dtype=np.uint32))
        np.testing.assert_array_equal(kio.remap_labels(labels), [3, 2, 1, 0])

    def test_instance_bits_ignored(self):
        labels = kio.LabelArray(raw=np.array([0xABCD_00FC], dtype=np.uint32))
        assert kio.remap_labels(labels)[0] == 3

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=100, deadline=None)
    def test_pure_and_total(self, sem):
        labels = kio.LabelArray(raw=np.array([sem, sem], dtype=np.uint32))
        out = kio.remap_labels(labels)
        assert out[0] == out[1]
        assert 0 <= out[0] <= 3


class TestPoses:
    def write(self, tmp_path, lines):
        path = tmp_path / "poses.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_identity(self, tmp_path):
        path = self.write(tmp_path, ["1 0 0 0 0 1 0 0 0 0 1 0"])
        poses = kio.read_poses(path, kio.Calibration.identity())
        np.testing.assert_allclose(poses[0].matrix, np.eye(4), atol=1e-15)

    def test_identity_with_translated_tr(self, tmp_path):
        # conjugating the identity gives the identity back
        path = self.write(tmp_path, ["1 0 0 0 0 1 0 0 0 0 1 0"])
        tr = np.eye(4)
        tr[2, 3] = 1.0
        poses = kio.read_poses(path, kio.Calibration(tr))
        np.testing.assert_allclose(poses[0].matrix, np.eye(4), atol=1e-12)

    def test_rotated_tr_conjugation(self, tmp_path):
        # T_cam translates +x; Tr rotates 90 deg about z.  The hand oracle
        # Tr^-1 . T_cam . Tr is a pure translation (0, -1, 0).
        path = self.write(tmp_path, ["1 0 0 1 0 1 0 0 0 0 1 0"])
        tr = np.eye(4)
        tr[:3, :3] = rot_z(90)
        calib = kio.Calibration(tr)
        poses = kio.read_poses(path, calib)
        t_cam = np.eye(4)
        t_cam[0, 3] = 1.0
        oracle = np.linalg.inv(tr) @ t_cam @ tr
        np.testing.assert_allclose(poses[0].matrix, oracle, atol=1e-12)
        np.testing.assert_allclose(poses[0].matrix[:3, 3], [0.0, -1.0, 0.0], atol=1e-12)

    def test_wrong_token_count(self, tmp_path):
        path = self.write(tmp_path, ["1 0 0"])
        with pytest.raises(MalformedPoseLine):
            kio.read_poses(path, kio.Calibration.identity())

    def test_non_finite(self, tmp_path):
        path = self.write(tmp_path, ["1 0 0 nan 0 1 0 0 0 0 1 0"])
        with pytest.raises(MalformedPoseLine):
            kio.read_poses(path, kio.Calibration.identity())

    def test_write_read_round_trip(self, tmp_path):
        poses = [
            kio.Pose.from_rt(rot_z(30), np.array([1.25, -2.5, 0.125])),
            kio.Pose.from_rt(rot_z(-45), np.array([0.1, 0.2, 0.3])),
        ]
        path = tmp_path / "poses.txt"
        calib = kio.Calibration.identity()
        kio.write_poses(poses, path, calib)
        back = kio.read_poses(path, calib)
        for a, b in zip(poses, back):
            np.testing.assert_array_equal(a.matrix, b.matrix)


class TestCalib:
    def test_parse(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P0: 1 0 0 0 0 1 0 0 0 0 1 0\nTr: 1 0 0 0.5 0 1 0 0 0 0 1 0\n")
        calib = kio.read_calib(path)
        assert calib.tr[0, 3] == 0.5

    def test_missing_tr(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P0: 1 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(MalformedCalib):
            kio.read_calib(path)

    def test_round_trip(self, tmp_path):
        calib = kio.Calibration(
            kio.Pose.from_rt(rot_z(10), np.array([0.5, 0.0, -0.25])).matrix
        )
        path = tmp_path / "calib.txt"
        kio.write_calib(calib, path)
        np.testing.assert_array_equal(kio.read_calib(path).tr, calib.tr)


class TestValidation:
    def test_pose_rejects_bad_bottom_row(self):
        m = np.eye(4)
        m[3, 0] = 1.0
        with pytest.raises(ValueError):
            kio.Pose(m)

    def test_pose_rejects_non_orthonormal(self):
        m = np.eye(4)
        m[0, 0] = 1.1
        with pytest.raises(ValueError):
            kio.Pose(m)

    def test_pose_rejects_reflection(self):
        m = np.eye(4)
        m[0, 0] = -1.0
        with pytest.raises(ValueError):
            kio.Pose(m)

    def test_classmap_has_four_classes(self):
        table = kio.CLASS_TABLE
        assert table.shape == (65536,)
        assert set(np.unique(table)) == {0, 1, 2, 3}

    def test_pointcloud_shape(self):
        with pytest.raises(ValueError):
            kio.PointCloud(points=np.zeros((3, 3)))
