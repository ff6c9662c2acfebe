import re
import struct
from types import SimpleNamespace

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
        with pytest.raises(MalformedScan, match="size 15 is not a multiple of 16"):
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

    def test_result_owns_its_points(self, tmp_path, rng):
        path = tmp_path / "000002.bin"
        pts = rng.normal(size=(1000, 4)).astype("<f4")
        path.write_bytes(pts.tobytes())
        got = kio.read_scan(path).points
        assert got.flags.owndata and got.flags.writeable and got.flags.c_contiguous
        assert got.dtype == np.dtype("<f4") and got.shape == (1000, 4)
        got[0, 0] = 7.0  # writable, and no view of anything the reader keeps
        np.testing.assert_array_equal(kio.read_scan(path).points, pts)

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinate_in_last_record(self, tmp_path, rng, column, value):
        pts = rng.normal(size=(130_000, 4)).astype("<f4")
        pts[-1, column] = value
        path = tmp_path / "000004.bin"
        path.write_bytes(pts.tobytes())
        with pytest.raises(MalformedScan, match=re.escape(f"{path}: non-finite coordinate")):
            kio.read_scan(path)

    def test_non_finite_intensities_next_to_finite_coordinates(self, tmp_path, rng):
        pts = rng.normal(size=(130_000, 4)).astype("<f4")
        pts[::1000, 3] = [float("nan"), float("inf"), float("-inf")] * 43 + [float("nan")]
        path = tmp_path / "000005.bin"
        path.write_bytes(pts.tobytes())
        got = kio.read_scan(path).points
        assert got.tobytes() == pts.tobytes()

    def test_short_read(self, tmp_path, monkeypatch):
        # a file that shrinks between its size check and its read
        path = tmp_path / "000006.bin"
        path.write_bytes(struct.pack("<4f", 1.0, 2.0, 3.0, 0.0))
        fstat = kio.os.fstat
        monkeypatch.setattr(
            kio.os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 16)
        )
        with pytest.raises(MalformedScan, match=re.escape(f"{path}: read 16 of 32 bytes")):
            kio.read_scan(path)


class TestReadLabels:
    def test_fixture(self, tmp_path):
        path = tmp_path / "000000.label"
        path.write_bytes(struct.pack("<2I", 252, 10))
        labels = kio.read_labels(path, 2)
        assert labels.dtype == np.uint32 and labels.shape == (2,)
        np.testing.assert_array_equal(labels, [252, 10])

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "x.label"
        path.write_bytes(struct.pack("<2I", 252, 10))
        with pytest.raises(LabelCountMismatch):
            kio.read_labels(path, 3)

    def test_bad_size(self, tmp_path):
        path = tmp_path / "x.label"
        path.write_bytes(b"\x00" * 6)
        message = f"{path}: size 6 is not a multiple of 4"
        with pytest.raises(MalformedLabel, match=re.escape(message)):
            kio.read_labels(path, 1)

    def test_result_owns_its_labels(self, tmp_path, rng):
        path = tmp_path / "000002.label"
        raw = rng.integers(0, 2**32, size=1000, dtype=np.uint32)
        path.write_bytes(raw.astype("<u4").tobytes())
        got = kio.read_labels(path, 1000)
        assert got.flags.owndata and got.flags.writeable and got.flags.c_contiguous
        assert got.dtype == np.uint32 and got.shape == (1000,)
        np.testing.assert_array_equal(got, raw)

    def test_short_read(self, tmp_path, monkeypatch):
        # a file that shrinks between its size check and its read
        path = tmp_path / "000006.label"
        path.write_bytes(struct.pack("<2I", 252, 10))
        fstat = kio.os.fstat
        monkeypatch.setattr(
            kio.os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 4)
        )
        with pytest.raises(MalformedLabel, match=re.escape(f"{path}: read 8 of 12 bytes")):
            kio.read_labels(path, 3)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.label"
        with pytest.raises(IoFailure, match=f"^{re.escape(f'cannot read labels {path}: ')}"):
            kio.read_labels(path, 0)

    def test_bit_split(self, tmp_path):
        # the instance id in the high 16 bits is kept on read and ignored by
        # the remap, which sees semantic id 252 (moving car)
        path = tmp_path / "x.label"
        path.write_bytes(struct.pack("<I", 0x0001_00FC))
        labels = kio.read_labels(path, 1)
        assert labels[0] == 0x0001_00FC
        assert kio.remap_labels(labels)[0] == kio.CLASS_MOVING


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
        kio.write_labels(arr, path)
        back = kio.read_labels(path, len(arr))
        np.testing.assert_array_equal(back, arr)
        kio.write_labels(back, path)
        assert np.frombuffer(path.read_bytes(), "<u4").tolist() == raw


class TestRemap:
    def test_defaults(self):
        labels = np.array([252, 10, 40, 0], dtype=np.uint32)
        np.testing.assert_array_equal(kio.remap_labels(labels), [3, 2, 1, 0])

    def test_instance_bits_ignored(self):
        labels = np.array([0xABCD_00FC], dtype=np.uint32)
        assert kio.remap_labels(labels)[0] == 3

    def test_raw_labels_invert_the_class_table(self):
        classes = np.arange(kio.NUM_CLASSES)
        raw = kio.classes_to_raw_labels(classes)
        assert raw.dtype == np.uint32
        np.testing.assert_array_equal(kio.remap_labels(raw), classes)

    def test_raw_label_table_is_read_only(self):
        assert not kio.RAW_LABEL.flags.writeable
        with pytest.raises(ValueError):
            kio.RAW_LABEL[0] = 1

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=100, deadline=None)
    def test_pure_and_total(self, sem):
        labels = np.array([sem, sem], dtype=np.uint32)
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
        poses = kio.read_poses(path, kio.Pose.identity())
        np.testing.assert_allclose(poses[0].matrix, np.eye(4), atol=1e-15)

    def test_identity_with_translated_tr(self, tmp_path):
        # conjugating the identity gives the identity back
        path = self.write(tmp_path, ["1 0 0 0 0 1 0 0 0 0 1 0"])
        tr = np.eye(4)
        tr[2, 3] = 1.0
        poses = kio.read_poses(path, kio.Pose(tr))
        np.testing.assert_allclose(poses[0].matrix, np.eye(4), atol=1e-12)

    def test_rotated_tr_conjugation(self, tmp_path):
        # T_cam translates +x; Tr rotates 90 deg about z.  The hand oracle
        # Tr^-1 . T_cam . Tr is a pure translation (0, -1, 0).
        path = self.write(tmp_path, ["1 0 0 1 0 1 0 0 0 0 1 0"])
        tr = np.eye(4)
        tr[:3, :3] = rot_z(90)
        calib = kio.Pose(tr)
        poses = kio.read_poses(path, calib)
        t_cam = np.eye(4)
        t_cam[0, 3] = 1.0
        oracle = np.linalg.inv(tr) @ t_cam @ tr
        np.testing.assert_allclose(poses[0].matrix, oracle, atol=1e-12)
        np.testing.assert_allclose(poses[0].matrix[:3, 3], [0.0, -1.0, 0.0], atol=1e-12)

    def test_wrong_token_count(self, tmp_path):
        path = self.write(tmp_path, ["1 0 0"])
        with pytest.raises(MalformedPoseLine):
            kio.read_poses(path, kio.Pose.identity())

    def test_non_finite(self, tmp_path):
        path = self.write(tmp_path, ["1 0 0 nan 0 1 0 0 0 0 1 0"])
        with pytest.raises(MalformedPoseLine):
            kio.read_poses(path, kio.Pose.identity())

    def test_non_rigid(self, tmp_path):
        path = self.write(tmp_path, ["1 0 0 0 0 1 0 0 0 0 1 0", "2 0 0 0 0 1 0 0 0 0 1 0"])
        with pytest.raises(MalformedPoseLine, match=f"^{re.escape(str(path))}:2: rotation"):
            kio.read_poses(path, kio.Pose.identity())

    def test_write_read_round_trip(self, tmp_path):
        poses = [
            kio.Pose.from_rt(rot_z(30), np.array([1.25, -2.5, 0.125])),
            kio.Pose.from_rt(rot_z(-45), np.array([0.1, 0.2, 0.3])),
        ]
        path = tmp_path / "poses.txt"
        calib = kio.Pose.identity()
        kio.write_poses(poses, path, calib)
        back = kio.read_poses(path, calib)
        for a, b in zip(poses, back):
            np.testing.assert_array_equal(a.matrix, b.matrix)


class TestCalib:
    def test_parse(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P0: 1 0 0 0 0 1 0 0 0 0 1 0\nTr: 1 0 0 0.5 0 1 0 0 0 0 1 0\n")
        calib = kio.read_calib(path)
        assert calib.matrix[0, 3] == 0.5

    def test_missing_tr(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P0: 1 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(MalformedCalib):
            kio.read_calib(path)

    def test_non_rigid(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("Tr: 1 0 0 0 0 1 0 0 0 0 -1 0\n")
        with pytest.raises(MalformedCalib, match=f"^{re.escape(str(path))}: Tr: rotation"):
            kio.read_calib(path)

    def test_round_trip(self, tmp_path):
        calib = kio.Pose.from_rt(rot_z(10), np.array([0.5, 0.0, -0.25]))
        path = tmp_path / "calib.txt"
        kio.write_calib(calib, path)
        np.testing.assert_array_equal(kio.read_calib(path).matrix, calib.matrix)


class TestValidation:
    def test_pose_rejects_bad_bottom_row(self):
        m = np.eye(4)
        m[3, 0] = 1.0
        with pytest.raises(ValueError):
            kio.Pose(m)

    @staticmethod
    def assert_parsers_reject(tmp_path, m, message):
        """``Pose`` checks only the matrix's form, so it takes ``m``; the pose
        and calib parsers, where rigidity is checked, reject it."""
        kio.Pose(m)
        line = " ".join(f"{v:.17g}" for v in m[:3].ravel())
        poses, calib = tmp_path / "poses.txt", tmp_path / "calib.txt"
        poses.write_text(line + "\n")
        calib.write_text(f"Tr: {line}\n")
        with pytest.raises(MalformedPoseLine, match=f"^{re.escape(f'{poses}:1: {message}')}$"):
            kio.read_poses(poses, kio.Pose.identity())
        with pytest.raises(MalformedCalib, match=f"^{re.escape(f'{calib}: Tr: {message}')}$"):
            kio.read_calib(calib)

    def test_pose_rejects_non_orthonormal(self, tmp_path):
        m = np.eye(4)
        m[0, 0] = 1.1
        self.assert_parsers_reject(tmp_path, m, "rotation block is not orthonormal within 1e-6")

    def test_pose_rejects_reflection(self, tmp_path):
        m = np.eye(4)
        m[0, 0] = -1.0
        self.assert_parsers_reject(tmp_path, m, "rotation block is a reflection")

    def test_derived_poses_are_not_checked_again(self):
        # a diagonal of 1 + 4.9e-7 is orthonormal within 1e-6, but the
        # inverse, the product and the conjugation compound it past 1e-6
        m = np.eye(4)
        m[[0, 1, 2], [0, 1, 2]] = 1.0 + 4.9e-7
        pose = kio.Pose(m)
        for derived in (pose.inverse() @ pose.inverse(), pose @ pose, pose.inverse() @ pose @ pose):
            r = derived.matrix[:3, :3]
            assert np.abs(r.T @ r - np.eye(3)).max() > 1e-6

    def test_classmap_has_four_classes(self):
        table = kio.CLASS_TABLE
        assert table.shape == (65536,)
        assert set(np.unique(table)) == {0, 1, 2, 3}

    def test_pointcloud_shape(self):
        with pytest.raises(ValueError):
            kio.PointCloud(points=np.zeros((3, 3)))
