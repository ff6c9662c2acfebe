import shutil
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosdistill import bev, geometry, metrics, nnet, pipeline
from mosdistill.errors import ConfigError, EmptyFrame
from mosdistill.kitti_io import CLASS_UNLABELED, PointCloud, Pose
from mosdistill.synthbench import SceneConfig, gen_sequence
from oracle_utils import height_oracle, project_oracle, serial_train_oracle, window_pool_oracle


@pytest.fixture
def loaded(seq_dir):
    return pipeline.load_sequence(seq_dir)


class TestLoadSequence:
    def test_counts(self, loaded, tiny_scene):
        clouds, classes, poses = loaded
        assert len(clouds) == len(classes) == len(poses) == tiny_scene.n_frames
        assert all(len(c) == len(k) for c, k in zip(clouds, classes))

    def test_matches_in_memory_generation(self, loaded, tiny_scene):
        clouds, classes, _ = loaded
        gen_clouds, gen_classes, _ = gen_sequence(tiny_scene)
        for a, b in zip(clouds, gen_clouds):
            np.testing.assert_array_equal(a.points, b.points)
        for a, b in zip(classes, gen_classes):
            np.testing.assert_array_equal(a, b)


    def test_missing_labels_directory_gives_unlabeled_points(self, seq_dir):
        clouds, _, _ = pipeline.load_sequence(seq_dir)
        shutil.rmtree(seq_dir / "labels")
        bare_clouds, bare_classes, _ = pipeline.load_sequence(seq_dir)
        assert len(bare_classes) == len(clouds)
        for cloud, bare, classes in zip(clouds, bare_clouds, bare_classes):
            np.testing.assert_array_equal(bare.points, cloud.points)
            assert classes.dtype == np.uint8 and len(classes) == len(cloud)
            assert (classes == CLASS_UNLABELED).all()


class TestMapFrames:
    @pytest.mark.parametrize("threads", [1, 2, 5])
    def test_results_in_item_order(self, threads):
        def slow_square(i):
            time.sleep(0.01 * (5 - i))  # later items finish first on a pool
            return i * i

        assert pipeline.map_frames(slow_square, list(range(6)), threads) == [
            i * i for i in range(6)
        ]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_first_failing_item_in_order_raises(self, threads):
        def fail_odd(i):
            if i % 2:
                time.sleep(0.05 if i == 1 else 0.0)  # item 3 fails first in time
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="item 1"):
            pipeline.map_frames(fail_odd, list(range(6)), threads)


class TestBuildSamples:
    def test_window_arithmetic(self, loaded, tiny_config):
        clouds, classes, poses = loaded
        samples = pipeline.build_samples(clouds, classes, poses, tiny_config)
        window, _ = tiny_config.window()
        assert len(samples) == len(clouds) - (window - 1)
        assert [s.frame_id for s in samples] == list(range(window - 1, len(clouds)))

    def test_motion_tensor_shape(self, loaded, tiny_config):
        clouds, classes, poses = loaded
        samples = pipeline.build_samples(clouds, classes, poses, tiny_config)
        window, split = tiny_config.window()
        grid = tiny_config.bev_grid()
        for s in samples:
            assert s.motion.channels.shape == (window, *grid.shape)
            # the newer window's channels carry I1 - I2, the older's I2 - I1
            assert (s.motion.channels[:split] == -s.motion.channels[split]).all()
            assert (s.motion.channels[split:] == s.motion.channels[split]).all()

    def test_threads_do_not_change_results(self, loaded, tiny_config):
        clouds, classes, poses = loaded
        a = pipeline.build_samples(clouds, classes, poses, tiny_config, threads=1)
        b = pipeline.build_samples(clouds, classes, poses, tiny_config, threads=4)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.motion.channels, sb.motion.channels)
            np.testing.assert_array_equal(sa.labels.labels, sb.labels.labels)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_map_windows_returns_consumer_results_in_frame_order(
        self, loaded, tiny_config, threads
    ):
        built = pipeline.build_samples(*loaded, tiny_config)
        seen = []

        def consume(sample):
            seen.append(sample.frame_id)
            return sample.frame_id, sample.motion.channels.sum()

        out = pipeline.map_windows(*loaded, tiny_config, consume, threads)
        assert out == [(s.frame_id, s.motion.channels.sum()) for s in built]
        assert sorted(seen) == [s.frame_id for s in built]

    def test_too_short_sequence(self, loaded, tiny_config):
        clouds, classes, poses = loaded
        with pytest.raises(ConfigError):
            pipeline.build_sample(
                clouds, classes, poses, 1, tiny_config.bev_grid(), 4, 2
            )

    @pytest.mark.parametrize("block", [16_384, 32_768])
    def test_peak_memory_does_not_grow_with_the_window(self, monkeypatch, block):
        # tracemalloc counts numpy's allocations exactly, so the ratio of
        # the two peaks is a property of the code, not of the machine; a
        # window that held its aligned frames peaked about 3x higher at 8,
        # and one that held its frames' height images 1.15x at 32,768
        monkeypatch.setattr(pipeline, "BLOCK", block)
        scene = SceneConfig(n_frames=8, n_static=100_000 - 250, seed=0)
        clouds, classes, poses = gen_sequence(scene)
        grid = bev.BevGrid()
        peaks = {}
        for window in (2, 8):
            tracemalloc.start()
            try:
                pipeline.build_sample(clouds, classes, poses, 7, grid, window, 1)
                peaks[window] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] <= 1.1 * peaks[2]


class TestEvaluate:
    def test_oracle_labels_against_themselves(self, loaded, tiny_config):
        # predictions equal to the cell truth score IoU 1.0 for every class
        # at cell level; point level loses only the majority-vote quantization
        clouds, classes, poses = loaded
        samples = pipeline.build_samples(clouds, classes, poses, tiny_config)
        cell_cm = np.zeros((4, 4), dtype=np.int64)
        point_cm = np.zeros((4, 4), dtype=np.int64)
        for s in samples:
            valid = s.labels.valid
            metrics.accumulate(cell_cm, s.labels.labels[valid], s.labels.labels[valid])
            point_pred = bev.back_project(s.labels.labels, s.cells)
            metrics.accumulate(point_cm, point_pred, s.point_classes)
        report = metrics.metrics_report(cell_cm, point_cm)
        for name in ("static", "movable", "moving"):
            assert report[f"cell_iou_{name}"] == 1.0
        assert float(report["moving_iou"]) > 0.6

    def test_no_samples_scores_every_absent_class_one(self):
        net = nnet.build_network("student:in=4,base=8", seed=0)
        zero_row = "0 0 0 0"
        expected = {"absent_class_iou": 1.0, "moving_iou": 1.0}
        for level in ("cell", "point"):
            for name in ("unlabeled", "static", "movable", "moving"):
                expected[f"{level}_iou_{name}"] = 1.0
                expected[f"{level}_cm_{name}"] = zero_row
        assert pipeline.evaluate(net, []) == expected

    def test_split_train_heldout(self):
        samples = list(range(10))
        train, held = pipeline.split_train_heldout(samples, 0.25)
        assert train == list(range(8)) and held == [8, 9]
        train, held = pipeline.split_train_heldout(samples, 0.0)
        assert train == samples and held == []
        # one training sample always stays, also when the fraction rounds up to all
        for fraction in (0.25, 0.6, 0.99):
            assert pipeline.split_train_heldout([0], fraction) == ([0], [])
        assert pipeline.split_train_heldout([0, 1], 0.9) == ([0], [1])
        assert pipeline.split_train_heldout([], 0.5) == ([], [])

    def test_descriptors(self, tiny_config):
        assert pipeline.student_descriptor(tiny_config) == "student:in=4,base=8"
        assert pipeline.teacher_descriptor(tiny_config) == "teacher:in=4,base=16"


class TestPredictLogits:
    def test_float32_within_1e5_of_float64_with_equal_argmax(self, loaded, tiny_config):
        samples = pipeline.build_samples(*loaded, tiny_config)
        pipeline.attach_synth_teacher(samples, 10.0, 0.5, seed=0)
        net = nnet.build_network(pipeline.student_descriptor(tiny_config), seed=0)
        pipeline.train_student(net, samples, [], tiny_config, epochs=2)
        assert net.parameters()["up1.linear_w"].any()  # the offsets are live
        for sample in samples:
            grid = pipeline.predict_logits(net, sample)
            y64, _ = net.forward(sample.motion.channels, train=False)
            ref = np.transpose(y64, (1, 2, 0))
            assert grid.scores.dtype == np.float64
            np.testing.assert_array_equal(grid.scores, grid.scores.astype(np.float32))
            np.testing.assert_allclose(grid.scores, ref, rtol=0, atol=1e-5)
            valid = grid.valid
            np.testing.assert_array_equal(
                grid.scores[valid].argmax(axis=1), ref[valid].argmax(axis=1)
            )

    def test_sees_an_in_place_parameter_update(self, loaded, tiny_config, rng):
        sample = pipeline.build_samples(*loaded, tiny_config)[0]
        net = nnet.build_network(pipeline.student_descriptor(tiny_config), seed=0)
        before = pipeline.predict_logits(net, sample)
        params = net.parameters()
        grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
        nnet.SgdState(lr=0.01).step(params, grads)
        after = pipeline.predict_logits(net, sample)
        fresh = nnet.build_network(net.descriptor)
        fresh.load_parameters(params)
        np.testing.assert_array_equal(after.scores, pipeline.predict_logits(fresh, sample).scores)
        assert not np.array_equal(after.scores, before.scores)


class TestTraining:
    def test_loss_decreases(self, loaded, tiny_config):
        clouds, classes, poses = loaded
        samples = pipeline.build_samples(clouds, classes, poses, tiny_config)
        pipeline.attach_synth_teacher(samples, 10.0, 0.5, seed=0)
        net = nnet.build_network(pipeline.student_descriptor(tiny_config), seed=0)
        tiny_config.set("opt.lr", "0.02")
        logs = pipeline.train_student(net, samples, [], tiny_config, epochs=6)
        assert logs[-1].total < logs[0].total
        assert all(np.isfinite(l.total) for l in logs)

    @pytest.mark.parametrize("switch_s", [None, 1e-6])
    def test_overlapped_step_equals_serial_oracle(self, tiny_config, monkeypatch, switch_s):
        # switch_s: a short interpreter switch interval interleaves the two
        # pool workers' per-sample forward, loss and backward finely
        tiny_config.set("scene.n_frames", "10")  # 7 windows of 4 frames
        tiny_config.set("train.batch_size", "3")  # the last batch holds 1 sample
        samples = pipeline.build_samples(*gen_sequence(tiny_config.scene()), tiny_config)
        assert len(samples) == 7
        pipeline.attach_synth_teacher(samples, 10.0, 0.5, seed=0)
        heldout = samples[:2]
        descriptor = pipeline.student_descriptor(tiny_config)

        states = []
        step = nnet.SgdState.step

        def spy(state, params, grads):
            states.append(state)
            step(state, params, grads)

        net = nnet.build_network(descriptor, seed=0)
        interval = sys.getswitchinterval()
        with monkeypatch.context() as m:
            m.setattr(nnet.SgdState, "step", spy)
            try:
                sys.setswitchinterval(switch_s or interval)
                logs = pipeline.train_student(net, samples, heldout, tiny_config, epochs=2)
            finally:
                sys.setswitchinterval(interval)
        assert len(states) == 6 and all(s is states[0] for s in states)

        ref = nnet.build_network(descriptor, seed=0)
        ref_logs, ref_state = serial_train_oracle(ref, samples, heldout, tiny_config, 2)
        assert logs == ref_logs
        params, ref_params = net.parameters(), ref.parameters()
        assert set(states[0].velocity) == set(ref_state.velocity) == set(params)
        for name in params:
            assert params[name].tobytes() == ref_params[name].tobytes(), name
            assert states[0].velocity[name].tobytes() == ref_state.velocity[name].tobytes(), name

    @pytest.mark.parametrize("position", [0, 1])
    def test_empty_sample_raises_and_joins_the_pool(self, loaded, tiny_config, position):
        # position: first or second sample of the first batch; its sibling
        # runs on the other pool worker
        samples = pipeline.build_samples(*loaded, tiny_config)  # 4 samples, batch 2
        pipeline.attach_synth_teacher(samples, 10.0, 0.5, seed=0)
        # in train_student's shuffled order
        order = np.random.default_rng(tiny_config.get("train.seed") + 1).permutation(4)
        victim = samples[order[position]]
        victim.labels = bev.CellLabelGrid(
            labels=victim.labels.labels, valid=np.zeros_like(victim.labels.valid)
        )
        net = nnet.build_network(pipeline.student_descriptor(tiny_config), seed=0)
        before = {name: p.copy() for name, p in net.parameters().items()}
        threads = set(threading.enumerate())
        with pytest.raises(EmptyFrame, match=f"^no valid cells in frame {victim.frame_id}$"):
            pipeline.train_student(net, samples, [], tiny_config, epochs=1)
        assert set(threading.enumerate()) == threads
        for name, p in net.parameters().items():
            np.testing.assert_array_equal(p, before[name])

    @pytest.mark.parametrize("epochs", [0, -2])
    def test_epochs_below_one_raise_config_error(self, loaded, tiny_config, epochs):
        samples = pipeline.build_samples(*loaded, tiny_config)
        pipeline.attach_synth_teacher(samples, 10.0, 0.5, seed=0)
        net = nnet.build_network(pipeline.student_descriptor(tiny_config), seed=0)
        before = {name: p.copy() for name, p in net.parameters().items()}
        with pytest.raises(ConfigError, match=f"train.epochs must be >= 1, got {epochs}"):
            pipeline.train_student(net, samples, [], tiny_config, epochs=epochs)
        for name, p in net.parameters().items():
            np.testing.assert_array_equal(p, before[name])

    def test_teacher_grids_required_for_gamma(self, loaded, tiny_config):
        clouds, classes, poses = loaded
        samples = pipeline.build_samples(clouds, classes, poses, tiny_config)
        net = nnet.build_network(pipeline.student_descriptor(tiny_config), seed=0)
        with pytest.raises(ValueError):
            pipeline.train_student(net, samples, [], tiny_config, epochs=1)


DEGENERATE_GRID = bev.BevGrid(n_radial=4, n_angular=8, r_max=10.0, z_min=-2.0, z_max=2.0)
FRAME_KINDS = ("normal", "empty", "single", "out_of_range", "nan_intensity", "nan_xyz")


def degenerate_frame(kind, rng, dtype, frame_id):
    """Points of one scan of the given kind, on DEGENERATE_GRID."""
    n = {"empty": 0, "single": 1}.get(kind, 40)
    xyz = np.column_stack(
        [rng.uniform(-8.0, 8.0, (n, 2)), rng.uniform(-1.5, 1.5, n)]
    )
    intensity = rng.uniform(0.0, 1.0, n)
    if kind == "out_of_range":
        # half beyond r_max (some exactly on it), half outside the z range
        on_edge = np.arange(n) % 4 == 0  # exactly r_max, on an axis
        axis = rng.integers(-1, 3, n) * np.pi / 2
        theta = np.where(on_edge, axis, rng.uniform(-np.pi, np.pi, n))
        rad = np.where(on_edge, 10.0, rng.uniform(10.0, 30.0, n))
        xyz[:, 0], xyz[:, 1] = rad * np.cos(theta), rad * np.sin(theta)
        xyz[1::2, :2] /= 4.0
        above = rng.uniform(2.5, 9.0, n // 2)
        xyz[1::2, 2] = np.where(np.arange(1, n, 2) % 3 == 0, 2.0, above)  # 2.0 = z_max
        xyz[1::4, 2] *= -1.0
    elif kind == "nan_intensity":
        intensity[::2] = np.nan
    elif kind == "nan_xyz":
        xyz[rng.integers(0, n, 10), rng.integers(0, 3, 10)] = np.nan
    pts = np.column_stack([xyz, intensity]).astype(dtype)
    return PointCloud(points=pts, frame_id=frame_id)


def tilted_pose(rng):
    """A rigid pose turned by any angle about an axis within about a degree
    of z and shifted by up to 1 m, so aligned frames stay on DEGENERATE_GRID
    and keep their z order."""
    axis = np.array([*rng.normal(0.0, 0.01, 2), 1.0])
    axis /= np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    angle = rng.uniform(-np.pi, np.pi)
    r = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)  # Rodrigues
    return Pose.from_rt(r, [*rng.uniform(-1.0, 1.0, 2), 0.0])


def whole_frame_oracle(clouds, poses, grid, split):
    """Current cells, current height image and motion channels of the window
    ending at the last frame, from the whole frames that align_to_current
    gives and the per-point and per-cell loop oracles."""
    aligned = geometry.align_to_current(clouds, poses, len(clouds) - 1)
    flats = [project_oracle(cloud, grid) for cloud in aligned]
    frames = []  # (height image, occupancy) per frame, newest first
    for cloud, flat in zip(aligned, flats):
        occupied = np.zeros(grid.shape, dtype=bool)
        occupied.flat[flat[flat >= 0]] = True
        frames.append((height_oracle(cloud, grid), occupied))
    diff = window_pool_oracle(frames[:split]) - window_pool_oracle(frames[split:])
    motion = np.array([diff] * split + [-diff] * (len(frames) - split))
    return flats[0], frames[0][0], motion


def assert_matches_whole_frames(sample, clouds, poses, grid, split):
    cells, height, motion = whole_frame_oracle(clouds, poses, grid, split)
    np.testing.assert_array_equal(sample.cells.flat, cells)
    np.testing.assert_array_equal(sample.height, height)
    np.testing.assert_array_equal(sample.motion.channels, motion)


def sized_frame(n, rng, frame_id):
    """n float32 points around DEGENERATE_GRID: some beyond r_max or the z
    range, and about 1% of the coordinates NaN or infinite.  The last point
    sits near the origin at z = 1.9, above every other in-range point, so
    the span of its cell shows whether the frame's tail was projected."""
    xyz = np.column_stack([rng.uniform(-12.0, 12.0, (n, 2)), rng.uniform(-1.5, 1.5, n)])
    outside = rng.random(n) < 0.05
    xyz[outside, 2] = rng.choice([-1.0, 1.0], outside.sum()) * rng.uniform(2.0, 5.0, outside.sum())
    bad = rng.random((n, 3)) < 0.01
    xyz[bad] = rng.choice([np.nan, np.inf, -np.inf], bad.sum())
    if n:
        xyz[-1] = [*rng.uniform(-3.0, 3.0, 2), 1.9]
    pts = np.column_stack([xyz, rng.uniform(0.0, 1.0, n)]).astype(np.float32)
    return PointCloud(points=pts, frame_id=frame_id)


class TestDegenerateWindows:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(
        kinds=st.lists(st.sampled_from(FRAME_KINDS), min_size=2, max_size=5),
        split=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        float32=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_cells_heights_and_motion(self, kinds, split, seed, float32):
        rng = np.random.default_rng(seed)
        dtype = np.float32 if float32 else np.float64
        window = len(kinds)
        split = min(split, window - 1)
        clouds = [degenerate_frame(k, rng, dtype, i) for i, k in enumerate(kinds)]
        classes = [rng.integers(0, 4, len(c)) for c in clouds]
        poses = [tilted_pose(rng) for _ in range(window)]
        grid = DEGENERATE_GRID
        sample = pipeline.build_sample(
            clouds, classes, poses, window - 1, grid, window, split
        )
        assert_matches_whole_frames(sample, clouds, poses, grid, split)
        aligned = geometry.align_to_current(clouds, poses, window - 1)
        assert len(aligned) == window
        for steps_back, cloud in enumerate(aligned):
            np.testing.assert_array_equal(
                bev.project_to_cells(cloud, grid).flat,
                project_oracle(cloud, grid),
            )
            source = clouds[window - 1 - steps_back]
            np.testing.assert_array_equal(cloud.points[:, 3], source.points[:, 3])
        assert sample.motion.channels.shape == (window, *grid.shape)
        assert np.isfinite(sample.motion.channels).all()
        if kinds[-1] in ("empty", "out_of_range"):
            assert not sample.cells.assigned.any()
            assert not sample.labels.valid.any()

    # inf coordinates turned by a rotation meet inf - inf in transform_points
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("current", range(6))
    def test_frames_around_the_block_size(self, current):
        # six frames of 0, 1, BLOCK-1, BLOCK, BLOCK+1 and 2*BLOCK+17 points,
        # each of them the current frame once, under rotated poses
        b = pipeline.BLOCK
        sizes = [0, 1, b - 1, b, b + 1, 2 * b + 17]
        rng = np.random.default_rng(current)
        order = [*rng.permutation(sizes[:current] + sizes[current + 1 :]), sizes[current]]
        clouds = [sized_frame(int(n), rng, i) for i, n in enumerate(order)]
        classes = [rng.integers(0, 4, len(c)) for c in clouds]
        poses = [tilted_pose(rng) for _ in clouds]
        split = int(rng.integers(1, len(clouds)))
        sample = pipeline.build_sample(
            clouds, classes, poses, len(clouds) - 1, DEGENERATE_GRID, len(clouds), split
        )
        assert len(clouds[-1]) == sizes[current]
        assert_matches_whole_frames(sample, clouds, poses, DEGENERATE_GRID, split)
        assert sample.motion.channels.any()

    @pytest.mark.parametrize("window", [3, 4, 9])
    def test_window_longer_than_sequence(self, rng, window):
        clouds = [degenerate_frame("normal", rng, np.float32, i) for i in range(2)]
        classes = [np.zeros(len(c), dtype=np.int64) for c in clouds]
        poses = [Pose.identity()] * 2
        with pytest.raises(ConfigError):
            pipeline.build_sample(
                clouds, classes, poses, 1, DEGENERATE_GRID, window, 1
            )

    def test_samples_of_a_sequence_shorter_than_the_window(self, rng, tiny_config):
        clouds = [degenerate_frame("normal", rng, np.float32, i) for i in range(3)]
        classes = [np.zeros(len(c), dtype=np.int64) for c in clouds]
        with pytest.raises(ConfigError, match="3 frames"):
            pipeline.build_samples(clouds, classes, [Pose.identity()] * 3, tiny_config)
