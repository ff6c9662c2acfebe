import shutil
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosdistill import bev, geometry, metrics, nnet, pipeline
from mosdistill.errors import ConfigError
from mosdistill.kitti_io import CLASS_UNLABELED, PointCloud, Pose
from mosdistill.synthbench import gen_sequence
from oracle_utils import height_oracle, project_oracle


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
            assert s.motion.n2 == split

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

    def test_appearance_channels_double_width(self, loaded, tiny_config):
        clouds, classes, poses = loaded
        tiny_config.set("bev.appearance_channels", "true")
        samples = pipeline.build_samples(clouds, classes, poses, tiny_config)
        window, _ = tiny_config.window()
        assert samples[0].motion.channels.shape[0] == 2 * window
        assert pipeline.input_channels(tiny_config) == 2 * window

    def test_too_short_sequence(self, loaded, tiny_config):
        clouds, classes, poses = loaded
        with pytest.raises(ConfigError):
            pipeline.build_sample(
                clouds, classes, poses, 1, tiny_config.bev_grid(), 4, 2
            )


class TestEvaluate:
    def test_oracle_labels_against_themselves(self, loaded, tiny_config):
        # predictions equal to the cell truth score IoU 1.0 for every class
        # at cell level; point level loses only the majority-vote quantization
        clouds, classes, poses = loaded
        samples = pipeline.build_samples(clouds, classes, poses, tiny_config)
        cell_cm = metrics.ConfusionMatrix()
        point_cm = metrics.ConfusionMatrix()
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
        with pytest.raises(ConfigError):
            pipeline.split_train_heldout(samples, 1.0)

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


class TestDegenerateWindows:
    @pytest.mark.filterwarnings("error")
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
        # the ego moves 0.1 m along x per frame
        poses = [Pose.from_rt(np.eye(3), [0.1 * i, 0.0, 0.0]) for i in range(window)]
        grid = DEGENERATE_GRID
        sample = pipeline.build_sample(
            clouds, classes, poses, window - 1, grid, window, split
        )
        current = clouds[-1]
        np.testing.assert_array_equal(sample.cells.flat, project_oracle(current, grid))
        values, occupancy = height_oracle(current, grid)
        np.testing.assert_array_equal(sample.height.values, values)
        np.testing.assert_array_equal(sample.height.occupancy, occupancy)
        aligned = geometry.align_to_current(clouds, poses, window - 1)
        assert len(aligned) == window
        for steps_back, cloud in enumerate(aligned):
            np.testing.assert_array_equal(
                bev.project_to_cells(cloud, grid).flat,
                project_oracle(cloud, grid),
            )
            source = clouds[window - 1 - steps_back]
            np.testing.assert_array_equal(cloud.intensity, source.intensity)
        assert sample.motion.channels.shape == (window, *grid.shape)
        assert np.isfinite(sample.motion.channels).all()
        if kinds[-1] in ("empty", "out_of_range"):
            assert not sample.cells.assigned.any()
            assert not sample.labels.valid.any()

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
