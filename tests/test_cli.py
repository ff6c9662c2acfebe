import ast
import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_cli_args
from mosdistill import cli, errors, nnet, pipeline, teacher
from mosdistill.cli import main
from mosdistill.metrics import read_metrics, write_metrics


SRC = Path(__file__).resolve().parent.parent / "src"


def tree_bytes(root):
    files = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
    return {str(rel): (root / rel).read_bytes() for rel in files}


@pytest.fixture
def zero_ckpt(tmp_path):
    """Checkpoint of an untrained all-zero student for the tiny config."""
    net = nnet.build_network("student:in=4,base=8", seed=0)
    for p in net.parameters().values():
        p[...] = 0.0
    path = tmp_path / "zero.ckpt"
    nnet.save_checkpoint(path, net)
    return path


class TestSynthGen:
    def test_default_frame_count(self, tmp_path):
        out = tmp_path / "data"
        assert main(["synth-gen", "--out", str(out)]) == 0
        seq = out / "sequences" / "00"
        assert len(list((seq / "velodyne").glob("*.bin"))) == 8
        assert len(list((seq / "labels").glob("*.label"))) == 8
        assert (seq / "poses.txt").exists() and (seq / "calib.txt").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = tiny_cli_args()
        assert main(["synth-gen", "--out", str(a), *args]) == 0
        assert main(["synth-gen", "--out", str(b), *args]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_zero_frames(self, tmp_path):
        out = tmp_path / "empty"
        code = main(["synth-gen", "--out", str(out), "--set", "scene.n_frames=0"])
        assert code == 0
        assert not list((out / "sequences" / "00" / "velodyne").glob("*"))

    def test_unknown_key_exit_one(self, tmp_path):
        assert main(["synth-gen", "--out", str(tmp_path), "--set", "nope=1"]) == 1
        # keys that earlier builds accepted fail loudly, from --set or a file
        for key, value in [
            ("bev.mode", "polar"),
            ("bev.aggregate", "max"),
            ("bev.per_frame_residuals", "false"),
            ("distill.moving_class", "3"),
        ]:
            assert main(["synth-gen", "--out", str(tmp_path), "--set", f"{key}={value}"]) == 1
            old = tmp_path / "old.cfg"
            old.write_text(f"{key} = {value}\n")
            assert main(["synth-gen", "--out", str(tmp_path), "--config", str(old)]) == 1
        assert not (tmp_path / "sequences").exists()


class TestProject:
    def test_window_arithmetic(self, seq_dir, tmp_path):
        # n_frames - (window - 1) projected frames
        out = tmp_path / "proj"
        assert main(["project", "--seq", str(seq_dir), "--out", str(out), *tiny_cli_args()]) == 0
        assert len(list((out / "motion").glob("*.npy"))) == 7 - (4 - 1)

    def test_static_scene_near_zero_residuals(self, tmp_path, tiny_config):
        from mosdistill.synthbench import export_kitti_sequence

        scene = tiny_config.scene()
        static = type(scene)(
            **{**scene.__dict__, "n_moving": 0, "ego_velocity": (0.3, 0.0)}
        )
        seq = tmp_path / "seq"
        export_kitti_sequence(static, seq)
        out = tmp_path / "proj"
        assert main(["project", "--seq", str(seq), "--out", str(out), *tiny_cli_args()]) == 0
        worst = 0.0
        for path in (out / "motion").glob("*.npy"):
            worst = max(worst, float(np.abs(np.load(path)).max()))
        assert worst < 1e-5

    def test_render_writes_one_image_per_channel(self, seq_dir, tmp_path):
        out = tmp_path / "proj"
        code = main(
            ["project", "--seq", str(seq_dir), "--out", str(out), "--render", *tiny_cli_args()]
        )
        assert code == 0
        first = sorted((out / "motion").glob("*.npy"))[0]
        channels = np.load(first).shape[0]
        stem = first.stem
        renders = list((out / "render").glob(f"{stem}_ch*.pgm"))
        assert len(renders) == channels

    def test_corrupt_scan_exit_two(self, seq_dir, tmp_path):
        scan = sorted((seq_dir / "velodyne").glob("*.bin"))[0]
        scan.write_bytes(scan.read_bytes()[:-3])  # no longer a multiple of 16
        out = tmp_path / "proj"
        assert main(["project", "--seq", str(seq_dir), "--out", str(out), *tiny_cli_args()]) == 2

    def test_meta_parses(self, seq_dir, tmp_path):
        out = tmp_path / "proj"
        main(["project", "--seq", str(seq_dir), "--out", str(out), *tiny_cli_args()])
        meta = read_metrics(out / "meta.txt")
        assert meta["window"] == "4"
        assert meta["n_radial"] == "16"


class TestTrain:
    def train(self, seq_dir, tmp_path, name, extra=()):
        ckpt = tmp_path / f"{name}.ckpt"
        log = tmp_path / f"{name}.log"
        code = main(
            [
                "train",
                "--seq",
                str(seq_dir),
                "--out-ckpt",
                str(ckpt),
                "--epochs",
                "2",
                "--log",
                str(log),
                *tiny_cli_args(extra),
            ]
        )
        return code, ckpt, log

    def test_smoke_and_determinism(self, seq_dir, tmp_path):
        code_a, ckpt_a, log_a = self.train(seq_dir, tmp_path, "a", ["--teacher", "synth"])
        code_b, ckpt_b, log_b = self.train(seq_dir, tmp_path, "b", ["--teacher", "synth"])
        assert code_a == code_b == 0
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
        assert log_a.read_text() == log_b.read_text()
        assert "wdcd=" in log_a.read_text()

    def test_unwritable_log_exit_one(self, seq_dir, tmp_path, capsys):
        log = tmp_path / "missing" / "train.log"
        code = main(
            ["train", "--seq", str(seq_dir), "--out-ckpt", str(tmp_path / "s.ckpt"),
             "--epochs", "1", "--log", str(log), *tiny_cli_args()]
        )
        assert code == 1
        assert f"cannot write log {log}: " in capsys.readouterr().err

    def test_distilled_logs_nonzero_wdcd(self, seq_dir, tmp_path):
        _, _, log_synth = self.train(seq_dir, tmp_path, "synth", ["--teacher", "synth"])
        _, _, log_base = self.train(seq_dir, tmp_path, "base", ["--teacher", "none"])
        wdcd_vals = [
            float(tok.split("=")[1])
            for line in log_synth.read_text().splitlines()
            for tok in line.split()
            if tok.startswith("wdcd=")
        ]
        assert any(v != 0.0 for v in wdcd_vals)
        base_vals = [
            float(tok.split("=")[1])
            for line in log_base.read_text().splitlines()
            for tok in line.split()
            if tok.startswith("wdcd=")
        ]
        assert all(v == 0.0 for v in base_vals)

    def test_gamma_zero_matches_no_teacher(self, seq_dir, tmp_path):
        # a teacher with gamma = 0 must leave the trajectory untouched
        _, ckpt_none, log_none = self.train(seq_dir, tmp_path, "none", ["--teacher", "none"])
        _, ckpt_g0, log_g0 = self.train(
            seq_dir, tmp_path, "g0", ["--teacher", "synth", "--set", "distill.gamma=0"]
        )
        assert log_none.read_text() == log_g0.read_text()
        assert ckpt_none.read_bytes() == ckpt_g0.read_bytes()

    def test_exploding_lr_exits_three(self, seq_dir, tmp_path):
        code, _, _ = self.train(
            seq_dir, tmp_path, "boom", ["--teacher", "none", "--set", "opt.lr=1e18"]
        )
        assert code == 3

    def test_empty_frame_named_exit_one(self, seq_dir, tmp_path, capsys):
        # a 0-byte scan with its 0-byte label file is a valid, empty frame
        (seq_dir / "velodyne" / "000004.bin").write_bytes(b"")
        (seq_dir / "labels" / "000004.label").write_bytes(b"")
        code, _, _ = self.train(seq_dir, tmp_path, "empty", ["--teacher", "synth"])
        assert code == 1
        assert "no valid cells in frame 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--epochs", "0"], "argument --epochs"),
            (["--epochs", "-3"], "argument --epochs"),
            (["--set", "train.epochs=0"], "train.epochs must be >= 1, got 0"),
        ],
        ids=["flag-0", "flag-neg3", "config-0"],
    )
    def test_epochs_below_one_exit_one(self, seq_dir, tmp_path, capsys, args, message):
        ckpt = tmp_path / "e.ckpt"
        code = main(["train", "--seq", str(seq_dir), "--out-ckpt", str(ckpt), *tiny_cli_args(args)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not ckpt.exists()

    def test_missing_sequence_nonzero(self, tmp_path):
        code = main(
            [
                "train",
                "--seq",
                str(tmp_path / "missing"),
                "--out-ckpt",
                str(tmp_path / "x.ckpt"),
            ]
        )
        assert code != 0


class TestEvalCmd:
    def test_zero_net_moving_iou_zero(self, seq_dir, tmp_path, zero_ckpt):
        # uniform logits argmax to class 0 everywhere: moving IoU is 0
        out = tmp_path / "metrics.txt"
        code = main(
            [
                "eval",
                "--seq",
                str(seq_dir),
                "--ckpt",
                str(zero_ckpt),
                "--metrics-out",
                str(out),
                *tiny_cli_args(),
            ]
        )
        assert code == 0
        report = read_metrics(out)
        assert float(report["point_iou_moving"]) == 0.0
        assert float(report["cell_iou_moving"]) == 0.0

    def test_window_longer_than_sequence_exits_one(self, seq_dir, tmp_path, zero_ckpt):
        out = tmp_path / "metrics.txt"
        args = tiny_cli_args(["--set", "bev.window=8"])  # the tiny scene has 7 frames
        code = main(
            ["eval", "--seq", str(seq_dir), "--ckpt", str(zero_ckpt),
             "--metrics-out", str(out), *args]
        )
        assert code == 1
        assert not out.exists()

    def test_metrics_file_round_trips(self, seq_dir, tmp_path, zero_ckpt):
        out = tmp_path / "metrics.txt"
        main(
            [
                "eval",
                "--seq",
                str(seq_dir),
                "--ckpt",
                str(zero_ckpt),
                "--metrics-out",
                str(out),
                *tiny_cli_args(),
            ]
        )
        report = read_metrics(out)
        assert "moving_iou" in report
        float(report["moving_iou"])  # parses as a number

    def test_threads_agree(self, seq_dir, tmp_path, zero_ckpt):
        outs = []
        for threads, name in ((1, "t1"), (4, "t4")):
            out = tmp_path / f"{name}.txt"
            main(
                [
                    "eval",
                    "--seq",
                    str(seq_dir),
                    "--ckpt",
                    str(zero_ckpt),
                    "--metrics-out",
                    str(out),
                    "--threads",
                    str(threads),
                    *tiny_cli_args(),
                ]
            )
            outs.append(out.read_text())
        assert outs[0] == outs[1]


class TestExportLogits:
    def test_round_trip_and_reuse(self, seq_dir, tmp_path, zero_ckpt):
        out = tmp_path / "logits"
        code = main(
            [
                "export-logits",
                "--ckpt",
                str(zero_ckpt),
                "--seq",
                str(seq_dir),
                "--out",
                str(out),
                *tiny_cli_args(),
            ]
        )
        assert code == 0
        files = sorted(out.glob("*.logits"))
        assert len(files) == 4
        from mosdistill.teacher import read_logits

        grid = read_logits(files[0])
        assert grid.scores.shape == (16, 36, 4)
        # a distillation run can consume the exported files directly
        code = main(
            [
                "train",
                "--seq",
                str(seq_dir),
                "--out-ckpt",
                str(tmp_path / "d.ckpt"),
                "--teacher",
                str(out),
                "--epochs",
                "1",
                *tiny_cli_args(),
            ]
        )
        assert code == 0

    def test_teacher_from_other_geometry_names_frame_and_file(
        self, seq_dir, tmp_path, capsys
    ):
        teacher_ckpt = tmp_path / "teacher.ckpt"
        nnet.save_checkpoint(teacher_ckpt, nnet.build_network("teacher:in=4,base=16"))
        out = tmp_path / "logits40"
        args = ["--ckpt", str(teacher_ckpt), "--seq", str(seq_dir), "--out", str(out)]
        other_geometry = tiny_cli_args(["--set", "bev.n_angular=40"])
        assert main(["export-logits", *args, *other_geometry]) == 0
        capsys.readouterr()
        code = main(
            [
                "train",
                "--seq",
                str(seq_dir),
                "--out-ckpt",
                str(tmp_path / "d.ckpt"),
                "--teacher",
                str(out),
                "--epochs",
                "1",
                *tiny_cli_args(),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "frame 3" in err
        assert str(out / "000003.logits") in err

    def test_threads_byte_identical_and_equal_to_in_memory(
        self, seq_dir, tmp_path, tiny_config
    ):
        teacher_ckpt = tmp_path / "teacher.ckpt"
        nnet.save_checkpoint(teacher_ckpt, nnet.build_network("teacher:in=4,base=16", seed=3))
        trees = []
        for threads in (1, 2, 3, 4):
            out = tmp_path / f"logits{threads}"
            code = main(
                [
                    "export-logits", "--ckpt", str(teacher_ckpt), "--seq", str(seq_dir),
                    "--out", str(out), "--threads", str(threads), *tiny_cli_args(),
                ]
            )
            assert code == 0
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1] == trees[2] == trees[3]
        net = nnet.load_checkpoint(teacher_ckpt)
        samples = pipeline.build_samples(*pipeline.load_sequence(seq_dir), tiny_config)
        assert sorted(trees[0]) == [teacher.logits_filename(s.frame_id) for s in samples]
        for sample in samples:
            grid = pipeline.predict_logits(net, sample)
            name = teacher.logits_filename(sample.frame_id)
            exported = teacher.read_logits(tmp_path / "logits2" / name)
            np.testing.assert_array_equal(exported.scores, grid.scores.astype(np.float32))
            np.testing.assert_array_equal(exported.valid, grid.valid)

    def test_window_longer_than_sequence_exits_one(self, seq_dir, tmp_path, zero_ckpt, capsys):
        out = tmp_path / "logits"
        args = tiny_cli_args(["--set", "bev.window=8"])  # the tiny scene has 7 frames
        code = main(
            ["export-logits", "--ckpt", str(zero_ckpt), "--seq", str(seq_dir),
             "--out", str(out), "--threads", "2", *args]
        )
        assert code == 1
        assert "7 frames, too short for a window of 8" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_teacher_exits_three_naming_frame(self, seq_dir, tmp_path, capsys):
        net = nnet.build_network("teacher:in=4,base=16", seed=3)
        net.parameters()["head.b"][1] = np.nan
        nan_ckpt = tmp_path / "nan.ckpt"
        nnet.save_checkpoint(nan_ckpt, net)
        code = main(
            [
                "export-logits", "--ckpt", str(nan_ckpt), "--seq", str(seq_dir),
                "--out", str(tmp_path / "logits"), "--threads", "2", *tiny_cli_args(),
            ]
        )
        assert code == 3
        # every frame fails; the first in frame order is the one reported
        assert "non-finite logits at frame 3" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [1, 2])
    def test_nan_activations_exit_three_naming_frame(self, seq_dir, tmp_path, capsys, threads):
        # a NaN bias reaches the upsamplers' sampling positions before the logits
        net = nnet.build_network("teacher:in=4,base=16", seed=3)
        net.parameters()["enc0.b"][0] = np.nan
        nan_ckpt = tmp_path / "nan.ckpt"
        nnet.save_checkpoint(nan_ckpt, net)
        code = main(
            [
                "export-logits", "--ckpt", str(nan_ckpt), "--seq", str(seq_dir),
                "--out", str(tmp_path / "logits"), "--threads", str(threads),
                *tiny_cli_args(),
            ]
        )
        assert code == 3
        assert "non-finite activations at frame 3" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_one(self, seq_dir, tmp_path, zero_ckpt, capsys, threads):
        code = main(
            [
                "export-logits", "--ckpt", str(zero_ckpt), "--seq", str(seq_dir),
                "--out", str(tmp_path / "logits"), "--threads", threads, *tiny_cli_args(),
            ]
        )
        assert code == 1
        assert "argument --threads" in capsys.readouterr().err
        assert not (tmp_path / "logits").exists()

    def test_missing_checkpoint_exit_one(self, seq_dir, tmp_path):
        code = main(
            [
                "export-logits",
                "--ckpt",
                str(tmp_path / "missing.ckpt"),
                "--seq",
                str(seq_dir),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1


@pytest.fixture
def unlabeled(seq_dir, tmp_path):
    """A copy of seq_dir without labels/, the layout of the SemanticKITTI
    test sequences."""
    copy = tmp_path / "unlabeled" / "00"
    shutil.copytree(seq_dir, copy)
    shutil.rmtree(copy / "labels")
    return copy


class TestUnlabeledSequence:
    def test_export_matches_the_labeled_bytes(self, seq_dir, unlabeled, tmp_path):
        # the validity mask depends on occupancy alone
        teacher_ckpt = tmp_path / "teacher.ckpt"
        nnet.save_checkpoint(teacher_ckpt, nnet.build_network("teacher:in=4,base=16", seed=3))
        trees = []
        for name, seq in (("labeled", seq_dir), ("unlabeled", unlabeled)):
            out = tmp_path / f"logits-{name}"
            args = ["--ckpt", str(teacher_ckpt), "--seq", str(seq), "--out", str(out)]
            assert main(["export-logits", *args, *tiny_cli_args()]) == 0
            trees.append(tree_bytes(out))
        assert trees[0] and trees[0] == trees[1]

    def test_project_gives_unlabeled_cells(self, seq_dir, unlabeled, tmp_path):
        outs = []
        for name, seq in (("labeled", seq_dir), ("unlabeled", unlabeled)):
            out = tmp_path / f"proj-{name}"
            assert main(["project", "--seq", str(seq), "--out", str(out), *tiny_cli_args()]) == 0
            outs.append(out)
        for sub in ("motion", "cell_valid"):
            assert tree_bytes(outs[0] / sub) == tree_bytes(outs[1] / sub)
        for path in (outs[1] / "cell_labels").glob("*.npy"):
            assert not np.load(path).any()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_train_and_eval_exit_one_naming_the_directory(
        self, unlabeled, tmp_path, zero_ckpt, capsys, command
    ):
        if command == "train":
            extra = ["--out-ckpt", str(tmp_path / "s.ckpt"), "--epochs", "1"]
        else:
            extra = ["--ckpt", str(zero_ckpt)]
        code = main([command, "--seq", str(unlabeled), *extra, *tiny_cli_args()])
        assert code == 1
        assert f"{command} needs per-point labels: no directory {unlabeled / 'labels'}" in (
            capsys.readouterr().err
        )


class TestVerifyCmd:
    def test_fast_suites_pass(self, capsys):
        assert main(["verify", "identity"]) == 0
        assert main(["verify", "dysample"]) == 0
        out = capsys.readouterr().out
        assert "status=PASS" in out
        assert "max_err=" in out

    def test_unknown_suite_exit_one(self):
        assert main(["verify", "bogus"]) == 1


class TestBench:
    def test_reports_positive_fps(self, seq_dir, tmp_path, capsys):
        out = tmp_path / "bench.txt"
        code = main(
            [
                "bench",
                "--seq",
                str(seq_dir),
                "--frames",
                "3",
                "--out",
                str(out),
                *tiny_cli_args(),
            ]
        )
        assert code == 0
        report = read_metrics(out)
        assert float(report["projection_fps"]) > 0
        assert float(report["inference_fps"]) > 0
        assert float(report["projection_ms_p99"]) >= float(
            report["projection_ms_median"]
        )


    def test_zero_frames_exit_one(self, seq_dir, capsys):
        code = main(["bench", "--seq", str(seq_dir), "--frames", "0", *tiny_cli_args()])
        assert code == 1
        assert "argument --frames" in capsys.readouterr().err


class TestShortSequence:
    """A sequence shorter than the window fails the same way in every
    command, before anything is written."""

    ARGS = ["--set", "bev.window=8"]  # the tiny scene has 7 frames

    def test_bench_exit_one(self, seq_dir, capsys):
        code = main(["bench", "--seq", str(seq_dir), *tiny_cli_args(self.ARGS)])
        assert code == 1
        assert "7 frames, too short for a window of 8" in capsys.readouterr().err

    def test_project_exit_one_before_writing(self, seq_dir, tmp_path, capsys):
        out = tmp_path / "proj"
        code = main(["project", "--seq", str(seq_dir), "--out", str(out),
                     "--render", *tiny_cli_args(self.ARGS)])
        assert code == 1
        assert "7 frames, too short for a window of 8" in capsys.readouterr().err
        assert not out.exists()


class TestStreaming:
    """project and eval build and consume each frame in one pool task; they
    never materialise the sample list."""

    @staticmethod
    def refuse_sample_list(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_samples called")

        monkeypatch.setattr(pipeline, "build_samples", refuse)

    def test_project(self, seq_dir, tmp_path, monkeypatch):
        self.refuse_sample_list(monkeypatch)
        trees = []
        for threads in (1, 3):
            out = tmp_path / f"p{threads}"
            args = ["project", "--seq", str(seq_dir), "--out", str(out), "--render"]
            assert main([*args, "--threads", str(threads), *tiny_cli_args()]) == 0
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]
        assert len([name for name in trees[0] if name.startswith("motion/")]) == 7 - (4 - 1)

    def test_eval(self, seq_dir, tmp_path, zero_ckpt, tiny_config, monkeypatch):
        # the summed per-frame counts give the report of the sample list
        net = nnet.load_checkpoint(zero_ckpt)
        samples = pipeline.build_samples(*pipeline.load_sequence(seq_dir), tiny_config)
        write_metrics(pipeline.evaluate(net, samples), tmp_path / "expected.txt")
        self.refuse_sample_list(monkeypatch)
        for threads in (1, 3):
            out = tmp_path / f"m{threads}.txt"
            args = ["eval", "--seq", str(seq_dir), "--ckpt", str(zero_ckpt)]
            args += ["--metrics-out", str(out), "--threads", str(threads)]
            assert main([*args, *tiny_cli_args()]) == 0
            assert out.read_bytes() == (tmp_path / "expected.txt").read_bytes()


class TestBlasPin:
    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def imported_values(self, **env_extra):
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env.update(env_extra)
        code = f"import os, mosdistill; print([os.environ.get(v) for v in {self.VARS!r}])"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        return ast.literal_eval(out.stdout.strip())

    def test_import_pins_one_thread(self):
        assert self.imported_values() == ["1", "1", "1"]

    def test_a_value_the_user_set_wins(self):
        assert self.imported_values(OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]


class TestDeterminism:
    def test_project_byte_identical_and_thread_invariant(self, seq_dir, tmp_path):
        outs = []
        for name, threads in (("p1", 1), ("p2", 1), ("p4", 4)):
            out = tmp_path / name
            main(
                [
                    "project",
                    "--seq",
                    str(seq_dir),
                    "--out",
                    str(out),
                    "--threads",
                    str(threads),
                    *tiny_cli_args(),
                ]
            )
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]
        assert outs[0] == outs[2]


class TestExitCodes:
    # the documented contract: 1 config or usage, 2 data parse, 3 numeric
    EXPECTED = {
        "MosDistillError": 1,
        "ConfigError": 1,
        "IoFailure": 1,
        "EmptyFrame": 1,
        "IndexOutOfRange": 1,
        "DataError": 2,
        "MalformedScan": 2,
        "MalformedLabel": 2,
        "LabelCountMismatch": 2,
        "MalformedPoseLine": 2,
        "MalformedCalib": 2,
        "FormatError": 2,
        "ShapeMismatch": 2,
        "LengthMismatch": 2,
        "NonFiniteLoss": 3,
    }

    def test_every_error_class_maps_to_its_exit_code(self, monkeypatch, capsys):
        classes = {
            name: obj
            for name, obj in inspect.getmembers(errors, inspect.isclass)
            if issubclass(obj, errors.MosDistillError)
            and obj.__module__ == errors.__name__
        }
        # a class added to errors.py must be given its exit code here
        assert set(classes) == set(self.EXPECTED)
        for name, cls in classes.items():

            def stub(_args, cls=cls):
                raise cls(f"stub {cls.__name__}")

            monkeypatch.setitem(cli._COMMANDS, "dump-config", stub)
            assert main(["dump-config"]) == self.EXPECTED[name], name
            assert f"error: stub {name}" in capsys.readouterr().err
