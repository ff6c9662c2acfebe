import ast
import inspect
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_cli_args
from mosdistill import cli, errors, nnet, pipeline, teacher
from mosdistill.cli import main
from mosdistill.config import RunConfig
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


@pytest.fixture
def window8_ckpt(tmp_path):
    """Checkpoint of an untrained student for the tiny config at bev.window=8."""
    path = tmp_path / "w8.ckpt"
    nnet.save_checkpoint(path, nnet.build_network("student:in=8,base=8"))
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
            ("distill.prob_floor", "1e-12"),
            ("bev.appearance_channels", "false"),
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

    def test_missing_scan_exit_two(self, seq_dir, tmp_path, capsys):
        # poses.txt pairs with scans by position: without scan 4, scan 5
        # would take its pose and every later scan its predecessor's
        (seq_dir / "velodyne" / "000004.bin").unlink()
        (seq_dir / "labels" / "000004.label").unlink()
        out = tmp_path / "proj"
        assert main(["project", "--seq", str(seq_dir), "--out", str(out), *tiny_cli_args()]) == 2
        scan = seq_dir / "velodyne" / "000005.bin"
        assert capsys.readouterr().err == (
            f"error: {scan}: at position 4, a gap would shift every later pose\n"
        )
        assert not out.exists()

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

    def test_exploding_lr_exits_three(self, seq_dir, tmp_path, capsys):
        code, _, _ = self.train(
            seq_dir, tmp_path, "boom", ["--teacher", "none", "--set", "opt.lr=1e18"]
        )
        assert code == 3
        # float32 overflows sooner than float64, so the frame that fails
        # first depends on the build; one line names it
        (line,) = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r"error: non-finite \w+ at frame \d+: .*", line), line

    @staticmethod
    def empty_scans(seq_dir, *frame_ids):
        # a 0-byte scan with its 0-byte label file is a valid, empty frame
        for i in frame_ids:
            (seq_dir / "velodyne" / f"{i:06d}.bin").write_bytes(b"")
            (seq_dir / "labels" / f"{i:06d}.label").write_bytes(b"")

    def test_empty_frame_skipped_and_named(self, seq_dir, tmp_path, capsys):
        # frames 3..6 have a window; frame 4's has no valid cell
        self.empty_scans(seq_dir, 4)
        code, ckpt, log = self.train(seq_dir, tmp_path, "empty", ["--teacher", "synth"])
        out = capsys.readouterr().out
        assert code == 0 and ckpt.is_file()
        assert out.splitlines()[0] == "skipped 1 window(s) with no valid cell: frames 4"
        assert sum(line.startswith("skipped") for line in out.splitlines()) == 1
        assert len(log.read_text().splitlines()) == 2

    def test_only_empty_windows_exit_one(self, seq_dir, tmp_path, capsys):
        self.empty_scans(seq_dir, 3, 4, 5, 6)
        code, ckpt, _ = self.train(seq_dir, tmp_path, "none", ["--teacher", "synth"])
        assert code == 1 and not ckpt.exists()
        assert capsys.readouterr().err == "error: no window has a valid cell (frames 3, 4, 5, 6)\n"

    def test_empty_windows_move_the_split_onto_unread_teacher_files(
        self, seq_dir, tmp_path, zero_ckpt
    ):
        logits = tmp_path / "logits"
        args = ["--ckpt", str(zero_ckpt), "--seq", str(seq_dir), "--out", str(logits)]
        assert main(["export-logits", *args, *tiny_cli_args()]) == 0
        # without frames 3 and 4, held-out frame 6 trains, so its file is read
        self.empty_scans(seq_dir, 3, 4)
        assert self.train(seq_dir, tmp_path, "moved", ["--teacher", str(logits)])[0] == 0
        (logits / "000006.logits").unlink()
        code, ckpt, _ = self.train(seq_dir, tmp_path, "gone", ["--teacher", str(logits)])
        assert code == 1 and not ckpt.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--epochs", "0"], "argument --epochs"),
            (["--epochs", "-3"], "argument --epochs"),
            (["--set", "train.epochs=0"], "train.epochs must be >= 1, got 0"),
        ],
        ids=["flag-0", "flag-neg3", "config-0"],
    )
    def test_epochs_below_one_exit_one(self, tmp_path, capsys, args, message):
        # the sequence does not exist: each count is rejected before it is read
        ckpt = tmp_path / "e.ckpt"
        seq = tmp_path / "missing"
        code = main(["train", "--seq", str(seq), "--out-ckpt", str(ckpt), *tiny_cli_args(args)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not ckpt.exists()

    def test_one_window_keeps_its_training_sample(self, tmp_path):
        # the default 8-frame sequence has one window; a held-out fraction
        # that rounds up to it still leaves that window for training
        out = tmp_path / "data"
        assert main(["synth-gen", "--out", str(out)]) == 0
        ckpt, log = tmp_path / "one.ckpt", tmp_path / "one.log"
        code = main(
            ["train", "--seq", str(out / "sequences" / "00"), "--out-ckpt", str(ckpt),
             "--epochs", "1", "--log", str(log), "--set", "train.val_fraction=0.6"]
        )
        assert code == 0 and ckpt.is_file()
        assert log.read_text().endswith("heldout_moving_iou=nan\n")

    def test_teacher_dir_checked_before_any_sample(
        self, seq_dir, tmp_path, zero_ckpt, capsys, monkeypatch
    ):
        logits = tmp_path / "logits"
        args = ["--ckpt", str(zero_ckpt), "--seq", str(seq_dir), "--out", str(logits)]
        assert main(["export-logits", *args, *tiny_cli_args()]) == 0
        # frames 3..6 have a window; 6 is held out, so its file is not needed
        (logits / "000006.logits").unlink()
        assert self.train(seq_dir, tmp_path, "held", ["--teacher", str(logits)])[0] == 0
        (logits / "000004.logits").unlink()
        capsys.readouterr()
        built = []
        build_sample = pipeline.build_sample
        monkeypatch.setattr(
            pipeline, "build_sample", lambda *a: built.append(a) or build_sample(*a)
        )
        code, ckpt, _ = self.train(seq_dir, tmp_path, "gap", ["--teacher", str(logits)])
        assert code == 1 and built == [] and not ckpt.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot read logits {logits / '000004.logits'}: no such file"
        ]

    def test_teacher_validity_mask_differs_exits_two(self, seq_dir, tmp_path, zero_ckpt, capsys):
        logits = tmp_path / "logits"
        args = ["--ckpt", str(zero_ckpt), "--seq", str(seq_dir), "--out", str(logits)]
        assert main(["export-logits", *args, *tiny_cli_args()]) == 0
        # half of training frame 3's points: fewer valid cells on the same grid
        scan, labels = seq_dir / "velodyne" / "000003.bin", seq_dir / "labels" / "000003.label"
        n = scan.stat().st_size // 16 // 2
        scan.write_bytes(scan.read_bytes()[: 16 * n])
        labels.write_bytes(labels.read_bytes()[: 4 * n])
        capsys.readouterr()
        code, ckpt, _ = self.train(seq_dir, tmp_path, "mask", ["--teacher", str(logits)])
        assert code == 2 and not ckpt.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: {logits / '000003.logits'}: teacher validity mask differs from the label "
            "grid of frame 3"
        ]

    def test_teacher_file_shorter_than_its_header_exits_two(
        self, seq_dir, tmp_path, zero_ckpt, capsys, monkeypatch
    ):
        logits = tmp_path / "logits"
        args = ["--ckpt", str(zero_ckpt), "--seq", str(seq_dir), "--out", str(logits)]
        assert main(["export-logits", *args, *tiny_cli_args()]) == 0
        short = logits / "000004.logits"
        short.write_bytes(short.read_bytes()[:15])
        capsys.readouterr()
        built = []
        build_sample = pipeline.build_sample
        monkeypatch.setattr(
            pipeline, "build_sample", lambda *a: built.append(a) or build_sample(*a)
        )
        code, ckpt, _ = self.train(seq_dir, tmp_path, "short", ["--teacher", str(logits)])
        assert code == 2 and built == [] and not ckpt.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: {short}: file shorter than the header"
        ]

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


def command_argv(command, tmp_path, ckpt):
    """``command`` with its outputs under ``tmp_path / "out"`` and, where it
    reads one, a sequence that does not exist: a run that gets past its
    up-front checks fails reading the sequence."""
    out = tmp_path / "out"
    seq = ["--seq", str(tmp_path / "missing")]
    return [command, *{
        "synth-gen": ["--out", str(out)],
        "project": [*seq, "--out", str(out)],
        "train": [*seq, "--out-ckpt", str(out), "--teacher", "synth", "--epochs", "1"],
        "eval": [*seq, "--ckpt", str(ckpt), "--metrics-out", str(out)],
        "export-logits": [*seq, "--ckpt", str(ckpt), "--out", str(out)],
        "bench": [*seq, "--frames", "1", "--out", str(out)],
    }[command]]


GRID_MESSAGE = ("bev.n_radial and bev.n_angular must be multiples of 4 (the networks "
                "downsample twice by 2), got a 30x36 grid")


class TestBadConfigValue:
    """Every config range, every cross-key rule and the grid rule are checked
    before any scan is read: each run below names a sequence that does not
    exist, exits 1 with one ``error:`` line naming the key at fault, and
    writes nothing."""

    @pytest.mark.parametrize(
        "command, item, message",
        [
            ("train", "distill.weight_floor=abc",
             "distill.weight_floor must be auto or a number, got abc"),
            ("train", "opt.lr=0", "opt.lr must be > 0, got 0"),
            ("train", "teacher.kappa=0", "teacher.kappa must be > 0, got 0"),
            ("train", "teacher.sigma=-1", "teacher.sigma must be >= 0, got -1"),
            ("train", "train.seed=-5", "train.seed must be >= 0, got -5"),
            ("synth-gen", "scene.seed=-1", "scene.seed must be >= 0, got -1"),
            ("train", "net.base_width=0", "net.base_width must be >= 1, got 0"),
            ("train", "train.batch_size=0", "train.batch_size must be >= 1, got 0"),
            ("train", "train.lovasz_classes=9",
             "train.lovasz_classes must be class ids in 0..3, got 9"),
            ("train", "train.val_fraction=1", "train.val_fraction must be in [0, 1), got 1"),
            ("train", "train.class_weights=1,1", "train.class_weights must be 4 numbers, got 1,1"),
            ("train", "bev.r_max=inf", "bev.r_max must be a number, got inf"),
            ("train", "bev.z_min=-inf", "bev.z_min must be a number, got -inf"),
            # counts >= 1
            ("train", "bev.n_radial=0", "bev.n_radial must be >= 1, got 0"),
            ("train", "bev.n_angular=0", "bev.n_angular must be >= 1, got 0"),
            ("train", "bev.split=0", "bev.split must be >= 1, got 0"),
            ("synth-gen", "scene.points_per_disc=0", "scene.points_per_disc must be >= 1, got 0"),
            # integers >= 0
            ("synth-gen", "scene.n_frames=-1", "scene.n_frames must be >= 0, got -1"),
            ("synth-gen", "scene.n_moving=-1", "scene.n_moving must be >= 0, got -1"),
            ("synth-gen", "scene.n_static_movable=-2",
             "scene.n_static_movable must be >= 0, got -2"),
            ("synth-gen", "scene.n_static=-1", "scene.n_static must be >= 0, got -1"),
            # numbers > 0
            ("train", "bev.r_max=0", "bev.r_max must be > 0, got 0"),
            ("train", "distill.temperature=0", "distill.temperature must be > 0, got 0"),
            ("eval", "distill.temperature=0", "distill.temperature must be > 0, got 0"),
            ("synth-gen", "scene.radius_min=0", "scene.radius_min must be > 0, got 0"),
            # numbers >= 0
            ("train", "distill.beta=-1", "distill.beta must be >= 0, got -1"),
            ("train", "distill.gamma=-0.5", "distill.gamma must be >= 0, got -0.5"),
            ("synth-gen", "scene.speed_min=-0.5", "scene.speed_min must be >= 0, got -0.5"),
            ("train", "opt.weight_decay=-0.1", "opt.weight_decay must be >= 0, got -0.1"),
            # bounded ranges
            ("train", "opt.lr_decay=-1", "opt.lr_decay must be in (0, 1], got -1"),
            ("train", "opt.momentum=1", "opt.momentum must be in [0, 1), got 1"),
            # the keys with named values
            ("train", "distill.weight_floor=0", "distill.weight_floor must be auto or > 0, got 0"),
            ("export-logits", "distill.tckd_scope=bogus",
             "distill.tckd_scope must be moving or all, got bogus"),
            # cross-key rules
            ("train", "bev.z_min=2",
             "bev.z_min must be < bev.z_max, got bev.z_min=2, bev.z_max=2.0"),
            ("train", "bev.split=4",
             "bev.split must be < bev.window, got bev.split=4, bev.window=4"),
            ("project", "bev.split=5",
             "bev.split must be < bev.window, got bev.split=5, bev.window=4"),
            ("synth-gen", "scene.radius_min=4", "scene.radius_min must be <= scene.radius_max, "
             "got scene.radius_min=4, scene.radius_max=3.0"),
            ("synth-gen", "scene.speed_min=2", "scene.speed_min must be <= scene.speed_max, "
             "got scene.speed_min=2, scene.speed_max=1.5"),
            ("synth-gen", "scene.arena_radius=3", "scene.arena_radius must be > "
             "scene.radius_max, got scene.arena_radius=3, scene.radius_max=3.0"),
            # the grid rule, in every command that runs a network
            ("train", "bev.n_radial=30", GRID_MESSAGE),
            ("eval", "bev.n_radial=30", GRID_MESSAGE),
            ("export-logits", "bev.n_radial=30", GRID_MESSAGE),
            ("bench", "bev.n_radial=30", GRID_MESSAGE),
        ],
        ids=["weight_floor", "lr", "kappa", "sigma", "train_seed", "scene_seed", "base_width",
             "batch_size", "lovasz_classes", "val_fraction", "class_weights", "r_max_inf",
             "z_min_inf", "n_radial", "n_angular", "split", "points_per_disc", "n_frames",
             "n_moving", "n_static_movable", "n_static", "r_max", "temperature",
             "eval-temperature", "radius_min", "beta", "gamma", "speed_min", "weight_decay",
             "lr_decay", "momentum", "weight_floor_0",
             "tckd_scope", "z_min_z_max", "split_window", "project-split_window",
             "radius_min_max", "speed_min_max", "arena_radius", "grid-train", "grid-eval",
             "grid-export-logits", "grid-bench"],
    )
    def test_exits_one_naming_the_key(self, tmp_path, zero_ckpt, capsys, command, item, message):
        before = tree_bytes(tmp_path)
        argv = command_argv(command, tmp_path, zero_ckpt)
        assert main([*argv, *tiny_cli_args(["--set", item])]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert tree_bytes(tmp_path) == before

    def test_set_without_equals_exits_one(self, tmp_path, capsys):
        argv = command_argv("synth-gen", tmp_path, None)
        assert main([*argv, "--set", "scene.n_frames"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --set expects KEY=VALUE, got 'scene.n_frames'"
        ]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("teacher", ["synht", "no-such-dir/"])
    def test_bad_teacher_exits_one(self, tmp_path, capsys, teacher):
        argv = command_argv("train", tmp_path, None)
        argv[argv.index("synth")] = teacher
        assert main([*argv, *tiny_cli_args()]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --teacher must be none, synth or a directory, got {teacher}"
        ]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["eval", "export-logits"])
    def test_checkpoint_of_another_window_exits_two(
        self, tmp_path, window8_ckpt, capsys, command
    ):
        assert main([*command_argv(command, tmp_path, window8_ckpt), *tiny_cli_args()]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {window8_ckpt}: the network takes 8 input channels, but bev.window=4 gives 4"
        ]
        assert not (tmp_path / "out").exists()


class TestGridNotMultipleOfFour:
    """Both networks downsample twice by 2, so a grid side that is not a
    multiple of 4 exits 1 in every command that runs a network, with one
    ``error:`` line and nothing written; ``project`` runs no network."""

    GRID = ["--set", "bev.n_radial=30", "--set", "bev.n_angular=360"]
    MESSAGE = ("error: bev.n_radial and bev.n_angular must be multiples of 4 "
               "(the networks downsample twice by 2), got a 30x360 grid")

    @pytest.mark.parametrize("command", ["train", "eval", "export-logits", "bench"])
    def test_exits_one(self, seq_dir, tmp_path, zero_ckpt, capsys, command):
        out = tmp_path / "out"
        argv = {
            "train": ["--out-ckpt", str(out), "--teacher", "synth", "--epochs", "1"],
            "eval": ["--ckpt", str(zero_ckpt), "--metrics-out", str(out)],
            "export-logits": ["--ckpt", str(zero_ckpt), "--out", str(out)],
            "bench": ["--frames", "1", "--out", str(out)],
        }[command]
        code = main([command, "--seq", str(seq_dir), *argv, *tiny_cli_args(self.GRID)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [self.MESSAGE]
        assert not out.exists()

    def test_project_accepts_any_grid(self, seq_dir, tmp_path):
        out = tmp_path / "proj"
        argv = ["project", "--seq", str(seq_dir), "--out", str(out)]
        assert main([*argv, *tiny_cli_args(self.GRID)]) == 0
        assert np.load(out / "cell_valid" / "000003.npy").shape == (30, 360)


class TestEvalCmd:
    def test_fewer_poses_than_scans_exit_two(self, seq_dir, tmp_path, zero_ckpt, capsys):
        poses = seq_dir / "poses.txt"
        poses.write_text("".join(poses.read_text().splitlines(keepends=True)[:5]))
        out = tmp_path / "metrics.txt"
        code = main(["eval", "--seq", str(seq_dir), "--ckpt", str(zero_ckpt),
                     "--metrics-out", str(out), *tiny_cli_args()])
        assert code == 2
        assert capsys.readouterr().err == f"error: {poses}: 5 poses for 7 scans\n"
        assert not out.exists()

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

    def test_window_longer_than_sequence_exits_one(self, seq_dir, tmp_path, window8_ckpt):
        out = tmp_path / "metrics.txt"
        args = tiny_cli_args(["--set", "bev.window=8"])  # the tiny scene has 7 frames
        code = main(
            ["eval", "--seq", str(seq_dir), "--ckpt", str(window8_ckpt),
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


class TestNonRigidTransform:
    """A pose or an extrinsic whose rotation block is not orthonormal is
    malformed data: one ``error:`` line naming the file, exit 2."""

    @pytest.mark.parametrize("command", ["project", "train", "eval", "export-logits"])
    @pytest.mark.parametrize("name", ["poses.txt", "calib.txt"])
    def test_exits_two_naming_the_file(self, seq_dir, tmp_path, zero_ckpt, capsys, command, name):
        path = seq_dir / name
        lines = path.read_text().splitlines()
        if name == "poses.txt":
            lines[0] = "2 0 0 0 0 1 0 0 0 0 1 0"
            where = f"{path}:1"
        else:
            lines = ["Tr: 2 0 0 0 0 1 0 0 0 0 1 0"]
            where = f"{path}: Tr"
        path.write_text("\n".join(lines) + "\n")
        argv = command_argv(command, tmp_path, zero_ckpt)
        argv[argv.index("--seq") + 1] = str(seq_dir)
        assert main([*argv, *tiny_cli_args()]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {where}: rotation block is not orthonormal within 1e-6"
        ]


class TestRotationNearTolerance:
    """Rigidity is checked where a pose or ``Tr`` is read, and not again on
    the poses derived from them.  Rotation diagonals of 1 + 4.9e-7 pass the
    parsers ((1 + 4.9e-7)^2 - 1 < 1e-6); the relative poses of a window and
    the conjugation by ``Tr`` compound that past 1e-6, and still run.
    ``project`` reaches both through the same ``load_sequence`` and
    ``build_sample`` calls as ``train``, ``eval`` and ``export-logits``."""

    @pytest.mark.parametrize(
        "names", [("poses.txt",), ("poses.txt", "calib.txt")], ids=["poses", "poses-and-tr"]
    )
    def test_project_exits_zero(self, seq_dir, tmp_path, names):
        for name in names:
            path = seq_dir / name
            lines = []
            for line in path.read_text().splitlines():
                head = "Tr: " if line.startswith("Tr:") else ""
                m = np.array(line.removeprefix(head).split(), dtype=float).reshape(3, 4)
                m[[0, 1, 2], [0, 1, 2]] = 1.0 + 4.9e-7
                lines.append(head + " ".join(f"{v:.17g}" for v in m.ravel()))
            path.write_text("\n".join(lines) + "\n")
        argv = command_argv("project", tmp_path, None)
        argv[argv.index("--seq") + 1] = str(seq_dir)
        assert main([*argv, *tiny_cli_args()]) == 0


class TestTranslationOverflow:
    """A translation beyond ``kitti_io.MAX_TRANSLATION_M`` is malformed
    data, rejected where it is read, before it can overflow: without the
    bound, the relative pose of two frames at +1e308 and -1e308 m, or the
    conjugation of a 1e308 m pose by a -1e308 m ``Tr``, is inf."""

    @pytest.mark.parametrize("name", ["poses.txt", "calib.txt"])
    def test_exits_two_naming_the_file(self, seq_dir, tmp_path, capsys, name):
        poses = seq_dir / "poses.txt"
        lines = poses.read_text().splitlines()
        if name == "poses.txt":
            # the last window holds both frames
            lines[-2:] = ["1 0 0 1e308 0 1 0 0 0 0 1 0", "1 0 0 -1e308 0 1 0 0 0 0 1 0"]
            where = f"{poses}:{len(lines) - 1}"
        else:
            lines[0] = "1 0 0 1e308 0 1 0 0 0 0 1 0"
            (seq_dir / name).write_text("Tr: 1 0 0 -1e308 0 1 0 0 0 0 1 0\n")
            where = f"{seq_dir / name}: Tr"
        poses.write_text("\n".join(lines) + "\n")
        argv = command_argv("project", tmp_path, None)
        argv[argv.index("--seq") + 1] = str(seq_dir)
        assert main([*argv, *tiny_cli_args()]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {where}: translation exceeds 1e+09 m"
        ]


class TestNonUtf8Bytes:
    """A byte that is not UTF-8 in a text file or a checkpoint is malformed
    input like any other: one ``error:`` line from the file's own parser,
    nothing written, no traceback."""

    def run(self, capsys, command, seq_dir, tmp_path, ckpt, *extra):
        argv = command_argv(command, tmp_path, ckpt)
        argv[argv.index("--seq") + 1] = str(seq_dir)
        code = main([*argv, *tiny_cli_args(), *extra])
        assert not (tmp_path / "out").exists()
        return code, capsys.readouterr().err.splitlines()

    def test_poses_exit_two(self, seq_dir, tmp_path, capsys):
        path = seq_dir / "poses.txt"
        path.write_bytes(b"\xff" + path.read_bytes())
        code, err = self.run(capsys, "project", seq_dir, tmp_path, None)
        assert code == 2
        assert err == [f"error: {path}:1: could not convert string to float: '\ufffd1'"]

    def test_calib_exit_two(self, seq_dir, tmp_path, capsys):
        path = seq_dir / "calib.txt"
        path.write_bytes(b"Tr: 1 0 0\xff 0\n")
        code, err = self.run(capsys, "project", seq_dir, tmp_path, None)
        assert code == 2
        assert err == [f"error: {path}: Tr: expected 12 values, got 4"]

    def test_config_exit_one(self, seq_dir, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"bev.window=\xff\n")
        code, err = self.run(capsys, "project", seq_dir, tmp_path, None, "--config", str(path))
        assert code == 1
        assert err == ["error: bev.window must be an integer, got \ufffd"]

    @pytest.mark.parametrize(
        "what, offset", [("descriptor", 10), ("parameter name", 37)], ids=["descriptor", "name"]
    )
    def test_checkpoint_exit_two(self, seq_dir, tmp_path, zero_ckpt, capsys, what, offset):
        data = bytearray(zero_ckpt.read_bytes())
        # magic, version and length take 10 bytes; after the descriptor, the
        # parameter count and the first name's length take 8
        assert data[10:29] == b"student:in=4,base=8" and data[33] == 6
        data[offset] = 0xFF
        zero_ckpt.write_bytes(bytes(data))
        code, err = self.run(capsys, "eval", seq_dir, tmp_path, zero_ckpt)
        assert code == 2
        assert err == [f"error: {zero_ckpt}: checkpoint {what} is not UTF-8"]

    def test_checkpoint_dims_past_the_file_exit_two(self, seq_dir, tmp_path, zero_ckpt, capsys):
        data = zero_ckpt.read_bytes()
        # the first parameter's rank sits after its 6-byte name, at byte 43;
        # dims whose product overflows int64 claim more data than the file holds
        (rank,) = struct.unpack("<I", data[43:47])
        data = data[:43] + struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1) + data[47 + 4 * rank :]
        zero_ckpt.write_bytes(data)
        code, err = self.run(capsys, "eval", seq_dir, tmp_path, zero_ckpt)
        assert code == 2
        assert err == [f"error: {zero_ckpt}: truncated checkpoint"]


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
        self, seq_dir, tmp_path, capsys, monkeypatch
    ):
        teacher_ckpt = tmp_path / "teacher.ckpt"
        nnet.save_checkpoint(teacher_ckpt, nnet.build_network("teacher:in=4,base=16"))
        out = tmp_path / "logits40"
        args = ["--ckpt", str(teacher_ckpt), "--seq", str(seq_dir), "--out", str(out)]
        other_geometry = tiny_cli_args(["--set", "bev.n_angular=40"])
        assert main(["export-logits", *args, *other_geometry]) == 0
        capsys.readouterr()
        built = []
        build_sample = pipeline.build_sample
        monkeypatch.setattr(
            pipeline, "build_sample", lambda *a: built.append(a) or build_sample(*a)
        )
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
        assert code == 2 and built == []
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out / '000003.logits'}: teacher grid (16, 40, 4) does not match "
            "the label grid (16, 36, 4) of frame 3"
        ]

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

    def test_window_longer_than_sequence_exits_one(
        self, seq_dir, tmp_path, window8_ckpt, capsys
    ):
        out = tmp_path / "logits"
        args = tiny_cli_args(["--set", "bev.window=8"])  # the tiny scene has 7 frames
        code = main(
            ["export-logits", "--ckpt", str(window8_ckpt), "--seq", str(seq_dir),
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


class TestOutputUnderAFile:
    """An output path under a regular file exits 1 with an ``error:`` line
    naming what could not be written, not a traceback."""

    @staticmethod
    def run(argv, capsys, what, path):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {what} {path}: ")
        assert "Not a directory" in err

    def test_project(self, seq_dir, tmp_path, capsys):
        (tmp_path / "afile").touch()
        out = tmp_path / "afile" / "p"
        argv = ["project", "--seq", str(seq_dir), "--out", str(out), *tiny_cli_args()]
        self.run(argv, capsys, "output directory", out / "motion")

    def test_export_logits(self, seq_dir, zero_ckpt, tmp_path, capsys):
        (tmp_path / "afile").touch()
        out = tmp_path / "afile" / "x"
        argv = ["export-logits", "--ckpt", str(zero_ckpt), "--seq", str(seq_dir),
                "--out", str(out), *tiny_cli_args()]
        self.run(argv, capsys, "logits directory", out)

    def test_synth_gen(self, tmp_path, capsys):
        (tmp_path / "afile").touch()
        out = tmp_path / "afile" / "y"
        argv = ["synth-gen", "--out", str(out), "--set", "scene.n_frames=2"]
        self.run(argv, capsys, "sequence directory", out / "sequences" / "00" / "velodyne")


class TestDumpConfig:
    def test_prints_the_defaults_and_reads_back(self, tmp_path, capsys):
        assert main(["dump-config"]) == 0
        out = capsys.readouterr().out
        assert out == RunConfig.defaults().dump()
        path = tmp_path / "defaults.cfg"
        path.write_text(out)
        assert RunConfig.from_file(path).values == RunConfig.defaults().values


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
