"""The benchmark's workloads, each built from ``--seed`` alone.

Every workload is a closed loop with one caller: an op starts when the
previous one has returned.  An op is timed at the benchmark's own boundary
around public mosdistill calls, and its outputs are checked after the clock
stops.  Every op must reproduce its warm-up op bit for bit (the determinism
contract), so a check that fails marks the op failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mosdistill import cli, experiments, nnet, pipeline, synthbench, teacher
from mosdistill.config import RunConfig
from mosdistill.kitti_io import NUM_CLASSES
from tracing import NullTracer

POINTS_PER_FRAME = 130_000  # the frame size of acceptance criterion 9
TINY_POINTS = 3_000  # --tiny, for the smoke check
DISC_POINTS = 5 * 50  # two moving and three parked discs of 50 points each


@dataclass
class OpResult:
    latency_ms: list[float]  # one sample per frame, optimizer step or export call
    units: int  # frames or optimizer steps done; per-layer metrics are per unit
    items: int  # frames or training samples done; throughput counts these
    seconds: float  # time inside the timed boundary
    ok: bool


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _scene_config(seed: int, n_frames: int, points: int) -> RunConfig:
    cfg = RunConfig.defaults()
    cfg.set("scene.seed", str(seed))
    cfg.set("scene.n_frames", str(n_frames))
    cfg.set("scene.n_static", str(points - DISC_POINTS))
    return cfg


class Stream:
    """The online user: each new frame's 8-frame window is projected onto the
    default 32x360 grid and segmented by the student at batch 1."""

    name = "stream-130k"
    named = {"latency": "frame_ms", "throughput": "frames_per_s"}
    frames = 15  # 8 full windows, cycled in frame order

    def __init__(self, seed: int, tiny: bool, workdir: Path, first_run: Path) -> None:
        self.seed = seed
        self.cfg = _scene_config(seed, self.frames, TINY_POINTS if tiny else POINTS_PER_FRAME)
        self.grid = self.cfg.bev_grid()
        self.window, self.split = self.cfg.window()
        self.moving_iou = None

    def setup(self) -> None:
        self.clouds, self.classes, self.poses = synthbench.gen_sequence(self.cfg.scene())
        self.net = nnet.build_network(pipeline.student_descriptor(self.cfg), seed=self.seed)
        self.order = pipeline.usable_frames(len(self.clouds), self.window)
        self.next = 0

    def _frame(self, index: int):
        sample = pipeline.build_sample(
            self.clouds, self.classes, self.poses, index, self.grid, self.window, self.split
        )
        return sample, pipeline.predict_logits(self.net, sample)

    def _check(self, sample, logits) -> tuple[bool, str]:
        sound = logits.shape == (*self.grid.shape, NUM_CLASSES) and bool(
            np.isfinite(logits.scores).all()
        )
        digest = _digest(
            logits.scores,
            logits.valid,
            sample.labels.labels,
            sample.labels.valid,
            sample.motion.channels,
        )
        return sound, digest

    def warm_up(self) -> None:
        self.expected = {}
        for index in self.order:
            sound, self.expected[index] = self._check(*self._frame(index))
            if not sound:
                raise RuntimeError(f"warm-up frame {index}: bad logits")

    def run_op(self, tracer) -> OpResult:
        index = self.order[self.next % len(self.order)]
        self.next += 1
        with tracer.span("op") as op:
            sample, logits = self._frame(index)
        sound, digest = self._check(sample, logits)
        ok = sound and digest == self.expected[index]
        return OpResult([1e3 * op.seconds], 1, 1, op.seconds, ok)


@contextlib.contextmanager
def _step_clock(marks: list[float]):
    """Append the time at which each optimizer step returns: one clock read
    per step, the only hook the untraced run installs."""
    step = nnet.SgdState.step

    def timed(state, params, grads):
        step(state, params, grads)
        marks.append(time.perf_counter())

    nnet.SgdState.step = timed
    try:
        yield
    finally:
        nnet.SgdState.step = step


class TrainWdcd:
    """The offline user's training: the WDCD arm of the distillation
    benchmark for one seed, trained for a fixed number of epochs and scored
    on the held-out sequence."""

    name = "train-wdcd"
    named = {"latency": "step_ms", "throughput": "train_samples_per_s"}
    epochs = 8

    def __init__(self, seed: int, tiny: bool, workdir: Path, first_run: Path) -> None:
        self.seed = seed
        self.cfg = experiments.benchmark_config(seed)
        if tiny:
            self.cfg.set("scene.n_frames", "11")  # 4 windows: one optimizer step
            self.epochs = 1
        self.first_run = first_run
        self.moving_iou = None

    def setup(self) -> None:
        cfg = self.cfg
        self.train = pipeline.build_samples(*synthbench.gen_sequence(cfg.scene()), cfg)
        pipeline.attach_synth_teacher(
            self.train,
            experiments.TEACHER_KAPPA,
            experiments.TEACHER_SIGMA,
            seed=cfg.get_int("train.seed"),
        )
        self.heldout = experiments._build_eval_samples(cfg, self.seed)

    def _train(self, marks: list[float]):
        net = nnet.build_network(
            pipeline.student_descriptor(self.cfg), seed=self.cfg.get_int("train.seed")
        )
        with _step_clock(marks):
            marks.append(time.perf_counter())
            pipeline.train_student(net, self.train, [], self.cfg, self.epochs)
        return net, pipeline.evaluate(net, self.heldout)

    @staticmethod
    def _outcome(net, report) -> tuple[str, float]:
        params = net.parameters()
        digest = _digest(*(params[k] for k in sorted(params)))
        digest = hashlib.sha256((digest + repr(sorted(report.items()))).encode()).hexdigest()
        return digest, float(report["point_iou_moving"])

    def warm_up(self) -> None:
        self.expected, self.moving_iou = self._outcome(*self._train([]))
        # moving_iou must equal the one the first run of these sources recorded
        if self.first_run.exists():
            self.first_iou = json.loads(self.first_run.read_text())["moving_iou"]
        else:
            self.first_run.parent.mkdir(parents=True, exist_ok=True)
            self.first_run.write_text(json.dumps({"moving_iou": self.moving_iou}))
            self.first_iou = self.moving_iou

    def run_op(self, tracer) -> OpResult:
        marks: list[float] = []
        with tracer.span("op") as op:
            net, report = self._train(marks)
        digest, moving_iou = self._outcome(net, report)
        steps = [1e3 * (b - a) for a, b in zip(marks, marks[1:])]
        ok = digest == self.expected and moving_iou == self.first_iou
        return OpResult(steps, len(steps), self.epochs * len(self.train), op.seconds, ok)


class Export:
    """The offline teacher path: ``mosdistill export-logits`` in-process with
    a 2x wider teacher over a KITTI-layout sequence on disk, two threads."""

    name = "export-130k"
    named = {"latency": "frame_ms", "throughput": "frames_per_s"}
    frames = 11  # 4 full windows, two per pool thread

    def __init__(self, seed: int, tiny: bool, workdir: Path, first_run: Path) -> None:
        self.seed = seed
        self.cfg = _scene_config(
            seed, 9 if tiny else self.frames, TINY_POINTS if tiny else POINTS_PER_FRAME
        )
        self.seq = workdir / "sequences" / "00"
        self.ckpt = workdir / "teacher.ckpt"
        self.out = workdir / "logits"
        self.argv = ["export-logits", "--ckpt", str(self.ckpt), "--seq", str(self.seq)]
        self.argv += ["--out", str(self.out), "--threads", "2"]
        self.moving_iou = None

    def setup(self) -> None:
        synthbench.export_kitti_sequence(self.cfg.scene(), self.seq)
        net = nnet.build_network(pipeline.teacher_descriptor(self.cfg), seed=self.seed)
        nnet.save_checkpoint(self.ckpt, net)

    def _export(self, tracer):
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()), tracer.span("op") as op:
            code = cli.main(self.argv)
        names = sorted(p.name for p in self.out.iterdir()) if self.out.is_dir() else []
        ok = code == 0 and names == sorted(self.expected)
        h = hashlib.sha256()
        for name in names:
            h.update((self.out / name).read_bytes())
            grid = teacher.read_logits(self.out / name)
            scores, valid = self.expected.get(name, (None, None))
            ok = ok and np.array_equal(grid.scores, scores) and np.array_equal(grid.valid, valid)
        return op, ok, h.hexdigest()

    def warm_up(self) -> None:
        # the in-memory prediction every exported file must read back as
        net = nnet.load_checkpoint(self.ckpt)
        samples = pipeline.build_samples(*pipeline.load_sequence(self.seq), self.cfg)
        self.expected = {}
        for sample in samples:
            grid = pipeline.predict_logits(net, sample)
            self.expected[teacher.logits_filename(sample.frame_id)] = (
                grid.scores.astype(np.float32).astype(np.float64),
                grid.valid,
            )
        _, ok, self.reference = self._export(NullTracer())
        if not ok:
            raise RuntimeError("warm-up export does not match the in-memory prediction")

    def run_op(self, tracer) -> OpResult:
        op, ok, digest = self._export(tracer)
        frames = len(self.expected)
        ok = ok and digest == self.reference
        return OpResult([1e3 * op.seconds / frames], frames, frames, op.seconds, ok)


WORKLOADS = {w.name: w for w in (Stream, TrainWdcd, Export)}
