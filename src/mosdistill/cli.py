"""Operator command-line surface.

Subcommands: synth-gen, project, train, eval, export-logits, verify,
bench.  Exit codes are a stable contract: 0 success, 1 config or usage,
2 data parse failure, 3 numeric failure.  All outputs are deterministic
given config + seed (bench latencies excepted, being wall-clock
measurements).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import bev, losses, nnet, pipeline, teacher, verify
from .config import RunConfig, documented_defaults, positive_int
from .errors import (
    ConfigError, EmptyFrame, IoFailure, MosDistillError, NonFiniteLoss, ShapeMismatch, file_errors,
    make_dirs, write_file,
)
from .kitti_io import NUM_CLASSES
from .metrics import write_metrics
from .synthbench import export_kitti_sequence

EXIT_OK = 0
EXIT_NUMERIC = NonFiniteLoss.exit_code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit 1, not argparse's 2
        raise ConfigError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="run configuration file (key=value lines)")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    p.add_argument("--threads", type=positive_int, default=1, help="frame-level parallelism")


def _load_config(args) -> RunConfig:
    """The ``--config`` file with every ``--set`` applied, each value and
    the cross-key rules checked."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig.defaults()
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        cfg.set(key.strip(), value.strip())
    cfg.check()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mosdistill", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-gen", help="write a synthetic KITTI-layout sequence")
    _add_common(p)
    p.add_argument("--out", required=True, help="dataset root directory")
    p.add_argument("--sequence", default="00", help="sequence name under sequences/")

    p = sub.add_parser("project", help="project a sequence to motion tensors")
    _add_common(p)
    p.add_argument("--seq", required=True, help="sequence directory")
    p.add_argument("--out", required=True)
    p.add_argument("--render", action="store_true", help="write grayscale renders")

    p = sub.add_parser("train", help="train the student network")
    _add_common(p)
    p.add_argument("--seq", required=True)
    p.add_argument("--out-ckpt", required=True)
    p.add_argument(
        "--teacher",
        default="none",
        help="none | synth | directory of .logits files",
    )
    p.add_argument("--epochs", type=positive_int, default=None, help="override train.epochs")
    p.add_argument("--log", help="write per-epoch log lines to this file")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a sequence")
    _add_common(p)
    p.add_argument("--seq", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--metrics-out", help="write the key=value metrics report here")

    p = sub.add_parser("export-logits", help="run a net over a sequence, save logits")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run the numeric verification suites")
    p.add_argument(
        "suite", choices=[*verify.ALL_SUITES, "all"], help="which suite to run"
    )

    p = sub.add_parser("bench", help="projection and inference throughput")
    _add_common(p)
    p.add_argument("--seq", required=True)
    p.add_argument("--frames", type=positive_int, default=20, help="timed frames (cycled)")
    p.add_argument("--out", help="write the key=value report here")

    p = sub.add_parser("dump-config", help="print every config key with its default")
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def cmd_synth_gen(args) -> int:
    cfg = _load_config(args)
    seq_dir = Path(args.out) / "sequences" / args.sequence
    n = export_kitti_sequence(cfg.scene(), seq_dir)
    print(f"wrote {n} frames to {seq_dir}")
    return EXIT_OK


def _save_npy(path: Path, array: np.ndarray) -> None:
    """``np.save`` through the file-error path: an OSError becomes
    IoFailure naming the file."""
    with file_errors("write", "array", path):
        np.save(path, array)


def cmd_project(args) -> int:
    cfg = _load_config(args)
    clouds, classes, poses = pipeline.load_sequence(args.seq)
    out = Path(args.out)

    def save(sample: pipeline.FrameSample) -> None:
        # made by the frames, so a sequence shorter than the window leaves no directory
        name = f"{sample.frame_id:06d}"
        for sub in ["motion", "cell_labels", "cell_valid"] + (["render"] if args.render else []):
            make_dirs(out / sub, "output directory")
        _save_npy(out / "motion" / f"{name}.npy", sample.motion.channels.astype(np.float32))
        _save_npy(out / "cell_labels" / f"{name}.npy", sample.labels.labels)
        _save_npy(out / "cell_valid" / f"{name}.npy", sample.labels.valid)
        if args.render:
            bev.write_pgm(sample.height, out / "render" / f"{name}_height.pgm")
            bev.write_pgm(sample.motion.channels[0], out / "render" / f"{name}_motion.pgm")

    n = len(pipeline.map_windows(clouds, classes, poses, cfg, save, args.threads))
    window, split = cfg.window()
    meta = {
        **dataclasses.asdict(cfg.bev_grid()),
        "window": window,
        "split": split,
        "channels": 1,
    }
    write_metrics(meta, out / "meta.txt")
    print(f"projected {n} frames to {out}")
    return EXIT_OK


def _load_labeled_sequence(args):
    """``load_sequence`` for the commands that need per-point labels."""
    labels = Path(args.seq) / "labels"
    if not labels.is_dir():
        raise ConfigError(f"{args.command} needs per-point labels: no directory {labels}")
    return pipeline.load_sequence(args.seq)


def _teacher_reader(teacher_dir: str, cfg: RunConfig):
    """``read(frame_id, valid=None)``: a frame's teacher grid, its file in
    ``teacher_dir`` read once.  The first read raises IoFailure for a missing
    file and ShapeMismatch for a grid not shaped like the label grid; given
    the frame's label validity mask ``valid``, a teacher mask that differs
    raises ShapeMismatch.  Each error names the file and the frame."""
    expected = (*cfg.bev_grid().shape, NUM_CLASSES)
    grids = {}

    def read(frame_id: int, valid: np.ndarray | None = None) -> losses.LogitGrid:
        path = Path(teacher_dir) / teacher.logits_filename(frame_id)
        if frame_id not in grids:
            if not path.is_file():
                raise IoFailure(f"cannot read logits {path}: no such file")
            grid = teacher.read_logits(path)
            if grid.shape != expected:
                raise ShapeMismatch(
                    f"{path}: teacher grid {grid.shape} does not match the label grid "
                    f"{expected} of frame {frame_id}"
                )
            grids[frame_id] = grid
        if valid is not None and not np.array_equal(grids[frame_id].valid, valid):
            raise ShapeMismatch(
                f"{path}: teacher validity mask differs from the label grid of frame {frame_id}"
            )
        return grids[frame_id]

    return read


def cmd_train(args) -> int:
    cfg = _load_config(args)
    if args.teacher == "none":
        cfg.set("distill.gamma", "0")
    elif args.teacher != "synth" and not Path(args.teacher).is_dir():
        raise ConfigError(f"--teacher must be none, synth or a directory, got {args.teacher}")
    epochs = args.epochs if args.epochs is not None else cfg.get("train.epochs")
    net = nnet.build_network(pipeline.student_descriptor(cfg), seed=cfg.get("train.seed"))
    pipeline.check_network(cfg)
    clouds, classes, poses = _load_labeled_sequence(args)
    read_teacher = None
    if args.teacher not in ("none", "synth"):
        read_teacher = _teacher_reader(args.teacher, cfg)
        # the training frames' files are read before any sample is built
        idxs = pipeline.usable_frames(len(clouds), cfg.get("bev.window"))
        for i in pipeline.split_train_heldout(idxs, cfg.get("train.val_fraction"))[0]:
            read_teacher(clouds[i].frame_id)
    samples = pipeline.build_samples(clouds, classes, poses, cfg, threads=args.threads)
    empty = [str(s.frame_id) for s in samples if not s.labels.valid.any()]
    if empty:
        samples = [s for s in samples if s.labels.valid.any()]
        if not samples:
            raise EmptyFrame(f"no window has a valid cell (frames {', '.join(empty)})")
        print(f"skipped {len(empty)} window(s) with no valid cell: frames {', '.join(empty)}")
    train, heldout = pipeline.split_train_heldout(samples, cfg.get("train.val_fraction"))
    if args.teacher == "synth":
        pipeline.attach_synth_teacher(
            train, cfg.get("teacher.kappa"), cfg.get("teacher.sigma"), seed=cfg.get("train.seed")
        )
    elif read_teacher is not None:
        # dropping empty windows can move the split onto unread files: read them all first
        for sample in train:
            read_teacher(sample.frame_id)
        for sample in train:
            sample.teacher_logits = read_teacher(sample.frame_id, sample.labels.valid)
    logs = pipeline.train_student(net, train, heldout, cfg, epochs, print)
    nnet.save_checkpoint(args.out_ckpt, net)
    if args.log:
        write_file(args.log, "".join(log.format() + "\n" for log in logs), "log")
    print(f"saved checkpoint to {args.out_ckpt}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    net = nnet.load_checkpoint(args.ckpt)
    pipeline.check_network(cfg)
    clouds, classes, poses = _load_labeled_sequence(args)
    counts = pipeline.map_windows(
        clouds, classes, poses, cfg, lambda s: pipeline.frame_confusion(net, s), args.threads
    )
    report = pipeline.confusion_report(counts)
    for key in sorted(report):
        print(f"{key}={report[key]}")
    if args.metrics_out:
        write_metrics(report, args.metrics_out)
    return EXIT_OK


def cmd_export_logits(args) -> int:
    cfg = _load_config(args)
    net = nnet.load_checkpoint(args.ckpt)
    pipeline.check_network(cfg)
    clouds, classes, poses = pipeline.load_sequence(args.seq)
    out = Path(args.out)

    def export(sample: pipeline.FrameSample) -> None:
        grid = pipeline.predict_logits(net, sample)
        # made by the frames, so a sequence shorter than the window leaves no directory
        make_dirs(out, "logits directory")
        teacher.write_logits(grid, out / teacher.logits_filename(sample.frame_id))

    n = len(pipeline.map_windows(clouds, classes, poses, cfg, export, args.threads))
    print(f"exported {n} logit grids to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(verify.ALL_SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        result = verify.ALL_SUITES[name]()
        print(result.format())
        for line in result.details:
            print(f"  {line}")
        ok = ok and result.passed
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    net = nnet.build_network(pipeline.student_descriptor(cfg), seed=cfg.get("train.seed"))
    pipeline.check_network(cfg)
    clouds, classes, poses = pipeline.load_sequence(args.seq)
    idxs, build = pipeline.windows(clouds, classes, poses, cfg)
    proj_ms: list[float] = []
    infer_ms: list[float] = []
    for k in range(args.frames):
        i = idxs[k % len(idxs)]
        t0 = time.perf_counter()
        sample = build(i)
        t1 = time.perf_counter()
        pipeline.predict_logits(net, sample)
        t2 = time.perf_counter()
        proj_ms.append((t1 - t0) * 1e3)
        infer_ms.append((t2 - t1) * 1e3)

    def stats(prefix: str, values: list[float]) -> dict[str, float]:
        arr = np.array(values)
        return {
            f"{prefix}_ms_mean": float(arr.mean()),
            f"{prefix}_ms_median": float(np.median(arr)),
            f"{prefix}_ms_p99": float(np.percentile(arr, 99)),
            f"{prefix}_fps": float(1e3 / arr.mean()),
        }

    report: dict[str, object] = {
        "frames": args.frames,
        "points_per_frame": int(np.mean([len(c) for c in clouds])),
        **stats("projection", proj_ms),
        **stats("inference", infer_ms),
    }
    for key in sorted(report):
        print(f"{key}={report[key]}")
    if args.out:
        write_metrics(report, args.out)
    return EXIT_OK


def cmd_dump_config(_args) -> int:
    print(documented_defaults(), end="")
    return EXIT_OK


_COMMANDS = {
    "synth-gen": cmd_synth_gen,
    "project": cmd_project,
    "train": cmd_train,
    "eval": cmd_eval,
    "export-logits": cmd_export_logits,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "dump-config": cmd_dump_config,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except MosDistillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
