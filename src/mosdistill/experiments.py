"""The desk-scale distillation benchmark.

Per seed, three students train from the same initialization on the same
synthetic sequence and are scored (moving-class IoU, point level) on a
held-out sequence generated with a different sub-seed:

* baseline:  segmentation loss only (distillation weight forced to 0)
* wdcd:      + weighted decoupled class distillation from a synthetic
             teacher (confidence 10, logit noise 1)
* dkd_all:   the same, but the binary target-class term applies to every
             class instead of only the moving one

The benchmark grid is reduced to 24 x 120 cells and training runs a short
epoch budget so the full 5-seed sweep finishes in minutes on one CPU; the
comparison is paired per seed, so the reduction affects all arms equally.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import nnet, pipeline, synthbench
from .config import RunConfig
from .errors import ConfigError

MODES = ("baseline", "wdcd", "dkd_all")

#: overrides over the stock defaults that define the benchmark
BENCHMARK_OVERRIDES = {
    "bev.n_radial": "24",
    "bev.n_angular": "120",
    "scene.n_frames": "19",      # 12 usable training windows
    "train.batch_size": "4",
    "train.val_fraction": "0",   # scoring uses a separate sequence
    "opt.lr": "0.01",
    "opt.lr_decay": "0.93",
}
EVAL_FRAMES = 17                 # 10 usable evaluation windows
DEFAULT_EPOCHS = 30
TEACHER_KAPPA = 10.0
TEACHER_SIGMA = 1.0


@dataclass
class SeedOutcome:
    seed: int
    moving_iou: dict[str, float]  # mode -> held-out moving IoU


def benchmark_config(seed: int) -> RunConfig:
    cfg = RunConfig.defaults()
    for key, value in BENCHMARK_OVERRIDES.items():
        cfg.set(key, value)
    cfg.set("scene.seed", str(1000 + seed))
    cfg.set("train.seed", str(seed))
    return cfg


def _build_eval_samples(cfg: RunConfig, seed: int) -> list[pipeline.FrameSample]:
    eval_cfg = RunConfig(dict(cfg.values))
    eval_cfg.set("scene.seed", str(2000 + seed))
    eval_cfg.set("scene.n_frames", str(EVAL_FRAMES))
    clouds, classes, poses = synthbench.gen_sequence(eval_cfg.scene())
    return pipeline.build_samples(clouds, classes, poses, eval_cfg)


def run_seed(
    seed: int, epochs: int = DEFAULT_EPOCHS, progress=None
) -> SeedOutcome:
    cfg = benchmark_config(seed)
    clouds, classes, poses = synthbench.gen_sequence(cfg.scene())
    train_samples = pipeline.build_samples(clouds, classes, poses, cfg)
    eval_samples = _build_eval_samples(cfg, seed)
    # the baseline's gamma of 0 keeps total_loss from reading the teacher
    pipeline.attach_synth_teacher(
        train_samples, TEACHER_KAPPA, TEACHER_SIGMA, seed=cfg.get("train.seed")
    )

    outcome: dict[str, float] = {}
    for mode in MODES:
        mode_cfg = RunConfig(dict(cfg.values))
        if mode == "baseline":
            mode_cfg.set("distill.gamma", "0")
        if mode == "dkd_all":
            mode_cfg.set("distill.tckd_scope", "all")
        net = nnet.build_network(
            pipeline.student_descriptor(mode_cfg), seed=mode_cfg.get("train.seed")
        )
        pipeline.train_student(net, train_samples, [], mode_cfg, epochs)
        report = pipeline.evaluate(net, eval_samples)
        outcome[mode] = float(report["point_iou_moving"])
        if progress is not None:
            progress(f"seed={seed} mode={mode} moving_iou={outcome[mode]:.4f}")
    return SeedOutcome(seed=seed, moving_iou=outcome)


def run_distill_benchmark(
    seeds=range(5), epochs: int = DEFAULT_EPOCHS, progress=None
) -> list[SeedOutcome]:
    if not seeds:
        raise ConfigError("the distillation benchmark needs at least one seed")
    return [run_seed(seed, epochs, progress) for seed in seeds]


def summarize(outcomes: list[SeedOutcome]) -> dict[str, float]:
    means = {
        mode: sum(o.moving_iou[mode] for o in outcomes) / len(outcomes)
        for mode in MODES
    }
    means["min_paired_gain"] = min(
        o.moving_iou["wdcd"] - o.moving_iou["baseline"] for o in outcomes
    )
    return means
