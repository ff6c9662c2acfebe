"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The distillation benchmark (criteria 6 and 7) trains 15 small
students and takes a few minutes; everything else finishes in seconds.
"""

import time

import numpy as np
import pytest

from conftest import tiny_cli_args
from mosdistill import bev, experiments, geometry, nnet, teacher
from mosdistill.cli import main
from mosdistill.kitti_io import PointCloud
from mosdistill.losses import LogitGrid
from mosdistill.metrics import read_metrics
from mosdistill.synthbench import SceneConfig, export_kitti_sequence, gen_scene
from mosdistill.verify import (
    suite_dysample,
    suite_gradcheck,
    suite_identity,
)
from oracle_utils import height_oracle, project_oracle


def report(criterion: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion:2d} [{status}] {name}: {detail}", flush=True)
    assert passed, f"criterion {criterion} ({name}): {detail}"


@pytest.fixture(scope="module")
def benchmark_outcomes():
    t0 = time.perf_counter()
    outcomes = experiments.run_distill_benchmark(seeds=range(5))
    elapsed = time.perf_counter() - t0
    return outcomes, elapsed


def test_criterion_1_decomposition_identity():
    t0 = time.perf_counter()
    result = suite_identity()
    elapsed = time.perf_counter() - t0
    report(
        1,
        "kd decomposition identity",
        result.passed and elapsed < 1.0,
        f"max residual {result.max_err:.3e} (< 1e-9) in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_gradient_oracle():
    t0 = time.perf_counter()
    result = suite_gradcheck()
    elapsed = time.perf_counter() - t0
    report(
        2,
        "analytic gradients vs finite differences",
        result.passed and elapsed < 60.0,
        f"max rel err {result.max_err:.3e} (< 1e-4) in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_projection_oracle():
    rng = np.random.default_rng(77)
    grids = [
        bev.BevGrid(n_radial=32, n_angular=360),
        bev.BevGrid(n_radial=7, n_angular=13, r_max=25.0),
        bev.BevGrid(n_radial=24, n_angular=120, z_min=-2.0, z_max=1.0),
        bev.BevGrid(n_radial=1, n_angular=1, r_max=80.0),
    ]
    t0 = time.perf_counter()
    checked = 0
    for i in range(200):
        grid = grids[i % len(grids)]
        n = int(rng.integers(0, 101))
        xyz = np.column_stack(
            [
                rng.uniform(-60, 60, n),
                rng.uniform(-60, 60, n),
                rng.uniform(-6, 4, n),
            ]
        )
        cloud = PointCloud(
            points=np.concatenate([xyz, np.zeros((n, 1))], axis=1)
        )
        cells = bev.project_to_cells(cloud, grid)
        np.testing.assert_array_equal(cells.flat, project_oracle(cloud, grid))
        img = bev.height_image(bev.fold_heights(cells, cloud))
        np.testing.assert_array_equal(img, height_oracle(cloud, grid))
        checked += 1
    elapsed = time.perf_counter() - t0
    report(
        3,
        "projection and height vs brute force",
        checked == 200 and elapsed < 10.0,
        f"{checked} clouds exact in {elapsed:.1f}s (< 10s)",
    )


def test_criterion_4_dysample_degeneracy():
    result = suite_dysample()
    report(
        4,
        "zero-offset dysample equals bilinear",
        result.passed,
        f"max |diff| {result.max_err:.3e} (< 1e-6) over 20 tensors",
    )


def test_criterion_5_alignment_consistency():
    # float32 scan storage rounds coordinates at ~1e-6 of the arena scale;
    # dense discs and a modest arena keep centroid noise well under the bound
    static_cfg = SceneConfig(
        n_frames=6, n_moving=0, n_static_movable=2, n_static=4000,
        ego_velocity=(0.6, -0.3), arena_radius=25.0, seed=5,
    )
    frames, _, poses, _ = gen_scene(static_cfg)
    seq = geometry.align_to_current(frames, poses, len(frames) - 1)
    ref = seq[0].xyz.astype(np.float64).mean(axis=0)
    static_err = max(
        float(np.linalg.norm(c.xyz.astype(np.float64).mean(axis=0) - ref)) for c in seq[1:]
    )

    moving_cfg = SceneConfig(
        n_frames=6, n_moving=2, n_static_movable=0, n_static=0,
        points_per_disc=400, speed_range=(0.8, 1.4), ego_velocity=(0.5, 0.2),
        arena_radius=25.0, seed=6,
    )
    frames, _, poses, truth = gen_scene(moving_cfg)
    seq = geometry.align_to_current(frames, poses, len(frames) - 1)
    moving_err = 0.0
    for disc in truth.discs:
        lo, hi = disc.point_range
        current = seq[0].xyz[lo:hi, :2].astype(np.float64).mean(axis=0)
        for steps_back, cloud in enumerate(seq[1:], start=1):
            past = cloud.xyz[lo:hi, :2].astype(np.float64).mean(axis=0)
            expected = disc.velocity * steps_back
            moving_err = max(
                moving_err, float(np.linalg.norm((current - past) - expected))
            )
    report(
        5,
        "alignment consistency",
        static_err < 1e-6 and moving_err < 1e-6,
        f"static centroid err {static_err:.2e}, moving displacement err "
        f"{moving_err:.2e} (both < 1e-6 m)",
    )


@pytest.mark.slow
def test_criterion_6_distillation_gain(benchmark_outcomes):
    outcomes, elapsed = benchmark_outcomes
    summary = experiments.summarize(outcomes)
    mean_gap = summary["wdcd"] - summary["baseline"]
    paired_floor = summary["min_paired_gain"]
    per_seed = " ".join(
        f"s{o.seed}:{o.moving_iou['baseline']:.3f}->{o.moving_iou['wdcd']:.3f}"
        for o in outcomes
    )
    report(
        6,
        "distillation lifts moving IoU",
        mean_gap >= 0.02 and paired_floor >= -0.005 and elapsed < 900.0,
        f"mean gap {mean_gap * 100:+.1f} pts (>= +2), worst paired "
        f"{paired_floor * 100:+.1f} pts (>= -0.5), {elapsed:.0f}s (< 900s) [{per_seed}]",
    )


@pytest.mark.slow
def test_criterion_7_tckd_on_all_classes_not_better(benchmark_outcomes):
    outcomes, _ = benchmark_outcomes
    summary = experiments.summarize(outcomes)
    margin = summary["wdcd"] - summary["dkd_all"]
    report(
        7,
        "full-DKD does not beat the decoupled form",
        margin >= -0.005,
        f"moving-only {summary['wdcd']:.3f} vs all-classes {summary['dkd_all']:.3f} "
        f"(margin {margin * 100:+.1f} pts >= -0.5)",
    )


def test_criterion_8_format_round_trips(tmp_path):
    # checkpoint: save -> load -> save is byte-identical
    net = nnet.build_network("student:in=8,base=16", seed=9)
    ckpt = tmp_path / "net.ckpt"
    nnet.save_checkpoint(ckpt, net)
    first = ckpt.read_bytes()
    nnet.save_checkpoint(ckpt, nnet.load_checkpoint(ckpt))
    ckpt_ok = ckpt.read_bytes() == first

    # logits container: float32-valued grids reproduce exactly
    rng = np.random.default_rng(10)
    scores = rng.normal(0, 4, (40, 70, 4)).astype(np.float32).astype(np.float64)
    valid = rng.uniform(size=(40, 70)) < 0.7
    grid = LogitGrid(scores, valid)
    lpath = tmp_path / "t.logits"
    teacher.write_logits(grid, lpath)
    back = teacher.read_logits(lpath)
    logits_ok = np.array_equal(back.scores, grid.scores) and np.array_equal(
        back.valid, grid.valid
    )
    teacher.write_logits(back, lpath)
    logits_ok &= lpath.read_bytes() == (tmp_path / "t.logits").read_bytes()

    # synthetic KITTI tree: regeneration is byte-identical
    cfg = SceneConfig(n_frames=4, n_static=300, seed=11)
    a, b = tmp_path / "a", tmp_path / "b"
    export_kitti_sequence(cfg, a)
    export_kitti_sequence(cfg, b)
    rel_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    tree_ok = rel_a == rel_b and all(
        (a / r).read_bytes() == (b / r).read_bytes() for r in rel_a
    )
    report(
        8,
        "format round-trips bit-exact",
        ckpt_ok and logits_ok and tree_ok,
        f"checkpoint={ckpt_ok} logits={logits_ok} kitti_tree={tree_ok}",
    )


def test_criterion_9_throughput(tmp_path):
    data = tmp_path / "big"
    assert (
        main(
            [
                "synth-gen",
                "--out",
                str(data),
                "--set",
                "scene.n_frames=9",
                "--set",
                "scene.n_static=129750",
            ]
        )
        == 0
    )
    out = tmp_path / "bench.txt"
    code = main(
        [
            "bench",
            "--seq",
            str(data / "sequences" / "00"),
            "--frames",
            "5",
            "--out",
            str(out),
            "--threads",
            "1",
        ]
    )
    bench = read_metrics(out)
    fps = float(bench["projection_fps"])
    report(
        9,
        "projection throughput on 130k-point frames",
        code == 0 and fps >= 5.0,
        f"{fps:.1f} frames/s single-threaded (>= 5; full-system reference "
        f"figure is 40 FPS on datacenter GPU hardware), "
        f"inference {float(bench['inference_fps']):.1f} fps",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    overrides = tiny_cli_args()
    ok = True
    details = []

    def tree(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in root.rglob("*")
            if p.is_file()
        }

    # synth-gen
    a, b = tmp_path / "g1", tmp_path / "g2"
    main(["synth-gen", "--out", str(a), *overrides])
    main(["synth-gen", "--out", str(b), *overrides])
    same = tree(a) == tree(b)
    ok &= same
    details.append(f"synth-gen={same}")
    seq = a / "sequences" / "00"

    # project, threads 1 twice and threads 4
    p1, p2, p4 = tmp_path / "p1", tmp_path / "p2", tmp_path / "p4"
    for out, threads in ((p1, 1), (p2, 1), (p4, 4)):
        main(
            ["project", "--seq", str(seq), "--out", str(out), "--threads", str(threads), *overrides]
        )
    same = tree(p1) == tree(p2) and tree(p1) == tree(p4)
    ok &= same
    details.append(f"project={same}")

    # train twice
    ckpts, logs = [], []
    for name in ("t1", "t2"):
        ckpt, log = tmp_path / f"{name}.ckpt", tmp_path / f"{name}.log"
        main(
            [
                "train", "--seq", str(seq), "--out-ckpt", str(ckpt),
                "--teacher", "synth", "--epochs", "2", "--log", str(log), *overrides,
            ]
        )
        ckpts.append(ckpt.read_bytes())
        logs.append(log.read_text())
    same = ckpts[0] == ckpts[1] and logs[0] == logs[1]
    ok &= same
    details.append(f"train={same}")
    ckpt = tmp_path / "t1.ckpt"

    # eval at threads 1 (twice) and threads 4
    outs = []
    for name, threads in (("e1", 1), ("e2", 1), ("e4", 4)):
        mfile = tmp_path / f"{name}.txt"
        main(
            [
                "eval", "--seq", str(seq), "--ckpt", str(ckpt),
                "--metrics-out", str(mfile), "--threads", str(threads), *overrides,
            ]
        )
        outs.append(mfile.read_text())
    same = outs[0] == outs[1] == outs[2]
    ok &= same
    details.append(f"eval={same}")

    # export-logits twice
    l1, l2 = tmp_path / "l1", tmp_path / "l2"
    for out in (l1, l2):
        main(
            ["export-logits", "--ckpt", str(ckpt), "--seq", str(seq), "--out", str(out), *overrides]
        )
    same = tree(l1) == tree(l2)
    ok &= same
    details.append(f"export-logits={same}")

    # verify output is reproducible
    capsys.readouterr()
    main(["verify", "identity"])
    first = capsys.readouterr().out
    main(["verify", "identity"])
    second = capsys.readouterr().out
    same = first == second
    ok &= same
    details.append(f"verify={same}")

    report(10, "subcommand determinism", ok, " ".join(details))
