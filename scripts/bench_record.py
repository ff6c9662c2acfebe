#!/usr/bin/env python3
"""Run the benchmark of a checkout and write one JSON record of it.

    python3 scripts/bench_record.py --out BENCH_21.json
    python3 scripts/bench_record.py --root ../other-checkout --seeds 1 2 --repeats 3 --out rec.json

The workload names and the end-to-end metric names come from the root's
``BENCHMARK.json``.  For each workload, ``perfbench/run.py`` of ``--root``
runs for the ``run_seconds`` of ``BENCHMARK.json`` with ``--trace 0`` once
per seed and repeat, then once with ``--trace 1`` at the first seed.  The
record holds, per workload, the median, first quartile, third quartile and
run count of each end-to-end metric, the traced per-layer rows and
train-wdcd's held-out ``moving_iou`` per seed; the environment block of the
first report; and the measured tree: the root's git ``commit`` and
``diff_sha256``, the sha256 of ``git diff --binary HEAD`` over its tracked
files, with Markdown files and the record itself left out.  The digest of
an empty diff (``e3b0c442...``) means the commit itself was measured; once
the tree is committed as C, the sha256 of ``git diff --binary <commit> C --
. ':(exclude)*.md' ':(exclude)<record>'`` equals ``diff_sha256`` if C is the
measured tree.  A run that exits non-zero or reports ``"correct": false``
stops the script with exit 1 before anything is written.  Standard library
only.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(root: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` process: its report and its result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"error: {' '.join(argv[1:])} reported correct=false: {lines[-1]}")
    return report, result


def spread(values: list[float]) -> dict:
    """Median, first and third quartile (inclusive method) and count."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "runs": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def git(root: Path, *args: str) -> bytes | None:
    proc = subprocess.run(["git", *args], cwd=root, capture_output=True)
    return proc.stdout if proc.returncode == 0 else None


def tree(root: Path, out: Path) -> dict:
    """The root's commit and the sha256 of its diff against it (see above)."""
    commit = git(root, "rev-parse", "HEAD")
    excluded = [":(exclude)*.md"]
    if out.is_relative_to(root):
        excluded.append(f":(exclude){out.relative_to(root)}")
    diff = git(root, "diff", "--binary", "HEAD", "--", ".", *excluded)
    return {"commit": None if commit is None else commit.decode().strip(),
            "diff_sha256": None if diff is None else hashlib.sha256(diff).hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to benchmark")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--repeats", type=int, default=5, help="untraced runs per seed")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {**tree(root, args.out.resolve()), "seconds": seconds, "seeds": args.seeds,
              "repeats": args.repeats, "environment": None, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        units = {}
        moving_iou = {}
        for seed in args.seeds:
            for repeat in range(args.repeats):
                print(f"{workload} seed={seed} run {repeat + 1}/{args.repeats}", file=sys.stderr)
                report, result = run(root, workload, seed, seconds, trace=0)
                record["environment"] = record["environment"] or report["environment"]
                for name, metric in result["metrics"].items():
                    if name in values:
                        values[name].append(metric["value"])
                        units[name] = metric["unit"]
                if "moving_iou" in report["named"]:
                    moving_iou[str(seed)] = report["named"]["moving_iou"][0]
        print(f"{workload} seed={args.seeds[0]} traced", file=sys.stderr)
        _, traced = run(root, workload, args.seeds[0], seconds, trace=1)
        entry = {
            "end_to_end": {name: {**spread(v), "unit": units[name]}
                           for name, v in values.items() if v},
            "per_layer": traced["metrics"],
        }
        if moving_iou:
            entry["moving_iou"] = moving_iou
        record["workloads"][workload] = entry
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
