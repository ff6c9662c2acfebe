#!/usr/bin/env python3
"""mosdistill benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload stream-130k --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the result carries the end-to-end metrics.
With ``--trace 1`` the run spends half its time untraced and half with a
span around every layer call, and the result carries the per-layer metrics,
including the tracing overhead.  The line before the result is a report with
the environment, sample counts and the metrics under their per-workload
names; a traced run also writes its spans to ``.perfbench-out/``.
"""

import os
import sys

# Pin BLAS to one thread before numpy loads: OpenBLAS threads of a run
# oversubscribe a small machine and make timings swing.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# setup_s is the median of setups timed both before and after the measured
# phase, at least SETUP_REPEATS and SETUP_SECONDS on each side: the machine's
# speed drifts over seconds, and a setup takes only about 0.1 s.
SETUP_REPEATS = 11
SETUP_SECONDS = 1.5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke check")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _fingerprint() -> str:
    """Hash of the package and benchmark sources: one value per commit."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas": blas_name,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _time_setups(workload, setup_s: list) -> None:
    start = time.perf_counter()
    for n in itertools.count():
        if n >= SETUP_REPEATS and time.perf_counter() - start >= SETUP_SECONDS:
            return
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)


def _run_phase(workload, tracer, seconds: float, failed_op) -> list:
    """Closed loop: run ops back to back until ``seconds`` have passed."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        try:
            results.append(workload.run_op(tracer))
        except Exception:  # an op that raises is a failed op; the loop goes on
            traceback.print_exc()
            results.append(failed_op)
    return results


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "mosdistill" / "__init__.py").is_file():
        print(f"error: no mosdistill sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported only now: they need src/ on the path and BLAS pinned
    import numpy as np

    import mosdistill
    import tracing
    import workloads

    if not Path(mosdistill.__file__).resolve().is_relative_to(SRC):
        print(f"error: mosdistill imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    suffix = "-tiny" if args.tiny else ""
    first_run = OUT / "first-run" / f"{_fingerprint()}-{args.workload}-seed{args.seed}{suffix}.json"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    untraced = tracing.NullTracer()
    failed_op = workloads.OpResult([], 0, 0, 0.0, False)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir, first_run)
        setup_s = []
        if tracer is not None:
            with tracer.installed(), tracer.span("setup") as span:
                workload.setup()
            setup_s.append(span.seconds)
        else:
            _time_setups(workload, setup_s)
        workload.warm_up()
        if tracer is None:
            plain = _run_phase(workload, untraced, args.seconds, failed_op)
            traced = []
            _time_setups(workload, setup_s)
        else:
            plain = _run_phase(workload, untraced, args.seconds / 2, failed_op)
            with tracer.installed():
                traced = _run_phase(workload, tracer, args.seconds / 2, failed_op)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = plain + traced
    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    latency = [ms for op in plain for ms in op.latency_ms]
    traced_latency = [ms for op in traced for ms in op.latency_ms]
    timed_s = sum(op.seconds for op in plain)
    # When every op raised there is nothing to time: the result still comes,
    # marked incorrect, without the timing metrics.
    timed = bool(latency) and timed_s > 0
    names = workload.named
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(np),
        "setup_runs_s": setup_s,
        "latency_samples": len(latency),
        "error_rate": failed / attempted,
        "named": {"error_rate": [failed / attempted, "ratio"]},
    }
    values = {}
    if timed:
        p50, p90 = np.percentile(latency, [50, 90])
        throughput = sum(op.items for op in plain) / timed_s
        report["latency_samples_beyond_p90"] = int(sum(ms > p90 for ms in latency))
        report["named"][f"{names['latency']}_p50"] = [p50, "ms"]
        report["named"][f"{names['latency']}_p90"] = [p90, "ms"]
        report["named"][names["throughput"]] = [throughput, "1/s"]
    if workload.moving_iou is not None:
        report["named"]["moving_iou"] = [workload.moving_iou, "ratio"]

    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if timed:
            values["latency_ms_p50"] = (p50, "ms")
            values["latency_ms_p90"] = (p90, "ms")
            values["throughput_per_s"] = (throughput, "1/s")
        values["setup_s"] = (statistics.median(setup_s), "s")
        values["peak_rss_mb"] = (rss_mb, "MB")
        report["named"]["setup_s"] = [values["setup_s"][0], "s"]
        report["named"]["peak_rss_mb"] = [rss_mb, "MB"]
    else:
        units = sum(op.units for op in traced)
        report["traced_units"] = units
        if timed and traced_latency and units:
            layer = tracer.layer_metrics(units)
            plain_ms = statistics.median(latency)
            traced_ms = statistics.median(traced_latency)
            layer["trace.overhead_ms"] = traced_ms - plain_ms
            layer["trace.overhead_share"] = (traced_ms - plain_ms) / plain_ms
            layer["pipeline.moving_iou"] = workload.moving_iou or 0.0
            values = {
                name: (layer[name], unit) for name, (unit, _) in tracing.per_layer_units().items()
            }
            report["op_breakdown_per_unit"] = tracer.breakdown("op", units)
        report["setup_breakdown"] = tracer.breakdown("setup", 1)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}{suffix}.json"
        trace_path.write_text(json.dumps({"report": report, "spans": tracer.to_json()}))
        report["trace_file"] = str(trace_path.relative_to(ROOT))

    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
