"""In-memory spans around the public calls of each mosdistill layer.

A traced run replaces each traced function under the name its caller looks
it up by (``pipeline.read_scan`` rather than ``kitti_io.read_scan``, since
``pipeline`` imports it by name) and wraps every network layer through the
instance's own ``forward`` and ``backward``.  Each call records one span:
name, start, end, the span that caused it, its thread, and the counts
measured at that boundary.  Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager

from mosdistill import bev, geometry, losses, nnet, pipeline, synthbench, teacher

NET_LAYERS = ("enc0", "enc0b", "enc1", "enc2", "up0", "dec0", "up1", "dec1", "head")

# (module, attribute) pairs wrapped while tracing; the span is "<module>.<attribute>".
TRACED_FUNCTIONS = (
    (synthbench, "gen_sequence"),
    (synthbench, "export_kitti_sequence"),
    (geometry, "align_to_current"),
    (geometry, "transform_points"),
    (bev, "project_to_cells"),
    (bev, "height_image"),
    (bev, "motion_residuals"),
    (bev, "cell_labels"),
    (bev, "back_project"),
    (losses, "total_loss"),
    (losses, "weighted_cross_entropy"),
    (losses, "lovasz_softmax"),
    (losses, "wdcd_frame"),
    (teacher, "write_logits"),
    (teacher, "synth_teacher"),
    (nnet, "load_checkpoint"),
    (nnet, "save_checkpoint"),
    (pipeline, "load_sequence"),
    (pipeline, "read_calib"),
    (pipeline, "read_poses"),
    (pipeline, "read_scan"),
    (pipeline, "read_labels"),
    (pipeline, "remap_labels"),
    (pipeline, "build_samples"),
    (pipeline, "build_sample"),
    (pipeline, "attach_synth_teacher"),
    (pipeline, "predict_logits"),
    (pipeline, "student_forward"),
    (pipeline, "train_student"),
    (pipeline, "evaluate"),
)

# per-layer time metric -> the spans whose inclusive time it sums
SPAN_METRICS = {
    "geometry.align_ms": ("geometry.align_to_current",),
    "bev.project_ms": ("bev.project_to_cells",),
    "bev.height_ms": ("bev.height_image",),
    "bev.residuals_ms": ("bev.motion_residuals",),
    "bev.labels_ms": ("bev.cell_labels",),
    "bev.back_project_ms": ("bev.back_project",),
    "nnet.fwd_ms": ("nnet.Network.forward",),
    "nnet.bwd_ms": ("nnet.Network.backward",),
    "nnet.sgd_ms": ("nnet.SgdState.step",),
    "losses.wce_ms": ("losses.weighted_cross_entropy",),
    "losses.lovasz_ms": ("losses.lovasz_softmax",),
    "losses.wdcd_ms": ("losses.wdcd_frame",),
    "pipeline.load_sequence_ms": ("pipeline.load_sequence",),
    "teacher.write_logits_ms": ("teacher.write_logits",),
}
# a conv layer's metrics include the ReLU that follows it
for _layer in NET_LAYERS:
    SPAN_METRICS[f"nnet.{_layer}.fwd_ms"] = (f"nnet.{_layer}.forward", f"nnet.{_layer}_relu.forward")
    SPAN_METRICS[f"nnet.{_layer}.bwd_ms"] = (f"nnet.{_layer}.backward", f"nnet.{_layer}_relu.backward")


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    units = {name: ("ms", "lower") for name in SPAN_METRICS}
    units.update(
        {
            "geometry.points_transformed": ("count", "lower"),
            "bev.points_in_range_ratio": ("ratio", "higher"),
            "kitti_io.bytes_read": ("byte", "lower"),
            "teacher.bytes_written": ("byte", "lower"),
            "pipeline.threads_busy_share": ("ratio", "higher"),
            "pipeline.moving_iou": ("ratio", "higher"),
            "trace.overhead_ms": ("ms", "lower"),
            "trace.overhead_share": ("ratio", "lower"),
            "trace.uncovered_share": ("ratio", "lower"),
        }
    )
    for layer in NET_LAYERS:
        units[f"nnet.{layer}.flops"] = ("flop_computed", "lower")
        units[f"nnet.{layer}.bytes"] = ("byte_computed", "lower")
    return units


class Span:
    """One timed call; ``counts`` holds what was measured at its boundary."""

    __slots__ = ("name", "start", "end", "parent", "thread", "counts")

    def __init__(self, name: str, parent: int, thread: int) -> None:
        self.name = name
        self.parent = parent
        self.thread = thread
        self.counts: dict[str, float] = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Times the benchmark's own op boundary and records nothing else."""

    @contextmanager
    def span(self, name: str):
        record = Span(name, -1, 0)
        try:
            yield record
        finally:
            record.end = time.perf_counter()


class Tracer:
    """Keeps every span in memory; ``installed()`` turns the wrappers on."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._nets: list[nnet.Network] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:  # a pool worker: caused by the main thread's open span
            parent = self._main_stack[-1]
        else:
            parent = -1
        record = Span(name, parent, threading.get_ident())
        with self._lock:
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
        return record

    def _close(self, record: Span) -> None:
        record.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                count(record, args, kwargs, result)
            return result

        return traced

    # -- installing wrappers ----------------------------------------------

    def _instrument(self, net: nnet.Network) -> nnet.Network:
        for name, layer in net.layers:
            layer.forward = self._wrap(
                f"nnet.{name}.forward", type(layer).forward.__get__(layer), _count_layer(layer)
            )
            layer.backward = self._wrap(
                f"nnet.{name}.backward", type(layer).backward.__get__(layer)
            )
        net.forward = self._wrap("nnet.Network.forward", type(net).forward.__get__(net))
        net.backward = self._wrap("nnet.Network.backward", type(net).backward.__get__(net))
        if not any(known is net for known in self._nets):
            self._nets.append(net)
        return net

    @staticmethod
    def _strip(net: nnet.Network) -> None:
        for _, layer in net.layers:
            layer.__dict__.pop("forward", None)
            layer.__dict__.pop("backward", None)
        net.__dict__.pop("forward", None)
        net.__dict__.pop("backward", None)

    @contextmanager
    def installed(self):
        saved = []
        counters = {
            "geometry.transform_points": _count_points,
            "bev.project_to_cells": _count_binned,
            "pipeline.read_calib": _count_file_read,
            "pipeline.read_poses": _count_file_read,
            "pipeline.read_scan": _count_file_read,
            "pipeline.read_labels": _count_file_read,
            "teacher.write_logits": _count_file_written,
            "pipeline.build_samples": _count_threads,
        }
        try:
            for module, attr in TRACED_FUNCTIONS:
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counters.get(name)))
            build = nnet.build_network
            saved.append((nnet, "build_network", build))
            nnet.build_network = lambda *a, **k: self._instrument(build(*a, **k))
            step = nnet.SgdState.step
            saved.append((nnet.SgdState, "step", step))
            nnet.SgdState.step = self._wrap("nnet.SgdState.step", step)
            for net in self._nets:
                self._instrument(net)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            for net in self._nets:
                self._strip(net)

    # -- analysis -----------------------------------------------------------

    def _under(self, root_name: str) -> list[int]:
        """Indices of the spans whose root span is named ``root_name``."""
        roots: list[int] = []
        for i, record in enumerate(self.spans):
            roots.append(i if record.parent < 0 else roots[record.parent])
        return [i for i, r in enumerate(roots) if self.spans[r].name == root_name]

    def _self_seconds(self) -> list[float]:
        """Each span's duration minus the union of its child spans' intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for record in self.spans:
            if record.parent >= 0:
                children.setdefault(record.parent, []).append((record.start, record.end))
        out = []
        for i, record in enumerate(self.spans):
            covered = 0.0
            reach = record.start
            for start, end in sorted(children.get(i, ())):
                start, end = max(start, reach), min(end, record.end)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(record.seconds - covered)
        return out

    def breakdown(self, root_name: str, units: int) -> dict[str, dict[str, float]]:
        """Inclusive and self milliseconds per unit of work, and calls, by span name."""
        self_s = self._self_seconds()
        out: dict[str, dict[str, float]] = {}
        for i in self._under(root_name):
            row = out.setdefault(self.spans[i].name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += 1e3 * self.spans[i].seconds / units
            row["self_ms"] += 1e3 * self_s[i] / units
        return out

    def layer_metrics(self, units: int) -> dict[str, float]:
        """Per-layer metrics over the "op" spans, per unit of work."""
        ops = self._under("op")
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[tuple[str, str], float] = {}
        for i in ops:
            record = self.spans[i]
            seconds[record.name] = seconds.get(record.name, 0.0) + record.seconds
            calls[record.name] = calls.get(record.name, 0) + 1
            for key, value in record.counts.items():
                counts[record.name, key] = counts.get((record.name, key), 0.0) + value

        def count(span: str, key: str) -> float:
            return counts.get((span, key), 0.0)

        out = {
            metric: 1e3 * sum(seconds.get(name, 0.0) for name in names) / units
            for metric, names in SPAN_METRICS.items()
        }
        out["geometry.points_transformed"] = count("geometry.transform_points", "points") / units
        binned = count("bev.project_to_cells", "binned")
        out["bev.points_in_range_ratio"] = (
            count("bev.project_to_cells", "assigned") / binned if binned else 0.0
        )
        out["kitti_io.bytes_read"] = (
            sum(count(f"pipeline.read_{what}", "bytes") for what in ("calib", "poses", "scan", "labels"))
            / units
        )
        out["teacher.bytes_written"] = count("teacher.write_logits", "bytes") / units
        # share of the pool's thread-seconds spent inside build_sample
        capacity = sum(
            self.spans[i].seconds * self.spans[i].counts.get("threads", 1)
            for i in ops
            if self.spans[i].name == "pipeline.build_samples"
        )
        busy = sum(
            self.spans[i].seconds
            for i in ops
            if self.spans[i].name == "pipeline.build_sample"
            and self.spans[self.spans[i].parent].name == "pipeline.build_samples"
        )
        out["pipeline.threads_busy_share"] = busy / capacity if capacity else 0.0
        for layer in NET_LAYERS:
            passes = calls.get(f"nnet.{layer}.forward", 0)
            for key in ("flops", "bytes"):
                total = count(f"nnet.{layer}.forward", key) + count(f"nnet.{layer}_relu.forward", key)
                out[f"nnet.{layer}.{key}"] = total / passes if passes else 0.0
        self_s = self._self_seconds()
        roots = [i for i in ops if self.spans[i].parent < 0]
        total = sum(self.spans[i].seconds for i in roots)
        out["trace.uncovered_share"] = sum(self_s[i] for i in roots) / total if total else 0.0
        return out

    def to_json(self) -> list[list]:
        """Spans as [name, start_s, end_s, parent_index, thread, counts]."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            [s.name, s.start - t0, s.end - t0, s.parent, s.thread, s.counts]
            for s in self.spans
        ]


# -- counts measured at span boundaries ---------------------------------------


def _count_points(record, args, kwargs, result) -> None:
    record.counts["points"] = len(args[0])


def _count_binned(record, args, kwargs, result) -> None:
    record.counts["binned"] = int(result.flat.shape[0])
    record.counts["assigned"] = int(result.assigned.sum())


def _count_file_read(record, args, kwargs, result) -> None:
    record.counts["bytes"] = os.stat(args[0]).st_size


def _count_file_written(record, args, kwargs, result) -> None:
    record.counts["bytes"] = os.stat(args[1]).st_size


def _count_threads(record, args, kwargs, result) -> None:
    record.counts["threads"] = kwargs.get("threads", args[4] if len(args) > 4 else 1)


def _count_layer(layer):
    """Floating-point operations and bytes touched by one forward pass,
    computed from shapes (2 flops per multiply-add, float64 operands)."""

    def count(record, args, kwargs, result) -> None:
        x = args[0]
        y = result[0]
        params = sum(p.size for p in layer.params.values())
        if isinstance(layer, nnet.Conv2d):
            flops = 2 * y.size * layer.c_in * layer.kernel**2 + y.size
        elif isinstance(layer, nnet.DySample):
            offsets = 2 * layer.scale**2
            flops = 2 * offsets * x.size + 9 * y.size
        else:  # ReLU
            flops = x.size
        record.counts["flops"] = flops
        record.counts["bytes"] = 8 * (x.size + y.size + params)

    return count
