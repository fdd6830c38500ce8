"""Per-layer spans and counts for the traced run (`--trace 1`).

The tracer wraps public functions of the program's modules from the
benchmark's side, so the program itself carries no tracing code. A
wrapped function is replaced under every name that refers to it in any
`mono3dt` module, which catches `from .geometry import project_box`
style imports too. Each call records its span; a span's self time is
its duration minus the time of the wrapped calls made inside it, so the
self times of all wrapped functions plus the untraced remainder add up
to the wall time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

import hostcal

# (module, attribute) -> span name; attribute "Class.method" patches a method
SPANS = {
    ("io", "load_sequence"): "io.load",
    ("io", "write_tracks"): "io.write",
    ("io", "load_tracks"): "io.load_tracks",
    ("association", "Tracker.step"): "association.step",
    ("association", "decode_detection"): "association.decode",
    ("association", "build_affinity_matrix"): "association.affinity",
    ("association", "depth_ordered_overlaps"): "association.depth_order",
    ("association", "cover_fractions"): "association.cover",
    ("association", "solve_assignment"): "association.assign",
    ("association", "Tracker._reproject_state"): "association.emit",
    ("motion", "predict_tracklet"): "motion.predict",
    ("motion", "update_motion_state"): "motion.update",
    ("lstm", "train_lstm"): "lstm.train",
    ("lstm", "forward_window"): "lstm.forward",
    ("lstm", "backward_window"): "lstm.backward",
    ("geometry", "project_box"): "geometry.project_box",
    ("geometry", "iou_3d"): "geometry.iou3d",
    ("metrics", "match_sequence"): "metrics.match",
    ("metrics", "compute_clear"): "metrics.clear",
    # the matching gate: wrapped to count gated pairs, its time is matching's
    ("metrics", "_pair_quality"): "metrics.gate",
}


class Tracer:
    def __init__(self):
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.step_durations: list[float] = []
        self._stack: list[list[float]] = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            tracer._stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.self_time[name] += elapsed - children[0]
                tracer.calls[name] += 1
                if name == "association.step":
                    tracer.step_durations.append(elapsed)
            tracer._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result) -> None:
        if name == "association.affinity":
            n, m = len(args[0]), len(args[1])
            self.counts["pairs_evaluated"] += n * m
            self.counts["pairs_kept"] += int(np.count_nonzero(result.kept_mask))
            self.counts["tracklets_alive"] += n
        elif name == "association.assign":
            self.counts["pairs_matched"] += len(result[0])
        elif name == "io.write":
            self.counts["records_written"] += len(args[0])
        elif name == "metrics.gate":
            self.counts["gated_pairs"] += int(bool(result[0]))

    def install(self) -> None:
        """Patch every listed function in all loaded mono3dt modules."""
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("mono3dt")}
        for (mod_name, attr), span in SPANS.items():
            owner = modules[f"mono3dt.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(span, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def layer_metrics(self, frames: int, passes: int, evaluates: int, train_steps: int, factor: float) -> dict:
        """Per-layer metrics: self times scaled by the host factor, or for
        training by its square root, as the end-to-end figures are."""

        def ms(span, per):
            scale = hostcal.train_factor(factor) if span.startswith("lstm.") else factor
            return 1e3 * self.self_time[span] * scale / per

        def us_per_call(span):
            return 1e6 * self.self_time[span] * factor / max(self.calls[span], 1)

        c = self.counts
        return {
            "io.load_ms": (ms("io.load", passes), "ms"),
            "io.write_ms": (ms("io.write", passes), "ms"),
            "io.records_written": (c["records_written"] / passes, "count"),
            "io.load_tracks_ms": (ms("io.load_tracks", evaluates), "ms"),
            "association.decode_ms_per_frame": (ms("association.decode", frames), "ms/frame"),
            "association.affinity_ms_per_frame": (ms("association.affinity", frames), "ms/frame"),
            "association.depth_order_ms_per_frame": (ms("association.depth_order", frames), "ms/frame"),
            "association.cover_ms_per_frame": (ms("association.cover", frames), "ms/frame"),
            "association.assign_ms_per_frame": (ms("association.assign", frames), "ms/frame"),
            "association.emit_ms_per_frame": (ms("association.emit", frames), "ms/frame"),
            "association.step_self_ms_per_frame": (ms("association.step", frames), "ms/frame"),
            "association.step_ms_p95": (
                1e3 * factor * statistics.quantiles(self.step_durations, n=20)[18],
                "ms",
            ),
            "association.pairs_evaluated": (c["pairs_evaluated"] / passes, "count"),
            "association.pairs_kept": (c["pairs_kept"] / passes, "count"),
            "association.pairs_matched": (c["pairs_matched"] / passes, "count"),
            "association.kept_ratio": (c["pairs_kept"] / max(c["pairs_evaluated"], 1), "ratio"),
            "association.depth_order_calls": (self.calls["association.depth_order"] / passes, "count"),
            "association.tracklets_alive_mean": (c["tracklets_alive"] / frames, "count"),
            "motion.predict_ms_per_frame": (ms("motion.predict", frames), "ms/frame"),
            "motion.update_ms_per_frame": (ms("motion.update", frames), "ms/frame"),
            "motion.predict_calls": (self.calls["motion.predict"] / passes, "count"),
            "lstm.forward_ms_per_window": (ms("lstm.forward", self.calls["lstm.forward"]), "ms"),
            "lstm.backward_ms_per_window": (ms("lstm.backward", self.calls["lstm.backward"]), "ms"),
            "lstm.optimizer_ms_per_step": (ms("lstm.train", train_steps), "ms/step"),
            "geometry.project_box_calls": (self.calls["geometry.project_box"] / passes, "count"),
            "geometry.project_box_us": (us_per_call("geometry.project_box"), "us"),
            "geometry.iou3d_calls": (self.calls["geometry.iou3d"] / evaluates, "count"),
            "geometry.iou3d_us": (us_per_call("geometry.iou3d"), "us"),
            "metrics.match_ms": (ms("metrics.match", evaluates) + ms("metrics.gate", evaluates), "ms"),
            "metrics.clear_ms": (ms("metrics.clear", evaluates), "ms"),
            "metrics.gated_pairs": (c["gated_pairs"] / evaluates, "count"),
        }
