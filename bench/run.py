"""Benchmark of mono3dt's track, evaluate and train-motion paths.

Usage, from the repository root:

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 bench/run.py --workload crowd --seed 0 --seconds 30 --trace 0

One run builds its workload's scenes from --seed with the benchmark's own
generator, warms up, then repeats whole rounds for --seconds. A round
visits each scene in turn: one `lstm.train_lstm` call, then track (load,
one `Tracker.step` per frame, write) and evaluate (load both files,
`metrics.evaluate_tracks` in 3d mode). A fixed host-calibration loop runs
between units of work and scales each scene visit's timings (see
hostcal.py). After the rounds, the outputs are checked. The last line of
stdout is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. A summary with raw figures goes to stderr.

Everything runs in this one process; BLAS and OpenMP are pinned to one
thread through the environment, as in BENCHMARK.json's command.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"

WORKLOADS = ("crowd", "jam", "lstm_motion")
TRAIN_BATCH = 8
TRAIN_WINDOW = 10


@dataclass(frozen=True)
class Spec:
    backend: str  # tracker motion backend
    train_steps: int  # steps of the timed train_lstm call before each scene
    recall_floor: float  # visible gt rows matched, lowest accepted share
    mm_ceiling: float  # identity changes per visible gt row, highest accepted


SPECS = {
    "crowd": Spec("kf3d", 3, recall_floor=0.85, mm_ceiling=0.02),
    "jam": Spec("kf3d", 3, recall_floor=0.90, mm_ceiling=0.01),
    "lstm_motion": Spec("lstm", 10, recall_floor=0.85, mm_ceiling=0.03),
}
# Scenes trained, tracked and evaluated once per round. Several scenes
# average out how much work one seed's scene happens to hold; a single
# scene moved track and evaluate times by up to 6% and 12% from seed to seed.
SCENES = 8
# lstm_motion tracks with weights trained in set-up for this many steps
TRACKING_TRAIN_STEPS = 100


@dataclass
class Measure:
    # one figure per round; "raw" ones are as timed, the others normalised
    track_ms_per_frame: list = field(default_factory=list)
    evaluate_ms_per_frame: list = field(default_factory=list)
    train_ms_per_step: list = field(default_factory=list)
    raw_track_ms_per_frame: list = field(default_factory=list)
    raw_evaluate_ms_per_frame: list = field(default_factory=list)
    raw_train_ms_per_step: list = field(default_factory=list)
    attempted: int = 0
    frames: int = 0
    passes: int = 0  # scene passes
    train_steps: int = 0


class Bench:
    """One workload's inputs, program handles and timed units of work."""

    def __init__(self, workload: str, seed: int, work: Path):
        import hostcal
        import scenegen
        from mono3dt import association, io, lstm, metrics
        from mono3dt.data import TrackerConfig

        self.m = {"association": association, "io": io, "lstm": lstm, "metrics": metrics}
        self.spec = SPECS[workload]
        self.seed = seed
        self.work = work
        self.scenes = [scenegen.make_scene(workload, seed, k) for k in range(SCENES)]
        self.paths = [scenegen.write_inputs(scene, work / f"scene{k}") for k, scene in enumerate(self.scenes)]
        self.dataset = scenegen.training_trajectories(seed)
        self.config = TrackerConfig(motion_backend=self.spec.backend).validate()
        self.cal = hostcal.Calibrator()
        self.weights = None  # from the last timed train_lstm call
        self.tracking_weights = None  # lstm_motion only, trained in set-up
        self.tracking_history = None
        self.history = None
        self.reports = [None] * len(self.scenes)

    def train(self, steps: int) -> float:
        """The path of `mono3dt train-motion`; returns seconds."""
        lstm = self.m["lstm"]
        config = lstm.MotionTrainConfig(
            steps=steps, batch_size=TRAIN_BATCH, window=TRAIN_WINDOW, seed=self.seed
        )
        self.cal.sample()
        t0 = time.perf_counter()
        self.weights, self.history = lstm.train_lstm(self.dataset, config)
        return time.perf_counter() - t0

    def track(self, paths, out) -> tuple:
        """The path of `mono3dt track`; returns (busy seconds, frames)."""
        io, association = self.m["io"], self.m["association"]
        self.cal.sample()
        t0 = time.perf_counter()
        sequence = io.load_sequence(paths["detections"], paths["poses"])
        busy = time.perf_counter() - t0
        tracker = association.Tracker(self.config, sequence.intrinsics, self.tracking_weights)
        records = []
        for frame, (pose, dets) in enumerate(zip(sequence.poses, sequence.detections)):
            self.cal.sample()
            t0 = time.perf_counter()
            records.extend(tracker.step(frame, dets, pose))
            busy += time.perf_counter() - t0
        self.cal.sample()
        t0 = time.perf_counter()
        io.write_tracks(records, out)
        busy += time.perf_counter() - t0
        return busy, sequence.n_frames

    def evaluate(self, k: int) -> float:
        io, metrics = self.m["io"], self.m["metrics"]
        self.cal.sample()
        t0 = time.perf_counter()
        gt = io.load_tracks(self.paths[k]["gt"])
        predicted = io.load_tracks(self.paths[k]["tracks"])
        self.reports[k] = metrics.evaluate_tracks(gt, predicted, "3d")
        return time.perf_counter() - t0

    def round(self, measure: Measure, train_steps: int, scenes: int) -> None:
        """Train, track and evaluate once per scene.

        Each scene's track and evaluate times are normalised by the
        calibration samples taken during that scene's visit, so a short
        burst of host speed that the program does not share moves one
        scene's figure, not a round's.
        """
        import hostcal

        track_s = evaluate_s = train_s = norm_track_s = norm_evaluate_s = norm_train_s = 0.0
        frames = 0
        for k in range(scenes):
            first_sample = len(self.cal.samples)
            trained = self.train(train_steps)
            self.paths[k]["tracks"] = self.work / f"scene{k}" / "tracks.jsonl"
            busy, n = self.track(self.paths[k], self.paths[k]["tracks"])
            elapsed = self.evaluate(k)
            factor = self.cal.factor_since(first_sample)
            train_s += trained
            norm_train_s += trained * hostcal.train_factor(factor)
            track_s += busy
            evaluate_s += elapsed
            norm_track_s += busy * factor
            norm_evaluate_s += elapsed * factor
            frames += n
            measure.attempted += n + 2
        measure.train_ms_per_step.append(1e3 * norm_train_s / (train_steps * scenes))
        measure.raw_train_ms_per_step.append(1e3 * train_s / (train_steps * scenes))
        measure.train_steps += train_steps * scenes
        measure.track_ms_per_frame.append(1e3 * norm_track_s / frames)
        measure.evaluate_ms_per_frame.append(1e3 * norm_evaluate_s / frames)
        measure.raw_track_ms_per_frame.append(1e3 * track_s / frames)
        measure.raw_evaluate_ms_per_frame.append(1e3 * evaluate_s / frames)
        measure.frames += frames
        measure.passes += scenes


def check_outputs(bench: Bench) -> tuple:
    """Check the last round's outputs; returns (named results, all must be True; details)."""
    import numpy as np

    import outcheck
    import scenegen

    lstm = bench.m["lstm"]
    spec = bench.spec
    results = {"tracks_strict_json": True, "clear_recount": True}
    totals = {"FP": 0, "FN": 0, "MM": 0, "GT": 0, "matched": 0}
    for scene, paths, report in zip(bench.scenes, bench.paths, bench.reports):
        try:
            rows = outcheck.read_tracks_strict(paths["tracks"])
        except outcheck.CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            results["tracks_strict_json"] = False
            continue
        counts = outcheck.clear_counts(scene.gt, rows)
        ours = (counts["FP"], counts["FN"], counts["MM"], counts["GT"])
        results["clear_recount"] &= (report.fp, report.fn, report.mismatches, report.gt_total) == ours
        for key in totals:
            totals[key] += counts[key]

    scene = bench.scenes[0]
    prefix_frames = scene.n_frames // 2
    prefix_paths = scenegen.write_inputs(scene, bench.work / "prefix", frames=prefix_frames)
    bench.track(prefix_paths, bench.work / "prefix" / "tracks.jsonl")
    results["prefix_reproduced"] = outcheck.prefix_reproduced(
        bench.paths[0]["tracks"], bench.work / "prefix" / "tracks.jsonl", prefix_frames
    )

    recall = totals["matched"] / max(totals["GT"], 1)
    mm_rate = totals["MM"] / max(totals["GT"], 1)
    results["recall_floor"] = recall >= spec.recall_floor
    results["mm_ceiling"] = mm_rate <= spec.mm_ceiling
    trained = [bench.weights] + ([bench.tracking_weights] if bench.tracking_weights is not None else [])
    results["weights_finite"] = all(bool(np.all(np.isfinite(a))) for w in trained for a in w.arrays.values())
    details = {"recall": recall, "mm_per_gt": mm_rate, "clear": totals}
    if spec.backend == "lstm":
        history = bench.tracking_history
        results["loss_falls"] = statistics.fmean(history[-10:]) < 0.5 * statistics.fmean(history[:10])
        true, observed = bench.dataset[0]
        worst, checked, skipped = outcheck.gradient_check(
            lstm.forward_window,
            lstm.backward_window,
            bench.tracking_weights.copy(),
            np.asarray(observed[:TRAIN_WINDOW]),
            np.asarray(true[:TRAIN_WINDOW]),
            lstm.PARAM_SHAPES,
            np.random.default_rng(bench.seed),
        )
        results["gradient_check"] = bool(worst < 1e-4) and checked >= 30
        details.update(grad_rel_err=worst, grad_checked=checked, grad_skipped=skipped)
    return results, details


def run(args) -> dict:
    import layertrace

    spec = SPECS[args.workload]
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        if spec.backend == "lstm":
            bench.train(TRACKING_TRAIN_STEPS)
            bench.tracking_weights, bench.tracking_history = bench.weights, bench.history
        # warm-up: one short round on the first scene, untimed, so lazy
        # set-up and caches are done
        bench.round(Measure(), 1, 1)
        setup_s = time.perf_counter() - _T0
        bench.cal.samples.clear()

        tracer = None
        if args.trace:
            tracer = layertrace.Tracer()
            tracer.install()
        measure = Measure()
        t_start = time.perf_counter()
        round_s = 0.0
        while True:
            t0 = time.perf_counter()
            bench.round(measure, spec.train_steps, SCENES)
            round_s = max(round_s, time.perf_counter() - t0)
            if time.perf_counter() - t_start + round_s > args.seconds:
                break
        factor = bench.cal.factor
        layers = None
        if tracer is not None:
            layers = tracer.layer_metrics(
                measure.frames, measure.passes, measure.passes, measure.train_steps, factor
            )
            layers["host.calibration_us"] = (1e6 * bench.cal.median_s, "us")

        results, details = check_outputs(bench)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it

    rounds = {name: value for name, value in vars(measure).items() if isinstance(value, list)}
    raw = {
        "setup_s": setup_s,
        "track_ms_per_frame": statistics.median(measure.raw_track_ms_per_frame),
        "evaluate_ms_per_frame": statistics.median(measure.raw_evaluate_ms_per_frame),
        "train_ms_per_step": statistics.median(measure.raw_train_ms_per_step),
    }
    end_to_end = {
        # raw: normalising set-up widened its spread from 4% to 15%
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "track_ms_per_frame": (statistics.median(measure.track_ms_per_frame), "ms/frame"),
        "evaluate_ms_per_frame": (statistics.median(measure.evaluate_ms_per_frame), "ms/frame"),
        "train_ms_per_step": (statistics.median(measure.train_ms_per_step), "ms/step"),
    }
    metrics = layers if args.trace else end_to_end
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "checks": results,
        "details": details,
        "raw": raw,
        "normalised": {k: v for k, (v, _) in end_to_end.items()},
        "calibration_us_median": 1e6 * bench.cal.median_s,
        "calibration_samples": len(bench.cal.samples),
        "factor": factor,
        "rounds": rounds,
        "passes": measure.passes,
        "train_calls": len(measure.train_ms_per_step),
        "layers": {k: v for k, (v, _) in layers.items()} if layers else None,
    }
    print(json.dumps(summary, default=float), file=sys.stderr)
    return {
        "correct": all(results.values()),
        "attempted": measure.attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mono3dt" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
