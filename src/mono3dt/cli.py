"""Command-line pipelines: simulate, track, evaluate, train-motion, demo.

Every run writes a manifest.json next to its outputs with the resolved
configuration, seed, input/output paths, and per-stage wall-clock timings,
so results can be reproduced from the manifest alone.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
MONO3DT_LOG={error,info,debug} controls logging verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .association import run_sequence
from .data import ConfigError, TrackerConfig, take_rows
from .geometry import GeometryError, matvec
from .io import (
    FORMAT_VERSION,
    DimensionMismatch,
    FrameGapError,
    ParseError,
    UnsupportedFormatVersion,
    load_config,
    load_poses,
    load_sequence,
    load_tracks,
    write_tracks,
)
from .lstm import MotionTrainConfig, load_weights, sample_trajectories, save_weights, train_lstm
from .metrics import evaluate_tracks, format_report
from .simulator import PRESETS, ScenarioConfig, write_scenario

log = logging.getLogger("mono3dt")


class UsageError(Exception):
    pass


def _setup_logging():
    level = os.environ.get("MONO3DT_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(levelname)s %(message)s")


def _write_manifest(out_dir: Path, command: str, config: dict, seed, inputs: dict, outputs: dict, timings: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {k: str(v) for k, v in outputs.items()},
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n", encoding="utf-8")


# --- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    try:
        config = ScenarioConfig.make_preset(
            args.preset,
            seed=args.seed,
            frames=args.frames,
            noiseless=args.noiseless,
            **({"n_vehicles": args.vehicles} if args.vehicles is not None else {}),
            **({"dropout": args.dropout} if args.dropout is not None else {}),
        )
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    out_dir = Path(args.out)
    paths = write_scenario(config, out_dir)
    _write_manifest(
        out_dir,
        "simulate",
        asdict(config),
        config.seed,
        {},
        paths,
        {"simulate": time.perf_counter() - t0},
    )
    log.info("wrote scenario to %s", out_dir)
    print(f"simulated {config.preset} seed={config.seed} frames={config.frames} -> {out_dir}")
    return 0


# --- track -------------------------------------------------------------------


def _track_one(detections_path, poses_path, config: TrackerConfig, weights, out_path):
    t0 = time.perf_counter()
    sequence = load_sequence(detections_path, poses_path)
    t_load = time.perf_counter()
    records = run_sequence(sequence, config, weights)
    t_track = time.perf_counter()
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_tracks(records, out_path)
    t_write = time.perf_counter()
    return {
        "load": t_load - t0,
        "track": t_track - t_load,
        "write": t_write - t_track,
    }, len(records)


def cmd_track(args) -> int:
    try:
        config = load_config(Path(args.config)) if args.config else TrackerConfig().validate()
        if args.motion:
            config = config.replace(motion_backend=args.motion)
        weights = None
        if config.motion_backend == "lstm":
            if not args.weights:
                raise UsageError("--motion lstm requires --weights")
            weights = load_weights(args.weights)
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc

    detections = Path(args.detections)
    out = Path(args.out)

    if detections.is_dir():
        if args.poses:
            raise UsageError("--poses is for one sequence: a directory's sequences each read their own poses.json")
        # batch mode: each subdirectory with a detections.jsonl is a sequence
        sequences = sorted(
            d for d in detections.iterdir() if (d / "detections.jsonl").exists()
        )
        if not sequences:
            raise UsageError(f"no sequences under {detections}")
        # sequences are independent; fan them out over the usable cores, in
        # spawned workers because forking a process that holds BLAS threads
        # is unsafe
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(min(len(sequences), cores or 1), mp_context=spawn) as pool:
            futures = {
                seq_dir.name: pool.submit(
                    _track_one,
                    seq_dir / "detections.jsonl",
                    seq_dir / "poses.json",
                    config,
                    weights,
                    out / seq_dir.name / "tracks.jsonl",
                )
                for seq_dir in sequences
            }
            results = {name: fut.result() for name, fut in futures.items()}
        total = sum(sum(t.values()) for t, _ in results.values())
        _write_manifest(
            out,
            "track",
            config.to_dict(),
            None,
            {"detections": detections, **{f"{name}/poses": detections / name / "poses.json" for name in results}},
            {name: out / name / "tracks.jsonl" for name in results},
            {"total": total},
        )
        for name, (_, n) in sorted(results.items()):
            print(f"{name}: {n} track records")
        return 0

    if not args.poses:
        raise UsageError("--poses is required for a single detections file")
    poses = Path(args.poses)
    timings, n_records = _track_one(detections, poses, config, weights, out)
    _write_manifest(
        out.parent if out.suffix else out,
        "track",
        config.to_dict(),
        None,
        {"detections": detections, "poses": poses},
        {"tracks": out},
        timings,
    )
    print(f"tracked {n_records} records -> {out}")
    return 0


# --- evaluate ----------------------------------------------------------------


def _camera_depths(table, poses, tracks_path):
    """Camera-frame depth of every row's center under its frame's pose."""
    outside = (table.frame < 0) | (table.frame >= len(poses))
    if outside.any():
        frame = table.frame[outside][0]
        raise FrameGapError(f"{tracks_path}: frame {frame} outside pose range 0..{len(poses) - 1}")
    rotations = np.array([pose.rotation for pose in poses]).reshape(-1, 3, 3)[table.frame]
    translations = np.array([pose.translation for pose in poses]).reshape(-1, 3)[table.frame]
    return (matvec(rotations, table.center) + translations)[:, 2]


def cmd_evaluate(args) -> int:
    t0 = time.perf_counter()
    try:
        ranges = [float(r) for r in args.ranges.split(",") if r.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --ranges: {args.ranges!r}") from exc
    if not all(0.0 < r < math.inf for r in ranges):
        raise UsageError(f"bad --ranges: {args.ranges!r}: cutoffs must be finite and positive meters")
    if ranges and not args.poses:
        raise UsageError("--ranges needs --poses to compute camera distances")
    gt = load_tracks(args.gt)
    pred = load_tracks(args.pred)

    reports = {"all": evaluate_tracks(gt, pred, args.mode)}
    if ranges:
        _, poses = load_poses(args.poses)
        gt_depths = _camera_depths(gt, poses, args.gt)
        pred_depths = _camera_depths(pred, poses, args.pred)
        for cutoff in ranges:
            gt_sub, pred_sub = take_rows(gt, gt_depths <= cutoff), take_rows(pred, pred_depths <= cutoff)
            reports[f"{cutoff:g}m"] = evaluate_tracks(gt_sub, pred_sub, args.mode)

    for name, report in reports.items():
        print(format_report(report, f"{args.mode} range={name}"))
        print()
    doc = {
        "format_version": FORMAT_VERSION,
        "mode": args.mode,
        "reports": {name: report.as_dict() for name, report in reports.items()},
    }
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n", encoding="utf-8")
        _write_manifest(
            out.parent,
            "evaluate",
            {"mode": args.mode, "ranges": ranges},
            None,
            {"gt": args.gt, "pred": args.pred},
            {"report": out},
            {"evaluate": time.perf_counter() - t0},
        )
    return 0


# --- train-motion -------------------------------------------------------------


def cmd_train_motion(args) -> int:
    if args.epochs <= 0:
        raise UsageError("--epochs must be positive")
    if args.scenarios <= 0:
        raise UsageError("--scenarios must be positive")
    if args.window < 2:
        raise UsageError("--window must be at least 2")
    if args.batch_size < 1:
        raise UsageError("--batch-size must be positive")
    if args.trajectory_frames < args.window:
        raise UsageError("--trajectory-frames must be at least --window")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    dataset = sample_trajectories(rng, args.scenarios, length=args.trajectory_frames)
    config = MotionTrainConfig(
        steps=args.epochs, seed=args.seed, batch_size=args.batch_size, window=args.window
    )
    weights, history = train_lstm(dataset, config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_weights(weights, out)
    curve = out.with_suffix(".loss.csv")
    curve.write_text(
        "step,loss\n" + "\n".join(f"{i},{v:.10g}" for i, v in enumerate(history)) + "\n",
        encoding="utf-8",
    )
    _write_manifest(
        out.parent,
        "train-motion",
        {
            "scenarios": args.scenarios,
            "epochs": args.epochs,
            "batch_size": args.batch_size,
            "window": args.window,
            "trajectory_frames": args.trajectory_frames,
        },
        args.seed,
        {},
        {"weights": out, "loss_curve": curve},
        {"train": time.perf_counter() - t0},
    )
    print(f"trained {args.epochs} steps, final loss {history[-1]:.6g} -> {out}")
    return 0


# --- demo ---------------------------------------------------------------------


def cmd_demo(args) -> int:
    out = Path(args.out)
    try:
        config = ScenarioConfig.make_preset("crossing_occlusion", seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    paths = write_scenario(config, out / "scenario")
    tracks_path = out / "tracks.jsonl"
    _track_one(paths["detections"], paths["poses"], TrackerConfig().validate(), None, tracks_path)
    report = evaluate_tracks(load_tracks(paths["gt_tracks"]), load_tracks(tracks_path), "3d")
    print(format_report(report, f"demo crossing_occlusion seed={args.seed}"))
    doc = {"format_version": FORMAT_VERSION, "reports": {"all": report.as_dict()}}
    (out / "report.json").write_text(json.dumps(doc, indent=1, allow_nan=False), encoding="utf-8")
    return 0


# --- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mono3dt",
        description="Monocular 3D vehicle tracking: simulate, track, evaluate, train-motion.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    p.add_argument("--preset", choices=PRESETS, default="open_road")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--vehicles", type=int, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="run the online tracker over a sequence")
    p.add_argument("--detections", required=True, help="a detections.jsonl, or a directory of sequence directories")
    p.add_argument("--poses", default=None, help="poses.json of a single detections file")
    p.add_argument("--config", default=None)
    p.add_argument("--motion", choices=("none", "kf2d", "kf3d", "lstm"), default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("evaluate", help="score tracks against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--mode", choices=("2d", "3d"), default="3d")
    p.add_argument("--ranges", default="", help="comma-separated camera-range cutoffs in meters")
    p.add_argument("--poses", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train-motion", help="train the recurrent motion model")
    p.add_argument("--scenarios", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=2000, help="gradient steps")
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--trajectory-frames", type=int, default=40)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_motion)

    p = sub.add_parser("demo", help="simulate + track + evaluate a crossing scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ConfigError, UnsupportedFormatVersion) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, FrameGapError, DimensionMismatch, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
