"""Correctness checks on the program's outputs, made apart from the program.

Nothing here imports `mono3dt`: the checks parse the written files
themselves and re-count CLEAR events from the benchmark's own ground
truth, so a fault in the program's readers or metrics cannot hide one in
its tracker.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

CENTER_GATE_M = 2.0  # 3d-mode gate of metrics.py: BEV center distance
_STATUSES = ("tracked", "occluded", "lost")


class CheckError(AssertionError):
    pass


def _reject_constant(name):
    raise CheckError(f"non-strict JSON constant {name}")


def _finite_numbers(value) -> bool:
    if isinstance(value, bool):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    return True


def read_tracks_strict(path) -> list:
    """Parse tracks.jsonl as strict JSON and check every record.

    Rejects NaN and Infinity literals, numbers that overflow to infinity,
    a missing or wrong header, malformed records and a duplicate id
    within a frame. Returns the records in file order.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CheckError(f"{path}: empty file, missing header")
    try:
        header = json.loads(lines[0], parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path}:1: bad header: {exc}") from exc
    if header != {"format_version": 1, "kind": "tracks"}:
        raise CheckError(f"{path}:1: missing or wrong header {header!r}")
    rows = []
    seen = set()
    last_key = (-1, -1)
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            row = json.loads(line, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise CheckError(f"{path}:{line_no}: not JSON: {exc}") from exc
        except CheckError as exc:
            raise CheckError(f"{path}:{line_no}: {exc}") from exc
        if not _finite_numbers(row):
            raise CheckError(f"{path}:{line_no}: non-finite number")
        try:
            key = (int(row["frame"]), int(row["id"]))
            shapes = [len(row["P_m"]), len(row["dim_m"]), len(row["vel_mpf"]), len(row["box2d"])]
            yaw = float(row["yaw_rad"])
            status = row["status"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckError(f"{path}:{line_no}: malformed record: {exc}") from exc
        if shapes != [3, 3, 3, 4] or status not in _STATUSES or not 0.0 <= yaw < 2.0 * math.pi:
            raise CheckError(f"{path}:{line_no}: malformed record {row!r}")
        if min(row["dim_m"]) <= 0.0:
            raise CheckError(f"{path}:{line_no}: non-positive dimension")
        x0, y0, x1, y1 = row["box2d"]
        if x0 > x1 or y0 > y1:
            raise CheckError(f"{path}:{line_no}: inverted box2d")
        if key in seen:
            raise CheckError(f"{path}:{line_no}: duplicate id {key[1]} in frame {key[0]}")
        if key < last_key:
            raise CheckError(f"{path}:{line_no}: records not sorted by (frame, id)")
        seen.add(key)
        last_key = key
        rows.append(row)
    return rows


def _by_frame(rows) -> dict:
    frames: dict = {}
    for row in rows:
        frames.setdefault(row["frame"], []).append(row)
    return frames


def _gate(gt_row, pred_row):
    dx = gt_row["P_m"][0] - pred_row["P_m"][0]
    dy = gt_row["P_m"][1] - pred_row["P_m"][1]
    dist = math.sqrt(dx * dx + dy * dy)
    return dist <= CENTER_GATE_M, 1.0 - dist / CENTER_GATE_M


def clear_counts(gt_rows, pred_rows) -> dict:
    """Re-count CLEAR events in 3d mode under the definitions of metrics.py.

    Per frame, last frame's pairs are kept while they pass the gate (BEV
    center distance <= 2 m); the rest are assigned by maximum total
    quality 1 - distance / 2. Occluded ground-truth rows are don't-care:
    never a miss, and no anchor for identity changes. Unmatched occluded
    predictions are never false positives. MM counts identity changes of
    a ground-truth track between its visible matched frames.
    """
    gt_frames = _by_frame(gt_rows)
    pred_frames = _by_frame(pred_rows)
    fp = fn = mm = visible = matched_visible = 0
    prev: dict = {}
    last_pred: dict = {}
    for f in sorted(set(gt_frames) | set(pred_frames)):
        gts = {r["id"]: r for r in gt_frames.get(f, [])}
        preds = {r["id"]: r for r in pred_frames.get(f, [])}
        pairs = {}
        for g, p in prev.items():
            if g in gts and p in preds and _gate(gts[g], preds[p])[0]:
                pairs[g] = p
        used = set(pairs.values())
        rest_gt = [g for g in gts if g not in pairs]
        rest_pred = [p for p in preds if p not in used]
        if rest_gt and rest_pred:
            score = np.full((len(rest_gt), len(rest_pred)), -1e9)
            for i, g in enumerate(rest_gt):
                for j, p in enumerate(rest_pred):
                    ok, quality = _gate(gts[g], preds[p])
                    if ok:
                        score[i, j] = quality
            for r, c in zip(*linear_sum_assignment(score, maximize=True)):
                if score[r, c] > -1e8:
                    pairs[rest_gt[r]] = rest_pred[c]
        used = set(pairs.values())
        fp += sum(1 for p, row in preds.items() if p not in used and row["status"] != "occluded")
        for g, row in gts.items():
            if row["status"] == "occluded":
                continue
            visible += 1
            if g not in pairs:
                fn += 1
                continue
            matched_visible += 1
            if g in last_pred and last_pred[g] != pairs[g]:
                mm += 1
            last_pred[g] = pairs[g]
        prev = pairs
    return {"FP": fp, "FN": fn, "MM": mm, "GT": visible, "matched": matched_visible}


def prefix_reproduced(full_path, prefix_path, frames: int) -> bool:
    """True when the prefix run's file equals the full run's rows for frames < `frames`."""
    with open(full_path, "rb") as fh:
        full = fh.read().splitlines(keepends=True)
    with open(prefix_path, "rb") as fh:
        prefix = fh.read()
    expected = full[:1] + [line for line in full[1:] if json.loads(line)["frame"] < frames]
    return b"".join(expected) == prefix


def gradient_check(forward_window, backward_window, weights, obs, gt, param_shapes, rng, per_param=3, eps=1e-5):
    """Worst relative error of backward_window against central differences.

    An entry whose central difference at eps disagrees with the one at
    eps / 2 has an L1 kink within eps of it and is skipped. Gradients
    below 1e-5 are compared on that absolute scale, where central
    differences lose their digits to rounding.
    Returns (worst relative error, entries checked, entries skipped).
    """

    def central(flat, idx, h):
        orig = flat[idx]
        flat[idx] = orig + h
        plus, _ = forward_window(weights, obs, gt)
        flat[idx] = orig - h
        minus, _ = forward_window(weights, obs, gt)
        flat[idx] = orig
        return (plus - minus) / (2.0 * h)

    _, steps = forward_window(weights, obs, gt)
    grads = backward_window(weights, steps)
    worst = 0.0
    checked = skipped = 0
    for name in param_shapes:
        flat = weights.arrays[name].reshape(-1)
        for idx in rng.choice(flat.size, size=min(per_param, flat.size), replace=False):
            numeric = central(flat, idx, eps)
            half = central(flat, idx, eps / 2.0)
            if abs(numeric - half) > 1e-9 + 1e-6 * abs(numeric):
                skipped += 1
                continue
            analytic = grads[name].reshape(-1)[idx]
            worst = max(worst, abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-5))
            checked += 1
    return worst, checked, skipped
