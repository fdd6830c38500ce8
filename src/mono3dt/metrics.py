"""Tracking and 3D-estimation metrics.

CLEAR-style accounting with an explicit definition set, reproduced in
every report:

  MOTA  1 - (FP + FN + MM) / total ground-truth instances
  MOTP  mean matched overlap (2D IoU in 2d mode, 3D IoU in 3d mode)
  MM    identity changes on a ground-truth track that keeps being covered
  FRAG  interruptions of continuous same-identity coverage (an identity
        change or a resume after a coverage gap)
  MT/ML fraction of ground-truth tracks covered >= 80% / <= 20%

Matching prefers the previous frame's correspondences while they still
pass the gate, then fills in the rest with a maximum-quality bipartite
assignment. Gates: 2d mode IoU >= 0.5; 3d mode BEV center distance <= 2 m.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import TrackStatus
from .geometry import iou_2d, iou_3d

IOU_GATE_2D = 0.5
CENTER_GATE_3D_M = 2.0
_OCCLUDED = TrackStatus.OCCLUDED


class EmptyInput(ValueError):
    pass


class DegenerateBox(ValueError):
    pass


@dataclass
class FrameMatching:
    pairs: list  # (gt_id, pred_id, overlap score in [0, 1])
    fp: int
    fn: int
    gt_ids: list
    gt_ignored: frozenset = frozenset()  # occlusion-flagged gt (don't care)


@dataclass
class ClearReport:
    mota: float
    motp: float
    mismatches: int
    fp: int
    fn: int
    frag: int
    mostly_tracked: float
    mostly_lost: float
    gt_total: int
    matches: int

    def as_dict(self) -> dict:
        return {
            "MOTA": self.mota,
            "MOTP": self.motp,
            "MM": self.mismatches,
            "FP": self.fp,
            "FN": self.fn,
            "FRAG": self.frag,
            "MT": self.mostly_tracked,
            "ML": self.mostly_lost,
            "GT": self.gt_total,
            "matches": self.matches,
        }


def _pair_quality(gt_rec, pred_rec, mode: str):
    """(passes gate, overlap in [0,1], assignment score) for one pair.

    In 3d mode a pair outside the center gate reports overlap 0 without
    computing iou_3d.
    """
    if mode == "2d":
        overlap = iou_2d(gt_rec.box2d_projected, pred_rec.box2d_projected)
        return overlap >= IOU_GATE_2D, overlap, overlap
    dist = float(np.linalg.norm(gt_rec.box3d.center[:2] - pred_rec.box3d.center[:2]))
    quality = 1.0 - dist / CENTER_GATE_3D_M
    if not dist <= CENTER_GATE_3D_M:
        # no caller reads the overlap of a pair outside the gate
        return False, 0.0, quality
    return True, iou_3d(gt_rec.box3d, pred_rec.box3d), quality


def match_frame(gt_records, pred_records, prev_pairs: dict, mode: str = "3d") -> FrameMatching:
    """CLEAR matching for one frame.

    prev_pairs maps gt_id -> pred_id from the previous frame; such pairs
    are kept whenever they still pass the gate, before the remaining
    records are assigned by maximum total quality.

    Occlusion-flagged rows are don't-care regions, the usual benchmark
    treatment of fully hidden objects: an occluded ground-truth row may be
    matched (keeping identity continuity alive) but never counts as a
    miss, and an unmatched occluded prediction is dead-reckoning output
    rather than a detection claim, so it never counts as a false positive.
    """
    gt_ids = [r.track_id for r in gt_records]
    pred_ids = [r.track_id for r in pred_records]
    gt_by_id = {r.track_id: r for r in gt_records}
    pred_by_id = {r.track_id: r for r in pred_records}
    gt_ignored = frozenset(r.track_id for r in gt_records if r.status == _OCCLUDED)

    pairs = []
    used_gt = set()
    used_pred = set()
    for gt_id, pred_id in prev_pairs.items():
        if gt_id in gt_by_id and pred_id in pred_by_id:
            ok, overlap, _ = _pair_quality(gt_by_id[gt_id], pred_by_id[pred_id], mode)
            if ok:
                pairs.append((gt_id, pred_id, overlap))
                used_gt.add(gt_id)
                used_pred.add(pred_id)

    rest_gt = [g for g in gt_ids if g not in used_gt]
    rest_pred = [p for p in pred_ids if p not in used_pred]
    if rest_gt and rest_pred:
        score = np.full((len(rest_gt), len(rest_pred)), -1e9)
        overlaps = np.zeros_like(score)
        for i, g in enumerate(rest_gt):
            for j, p in enumerate(rest_pred):
                ok, overlap, quality = _pair_quality(gt_by_id[g], pred_by_id[p], mode)
                if ok:
                    score[i, j] = quality
                    overlaps[i, j] = overlap
        rows, cols = linear_sum_assignment(score, maximize=True)
        for r, c in zip(rows, cols):
            if score[r, c] <= -1e8:
                continue
            pairs.append((rest_gt[r], rest_pred[c], float(overlaps[r, c])))
            used_gt.add(rest_gt[r])
            used_pred.add(rest_pred[c])

    fn = sum(1 for g in gt_ids if g not in used_gt and g not in gt_ignored)
    fp = 0
    for r in pred_records:
        if r.track_id in used_pred:
            continue
        if r.status == _OCCLUDED:
            continue
        fp += 1
    return FrameMatching(
        pairs=pairs,
        fp=fp,
        fn=fn,
        gt_ids=gt_ids,
        gt_ignored=gt_ignored,
    )


def _records_by_frame(records):
    by_frame = defaultdict(list)
    for r in records:
        by_frame[r.frame_index].append(r)
    return by_frame


def match_sequence(gt_records, pred_records, mode: str = "3d"):
    """Run match_frame over all frames, threading previous correspondences."""
    gt_frames = _records_by_frame(gt_records)
    pred_frames = _records_by_frame(pred_records)
    frames = sorted(set(gt_frames) | set(pred_frames))
    matchings = []
    prev_pairs: dict = {}
    for f in frames:
        matching = match_frame(gt_frames.get(f, []), pred_frames.get(f, []), prev_pairs, mode)
        matchings.append(matching)
        prev_pairs = {g: p for g, p, _ in matching.pairs}
    return matchings


def compute_clear(matchings) -> ClearReport:
    """Aggregate per-frame matchings into the CLEAR report.

    Occlusion-flagged ground-truth rows are excluded from the instance
    count, coverage ratios, and the mismatch anchor: identity changes are
    judged between visible stretches, so a flip that happens and reverts
    entirely behind an occluder is not charged.
    """
    fp = fn = mm = frag = 0
    gt_total = 0
    overlaps = []
    last_scored_pred: dict = {}  # gt_id -> pred_id at its last visible covered frame
    frames_seen = defaultdict(int)
    frames_covered = defaultdict(int)
    gt_gap: dict = {}  # gt_id -> True if a visible coverage gap since last covered frame

    for matching in matchings:
        fp += matching.fp
        fn += matching.fn
        scored_gt = [g for g in matching.gt_ids if g not in matching.gt_ignored]
        gt_total += len(scored_gt)
        matched_gt = {g: p for g, p, _ in matching.pairs}
        overlaps.extend(ov for g, _, ov in matching.pairs if g not in matching.gt_ignored)
        for g in scored_gt:
            frames_seen[g] += 1
            if g in matched_gt:
                frames_covered[g] += 1
                p = matched_gt[g]
                if g in last_scored_pred:
                    id_changed = last_scored_pred[g] != p
                    if id_changed:
                        mm += 1
                    if id_changed or gt_gap.get(g, False):
                        frag += 1
                last_scored_pred[g] = p
                gt_gap[g] = False
            else:
                if g in last_scored_pred:
                    gt_gap[g] = True

    mota = 1.0 - (fp + fn + mm) / gt_total if gt_total > 0 else 1.0
    motp = float(np.mean(overlaps)) if overlaps else 0.0
    ratios = [frames_covered[g] / frames_seen[g] for g in frames_seen]
    mt = float(np.mean([r >= 0.8 for r in ratios])) if ratios else 0.0
    ml = float(np.mean([r <= 0.2 for r in ratios])) if ratios else 0.0
    return ClearReport(
        mota=mota,
        motp=motp,
        mismatches=mm,
        fp=fp,
        fn=fn,
        frag=frag,
        mostly_tracked=mt,
        mostly_lost=ml,
        gt_total=gt_total,
        matches=len(overlaps),
    )


def evaluate_tracks(gt_records, pred_records, mode: str = "3d") -> ClearReport:
    return compute_clear(match_sequence(gt_records, pred_records, mode))


# --- 3D estimation metrics ---------------------------------------------------


def depth_metrics(gt_depths, pred_depths) -> dict:
    """Object-level depth error and threshold-accuracy metrics."""
    gt = np.asarray(gt_depths, dtype=float)
    pred = np.asarray(pred_depths, dtype=float)
    if gt.size == 0 or gt.shape != pred.shape:
        raise EmptyInput("need equal, non-empty depth arrays")
    if np.any(gt <= 0) or np.any(pred <= 0):
        raise ValueError("depths must be positive")
    err = pred - gt
    ratio = np.maximum(pred / gt, gt / pred)
    return {
        "abs_rel": float(np.mean(np.abs(err) / gt)),
        "sq_rel": float(np.mean(err * err / gt)),
        "rmse": float(np.sqrt(np.mean(err * err))),
        "rmse_log": float(np.sqrt(np.mean((np.log(pred) - np.log(gt)) ** 2))),
        "delta_1": float(np.mean(ratio < 1.25)),
        "delta_2": float(np.mean(ratio < 1.25**2)),
        "delta_3": float(np.mean(ratio < 1.25**3)),
    }


def orientation_score(gt_yaws, pred_yaws) -> float:
    """Mean (1 + cos(yaw error)) / 2 over matched pairs."""
    gt = np.asarray(gt_yaws, dtype=float)
    pred = np.asarray(pred_yaws, dtype=float)
    if gt.size == 0 or gt.shape != pred.shape:
        raise EmptyInput("need equal, non-empty yaw arrays")
    return float(np.mean((1.0 + np.cos(gt - pred)) / 2.0))


def dimension_score(gt_dims, pred_dims) -> float:
    """Mean min(V_pred/V_gt, V_gt/V_pred) over matched pairs."""
    gt = np.atleast_2d(np.asarray(gt_dims, dtype=float))
    pred = np.atleast_2d(np.asarray(pred_dims, dtype=float))
    if gt.size == 0 or gt.shape != pred.shape:
        raise EmptyInput("need equal, non-empty dimension arrays")
    if np.any(gt <= 0) or np.any(pred <= 0):
        raise ValueError("dimensions must be positive")
    v_gt = np.prod(gt, axis=1)
    v_pred = np.prod(pred, axis=1)
    return float(np.mean(np.minimum(v_pred / v_gt, v_gt / v_pred)))


def center_score(gt_centers, pred_centers, pred_boxes) -> float:
    """Closeness of projected 3D centers, normalized by predicted box size.

    The per-pair offset (dx/width, dy/height) is read as an angle through
    its euclidean norm (clamped to pi): zero offset scores 1, an offset of
    norm pi scores 0.
    """
    gt = np.atleast_2d(np.asarray(gt_centers, dtype=float))
    pred = np.atleast_2d(np.asarray(pred_centers, dtype=float))
    if gt.size == 0 or gt.shape != pred.shape or len(pred_boxes) != len(gt):
        raise EmptyInput("need equal, non-empty center arrays")
    scores = []
    for g, p, box in zip(gt, pred, pred_boxes):
        if box.width <= 0 or box.height <= 0:
            raise DegenerateBox(f"predicted box has no extent: {box}")
        offset = np.array([(g[0] - p[0]) / box.width, (g[1] - p[1]) / box.height])
        angle = min(float(np.linalg.norm(offset)), math.pi)
        scores.append((1.0 + math.cos(angle)) / 2.0)
    return float(np.mean(scores))


def ap_3d(gt_records, pred_records_scored, iou_thresholds=(0.25, 0.5, 0.7)) -> dict:
    """11-point interpolated average precision over 3D IoU thresholds.

    pred_records_scored: iterable of (TrackRecord, score). Predictions are
    swept by descending score; each greedily claims the best-IoU unmatched
    ground-truth box in its frame.
    """
    gt_frames = _records_by_frame(gt_records)
    n_gt = len(gt_records)
    preds = sorted(pred_records_scored, key=lambda rs: -rs[1])
    results = {}
    for threshold in iou_thresholds:
        claimed = defaultdict(set)
        tp_flags = []
        for rec, _score in preds:
            candidates = gt_frames.get(rec.frame_index, [])
            best_iou = 0.0
            best_idx = None
            for idx, gt_rec in enumerate(candidates):
                if idx in claimed[rec.frame_index]:
                    continue
                overlap = iou_3d(rec.box3d, gt_rec.box3d)
                if overlap > best_iou:
                    best_iou = overlap
                    best_idx = idx
            if best_idx is not None and best_iou >= threshold:
                claimed[rec.frame_index].add(best_idx)
                tp_flags.append(True)
            else:
                tp_flags.append(False)
        if n_gt == 0:
            results[threshold] = 0.0
            continue
        tp = np.cumsum(tp_flags) if tp_flags else np.array([])
        fp = np.cumsum([not f for f in tp_flags]) if tp_flags else np.array([])
        recalls = tp / n_gt if len(tp) else np.array([0.0])
        precisions = tp / np.maximum(tp + fp, 1) if len(tp) else np.array([0.0])
        ap = 0.0
        for r in np.linspace(0.0, 1.0, 11):
            mask = recalls >= r - 1e-12
            ap += float(np.max(precisions[mask])) if np.any(mask) else 0.0
        results[threshold] = ap / 11.0
    return results


def format_report(report: ClearReport, title: str = "tracking") -> str:
    """Aligned plain-text table for one CLEAR report."""
    d = report.as_dict()
    lines = [
        f"== {title} ==",
        "definitions: MOTA=1-(FP+FN+MM)/GT; MOTP=mean matched IoU;",
        "MM=id change on covered gt track; FRAG=same-id coverage interruptions;",
        "MT/ML=gt tracks covered >=80% / <=20%",
        f"{'metric':<8}{'value':>12}",
    ]
    for key in ("MOTA", "MOTP", "MM", "FP", "FN", "FRAG", "MT", "ML", "GT", "matches"):
        value = d[key]
        text = f"{value:.4f}" if isinstance(value, float) else str(value)
        lines.append(f"{key:<8}{text:>12}")
    return "\n".join(lines)
