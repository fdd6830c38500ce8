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
Tracks are TrackTables, as io.load_tracks reads them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import TrackStatus, TrackTable, first_repeat, take_rows
from .geometry import iou_2d_matrix, iou_3d_pairs

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


def _gate_rows(table: TrackTable, mode: str) -> np.ndarray:
    """The column the gate reads: image boxes (N, 4) in 2d mode, centers (N, 3) in 3d mode."""
    return table.box2d if mode == "2d" else table.center


def _frame_gate(gt_rows, pred_rows, mode: str):
    """(n, m) gate mask and assignment quality of every gt x prediction pair, from their _gate_rows.

    2d: the quality is the image-box IoU (also the overlap), gated at IOU_GATE_2D.
    3d: it is 1 - d / CENTER_GATE_3D_M for the BEV center distance d, gated at
    d <= CENTER_GATE_3D_M; sqrt(vecdot) is bit-equal to np.linalg.norm per pair.
    """
    if mode == "2d":
        overlap = iou_2d_matrix(gt_rows, pred_rows)
        return overlap >= IOU_GATE_2D, overlap
    diff = gt_rows[:, None, :2] - pred_rows[None, :, :2]
    dist = np.sqrt(np.vecdot(diff, diff))
    return dist <= CENTER_GATE_3D_M, 1.0 - dist / CENTER_GATE_3D_M


def _boxes(table: TrackTable, rows=slice(None)) -> tuple:
    """(centers, dims, yaws) of the table's rows: the boxes iou_3d_pairs reads."""
    return table.center[rows], table.dims[rows], table.yaw[rows]


def _pair_quality(gt: TrackTable, pred: TrackTable, mode: str):
    """(passes gate, overlap in [0,1], assignment score) of two one-row tables: the frame gate's one-pair call.

    In 3d mode a pair outside the center gate reports overlap 0 without computing its 3D IoU.
    match_sequence reads whole frames through _frame_gate instead; this stays because the
    benchmark tracer (bench/layertrace.py) wraps it by name.
    """
    gate, quality = _frame_gate(_gate_rows(gt, mode), _gate_rows(pred, mode), mode)
    ok, quality = bool(gate[0, 0]), float(quality[0, 0])
    if mode == "2d":
        return ok, quality, quality
    return ok, float(iou_3d_pairs(_boxes(gt), _boxes(pred))[0]) if ok else 0.0, quality


def match_sequence(gt: TrackTable, pred: TrackTable, mode: str = "3d") -> list:
    """CLEAR matching of every frame either table holds, in frame order: one FrameMatching per frame.

    Each frame keeps the previous frame's pairs whenever they still pass
    the gate, before the remaining rows are assigned by maximum total
    quality. A (frame, id) may appear at most once in each table
    (ValueError naming the side otherwise). Rows keep their table order
    within a frame.

    Occlusion-flagged rows are don't-care regions, the usual benchmark
    treatment of fully hidden objects: an occluded ground-truth row may be
    matched (keeping identity continuity alive) but never counts as a
    miss, and an unmatched occluded prediction is dead-reckoning output
    rather than a detection claim, so it never counts as a false positive.

    The 3d assignment reads only the distance quality, so the 3d overlaps
    of all pairs come from one iou_3d_pairs call at the end, written back
    in pair order.
    """
    for table, side in ((gt, "ground-truth"), (pred, "prediction")):
        repeat = first_repeat(table.frame, table.track_id)
        if repeat is not None:
            raise ValueError(f"{side} id {table.track_id[repeat]} repeats in frame {table.frame[repeat]}")
    frames = np.union1d(gt.frame, pred.frame)
    gt, pred = (take_rows(table, np.argsort(table.frame, kind="stable")) for table in (gt, pred))
    # each frame's row span (gt start, gt stop, pred start, pred stop)
    spans = zip(*(np.searchsorted(t.frame, frames, side).tolist() for t in (gt, pred) for side in ("left", "right")))
    matchings, prev_pairs = [], {}
    gt_hits, pred_hits = [], []  # table rows of every pair, in pair order
    gt_ids_all, pred_ids_all = gt.track_id.tolist(), pred.track_id.tolist()
    gt_hidden, pred_shown = gt.status == _OCCLUDED, pred.status != _OCCLUDED
    gt_gated, pred_gated = _gate_rows(gt, mode), _gate_rows(pred, mode)
    for g0, g1, p0, p1 in spans:
        gt_ids, pred_ids = gt_ids_all[g0:g1], pred_ids_all[p0:p1]
        gt_rows, pred_rows = dict(zip(gt_ids, range(g1 - g0))), dict(zip(pred_ids, range(p1 - p0)))
        gate, quality = _frame_gate(gt_gated[g0:g1], pred_gated[p0:p1], mode)
        pairs = [(gt_rows.get(g), pred_rows.get(p)) for g, p in prev_pairs.items()]  # (gt row, pred row)
        pairs = [(i, j) for i, j in pairs if i is not None and j is not None and gate[i, j]]
        free_gt, free_pred = np.ones(g1 - g0, bool), np.ones(p1 - p0, bool)
        free_gt[[i for i, _ in pairs]] = free_pred[[j for _, j in pairs]] = False
        rest_gt, rest_pred = np.flatnonzero(free_gt), np.flatnonzero(free_pred)
        if rest_gt.size and rest_pred.size:
            rest = np.ix_(rest_gt, rest_pred)
            rows, cols = linear_sum_assignment(np.where(gate[rest], quality[rest], -1e9), maximize=True)
            hit = gate[rest][rows, cols]
            pairs += zip(rest_gt[rows[hit]].tolist(), rest_pred[cols[hit]].tolist())
            free_gt[rest_gt[rows[hit]]] = free_pred[rest_pred[cols[hit]]] = False
        gt_hits.extend(g0 + i for i, _ in pairs)
        pred_hits.extend(p0 + j for _, j in pairs)
        matching = FrameMatching(
            # the quality is the overlap in 2d mode; 3d overlaps replace it below
            pairs=[(gt_ids[i], pred_ids[j], float(quality[i, j])) for i, j in pairs],
            fp=int(np.count_nonzero(free_pred & pred_shown[p0:p1])),
            fn=int(np.count_nonzero(free_gt & ~gt_hidden[g0:g1])),
            gt_ids=gt_ids,
            gt_ignored=frozenset(gt.track_id[g0:g1][gt_hidden[g0:g1]].tolist()),
        )
        matchings.append(matching)
        prev_pairs = {g: p for g, p, _ in matching.pairs}
    if mode == "3d":
        overlaps = iter(iou_3d_pairs(_boxes(gt, gt_hits), _boxes(pred, pred_hits)).tolist())
        for matching in matchings:
            matching.pairs = [(g, p, next(overlaps)) for g, p, _ in matching.pairs]
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


def evaluate_tracks(gt: TrackTable, pred: TrackTable, mode: str = "3d") -> ClearReport:
    return compute_clear(match_sequence(gt, pred, mode))


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

    pred_boxes are (K, 4) (x_min, y_min, x_max, y_max) rows. The per-pair
    offset (dx/width, dy/height) is read as an angle through its euclidean
    norm (clamped to pi): zero offset scores 1, an offset of norm pi
    scores 0.
    """
    gt = np.atleast_2d(np.asarray(gt_centers, dtype=float))
    pred = np.atleast_2d(np.asarray(pred_centers, dtype=float))
    boxes = np.asarray(pred_boxes, dtype=float).reshape(-1, 4)
    if gt.size == 0 or gt.shape != pred.shape or len(boxes) != len(gt):
        raise EmptyInput("need equal, non-empty center arrays")
    size = boxes[:, 2:] - boxes[:, :2]
    flat = (size <= 0).any(axis=1)
    if flat.any():
        raise DegenerateBox(f"predicted box has no extent: {boxes[flat][0].tolist()}")
    angle = np.minimum(np.linalg.norm((gt[:, :2] - pred[:, :2]) / size, axis=1), math.pi)
    return float(np.mean((1.0 + np.cos(angle)) / 2.0))


def ap_3d(gt: TrackTable, pred: TrackTable, scores, iou_thresholds=(0.25, 0.5, 0.7)) -> dict:
    """11-point interpolated average precision over 3D IoU thresholds.

    scores[k] is the confidence of pred's row k. Predictions are swept by
    descending score, ties in row order; each greedily claims the best-IoU
    unclaimed ground-truth box of its frame.
    """
    if not len(gt):
        return dict.fromkeys(iou_thresholds, 0.0)
    pred = take_rows(pred, np.argsort(-np.asarray(scores, dtype=float), kind="stable"))
    same_frame = pred.frame[:, None] == gt.frame[None, :]  # (predictions, ground truth)
    rows, cols = np.nonzero(same_frame)
    ious = np.zeros(same_frame.shape)
    ious[rows, cols] = iou_3d_pairs(_boxes(pred, rows), _boxes(gt, cols))
    results = {}
    for threshold in iou_thresholds:
        unclaimed = same_frame.copy()
        tp_flags = np.zeros(len(pred), bool)
        for k in range(len(pred)):
            overlaps = np.where(unclaimed[k], ious[k], 0.0)
            best = int(np.argmax(overlaps))  # the first of equal bests, in gt row order
            if overlaps[best] > 0.0 and overlaps[best] >= threshold:
                unclaimed[:, best] = False
                tp_flags[k] = True
        tp = np.cumsum(tp_flags, dtype=float)
        recalls, precisions = tp / len(gt), tp / np.arange(1, len(tp) + 1)
        ap = sum(float(np.max(precisions[recalls >= r - 1e-12], initial=0.0)) for r in np.linspace(0.0, 1.0, 11))
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
