"""CLEAR metric accounting, 3D-estimation scores, and AP sweeps."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from mono3dt.data import TrackRecord, TrackStatus, TrackTable
from mono3dt.geometry import iou_2d, iou_3d, normalize_angle
from mono3dt.metrics import (
    CENTER_GATE_3D_M,
    IOU_GATE_2D,
    DegenerateBox,
    EmptyInput,
    ap_3d,
    center_score,
    compute_clear,
    depth_metrics,
    dimension_score,
    evaluate_tracks,
    format_report,
    match_frame,
    match_sequence,
    orientation_score,
)
from mono3dt.metrics import _frame_gate, _gate_rows, _pair_quality

from conftest import box_row, reference_iou_3d


def rec(frame, tid, x, y=0.0, status=TrackStatus.TRACKED, dims=(4.0, 2.0, 1.5), yaw=0.0):
    # image box is only used in 2d mode; give it a deterministic stand-in
    box2d = [10 * x, 10 * y + 500, 10 * x + 40, 10 * y + 530]
    return TrackRecord(frame, tid, [x, y, dims[2] / 2], list(dims), normalize_angle(yaw), [0, 0, 0], box2d, status)


def box3d(r) -> tuple:
    return box_row(r.center, r.dims, r.yaw)


class TestMatchFrame:
    def test_identical_sets_fully_matched(self):
        gt = [rec(0, 0, 10.0), rec(0, 1, 20.0)]
        pred = [rec(0, 5, 10.0), rec(0, 6, 20.0)]
        m = match_frame(gt, pred, {}, mode="3d")
        assert len(m.pairs) == 2 and m.fp == 0 and m.fn == 0

    def test_lone_prediction_is_fp(self):
        m = match_frame([], [rec(0, 3, 10.0)], {}, mode="3d")
        assert m.fp == 1 and m.fn == 0

    def test_lone_gt_is_fn(self):
        m = match_frame([rec(0, 3, 10.0)], [], {}, mode="3d")
        assert m.fn == 1 and m.fp == 0

    def test_previous_pairs_preferred(self):
        # two preds both within gate of one gt; continuity must win
        gt = [rec(0, 0, 10.0)]
        preds = [rec(0, 7, 10.4), rec(0, 8, 10.0)]
        m = match_frame(gt, preds, {0: 7}, mode="3d")
        assert (0, 7) in [(g, p) for g, p, _ in m.pairs]

    def test_gate_violation_matches_brute_force(self):
        gt = [rec(0, 0, 10.0), rec(0, 1, 20.0), rec(0, 2, 30.0)]
        # pred 12 sits 3 m from every gt in BEV: outside the 2 m gate
        preds = [rec(0, 10, 10.5), rec(0, 11, 20.5), rec(0, 12, 26.0)]
        m = match_frame(gt, preds, {}, mode="3d")
        got = {(g, p) for g, p, _ in m.pairs}

        def dist(i, j):
            return abs([10.0, 20.0, 30.0][i] - [10.5, 20.5, 26.0][j])

        best = None
        for k in range(4):
            for gsub in itertools.permutations(range(3), k):
                for psub in itertools.permutations(range(3), k):
                    if all(dist(g, p) <= CENTER_GATE_3D_M for g, p in zip(gsub, psub)):
                        cand = set(zip(gsub, psub))
                        if best is None or len(cand) > len(best):
                            best = cand
        assert {(g, p + 10) for g, p in best} == got
        assert m.fn == 1 and m.fp == 1



def reference_match_frame(gt_records, pred_records, prev_pairs, mode):
    """The per-pair matcher that match_frame's frame gate replaced, kept as its oracle."""

    def pair_quality(gt_rec, pred_rec):
        if mode == "2d":
            overlap = iou_2d(gt_rec.box2d, pred_rec.box2d)
            return overlap >= IOU_GATE_2D, overlap, overlap
        dist = float(np.linalg.norm(np.subtract(gt_rec.center[:2], pred_rec.center[:2])))
        quality = 1.0 - dist / CENTER_GATE_3D_M
        if not dist <= CENTER_GATE_3D_M:
            return False, 0.0, quality
        return True, reference_iou_3d(box3d(gt_rec), box3d(pred_rec)), quality

    gt_by_id = {r.track_id: r for r in gt_records}
    pred_by_id = {r.track_id: r for r in pred_records}
    pairs, used_gt, used_pred = [], set(), set()
    for gt_id, pred_id in prev_pairs.items():
        if gt_id in gt_by_id and pred_id in pred_by_id:
            ok, overlap, _ = pair_quality(gt_by_id[gt_id], pred_by_id[pred_id])
            if ok:
                pairs.append((gt_id, pred_id, overlap))
                used_gt.add(gt_id)
                used_pred.add(pred_id)
    rest_gt = [r.track_id for r in gt_records if r.track_id not in used_gt]
    rest_pred = [r.track_id for r in pred_records if r.track_id not in used_pred]
    if rest_gt and rest_pred:
        score = np.full((len(rest_gt), len(rest_pred)), -1e9)
        overlaps = np.zeros_like(score)
        for i, g in enumerate(rest_gt):
            for j, p in enumerate(rest_pred):
                ok, overlap, quality = pair_quality(gt_by_id[g], pred_by_id[p])
                if ok:
                    score[i, j] = quality
                    overlaps[i, j] = overlap
        rows, cols = linear_sum_assignment(score, maximize=True)
        for r, c in zip(rows, cols):
            if score[r, c] > -1e8:
                pairs.append((rest_gt[r], rest_pred[c], float(overlaps[r, c])))
                used_gt.add(rest_gt[r])
                used_pred.add(rest_pred[c])
    fn = sum(1 for r in gt_records if r.track_id not in used_gt and r.status != TrackStatus.OCCLUDED)
    fp = sum(1 for r in pred_records if r.track_id not in used_pred and r.status != TrackStatus.OCCLUDED)
    return pairs, fp, fn


def random_frames(seed, frames=40):
    """Crowded frames on a half-metre grid, so center distances of exactly 2 m and
    tied qualities occur; prediction ids mostly follow their ground truth."""
    rng = np.random.default_rng(seed)
    gt, pred = [], []
    for f in range(frames):
        gt_ids = rng.choice(15, size=rng.integers(0, 13), replace=False).tolist()
        clutter = rng.choice(10, size=rng.integers(0, 4), replace=False) + 60
        for tid in gt_ids:
            x, y = rng.integers(0, 16, 2) * 0.5
            status = TrackStatus.OCCLUDED if rng.random() < 0.15 else TrackStatus.TRACKED
            gt.append(rec(f, tid, 10.0 + x, y, status=status, yaw=rng.uniform(0, 2 * math.pi)))
            if rng.random() < 0.85:
                dx, dy = rng.integers(-4, 5, 2) * 0.5 if rng.random() < 0.5 else rng.normal(scale=0.8, size=2)
                pid = tid + 20 if rng.random() < 0.9 else tid + 40
                pred.append(rec(f, pid, 10.0 + x + dx, y + dy, status=status, yaw=rng.uniform(0, 2 * math.pi)))
        for pid in clutter.tolist():
            x, y = rng.integers(0, 16, 2) * 0.5
            pred.append(rec(f, pid, 10.0 + x, y))
    return gt, pred


class TestFrameGate:
    def test_3d_gate_bit_equal_to_per_pair_norm(self):
        rng = np.random.default_rng(41)
        # half on a half-metre grid (distances of exactly 2 m), half anywhere
        xy = np.concatenate([rng.integers(0, 12, (40, 2)) * 0.5, rng.uniform(0, 6, (30, 2))])
        gt = [rec(0, i, 10.0 + x, y) for i, (x, y) in enumerate(xy[::2].tolist())]
        pred = [rec(0, i, 10.0 + x, y) for i, (x, y) in enumerate(xy[1::2].tolist())]
        gate, quality = _frame_gate(TrackTable.from_records(gt).center, TrackTable.from_records(pred).center, "3d")
        at_gate = 0
        for i, g in enumerate(gt):
            for j, p in enumerate(pred):
                dist = float(np.linalg.norm(np.subtract(g.center[:2], p.center[:2])))
                assert quality[i, j] == 1.0 - dist / CENTER_GATE_3D_M
                assert gate[i, j] == (dist <= CENTER_GATE_3D_M)
                at_gate += dist == CENTER_GATE_3D_M
        assert at_gate > 0 and 0 < np.count_nonzero(gate) < gate.size

    def test_2d_gate_bit_equal_to_per_pair_iou(self):
        gt, pred = random_frames(43, frames=1)[0], random_frames(44, frames=1)[1]
        gate, quality = _frame_gate(TrackTable.from_records(gt).box2d, TrackTable.from_records(pred).box2d, "2d")
        for i, g in enumerate(gt):
            for j, p in enumerate(pred):
                assert quality[i, j] == iou_2d(g.box2d, p.box2d)
        assert np.array_equal(gate, quality >= IOU_GATE_2D) and np.any(gate)

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    def test_pair_quality_is_the_one_pair_gate(self, mode):
        gt, pred = random_frames(45, frames=1)
        gate, quality = _frame_gate(*(_gate_rows(TrackTable.from_records(r), mode) for r in (gt, pred)), mode)
        for i, g in enumerate(gt):
            for j, p in enumerate(pred):
                ok, overlap, score = _pair_quality(g, p, mode)
                assert type(ok) is bool and ok == gate[i, j] and score == quality[i, j]
                if mode == "3d":
                    assert overlap == (iou_3d(box3d(g), box3d(p)) if ok else 0.0)

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sequence_matches_per_pair_reference(self, mode, seed):
        gt, pred = random_frames(seed)
        prev, matched = {}, 0
        frames = sorted({r.frame for r in gt + pred})
        for f, matching in zip(frames, match_sequence(gt, pred, mode), strict=True):
            frame_gt = [r for r in gt if r.frame == f]
            pairs, fp, fn = reference_match_frame(frame_gt, [r for r in pred if r.frame == f], prev, mode)
            assert [(g, p) for g, p, _ in matching.pairs] == [(g, p) for g, p, _ in pairs]
            got = np.array([ov for _, _, ov in matching.pairs])
            assert np.max(np.abs(got - [ov for _, _, ov in pairs]), initial=0.0) <= (0.0 if mode == "2d" else 1e-12)
            assert (matching.fp, matching.fn, matching.gt_ids) == (fp, fn, [r.track_id for r in frame_gt])
            prev = {g: p for g, p, _ in pairs}
            matched += len(pairs)
        assert matched > 50


class TestRepeatedIds:
    @pytest.mark.parametrize("mode", ["2d", "3d"])
    def test_repeated_prediction_id_raises(self, mode):
        # two rows of prediction 7 near two ground-truth cars: the matching
        # must not pick one of them silently
        gt = [rec(0, 1, 10.0), rec(0, 2, 10.5)]
        pred = [rec(0, 7, 10.0), rec(0, 7, 10.4)]
        with pytest.raises(ValueError, match="prediction id 7 repeats in frame 0"):
            evaluate_tracks(gt, pred, mode)

    def test_repeated_ground_truth_id_raises(self):
        with pytest.raises(ValueError, match="ground-truth id 1 repeats in frame 3"):
            match_frame([rec(3, 1, 10.0), rec(3, 1, 30.0)], [rec(3, 5, 10.0)], {}, "3d")

class TestComputeClear:
    def test_perfect_tracking(self):
        gt = [rec(f, 0, 10.0 + f) for f in range(5)]
        pred = [rec(f, 9, 10.0 + f) for f in range(5)]
        report = evaluate_tracks(gt, pred, "3d")
        assert report.mota == 1.0 and report.mismatches == 0
        assert report.fp == 0 and report.fn == 0
        assert report.mostly_tracked == 1.0

    def test_hand_counted_mota_point_seven(self):
        # 10 gt instances: two tracks over five frames each
        gt = [rec(f, 0, 10.0 + f) for f in range(5)] + [rec(f, 1, 30.0 + f) for f in range(5)]
        pred = []
        for f in range(5):
            pred_id = 100 if f < 3 else 101  # id switch on track 0 at f=3: 1 MM
            pred.append(rec(f, pred_id, 10.0 + f))
            if f != 2:  # miss track 1 at f=2: 1 FN
                pred.append(rec(f, 200, 30.0 + f))
        pred.append(rec(0, 300, 80.0))  # far away: 1 FP
        report = evaluate_tracks(gt, pred, "3d")
        assert report.fp == 1 and report.fn == 1 and report.mismatches == 1
        assert report.gt_total == 10
        assert report.mota == pytest.approx(0.7)

    def test_id_swap_counts_mm_and_frag(self):
        gt = [rec(f, 0, 10.0 + f) for f in range(10)]
        pred = [rec(f, 100 if f < 5 else 101, 10.0 + f) for f in range(10)]
        report = evaluate_tracks(gt, pred, "3d")
        assert report.mismatches == 1
        assert report.frag >= 1
        assert report.fn == 0 and report.fp == 0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        gt, pred = [], []
        for f in range(12):
            for tid in range(4):
                x = 10.0 + 3 * tid + 0.5 * f
                gt.append(rec(f, tid, x))
                if rng.random() > 0.1:
                    pred.append(rec(f, tid + 50, x + rng.uniform(-0.5, 0.5)))
        base = evaluate_tracks(gt, pred, "3d")
        relabel = {50: 907, 51: 3, 52: 88, 53: 1000}
        pred2 = [r._replace(track_id=relabel[r.track_id]) for r in pred]
        again = evaluate_tracks(gt, pred2, "3d")
        assert again.mota == base.mota
        assert again.mismatches == base.mismatches

    def test_empty_predictions(self):
        gt = [rec(f, 0, 10.0) for f in range(5)]
        report = evaluate_tracks(gt, [], "3d")
        assert report.fp == 0 and report.fn == 5
        assert report.mota == pytest.approx(0.0)
        assert report.mota <= 0.0

    def test_occluded_gt_rows_are_dont_care(self):
        gt = [rec(f, 0, 10.0 + f) for f in range(3)]
        gt += [rec(3, 0, 13.0, status=TrackStatus.OCCLUDED)]
        gt += [rec(4, 0, 14.0)]
        pred = [rec(f, 9, 10.0 + f) for f in range(3)] + [rec(4, 9, 14.0)]
        report = evaluate_tracks(gt, pred, "3d")
        assert report.fn == 0 and report.gt_total == 4
        assert report.mota == 1.0

    def test_unmatched_occluded_prediction_not_fp(self):
        gt = [rec(0, 0, 10.0)]
        pred = [rec(0, 9, 10.0), rec(0, 10, 50.0, status=TrackStatus.OCCLUDED)]
        report = evaluate_tracks(gt, pred, "3d")
        assert report.fp == 0 and report.mota == 1.0

    def test_mm_counted_across_occlusion_gap(self):
        gt = [rec(f, 0, 10.0 + f) for f in range(3)]
        gt += [rec(f, 0, 10.0 + f, status=TrackStatus.OCCLUDED) for f in range(3, 6)]
        gt += [rec(f, 0, 10.0 + f) for f in range(6, 9)]
        pred = [rec(f, 100, 10.0 + f) for f in range(3)]
        pred += [rec(f, 101, 10.0 + f) for f in range(6, 9)]  # new id after occlusion
        report = evaluate_tracks(gt, pred, "3d")
        assert report.mismatches == 1

    def test_report_formatting(self):
        gt = [rec(0, 0, 10.0)]
        report = evaluate_tracks(gt, [rec(0, 1, 10.0)], "3d")
        text = format_report(report, "unit")
        assert "MOTA" in text and "FRAG" in text and "unit" in text


class TestDepthMetrics:
    def test_perfect(self):
        out = depth_metrics([5.0, 10.0, 20.0], [5.0, 10.0, 20.0])
        assert out["abs_rel"] == 0.0 and out["rmse"] == 0.0
        assert out["delta_1"] == 1.0 and out["delta_3"] == 1.0

    def test_uniform_scale_error(self):
        gt = np.array([5.0, 10.0, 20.0])
        out = depth_metrics(gt, 1.3 * gt)
        assert out["abs_rel"] == pytest.approx(0.3)
        assert out["delta_1"] == 0.0
        assert out["delta_2"] == 1.0

    def test_single_pair(self):
        out = depth_metrics([10.0], [8.0])
        assert out["rmse"] == pytest.approx(2.0)
        assert out["abs_rel"] == pytest.approx(0.2)

    def test_scale_consistency(self):
        rng = np.random.default_rng(8)
        gt = rng.uniform(5, 80, 50)
        pred = gt * rng.uniform(0.8, 1.2, 50)
        a = depth_metrics(gt, pred)
        b = depth_metrics(3.7 * gt, 3.7 * pred)
        for key in ("abs_rel", "delta_1", "delta_2", "delta_3"):
            assert a[key] == pytest.approx(b[key])

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            depth_metrics([], [])


class TestScores:
    def test_orientation_equal(self):
        assert orientation_score([0.4, 1.0], [0.4, 1.0]) == 1.0

    def test_orientation_opposite(self):
        assert orientation_score([0.0], [math.pi]) == pytest.approx(0.0)

    def test_orientation_quarter(self):
        assert orientation_score([0.0, 1.0], [math.pi / 2, 1.0 + math.pi / 2]) == pytest.approx(0.5)

    def test_dimension_equal(self):
        assert dimension_score([[4, 2, 1.5]], [[4, 2, 1.5]]) == 1.0

    def test_dimension_double_volume(self):
        assert dimension_score([[4, 2, 1.5]], [[8, 2, 1.5]]) == pytest.approx(0.5)

    def test_dimension_close_volumes(self):
        got = dimension_score([[4, 2, 1.5]], [[4.2, 1.9, 1.5]])
        expected = (4.2 * 1.9 * 1.5) / (4 * 2 * 1.5)
        expected = min(expected, 1 / expected)
        assert got == pytest.approx(expected)
        assert got == pytest.approx(0.9975, abs=1e-4)

    def test_center_zero_offset(self):
        boxes = [(0, 0, 100, 50)]
        assert center_score([[10, 10]], [[10, 10]], boxes) == 1.0

    def test_center_offset_norm_pi_scores_zero(self):
        boxes = [(0, 0, 100, 50)]
        # offset (pi, 0) in box-normalized units
        assert center_score([[100 * math.pi, 0]], [[0, 0]], boxes) == pytest.approx(0.0)

    def test_center_offset_norm_half_pi(self):
        boxes = [(0, 0, 100, 50)]
        assert center_score([[100 * math.pi / 2, 0]], [[0, 0]], boxes) == pytest.approx(0.5)

    def test_center_degenerate_box(self):
        with pytest.raises(DegenerateBox):
            center_score([[0, 0]], [[0, 0]], [(0, 0, 0, 10)])


def ap_sweep_oracle(flags, n_gt):
    """Independent 11-point AP from ordered TP flags."""
    tp = 0
    points = []
    for k, flag in enumerate(flags, start=1):
        tp += bool(flag)
        points.append((tp / n_gt, tp / k))
    ap = 0.0
    for r in np.linspace(0, 1, 11):
        precisions = [p for rec_, p in points if rec_ >= r - 1e-12]
        ap += max(precisions) if precisions else 0.0
    return ap / 11.0


class TestAp3d:
    def make_gt(self):
        return [rec(0, 0, 10.0), rec(0, 1, 20.0)]

    def test_perfect_predictions(self):
        gt = self.make_gt()
        preds = [(rec(0, 10, 10.0), 1.0), (rec(0, 11, 20.0), 1.0)]
        out = ap_3d(gt, preds)
        assert out[0.25] == pytest.approx(1.0)
        assert out[0.7] == pytest.approx(1.0)

    def test_no_predictions(self):
        out = ap_3d(self.make_gt(), [])
        assert all(v == 0.0 for v in out.values())

    def test_two_box_constructed_case(self):
        gt = self.make_gt()
        # offsets chosen for IoU 0.6 (overlap 3/4 along length) and ~0.33
        box_a = rec(0, 10, 10.0 + 4.0 * 0.25)  # IoU = 3/5 = 0.6
        box_b = rec(0, 11, 20.0 + 2.0)  # IoU = 2/6 = 1/3
        preds = [(box_a, 0.9), (box_b, 0.8)]
        out = ap_3d(gt, preds, iou_thresholds=(0.25, 0.5))
        assert out[0.5] == pytest.approx(ap_sweep_oracle([True, False], 2))
        assert out[0.25] == pytest.approx(ap_sweep_oracle([True, True], 2))

    def test_scores_bounded(self):
        rng = np.random.default_rng(11)
        gt = [rec(f, i, 10.0 + 5 * i) for f in range(3) for i in range(3)]
        preds = [
            (rec(f, 10 + i, 10.0 + 5 * i + rng.uniform(-2, 2)), rng.random())
            for f in range(3)
            for i in range(3)
        ]
        out = ap_3d(gt, preds)
        assert all(0.0 <= v <= 1.0 for v in out.values())
