"""Affinity, depth-ordered matching, assignment, and lifecycle tests."""

import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from mono3dt import association, geometry
from mono3dt.association import (
    AffinityMatrix,
    LengthMismatch,
    Tracker,
    affinity_deep,
    compose_affinity,
    run_sequence,
    solve_assignment,
)
from mono3dt.data import DetectionTable, SequenceInput, TrackerConfig, TrackStatus, TrackTable, take_rows
from mono3dt.lstm import LstmWeights
from mono3dt.geometry import DEPTH_ORDER_TIE_RATE, cover_fractions, iou_2d, occluders
from mono3dt.io import load_sequence
from mono3dt.simulator import ScenarioConfig, generate_world, ground_truth_records, render_detections, write_scenario

from conftest import default_intrinsics


class TestAffinityDeep:
    def test_identical_features(self):
        f = np.array([0.3, -1.2, 4.0])
        assert affinity_deep(f, f) == 1.0

    def test_unit_l1_distance(self):
        assert affinity_deep([0.0, 0.0], [0.5, 0.5]) == pytest.approx(math.exp(-1.0))

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            base = rng.normal(size=8)
            small = base + rng.uniform(0.01, 0.1, size=8)
            large = small + rng.uniform(0.05, 0.5, size=8)
            assert affinity_deep(base, small) > affinity_deep(base, large)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            affinity_deep([1.0, 2.0], [1.0, 2.0, 3.0])


def depth_filter(track_depth, track_dims, det_depth, det_dims) -> bool:
    """The (n, m) keep mask of association.depth_filter for one pair."""
    return bool(association.depth_filter([track_depth], [track_dims], [det_depth], [det_dims])[0, 0])


class TestDepthFilter:
    def test_gap_within_bound_kept(self):
        # two 4x2 m cars: bound = 4+2+4+2 = 12
        assert depth_filter(20.0, (4, 2, 1.5), 10.0, (4, 2, 1.5))

    def test_gap_beyond_bound_filtered(self):
        assert not depth_filter(23.0, (4, 2, 1.5), 10.0, (4, 2, 1.5))

    def test_zero_gap_always_kept(self):
        assert depth_filter(30.0, (4, 2, 1.5), 30.0, (4, 2, 1.5))

    def test_symmetric_in_sign(self):
        assert depth_filter(10.0, (4, 2, 1.5), 20.0, (4, 2, 1.5))
        assert not depth_filter(10.0, (4, 2, 1.5), 23.0, (4, 2, 1.5))


class TestComposeAffinity:
    def test_pure_2d_baseline(self):
        config = TrackerConfig(w_deep=0.0, w_2d=1.0, w_3d=0.0)
        assert compose_affinity(0.9, 0.4, 0.7, config) == pytest.approx(0.4)

    def test_default_mixture(self):
        config = TrackerConfig()  # 0.3 deep / 0.7 3D
        assert compose_affinity(1.0, 0.0, 0.5, config) == pytest.approx(0.3 + 0.7 * 0.5)

    def test_equal_components_fixed_point(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = rng.uniform(0.01, 1.0, size=3)
            config = TrackerConfig(w_deep=w[0], w_2d=w[1], w_3d=w[2])
            x = rng.uniform(0, 1)
            assert compose_affinity(x, x, x, config) == pytest.approx(x)


def brute_force_max(values, kept):
    """Exhaustive maximum-total matching over kept entries.

    Sums are always taken in ascending row order of the original matrix so
    totals are bit-comparable with the solver's.
    """
    n, m = values.shape
    transposed = n > m
    rows, cols_count = (m, n) if transposed else (n, m)
    best = 0.0
    for cols in itertools.permutations(range(cols_count), rows):
        pairs = [(c, r) if transposed else (r, c) for r, c in enumerate(cols)]
        total = 0.0
        for r, c in sorted(pairs):
            if kept[r, c]:
                total += values[r, c]
        best = max(best, total)
    return best


def per_pair_assignment(matrix, accept_threshold):
    """solve_assignment's bookkeeping one assigned pair at a time, as first written."""
    values = np.asarray(matrix.values, dtype=float)
    n, m = values.shape
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    padded = np.full((n, m + n), 0.0)
    padded[:, :m] = np.where(matrix.kept_mask, values, association.MASKED_VALUE)
    rows, cols = linear_sum_assignment(padded, maximize=True)
    pairs, matched_rows, matched_cols = [], set(), set()
    for r, c in zip(rows, cols):
        if c >= m or not matrix.kept_mask[r, c]:
            continue
        if values[r, c] < accept_threshold:
            continue
        pairs.append((int(r), int(c)))
        matched_rows.add(int(r))
        matched_cols.add(int(c))
    return pairs, [i for i in range(n) if i not in matched_rows], [j for j in range(m) if j not in matched_cols]


class TestSolveAssignment:
    def test_single_pair(self):
        matrix = AffinityMatrix(np.array([[0.9]]), np.ones((1, 1), bool), np.zeros((1, 1)))
        pairs, ut, ud = solve_assignment(matrix, 0.3)
        assert pairs == [(0, 0)] and ut == [] and ud == []

    def test_two_by_two(self):
        values = np.array([[0.9, 0.1], [0.2, 0.8]])
        matrix = AffinityMatrix(values, np.ones((2, 2), bool), np.zeros((2, 2)))
        pairs, _, _ = solve_assignment(matrix, 0.0)
        assert sorted(pairs) == [(0, 0), (1, 1)]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            n = rng.integers(1, 7)
            m = rng.integers(1, 7)
            values = rng.random((n, m))
            kept = np.ones((n, m), bool)
            matrix = AffinityMatrix(values, kept, np.zeros((n, m)))
            pairs, _, _ = solve_assignment(matrix, 0.0)
            total = sum(values[r, c] for r, c in sorted(pairs))
            assert total == brute_force_max(values, kept)

    def test_threshold_drops_pairs(self):
        values = np.array([[0.9, 0.0], [0.0, 0.2]])
        matrix = AffinityMatrix(values, np.ones((2, 2), bool), np.zeros((2, 2)))
        pairs, ut, ud = solve_assignment(matrix, 0.3)
        assert pairs == [(0, 0)]
        assert ut == [1] and ud == [1]

    def test_masked_entries_never_force_suboptimal(self):
        # complete-matching formulations get forced through masked pairs
        # ({(0,1),(1,0)} totalling 0.5); the dummy columns must instead
        # leave row 1 unmatched and keep the 1.0 pair
        values = np.array([[1.0, 0.25], [0.25, 0.0]])
        kept = np.array([[True, True], [True, False]])
        matrix = AffinityMatrix(values, kept, np.zeros((2, 2)))
        pairs, unmatched_tracks, _ = solve_assignment(matrix, 0.0)
        assert pairs == [(0, 0)]
        assert unmatched_tracks == [1]

    def test_empty_inputs(self):
        matrix = AffinityMatrix(np.zeros((0, 3)), np.zeros((0, 3), bool), np.zeros((0, 3)))
        pairs, ut, ud = solve_assignment(matrix, 0.3)
        assert pairs == [] and ut == [] and ud == [0, 1, 2]

    def test_bit_equal_to_per_pair_loop(self):
        """Masked entries, pairs under the threshold, n > m, n < m and empty sides, on seeded matrices."""
        rng = np.random.default_rng(43)
        shapes = [(n, m) for n in range(6) for m in range(6)] + [(int(n), int(m)) for n, m in rng.integers(1, 25, (60, 2))]
        dropped = 0
        for n, m in shapes:
            for _ in range(3):
                values = np.round(rng.random((n, m)), 1)  # ties and exact threshold hits
                matrix = AffinityMatrix(values, rng.random((n, m)) < 0.7, np.zeros((n, m)))
                threshold = float(rng.choice([0.0, 0.3, 0.5]))
                got = solve_assignment(matrix, threshold)
                assert got == per_pair_assignment(matrix, threshold)
                assert all(type(v) is int for v in itertools.chain(*got[0], got[1], got[2]))
                dropped += n + m - 2 * len(got[0])
        assert dropped > 1000



def painter_overlap_oracle(track_boxes, track_depths, det_box, det_depth, cells=600):
    """Pixel-rasterized oracle for the depth-ordered overlap.

    A tracklet's visible mask excludes pixels of tracklets that are both
    physically in front of it and closer to the detection's depth layer.
    """
    x0 = min(b[0] for b in track_boxes + [det_box])
    x1 = max(b[2] for b in track_boxes + [det_box])
    y0 = min(b[1] for b in track_boxes + [det_box])
    y1 = max(b[3] for b in track_boxes + [det_box])
    xs = np.linspace(x0, x1, cells, endpoint=False) + (x1 - x0) / (2 * cells)
    ys = np.linspace(y0, y1, cells, endpoint=False) + (y1 - y0) / (2 * cells)
    gx, gy = np.meshgrid(xs, ys)

    def mask(b):
        return (gx >= b[0]) & (gx <= b[2]) & (gy >= b[1]) & (gy <= b[3])

    det_mask = mask(det_box)
    out = []
    for i, box in enumerate(track_boxes):
        visible = mask(box)
        box_mask_count = np.count_nonzero(visible)
        for j, other in enumerate(track_boxes):
            if j == i:
                continue
            in_front = track_depths[i] - track_depths[j] > 1.0
            closer_to_doi = abs(track_depths[j] - det_depth) < abs(track_depths[i] - det_depth)
            if in_front and closer_to_doi:
                visible &= ~mask(other)
        num = np.count_nonzero(visible & det_mask)
        if num == 0:
            out.append(0.0)
            continue
        denom = np.count_nonzero(visible) + np.count_nonzero(det_mask) - num
        plain_inter = np.count_nonzero(mask(box) & det_mask)
        plain = plain_inter / (box_mask_count + np.count_nonzero(det_mask) - plain_inter)
        out.append(min(num / denom, plain))
    return np.array(out)


def depth_ordered_overlaps(track_boxes, track_depths, det_box, det_depth):
    """The (n,) column of geometry.depth_ordered_overlaps for one detection, every pair kept, with a 1 m tie."""
    kept = np.ones((len(track_boxes), 1), dtype=bool)
    layers = occluders(track_boxes, track_depths, 1.0)
    return geometry.depth_ordered_overlaps(track_boxes, track_depths, [det_box], [det_depth], kept, layers)[:, 0]


def random_box(rng) -> tuple:
    x0, y0 = rng.uniform(0, 200, 2)
    return (x0, y0, x0 + rng.uniform(20, 150), y0 + rng.uniform(20, 100))


def area(box) -> float:
    return (box[2] - box[0]) * (box[3] - box[1])


class TestDepthOrderedOverlaps:
    def test_single_tracklet_equals_plain_iou(self):
        track = (0, 0, 100, 60)
        det = (20, 10, 120, 70)
        got = depth_ordered_overlaps([track], [12.0], det, 12.0)
        assert got[0] == iou_2d(track, det)

    def test_fully_covered_scores_zero_for_front_layer_doi(self):
        # B fully covered by nearer A; a detection at A's layer cannot be B's
        front = (0, 0, 200, 120)
        hidden = (50, 30, 150, 90)
        got = depth_ordered_overlaps([front, hidden], [5.0, 10.0], front, 5.0)
        assert got[1] == 0.0
        assert got[0] > 0.9

    def test_own_layer_detection_is_never_masked(self):
        front = (0, 0, 200, 120)
        hidden = (50, 30, 150, 90)
        got = depth_ordered_overlaps([front, hidden], [5.0, 10.0], hidden, 10.0)
        assert got[1] == iou_2d(hidden, hidden)

    def test_three_stacked_boxes_match_raster_oracle(self):
        boxes = [(0, 0, 120, 80), (60, 20, 180, 100), (120, 40, 240, 120)]
        depths = [5.0, 10.0, 15.0]
        for det_box, det_depth in [((40, 10, 150, 90), 5.0), ((70, 30, 190, 110), 10.0), ((110, 35, 250, 125), 15.0)]:
            got = depth_ordered_overlaps(boxes, depths, det_box, det_depth)
            ref = painter_overlap_oracle(boxes, depths, det_box, det_depth)
            assert np.allclose(got, ref, atol=1e-3)

    def test_never_exceeds_plain_iou(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(1, 5)
            boxes = [random_box(rng) for _ in range(n)]
            depths = rng.uniform(5, 60, n)
            det = random_box(rng)
            det_depth = rng.uniform(5, 60)
            got = depth_ordered_overlaps(list(boxes), list(depths), det, det_depth)
            for i, box in enumerate(boxes):
                assert got[i] <= iou_2d(box, det) + 1e-12
                assert 0.0 <= got[i] <= 1.0

    def test_only_kept_pairs_computed(self):
        # a kept pair's overlap must not depend on which other pairs are
        # kept: claimants range over every tracklet, kept or not
        rng = np.random.default_rng(17)
        claimed = 0
        for _ in range(300):
            n, m = rng.integers(1, 7), rng.integers(1, 5)
            boxes = [random_box(rng) for _ in range(n)]
            depths = list(rng.uniform(5, 40, n))
            dets = [random_box(rng) for _ in range(m)]
            det_depths = list(rng.uniform(5, 40, m))
            kept = rng.random((n, m)) < 0.5
            args, layers = (boxes, depths, dets, det_depths), occluders(boxes, depths, 1.0)
            full = geometry.depth_ordered_overlaps(*args, np.ones((n, m), bool), layers)
            got = geometry.depth_ordered_overlaps(*args, kept, layers)
            assert np.all(got[~kept] == 0.0)
            assert np.array_equal(got[kept], full[kept])
            claimed += sum(got[i, j] != iou_2d(boxes[i], dets[j]) for i, j in np.argwhere(kept))
        assert claimed > 0  # the draws do exercise claimed overlaps


def per_pair_overlaps(track_boxes, track_depths, det_boxes, det_depths, kept, tie_meters):
    """depth_ordered_overlaps as a loop over every kept pair, the way it was first written.

    Claimants are all strictly nearer tracklets, touching or not, under the depth-scaled tie.
    """
    out = np.zeros((len(track_boxes), len(det_boxes)))
    depths = np.asarray(track_depths, dtype=float)
    tie = np.maximum(tie_meters, DEPTH_ORDER_TIE_RATE * 0.5 * (depths[:, None] + depths[None, :]))
    nearer = depths[:, None] - depths[None, :] > tie
    doi_gap = np.abs(np.subtract.outer(depths, det_depths))
    rects = [tuple(b) for b in track_boxes]
    for i, j in np.argwhere(kept).tolist():
        box, det_box = track_boxes[i], det_boxes[j]
        claimants = np.flatnonzero(nearer[i] & (doi_gap[:, j] < doi_gap[i, j]))
        if len(claimants) == 0:
            out[i, j] = iou_2d(box, det_box)
            continue
        inter_rect = geometry._clip_rect(rects[i], det_box)
        if inter_rect is None:
            continue
        occluders = [rects[k] for k in claimants]
        inter = (inter_rect[2] - inter_rect[0]) * (inter_rect[3] - inter_rect[1])
        numerator = inter - geometry._union_area_within(inter_rect, occluders)
        if numerator <= 0.0:
            continue
        visible_area = area(box) - geometry._union_area_within(rects[i], occluders)
        denominator = visible_area + area(det_box) - numerator
        if denominator > 0.0:
            out[i, j] = min(numerator / denominator, iou_2d(box, det_box))
    return out


class TestDepthOrderedOverlapsArrays:
    def test_bit_equal_to_per_pair_loop_on_crowded_frames(self):
        rng = np.random.default_rng(31)
        claimed = 0
        grid = np.arange(5.0, 30.0, 0.5)  # depths on a grid tie layer gaps
        for frame in range(150):
            n, m = rng.integers(5, 26), rng.integers(3, 16)
            boxes = [random_box(rng) for _ in range(n)]
            dets = [boxes[k] if rng.random() < 0.3 else random_box(rng) for k in rng.integers(0, n, m)]
            if frame % 2:
                depths, det_depths = list(rng.choice(grid, n)), list(rng.choice(grid, m))
            else:
                depths, det_depths = list(rng.uniform(5, 30, n)), list(rng.uniform(5, 30, m))
            kept = rng.random((n, m)) < 0.7
            args = (boxes, depths, dets, det_depths, kept)
            got = geometry.depth_ordered_overlaps(*args, occluders(boxes, depths, 1.0))
            ref = per_pair_overlaps(*args, 1.0)
            assert np.array_equal(got, ref)
            plain = np.array([[iou_2d(b, d) for d in dets] for b in boxes])
            claimed += int(np.count_nonzero(kept & (ref != plain)))
        assert claimed > 1000  # most draws hold claimed, intersecting pairs

    def test_empty_frames(self):
        box = [(0, 0, 10, 10)]
        none, one = occluders([], [], 1.0), occluders(box, [5.0], 1.0)
        assert geometry.depth_ordered_overlaps([], [], box, [5.0], np.zeros((0, 1), bool), none).shape == (0, 1)
        assert geometry.depth_ordered_overlaps(box, [5.0], [], [], np.zeros((1, 0), bool), one).shape == (1, 0)


def feature_row(rows, i, intrinsics, config):
    """deep_feature's definition for row i alone."""
    return np.concatenate(
        [
            rows.appearance[i],
            rows.dims[i] / 10.0,
            rows.center_px[i] / intrinsics.image_diagonal,
            [rows.yaw[i] / math.pi],
            [rows.depth[i] / config.range_max],
        ]
    )


def affinity_per_pair(tracks, dets, in_view, occluding, det_proj_boxes, intrinsics, config):
    """build_affinity_matrix's definition, one pair at a time, on the occluders mask of the tracklets' boxes."""
    assert np.array_equal(occluding, occluders(tracks.box2d, tracks.depth, config.ord_tie_meters))
    n, m = len(tracks), len(dets)
    values, deep, kept = np.zeros((n, m)), np.zeros((n, m)), np.zeros((n, m), dtype=bool)
    track_boxes = tracks.box2d.tolist()
    det_boxes = dets.box2d.tolist()
    proj_boxes = det_proj_boxes.tolist()
    for i, j in np.ndindex(n, m):
        assert in_view[i] == (area(track_boxes[i]) > 0.0)
        kept[i, j] = in_view[i] and (
            not config.use_depth_ordering or depth_filter(tracks.depth[i], tracks.dims[i], dets.depth[j], dets.dims[j])
        )
    if config.use_depth_ordering:
        overlaps = geometry.depth_ordered_overlaps(
            track_boxes,
            tracks.depth.tolist(),
            proj_boxes,
            dets.depth.tolist(),
            kept,
            occluding,
        )
    for i, j in np.argwhere(kept).tolist():
        deep[i, j] = affinity_deep(
            feature_row(tracks, i, intrinsics, config), feature_row(dets, j, intrinsics, config)
        )
        a_2d = iou_2d(track_boxes[i], det_boxes[j])
        a_3d = overlaps[i, j] if config.use_depth_ordering else iou_2d(track_boxes[i], proj_boxes[j])
        values[i, j] = compose_affinity(deep[i, j], a_2d, a_3d, config)
    return values, kept, deep


class TestBuildAffinityMatrix:
    @pytest.mark.parametrize(
        "config",
        [
            TrackerConfig(),
            TrackerConfig(w_deep=0.2, w_2d=0.5, w_3d=0.3, use_depth_ordering=False),
            TrackerConfig(motion_backend="kf2d", w_2d=0.4),
        ],
        ids=["default", "plain-iou", "kf2d"],
    )
    def test_bit_equal_to_per_pair_definition(self, config, monkeypatch):
        cfg, world, seq, gt = simulate("dense", seed=3, noiseless=False)
        real = association.build_affinity_matrix
        kept_pairs = []

        def checked(*args):
            matrix = real(*args)
            values, kept, deep = affinity_per_pair(*args)
            assert np.array_equal(matrix.kept_mask, kept)
            assert np.array_equal(matrix.values, values)
            assert np.array_equal(matrix.a_deep, deep)
            kept_pairs.append(int(kept.sum()))
            return matrix

        monkeypatch.setattr(association, "build_affinity_matrix", checked)
        run_sequence(SequenceInput(seq.intrinsics, seq.poses[:40], seq.detections[:40]), config)
        assert len(kept_pairs) == 40 and sum(kept_pairs) > 500

    def test_feature_length_mismatch(self):
        cfg, world, seq, gt = simulate("open_road", seed=0)
        tracker = Tracker(TrackerConfig(), seq.intrinsics)
        tracker.step(0, seq.detections[0], seq.poses[0])
        short = dataclasses.replace(seq.detections[1], appearance=seq.detections[1].appearance[:, :4])
        with pytest.raises(LengthMismatch):
            tracker.step(1, short, seq.poses[1])


class TestDetectionProjection:
    def test_behind_camera_fallbacks(self, monkeypatch):
        intr = default_intrinsics()
        pose = geometry.CameraPose.identity()
        own_box = (900.0, 500.0, 1000.0, 560.0)

        def detection(dims):
            return (0, own_box, [960.0, 540.0], 1e-7, 0.3, dims, np.zeros(8), 0.9)

        # center at z = 1e-7 (behind the near limit): a car-sized box still
        # has corners in front, a 0.1 um box has none
        dets = DetectionTable.from_rows([detection([4.2, 1.8, 1.5]), detection([1e-7, 1e-7, 1e-7])])
        seen = []
        real = association.build_affinity_matrix
        monkeypatch.setattr(association, "build_affinity_matrix", lambda *a: seen.append(a[4]) or real(*a))
        Tracker(TrackerConfig(), intr).step(0, dets, pose)
        rows = association.decode_detection(take_rows(dets, slice(0, 1)), pose, intr)
        truncated = geometry.project_box(rows.position[0], rows.dims[0], rows.yaw[0], pose, intr)
        assert area(truncated) > 0.0
        assert len(seen) == 1 and np.array_equal(seen[0], [truncated, own_box])


class TestOccluders:
    def test_matches_scalar_definition(self):
        """Each entry is the scalar tie rule AND-ed with _clip_rect's not-None test; the layering is a strict order."""
        rng = np.random.default_rng(5)
        edges = np.arange(0.0, 200.0, 25.0)  # shared edges: boxes that only touch along a side
        occluding = 0
        for _ in range(100):
            n = int(rng.integers(1, 9))
            boxes = [
                random_box(rng) if rng.random() < 0.5 else tuple(np.sort(rng.choice(edges, (2, 2))).T.ravel())
                for _ in range(n)
            ]
            depths = rng.choice([5.0, 5.5, 10.0, 20.0, 21.0, 40.0, 60.0, 62.5], size=n)
            tie_meters = float(rng.choice([0.0, 1.0, 3.0]))
            mask = occluders(boxes, depths, tie_meters)
            assert mask.shape == (n, n) and mask.dtype == bool
            for i, k in np.ndindex(mask.shape):
                tie = max(tie_meters, DEPTH_ORDER_TIE_RATE * 0.5 * (depths[i] + depths[k]))
                assert mask[i, k] == ((depths[i] - depths[k] > tie) and geometry._clip_rect(boxes[i], boxes[k]) is not None)
            assert not mask.diagonal().any()
            assert not (mask & mask.T).any()
            occluding += int(mask.sum())
        assert occluding > 100  # the draws do hold occluding pairs

    @pytest.mark.parametrize("use_depth_ordering", [True, False])
    def test_built_once_per_frame(self, use_depth_ordering, monkeypatch):
        """Tracker.step builds one occluders mask per frame, which depth ordering and cover both read."""
        cfg, world, seq, gt = simulate("dense", seed=3, noiseless=False)
        calls = []
        real = association.occluders
        monkeypatch.setattr(association, "occluders", lambda *a: calls.append(len(a[0])) or real(*a))
        tracker = Tracker(TrackerConfig(use_depth_ordering=use_depth_ordering), seq.intrinsics)
        for frame in range(30):
            calls.clear()
            tracker.step(frame, seq.detections[frame], seq.poses[frame])
            assert len(calls) == 1, frame
        assert calls[0] > 0


class TestCoverFractions:
    def test_lone_box(self):
        assert cover_fractions([(0, 0, 10, 10)], occluders([(0, 0, 10, 10)], [5.0], 1.0))[0] == 0.0

    def test_constructed_75_percent(self):
        # nearer box covers exactly 75% of the farther one
        far = (0, 0, 100, 100)
        near = (0, 0, 75, 100)
        covers = cover_fractions([near, far], occluders([near, far], [5.0, 10.0], 1.0))
        assert covers[1] == pytest.approx(0.75)
        assert covers[0] == 0.0

    def test_farther_box_does_not_occlude(self):
        a = (0, 0, 100, 100)
        b = (0, 0, 100, 100)
        covers = cover_fractions([a, b], occluders([a, b], [5.0, 10.0], 1.0))
        assert covers[0] == 0.0 and covers[1] == pytest.approx(1.0)

    def test_tie_layer_shares(self):
        a = (0, 0, 100, 100)
        b = (0, 0, 100, 100)
        covers = cover_fractions([a, b], occluders([a, b], [5.0, 5.6], 1.0))
        assert covers[0] == 0.0 and covers[1] == 0.0

    def test_depth_scaled_tie(self):
        a = (0, 0, 100, 100)
        b = (0, 0, 100, 100)
        # 2 m gap at ~60 m depth shares a layer under the scaled tie
        assert cover_fractions([a, b], occluders([a, b], [59.0, 61.0], 1.0))[1] == 0.0
        # the same gap at ~10 m depth is two layers under the 1 m floor
        assert cover_fractions([a, b], occluders([a, b], [9.0, 11.0], 1.0))[1] == pytest.approx(1.0)

    def test_rows_match_the_full_computation(self):
        rng = np.random.default_rng(43)
        grid = np.arange(5.0, 30.0, 0.5)  # depths on a grid tie layer gaps
        covered = 0
        for frame in range(100):
            n = int(rng.integers(1, 26))
            # some zero-area boxes, as tracklets out of view have
            boxes = [random_box(rng) if rng.random() < 0.9 else (0, 0, 0, 0) for _ in range(n)]
            depths = rng.choice(grid, n) if frame % 2 else rng.uniform(5, 30, n)
            rows = sorted(rng.choice(n, int(rng.integers(0, n + 1)), replace=False).tolist())
            layers = occluders(boxes, depths, 1.0)
            full = cover_fractions(boxes, layers)
            rects = np.array(boxes)
            got = cover_fractions(rects, layers, rows=rows)
            assert np.array_equal(got[rows], full[rows])
            assert not np.any(np.delete(got, rows))
            assert np.array_equal(cover_fractions(rects, layers), full)
            covered += int(np.count_nonzero(full[rows]))
        assert covered > 100  # the draws do exercise covered rows


NO_DETECTIONS = DetectionTable.from_rows([])


def simulate(preset, seed, noiseless=True, **overrides):
    cfg = ScenarioConfig.make_preset(preset, seed=seed, noiseless=noiseless, **overrides)
    world = generate_world(cfg)
    detections, visibility = render_detections(world)
    gt = ground_truth_records(world, visibility)
    seq = SequenceInput(world.intrinsics, world.poses, detections)
    return cfg, world, seq, gt


class TestProjectionsPerStep:
    def test_two_projections_per_step(self, monkeypatch):
        """One projection of the predicted tracklets and the detections before association, one for emit."""
        cfg, world, seq, gt = simulate("dense", seed=2)
        events = []
        real_project, real_affinity = association.project_boxes, association.build_affinity_matrix
        monkeypatch.setattr(association, "project_boxes", lambda *a: events.append(len(a[0])) or real_project(*a))
        monkeypatch.setattr(association, "build_affinity_matrix", lambda *a: events.append("associate") or real_affinity(*a))
        tracker = Tracker(TrackerConfig(), seq.intrinsics)
        for frame, detections in enumerate(seq.detections[:12] + [NO_DETECTIONS]):
            alive = len(tracker.rows.ids)
            events.clear()
            records = tracker.step(frame, detections, seq.poses[frame])
            assert events[:2] == [alive + len(detections), "associate"], frame
            assert len(events) == 3 and events[2] >= len(records), frame
        assert alive > 0 and len(records) > 0


class TestLifecycle:
    def test_first_frame_spawns_sequential_ids(self):
        cfg, world, seq, gt = simulate("open_road", seed=0)
        tracker = Tracker(TrackerConfig(), seq.intrinsics)
        records = tracker.step(0, seq.detections[0], seq.poses[0])
        k = len(seq.detections[0])
        assert sorted(r.track_id for r in records) == list(range(k))
        assert all(r.status == TrackStatus.TRACKED for r in records)

    def test_lost_tracklet_dies_after_max_age(self):
        cfg, world, seq, gt = simulate("open_road", seed=1)
        config = TrackerConfig(max_lost_age=20)
        tracker = Tracker(config, seq.intrinsics)
        pose = seq.poses[0]
        tracker.step(0, seq.detections[0], pose)
        assert len(tracker.rows.ids)
        # starve the tracker: statuses go lost, ages run out at 21 steps
        for k in range(1, 21):
            tracker.step(k, NO_DETECTIONS, pose)
            assert all(status == TrackStatus.LOST for status in tracker.rows.status)
            assert all(age == k for age in tracker.rows.age)
        tracker.step(21, NO_DETECTIONS, pose)
        assert len(tracker.rows.ids) == 0

    def test_ids_never_reused(self):
        cfg, world, seq, gt = simulate("dense", seed=3, noiseless=False)
        tracker = Tracker(TrackerConfig(), seq.intrinsics)
        seen = set()
        for f, (pose, dets) in enumerate(zip(seq.poses, seq.detections)):
            tracker.step(f, dets, pose)
            ids = tracker.rows.ids.tolist()
            assert len(ids) == len(set(ids))
            for track_id in ids:
                if track_id in seen:
                    continue
                seen.add(track_id)
        assert max(seen) == len(seen) - 1  # dense, contiguous allocation

    def test_lost_state_is_pinned(self):
        cfg, world, seq, gt = simulate("open_road", seed=2)
        tracker = Tracker(TrackerConfig(), seq.intrinsics)
        tracker.step(0, seq.detections[0], seq.poses[0])
        tracker.step(1, seq.detections[1], seq.poses[1])
        positions = dict(zip(tracker.rows.ids.tolist(), tracker.rows.position.copy()))
        tracker.step(2, NO_DETECTIONS, seq.poses[2])
        for track_id, status, position in zip(tracker.rows.ids.tolist(), tracker.rows.status, tracker.rows.position):
            assert status == TrackStatus.LOST
            assert np.array_equal(position, positions[track_id])

    def test_occlusion_freezes_appearance_and_age(self):
        cfg, world, seq, gt = simulate("crossing_occlusion", seed=1)
        tracker = Tracker(TrackerConfig(), seq.intrinsics)
        crosser_id = None
        pre = None
        during = []
        post = None
        for f, (pose, dets) in enumerate(zip(seq.poses, seq.detections)):
            tracker.step(f, dets, pose)
            row_of = {track_id: i for i, track_id in enumerate(tracker.rows.ids.tolist())}
            if f == 0:
                # vehicle 1 is the crosser; its tracklet spawns at frame 0
                # and is the one nearest the crosser's world position
                world_pos = world.vehicles[1].positions[0]
                crosser_id = min(
                    row_of, key=lambda i: np.linalg.norm(tracker.rows.position[row_of[i]] - world_pos)
                )
            i = row_of.get(crosser_id)
            assert i is not None, "crosser tracklet must survive the occlusion"
            age, appearance = int(tracker.rows.age[i]), tracker.rows.appearance[i].copy()
            if tracker.rows.status[i] == TrackStatus.OCCLUDED:
                during.append((age, appearance))
            elif tracker.rows.status[i] == TrackStatus.TRACKED:
                if during:
                    post = post or (age, appearance)
                else:
                    pre = (age, appearance)
        assert during, "scenario must contain an occlusion stretch"
        assert post is not None, "crosser must be re-acquired"
        ages = {a for a, _ in during}
        assert ages == {1}  # frozen after the first occluded frame
        for _, app in during:
            assert np.array_equal(app, pre[1])  # bit-identical features
        assert pre[0] == 0 and post[0] == 0
        assert np.array_equal(post[1], pre[1])

    @pytest.mark.parametrize("backend", ["none", "kf2d", "kf3d", "lstm"])
    def test_records_stay_unchanged_through_empty_and_starved_frames(self, backend):
        """Records share no memory with the store, and lost rows keep their motion state."""
        cfg, world, seq, gt = simulate("open_road", seed=0)
        weights = LstmWeights.initialize(np.random.default_rng(0), scale=0.5) if backend == "lstm" else None
        tracker = Tracker(TrackerConfig(motion_backend=backend), seq.intrinsics, weights)
        emitted = []  # (record, deep copy taken when it was emitted)
        for f in range(40):
            starved = f < 3 or 12 <= f < 15
            if backend == "kf3d" and f == 13:
                means = dict(zip(tracker.rows.ids.tolist(), tracker.rows.motion.mean.copy()))
                covs = dict(zip(tracker.rows.ids.tolist(), tracker.rows.motion.cov.copy()))
            records = tracker.step(f, NO_DETECTIONS if starved else seq.detections[f], seq.poses[f])
            if f < 3:
                assert records == [] and len(tracker.rows.ids) == 0
            if 12 <= f < 15:
                assert len(tracker.rows.ids) and all(status == TrackStatus.LOST for status in tracker.rows.status)
            if f == 11:
                before = set(tracker.rows.ids.tolist())
            if f == 15:
                # recovery: the tracklets starved into lost are matched again
                assert before <= {r.track_id for r in records if r.status == TrackStatus.TRACKED}
            if backend == "kf3d" and f == 13:
                for i, track_id in enumerate(tracker.rows.ids.tolist()):
                    assert np.array_equal(tracker.rows.motion.mean[i], means[track_id])
                    assert np.array_equal(tracker.rows.motion.cov[i], covs[track_id])
            emitted += [(r, copy.deepcopy(r)) for r in records]
            for r, kept in emitted:
                if r.frame <= f - 10:
                    assert r == kept
        assert len(emitted) > 100

    def test_crossing_keeps_identity(self):
        cfg, world, seq, gt = simulate("crossing_occlusion", seed=4)
        records = run_sequence(seq, TrackerConfig())
        # the crosser (vehicle 1) must carry one id across the whole run
        crosser_frames = {r.frame: r for r in gt if r.track_id == 1}
        ids = set()
        for r in records:
            gt_row = crosser_frames.get(r.frame)
            if gt_row is None:
                continue
            if np.linalg.norm(np.subtract(r.center, gt_row.center)) < 1.0:
                ids.add(r.track_id)
        assert len(ids) == 1

    def test_online_prefix_causality(self):
        cfg, world, seq, gt = simulate("dense", seed=5, noiseless=False)
        records_full = run_sequence(seq, TrackerConfig())
        k = 40
        seq_prefix = SequenceInput(seq.intrinsics, seq.poses[:k], seq.detections[:k])
        records_prefix = run_sequence(seq_prefix, TrackerConfig())
        full_head = [r for r in records_full if r.frame < k]
        assert len(full_head) == len(records_prefix)
        for a, b in zip(full_head, records_prefix):
            assert a.frame == b.frame and a.track_id == b.track_id
            assert a.center == b.center
            assert a.status == b.status

    @pytest.mark.parametrize("backend", ["kf2d", "kf3d"])
    def test_stepping_a_sequence_twice_gives_equal_rows(self, backend, tmp_path):
        """load_sequence's per-frame detections are views of one table; no step writes through them."""
        paths = write_scenario(ScenarioConfig.make_preset("dense", seed=5), tmp_path)
        seq = load_sequence(paths["detections"], paths["poses"])
        before = copy.deepcopy(seq.detections)
        first = run_sequence(seq, TrackerConfig(motion_backend=backend))
        assert run_sequence(seq, TrackerConfig(motion_backend=backend)) == first and len(first) > 500
        for dets, kept in zip(seq.detections, before):
            for f in dataclasses.fields(dets):
                assert getattr(dets, f.name).tobytes() == getattr(kept, f.name).tobytes()

    def test_emitted_rows_share_no_memory_with_the_store(self):
        cfg, world, seq, gt = simulate("crossing_occlusion", seed=1)
        tracker = Tracker(TrackerConfig(), seq.intrinsics)
        for f in range(10):
            records = tracker.step(f, seq.detections[f], seq.poses[f])
        kept = copy.deepcopy(records)
        assert records and all(type(v) in (int, float, list, TrackStatus) for r in records for v in r)
        for name in ("ids", "position", "dims", "yaw", "velocity"):
            getattr(tracker.rows, name)[:] += 1
        assert records == kept

    def test_lstm_backend_requires_weights(self):
        with pytest.raises(ValueError):
            Tracker(TrackerConfig(motion_backend="lstm"), default_intrinsics())

    def test_kf3d_beats_none_on_crossing_mismatches(self):
        from mono3dt.metrics import evaluate_tracks

        mm = {"none": 0, "kf3d": 0}
        for seed in range(6):
            cfg, world, seq, gt = simulate("crossing_occlusion", seed, noiseless=False)
            for backend in mm:
                records = run_sequence(seq, TrackerConfig(motion_backend=backend))
                mm[backend] += evaluate_tracks(TrackTable.from_records(gt), TrackTable.from_records(records), "3d").mismatches
        assert mm["kf3d"] < mm["none"]

    def test_image_space_baseline_config(self):
        from mono3dt.metrics import evaluate_tracks

        cfg, world, seq, gt = simulate("open_road", 0)
        config = TrackerConfig(w_deep=0.0, w_2d=1.0, w_3d=0.0)
        report = evaluate_tracks(TrackTable.from_records(gt), TrackTable.from_records(run_sequence(seq, config)), "3d")
        assert report.mota == 1.0 and report.mismatches == 0
