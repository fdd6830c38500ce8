"""Frame-to-frame association and the occlusion-aware tracklet lifecycle.

Matching fuses three affinity channels per tracklet/detection pair:

  * appearance: exp(-L1) over a scaled concatenation of the embedding,
    dimensions, projected center, yaw, and depth;
  * 2D overlap: IoU of the predicted and detected image boxes;
  * 3D overlap: IoU of the projected 3D boxes under depth ordering:
    tracklets closer to the detection's depth layer claim the image area
    they cover from farther ones (claiming only through tracklets
    physically in front), so a detection prefers tracklets in its own
    layer; pairs whose depth gap exceeds the summed footprint bound are
    excluded outright.

The lifecycle separates `occluded` (mostly covered by a nearer tracklet:
motion keeps coasting, features and age freeze) from `lost` (simply
unmatched: the state pins in place and the age runs out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import motion as motion_mod
from .data import DetectionTable, TrackerConfig, TrackRecord, TrackStatus, put_rows, stack_rows, take_rows
from .geometry import (
    DEPTH_ORDER_TIE_RATE,
    CameraPose,
    alpha_to_theta,
    backproject,
    camera_heading,
    cover_fractions,
    depth_ordered_overlaps,
    iou_2d_matrix,
    normalize_angles,
    project_boxes,
)

MASKED_VALUE = -1e9


class LengthMismatch(ValueError):
    pass


def affinity_deep(feature_track, feature_det) -> float:
    """exp(-L1) similarity of two equal-length feature vectors, in (0, 1].

    The per-pair definition of the appearance channel, which
    build_affinity_matrix computes for all pairs of a frame at once.
    """
    a = np.asarray(feature_track, dtype=float).reshape(-1)
    b = np.asarray(feature_det, dtype=float).reshape(-1)
    if a.shape != b.shape:
        raise LengthMismatch(f"feature lengths differ: {a.shape[0]} vs {b.shape[0]}")
    return float(np.exp(-np.sum(np.abs(a - b))))


@dataclass
class FrameRows:
    """k objects in the current camera, one row each: tracklet predictions or decoded detections."""

    position: np.ndarray  # (k, 3) world
    yaw: np.ndarray  # (k,) world
    dims: np.ndarray  # (k, 3)
    appearance: np.ndarray  # (k, A)
    center_px: np.ndarray  # (k, 2)
    depth: np.ndarray  # (k,) camera-frame z
    box2d: np.ndarray  # (k, 4) image boxes: predicted for tracklets, detected for detections

    def __len__(self) -> int:
        return len(self.depth)


def deep_feature(tracks: FrameRows, dets: FrameRows, intrinsics, config: TrackerConfig):
    """(n, F) and (m, F) concatenated appearance + geometry features with unit-balancing scales.

    Without scaling, raw depth differences swamp every other component of
    the L1 distance; each block is brought to roughly unit range instead:
    dims / 10, center pixels / image diagonal, yaw / pi, depth / range_max
    (the appearance block is divided by 1, which leaves it exact). Both
    sides are scaled as one stacked array.
    """
    width, det_width = tracks.appearance.shape[1], dets.appearance.shape[1]
    if width != det_width:
        raise LengthMismatch(f"appearance lengths differ: {width} vs {det_width}")
    scales = [1.0] * width + [10.0] * 3 + [intrinsics.image_diagonal] * 2 + [math.pi, config.range_max]
    sides = [(r.appearance, r.dims, r.center_px, r.yaw[:, None], r.depth[:, None]) for r in (tracks, dets)]
    features = np.concatenate([np.concatenate(blocks) for blocks in zip(*sides)], axis=1) / scales
    return features[: len(tracks)], features[len(tracks) :]


def depth_filter(track_depths, track_dims, det_depths, det_dims) -> np.ndarray:
    """(n, m) keep mask: a pair is kept when its depth gap is inside the footprint bound.

    The bound l+w of both objects is a loose reachable-distance envelope
    (it dominates the two footprint diagonals). The gap is symmetric in
    sign, so a detection in front of a tracklet filters like one behind.
    """
    t_dims, d_dims = np.reshape(track_dims, (-1, 3)), np.reshape(det_dims, (-1, 3))
    bound = ((t_dims[:, :1] + t_dims[:, 1:2]) + d_dims[:, 0]) + d_dims[:, 1]
    return np.abs(np.subtract.outer(track_depths, det_depths)) < bound


def compose_affinity(a_deep: float, a_2d: float, a_3d: float, config: TrackerConfig) -> float:
    total = config.w_deep + config.w_2d + config.w_3d
    return (config.w_deep * a_deep + config.w_2d * a_2d + config.w_3d * a_3d) / total


# --- assignment -------------------------------------------------------------


@dataclass
class AffinityMatrix:
    values: np.ndarray  # (n_tracks, n_detections)
    kept_mask: np.ndarray  # bool, False entries are excluded from assignment
    a_deep: np.ndarray  # appearance component, needed for the blend ratio


def solve_assignment(matrix: AffinityMatrix, accept_threshold: float):
    """Maximum-total-affinity matching over kept entries.

    Returns (pairs, unmatched_track_rows, unmatched_detection_cols); pairs
    whose affinity falls below accept_threshold are dropped to unmatched.
    Dummy zero columns let every row stay unmatched rather than be forced
    through a masked or worthless entry.
    """
    values = np.asarray(matrix.values, dtype=float)
    n, m = values.shape
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    if not np.isfinite(values).all():
        raise ValueError("affinity matrix contains non-finite entries")
    padded = np.zeros((n, m + n))
    padded[:, :m] = np.where(matrix.kept_mask, values, MASKED_VALUE)
    rows, cols = linear_sum_assignment(padded, maximize=True)
    rows, cols = rows[cols < m], cols[cols < m]
    matched = matrix.kept_mask[rows, cols] & (values[rows, cols] >= accept_threshold)
    rows, cols = rows[matched], cols[matched]
    free_rows, free_cols = np.ones(n, dtype=bool), np.ones(m, dtype=bool)
    free_rows[rows] = free_cols[cols] = False
    pairs = list(zip(rows.tolist(), cols.tolist()))
    return pairs, np.flatnonzero(free_rows).tolist(), np.flatnonzero(free_cols).tolist()


# --- tracklets and lifecycle -------------------------------------------------


def decode_detection(detections: DetectionTable, pose, intrinsics) -> FrameRows:
    """Reconstruct the world-frame object states detections encode, one row each; the table's columns are not copied."""
    heading = camera_heading(pose)
    alphas = zip(detections.yaw_local.tolist(), detections.center_px[:, 0].tolist())
    return FrameRows(
        position=backproject(detections.center_px, detections.depth, pose, intrinsics),
        # math.atan2 per row: np.arctan2 does not give the same bits
        yaw=np.array([alpha_to_theta(alpha, x, intrinsics) + heading for alpha, x in alphas], dtype=float),
        dims=detections.dims,
        appearance=detections.appearance,
        center_px=detections.center_px,
        depth=detections.depth,
        box2d=detections.box2d,
    )


def build_affinity_matrix(tracks: FrameRows, dets: FrameRows, in_view, det_proj_boxes, intrinsics, config):
    """Affinity values, keep mask, and appearance components for one frame.

    tracks are the tracklets' predictions and dets the decoded detections;
    in_view (n,) marks the tracklets predicted into the image, and
    det_proj_boxes (m, 4) are the projections of the decoded 3D boxes. The
    keep mask is decided first; every channel is an (n, m) array that is 0
    outside it.
    """
    n, m = len(tracks), len(dets)
    kept = np.repeat(in_view[:, None], m, axis=1)
    if n == 0 or m == 0:
        return AffinityMatrix(np.zeros((n, m)), kept, np.zeros((n, m)))

    if config.use_depth_ordering:
        kept &= depth_filter(tracks.depth, tracks.dims, dets.depth, dets.dims)
        a_3d = depth_ordered_overlaps(
            tracks.box2d, tracks.depth, det_proj_boxes, dets.depth, kept, config.ord_tie_meters, DEPTH_ORDER_TIE_RATE
        )
    else:
        a_3d = iou_2d_matrix(tracks.box2d, det_proj_boxes)
    track_features, det_features = deep_feature(tracks, dets, intrinsics, config)
    distance = np.abs(track_features[:, None] - det_features[None]).sum(axis=-1)
    deep = np.where(kept, np.exp(-distance), 0.0)
    # without 2D weight the channel adds an exact 0.0 to every pair
    a_2d = iou_2d_matrix(tracks.box2d, dets.box2d) if config.w_2d else 0.0
    values = np.where(kept, compose_affinity(deep, a_2d, a_3d, config), 0.0)
    return AffinityMatrix(values, kept, deep)


@dataclass
class Tracklets:
    """The tracker's store: row i of every field belongs to one tracklet."""

    ids: np.ndarray  # (N,)
    status: np.ndarray  # (N,) TrackStatus objects
    age: np.ndarray  # (N,) frames since the last match
    position: np.ndarray  # (N, 3) world
    yaw: np.ndarray  # (N,) world
    dims: np.ndarray  # (N, 3)
    appearance: np.ndarray  # (N, A)
    velocity: np.ndarray  # (N, 3) world, per frame
    motion: object  # the backend's rows (see motion.init_motion_state), or None


class Tracker:
    """Strictly online tracker: one lifecycle step per frame.

    Output at frame t depends only on frames <= t. Dead tracklets never
    come back and their ids are never reused. The tracklets live in
    `rows`, one Tracklets store.
    """

    def __init__(self, config: TrackerConfig, intrinsics, lstm_weights=None):
        config.validate()
        if config.motion_backend == "lstm" and lstm_weights is None:
            raise ValueError("motion_backend 'lstm' requires trained weights")
        self.config = config
        self.intrinsics = intrinsics
        self.lstm_weights = lstm_weights
        self.next_id = 0
        self.rows = self._born(decode_detection(DetectionTable.from_rows([]), CameraPose.identity(), intrinsics), [])

    # -- helpers -------------------------------------------------------------

    def _reproject_state(self, rows, pose) -> np.ndarray:
        """(k, 4) image boxes of the tracklets in rows in the current camera, one batch."""
        store = self.rows
        return project_boxes(store.position[rows], store.dims[rows], store.yaw[rows], pose, self.intrinsics)[2]

    def _born(self, dets: FrameRows, cols) -> Tracklets:
        """Fresh tracked rows for the detections in cols, with the next ids."""
        k = len(cols)
        return Tracklets(
            np.arange(self.next_id, self.next_id + k),
            np.full(k, TrackStatus.TRACKED, dtype=object),
            np.zeros(k, dtype=int),
            dets.position[cols],
            dets.yaw[cols],
            dets.dims[cols],
            dets.appearance[cols],
            np.zeros((k, 3)),
            motion_mod.init_motion_state(
                self.config.motion_backend, dets.position[cols], dets.depth[cols], dets.box2d[cols]
            ),
        )

    # -- lifecycle -------------------------------------------------------------

    def step(self, frame_index: int, detections: DetectionTable, pose):
        """Advance one frame on its detections: predict, associate, update, spawn, retire.

        Returns the TrackRecords emitted for this frame (tracked and
        occluded tracklets; lost ones coast silently), as plain values.
        """
        config = self.config
        backend = config.motion_backend
        store = self.rows

        predicted, candidate = motion_mod.predict_tracklet(backend, store.motion, store.position, self.lstm_weights)
        dets = decode_detection(detections, pose, self.intrinsics)
        n = len(predicted)
        # an empty side takes the other side's appearance length
        if not n:
            store.appearance = np.zeros((0, dets.appearance.shape[1]))
        elif not len(dets):
            dets.appearance = np.zeros((0, store.appearance.shape[1]))
        # one projection: the n predicted tracklets, then the decoded detections
        center_px, depth, boxes, hulls, any_in_front = project_boxes(
            np.concatenate([predicted, dets.position]),
            np.concatenate([store.dims, dets.dims]),
            np.concatenate([store.yaw, dets.yaw]),
            pose,
            self.intrinsics,
        )
        center_px, depth, boxes = center_px[:n], depth[:n], boxes[:n]
        in_view = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1]) > 0.0
        if backend == "kf2d":
            # the 2D filter owns the predicted box of an in-view tracklet
            boxes[in_view] = motion_mod.kf2d_measurement_to_box(candidate.mean[in_view])
        tracks = FrameRows(predicted, store.yaw, store.dims, store.appearance, center_px, depth, boxes)
        # a detection's truncated hull, or the detector's own box where the hull is wholly behind the camera
        det_proj_boxes = np.where(any_in_front[n:, None], hulls[n:], dets.box2d)

        matrix = build_affinity_matrix(tracks, dets, in_view, det_proj_boxes, self.intrinsics, config)
        pairs, unmatched_tracks, unmatched_dets = solve_assignment(matrix, config.affinity_accept_threshold)
        rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
        unmatched = np.array(unmatched_tracks, dtype=int)

        # the lifecycle reads covers of unmatched, in-view tracklets only
        cover_rows = unmatched[in_view[unmatched]] if config.use_occlusion_state else unmatched[:0]
        covers = cover_fractions(boxes, depth, config.ord_tie_meters, DEPTH_ORDER_TIE_RATE, rows=cover_rows.tolist())
        is_occluded = np.zeros(len(covers), dtype=bool)
        is_occluded[cover_rows] = covers[cover_rows] >= config.occlusion_cover_threshold
        occluded, lost = unmatched[is_occluded[unmatched]], unmatched[~is_occluded[unmatched]]

        prev = store.position[rows]
        filtered, updated = motion_mod.update_motion_state(
            backend,
            take_rows(candidate, rows),
            predicted[rows],
            dets.position[cols],
            dets.depth[cols],
            dets.box2d[cols],
            prev,
            self.lstm_weights,
        )
        position, yaw, dims, appearance = motion_mod.blend_update(
            (prev, store.yaw[rows], store.dims[rows], store.appearance[rows]),
            (dets.position[cols], dets.yaw[cols], dets.dims[cols], dets.appearance[cols]),
            matrix.a_deep[rows, cols],
        )
        if filtered is not None:
            position = filtered
        k = len(rows)
        matched = Tracklets(
            store.ids[rows],
            np.full(k, TrackStatus.TRACKED, dtype=object),
            np.zeros(k, dtype=int),
            position,
            yaw,
            dims,
            appearance,
            position - prev,
            updated,
        )
        put_rows(store, rows, matched)

        # occluded: commit the coasting prediction; features and age stay
        # frozen until reappearance. Candidate rows may share arrays with
        # store.motion, but occluded rows are not the matched rows written above.
        store.velocity[occluded] = predicted[occluded] - store.position[occluded]
        store.position[occluded] = predicted[occluded]
        put_rows(store.motion, occluded, take_rows(candidate, occluded))
        store.status[occluded] = TrackStatus.OCCLUDED
        store.age[occluded] = np.maximum(store.age[occluded], 1)
        # lost: leave the state pinned where it was
        store.status[lost] = TrackStatus.LOST
        store.age[lost] += 1

        cam_z = pose.world_to_camera(store.position)[:, 2]
        out_of_range = (cam_z < config.range_min) | (cam_z > config.range_max)
        store = take_rows(store, (store.age <= config.max_lost_age) & ~out_of_range)
        if unmatched_dets:
            store = stack_rows(store, self._born(dets, np.array(unmatched_dets)))
            self.next_id += len(unmatched_dets)
        self.rows = store

        emitted = np.flatnonzero(store.status != TrackStatus.LOST)
        box2d = self._reproject_state(emitted, pose)
        area = (box2d[:, 2] - box2d[:, 0]) * (box2d[:, 3] - box2d[:, 1])
        shown = ~((store.status[emitted] == TrackStatus.OCCLUDED) & (area < config.min_emit_box_area))
        emitted, box2d = emitted[shown], box2d[shown]
        ids, position, dims, yaw, velocity, status = (
            column[emitted] for column in (store.ids, store.position, store.dims, store.yaw, store.velocity, store.status)
        )
        # one list per column: no row shares memory with the store
        columns = (ids, position, dims, normalize_angles(yaw), velocity, box2d, status)
        return list(map(TrackRecord, repeat(frame_index), *(column.tolist() for column in columns)))


def run_sequence(sequence, config: TrackerConfig, lstm_weights=None):
    """Track a whole SequenceInput; returns TrackRecords for all frames."""
    tracker = Tracker(config, sequence.intrinsics, lstm_weights)
    records = []
    for frame_index, (pose, dets) in enumerate(zip(sequence.poses, sequence.detections)):
        records.extend(tracker.step(frame_index, dets, pose))
    return records
