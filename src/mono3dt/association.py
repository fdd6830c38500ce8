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

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import motion as motion_mod
from .data import ObjectState, TrackerConfig, TrackRecord, TrackStatus
from .geometry import (
    DEPTH_ORDER_TIE_RATE,
    MIN_CAMERA_Z,
    Box2D,
    alpha_to_theta,
    backproject,
    camera_heading,
    cover_fractions,
    depth_ordered_overlaps,
    iou_2d_matrix,
    project_box,
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


def deep_feature(
    state: ObjectState, center_px, depth: float, intrinsics, config: TrackerConfig
) -> np.ndarray:
    """Concatenated appearance + geometry feature with unit-balancing scales.

    center_px and depth place the object in the current camera. Without
    scaling, raw depth differences swamp every other component of the L1
    distance; each block is brought to roughly unit range instead.
    """
    return np.concatenate(
        [
            state.appearance,
            state.dimensions / 10.0,
            center_px / intrinsics.image_diagonal,
            [state.yaw / math.pi],
            [depth / config.range_max],
        ]
    )


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
    if not np.all(np.isfinite(values)):
        raise ValueError("affinity matrix contains non-finite entries")
    padded = np.full((n, m + n), 0.0)
    padded[:, :m] = np.where(matrix.kept_mask, values, MASKED_VALUE)
    rows, cols = linear_sum_assignment(padded, maximize=True)
    pairs = []
    matched_rows = set()
    matched_cols = set()
    for r, c in zip(rows, cols):
        if c >= m or not matrix.kept_mask[r, c]:
            continue
        if values[r, c] < accept_threshold:
            continue
        pairs.append((int(r), int(c)))
        matched_rows.add(int(r))
        matched_cols.add(int(c))
    unmatched_tracks = [i for i in range(n) if i not in matched_rows]
    unmatched_dets = [j for j in range(m) if j not in matched_cols]
    return pairs, unmatched_tracks, unmatched_dets


# --- tracklets and lifecycle -------------------------------------------------


@dataclass
class Tracklet:
    id: int
    state: ObjectState
    status: TrackStatus = TrackStatus.TRACKED
    age_since_match: int = 0
    motion_state: object = None
    predicted: object = None  # PredictedView, refreshed every frame


def decode_detection(det, pose, intrinsics) -> ObjectState:
    """Reconstruct the world-frame object state a detection encodes."""
    position = backproject(det.center_proj, det.depth, pose, intrinsics)
    yaw_cam = alpha_to_theta(det.yaw_local, float(det.center_proj[0]), intrinsics)
    yaw_world = yaw_cam + camera_heading(pose)
    return ObjectState(
        position=position,
        yaw=yaw_world,
        dimensions=det.dimensions.copy(),
        appearance=det.appearance.copy(),
        velocity=np.zeros(3),
    )


def predict_views(tracklets, backend: str, pose, intrinsics, lstm_weights=None) -> list:
    """Advance every tracklet one frame and project all predictions in one batch.

    Returns one PredictedView per tracklet; tracklets are not mutated.
    With the kf2d backend the 2D filter owns the predicted box of an
    in-view tracklet, while its 3D quantities stay carried.
    """
    predictions = [motion_mod.predict_tracklet(t, backend, lstm_weights) for t in tracklets]
    center_px, depth, boxes, _ = project_boxes(
        [position for position, _ in predictions],
        [t.state.dimensions for t in tracklets],
        [t.state.yaw for t in tracklets],
        pose,
        intrinsics,
    )
    views = []
    for (position, motion_state), px, z, box in zip(predictions, center_px, depth.tolist(), boxes.tolist()):
        box2d = Box2D(*box)
        in_view = box2d.area > 0.0
        if backend == "kf2d" and in_view:
            box2d = motion_mod.kf2d_measurement_to_box(motion_mod.KF2D_OBSERVATION @ motion_state.mean)
        views.append(motion_mod.PredictedView(position, px, z, box2d, in_view, motion_state))
    return views


def build_affinity_matrix(tracklets, det_states, detections, det_proj_boxes, intrinsics, config):
    """Affinity values, keep mask, and appearance components for one frame.

    tracklets carry fresh PredictedView objects; det_states are the decoded
    world states of the DetectionRecords in detections, det_proj_boxes the
    projections of the decoded 3D boxes. The keep mask is decided first;
    every channel is an (n, m) array that is 0 outside it.
    """
    n = len(tracklets)
    m = len(det_states)
    in_view = np.array([t.predicted.in_view for t in tracklets], dtype=bool)
    kept = np.repeat(in_view[:, None], m, axis=1)
    if n == 0 or m == 0:
        return AffinityMatrix(np.zeros((n, m)), kept, np.zeros((n, m)))

    track_boxes = [t.predicted.box2d for t in tracklets]
    track_rects = [b.as_tuple() for b in track_boxes]
    track_depths = [t.predicted.depth for t in tracklets]
    det_depths = [d.depth for d in detections]
    if config.use_depth_ordering:
        track_dims = [t.state.dimensions for t in tracklets]
        kept &= depth_filter(track_depths, track_dims, det_depths, [s.dimensions for s in det_states])
        a_3d = depth_ordered_overlaps(
            track_boxes, track_depths, det_proj_boxes, det_depths, kept, config.ord_tie_meters, DEPTH_ORDER_TIE_RATE
        )
    else:
        a_3d = iou_2d_matrix(track_rects, [b.as_tuple() for b in det_proj_boxes])
    track_features = [
        deep_feature(t.state, t.predicted.center_px, t.predicted.depth, intrinsics, config)
        for t in tracklets
    ]
    det_features = [
        deep_feature(s, d.center_proj, d.depth, intrinsics, config)
        for s, d in zip(det_states, detections)
    ]
    lengths = {len(f) for f in track_features + det_features}
    if len(lengths) > 1:
        raise LengthMismatch(f"feature lengths differ: {sorted(lengths)}")
    distance = np.abs(np.array(track_features)[:, None] - np.array(det_features)[None]).sum(axis=-1)
    deep = np.where(kept, np.exp(-distance), 0.0)
    a_2d = iou_2d_matrix(track_rects, [d.box2d.as_tuple() for d in detections])
    values = np.where(kept, compose_affinity(deep, a_2d, a_3d, config), 0.0)
    return AffinityMatrix(values, kept, deep)


class Tracker:
    """Strictly online tracker: one lifecycle step per frame.

    Output at frame t depends only on frames <= t. Dead tracklets never
    come back and their ids are never reused.
    """

    def __init__(self, config: TrackerConfig, intrinsics, lstm_weights=None):
        config.validate()
        if config.motion_backend == "lstm" and lstm_weights is None:
            raise ValueError("motion_backend 'lstm' requires trained weights")
        self.config = config
        self.intrinsics = intrinsics
        self.lstm_weights = lstm_weights
        self.tracklets: list[Tracklet] = []
        self.next_id = 0

    # -- helpers -------------------------------------------------------------

    def _reproject_state(self, states, pose) -> list:
        """Image boxes of the emitted states in the current camera, one batch."""
        _, _, boxes, _ = project_boxes(
            [s.position for s in states], [s.dimensions for s in states], [s.yaw for s in states], pose, self.intrinsics
        )
        return [Box2D(*row) for row in boxes.tolist()]

    def _spawn(self, det, state: ObjectState) -> Tracklet:
        tracklet = Tracklet(
            id=self.next_id,
            state=state,
            motion_state=motion_mod.init_motion_state(
                self.config.motion_backend, state.position, det.depth, det.box2d
            ),
        )
        self.next_id += 1
        return tracklet

    # -- lifecycle -------------------------------------------------------------

    def step(self, frame_index: int, detections, pose):
        """Advance one frame: predict, associate, update, spawn, retire.

        Returns the TrackRecords emitted for this frame (tracked and
        occluded tracklets; lost ones coast silently).
        """
        config = self.config
        backend = config.motion_backend
        tracklets = self.tracklets

        for t, view in zip(tracklets, predict_views(tracklets, backend, pose, self.intrinsics, self.lstm_weights)):
            t.predicted = view

        det_states = [decode_detection(d, pose, self.intrinsics) for d in detections]
        _, center_z, boxes, any_in_front = project_boxes(
            [s.position for s in det_states],
            [s.dimensions for s in det_states],
            [s.yaw for s in det_states],
            pose,
            self.intrinsics,
        )
        det_proj_boxes = []
        for d, s, box, z, in_front in zip(detections, det_states, boxes.tolist(), center_z, any_in_front):
            if not in_front:
                det_proj_boxes.append(d.box2d)  # wholly behind the camera
            elif z <= MIN_CAMERA_Z:
                # center behind, some corner in front: the truncated hull
                det_proj_boxes.append(project_box(s.box3d(), pose, self.intrinsics))
            else:
                det_proj_boxes.append(Box2D(*box))

        matrix = build_affinity_matrix(
            tracklets, det_states, detections, det_proj_boxes, self.intrinsics, config
        )
        pairs, unmatched_tracks, unmatched_dets = solve_assignment(
            matrix, config.affinity_accept_threshold
        )

        covers = cover_fractions(
            [t.predicted.box2d for t in tracklets],
            [t.predicted.depth for t in tracklets],
            config.ord_tie_meters,
            DEPTH_ORDER_TIE_RATE,
        )

        for row, col in pairs:
            t = tracklets[row]
            det = detections[col]
            obs_state = det_states[col]
            prev_position = t.state.position.copy()
            filtered_pos, new_motion = motion_mod.update_motion_state(
                backend,
                t.predicted,
                obs_state.position,
                det.depth,
                det.box2d,
                prev_position,
                self.lstm_weights,
            )
            blended = motion_mod.blend_update(t.state, obs_state, matrix.a_deep[row, col])
            if filtered_pos is not None:
                blended.position = filtered_pos
            blended.velocity = blended.position - prev_position
            t.state = blended
            if new_motion is not None:
                t.motion_state = new_motion
            t.status = TrackStatus.TRACKED
            t.age_since_match = 0

        for row in unmatched_tracks:
            t = tracklets[row]
            occluded = (
                config.use_occlusion_state
                and t.predicted.in_view
                and covers[row] >= config.occlusion_cover_threshold
            )
            if occluded:
                # commit the coasting prediction; features and age stay
                # frozen until reappearance
                prev_position = t.state.position.copy()
                t.state.position = t.predicted.position.copy()
                t.state.velocity = t.state.position - prev_position
                t.motion_state = t.predicted.motion_state
                t.status = TrackStatus.OCCLUDED
                if t.age_since_match == 0:
                    t.age_since_match = 1
            else:
                # plain lost handling: leave the state pinned where it was
                t.status = TrackStatus.LOST
                t.age_since_match += 1

        records = []
        survivors = []
        for t in tracklets:
            cam_z = float(pose.world_to_camera(t.state.position)[2])
            out_of_range = cam_z < config.range_min or cam_z > config.range_max
            if t.age_since_match <= config.max_lost_age and not out_of_range:
                survivors.append(t)

        for col in unmatched_dets:
            survivors.append(self._spawn(detections[col], det_states[col]))

        emitted = [t for t in survivors if t.status in (TrackStatus.TRACKED, TrackStatus.OCCLUDED)]
        for t, box2d in zip(emitted, self._reproject_state([t.state for t in emitted], pose)):
            if t.status == TrackStatus.OCCLUDED and box2d.area < config.min_emit_box_area:
                continue
            records.append(
                TrackRecord(
                    frame_index=frame_index,
                    track_id=t.id,
                    box3d=t.state.box3d(),
                    velocity=t.state.velocity.copy(),
                    box2d_projected=box2d,
                    status=t.status,
                )
            )
        self.tracklets = survivors
        return records


def run_sequence(sequence, config: TrackerConfig, lstm_weights=None):
    """Track a whole SequenceInput; returns TrackRecords for all frames."""
    tracker = Tracker(config, sequence.intrinsics, lstm_weights)
    records = []
    for frame_index, (pose, dets) in enumerate(zip(sequence.poses, sequence.detections)):
        records.extend(tracker.step(frame_index, dets, pose))
    return records
