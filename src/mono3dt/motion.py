"""Per-tracklet motion estimation in world coordinates.

World-frame modeling cancels ego-motion: a parked car keeps a constant
state no matter how the camera moves, and its image location is recovered
by re-projection through the current pose. Backends:

  none  last state carried forward; observations folded in by blend_update
  kf2d  constant-velocity Kalman filter on the projected 2D box
        (center, aspect ratio, area); world position handled like `none`
  kf3d  constant-velocity Kalman filter on world position
  lstm  learned prediction/update recurrences (see lstm module)

Backend `predict` methods are pure: they return a candidate state that
the caller commits only for matched or occlusion-coasting tracklets, so
a lost tracklet's state stays pinned where it was last estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ObjectState
from .geometry import Box2D, normalize_angle
from . import lstm as lstm_mod


class SingularInnovation(RuntimeError):
    """Innovation covariance is not invertible during a Kalman update."""


@dataclass
class KalmanState:
    mean: np.ndarray
    cov: np.ndarray


def kf_predict(state: KalmanState, transition: np.ndarray, process_noise: np.ndarray) -> KalmanState:
    mean = transition @ state.mean
    cov = transition @ state.cov @ transition.T + process_noise
    cov = 0.5 * (cov + cov.T)
    return KalmanState(mean, cov)


def kf_update(
    state: KalmanState,
    observation: np.ndarray,
    observation_model: np.ndarray,
    observation_noise: np.ndarray,
) -> KalmanState:
    """Measurement update in Joseph form, which preserves PSD covariance."""
    h = observation_model
    innovation = np.asarray(observation, dtype=float) - h @ state.mean
    s = h @ state.cov @ h.T + observation_noise
    try:
        gain = np.linalg.solve(s.T, (state.cov @ h.T).T).T
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc
    if not np.all(np.isfinite(gain)):
        raise SingularInnovation("non-finite Kalman gain")
    mean = state.mean + gain @ innovation
    identity = np.eye(len(state.mean))
    j = identity - gain @ h
    cov = j @ state.cov @ j.T + gain @ observation_noise @ gain.T
    cov = 0.5 * (cov + cov.T)
    return KalmanState(mean, cov)


def blend_update(prev_state: ObjectState, obs_state: ObjectState, a_deep: float) -> ObjectState:
    """Convex blend of the full state tuple with ratio alpha = 1 - a_deep.

    A perfect appearance match (a_deep = 1) keeps the track's state; a
    total mismatch adopts the observation. Yaw blends along the shorter
    arc.
    """
    if not (0.0 <= a_deep <= 1.0):
        raise ValueError(f"a_deep={a_deep} outside [0, 1]")
    alpha = 1.0 - a_deep
    dyaw = math.remainder(obs_state.yaw - prev_state.yaw, 2.0 * math.pi)
    blended = prev_state.copy()
    blended.position = prev_state.position + alpha * (obs_state.position - prev_state.position)
    blended.yaw = normalize_angle(prev_state.yaw + alpha * dyaw)
    blended.dimensions = prev_state.dimensions + alpha * (obs_state.dimensions - prev_state.dimensions)
    blended.appearance = prev_state.appearance + alpha * (obs_state.appearance - prev_state.appearance)
    return blended


# --- KF3D: constant-velocity world-position filter -------------------------

KF3D_TRANSITION = np.block(
    [[np.eye(3), np.eye(3)], [np.zeros((3, 3)), np.eye(3)]]
)
KF3D_OBSERVATION = np.hstack([np.eye(3), np.zeros((3, 3))])
KF3D_VELOCITY_PROCESS_VAR = 0.01  # m^2/frame^2 on the velocity block
KF3D_DEPTH_NOISE_RATE = 0.05  # measurement sigma = rate * depth
# a diffuse velocity prior lets the first few measurements pin the
# velocity; a tight one coasts badly when occlusion strikes a young track
KF3D_INITIAL_VELOCITY_VAR = 100.0

KF3D_PROCESS_NOISE = np.diag([0.0, 0.0, 0.0] + [KF3D_VELOCITY_PROCESS_VAR] * 3)


def kf3d_measurement_noise(depth: float) -> np.ndarray:
    sigma = KF3D_DEPTH_NOISE_RATE * max(depth, 1.0)
    return np.eye(3) * sigma * sigma


def kf3d_init(position: np.ndarray, depth: float) -> KalmanState:
    mean = np.concatenate([np.asarray(position, dtype=float), np.zeros(3)])
    cov = np.zeros((6, 6))
    cov[:3, :3] = kf3d_measurement_noise(depth)
    cov[3:, 3:] = np.eye(3) * KF3D_INITIAL_VELOCITY_VAR
    return KalmanState(mean, cov)


# --- KF2D: image-space box filter (center, aspect ratio, area) -------------

# state: [x, y, s, a, dx, dy, da]; s is width/height ratio (no velocity term)
KF2D_TRANSITION = np.eye(7)
KF2D_TRANSITION[0, 4] = KF2D_TRANSITION[1, 5] = KF2D_TRANSITION[3, 6] = 1.0
KF2D_OBSERVATION = np.zeros((4, 7))
KF2D_OBSERVATION[0, 0] = KF2D_OBSERVATION[1, 1] = 1.0
KF2D_OBSERVATION[2, 2] = KF2D_OBSERVATION[3, 3] = 1.0
KF2D_PROCESS_NOISE = np.diag([1.0, 1.0, 1e-4, 10.0, 1.0, 1.0, 10.0])
KF2D_MEASUREMENT_NOISE = np.diag([4.0, 4.0, 1e-2, 100.0])


def box_to_kf2d_measurement(box: Box2D) -> np.ndarray:
    w = max(box.width, 1e-6)
    h = max(box.height, 1e-6)
    cx, cy = box.center
    return np.array([cx, cy, w / h, w * h])


def kf2d_measurement_to_box(vec) -> Box2D:
    cx, cy, ratio, area = (float(v) for v in vec[:4])
    area = max(area, 1e-6)
    ratio = max(ratio, 1e-6)
    w = math.sqrt(area * ratio)
    h = area / w
    return Box2D(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def kf2d_init(box: Box2D) -> KalmanState:
    mean = np.zeros(7)
    mean[:4] = box_to_kf2d_measurement(box)
    cov = np.diag([10.0, 10.0, 1e-2, 100.0, 100.0, 100.0, 1000.0])
    return KalmanState(mean, cov)


# --- prediction -------------------------------------------------------------


@dataclass
class PredictedView:
    """One-frame-ahead world prediction re-projected into the current camera."""

    position: np.ndarray  # (3,) world
    center_px: np.ndarray  # (2,) valid only when in_view
    depth: float  # camera-frame z (may be <= 0 when behind)
    box2d: Box2D  # zero box when not in view
    in_view: bool
    motion_state: object  # candidate state to commit on match/coast


def predict_tracklet(tracklet, backend: str, lstm_weights=None):
    """Advance a tracklet one frame with the chosen backend.

    Returns (predicted world position, candidate motion state); the
    tracker projects the positions of all tracklets in one batch. The
    tracklet is not mutated; the caller decides whether to commit the
    returned motion state. Occluded tracklets keep calling this every
    frame, so inference motion continues until reappearance.
    """
    state = tracklet.state
    if backend == "none":
        return state.position.copy(), tracklet.motion_state
    if backend == "kf2d":
        return state.position.copy(), kf_predict(tracklet.motion_state, KF2D_TRANSITION, KF2D_PROCESS_NOISE)
    if backend == "kf3d":
        motion_state = kf_predict(tracklet.motion_state, KF3D_TRANSITION, KF3D_PROCESS_NOISE)
        return motion_state.mean[:3].copy(), motion_state
    if backend == "lstm":
        if lstm_weights is None:
            raise ValueError("lstm backend requires weights")
        position, motion_state = lstm_mod.plstm_predict(tracklet.motion_state, lstm_weights, state.position)
        return np.asarray(position, dtype=float), motion_state
    raise ValueError(f"unknown motion backend {backend!r}")


def init_motion_state(backend: str, position, depth: float, box2d: Box2D):
    """Fresh backend state for a tracklet spawned from a detection."""
    if backend == "none":
        return None
    if backend == "kf2d":
        return kf2d_init(box2d)
    if backend == "kf3d":
        return kf3d_init(position, depth)
    if backend == "lstm":
        return lstm_mod.LstmMotionState()
    raise ValueError(f"unknown motion backend {backend!r}")


def update_motion_state(
    backend: str,
    predicted: PredictedView,
    obs_position,
    obs_depth: float,
    obs_box2d: Box2D,
    prev_position,
    lstm_weights=None,
):
    """Fold a matched observation into the predicted motion state.

    Returns (filtered world position or None, committed motion state).
    A None position means the backend does not filter world coordinates
    and the caller should rely on blend_update alone.
    """
    if backend == "none":
        return None, None
    if backend == "kf2d":
        new_state = kf_update(
            predicted.motion_state,
            box_to_kf2d_measurement(obs_box2d),
            KF2D_OBSERVATION,
            KF2D_MEASUREMENT_NOISE,
        )
        return None, new_state
    if backend == "kf3d":
        new_state = kf_update(
            predicted.motion_state,
            np.asarray(obs_position, dtype=float),
            KF3D_OBSERVATION,
            kf3d_measurement_noise(obs_depth),
        )
        return new_state.mean[:3].copy(), new_state
    if backend == "lstm":
        refined, new_state = lstm_mod.ulstm_update(
            predicted.motion_state, lstm_weights, predicted.position, obs_position, prev_position
        )
        return refined, new_state
    raise ValueError(f"unknown motion backend {backend!r}")
