"""Batched motion estimation in world coordinates.

World-frame modeling cancels ego-motion: a parked car keeps a constant
state no matter how the camera moves, and its image location is recovered
by re-projection through the current pose. Backends:

  none  last state carried forward; observations folded in by blend_update
  kf2d  constant-velocity Kalman filter on the projected 2D box
        (center, aspect ratio, area); world position handled like `none`
  kf3d  constant-velocity Kalman filter on world position
  lstm  learned prediction/update recurrences (see lstm module)

Every step works on stacked rows, one per tracklet: a Kalman state is a
(K, d) mean and a (K, d, d) covariance, an LSTM state (K, ·) arrays. The
stacked products make the BLAS call of a one-state step for each row, so
every row is bit-equal to stepping it alone. Prediction is pure: it
returns candidate rows that the caller commits only for matched or
occlusion-coasting tracklets, so a lost tracklet's state stays pinned
where it was last estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import matvec, normalize_angle
from . import lstm as lstm_mod


class SingularInnovation(RuntimeError):
    """Innovation covariance is not invertible during a Kalman update."""


@dataclass
class KalmanState:
    mean: np.ndarray  # (K, d), one row per tracklet
    cov: np.ndarray  # (K, d, d)


def _t(a):
    """Transpose of the last two axes."""
    return a.swapaxes(-1, -2)


def kf_predict(state: KalmanState, transition: np.ndarray, process_noise: np.ndarray) -> KalmanState:
    mean = matvec(transition, state.mean)
    cov = np.matmul(np.matmul(transition, state.cov), transition.T) + process_noise
    cov = 0.5 * (cov + _t(cov))
    return KalmanState(mean, cov)


def kf_update(
    state: KalmanState,
    observation: np.ndarray,
    observation_model: np.ndarray,
    observation_noise: np.ndarray,
) -> KalmanState:
    """Measurement update in Joseph form, which preserves PSD covariance.

    observation is (K, m); observation_noise is one (m, m) matrix or (K, m, m).
    """
    h = observation_model
    innovation = np.asarray(observation, dtype=float) - matvec(h, state.mean)
    s = np.matmul(np.matmul(h, state.cov), h.T) + observation_noise
    try:
        gain = _t(np.linalg.solve(_t(s), _t(np.matmul(state.cov, h.T))))
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc
    if not np.all(np.isfinite(gain)):
        raise SingularInnovation("non-finite Kalman gain")
    mean = state.mean + matvec(gain, innovation)
    j = np.eye(state.mean.shape[-1]) - np.matmul(gain, h)
    cov = np.matmul(np.matmul(j, state.cov), _t(j)) + np.matmul(np.matmul(gain, observation_noise), _t(gain))
    cov = 0.5 * (cov + _t(cov))
    return KalmanState(mean, cov)


def blend_update(prev, obs, a_deep):
    """Convex blend of k state rows with ratio alpha = 1 - a_deep per row.

    prev and obs are (position (k, 3), yaw (k,), dims (k, 3), appearance
    (k, A)); so is the result. A perfect appearance match (a_deep = 1)
    keeps the track's state; a total mismatch adopts the observation. Yaw
    blends along the shorter arc, row by row: np.remainder does not
    round like math.remainder.
    """
    a_deep = np.asarray(a_deep, dtype=float)
    if not np.all((0.0 <= a_deep) & (a_deep <= 1.0)):
        raise ValueError(f"a_deep={a_deep} outside [0, 1]")
    alpha = 1.0 - a_deep
    (position, yaw, dims, appearance), (obs_position, obs_yaw, obs_dims, obs_appearance) = prev, obs
    blended_yaw = [
        normalize_angle(y + w * math.remainder(o - y, 2.0 * math.pi))
        for y, o, w in zip(yaw.tolist(), obs_yaw.tolist(), alpha.tolist())
    ]
    col = alpha[:, None]
    return (
        position + col * (obs_position - position),
        np.array(blended_yaw, dtype=float),
        dims + col * (obs_dims - dims),
        appearance + col * (obs_appearance - appearance),
    )


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
_EYE3 = np.eye(3)


def kf3d_measurement_noise(depths) -> np.ndarray:
    """(K, 3, 3) measurement noise for K detection depths."""
    sigma = KF3D_DEPTH_NOISE_RATE * np.maximum(depths, 1.0)
    return _EYE3 * (sigma * sigma)[..., None, None]


def kf3d_init(positions, depths) -> KalmanState:
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    mean = np.concatenate([positions, np.zeros_like(positions)], axis=1)
    cov = np.zeros((len(mean), 6, 6))
    cov[:, :3, :3] = kf3d_measurement_noise(depths)
    cov[:, 3:, 3:] = _EYE3 * KF3D_INITIAL_VELOCITY_VAR
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
KF2D_INITIAL_COV = np.diag([10.0, 10.0, 1e-2, 100.0, 100.0, 100.0, 1000.0])


def box_to_kf2d_measurement(boxes) -> np.ndarray:
    """(K, 4) measurements (cx, cy, w / h, w * h) of (K, 4) image box rows."""
    x0, y0, x1, y1 = np.asarray(boxes, dtype=float).reshape(-1, 4).T
    w = np.maximum(x1 - x0, 1e-6)
    h = np.maximum(y1 - y0, 1e-6)
    return np.stack([0.5 * (x0 + x1), 0.5 * (y0 + y1), w / h, w * h], axis=1)


def kf2d_measurement_to_box(vec) -> np.ndarray:
    """(K, 4) image box rows of (K, >= 4) measurement rows."""
    cx, cy, ratio, area = np.asarray(vec, dtype=float)[:, :4].T
    area = np.maximum(area, 1e-6)
    ratio = np.maximum(ratio, 1e-6)
    w = np.sqrt(area * ratio)
    h = area / w
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)


def kf2d_init(boxes) -> KalmanState:
    measurement = box_to_kf2d_measurement(boxes)
    mean = np.zeros((len(measurement), 7))
    mean[:, :4] = measurement
    return KalmanState(mean, np.repeat(KF2D_INITIAL_COV[None], len(mean), axis=0))


# --- the per-frame steps ----------------------------------------------------


def init_motion_state(backend: str, positions, depths, boxes):
    """Fresh backend rows for tracklets spawned from detections.

    positions (K, 3) and depths (K,) are the decoded world positions and
    camera depths, boxes (K, 4) the detected image boxes.
    """
    if backend == "none":
        return None
    if backend == "kf2d":
        return kf2d_init(boxes)
    if backend == "kf3d":
        return kf3d_init(positions, depths)
    if backend == "lstm":
        k = len(positions)
        return lstm_mod.LstmMotionState(np.zeros((k, 3)), *(np.zeros((k, lstm_mod.HIDDEN_DIM)) for _ in range(4)))
    raise ValueError(f"unknown motion backend {backend!r}")


def predict_tracklet(backend: str, motion, positions, lstm_weights=None):
    """Advance every tracklet one frame with the chosen backend.

    motion holds the backend rows of the tracklets at world positions
    (N, 3). Returns (predicted positions (N, 3), candidate motion rows);
    nothing passed in is mutated, and the caller decides which rows to
    commit. Occluded tracklets keep being predicted every frame, so
    inference motion continues until reappearance.
    """
    if backend == "kf3d":
        motion = kf_predict(motion, KF3D_TRANSITION, KF3D_PROCESS_NOISE)
        return motion.mean[:, :3], motion
    if backend == "lstm":
        return lstm_mod.plstm_predict(motion, lstm_weights, positions)
    if backend == "kf2d":
        motion = kf_predict(motion, KF2D_TRANSITION, KF2D_PROCESS_NOISE)
    return positions.copy(), motion


def update_motion_state(
    backend: str, motion, predicted, obs_positions, obs_depths, obs_boxes, prev_positions, lstm_weights=None
):
    """Fold K matched observations into their predicted motion rows.

    motion and predicted (K, 3) are the candidate rows and positions of
    predict_tracklet; the observations are decoded world positions (K, 3),
    camera depths (K,) and detected image boxes (K, 4). Returns (filtered
    world positions or None, updated motion rows). None means the backend
    does not filter world coordinates and the caller relies on
    blend_update alone.
    """
    if backend == "kf3d":
        motion = kf_update(motion, obs_positions, KF3D_OBSERVATION, kf3d_measurement_noise(obs_depths))
        return motion.mean[:, :3], motion
    if backend == "lstm":
        return lstm_mod.ulstm_update(motion, lstm_weights, predicted, obs_positions, prev_positions)
    if backend == "kf2d":
        motion = kf_update(motion, box_to_kf2d_measurement(obs_boxes), KF2D_OBSERVATION, KF2D_MEASUREMENT_NOISE)
    return None, motion
