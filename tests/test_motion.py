"""Kalman filter, blend update, and prediction-through-camera contracts."""

import dataclasses
import math

import numpy as np
import pytest

from mono3dt.association import Tracklets
from mono3dt.data import TrackStatus, put_rows, stack_rows, take_rows
from mono3dt.geometry import CameraPose, normalize_angle, project_boxes
from mono3dt.lstm import HIDDEN_DIM, LstmMotionState
from mono3dt.motion import (
    KF2D_MEASUREMENT_NOISE,
    KF2D_OBSERVATION,
    KF2D_PROCESS_NOISE,
    KF2D_TRANSITION,
    KF3D_OBSERVATION,
    KF3D_PROCESS_NOISE,
    KF3D_TRANSITION,
    KalmanState,
    SingularInnovation,
    blend_update,
    box_to_kf2d_measurement,
    init_motion_state,
    kf2d_init,
    kf2d_measurement_to_box,
    kf3d_init,
    kf3d_measurement_noise,
    kf_predict,
    kf_update,
    predict_tracklet,
    update_motion_state,
)

from conftest import default_intrinsics


@dataclasses.dataclass
class State:
    """One object's blended state, as the tracker kept it per tracklet before it stored rows."""

    position: np.ndarray
    yaw: float
    dimensions: np.ndarray
    appearance: np.ndarray


def make_state(position, yaw=0.0, dims=(4.2, 1.8, 1.5), app=None):
    return State(
        np.asarray(position, dtype=float),
        yaw,
        np.asarray(dims, dtype=float),
        np.zeros(4) if app is None else np.asarray(app, dtype=float),
    )


def one_state(mean, cov) -> KalmanState:
    """A Kalman state of one tracklet: the K = 1 case of the stacked rows."""
    return KalmanState(np.asarray(mean, dtype=float)[None], np.asarray(cov, dtype=float)[None])


def state_rows(*states):
    """(position, yaw, dims, appearance) rows of States with 4-long appearances, as blend_update takes them."""
    return (
        np.array([s.position for s in states]).reshape(-1, 3),
        np.array([s.yaw for s in states], dtype=float),
        np.array([s.dimensions for s in states]).reshape(-1, 3),
        np.array([s.appearance for s in states]).reshape(len(states), 4),
    )


class TestKalman:
    def test_noiseless_constant_velocity_converges(self):
        # 1D constant-velocity chain with vanishing measurement noise
        f = np.array([[1.0, 1.0], [0.0, 1.0]])
        h = np.array([[1.0, 0.0]])
        q = np.zeros((2, 2))
        r = np.array([[1e-12]])
        state = one_state([0.0, 0.0], np.diag([1.0, 1.0]))
        truth_v = 0.7
        for k in range(1, 11):
            state = kf_predict(state, f, q)
            state = kf_update(state, np.array([[truth_v * k]]), h, r)
        assert abs(state.mean[0, 0] - truth_v * 10) < 1e-6
        assert abs(state.mean[0, 1] - truth_v) < 1e-6

    def test_scalar_gain_closed_form(self):
        p0, r0 = 2.5, 0.5
        state = one_state([1.0], [[p0]])
        z = np.array([[4.0]])
        updated = kf_update(state, z, np.eye(1), np.array([[r0]]))
        gain = (updated.mean[0, 0] - state.mean[0, 0]) / (z[0, 0] - state.mean[0, 0])
        assert gain == pytest.approx(p0 / (p0 + r0), abs=1e-12)
        # Joseph-form covariance equals (1-K) P for the scalar case
        assert updated.cov[0, 0, 0] == pytest.approx((1 - gain) * p0, abs=1e-12)

    def test_zero_velocity_prediction_is_stationary(self):
        state = kf3d_init(np.array([[3.0, -2.0, 1.0]]), [10.0])
        predicted = kf_predict(state, KF3D_TRANSITION, KF3D_PROCESS_NOISE)
        assert np.array_equal(predicted.mean[:, :3], state.mean[:, :3])

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(8)
        state = kf3d_init(rng.normal(size=(1, 3)), [20.0])
        for _ in range(200):
            state = kf_predict(state, KF3D_TRANSITION, KF3D_PROCESS_NOISE)
            if rng.random() < 0.7:
                z = rng.normal(scale=10.0, size=(1, 3))
                state = kf_update(state, z, KF3D_OBSERVATION, kf3d_measurement_noise([20.0]))
            assert np.allclose(state.cov[0], state.cov[0].T, atol=1e-9)
            assert np.linalg.eigvalsh(state.cov[0]).min() >= -1e-9

        box_state = kf2d_init([[100, 100, 300, 260]])
        for _ in range(100):
            box_state = kf_predict(box_state, KF2D_TRANSITION, KF2D_PROCESS_NOISE)
            z = box_to_kf2d_measurement([[100, 100, 300 + rng.normal(), 260]])
            box_state = kf_update(box_state, z, KF2D_OBSERVATION, KF2D_MEASUREMENT_NOISE)
            assert np.allclose(box_state.cov[0], box_state.cov[0].T, atol=1e-9)
            assert np.linalg.eigvalsh(box_state.cov[0]).min() >= -1e-9

    def test_singular_innovation_raises(self):
        state = one_state(np.zeros(1), np.zeros((1, 1)))
        with pytest.raises(SingularInnovation):
            kf_update(state, np.array([[1.0]]), np.eye(1), np.zeros((1, 1)))


class TestBlendUpdate:
    def test_perfect_appearance_keeps_state(self):
        prev = make_state([0, 0, 0], yaw=0.3)
        obs = make_state([5, 5, 5], yaw=1.0)
        position, yaw, _, appearance = blend_update(state_rows(prev), state_rows(obs), [1.0])
        assert np.array_equal(position[0], prev.position)
        assert yaw[0] == prev.yaw
        assert np.array_equal(appearance[0], prev.appearance)

    def test_zero_appearance_adopts_observation(self):
        prev = make_state([0, 0, 0], yaw=0.3, app=[1, 1, 1, 1])
        obs = make_state([5, 5, 5], yaw=1.0, app=[2, 2, 2, 2])
        position, yaw, _, appearance = blend_update(state_rows(prev), state_rows(obs), [0.0])
        assert np.allclose(position[0], obs.position)
        assert yaw[0] == pytest.approx(obs.yaw)
        assert np.allclose(appearance[0], obs.appearance)

    def test_partial_blend(self):
        prev = make_state([0, 0, 0])
        obs = make_state([1, 0, 0])
        position, _, _, _ = blend_update(state_rows(prev), state_rows(obs), [0.6])
        assert np.allclose(position[0], [0.4, 0.0, 0.0])

    def test_yaw_takes_shorter_arc(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a_deep = rng.uniform(0, 1)
            alpha = 1 - a_deep
            prev = make_state([0, 0, 0], yaw=rng.uniform(0, 2 * math.pi))
            obs = make_state([0, 0, 0], yaw=rng.uniform(0, 2 * math.pi))
            _, yaw, _, _ = blend_update(state_rows(prev), state_rows(obs), [a_deep])
            diff = abs(math.remainder(yaw[0] - prev.yaw, 2 * math.pi))
            assert diff <= math.pi * alpha + 1e-9

    def test_rejects_bad_ratio(self):
        rows = state_rows(make_state([0, 0, 0]), make_state([1, 1, 1]))
        for a_deep in ([0.5, 1.5], [-0.1, 0.5], [0.5, math.nan]):
            with pytest.raises(ValueError):
                blend_update(rows, rows, a_deep)


# --- the batched steps against the per-state code they replaced ---------------


def kf_predict_one(mean, cov, transition, process_noise):
    mean = transition @ mean
    cov = transition @ cov @ transition.T + process_noise
    return mean, 0.5 * (cov + cov.T)


def kf_update_one(mean, cov, observation, h, noise):
    innovation = np.asarray(observation, dtype=float) - h @ mean
    s = h @ cov @ h.T + noise
    gain = np.linalg.solve(s.T, (cov @ h.T).T).T
    mean = mean + gain @ innovation
    j = np.eye(len(mean)) - gain @ h
    cov = j @ cov @ j.T + gain @ noise @ gain.T
    return mean, 0.5 * (cov + cov.T)


def kf3d_noise_one(depth):
    sigma = 0.05 * max(depth, 1.0)
    return np.eye(3) * sigma * sigma


def kf2d_measurement_one(box):
    w = max(box[2] - box[0], 1e-6)
    h = max(box[3] - box[1], 1e-6)
    cx, cy = 0.5 * (box[0] + box[2]), 0.5 * (box[1] + box[3])
    return np.array([cx, cy, w / h, w * h])


def kf2d_box_one(vec) -> tuple:
    cx, cy, ratio, area = (float(v) for v in vec[:4])
    area = max(area, 1e-6)
    ratio = max(ratio, 1e-6)
    w = math.sqrt(area * ratio)
    h = area / w
    return (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def blend_one(prev: State, obs: State, a_deep: float) -> State:
    alpha = 1.0 - a_deep
    dyaw = math.remainder(obs.yaw - prev.yaw, 2.0 * math.pi)
    return State(
        prev.position + alpha * (obs.position - prev.position),
        normalize_angle(prev.yaw + alpha * dyaw),
        prev.dimensions + alpha * (obs.dimensions - prev.dimensions),
        prev.appearance + alpha * (obs.appearance - prev.appearance),
    )


def random_kalman(rng, k, d) -> KalmanState:
    a = rng.normal(size=(k, d, d))
    return KalmanState(rng.normal(scale=10.0, size=(k, d)), a @ a.swapaxes(1, 2) + 0.1 * np.eye(d))


def random_boxes(rng, k):
    x0, y0 = rng.uniform(0, 1500, (2, k))
    return np.stack([x0, y0, x0 + rng.uniform(1, 300, k), y0 + rng.uniform(1, 200, k)], axis=1)


@pytest.mark.parametrize("k", [0, 1, 14])
class TestBatchedStepsBitEqual:
    def test_kf3d(self, k):
        rng = np.random.default_rng(100 + k)
        state = random_kalman(rng, k, 6)
        obs, depths = rng.normal(scale=10.0, size=(k, 3)), rng.uniform(0.5, 80.0, k)
        predicted = kf_predict(state, KF3D_TRANSITION, KF3D_PROCESS_NOISE)
        noise = kf3d_measurement_noise(depths)
        updated = kf_update(predicted, obs, KF3D_OBSERVATION, noise)
        assert predicted.mean.shape == (k, 6) and updated.cov.shape == (k, 6, 6)
        for i in range(k):
            mean, cov = kf_predict_one(state.mean[i], state.cov[i], KF3D_TRANSITION, KF3D_PROCESS_NOISE)
            assert np.array_equal(predicted.mean[i], mean) and np.array_equal(predicted.cov[i], cov)
            assert np.array_equal(noise[i], kf3d_noise_one(depths[i]))
            mean, cov = kf_update_one(mean, cov, obs[i], KF3D_OBSERVATION, kf3d_noise_one(depths[i]))
            assert np.array_equal(updated.mean[i], mean) and np.array_equal(updated.cov[i], cov)

    def test_kf2d(self, k):
        rng = np.random.default_rng(200 + k)
        state = random_kalman(rng, k, 7)
        boxes = random_boxes(rng, k)
        predicted = kf_predict(state, KF2D_TRANSITION, KF2D_PROCESS_NOISE)
        measured = box_to_kf2d_measurement(boxes)
        updated = kf_update(predicted, measured, KF2D_OBSERVATION, KF2D_MEASUREMENT_NOISE)
        predicted_boxes = kf2d_measurement_to_box(predicted.mean)
        assert predicted.mean.shape == (k, 7) and updated.cov.shape == (k, 7, 7)
        assert predicted_boxes.shape == (k, 4)
        for i in range(k):
            mean, cov = kf_predict_one(state.mean[i], state.cov[i], KF2D_TRANSITION, KF2D_PROCESS_NOISE)
            assert np.array_equal(predicted.mean[i], mean) and np.array_equal(predicted.cov[i], cov)
            assert predicted_boxes[i].tolist() == list(kf2d_box_one(KF2D_OBSERVATION @ mean))
            z = kf2d_measurement_one(boxes[i])
            assert np.array_equal(measured[i], z)
            mean, cov = kf_update_one(mean, cov, z, KF2D_OBSERVATION, KF2D_MEASUREMENT_NOISE)
            assert np.array_equal(updated.mean[i], mean) and np.array_equal(updated.cov[i], cov)

    def test_blend(self, k):
        rng = np.random.default_rng(300 + k)
        def draw():
            return make_state(rng.normal(size=3), rng.uniform(0, 2 * math.pi), rng.uniform(1, 5, 3), rng.normal(size=4))

        prev, obs = [draw() for _ in range(k)], [draw() for _ in range(k)]
        a_deep = list(rng.uniform(0, 1, k))
        if k > 1:
            # dyaw of exactly +pi and -pi, and yaws at both ends of [0, 2 pi)
            below_tau, above_zero = np.nextafter(2 * math.pi, 0.0), np.nextafter(0.0, 1.0)
            yaws = [(0.0, math.pi), (math.pi, 0.0), (below_tau, above_zero), (above_zero, below_tau)]
            for i, (y0, y1) in enumerate(yaws):
                prev[i].yaw, obs[i].yaw = y0, y1
            a_deep[:3] = [0.0, 1.0, 0.5]
        position, yaw, dims, appearance = blend_update(state_rows(*prev), state_rows(*obs), a_deep)
        assert position.shape == (k, 3) and yaw.shape == (k,) and appearance.shape == (k, 4)
        for i in range(k):
            want = blend_one(prev[i], obs[i], a_deep[i])
            assert np.array_equal(position[i], want.position)
            assert yaw[i] == want.yaw
            assert np.array_equal(dims[i], want.dimensions)
            assert np.array_equal(appearance[i], want.appearance)


def moving_camera_pose(x):
    """Camera at world (x, 0, 1.4) looking along +x."""
    psi = 0.0
    forward = np.array([math.cos(psi), math.sin(psi), 0.0])
    right = np.array([math.sin(psi), -math.cos(psi), 0.0])
    down = np.array([0.0, 0.0, -1.0])
    rot = np.stack([right, down, forward])
    center = np.array([x, 0.0, 1.4])
    return CameraPose(rot, -rot @ center)


DIMS = np.array([[4.2, 1.8, 1.5]])


class TestPredictTracklet:
    def test_static_object_world_invariant_under_ego_motion(self):
        intr = default_intrinsics()
        position = np.array([[20.0, 3.0, 0.75]])
        motion = kf3d_init(position, [20.0])
        pixels = []
        for ego_x in (0.0, 1.0, 2.0):
            predicted, _ = predict_tracklet("kf3d", motion, position)
            center_px, _, boxes, _, _ = project_boxes(predicted, DIMS, [0.0], moving_camera_pose(ego_x), intr)
            assert np.allclose(predicted, position)
            assert (boxes[0, 2] - boxes[0, 0]) * (boxes[0, 3] - boxes[0, 1]) > 0.0  # in view
            pixels.append(center_px[0])
        # approaching camera pushes the lateral offset outward
        assert pixels[0][0] != pytest.approx(pixels[2][0])

    def test_kf3d_beats_carry_forward_on_constant_velocity(self):
        velocity = np.array([0.5, 0.1, 0.0])
        start = np.array([20.0, -2.0, 0.75])
        position = start[None].copy()
        motion = kf3d_init(position, [20.0])
        truth = start.copy()
        for _ in range(5):
            truth = truth + velocity
            predicted, candidate = predict_tracklet("kf3d", motion, position)
            filtered, motion = update_motion_state(
                "kf3d", candidate, predicted, truth[None], [truth[0]], None, position
            )
            position = filtered.copy()
        predicted_kf, _ = predict_tracklet("kf3d", motion, position)
        err_kf = np.linalg.norm(predicted_kf[0] - (truth + velocity))

        predicted_none, _ = predict_tracklet("none", None, truth[None])
        err_none = np.linalg.norm(predicted_none[0] - (truth + velocity))
        assert err_kf < err_none

    def test_occluded_coasting_continues_without_observations(self):
        start = np.array([15.0, 0.0, 0.75])
        velocity = np.array([0.0, 0.6, 0.0])
        position = start[None].copy()
        motion = kf3d_init(position, [15.0])
        truth = start.copy()
        for _ in range(8):
            truth = truth + velocity
            predicted, candidate = predict_tracklet("kf3d", motion, position)
            filtered, motion = update_motion_state("kf3d", candidate, predicted, truth[None], [15.0], None, position)
            position = filtered.copy()
        # no observations: keep committing the prediction, as the occluded path does
        coasted = position.copy()
        for k in range(1, 6):
            predicted, motion = predict_tracklet("kf3d", motion, position)
            position = predicted.copy()
            expected = truth + k * velocity
            assert np.linalg.norm(position[0] - expected) < 0.05
        assert not np.allclose(position, coasted)

    def test_behind_camera_flagged_not_raised(self):
        intr = default_intrinsics()
        pose = moving_camera_pose(0.0)
        predicted, _ = predict_tracklet("none", None, np.array([[-5.0, 0.0, 0.75]]))  # behind the camera at x=0
        _, depth, boxes, _, _ = project_boxes(predicted, DIMS, [0.0], pose, intr)
        assert (boxes[0, 2] - boxes[0, 0]) * (boxes[0, 3] - boxes[0, 1]) == 0.0  # not in view
        assert depth[0] < 0

    def test_init_motion_state_backends(self):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0]])
        position, depth = np.zeros((1, 3)), [5.0]
        assert init_motion_state("none", position, depth, boxes) is None
        assert init_motion_state("kf2d", position, depth, boxes).mean.shape == (1, 7)
        assert init_motion_state("kf3d", position, depth, boxes).mean.shape == (1, 6)
        assert init_motion_state("lstm", position, depth, boxes).v_last.shape == (1, 3)
        with pytest.raises(ValueError):
            init_motion_state("bogus", position, depth, boxes)


def random_tracklets(rng, motion_kind, k) -> Tracklets:
    """k store rows of random content whose motion rows are a KalmanState, an LstmMotionState or None."""
    motion = {
        "none": None,
        "kalman": random_kalman(rng, k, 6),
        "lstm": LstmMotionState(rng.normal(size=(k, 3)), *(rng.normal(size=(k, HIDDEN_DIM)) for _ in range(4))),
    }[motion_kind]
    statuses = list(TrackStatus)
    return Tracklets(
        rng.integers(0, 1000, k),
        np.array([statuses[i] for i in rng.integers(0, 3, k)], dtype=object),
        rng.integers(0, 20, k),
        rng.normal(size=(k, 3)),
        rng.normal(size=k),
        rng.uniform(1, 5, (k, 3)),
        rng.normal(size=(k, 4)),
        rng.normal(size=(k, 3)),
        motion,
    )


def leaves(rows) -> list:
    """Every array of a row dataclass, nested ones included, in field order."""
    if rows is None:
        return []
    if isinstance(rows, np.ndarray):
        return [rows]
    return [leaf for f in dataclasses.fields(rows) for leaf in leaves(getattr(rows, f.name))]


@pytest.mark.parametrize("k", [0, 6])
@pytest.mark.parametrize("motion_kind", ["none", "kalman", "lstm"])
class TestRowHelpers:
    """take_rows / stack_rows / put_rows on the tracker's store and its nested motion rows."""

    def test_take_returns_copies_of_the_rows(self, motion_kind, k):
        rng = np.random.default_rng(k)
        store = random_tracklets(rng, motion_kind, k)
        for index in (rng.permutation(k)[: k // 2], rng.random(k) < 0.5, np.arange(k)):
            taken = take_rows(store, index)
            assert type(taken.motion) is type(store.motion)
            assert len(leaves(taken)) == len(leaves(store)) == {"none": 8, "kalman": 10, "lstm": 13}[motion_kind]
            for got, full in zip(leaves(taken), leaves(store)):
                assert got.dtype == full.dtype and np.array_equal(got, full[index])
                assert not np.shares_memory(got, full)

    def test_stack_then_take_round_trip(self, motion_kind, k):
        rng = np.random.default_rng(10 + k)
        first, second = random_tracklets(rng, motion_kind, k), random_tracklets(rng, motion_kind, 3)
        stacked = stack_rows(first, second)
        assert type(stacked.motion) is type(first.motion)
        assert len(stacked.ids) == k + 3
        for part, index in ((first, np.arange(k)), (second, np.arange(k, k + 3))):
            for got, expected in zip(leaves(take_rows(stacked, index)), leaves(part)):
                assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_put_writes_only_the_listed_rows(self, motion_kind, k):
        rng = np.random.default_rng(20 + k)
        store = random_tracklets(rng, motion_kind, k)
        before = take_rows(store, np.arange(k))
        index = np.array([i for i in (4, 1) if i < k], dtype=int)
        values = random_tracklets(rng, motion_kind, len(index))
        put_rows(store, index, values)
        others = np.setdiff1d(np.arange(k), index)
        for now, old, new in zip(leaves(store), leaves(before), leaves(values)):
            assert np.array_equal(now[index], new)
            assert np.array_equal(now[others], old[others])
