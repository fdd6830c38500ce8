"""Kalman filter, blend update, and prediction-through-camera contracts."""

import math

import numpy as np
import pytest

from mono3dt.association import Tracklet, predict_views
from mono3dt.data import ObjectState, TrackStatus
from mono3dt.geometry import CameraPose, normalize_angle
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
    kf3d_init,
    kf3d_measurement_noise,
    kf_predict,
    kf_update,
    update_motion_state,
)
from mono3dt.geometry import Box2D

from conftest import default_intrinsics


def make_state(position, yaw=0.0, dims=(4.2, 1.8, 1.5), app=None, vel=(0, 0, 0)):
    return ObjectState(
        position=np.asarray(position, dtype=float),
        yaw=yaw,
        dimensions=np.asarray(dims, dtype=float),
        appearance=np.zeros(4) if app is None else np.asarray(app, dtype=float),
        velocity=np.asarray(vel, dtype=float),
    )


class TestKalman:
    def test_noiseless_constant_velocity_converges(self):
        # 1D constant-velocity chain with vanishing measurement noise
        f = np.array([[1.0, 1.0], [0.0, 1.0]])
        h = np.array([[1.0, 0.0]])
        q = np.zeros((2, 2))
        r = np.array([[1e-12]])
        state = KalmanState(np.array([0.0, 0.0]), np.diag([1.0, 1.0]))
        truth_v = 0.7
        for k in range(1, 11):
            state = kf_predict(state, f, q)
            state = kf_update(state, np.array([truth_v * k]), h, r)
        assert abs(state.mean[0] - truth_v * 10) < 1e-6
        assert abs(state.mean[1] - truth_v) < 1e-6

    def test_scalar_gain_closed_form(self):
        p0, r0 = 2.5, 0.5
        state = KalmanState(np.array([1.0]), np.array([[p0]]))
        z = np.array([4.0])
        updated = kf_update(state, z, np.eye(1), np.array([[r0]]))
        gain = (updated.mean[0] - state.mean[0]) / (z[0] - state.mean[0])
        assert gain == pytest.approx(p0 / (p0 + r0), abs=1e-12)
        # Joseph-form covariance equals (1-K) P for the scalar case
        assert updated.cov[0, 0] == pytest.approx((1 - gain) * p0, abs=1e-12)

    def test_zero_velocity_prediction_is_stationary(self):
        state = kf3d_init(np.array([3.0, -2.0, 1.0]), depth=10.0)
        predicted = kf_predict(state, KF3D_TRANSITION, KF3D_PROCESS_NOISE)
        assert np.array_equal(predicted.mean[:3], state.mean[:3])

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(8)
        state = kf3d_init(rng.normal(size=3), depth=20.0)
        for _ in range(200):
            state = kf_predict(state, KF3D_TRANSITION, KF3D_PROCESS_NOISE)
            if rng.random() < 0.7:
                z = rng.normal(scale=10.0, size=3)
                state = kf_update(state, z, KF3D_OBSERVATION, kf3d_measurement_noise(20.0))
            assert np.allclose(state.cov, state.cov.T, atol=1e-9)
            assert np.linalg.eigvalsh(state.cov).min() >= -1e-9

        box_state = kf2d_init(Box2D(100, 100, 300, 260))
        for _ in range(100):
            box_state = kf_predict(box_state, KF2D_TRANSITION, KF2D_PROCESS_NOISE)
            z = box_to_kf2d_measurement(Box2D(100, 100, 300 + rng.normal(), 260))
            box_state = kf_update(box_state, z, KF2D_OBSERVATION, KF2D_MEASUREMENT_NOISE)
            assert np.allclose(box_state.cov, box_state.cov.T, atol=1e-9)
            assert np.linalg.eigvalsh(box_state.cov).min() >= -1e-9

    def test_singular_innovation_raises(self):
        state = KalmanState(np.zeros(1), np.zeros((1, 1)))
        with pytest.raises(SingularInnovation):
            kf_update(state, np.array([1.0]), np.eye(1), np.zeros((1, 1)))


class TestBlendUpdate:
    def test_perfect_appearance_keeps_state(self):
        prev = make_state([0, 0, 0], yaw=0.3)
        obs = make_state([5, 5, 5], yaw=1.0)
        blended = blend_update(prev, obs, a_deep=1.0)
        assert np.array_equal(blended.position, prev.position)
        assert blended.yaw == prev.yaw
        assert np.array_equal(blended.appearance, prev.appearance)

    def test_zero_appearance_adopts_observation(self):
        prev = make_state([0, 0, 0], yaw=0.3, app=[1, 1, 1, 1])
        obs = make_state([5, 5, 5], yaw=1.0, app=[2, 2, 2, 2])
        blended = blend_update(prev, obs, a_deep=0.0)
        assert np.allclose(blended.position, obs.position)
        assert blended.yaw == pytest.approx(obs.yaw)
        assert np.allclose(blended.appearance, obs.appearance)

    def test_partial_blend(self):
        prev = make_state([0, 0, 0])
        obs = make_state([1, 0, 0])
        blended = blend_update(prev, obs, a_deep=0.6)
        assert np.allclose(blended.position, [0.4, 0.0, 0.0])

    def test_yaw_takes_shorter_arc(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a_deep = rng.uniform(0, 1)
            alpha = 1 - a_deep
            prev = make_state([0, 0, 0], yaw=rng.uniform(0, 2 * math.pi))
            obs = make_state([0, 0, 0], yaw=rng.uniform(0, 2 * math.pi))
            blended = blend_update(prev, obs, a_deep)
            diff = abs(math.remainder(blended.yaw - prev.yaw, 2 * math.pi))
            assert diff <= math.pi * alpha + 1e-9

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            blend_update(make_state([0, 0, 0]), make_state([1, 1, 1]), a_deep=1.5)


def moving_camera_pose(x):
    """Camera at world (x, 0, 1.4) looking along +x."""
    psi = 0.0
    forward = np.array([math.cos(psi), math.sin(psi), 0.0])
    right = np.array([math.sin(psi), -math.cos(psi), 0.0])
    down = np.array([0.0, 0.0, -1.0])
    rot = np.stack([right, down, forward])
    center = np.array([x, 0.0, 1.4])
    return CameraPose(rot, -rot @ center)


class TestPredictTracklet:
    def test_static_object_world_invariant_under_ego_motion(self):
        intr = default_intrinsics()
        state = make_state([20.0, 3.0, 0.75])
        tracklet = Tracklet(id=0, state=state, motion_state=kf3d_init(state.position, 20.0))
        pixels = []
        for ego_x in (0.0, 1.0, 2.0):
            view = predict_views([tracklet], "kf3d", moving_camera_pose(ego_x), intr)[0]
            assert np.allclose(view.position, state.position)
            assert view.in_view
            pixels.append(view.center_px.copy())
        # approaching camera pushes the lateral offset outward
        assert pixels[0][0] != pytest.approx(pixels[2][0])

    def test_kf3d_beats_carry_forward_on_constant_velocity(self):
        intr = default_intrinsics()
        pose = moving_camera_pose(0.0)
        velocity = np.array([0.5, 0.1, 0.0])
        start = np.array([20.0, -2.0, 0.75])
        state = make_state(start)
        tracklet = Tracklet(id=0, state=state, motion_state=kf3d_init(start, 20.0))
        truth = start.copy()
        for _ in range(5):
            truth = truth + velocity
            view = predict_views([tracklet], "kf3d", pose, intr)[0]
            _, tracklet.motion_state = update_motion_state(
                "kf3d", view, truth, float(truth[0]), None, tracklet.state.position
            )
            tracklet.state.position = tracklet.motion_state.mean[:3].copy()
        view_kf = predict_views([tracklet], "kf3d", pose, intr)[0]
        err_kf = np.linalg.norm(view_kf.position - (truth + velocity))

        none_track = Tracklet(id=1, state=make_state(truth), motion_state=None)
        view_none = predict_views([none_track], "none", pose, intr)[0]
        err_none = np.linalg.norm(view_none.position - (truth + velocity))
        assert err_kf < err_none

    def test_occluded_coasting_continues_without_observations(self):
        intr = default_intrinsics()
        pose = moving_camera_pose(0.0)
        start = np.array([15.0, 0.0, 0.75])
        velocity = np.array([0.0, 0.6, 0.0])
        tracklet = Tracklet(id=0, state=make_state(start), motion_state=kf3d_init(start, 15.0))
        truth = start.copy()
        for _ in range(8):
            truth = truth + velocity
            view = predict_views([tracklet], "kf3d", pose, intr)[0]
            _, tracklet.motion_state = update_motion_state(
                "kf3d", view, truth, 15.0, None, tracklet.state.position
            )
            tracklet.state.position = tracklet.motion_state.mean[:3].copy()
        # no observations: keep committing the prediction, as the occluded path does
        coasted = tracklet.state.position.copy()
        for k in range(1, 6):
            view = predict_views([tracklet], "kf3d", pose, intr)[0]
            tracklet.motion_state = view.motion_state
            tracklet.state.position = view.position.copy()
            expected = truth + k * velocity
            assert np.linalg.norm(tracklet.state.position - expected) < 0.05
        assert not np.allclose(tracklet.state.position, coasted)

    def test_behind_camera_flagged_not_raised(self):
        intr = default_intrinsics()
        pose = moving_camera_pose(0.0)
        state = make_state([-5.0, 0.0, 0.75])  # behind the camera at x=0
        tracklet = Tracklet(id=0, state=state, motion_state=None)
        view = predict_views([tracklet], "none", pose, intr)[0]
        assert not view.in_view
        assert view.depth < 0

    def test_init_motion_state_backends(self):
        box = Box2D(0, 0, 10, 10)
        assert init_motion_state("none", np.zeros(3), 5.0, box) is None
        assert init_motion_state("kf2d", np.zeros(3), 5.0, box).mean.shape == (7,)
        assert init_motion_state("kf3d", np.zeros(3), 5.0, box).mean.shape == (6,)
        assert init_motion_state("lstm", np.zeros(3), 5.0, box).v_last.shape == (3,)
        with pytest.raises(ValueError):
            init_motion_state("bogus", np.zeros(3), 5.0, box)
