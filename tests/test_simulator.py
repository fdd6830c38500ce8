"""Scenario generator contracts: determinism, kinematics, noise, occlusion."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mono3dt
from mono3dt.association import decode_detection
from mono3dt.data import SequenceInput, TrackStatus
from mono3dt.geometry import backproject
from mono3dt.simulator import (
    CAMERA_HEIGHT,
    CAR_DIMS,
    FULL_COVER_THRESHOLD,
    INTRINSICS,
    ScenarioConfig,
    WorldTruth,
    _ego_pose,
    _frame_visibility,
    _vehicle,
    appearance_basis,
    generate_world,
    ground_truth_records,
    render_detections,
    write_scenario,
)


def test_simulator_does_not_import_the_tracker():
    # the painter's occlusion model lives in geometry, shared by both sides
    code = "import sys, mono3dt.simulator; print('mono3dt.association' in sys.modules)"
    src = str(Path(mono3dt.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestConfig:
    def test_preset_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(frames=0).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(dropout=1.0).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(preset="nope").validate()
        with pytest.raises(ValueError):
            ScenarioConfig.make_preset("nope")

    def test_noiseless_factory_zeroes_noise(self):
        cfg = ScenarioConfig.make_preset("dense", seed=3, noiseless=True)
        assert cfg.pixel_sigma == 0 and cfg.depth_sigma_per_m == 0
        assert cfg.appearance_sigma == 0 and cfg.dropout == 0


class TestDeterminism:
    def test_bit_identical_files(self, tmp_path):
        cfg = ScenarioConfig.make_preset("crossing_occlusion", seed=7, frames=30)
        paths_a = write_scenario(cfg, tmp_path / "a")
        paths_b = write_scenario(cfg, tmp_path / "b")
        for key in paths_a:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = write_scenario(ScenarioConfig.make_preset("dense", seed=1, frames=20), tmp_path / "a")
        b = write_scenario(ScenarioConfig.make_preset("dense", seed=2, frames=20), tmp_path / "b")
        assert a["detections"].read_bytes() != b["detections"].read_bytes()


class TestKinematics:
    def test_static_ego_constant_velocity_is_a_line(self):
        cfg = ScenarioConfig(
            preset="open_road", ego_path="static", seed=5, frames=40, n_vehicles=1
        ).validate()
        world = generate_world(cfg)
        pos = world.vehicles[0].positions
        deltas = pos[1:] - pos[:-1]
        assert np.allclose(deltas, deltas[0])

    def test_velocity_is_exact_position_difference(self):
        for preset in ("open_road", "crossing_occlusion", "dense"):
            world = generate_world(ScenarioConfig.make_preset(preset, seed=2))
            for veh in world.vehicles:
                diffs = veh.positions[1:] - veh.positions[:-1]
                assert np.array_equal(diffs, veh.velocities[:-1])

    def test_vehicles_ride_the_ground_plane(self):
        world = generate_world(ScenarioConfig.make_preset("dense", seed=1))
        for veh in world.vehicles:
            assert np.allclose(veh.positions[:, 2], veh.dims[2] / 2.0)

    def test_ego_turning_changes_heading(self):
        cfg = ScenarioConfig(
            preset="open_road", ego_path="turning", ego_yaw_rate=0.01, seed=0, frames=30
        ).validate()
        world = generate_world(cfg)
        first = world.poses[0].rotation
        last = world.poses[-1].rotation
        assert not np.allclose(first, last)


class TestRendering:
    def test_noiseless_detections_decode_exactly(self):
        cfg = ScenarioConfig.make_preset("open_road", seed=3, noiseless=True)
        world = generate_world(cfg)
        detections, visibility = render_detections(world)
        checked = 0
        for t, frame_dets in enumerate(detections):
            pose = world.poses[t]
            rows = decode_detection(frame_dets, pose, world.intrinsics)
            for position, yaw, dims in zip(rows.position, rows.yaw, rows.dims):
                truth = [
                    veh
                    for veh in world.vehicles
                    if np.linalg.norm(veh.positions[t] - position) < 0.5
                ]
                assert truth, "decoded detection must land on a vehicle"
                veh = truth[0]
                assert np.max(np.abs(position - veh.positions[t])) < 1e-6
                dyaw = abs((yaw - veh.yaws[t] + math.pi) % (2 * math.pi) - math.pi)
                assert dyaw < 1e-9
                assert np.array_equal(dims, veh.dims)
                checked += 1
        assert checked > 100

    def test_depth_noise_std_matches_config(self):
        cfg = ScenarioConfig(
            preset="open_road",
            seed=12,
            frames=700,
            n_vehicles=18,
            ego_path="static",
            ego_speed=0.0,  # near-static traffic stays in range all run
            pixel_sigma=0.0,
            depth_sigma_per_m=0.03,
            yaw_sigma=0.0,
            dim_sigma=0.0,
            appearance_sigma=0.0,
        ).validate()
        world = generate_world(cfg)
        detections, visibility = render_detections(world)
        rel_errors = []
        for t, frame_dets in enumerate(detections):
            for center_px, depth in zip(frame_dets.center_px, frame_dets.depth.tolist()):
                vis = visibility[t]
                v = min(
                    np.flatnonzero(vis.in_view),
                    key=lambda v: float(np.linalg.norm(vis.center_px[v] - center_px)),
                )
                rel_errors.append((depth - vis.depth[v]) / vis.depth[v])
        rel_errors = np.array(rel_errors)
        assert len(rel_errors) > 10_000
        assert abs(rel_errors.std() - 0.03) / 0.03 < 0.1

    def test_full_occlusion_drops_detection(self):
        cfg = ScenarioConfig.make_preset("crossing_occlusion", seed=0, noiseless=True)
        world = generate_world(cfg)
        detections, visibility = render_detections(world)
        hidden_frames = 0
        for t in range(cfg.frames):
            vis = visibility[t]  # vehicle 1 is the crossing car
            if vis.cover[1] >= FULL_COVER_THRESHOLD:
                hidden_frames += 1
                assert not any(
                    abs(depth - vis.depth[1]) < 1.0 and np.linalg.norm(center_px - vis.center_px[1]) < 40
                    for center_px, depth in zip(detections[t].center_px, detections[t].depth.tolist())
                )
        assert hidden_frames >= 5

    def test_crossing_preset_has_heavy_cover_window(self):
        for seed in range(5):
            cfg = ScenarioConfig.make_preset("crossing_occlusion", seed=seed, noiseless=True)
            world = generate_world(cfg)
            _, visibility = render_detections(world)
            covers = [visibility[t].cover[1] for t in range(cfg.frames)]
            assert max(covers) >= 0.7

    def test_dropout_removes_detections(self):
        base = ScenarioConfig.make_preset("open_road", seed=4, noiseless=True)
        world = generate_world(base)
        full, _ = render_detections(world)
        dropped_cfg = ScenarioConfig.make_preset("open_road", seed=4, noiseless=True, dropout=0.3)
        world2 = generate_world(dropped_cfg)
        dropped, _ = render_detections(world2)
        assert sum(map(len, dropped)) < sum(map(len, full))

    def test_appearance_identity_margin(self):
        cfg = ScenarioConfig.make_preset("dense", seed=9)
        world = generate_world(cfg)
        detections, _ = render_detections(world)
        bases = {v.id: appearance_basis(cfg, v.id) for v in world.vehicles}
        within, cross = [], []
        for frame_dets in detections[:40]:
            for appearance in frame_dets.appearance:
                dists = {
                    vid: float(np.sum(np.abs(appearance - base)))
                    for vid, base in bases.items()
                }
                owner = min(dists, key=dists.get)
                within.append(dists[owner])
                cross.extend(d for vid, d in dists.items() if vid != owner)
        assert np.mean(within) < np.mean(cross) / 5.0


class TestVisibility:
    def test_out_of_view_vehicles_do_not_occlude(self):
        """A 12 m truck at 125 m, beyond SPAWN_RADIUS and straight behind a car at 100 m, covers none of it."""
        config = ScenarioConfig.make_preset("open_road", frames=1, ego_path="static", n_vehicles=2)
        car = _vehicle(0, CAR_DIMS, (100.0, 0.0), 0.0, 0.0, 1)
        truck = _vehicle(1, np.array([12.0, 2.6, 4.0]), (125.0, 0.0), 0.0, 0.0, 1)
        world = WorldTruth(config, INTRINSICS, [_ego_pose(0.0, 0.0, 0.0, CAMERA_HEIGHT)], [car, truck])
        vis = _frame_visibility(world, 0)
        assert vis.in_view.tolist() == [True, False]
        assert vis.cover.tolist() == [0.0, 0.0]


class TestGroundTruth:
    def test_occluded_rows_flagged(self):
        cfg = ScenarioConfig.make_preset("crossing_occlusion", seed=1, noiseless=True)
        world = generate_world(cfg)
        detections, visibility = render_detections(world)
        gt = ground_truth_records(world, visibility)
        statuses = {r.status for r in gt if r.track_id == 1}
        assert TrackStatus.OCCLUDED in statuses
        assert TrackStatus.TRACKED in statuses

    def test_gt_starts_at_first_detectable_frame(self):
        cfg = ScenarioConfig.make_preset("dense", seed=0, noiseless=True)
        world = generate_world(cfg)
        detections, visibility = render_detections(world)
        gt = ground_truth_records(world, visibility)
        for veh in world.vehicles:
            rows = [r for r in gt if r.track_id == veh.id]
            if not rows:
                continue
            first = min(r.frame for r in rows)
            assert visibility[first].detectable[veh.id]
            for t in range(first):
                assert not visibility[t].detectable[veh.id]

    def test_every_detection_has_a_gt_row(self):
        cfg = ScenarioConfig.make_preset("dense", seed=6, noiseless=True)
        world = generate_world(cfg)
        detections, visibility = render_detections(world)
        gt = ground_truth_records(world, visibility)
        gt_keys = {(r.frame, r.track_id) for r in gt}
        for t, frame_dets in enumerate(detections):
            for depth in frame_dets.depth.tolist():
                veh = min(
                    world.vehicles, key=lambda v: abs(visibility[t].depth[v.id] - depth)
                )
                assert (t, veh.id) in gt_keys
