"""Deterministic synthetic driving scenarios for desk-scale verification.

Vehicles move on a flat ground plane (+z up, centers at half their
height) with constant-velocity or speed-ramp kinematics. The ego
camera, the only thing that turns, sits at a fixed height looking along
its heading. Rendering produces the same detection fields a monocular
3D detector would emit, with controllable noise on every channel, and
ground-truth track records that share the tracker's box-based painter's
occlusion semantics: a detection disappears while its object is nearly
fully covered by a strictly nearer one, yet the ground truth keeps the
row (status "occluded") so trackers are rewarded for coasting through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DetectionTable, TrackRecord, TrackStatus
from .geometry import (
    DEPTH_ORDER_TIE_RATE,
    CameraIntrinsics,
    CameraPose,
    camera_heading,
    cover_fractions,
    normalize_angle,
    project_boxes,
    theta_to_alpha,
)
from .io import write_detections, write_poses, write_tracks

PRESETS = ("open_road", "crossing_occlusion", "reappearance", "dense")

CAR_DIMS = np.array([4.2, 1.8, 1.5])
TRUCK_DIMS = np.array([6.0, 2.5, 3.0])

APPEARANCE_DIM = 16
IMAGE_WIDTH = 1920.0  # px
IMAGE_HEIGHT = 1080.0  # px
FOCAL = 1000.0  # px
INTRINSICS = CameraIntrinsics(FOCAL, FOCAL, IMAGE_WIDTH / 2.0, IMAGE_HEIGHT / 2.0, IMAGE_WIDTH, IMAGE_HEIGHT)
CAMERA_HEIGHT = 1.4  # m
SPAWN_RADIUS = 120.0  # m, farther vehicles are out of view
MIN_BOX_AREA = 256.0  # px^2, smaller boxes are not detectable
FULL_COVER_THRESHOLD = 0.95  # cover at which the detection vanishes
MIN_GT_DEPTH = 1.0  # m


@dataclass
class ScenarioConfig:
    seed: int = 0
    frames: int = 60
    n_vehicles: int = 4
    ego_path: str = "straight"  # static | straight | turning
    ego_speed: float = 0.6  # m/frame
    ego_yaw_rate: float = 0.004  # rad/frame, turning only
    accel_range: tuple = (0.0, 0.0)  # m/frame^2 speed ramps (braking/accelerating)
    pixel_sigma: float = 1.0
    depth_sigma_per_m: float = 0.02
    yaw_sigma: float = 0.01
    dim_sigma: float = 0.02
    appearance_sigma: float = 0.01
    dropout: float = 0.0
    preset: str = "open_road"

    def validate(self) -> "ScenarioConfig":
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        for name in ("seed", "n_vehicles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        for name in ("pixel_sigma", "depth_sigma_per_m", "yaw_sigma", "dim_sigma", "appearance_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.preset not in PRESETS:
            raise ValueError(f"preset {self.preset!r} not one of {PRESETS}")
        if self.ego_path not in ("static", "straight", "turning"):
            raise ValueError(f"ego_path {self.ego_path!r} invalid")
        return self

    @staticmethod
    def make_preset(name: str, seed: int = 0, frames: int | None = None, noiseless: bool = False, **overrides) -> "ScenarioConfig":
        defaults = {
            "open_road": dict(preset="open_road", ego_path="straight", frames=80, n_vehicles=4),
            "crossing_occlusion": dict(preset="crossing_occlusion", ego_path="static", frames=44, n_vehicles=3),
            "reappearance": dict(preset="reappearance", ego_path="static", frames=40, n_vehicles=3),
            "dense": dict(preset="dense", ego_path="static", frames=90, n_vehicles=7),
        }
        if name not in defaults:
            raise ValueError(f"unknown preset {name!r}")
        params = dict(defaults[name])
        params["seed"] = seed
        if frames is not None:
            params["frames"] = frames
        if noiseless:
            params.update(
                pixel_sigma=0.0,
                depth_sigma_per_m=0.0,
                yaw_sigma=0.0,
                dim_sigma=0.0,
                appearance_sigma=0.0,
                dropout=0.0,
            )
        params.update(overrides)
        return ScenarioConfig(**params).validate()


@dataclass
class VehicleTruth:
    id: int
    dims: np.ndarray  # (3,)
    positions: np.ndarray  # (frames, 3)
    yaws: np.ndarray  # (frames,)
    velocities: np.ndarray  # (frames, 3), P[t+1] - P[t] exactly


@dataclass
class WorldTruth:
    config: ScenarioConfig
    intrinsics: CameraIntrinsics
    poses: list  # CameraPose per frame
    vehicles: list  # VehicleTruth


def _ego_pose(x: float, y: float, heading: float, height: float) -> CameraPose:
    forward = np.array([math.cos(heading), math.sin(heading), 0.0])
    right = np.array([math.sin(heading), -math.cos(heading), 0.0])
    down = np.array([0.0, 0.0, -1.0])
    rot = np.stack([right, down, forward])
    center = np.array([x, y, height])
    return CameraPose(rot, -rot @ center)


def _roll_kinematics(start, heading, speed, accel, frames):
    """Integrate a planar profile; velocities are exact position diffs.

    Speed ramps bounce between bounds (accelerate until the cap, then
    brake, and vice versa), giving sustained braking/accelerating traffic
    rather than runaway speeds.
    """
    positions = np.zeros((frames, 3))
    yaws = np.zeros(frames)
    pos = np.asarray(start, dtype=float).copy()
    for t in range(frames):
        positions[t] = pos
        yaws[t] = normalize_angle(heading)
        step = speed * np.array([math.cos(heading), math.sin(heading), 0.0])
        pos = pos + step
        speed = speed + accel
        if speed > 1.2:
            speed = 1.2
            accel = -accel
        elif speed < 0.05:
            speed = 0.05
            accel = -accel
    velocities = np.zeros((frames, 3))
    velocities[:-1] = positions[1:] - positions[:-1]
    if frames > 1:
        velocities[-1] = velocities[-2]
    return positions, yaws, velocities


def _vehicle(vid, dims, start, heading, speed, frames, accel=0.0) -> VehicleTruth:
    start = np.array([start[0], start[1], dims[2] / 2.0])
    positions, yaws, velocities = _roll_kinematics(start, heading, speed, accel, frames)
    return VehicleTruth(vid, np.asarray(dims, dtype=float), positions, yaws, velocities)


def _spawn_open_road(rng, config) -> list:
    lanes = [-6.0, -3.0, 3.0, 6.0, -9.0, 9.0]
    vehicles = []
    for vid in range(config.n_vehicles):
        lane = lanes[vid % len(lanes)]
        x0 = rng.uniform(12.0, 45.0) + 6.0 * (vid // len(lanes))
        speed = config.ego_speed + rng.uniform(-0.1, 0.1)
        accel = rng.uniform(*config.accel_range) if config.accel_range != (0.0, 0.0) else 0.0
        vehicles.append(
            _vehicle(vid, CAR_DIMS, (x0, lane), 0.0, speed, config.frames, accel)
        )
    return vehicles


def _spawn_crossing(rng, config, truck_length, start_side) -> list:
    """A crossing car passes behind a static roadside truck."""
    truck_x = rng.uniform(11.5, 12.5)
    car_x = rng.uniform(19.0, 21.0)
    speed = rng.uniform(0.6, 0.8)
    y0 = start_side * rng.uniform(13.0, 15.0)
    heading = math.pi / 2.0 if start_side < 0 else -math.pi / 2.0
    truck_dims = np.array([truck_length, 2.5, 3.0])
    vehicles = [
        _vehicle(0, truck_dims, (truck_x, 0.0), math.pi / 2.0, 0.0, config.frames),
        _vehicle(1, CAR_DIMS, (car_x, y0), heading, speed, config.frames),
    ]
    if config.n_vehicles >= 3:
        # bystander placed outside the truck's line-of-sight shadow
        vehicles.append(
            _vehicle(2, CAR_DIMS, (rng.uniform(30.0, 34.0), rng.uniform(10.5, 11.5)), 0.0, 0.05, config.frames)
        )
    return vehicles


def _spawn_dense(rng, config) -> list:
    """Cluttered static-ego scene engineered for occlusion passes.

    A sideways truck near the camera throws a wide line-of-sight shadow on
    the +y side; two lateral crossers sweep through it (long full
    occlusions with fast partial edges) and through the lane traffic on
    the -y side (brief passes). Cruisers fill the remaining lanes in both
    directions to keep the assignment busy.
    """
    vehicles = []
    vid = 0

    def add(dims, start, heading, speed):
        nonlocal vid
        vehicles.append(_vehicle(vid, dims, start, heading, speed, config.frames))
        vid += 1

    if vid < config.n_vehicles:
        add(
            TRUCK_DIMS,
            (rng.uniform(11.0, 12.5), rng.uniform(2.6, 3.2)),
            math.pi / 2.0,
            0.0,
        )

    # crossers start fully visible outside the lane traffic, then sweep
    # through it and vanish behind the truck for a long stretch; everyone
    # else starts at most partially covered, so each vehicle has an
    # incumbent tracklet defending its detections from frame 0
    # start bearings are pinned to separated slots so no crosser begins
    # behind another; y0 = -(bearing slot) * depth
    crossers = [
        ((26.0, 30.0), (0.60, 0.68), (0.68, 0.72), math.pi / 2.0),
        ((38.0, 42.0), (0.52, 0.60), (0.545, 0.575), math.pi / 2.0),
        ((32.0, 36.0), (0.55, 0.65), (-0.78, -0.72), -math.pi / 2.0),
    ]
    for x_range, speed_range, ratio_range, heading in crossers:
        if vid >= config.n_vehicles:
            return vehicles
        x0 = rng.uniform(*x_range)
        add(
            CAR_DIMS,
            (x0, -rng.uniform(*ratio_range) * x0),
            heading,
            rng.uniform(*speed_range),
        )

    receding = [(-5.5, (15.0, 18.0)), (-8.2, (19.0, 22.0))]
    for lane, x_range in receding:
        if vid >= config.n_vehicles:
            return vehicles
        add(
            CAR_DIMS,
            (rng.uniform(*x_range), lane + rng.uniform(-0.3, 0.3)),
            0.0,
            rng.uniform(0.3, 0.45),
        )
    if vid < config.n_vehicles:
        add(
            CAR_DIMS,
            (rng.uniform(44.0, 48.0), -10.5 + rng.uniform(-0.3, 0.3)),
            math.pi,
            rng.uniform(0.25, 0.35),
        )
    return vehicles


def generate_world(config: ScenarioConfig) -> WorldTruth:
    """Deterministic ground-truth world for a scenario config."""
    config.validate()
    rng = np.random.default_rng([config.seed, 101])
    frames = config.frames

    poses = []
    x = y = 0.0
    heading = 0.0
    for _ in range(frames):
        poses.append(_ego_pose(x, y, heading, CAMERA_HEIGHT))
        if config.ego_path in ("straight", "turning"):
            x += config.ego_speed * math.cos(heading)
            y += config.ego_speed * math.sin(heading)
        if config.ego_path == "turning":
            heading += config.ego_yaw_rate

    if config.preset == "open_road":
        vehicles = _spawn_open_road(rng, config)
    elif config.preset == "crossing_occlusion":
        vehicles = _spawn_crossing(rng, config, truck_length=6.0, start_side=-1.0)
    elif config.preset == "reappearance":
        vehicles = _spawn_crossing(rng, config, truck_length=4.0, start_side=1.0)
    elif config.preset == "dense":
        vehicles = _spawn_dense(rng, config)
    else:  # pragma: no cover - validate() guards this
        raise ValueError(config.preset)
    return WorldTruth(config, INTRINSICS, poses, vehicles)


@dataclass
class FrameVisibility:
    """One frame's render bookkeeping, row v for vehicle v."""

    in_view: np.ndarray  # (V,) bool: in range with a box of at least MIN_BOX_AREA
    box2d: np.ndarray  # (V, 4) image boxes, the zero box when the center is behind the camera
    center_px: np.ndarray  # (V, 2)
    depth: np.ndarray  # (V,) camera-frame z
    cover: np.ndarray  # (V,) fraction covered by strictly nearer in-view vehicles
    detectable: np.ndarray  # (V,) bool: in view and not nearly fully covered


def _frame_visibility(world: WorldTruth, t: int) -> FrameVisibility:
    vehicles = world.vehicles
    centers = np.array([veh.positions[t] for veh in vehicles]).reshape(-1, 3)
    dims = np.array([veh.dims for veh in vehicles]).reshape(-1, 3)
    yaws = np.array([veh.yaws[t] for veh in vehicles])
    center_px, depth, boxes, _, _ = project_boxes(centers, dims, yaws, world.poses[t], world.intrinsics)
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    in_view = (MIN_GT_DEPTH <= depth) & (depth <= SPAWN_RADIUS) & (area >= MIN_BOX_AREA)
    # the tracker's painter layering among in-view vehicles only: its default 1 m tie, widened with depth
    cover = np.zeros(len(depth))
    cover[in_view] = cover_fractions(boxes[in_view], depth[in_view], 1.0, DEPTH_ORDER_TIE_RATE)
    return FrameVisibility(in_view, boxes, center_px, depth, cover, in_view & (cover < FULL_COVER_THRESHOLD))


def appearance_basis(config: ScenarioConfig, vehicle_id: int) -> np.ndarray:
    """Per-identity embedding, fixed across the scenario."""
    rng = np.random.default_rng([config.seed, 7777, vehicle_id])
    return rng.normal(size=APPEARANCE_DIM)


def render_detections(world: WorldTruth):
    """Noisy detections plus per-frame visibility annotations.

    Returns (detections_per_frame, visibility): frame t's detections are
    one DetectionTable and visibility[t] is its FrameVisibility. A vehicle
    yields no detection when it is outside the view, its box is tiny, it
    is nearly fully covered by a nearer vehicle, or the dropout coin says
    so.
    """
    config = world.config
    rng = np.random.default_rng([config.seed, 202])
    bases = [appearance_basis(config, veh.id) for veh in world.vehicles]
    detections = []
    visibility = []
    for t in range(config.frames):
        vis = _frame_visibility(world, t)
        visibility.append(vis)
        frame_dets = []
        heading = camera_heading(world.poses[t])
        for vi in np.flatnonzero(vis.detectable).tolist():
            if config.dropout > 0.0 and rng.random() < config.dropout:
                continue
            veh, center_px, true_depth = world.vehicles[vi], vis.center_px[vi], vis.depth[vi]
            c = center_px + rng.normal(scale=config.pixel_sigma, size=2) if config.pixel_sigma > 0 else center_px.copy()
            depth = true_depth
            if config.depth_sigma_per_m > 0:
                depth = max(0.2, depth + rng.normal(scale=config.depth_sigma_per_m * true_depth))
            yaw_cam = normalize_angle(veh.yaws[t] - heading)
            yaw_local = theta_to_alpha(yaw_cam, float(c[0]), world.intrinsics)
            if config.yaw_sigma > 0:
                yaw_local = normalize_angle(yaw_local + rng.normal(scale=config.yaw_sigma))
            dims = veh.dims.copy()
            if config.dim_sigma > 0:
                dims = np.maximum(0.2, dims + rng.normal(scale=config.dim_sigma, size=3))
            appearance = bases[vi].copy()
            if config.appearance_sigma > 0:
                appearance = appearance + rng.normal(scale=config.appearance_sigma, size=APPEARANCE_DIM)
            score = 1.0 if config.appearance_sigma == 0 else float(np.clip(rng.normal(0.9, 0.05), 0.05, 1.0))
            frame_dets.append((t, vis.box2d[vi], c, depth, yaw_local, dims, appearance, score))
        detections.append(DetectionTable.from_rows(frame_dets))
    return detections, visibility


def ground_truth_records(world: WorldTruth, visibility) -> list:
    """TrackRecords a perfect tracker should produce.

    A vehicle enters the ground truth at its first detectable frame and
    contributes a row for every later frame in which it is in view;
    rows during near-full occlusion carry status "occluded".
    """
    records = []
    for vi, veh in enumerate(world.vehicles):
        first = next((t for t, vis in enumerate(visibility) if vis.detectable[vi]), None)
        if first is None:
            continue
        for t, vis in enumerate(visibility[first:], first):
            if not vis.in_view[vi]:
                continue
            status = TrackStatus.OCCLUDED if vis.cover[vi] >= FULL_COVER_THRESHOLD else TrackStatus.TRACKED
            state = (veh.positions[t].tolist(), veh.dims.tolist(), float(veh.yaws[t]), veh.velocities[t].tolist())
            records.append(TrackRecord(t, veh.id, *state, vis.box2d[vi].tolist(), status))
    return records


def write_scenario(config: ScenarioConfig, out_dir) -> dict:
    """Generate, render, and write a scenario; returns the file paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    world = generate_world(config)
    detections, visibility = render_detections(world)
    gt_records = ground_truth_records(world, visibility)
    paths = {
        "detections": out_dir / "detections.jsonl",
        "poses": out_dir / "poses.json",
        "gt_tracks": out_dir / "gt_tracks.jsonl",
    }
    write_detections(detections, paths["detections"])
    write_poses(world.intrinsics, world.poses, paths["poses"])
    write_tracks(gt_records, paths["gt_tracks"])
    return paths
