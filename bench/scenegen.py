"""Seeded scene generator for the benchmark workloads.

The generator is the benchmark's own: it imports nothing from `mono3dt`,
so a later change to the package's simulator, geometry or writers cannot
change the inputs. It builds a ground-truth world (ego poses and vehicle
trajectories), renders noisy monocular detections from it, and writes the
documented `detections.jsonl`, `poses.json` and `gt_tracks.jsonl`.

Conventions follow the package README: world frame right-handed with +z
up, yaw rotating +x toward +y; camera frame x right, y down, z forward;
`poses.json` stores world-to-camera rotations.

No two vehicles ever have overlapping ground footprints: every scene is
checked frame by frame with a margin on the footprints' axis-aligned
bounds, which contain the oriented footprints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("crowd", "jam", "lstm_motion")

FOCAL = 1000.0
IMAGE_W = 1920.0
IMAGE_H = 1080.0
CAMERA_HEIGHT = 1.4
MIN_CORNER_Z = 0.5  # every corner this far in front, or the vehicle is out of view
MIN_DEPTH = 2.0
MAX_DEPTH = 90.0  # below the tracker's default range_max of 100 m
MIN_BOX_AREA = 256.0  # px^2, smaller boxes are not detectable
FULL_COVER = 0.95  # cover at which a detection vanishes and its gt row is "occluded"
TIE_METERS = 1.0
TIE_RATE = 0.05
COVER_GRID = 12  # cover is sampled on a COVER_GRID x COVER_GRID grid per box
FOOTPRINT_MARGIN = 0.2  # m, added to every side of a footprint's bounds
APPEARANCE_DIM = 16

CAR = (4.2, 1.8, 1.5)
VAN = (5.0, 2.0, 2.1)
TRUCK = (7.5, 2.5, 3.2)

# corner sign order: bottom face first, then top face
_CORNER_SIGNS = np.array(
    [[1, 1, -1], [1, -1, -1], [-1, -1, -1], [-1, 1, -1], [1, 1, 1], [1, -1, 1], [-1, -1, 1], [-1, 1, 1]],
    dtype=float,
)


@dataclass
class Noise:
    pixel: float
    depth_per_m: float
    yaw: float
    dim: float
    appearance: float
    dropout: float


@dataclass
class Scene:
    workload: str
    seed: int
    index: int  # scene number within the seed
    ego_x: np.ndarray  # (F,) ego camera x; the ego drives along +x at y = 0
    dims: np.ndarray  # (V, 3) l, w, h
    positions: np.ndarray  # (F, V, 3) box centers
    yaws: np.ndarray  # (F, V)
    noise: Noise
    detections: list = field(default_factory=list)  # per frame, list of record dicts
    gt: list = field(default_factory=list)  # track-record dicts sorted by (frame, id)

    @property
    def n_frames(self) -> int:
        return self.positions.shape[0]

    @property
    def n_vehicles(self) -> int:
        return self.positions.shape[1]


def intrinsics() -> dict:
    return {
        "focal_x": FOCAL,
        "focal_y": FOCAL,
        "principal_x": IMAGE_W / 2.0,
        "principal_y": IMAGE_H / 2.0,
        "image_width": IMAGE_W,
        "image_height": IMAGE_H,
    }


def ego_pose(x: float):
    """World-to-camera (rotation, translation) of a camera at (x, 0) facing +x."""
    rotation = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    center = np.array([x, 0.0, CAMERA_HEIGHT])
    return rotation, -rotation @ center


def box_corners(centers, dims, yaws) -> np.ndarray:
    """(V, 8, 3) world corners of oriented boxes."""
    local = _CORNER_SIGNS[None, :, :] * (np.asarray(dims)[:, None, :] / 2.0)
    c = np.cos(yaws)[:, None]
    s = np.sin(yaws)[:, None]
    world = np.empty_like(local)
    world[..., 0] = c * local[..., 0] - s * local[..., 1]
    world[..., 1] = s * local[..., 0] + c * local[..., 1]
    world[..., 2] = local[..., 2]
    return world + np.asarray(centers)[:, None, :]


def project_boxes(centers, dims, yaws, rotation, translation):
    """Project oriented boxes through one camera.

    Returns (boxes (V, 4) image hulls clipped to the image, center pixels
    (V, 2), center depths (V,), in_front (V,) True when all 8 corners are
    at least MIN_CORNER_Z in front). Hulls of boxes not in front are
    meaningless and must be masked by the caller.
    """
    corners = box_corners(centers, dims, yaws)
    cam = corners @ rotation.T + translation
    z = cam[..., 2]
    in_front = np.all(z > MIN_CORNER_Z, axis=1)
    safe_z = np.where(z > MIN_CORNER_Z, z, 1.0)
    u = FOCAL * cam[..., 0] / safe_z + IMAGE_W / 2.0
    v = FOCAL * cam[..., 1] / safe_z + IMAGE_H / 2.0
    boxes = np.stack(
        [
            np.clip(u.min(axis=1), 0.0, IMAGE_W),
            np.clip(v.min(axis=1), 0.0, IMAGE_H),
            np.clip(u.max(axis=1), 0.0, IMAGE_W),
            np.clip(v.max(axis=1), 0.0, IMAGE_H),
        ],
        axis=1,
    )
    c_cam = np.asarray(centers) @ rotation.T + translation
    depth = c_cam[:, 2]
    safe_d = np.where(depth > MIN_CORNER_Z, depth, 1.0)
    center_px = np.stack(
        [FOCAL * c_cam[:, 0] / safe_d + IMAGE_W / 2.0, FOCAL * c_cam[:, 1] / safe_d + IMAGE_H / 2.0],
        axis=1,
    )
    return boxes, center_px, depth, in_front


def cover_fractions(boxes, depths, valid) -> np.ndarray:
    """Sampled fraction of each valid box covered by strictly nearer valid boxes."""
    n = len(boxes)
    cover = np.zeros(n)
    if n == 0:
        return cover
    tie = np.maximum(TIE_METERS, TIE_RATE * 0.5 * (depths[:, None] + depths[None, :]))
    nearer = (depths[:, None] - depths[None, :] > tie) & valid[:, None] & valid[None, :]
    frac = (np.arange(COVER_GRID) + 0.5) / COVER_GRID
    gx = boxes[:, 0:1] + frac[None, :] * (boxes[:, 2:3] - boxes[:, 0:1])  # (n, G)
    gy = boxes[:, 1:2] + frac[None, :] * (boxes[:, 3:4] - boxes[:, 1:2])
    px = np.repeat(gx, COVER_GRID, axis=1)  # (n, G*G)
    py = np.tile(gy, (1, COVER_GRID))
    inside = (
        (px[:, :, None] >= boxes[None, None, :, 0])
        & (px[:, :, None] <= boxes[None, None, :, 2])
        & (py[:, :, None] >= boxes[None, None, :, 1])
        & (py[:, :, None] <= boxes[None, None, :, 3])
    )  # (n, G*G, n): sample of box i inside box j
    covered = np.any(inside & nearer[:, None, :], axis=2)
    cover = covered.mean(axis=1)
    return np.where(valid, cover, 0.0)


def footprint_bounds(positions, dims, yaws) -> np.ndarray:
    """(..., 4) axis-aligned ground bounds (x0, y0, x1, y1) of oriented footprints."""
    c = np.abs(np.cos(yaws))
    s = np.abs(np.sin(yaws))
    half_x = 0.5 * (dims[..., 0] * c + dims[..., 1] * s) + FOOTPRINT_MARGIN
    half_y = 0.5 * (dims[..., 0] * s + dims[..., 1] * c) + FOOTPRINT_MARGIN
    x = positions[..., 0]
    y = positions[..., 1]
    return np.stack([x - half_x, y - half_y, x + half_x, y + half_y], axis=-1)


def bounds_overlap(positions, dims, yaws) -> np.ndarray:
    """(F, V, V) True where two vehicles' margined footprint bounds intersect."""
    b = footprint_bounds(positions, np.broadcast_to(dims, positions.shape), yaws)
    hit = (
        (b[:, :, None, 0] < b[:, None, :, 2])
        & (b[:, None, :, 0] < b[:, :, None, 2])
        & (b[:, :, None, 1] < b[:, None, :, 3])
        & (b[:, None, :, 1] < b[:, :, None, 3])
    )
    idx = np.arange(positions.shape[1])
    hit[:, idx, idx] = False
    return hit


# --- vehicle motion -------------------------------------------------------------


def _roll(start_xy, heading, speed, yaw_rate, accel, frames, speed_bounds=(0.15, 1.0)):
    """Planar kinematics; speed ramps bounce between the bounds."""
    xy = np.zeros((frames, 2))
    yaw = np.zeros(frames)
    pos = np.array(start_xy, dtype=float)
    lo, hi = speed_bounds
    for t in range(frames):
        xy[t] = pos
        yaw[t] = heading
        pos = pos + speed * np.array([math.cos(heading), math.sin(heading)])
        heading += yaw_rate
        speed += accel
        if speed > hi:
            speed, accel = hi, -accel
        elif speed < lo:
            speed, accel = lo, -accel
    return xy, yaw


def _lane_types(count, truck_slot, van_slot):
    """Vehicle sizes of one lane, from its head backwards."""
    return [TRUCK if k == truck_slot else VAN if k == van_slot else CAR for k in range(count)]


def _lane_traffic(rng, frames):
    """crowd: the ego drives at 0.6 m/frame through six lanes of two-way traffic.

    Vehicles in one lane share one constant speed, so gaps never close;
    lanes are 3.5 m apart, wider than any vehicle plus its lateral jitter.
    The layout is fixed and the seed only jitters speeds, gaps and lateral
    offsets, so the work per frame varies little from seed to seed.
    """
    ego_speed = 0.6
    ego_x = ego_speed * np.arange(frames)
    # (lane y, direction, speed, vehicles, first gap ahead of the ego, truck slot, van slot)
    lanes = [
        (0.0, 1.0, 0.66, 6, 10.0, 4, 2),
        (-3.5, 1.0, 0.80, 7, 6.0, 2, 5),
        (-7.0, 1.0, 0.50, 7, 6.0, 5, 3),
        (3.5, -1.0, 0.60, 7, 12.0, 3, 6),
        (7.0, -1.0, 0.70, 7, 16.0, 5, 1),
        (10.5, -1.0, 0.55, 7, 8.0, 1, 4),
    ]
    xy, yaw, dims = [], [], []
    for lane_y, direction, speed, count, first, truck_slot, van_slot in lanes:
        speed += rng.uniform(-0.005, 0.005)
        heading = 0.0 if direction > 0 else math.pi
        x = first + rng.uniform(0.0, 0.5)
        prev_len = 0.0
        for d in _lane_types(count, truck_slot, van_slot):
            x += 0.5 * prev_len + 0.5 * d[0] + (rng.uniform(6.75, 7.25) if prev_len else 0.0)
            prev_len = d[0]
            path, headings = _roll((x, lane_y + rng.uniform(-0.1, 0.1)), heading, speed, 0.0, 0.0, frames, (0.0, 2.0))
            xy.append(path)
            yaw.append(headings)
            dims.append(d)
    return ego_x, xy, yaw, dims


_STAGGER = (0.0, 1.0, -0.5, 0.5, -1.0)


def _stop_and_go_distance(rng, frames, lag_max, phase):
    """Cumulative distance X(t) on t = -lag_max .. frames-1 of a stop-and-go wave."""
    period = 50.0 + rng.uniform(-0.5, 0.5)
    phase += rng.uniform(-0.1, 0.1)
    peak = 0.55 + rng.uniform(-0.005, 0.005)
    t = np.arange(-lag_max, frames)
    speed = peak * np.maximum(0.0, np.sin(2.0 * math.pi * t / period + phase))
    return np.concatenate([[0.0], np.cumsum(speed)[:-1]])


def _queues(rng, frames):
    """jam: a static ego faces stop-and-go queues in four lanes.

    Vehicle k of a lane sits at base_k + direction * X(t - k * lag), where
    the head (k = 0) leads in the direction of travel. X never decreases,
    so each bumper gap stays at least its standstill value.
    """
    ego_x = np.zeros(frames)
    # (lane y, direction, vehicles, x of the queue's end nearest the camera,
    #  wave phase, wave lag in frames, truck slot, van slot)
    lanes = [
        (0.0, 1.0, 10, 8.0, 0.0, 4, 5, 2),
        (-3.5, 1.0, 10, 7.0, 2.0, 5, 3, 7),
        (3.5, -1.0, 10, 14.0, 4.0, 4, 6, 1),
        (7.0, -1.0, 9, 16.0, 1.0, 5, 2, 5),
    ]
    xy, yaw, dims = [], [], []
    for lane_y, direction, count, near_end, phase, lag, truck_slot, van_slot in lanes:
        lag_max = lag * count
        wave = _stop_and_go_distance(rng, frames, lag_max, phase)  # wave[i] = X(i - lag_max)
        base = 0.0
        prev_len = 0.0
        queue = []
        for k, d in enumerate(_lane_types(count, truck_slot, van_slot)):
            if k:
                base -= direction * (0.5 * prev_len + 0.5 * d[0] + rng.uniform(2.25, 2.75))
            prev_len = d[0]
            queue.append((base + direction * wave[lag_max - k * lag : lag_max - k * lag + frames], d))
        shift = near_end + rng.uniform(0.0, 0.5) - min(x[0] for x, _ in queue)
        for k, (x, d) in enumerate(queue):
            # a fixed stagger keeps followers partly visible past their leaders
            y = np.full(frames, lane_y + 0.3 * _STAGGER[k % len(_STAGGER)] + rng.uniform(-0.05, 0.05))
            xy.append(np.stack([x + shift, y], axis=1))
            yaw.append(np.full(frames, 0.0 if direction > 0 else math.pi))
            dims.append(d)
    return ego_x, xy, yaw, dims


def _crossers(rng, frames):
    """lstm_motion: five braking, accelerating and turning cars cross behind a parked truck.

    Candidates whose margined footprint bounds would meet an earlier
    vehicle's in any frame are redrawn.
    """
    ego_x = np.zeros(frames)
    truck_xy = (rng.uniform(11.5, 12.5), rng.uniform(2.0, 3.0))
    xy = [np.tile(truck_xy, (frames, 1))]
    yaw = [np.full(frames, math.pi / 2.0)]
    dims = [(6.0, 2.5, 3.0)]
    tries = 0
    while len(dims) < 6:
        tries += 1
        if tries > 500:
            raise RuntimeError("could not place non-overlapping crossers")
        x0 = rng.uniform(18.0, 45.0)
        side = rng.choice([-1.0, 1.0])
        heading = -side * math.pi / 2.0 + rng.uniform(-0.15, 0.15)
        start = (x0, side * rng.uniform(0.35, 0.7) * x0)
        path, headings = _roll(
            start,
            heading,
            rng.uniform(0.45, 0.65),
            rng.uniform(-0.005, 0.005),
            rng.uniform(-0.012, 0.012),
            frames,
        )
        cand_xy = np.stack(xy + [path], axis=1)
        cand_yaw = np.stack(yaw + [headings], axis=1)
        cand_dims = np.array(dims + [CAR])
        positions = np.concatenate([cand_xy, np.zeros(cand_xy.shape[:2] + (1,))], axis=2)
        if bounds_overlap(positions, cand_dims, cand_yaw).any():
            continue
        xy.append(path)
        yaw.append(headings)
        dims.append(CAR)
    return ego_x, xy, yaw, dims


_NOISE = {
    "crowd": Noise(pixel=1.5, depth_per_m=0.03, yaw=0.02, dim=0.03, appearance=0.05, dropout=0.1),
    "jam": Noise(pixel=1.0, depth_per_m=0.02, yaw=0.01, dim=0.02, appearance=0.03, dropout=0.05),
    "lstm_motion": Noise(pixel=1.0, depth_per_m=0.02, yaw=0.01, dim=0.02, appearance=0.02, dropout=0.0),
}
_FRAMES = {"crowd": 60, "jam": 60, "lstm_motion": 100}
_BUILDERS = {"crowd": _lane_traffic, "jam": _queues, "lstm_motion": _crossers}
_TAGS = {"crowd": 11, "jam": 12, "lstm_motion": 13}


def make_scene(workload: str, seed: int, index: int = 0) -> Scene:
    """Build, check and render scene number `index` of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, _TAGS[workload], index])
    frames = _FRAMES[workload]
    ego_x, xy, yaw, dims = _BUILDERS[workload](rng, frames)
    dims = np.array(dims, dtype=float)
    xy = np.stack(xy, axis=1)  # (F, V, 2)
    z = np.broadcast_to(dims[:, 2] / 2.0, xy.shape[:2])[..., None]
    positions = np.concatenate([xy, z], axis=2)
    yaws = np.mod(np.stack(yaw, axis=1), 2.0 * math.pi)
    if bounds_overlap(positions, dims, yaws).any():
        raise RuntimeError(f"{workload} seed {seed} scene {index}: overlapping footprints")
    scene = Scene(workload, seed, index, ego_x, dims, positions, yaws, _NOISE[workload])
    render(scene, np.random.default_rng([seed, _TAGS[workload], index, 1]))
    return scene


def render(scene: Scene, rng) -> None:
    """Fill scene.detections and scene.gt from the world."""
    noise = scene.noise
    n_veh = scene.n_vehicles
    bases = np.random.default_rng([scene.seed, 7, scene.index]).normal(size=(n_veh, APPEARANCE_DIM))
    started = np.zeros(n_veh, dtype=bool)
    half_fov_px = IMAGE_W / 2.0
    scene.detections = []
    scene.gt = []
    for t in range(scene.n_frames):
        rotation, translation = ego_pose(scene.ego_x[t])
        pos = scene.positions[t]
        boxes, center_px, depth, in_front = project_boxes(pos, scene.dims, scene.yaws[t], rotation, translation)
        area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
        in_view = in_front & (depth >= MIN_DEPTH) & (depth <= MAX_DEPTH) & (area >= MIN_BOX_AREA)
        cover = cover_fractions(boxes, np.where(in_view, depth, -1e9), in_view)
        detectable = in_view & (cover < FULL_COVER)
        started |= detectable
        frame_dets = []
        for v in range(n_veh):
            if not in_view[v]:
                continue
            vel = scene.positions[min(t + 1, scene.n_frames - 1), v] - pos[v]
            if t == scene.n_frames - 1 and t > 0:
                vel = pos[v] - scene.positions[t - 1, v]
            if started[v]:
                scene.gt.append(
                    {
                        "frame": t,
                        "id": v,
                        "P_m": pos[v].tolist(),
                        "yaw_rad": float(scene.yaws[t, v]),
                        "dim_m": scene.dims[v].tolist(),
                        "vel_mpf": vel.tolist(),
                        "box2d": boxes[v].tolist(),
                        "status": "tracked" if detectable[v] else "occluded",
                    }
                )
            if not detectable[v]:
                continue
            # every draw happens whether or not the detection drops out, so
            # the dropout pattern does not shift the other noise
            c = center_px[v] + rng.normal(scale=noise.pixel, size=2)
            d = max(0.5, depth[v] + rng.normal(scale=noise.depth_per_m * depth[v]))
            yaw_cam = scene.yaws[t, v]  # the camera faces +x, so camera heading is 0
            alpha = yaw_cam - math.atan2(c[0] - half_fov_px, FOCAL) + rng.normal(scale=noise.yaw)
            dim = np.maximum(0.2, scene.dims[v] + rng.normal(scale=noise.dim, size=3))
            app = bases[v] + rng.normal(scale=noise.appearance, size=APPEARANCE_DIM)
            score = float(np.clip(rng.normal(0.9, 0.05), 0.05, 1.0))
            if rng.random() < noise.dropout:
                continue
            frame_dets.append(
                {
                    "frame": t,
                    "box2d": boxes[v].tolist(),
                    "c": c.tolist(),
                    "depth_m": float(d),
                    "yaw_local_rad": float(alpha % (2.0 * math.pi)),
                    "dim_m": dim.tolist(),
                    "app": app.tolist(),
                    "score": score,
                }
            )
        scene.detections.append(frame_dets)


def training_trajectories(seed: int, count: int = 64, length: int = 40):
    """Planar trajectories with monocular-like noise for `lstm.train_lstm`.

    Profiles mix constant velocity, constant turn rate, and braking or
    accelerating ramps; observation noise is strong along a fixed view
    ray and weak across it. Returns a list of (true (T, 3), observed (T, 3)).
    """
    rng = np.random.default_rng([seed, 21])
    dataset = []
    for _ in range(count):
        kind = rng.integers(4)  # 0 const, 1 turn, 2-3 ramp
        xy, _ = _roll(
            (rng.uniform(-50, 50), rng.uniform(-50, 50)),
            rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.2, 1.0),
            rng.uniform(-0.03, 0.03) if kind == 1 else 0.0,
            rng.uniform(-0.035, 0.035) if kind >= 2 else 0.0,
            length,
            (0.05, 1.0),
        )
        true = np.concatenate([xy, np.full((length, 1), rng.uniform(0.5, 1.0))], axis=1)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        ray = np.array([math.cos(angle), math.sin(angle), 0.0])
        lateral = np.array([-math.sin(angle), math.cos(angle), 0.0])
        obs = true + np.outer(rng.normal(scale=rng.uniform(0.04, 0.5), size=length), ray)
        obs += np.outer(rng.normal(scale=rng.uniform(0.01, 0.08), size=length), lateral)
        dataset.append((true, obs))
    return dataset


# --- writers ------------------------------------------------------------------------


def _jsonl(path: Path, kind: str, rows) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format_version": 1, "kind": kind}) + "\n")
        for row in rows:
            fh.write(json.dumps(row, allow_nan=False) + "\n")


def write_inputs(scene: Scene, out_dir: Path, frames: int | None = None) -> dict:
    """Write detections.jsonl, poses.json and gt_tracks.jsonl; optionally only a frame prefix."""
    out_dir.mkdir(parents=True, exist_ok=True)
    frames = scene.n_frames if frames is None else frames
    paths = {
        "detections": out_dir / "detections.jsonl",
        "poses": out_dir / "poses.json",
        "gt": out_dir / "gt_tracks.jsonl",
    }
    _jsonl(paths["detections"], "detections", (d for dets in scene.detections[:frames] for d in dets))
    poses = []
    for t in range(frames):
        rotation, translation = ego_pose(scene.ego_x[t])
        poses.append({"frame": t, "rotation": rotation.reshape(-1).tolist(), "translation_m": translation.tolist()})
    doc = {"format_version": 1, "intrinsics": intrinsics(), "frames": poses}
    paths["poses"].write_text(json.dumps(doc, allow_nan=False) + "\n", encoding="utf-8")
    _jsonl(paths["gt"], "tracks", (g for g in scene.gt if g["frame"] < frames))
    return paths
