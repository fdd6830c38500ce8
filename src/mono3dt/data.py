"""Shared record types: detections, track outputs, tracker config."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .geometry import Box2D, Box3D


class ConfigError(ValueError):
    pass


class UnknownKey(ConfigError):
    pass


class OutOfRangeValue(ConfigError):
    pass


class TrackStatus(enum.Enum):
    TRACKED = "tracked"
    OCCLUDED = "occluded"
    LOST = "lost"


@dataclass
class DetectionRecord:
    """One per-frame monocular detection with its decoded-geometry inputs."""

    frame_index: int
    box2d: Box2D
    center_proj: np.ndarray  # (2,) pixels, projection of the 3D box center
    depth: float  # meters, camera-frame
    yaw_local: float  # radians, appearance-relative yaw
    dimensions: np.ndarray  # (3,) meters (l, w, h)
    appearance: np.ndarray  # fixed-length embedding
    score: float

    def __post_init__(self):
        self.center_proj = np.asarray(self.center_proj, dtype=float).reshape(2)
        self.dimensions = np.asarray(self.dimensions, dtype=float).reshape(3)
        self.appearance = np.asarray(self.appearance, dtype=float).reshape(-1)
        dims = self.dimensions.tolist()
        # one sum per record: a NaN, an infinity or an overflowing magnitude
        # anywhere leaves it non-finite
        total = sum(self.box2d.as_tuple()) + sum(self.center_proj.tolist()) + sum(dims)
        total += sum(self.appearance.tolist()) + self.depth + self.yaw_local + self.score
        if not math.isfinite(total):
            raise ValueError("detection fields must be finite")
        if self.depth <= 0:
            raise ValueError("detection depth must be positive")
        if min(dims) <= 0:
            raise ValueError("detection dimensions must be positive")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError("detection score must be in [0, 1]")


@dataclass
class TrackRecord:
    frame_index: int
    track_id: int
    box3d: Box3D
    velocity: np.ndarray  # (3,) meters/frame
    box2d_projected: Box2D
    status: TrackStatus

    def __post_init__(self):
        self.velocity = np.asarray(self.velocity, dtype=float).reshape(3)
        if self.track_id < 0:
            raise ValueError("track_id must be >= 0")


def first_repeat(frame: np.ndarray, track_id: np.ndarray):
    """Index of the first row, in row order, whose (frame, id) an earlier row holds; None if none does."""
    order = np.lexsort((track_id, frame))  # stable: a repeat follows its first row
    frame, track_id = frame[order], track_id[order]
    repeat = (frame[1:] == frame[:-1]) & (track_id[1:] == track_id[:-1])
    return int(order[1:][repeat].min()) if repeat.any() else None


@dataclass
class TrackTable:
    """Track rows as columns, one row per (frame, id); motion.take_rows selects rows."""

    frame: np.ndarray  # (N,) int
    track_id: np.ndarray  # (N,) int
    center: np.ndarray  # (N, 3) meters, world frame
    dims: np.ndarray  # (N, 3) meters (l, w, h)
    yaw: np.ndarray  # (N,) radians in [0, 2*pi), as Box3D wraps them
    velocity: np.ndarray  # (N, 3) meters/frame
    box2d: np.ndarray  # (N, 4) pixels (x_min, y_min, x_max, y_max)
    status: np.ndarray  # (N,) TrackStatus objects

    def __len__(self) -> int:
        return len(self.frame)

    @classmethod
    def from_records(cls, records, kind: str = "track") -> "TrackTable":
        """The rows of a TrackRecord list, in list order; a repeated (frame, id) is a ValueError."""
        table = cls(
            frame=np.array([r.frame_index for r in records], dtype=np.int64),
            track_id=np.array([r.track_id for r in records], dtype=np.int64),
            center=np.array([r.box3d.center for r in records]).reshape(-1, 3),
            dims=np.array([r.box3d.dimensions for r in records]).reshape(-1, 3),
            yaw=np.array([r.box3d.yaw for r in records], dtype=float),
            velocity=np.array([r.velocity for r in records]).reshape(-1, 3),
            box2d=np.array([r.box2d_projected.as_tuple() for r in records], dtype=float).reshape(-1, 4),
            status=np.array([r.status for r in records], dtype=object),
        )
        repeat = first_repeat(table.frame, table.track_id)
        if repeat is not None:
            raise ValueError(f"{kind} id {table.track_id[repeat]} repeats in frame {table.frame[repeat]}")
        return table


@dataclass
class SequenceInput:
    """Frame-aligned detections, poses, and intrinsics for one sequence."""

    intrinsics: object  # CameraIntrinsics
    poses: list  # CameraPose per frame, contiguous from frame 0
    detections: list  # list[list[DetectionRecord]] per frame

    @property
    def n_frames(self) -> int:
        return len(self.poses)


# annotated type of a config field -> (JSON value types it accepts, their name)
_JSON_TYPES = {
    "bool": (bool, "true or false"),
    "int": (int, "an integer"),
    "float": ((int, float), "a finite number"),
    "str": (str, "a string"),
}


@dataclass
class TrackerConfig:
    """Association weights, thresholds, and lifecycle policy.

    Weight defaults follow the appearance/3D-overlap mixture (0.3 / 0.7);
    the 2D-overlap channel is off by default but available for the
    image-space baseline (w_2d=1, others 0).
    """

    w_deep: float = 0.3
    w_2d: float = 0.0
    w_3d: float = 0.7
    occlusion_cover_threshold: float = 0.7
    max_lost_age: int = 20
    range_min: float = 0.15
    range_max: float = 100.0
    ord_tie_meters: float = 1.0
    motion_backend: str = "kf3d"  # none | kf2d | kf3d | lstm
    affinity_accept_threshold: float = 0.3
    # records for coasting tracklets are suppressed below the detectable
    # box size; smaller objects are filtered from benchmarks anyway
    min_emit_box_area: float = 256.0
    # ablation knobs: depth-ordered overlap masking + depth indicator, and
    # the dedicated occluded lifecycle state (off = plain lost handling)
    use_depth_ordering: bool = True
    use_occlusion_state: bool = True

    _BACKENDS = ("none", "kf2d", "kf3d", "lstm")

    def validate(self) -> "TrackerConfig":
        for name in ("w_deep", "w_2d", "w_3d"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise OutOfRangeValue(f"{name}={value} outside [0, 1]")
        if self.w_deep + self.w_2d + self.w_3d <= 0.0:
            raise OutOfRangeValue("affinity weights must not all be zero")
        for name in ("occlusion_cover_threshold", "affinity_accept_threshold"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise OutOfRangeValue(f"{name}={value} outside [0, 1]")
        if self.max_lost_age < 1:
            raise OutOfRangeValue(f"max_lost_age={self.max_lost_age} must be >= 1")
        if not (0.0 < self.range_min < self.range_max):
            raise OutOfRangeValue(
                f"need 0 < range_min < range_max, got {self.range_min}, {self.range_max}"
            )
        if self.ord_tie_meters < 0.0:
            raise OutOfRangeValue("ord_tie_meters must be >= 0")
        if self.min_emit_box_area < 0.0:
            raise OutOfRangeValue("min_emit_box_area must be >= 0")
        if self.motion_backend not in self._BACKENDS:
            raise OutOfRangeValue(f"motion_backend={self.motion_backend!r} not in {self._BACKENDS}")
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "TrackerConfig":
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise UnknownKey(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            accepted, what = _JSON_TYPES[types[name]]
            # JSON true/false must not pass as numbers, nor numbers as flags
            ok = isinstance(value, accepted) and (accepted is bool) == isinstance(value, bool)
            if not ok or (types[name] == "float" and not math.isfinite(value)):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        return cls(**data).validate()

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def replace(self, **kwargs) -> "TrackerConfig":
        return replace(self, **kwargs).validate()
