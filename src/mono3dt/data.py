"""Shared record types: detection and track tables, track rows, tracker config; the assignment solver."""

from __future__ import annotations

import enum
import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np


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
class DetectionTable:
    """Detections as columns, one row per detection; take_rows selects rows."""

    frame: np.ndarray  # (N,) int
    box2d: np.ndarray  # (N, 4) pixels (x_min, y_min, x_max, y_max)
    center_px: np.ndarray  # (N, 2) pixels, projection of the 3D box center
    depth: np.ndarray  # (N,) meters, camera-frame
    yaw_local: np.ndarray  # (N,) radians, appearance-relative yaw
    dims: np.ndarray  # (N, 3) meters (l, w, h)
    appearance: np.ndarray  # (N, A) fixed-length embeddings
    score: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.frame)

    @classmethod
    def from_rows(cls, rows) -> "DetectionTable":
        """The table of (frame, box2d, center_px, depth, yaw_local, dims, appearance, score) rows, in order."""
        frame, box2d, center, depth, yaw, dims, app, score = list(zip(*rows)) or [()] * 8
        n = len(frame)
        return cls(
            np.array(frame, dtype=np.int64),
            np.array(box2d, dtype=float).reshape(n, 4),
            np.array(center, dtype=float).reshape(n, 2),
            np.array(depth, dtype=float),
            np.array(yaw, dtype=float),
            np.array(dims, dtype=float).reshape(n, 3),
            np.array(app, dtype=float).reshape(n, len(app[0]) if n else 0),
            np.array(score, dtype=float),
        )


class TrackRecord(NamedTuple):
    """One emitted track row as plain values; the fields are TrackTable's."""

    frame: int
    track_id: int
    center: list  # (3,) meters, world frame
    dims: list  # (3,) meters (l, w, h)
    yaw: float  # radians in [0, 2*pi)
    velocity: list  # (3,) meters/frame
    box2d: list  # (4,) pixels (x_min, y_min, x_max, y_max)
    status: TrackStatus


# --- rows of a row dataclass -------------------------------------------------


@functools.cache
def _field_names(cls) -> tuple:
    """A row dataclass's field names, in its constructor's order."""
    return tuple(f.name for f in fields(cls))


def take_rows(rows, index):
    """Rows `index` of every array of a row dataclass, nested ones included.

    Serves the tracker's store and the backends' motion rows alike; None
    stays None. An index array or mask copies, so the result shares no
    memory with rows; a slice gives views.
    """
    if rows is None:
        return None
    if isinstance(rows, np.ndarray):
        return rows[index]
    return type(rows)(*[take_rows(getattr(rows, name), index) for name in _field_names(type(rows))])


def stack_rows(rows, more):
    """rows' rows followed by more's, field by field."""
    if rows is None:
        return None
    if isinstance(rows, np.ndarray):
        return np.concatenate([rows, more])
    return type(rows)(*[stack_rows(getattr(rows, name), getattr(more, name)) for name in _field_names(type(rows))])


def put_rows(rows, index, values) -> None:
    """Overwrite rows `index` of rows in place with the rows of values."""
    if isinstance(rows, np.ndarray):
        rows[index] = values
    elif rows is not None:
        for name in _field_names(type(rows)):
            put_rows(getattr(rows, name), index, getattr(values, name))


def first_repeat(frame: np.ndarray, track_id: np.ndarray):
    """Index of the first row, in row order, whose (frame, id) an earlier row holds; None if none does."""
    order = np.lexsort((track_id, frame))  # stable: a repeat follows its first row
    frame, track_id = frame[order], track_id[order]
    repeat = (frame[1:] == frame[:-1]) & (track_id[1:] == track_id[:-1])
    return int(order[1:][repeat].min()) if repeat.any() else None


@dataclass
class TrackTable:
    """Track rows as columns, one row per (frame, id); take_rows selects rows."""

    frame: np.ndarray  # (N,) int
    track_id: np.ndarray  # (N,) int
    center: np.ndarray  # (N, 3) meters, world frame
    dims: np.ndarray  # (N, 3) meters (l, w, h)
    yaw: np.ndarray  # (N,) radians in [0, 2*pi), as geometry.normalize_angles wraps them
    velocity: np.ndarray  # (N, 3) meters/frame
    box2d: np.ndarray  # (N, 4) pixels (x_min, y_min, x_max, y_max)
    status: np.ndarray  # (N,) TrackStatus objects

    def __len__(self) -> int:
        return len(self.frame)

    @classmethod
    def from_records(cls, records) -> "TrackTable":
        """The rows of a TrackRecord list, in list order."""
        frame, track_id, center, dims, yaw, velocity, box2d, status = list(zip(*records)) or [()] * 8
        return cls(
            np.array(frame, dtype=np.int64),
            np.array(track_id, dtype=np.int64),
            np.array(center, dtype=float).reshape(-1, 3),
            np.array(dims, dtype=float).reshape(-1, 3),
            np.array(yaw, dtype=float),
            np.array(velocity, dtype=float).reshape(-1, 3),
            np.array(box2d, dtype=float).reshape(-1, 4),
            np.array(status, dtype=object),
        )


@dataclass
class SequenceInput:
    """Frame-aligned detections, poses, and intrinsics for one sequence."""

    intrinsics: object  # CameraIntrinsics
    poses: list  # CameraPose per frame, contiguous from frame 0
    detections: list  # DetectionTable per frame: frame f's rows of one frame-sorted table

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

    BACKENDS = ("none", "kf2d", "kf3d", "lstm")

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
        if self.motion_backend not in self.BACKENDS:
            raise OutOfRangeValue(f"motion_backend={self.motion_backend!r} not in {self.BACKENDS}")
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "TrackerConfig":
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise UnknownKey(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for name, value in data.items():
            accepted, what = _JSON_TYPES[types[name]]
            # JSON true/false must not pass as numbers, nor numbers as flags
            ok = isinstance(value, accepted) and (accepted is bool) == isinstance(value, bool)
            # an integer beyond the float range compares above float max
            if not ok or (types[name] == "float" and not abs(value) <= sys.float_info.max):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
            # a JSON integer too large for int64 would reach NumPy as an object
            values[name] = float(value) if types[name] == "float" else value
        return cls(**values).validate()

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def replace(self, **kwargs) -> "TrackerConfig":
        return replace(self, **kwargs).validate()


def _load_linear_sum_assignment():
    """SciPy's compiled linear_sum_assignment, loaded without running scipy/optimize/__init__.py.

    `from scipy.optimize import linear_sum_assignment` first imports all of
    scipy.optimize, about 550 modules (linprog, minimize, shgo,
    scipy.linalg, ...), for this one compiled function (Crouse, IEEE TAES
    2016): 0.42-0.48 s and about 48 MB of resident memory per process on a
    2-core x86-64 VM with CPython 3.11 and SciPy 1.17. Loading the _lsap
    extension by its file path gives the very function scipy.optimize
    exports; it keeps the name scipy.optimize._lsap, so a later
    `import scipy.optimize` in the same process reuses the extension. The
    public import is the fallback for a SciPy whose layout differs.
    """
    import scipy

    stem = os.path.join(scipy.__path__[0], "optimize", "_lsap")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        try:
            spec = importlib.util.spec_from_file_location("scipy.optimize._lsap", stem + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.linear_sum_assignment
        except (ImportError, OSError, AttributeError):
            continue
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


# the Kuhn-Munkres step of association and of CLEAR matching
linear_sum_assignment = _load_linear_sum_assignment()
