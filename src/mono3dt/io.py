"""Readers and writers for the on-disk sequence formats.

All files are UTF-8. Streamed record files (detections, tracks) are JSON
Lines with a first-line header carrying the format version; the poses,
with the camera intrinsics, are one JSON document. Angles are radians,
lengths meters, and every field name carries its unit.
"""

from __future__ import annotations

import json
from operator import itemgetter
from pathlib import Path

import numpy as np

from .data import DetectionRecord, SequenceInput, TrackerConfig, TrackStatus, TrackTable, first_repeat
from .geometry import Box2D, CameraIntrinsics, CameraPose, normalize_angles

FORMAT_VERSION = 1


class ParseError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no
        self.message = message

    def __reduce__(self):
        # rebuilt from the constructor's arguments, it crosses from a worker process intact
        return type(self), (self.path, self.line_no, self.message)


class UnsupportedFormatVersion(ParseError):
    pass


class FrameGapError(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


def _header_line(kind: str) -> str:
    return json.dumps({"format_version": FORMAT_VERSION, "kind": kind})


def _read_jsonl(path, kind: str):
    """Yield (line_no, record dict) after validating the header line."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise ParseError(path, 1, "missing header line")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise ParseError(path, 1, f"bad header: {exc}") from exc
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise UnsupportedFormatVersion(path, 1, f"unsupported format_version {version!r}")
        if header.get("kind") != kind:
            raise ParseError(path, 1, f"expected kind={kind!r}, got {header.get('kind')!r}")
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                yield line_no, json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_no, f"bad record: {exc}") from exc


def _json_int(obj: dict, key: str) -> int:
    value = obj[key]
    # bool is a subclass of int, so compare the exact type
    if type(value) is not int:
        raise ValueError(f"{key} must be a JSON integer, got {value!r}")
    return value


def write_detections(records_per_frame, path) -> None:
    """Write per-frame DetectionRecord lists as detections.jsonl."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(_header_line("detections") + "\n")
        for frame_records in records_per_frame:
            for det in frame_records:
                fh.write(
                    json.dumps(
                        {
                            "frame": det.frame_index,
                            "box2d": list(det.box2d.as_tuple()),
                            "c": det.center_proj.tolist(),
                            "depth_m": det.depth,
                            "yaw_local_rad": det.yaw_local,
                            "dim_m": det.dimensions.tolist(),
                            "app": det.appearance.tolist(),
                            "score": det.score,
                        },
                        allow_nan=False,
                    )
                    + "\n"
                )


def load_detections(path):
    """Read detections.jsonl into a list of DetectionRecord (file order)."""
    records = []
    app_len = None
    for line_no, obj in _read_jsonl(path, "detections"):
        try:
            det = DetectionRecord(
                frame_index=_json_int(obj, "frame"),
                box2d=Box2D(*obj["box2d"]),
                center_proj=obj["c"],
                depth=float(obj["depth_m"]),
                yaw_local=float(obj["yaw_local_rad"]),
                dimensions=obj["dim_m"],
                appearance=obj["app"],
                score=float(obj["score"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        if app_len is None:
            app_len = det.appearance.shape[0]
        elif det.appearance.shape[0] != app_len:
            raise DimensionMismatch(
                f"{path}:{line_no}: appearance length {det.appearance.shape[0]} != {app_len}"
            )
        records.append(det)
    return records


def write_poses(intrinsics: CameraIntrinsics, poses, path) -> None:
    path = Path(path)
    doc = {
        "format_version": FORMAT_VERSION,
        "intrinsics": {
            "focal_x": intrinsics.focal_x,
            "focal_y": intrinsics.focal_y,
            "principal_x": intrinsics.principal_x,
            "principal_y": intrinsics.principal_y,
            "image_width": intrinsics.image_width,
            "image_height": intrinsics.image_height,
        },
        "frames": [
            {
                "frame": i,
                "rotation": pose.rotation.reshape(-1).tolist(),
                "translation_m": pose.translation.tolist(),
            }
            for i, pose in enumerate(poses)
        ],
    }
    path.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n", encoding="utf-8")


def load_poses(path):
    """Read poses.json -> (intrinsics, contiguous pose list from frame 0)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, str(exc)) from exc
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedFormatVersion(path, 1, f"unsupported format_version {version!r}")
    data = doc["intrinsics"]
    intr = CameraIntrinsics(
        focal_x=float(data["focal_x"]),
        focal_y=float(data["focal_y"]),
        principal_x=float(data["principal_x"]),
        principal_y=float(data["principal_y"]),
        image_width=float(data["image_width"]),
        image_height=float(data["image_height"]),
    )
    frames = sorted(doc["frames"], key=lambda f: f["frame"])
    indices = [f["frame"] for f in frames]
    if indices != list(range(len(indices))):
        raise FrameGapError(f"{path}: pose frames not contiguous from 0: {indices[:10]}...")
    poses = [
        CameraPose(np.array(f["rotation"], dtype=float).reshape(3, 3), f["translation_m"])
        for f in frames
    ]
    return intr, poses


def load_sequence(detections_path, poses_path) -> SequenceInput:
    """Assemble a frame-aligned SequenceInput from the on-disk files.

    poses.json embeds the intrinsics. Detection frames must fall inside
    the pose range; frames without detections get empty lists.
    """
    intrinsics, poses = load_poses(poses_path)
    records = load_detections(detections_path)
    per_frame = [[] for _ in range(len(poses))]
    for det in records:
        if not (0 <= det.frame_index < len(poses)):
            raise FrameGapError(
                f"detection frame {det.frame_index} outside pose range 0..{len(poses) - 1}"
            )
        per_frame[det.frame_index].append(det)
    return SequenceInput(intrinsics=intrinsics, poses=poses, detections=per_frame)


_STR_TO_STATUS = {status.value: status for status in TrackStatus}


def write_tracks(records, path) -> None:
    """Write TrackRecords sorted by (frame, id) as tracks.jsonl."""
    path = Path(path)
    ordered = sorted(records, key=lambda r: (r.frame_index, r.track_id))
    with path.open("w", encoding="utf-8") as fh:
        fh.write(_header_line("tracks") + "\n")
        for rec in ordered:
            fh.write(
                json.dumps(
                    {
                        "frame": rec.frame_index,
                        "id": rec.track_id,
                        "P_m": rec.box3d.center.tolist(),
                        "yaw_rad": rec.box3d.yaw,
                        "dim_m": rec.box3d.dimensions.tolist(),
                        "vel_mpf": rec.velocity.tolist(),
                        "box2d": list(rec.box2d_projected.as_tuple()),
                        "status": rec.status.value,
                    },
                    allow_nan=False,
                )
                + "\n"
            )


_TRACK_KEYS = itemgetter("frame", "id", "P_m", "dim_m", "yaw_rad", "vel_mpf", "box2d", "status")


def _int_column(key: str, values) -> np.ndarray:
    # bool is a subclass of int, so compare the exact type
    if set(map(type, values)) - {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"{key} must be a JSON integer, got {bad!r}")
    return np.array(values, dtype=np.int64)


def _float_column(key: str, values, *width) -> np.ndarray:
    column = np.array(values)
    if values and (column.shape[1:] != width or column.dtype.kind not in "if"):
        raise ValueError(f"{key} must be {f'{width[0]} numbers' if width else 'a number'}")
    return column.reshape(-1, *width).astype(float, copy=False)


def _track_columns(objs) -> TrackTable:
    """The TrackTable of parsed track records; raises if any record is malformed."""
    frame, ids, center, dims, yaw, velocity, box2d, status = list(zip(*map(_TRACK_KEYS, objs))) or [()] * 8
    table = TrackTable(
        frame=_int_column("frame", frame),
        track_id=_int_column("id", ids),
        center=_float_column("P_m", center, 3),
        dims=_float_column("dim_m", dims, 3),
        yaw=_float_column("yaw_rad", yaw),
        velocity=_float_column("vel_mpf", velocity, 3),
        box2d=_float_column("box2d", box2d, 4),
        status=np.array([_STR_TO_STATUS.get(s) for s in status], dtype=object),
    )
    numbers = np.hstack([table.center, table.dims, table.yaw[:, None], table.velocity, table.box2d])
    for ok, problem in (
        (np.isfinite(numbers), "track fields must be finite"),
        (table.dims > 0, "box dimensions must be positive"),
        (table.box2d[:, :2] <= table.box2d[:, 2:], "box2d min exceeds max"),
        (table.track_id >= 0, "id must be >= 0"),
        (np.not_equal(table.status, None), f"status must be one of {sorted(_STR_TO_STATUS)}"),
    ):
        if not ok.all():
            raise ValueError(problem)
    table.yaw = normalize_angles(table.yaw)
    return table


def load_tracks(path) -> TrackTable:
    """Read tracks.jsonl into a TrackTable, rows in file order.

    Every row gets the checks a lone row gets and a repeated (frame, id)
    is refused; the ParseError names the first bad line in file order.
    """
    lines = list(_read_jsonl(path, "tracks"))
    try:
        table = _track_columns([obj for _, obj in lines])
        if first_repeat(table.frame, table.track_id) is None:
            return table
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    seen = set()  # some row is bad: find the first one, row by row
    for line_no, obj in lines:
        try:
            row = _track_columns([obj])
        except KeyError as exc:
            raise ParseError(path, line_no, f"missing key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        key = (int(row.frame[0]), int(row.track_id[0]))
        if key in seen:
            raise ParseError(path, line_no, f"repeated (frame, id) {key}")
        seen.add(key)
    raise AssertionError(f"{path}: the track columns failed but no row did")


def load_config(path) -> TrackerConfig:
    """Read a tracker-config JSON file; absent keys keep their defaults."""
    path = Path(path)
    text = path.read_text(encoding="utf-8").strip()
    if not text:
        return TrackerConfig().validate()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, str(exc)) from exc
    if not isinstance(data, dict):
        raise ParseError(path, 1, "config must be a JSON object")
    return TrackerConfig.from_dict(data)
