"""Readers and writers for the on-disk sequence formats.

All files are UTF-8. Streamed record files (detections, tracks) are JSON
Lines with a first-line header carrying the format version; the poses,
with the camera intrinsics, are one JSON document. Angles are radians,
lengths meters, and every field name carries its unit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .data import DetectionRecord, SequenceInput, TrackerConfig, TrackRecord, TrackStatus
from .geometry import Box2D, Box3D, CameraIntrinsics, CameraPose

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


_STATUS_TO_STR = {
    TrackStatus.TRACKED: "tracked",
    TrackStatus.OCCLUDED: "occluded",
    TrackStatus.LOST: "lost",
}
_STR_TO_STATUS = {v: k for k, v in _STATUS_TO_STR.items()}


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
                        "status": _STATUS_TO_STR[rec.status],
                    },
                    allow_nan=False,
                )
                + "\n"
            )


def load_tracks(path):
    """Read tracks.jsonl into a list of TrackRecord (file order); a repeated (frame, id) is a ParseError."""
    records = []
    seen = set()
    for line_no, obj in _read_jsonl(path, "tracks"):
        try:
            rec = TrackRecord(
                frame_index=_json_int(obj, "frame"),
                track_id=_json_int(obj, "id"),
                box3d=Box3D(obj["P_m"], obj["dim_m"], float(obj["yaw_rad"])),
                velocity=obj["vel_mpf"],
                box2d_projected=Box2D(*obj["box2d"]),
                status=_STR_TO_STATUS[obj["status"]],
            )
            # one sum per record: a NaN, an infinity or an overflowing
            # literal anywhere leaves it non-finite
            total = sum(obj["P_m"]) + sum(obj["dim_m"]) + sum(obj["vel_mpf"]) + sum(obj["box2d"])
            if not math.isfinite(total + rec.box3d.yaw):
                raise ValueError("track fields must be finite")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        key = (rec.frame_index, rec.track_id)
        if key in seen:
            raise ParseError(path, line_no, f"repeated (frame, id) {key}")
        seen.add(key)
        records.append(rec)
    return records


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
