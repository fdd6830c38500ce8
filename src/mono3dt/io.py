"""Readers and writers for the on-disk sequence formats.

All files are UTF-8. Streamed record files (detections, tracks) are JSON
Lines with a first-line header carrying the format version; the poses,
with the camera intrinsics, are one JSON document. Angles are radians,
lengths meters, and every field name carries its unit.
"""

from __future__ import annotations

import json
from dataclasses import fields
from itertools import chain, compress, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .data import DetectionTable, SequenceInput, TrackerConfig, TrackStatus, TrackTable, first_repeat, take_rows
from .geometry import CameraIntrinsics, CameraPose, normalize_angles

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
    column = column.reshape(len(values), *width).astype(float, copy=False)
    # among numbers np.array reads a JSON true/false as 1.0/0.0, so the rows holding those are checked by type
    held = (column == 0.0) | (column == 1.0)
    rows = compress(values, (held.any(axis=1) if width else held).tolist())
    if bool in set(map(type, chain.from_iterable(rows) if width else rows)):
        raise ValueError(f"{key} must hold numbers, not true or false")
    return column


def _refuse_failed(*checks) -> None:
    """Raise ValueError naming the first (mask, problem) check whose mask is not all true."""
    for ok, problem in checks:
        if not ok.all():
            raise ValueError(problem)


def _load_table(path, kind: str, columns, raise_clash):
    """Read a JSONL file of `kind` as the table columns(objs) builds (which raises on any bad record), rows in file order.

    Only a file that fails is read again row by row: the first malformed line is a ParseError, unless
    raise_clash(path, line_nos, rows) finds an earlier row that conflicts with one before it.
    """
    lines = list(_read_jsonl(path, kind))
    try:
        return columns([obj for _, obj in lines])
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    rows, error = [], AssertionError(f"{path}: the {kind} columns failed but no row did")
    for line_no, obj in lines:
        try:
            rows.append(columns([obj]))
        except KeyError as exc:
            error = ParseError(path, line_no, f"missing key {exc}")
            break
        except (TypeError, ValueError, OverflowError) as exc:
            error = ParseError(path, line_no, str(exc))
            break
    if rows:
        raise_clash(path, [line_no for line_no, _ in lines], rows)
    raise error


# the keys of a detections.jsonl record, in DetectionTable's field order
_DETECTION_KEYS = ("frame", "box2d", "c", "depth_m", "yaw_local_rad", "dim_m", "app", "score")


def write_detections(tables, path) -> None:
    """Write DetectionTables (one per frame, say) as detections.jsonl, rows in table order."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(_header_line("detections") + "\n")
        for table in tables:
            for row in zip(*(getattr(table, f.name).tolist() for f in fields(table))):
                fh.write(json.dumps(dict(zip(_DETECTION_KEYS, row)), allow_nan=False) + "\n")


def _detection_columns(objs) -> DetectionTable:
    """The DetectionTable of parsed detection records; raises if any record is malformed."""
    frame, box2d, center, depth, yaw, dims, app, score = list(zip(*map(itemgetter(*_DETECTION_KEYS), objs))) or [()] * 8
    table = DetectionTable(
        frame=_int_column("frame", frame),
        box2d=_float_column("box2d", box2d, 4),
        center_px=_float_column("c", center, 2),
        depth=_float_column("depth_m", depth),
        yaw_local=_float_column("yaw_local_rad", yaw),
        dims=_float_column("dim_m", dims, 3),
        appearance=_float_column("app", app, len(app[0]) if app else 0),
        score=_float_column("score", score),
    )
    scalars = np.stack([table.depth, table.yaw_local, table.score], axis=1)
    numbers = np.hstack([table.box2d, table.center_px, table.dims, table.appearance, scalars])
    _refuse_failed(
        (np.isfinite(numbers), "detection fields must be finite"),
        (table.box2d[:, :2] <= table.box2d[:, 2:], "box2d min exceeds max"),
        (table.depth > 0, "detection depth must be positive"),
        (table.dims > 0, "detection dimensions must be positive"),
        ((table.score >= 0) & (table.score <= 1), "detection score must be in [0, 1]"),
    )
    return table


def _ragged_appearance(path, line_nos, rows) -> None:
    widths = [row.appearance.shape[1] for row in rows]
    bad = next((k for k, width in enumerate(widths) if width != widths[0]), None)
    if bad is not None:
        raise DimensionMismatch(f"{path}:{line_nos[bad]}: appearance length {widths[bad]} != {widths[0]}")


def load_detections(path) -> DetectionTable:
    """Read detections.jsonl into a DetectionTable, rows in file order.

    Every row gets the checks a lone row gets, and every row's appearance
    has the first row's length (DimensionMismatch otherwise); the error
    names the first bad line in file order.
    """
    return _load_table(path, "detections", _detection_columns, _ragged_appearance)


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
    the pose range; detections[f] is frame f's rows (file order kept), a
    view of one frame-sorted table, empty for a frame without detections.
    """
    intrinsics, poses = load_poses(poses_path)
    table = load_detections(detections_path)
    outside = (table.frame < 0) | (table.frame >= len(poses))
    if outside.any():
        row = int(np.argmax(outside))
        line_no = next(islice(_read_jsonl(detections_path, "detections"), row, None))[0]
        problem = f"detection frame {table.frame[row]} outside pose range 0..{len(poses) - 1}"
        raise FrameGapError(f"{detections_path}:{line_no}: {problem}")
    table = take_rows(table, np.argsort(table.frame, kind="stable"))
    bounds = np.searchsorted(table.frame, np.arange(len(poses) + 1)).tolist()
    per_frame = [take_rows(table, slice(start, stop)) for start, stop in zip(bounds, bounds[1:])]
    return SequenceInput(intrinsics=intrinsics, poses=poses, detections=per_frame)


_STR_TO_STATUS = {status.value: status for status in TrackStatus}


# %r prints ints and floats as json.dumps does; _check_tracks has refused the non-finite
_TRACK_LINE = '{"frame": %r, "id": %r, "P_m": %r, "yaw_rad": %r, "dim_m": %r, "vel_mpf": %r, "box2d": %r, "status": "%s"}\n'


def write_tracks(records, path) -> None:
    """Write TrackRecords sorted by (frame, id) as tracks.jsonl.

    The rows get the checks load_tracks makes, so that the file written
    is one load_tracks reads; a row that fails one is a ValueError.
    """
    table = TrackTable.from_records(records)
    table = take_rows(table, np.lexsort((table.track_id, table.frame)))
    _check_tracks(table)
    columns = (table.frame, table.track_id, table.center, table.yaw, table.dims, table.velocity, table.box2d)
    lines = zip(*(column.tolist() for column in columns), [status.value for status in table.status])
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(_header_line("tracks") + "\n")
        fh.write("".join(_TRACK_LINE % line for line in lines))


_TRACK_KEYS = itemgetter("frame", "id", "P_m", "dim_m", "yaw_rad", "vel_mpf", "box2d", "status")


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
    _check_tracks(table)
    table.yaw = normalize_angles(table.yaw)
    return table


def _check_tracks(table: TrackTable) -> None:
    """The row checks of a track table, shared by load_tracks and write_tracks."""
    numbers = np.hstack([table.center, table.dims, table.yaw[:, None], table.velocity, table.box2d])
    _refuse_failed(
        (np.isfinite(numbers), "track fields must be finite"),
        (table.dims > 0, "box dimensions must be positive"),
        (table.box2d[:, :2] <= table.box2d[:, 2:], "box2d min exceeds max"),
        (table.track_id >= 0, "id must be >= 0"),
        (np.not_equal(table.status, None), f"status must be one of {sorted(_STR_TO_STATUS)}"),
    )
    if first_repeat(table.frame, table.track_id) is not None:
        raise ValueError("repeated (frame, id)")


def _repeated_track(path, line_nos, rows) -> None:
    repeat = first_repeat(np.concatenate([row.frame for row in rows]), np.concatenate([row.track_id for row in rows]))
    if repeat is not None:
        key = (int(rows[repeat].frame[0]), int(rows[repeat].track_id[0]))
        raise ParseError(path, line_nos[repeat], f"repeated (frame, id) {key}")


def load_tracks(path) -> TrackTable:
    """Read tracks.jsonl into a TrackTable, rows in file order.

    Every row gets the checks a lone row gets and a repeated (frame, id)
    is refused; the ParseError names the first bad line in file order.
    """
    return _load_table(path, "tracks", _track_columns, _repeated_track)


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
