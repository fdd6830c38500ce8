"""Serialization contracts: lossless round trips, gap detection, config loading."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mono3dt.data import (
    ConfigError,
    DetectionTable,
    OutOfRangeValue,
    TrackerConfig,
    TrackRecord,
    TrackStatus,
    TrackTable,
    UnknownKey,
    take_rows,
)
from mono3dt.geometry import CameraPose, normalize_angle
from mono3dt.io import (
    DimensionMismatch,
    FrameGapError,
    ParseError,
    UnsupportedFormatVersion,
    load_config,
    load_detections,
    load_poses,
    load_sequence,
    load_tracks,
    write_detections,
    write_poses,
    write_tracks,
)

from conftest import default_intrinsics, random_pose


def make_detection(rng, frame, app_len=16) -> tuple:
    """One (frame, box2d, center_px, depth, yaw_local, dims, appearance, score) row of DetectionTable.from_rows."""
    x0, y0 = rng.uniform(0, 900, 2)
    return (
        frame,
        [x0, y0, x0 + rng.uniform(1, 300), y0 + rng.uniform(1, 150)],
        rng.uniform(0, 1900, 2),
        rng.uniform(1, 90),
        rng.uniform(0, 2 * math.pi),
        rng.uniform(1, 5, 3),
        rng.normal(size=app_len),
        rng.uniform(0.2, 1.0),
    )


def assert_tables_equal(got, want):
    """Every column of two row dataclasses has the same dtype, shape and bytes (object columns: equal members)."""
    assert type(got) is type(want)
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
        assert (a.tolist() if a.dtype == object else a.tobytes()) == (b.tolist() if b.dtype == object else b.tobytes()), field.name


def rewrite_line(path, index, edit) -> None:
    """Replace line `index` (0 is the header) of a JSONL file by edit(record dict) as JSON."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[index])
    edit(record)
    lines[index] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


class TestDetectionsRoundTrip:
    def test_empty_file_with_valid_poses(self, tmp_path):
        det_path = tmp_path / "detections.jsonl"
        poses_path = tmp_path / "poses.json"
        write_detections([], det_path)
        write_poses(default_intrinsics(), [CameraPose.identity()] * 4, poses_path)
        seq = load_sequence(det_path, poses_path)
        assert seq.n_frames == 4
        assert [len(frame) for frame in seq.detections] == [0] * 4

    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = [DetectionTable.from_rows([make_detection(rng, f) for _ in range(rng.integers(0, 5))]) for f in range(6)]
        path = tmp_path / "detections.jsonl"
        write_detections(frames, path)
        loaded = load_detections(path)
        flat = [row for table in frames for row in zip(*(getattr(table, f.name).tolist() for f in fields(table)))]
        assert len(loaded) == len(flat) > 0
        assert_tables_equal(loaded, DetectionTable.from_rows(flat))

    def test_sequence_slices_frames_in_file_order(self, tmp_path):
        """detections[f] holds frame f's rows in file order, whatever the file's frame order."""
        rng = np.random.default_rng(6)
        table = DetectionTable.from_rows([make_detection(rng, f) for f in (2, 0, 2, 1, 0, 2)])
        det_path, poses_path = tmp_path / "d.jsonl", tmp_path / "p.json"
        write_detections([table], det_path)
        write_poses(default_intrinsics(), [CameraPose.identity()] * 4, poses_path)
        seq = load_sequence(det_path, poses_path)
        for f in range(4):
            assert_tables_equal(seq.detections[f], take_rows(table, table.frame == f))

    def test_counts_conserved(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = [DetectionTable.from_rows([make_detection(rng, f) for _ in range(3)]) for f in range(5)]
        path = tmp_path / "d.jsonl"
        write_detections(frames, path)
        n_lines = len([l for l in path.read_text().splitlines() if l.strip()])
        assert len(load_detections(path)) == n_lines - 1  # minus header

    def test_appearance_length_mismatch(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = [DetectionTable.from_rows([make_detection(rng, 0, app_len=16)]), DetectionTable.from_rows([make_detection(rng, 1, app_len=8)])]
        path = tmp_path / "d.jsonl"
        write_detections(frames, path)
        with pytest.raises(DimensionMismatch):
            load_detections(path)

    def test_ragged_appearance_names_its_own_line(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "d.jsonl"
        write_detections([DetectionTable.from_rows([make_detection(rng, f, app_len=4) for f in range(5)])], path)
        rewrite_line(path, 3, lambda record: record["app"].pop())
        with pytest.raises(DimensionMismatch) as err:
            load_detections(path)
        assert str(err.value).startswith(f"{path}:4: ")

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"format_version": 1, "kind": "detections"}\n{broken\n')
        with pytest.raises(ParseError) as err:
            load_detections(path)
        assert err.value.line_no == 2

    def test_unknown_format_version(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"format_version": 99, "kind": "detections"}\n')
        with pytest.raises(UnsupportedFormatVersion):
            load_detections(path)

    def test_header_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('[1]\n')
        with pytest.raises(UnsupportedFormatVersion) as err:
            load_detections(path)
        assert str(err.value).startswith(f"{path}:1: ")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("depth_m", float("nan")),
            ("depth_m", float("inf")),
            ("yaw_local_rad", float("nan")),
            ("score", float("nan")),
            ("c", [float("nan"), 1.0]),
            ("dim_m", [4.2, float("inf"), 1.5]),
            ("app", [0.0, float("nan")]),
            ("dim_m", [0.0, 1.8, 1.5]),
            ("dim_m", [4.2, -1.8, 1.5]),
            ("frame", 2.7),
            ("frame", True),
            ("frame", "3"),
            ("frame", 1.0),
            ("score", 1.5),
            ("box2d", [9.0, 0.0, 0.0, 9.0]),
            ("depth_m", 0.0),
        ],
    )
    def test_bad_value_reports_line(self, tmp_path, field, value):
        rng = np.random.default_rng(4)
        path = tmp_path / "d.jsonl"
        write_detections([DetectionTable.from_rows([make_detection(rng, 0, app_len=2)] * 2)], path)
        rewrite_line(path, 2, lambda record: record.update({field: value}))
        with pytest.raises(ParseError) as err:
            load_detections(path)
        assert err.value.line_no == 3
        assert str(err.value).startswith(f"{path}:3: ")

    def test_first_of_two_bad_lines_reported(self, tmp_path):
        """Of two bad lines, 4 and 7, line 4 is reported, whichever kind of fault each holds."""
        rng = np.random.default_rng(7)
        path = tmp_path / "d.jsonl"
        rows = [make_detection(rng, f, app_len=3) for f in range(8)]
        write_detections([DetectionTable.from_rows(rows)], path)
        rewrite_line(path, 3, lambda record: record["app"].append(0.5))
        rewrite_line(path, 6, lambda record: record.update(depth_m=float("nan")))
        with pytest.raises(DimensionMismatch) as err:
            load_detections(path)
        assert str(err.value).startswith(f"{path}:4: ")
        write_detections([DetectionTable.from_rows(rows)], path)
        rewrite_line(path, 3, lambda record: record.update(score=-0.5))
        rewrite_line(path, 6, lambda record: record["app"].append(0.5))
        with pytest.raises(ParseError) as err:
            load_detections(path)
        assert str(err.value).startswith(f"{path}:4: ")

    def test_bad_line_before_an_undecodable_line_reported(self, tmp_path):
        """Line 4 holds a NaN depth and line 7 does not decode: line 4 comes first in the file."""
        rng = np.random.default_rng(8)
        path = tmp_path / "d.jsonl"
        write_detections([DetectionTable.from_rows([make_detection(rng, f, app_len=3) for f in range(6)])], path)
        rewrite_line(path, 3, lambda record: record.update(depth_m=float("nan")))
        lines = path.read_text().splitlines()
        lines[6] = lines[6][: len(lines[6]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_detections(path)
        assert str(err.value).startswith(f"{path}:4: ") and "finite" in str(err.value)
        lines[3] = lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_detections(path)
        assert str(err.value).startswith(f"{path}:7: bad record")

    @pytest.mark.parametrize("bad_line", [1, 7, 300])
    def test_non_utf8_line_reported_after_the_lines_before_it(self, tmp_path, bad_line):
        """A byte that is not UTF-8 on line bad_line, of 400, is a ParseError there; a NaN depth on line 4 comes first."""
        rng = np.random.default_rng(9)
        path = tmp_path / "d.jsonl"
        rows = [make_detection(rng, f, app_len=3) for f in range(399)]
        for nan_depth in (False, True):
            write_detections([DetectionTable.from_rows(rows)], path)
            if nan_depth:
                rewrite_line(path, 3, lambda record: record.update(depth_m=float("nan")))
            lines = path.read_bytes().split(b"\n")
            lines[bad_line - 1] = lines[bad_line - 1][:20] + b"\xff" + lines[bad_line - 1][20:]
            path.write_bytes(b"\n".join(lines))
            with pytest.raises(ParseError) as err:
                load_detections(path)
            if nan_depth and bad_line > 4:
                assert str(err.value).startswith(f"{path}:4: ") and "finite" in str(err.value)
            else:
                prefix = "bad header" if bad_line == 1 else "bad record"
                assert str(err.value).startswith(f"{path}:{bad_line}: {prefix}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize(
        "field, value", [("app", [0.5, True]), ("app", [False, 0.5]), ("score", True), ("c", [3.0, False])]
    )
    def test_boolean_on_a_middle_row_reports_line(self, tmp_path, field, value):
        """Among numbers in other rows a JSON true/false would load as 1.0/0.0; it is refused at its line."""
        rng = np.random.default_rng(4)
        path = tmp_path / "d.jsonl"
        write_detections([DetectionTable.from_rows([make_detection(rng, 0, app_len=2) for _ in range(3)])], path)
        rewrite_line(path, 2, lambda record: record.update({field: value}))
        with pytest.raises(ParseError) as err:
            load_detections(path)
        assert err.value.line_no == 3 and str(err.value).startswith(f"{path}:3: ")

    @settings(max_examples=30, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_round_trip_is_lossless(self, tmp_path, data):
        """load_detections after write_detections equals the written table, bit for bit in every column."""
        number = st.floats(-1e6, 1e6, allow_nan=False)
        app_len = data.draw(st.integers(0, 4))
        rows = []
        for _ in range(data.draw(st.integers(1, 30))):
            x0, y0, width, height = data.draw(st.tuples(number, number, st.floats(0, 1e3), st.floats(0, 1e3)))
            rows.append(
                (
                    data.draw(st.integers(-(2**63), 2**63 - 1)),
                    [x0, y0, x0 + width, y0 + height],
                    data.draw(st.lists(number, min_size=2, max_size=2)),
                    data.draw(st.floats(1e-3, 1e3)),
                    data.draw(number),
                    data.draw(st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3)),
                    data.draw(st.lists(number, min_size=app_len, max_size=app_len)),
                    data.draw(st.floats(0, 1)),
                )
            )
        table = DetectionTable.from_rows(rows)
        path = tmp_path / "detections.jsonl"
        write_detections([table], path)
        assert_tables_equal(load_detections(path), table)

    def test_tracks_writer_refuses_non_finite(self, tmp_path):
        rec = TrackRecord(0, 0, [float("nan"), 0.0, 0.0], [1.0, 1.0, 1.0], 0.0, [0.0] * 3, [0.0, 0.0, 1.0, 1.0], TrackStatus.TRACKED)
        with pytest.raises(ValueError):
            write_tracks([rec], tmp_path / "t.jsonl")


class TestPoses:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        poses = [random_pose(rng) for _ in range(5)]
        intr = default_intrinsics()
        path = tmp_path / "poses.json"
        write_poses(intr, poses, path)
        intr2, poses2 = load_poses(path)
        assert intr2 == intr
        for a, b in zip(poses, poses2):
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.translation, b.translation)

    def test_missing_frame_rejected(self, tmp_path):
        intr = default_intrinsics()
        path = tmp_path / "poses.json"
        write_poses(intr, [CameraPose.identity()] * 6, path)
        doc = json.loads(path.read_text())
        del doc["frames"][3]  # drop frame 3 of 0..5
        path.write_text(json.dumps(doc))
        with pytest.raises(FrameGapError):
            load_poses(path)

    def test_detection_frame_outside_pose_range(self, tmp_path):
        rng = np.random.default_rng(4)
        det_path = tmp_path / "d.jsonl"
        poses_path = tmp_path / "p.json"
        write_detections([DetectionTable.from_rows([make_detection(rng, 7)])], det_path)
        write_poses(default_intrinsics(), [CameraPose.identity()] * 3, poses_path)
        with pytest.raises(FrameGapError) as err:
            load_sequence(det_path, poses_path)
        assert str(err.value).startswith(f"{det_path}:2: ")
        # the first such row in file order is named, not the lowest frame
        rows = [make_detection(rng, frame) for frame in (1, 9, 2, -1)]
        write_detections([DetectionTable.from_rows(rows)], det_path)
        with pytest.raises(FrameGapError) as err:
            load_sequence(det_path, poses_path)
        assert str(err.value).startswith(f"{det_path}:3: detection frame 9 outside pose range 0..2")


def track_row(frame, track_id, **changes) -> TrackRecord:
    row = TrackRecord(frame, track_id, [1.0, 2.0, 0.5], [4.2, 1.8, 1.5], 0.3, [0.0] * 3, [0.0, 0.0, 9.0, 9.0], TrackStatus.TRACKED)
    return row._replace(**changes)


class TestTracks:
    def test_empty_set_header_only(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        write_tracks([], path)
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["format_version"] == 1
        loaded = load_tracks(path)
        assert len(loaded) == 0
        assert [getattr(loaded, f.name).shape for f in fields(loaded)] == [(0,), (0,), (0, 3), (0, 3), (0,), (0, 3), (0, 4), (0,)]

    def test_single_record_bit_exact(self, tmp_path):
        rec = TrackRecord(
            frame=3,
            track_id=7,
            center=[1.25, -2.5, 0.75],
            dims=[4.2, 1.8, 1.5],
            yaw=0.7853981633974483,
            velocity=[0.1, -0.2, 0.0],
            box2d=[10.5, 20.25, 100.125, 200.0],
            status=TrackStatus.TRACKED,
        )
        path = tmp_path / "tracks.jsonl"
        write_tracks([rec], path)
        loaded = load_tracks(path)
        assert len(loaded) == 1
        assert loaded.frame[0] == rec.frame
        assert loaded.track_id[0] == rec.track_id
        assert loaded.center[0].tolist() == rec.center
        assert loaded.yaw[0] == rec.yaw
        assert loaded.velocity[0].tolist() == rec.velocity
        assert loaded.box2d[0].tolist() == rec.box2d
        assert loaded.status[0] == rec.status

    def test_fuzz_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        statuses = [TrackStatus.TRACKED, TrackStatus.OCCLUDED, TrackStatus.LOST]
        records = []
        # distinct (frame, id) keys: a file repeats none
        for key in rng.choice(500 * 200, size=10_000, replace=False).tolist():
            x0, y0 = rng.uniform(0, 1000, 2)
            records.append(
                TrackRecord(
                    frame=key // 200,
                    track_id=key % 200,
                    center=rng.normal(scale=40, size=3).tolist(),
                    dims=rng.uniform(0.5, 8, 3).tolist(),
                    yaw=rng.uniform(0, 2 * math.pi),
                    velocity=rng.normal(scale=1.0, size=3).tolist(),
                    box2d=[x0, y0, x0 + rng.uniform(0, 500), y0 + rng.uniform(0, 300)],
                    status=statuses[rng.integers(0, 3)],
                )
            )
        path = tmp_path / "tracks.jsonl"
        write_tracks(records, path)
        loaded = load_tracks(path)
        assert len(loaded) == len(records)
        ordered = sorted(records, key=lambda r: (r.frame, r.track_id))
        assert list(zip(loaded.frame.tolist(), loaded.track_id.tolist())) == [(a.frame, a.track_id) for a in ordered]
        assert loaded.center.tolist() == [a.center for a in ordered]
        assert loaded.dims.tolist() == [a.dims for a in ordered]
        assert loaded.yaw.tolist() == [a.yaw for a in ordered]
        assert loaded.velocity.tolist() == [a.velocity for a in ordered]
        assert loaded.box2d.tolist() == [a.box2d for a in ordered]
        assert loaded.status.tolist() == [a.status for a in ordered]

    @pytest.mark.parametrize(
        "key, token",
        [
            ("P_m", "[1.0, NaN, 0.5]"),
            ("dim_m", "[4.2, Infinity, 1.5]"),
            ("vel_mpf", "[0.1, 1e999, 0.0]"),
            ("id", "2.7"),
            ("id", "true"),
            ("frame", '"3"'),
        ],
    )
    def test_non_finite_number_reports_line(self, tmp_path, key, token):
        path = tmp_path / "tracks.jsonl"
        write_tracks([track_row(2, 4), track_row(3, 4)], path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record[key] = "TOKEN"
        lines[2] = json.dumps(record).replace('"TOKEN"', token)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_tracks(path)
        assert str(err.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("P_m", None),
            ("P_m", [1.0, 2.0]),
            ("status", "parked"),
            ("box2d", [9.0, 0.0, 0.0, 9.0]),
            ("dim_m", [4.2, 0.0, 1.5]),
            ("id", -1),
        ],
        ids=["missing-key", "two-element-P_m", "unknown-status", "inverted-box2d", "zero-dimension", "negative-id"],
    )
    def test_bad_row_reports_line(self, tmp_path, key, value):
        """A row that fails one check is a ParseError at its path:line; value None drops the key."""
        path = tmp_path / "tracks.jsonl"
        write_tracks([track_row(frame, 4) for frame in range(3)], path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        if value is None:
            del record[key]
        else:
            record[key] = value
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_tracks(path)
        assert err.value.line_no == 3 and str(err.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize(
        "key, value", [("yaw_rad", True), ("P_m", [1.0, False, 0.5]), ("box2d", [0.0, 0.0, 9.0, True])]
    )
    def test_boolean_on_a_middle_row_reports_line(self, tmp_path, key, value):
        """Among numbers in other rows a JSON true/false would load as 1.0/0.0; it is refused at its line."""
        path = tmp_path / "tracks.jsonl"
        write_tracks([track_row(frame, 4) for frame in range(3)], path)
        rewrite_line(path, 2, lambda record: record.update({key: value}))
        with pytest.raises(ParseError) as err:
            load_tracks(path)
        assert err.value.line_no == 3 and str(err.value).startswith(f"{path}:3: ")

    def test_first_of_two_bad_lines_reported(self, tmp_path):
        """A repeat at line 4 comes before a NaN at line 7, so line 4 is the one reported."""
        path = tmp_path / "tracks.jsonl"
        write_tracks([track_row(frame, 4) for frame in range(6)], path)
        lines = path.read_text().splitlines()
        repeat = json.loads(lines[3])
        repeat["frame"] = 1  # line 3 holds (1, 4)
        lines[3] = json.dumps(repeat)
        lines[6] = lines[6].replace('"yaw_rad": 0.3', '"yaw_rad": NaN')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_tracks(path)
        assert str(err.value).startswith(f"{path}:4: ") and "repeated (frame, id)" in str(err.value)
        lines[3] = lines[2].replace('"frame": 1', '"frame": 2')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_tracks(path)
        assert str(err.value).startswith(f"{path}:7: ")

    def test_bad_line_before_an_undecodable_line_reported(self, tmp_path):
        """Line 4 holds a NaN yaw and line 7 does not decode: line 4 comes first in the file."""
        path = tmp_path / "tracks.jsonl"
        write_tracks([track_row(frame, 4) for frame in range(6)], path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace('"yaw_rad": 0.3', '"yaw_rad": NaN')
        lines[6] = lines[6][: len(lines[6]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_tracks(path)
        assert str(err.value).startswith(f"{path}:4: ") and "finite" in str(err.value)
        lines[3] = lines[2].replace('"frame": 1', '"frame": 2')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_tracks(path)
        assert str(err.value).startswith(f"{path}:7: bad record")

    @settings(max_examples=30, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_round_trip_is_lossless(self, tmp_path, data):
        """load_tracks after write_tracks equals the table of the (frame, id)-sorted records, bit for bit."""
        number = st.floats(-1e6, 1e6, allow_nan=False)
        keys = data.draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2**40)), max_size=40, unique=True))
        records = []
        for frame, track_id in keys:
            x0, y0, width, height = data.draw(st.tuples(number, number, st.floats(0, 1e3), st.floats(0, 1e3)))
            records.append(
                TrackRecord(
                    frame=frame,
                    track_id=track_id,
                    center=data.draw(st.lists(number, min_size=3, max_size=3)),
                    dims=data.draw(st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3)),
                    yaw=normalize_angle(data.draw(st.floats(-1e3, 1e3))),
                    velocity=data.draw(st.lists(number, min_size=3, max_size=3)),
                    box2d=[x0, y0, x0 + width, y0 + height],
                    status=data.draw(st.sampled_from(TrackStatus)),
                )
            )
        path = tmp_path / "tracks.jsonl"
        write_tracks(records, path)
        # an object column holds the TrackStatus members themselves
        assert_tables_equal(load_tracks(path), TrackTable.from_records(sorted(records, key=lambda r: (r.frame, r.track_id))))

    def test_repeated_frame_and_id_reports_line(self, tmp_path):
        rec = track_row(0, 7, center=[10.0, 0.0, 0.75])
        later = track_row(1, 7, center=[10.4, 0.0, 0.75])
        path = tmp_path / "tracks.jsonl"
        write_tracks([rec, later], path)
        assert len(load_tracks(path)) == 2  # one id in two frames is fine
        rewrite_line(path, 2, lambda record: record.update(frame=0))  # the writer refuses the repeat itself
        with pytest.raises(ParseError) as err:
            load_tracks(path)
        assert str(err.value).startswith(f"{path}:3: ") and "repeated (frame, id)" in str(err.value)

    @pytest.mark.parametrize(
        "rows",
        [
            [track_row(0, 7), track_row(1, 7), track_row(0, 7, center=[10.4, 0.0, 0.75])],
            [track_row(0, 7, velocity=[0.0, float("inf"), 0.0])],
            [track_row(0, 7, yaw=float("nan"))],
            [track_row(0, 7, dims=[4.2, 0.0, 1.5])],
            [track_row(0, 7, dims=[4.2, 1.8, -1.5])],
            [track_row(0, 7, box2d=[0.0, 9.0, 9.0, 0.0])],
            [track_row(0, -1)],
        ],
        ids=["repeated-frame-and-id", "infinite", "nan", "zero-dimension", "negative-dimension", "inverted-box2d", "negative-id"],
    )
    def test_tracks_writer_refuses_what_the_reader_refuses(self, tmp_path, rows):
        path = tmp_path / "tracks.jsonl"
        with pytest.raises(ValueError):
            write_tracks(rows, path)
        assert not path.exists()  # refused before a line is written

    def test_write_then_read_is_sorted(self, tmp_path):
        recs = [
            TrackRecord(5, 1, [0, 0, 0], [1, 1, 1], 0, [0, 0, 0], [0, 0, 1, 1], TrackStatus.TRACKED),
            TrackRecord(2, 9, [0, 0, 0], [1, 1, 1], 0, [0, 0, 0], [0, 0, 1, 1], TrackStatus.LOST),
            TrackRecord(2, 3, [0, 0, 0], [1, 1, 1], 0, [0, 0, 0], [0, 0, 1, 1], TrackStatus.OCCLUDED),
        ]
        path = tmp_path / "t.jsonl"
        write_tracks(recs, path)
        loaded = load_tracks(path)
        assert list(zip(loaded.frame.tolist(), loaded.track_id.tolist())) == [(2, 3), (2, 9), (5, 1)]


class TestSimulatorSequenceRoundTrip:
    def test_scenario_files_reload_losslessly(self, tmp_path):
        from mono3dt.io import load_sequence
        from mono3dt.simulator import ScenarioConfig, write_scenario

        cfg = ScenarioConfig.make_preset("crossing_occlusion", seed=2, frames=25)
        paths = write_scenario(cfg, tmp_path)
        sequence = load_sequence(paths["detections"], paths["poses"])
        rewritten = tmp_path / "detections2.jsonl"
        write_detections(sequence.detections, rewritten)
        assert rewritten.read_bytes() == paths["detections"].read_bytes()
        poses2 = tmp_path / "poses2.json"
        write_poses(sequence.intrinsics, sequence.poses, poses2)
        assert poses2.read_bytes() == paths["poses"].read_bytes()


class TestConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("")
        cfg = load_config(path)
        assert cfg == TrackerConfig()
        assert cfg.w_deep == 0.3 and cfg.w_3d == 0.7
        assert cfg.max_lost_age == 20
        assert cfg.range_min == 0.15 and cfg.range_max == 100.0

    def test_weight_out_of_range(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"w_3d": 2.0}))
        with pytest.raises(OutOfRangeValue):
            load_config(path)

    def test_override_max_age(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"max_lost_age": 30}))
        assert load_config(path).max_lost_age == 30

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"nonsense": 1}))
        with pytest.raises(UnknownKey):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("w_deep", "x"),
            ("w_3d", True),
            ("max_lost_age", None),
            ("max_lost_age", 20.0),
            ("use_depth_ordering", "yes"),
            ("use_occlusion_state", 1),
            ("motion_backend", 3),
            ("ord_tie_meters", float("nan")),
        ],
    )
    def test_wrong_value_type(self, tmp_path, key, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    def test_bad_backend(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"motion_backend": "magic"}))
        with pytest.raises(OutOfRangeValue):
            load_config(path)
