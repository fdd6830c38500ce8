"""CLI contracts: exit codes, determinism, causality, manifests."""

import functools
import hashlib
import json
import math
import operator
import tempfile
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mono3dt
from mono3dt.cli import main
from mono3dt.io import load_tracks, write_detections, write_poses
from mono3dt.lstm import PARAM_SHAPES, LstmWeights, save_weights
from mono3dt.metrics import evaluate_tracks


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(argv):
    return main(argv)


def assert_import_time(manifest):
    """The manifest records the process's cold start, from the package's first statement to the command."""
    seconds = manifest["timings_s"]["import"]
    assert math.isfinite(seconds) and seconds > 0


class TestSimulate:
    def test_writes_files_and_manifest(self, tmp_path):
        out = tmp_path / "s7"
        code = run(
            ["simulate", "--preset", "crossing_occlusion", "--seed", "7", "--frames", "100", "--out", str(out)]
        )
        assert code == 0
        for name in ("detections.jsonl", "poses.json", "gt_tracks.jsonl", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7
        assert "simulate" in manifest["timings_s"]
        assert_import_time(manifest)

    def test_repeat_runs_identical_hashes(self, tmp_path):
        args = ["simulate", "--preset", "dense", "--seed", "3", "--out"]
        assert run(args + [str(tmp_path / "a")]) == 0
        assert run(args + [str(tmp_path / "b")]) == 0
        for name in ("detections.jsonl", "poses.json", "gt_tracks.jsonl"):
            assert sha256(tmp_path / "a" / name) == sha256(tmp_path / "b" / name)

    def test_zero_frames_usage_error(self, tmp_path):
        code = run(["simulate", "--frames", "0", "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--seed", "-1"],
            ["simulate", "--vehicles", "-1"],
            ["demo", "--seed", "-2"],
            ["train-motion", "--seed", "-1", "--scenarios", "2", "--epochs", "1"],
        ],
        ids=["simulate-seed", "simulate-vehicles", "demo-seed", "train-motion-seed"],
    )
    def test_negative_seed_or_vehicle_count_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2
        assert ("seed" if "seed" in argv[1] else "n_vehicles") in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenario")
    assert run(["simulate", "--preset", "open_road", "--seed", "5", "--noiseless", "--out", str(out)]) == 0
    return out


class TestTrack:
    def test_noiseless_open_road_perfect(self, scenario, tmp_path):
        tracks = tmp_path / "tracks.jsonl"
        code = run(
            [
                "track",
                "--detections", str(scenario / "detections.jsonl"),
                "--poses", str(scenario / "poses.json"),
                "--motion", "kf3d",
                "--out", str(tracks),
            ]
        )
        assert code == 0
        report = evaluate_tracks(load_tracks(scenario / "gt_tracks.jsonl"), load_tracks(tracks), "3d")
        assert report.mota == 1.0 and report.mismatches == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert {"load", "track", "write"} <= set(manifest["timings_s"])
        assert_import_time(manifest)

    def test_unknown_format_version_exit_2(self, scenario, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format_version": 99, "kind": "detections"}\n')
        code = run(
            ["track", "--detections", str(bad), "--poses", str(scenario / "poses.json"), "--out", str(tmp_path / "t.jsonl")]
        )
        assert code == 2

    def test_lstm_without_weights_exit_2(self, scenario, tmp_path):
        code = run(
            [
                "track",
                "--detections", str(scenario / "detections.jsonl"),
                "--poses", str(scenario / "poses.json"),
                "--motion", "lstm",
                "--out", str(tmp_path / "t.jsonl"),
            ]
        )
        assert code == 2

    def test_missing_input_exit_1(self, scenario, tmp_path):
        code = run(
            ["track", "--detections", str(tmp_path / "nope.jsonl"), "--poses", str(scenario / "poses.json"), "--out", str(tmp_path / "t.jsonl")]
        )
        assert code == 1

    @pytest.mark.parametrize("field, value", [("depth_m", float("nan")), ("dim_m", [0.0, 1.8, 1.5])])
    def test_bad_detection_exit_1_with_line(self, scenario, tmp_path, capsys, field, value):
        lines = (scenario / "detections.jsonl").read_text().splitlines()
        record = json.loads(lines[5])
        record[field] = value
        lines[5] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "t.jsonl"
        code = run(["track", "--detections", str(bad), "--poses", str(scenario / "poses.json"), "--out", str(out)])
        assert code == 1
        assert f"{bad}:6: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [("rotation", 2.0, "rotation is not orthonormal"), ("translation_m", float("nan"), "translation must be finite")],
    )
    def test_bad_pose_exit_1(self, scenario, tmp_path, capsys, key, value, message):
        doc = json.loads((scenario / "poses.json").read_text())
        doc["frames"][3][key][0] = value
        bad = tmp_path / "poses.json"
        bad.write_text(json.dumps(doc))
        code = run(
            ["track", "--detections", str(scenario / "detections.jsonl"), "--poses", str(bad), "--out", str(tmp_path / "t.jsonl")]
        )
        assert code == 1
        assert message in capsys.readouterr().err

    def test_prefix_truncation_bit_exact(self, tmp_path):
        src = tmp_path / "full"
        assert run(["simulate", "--preset", "dense", "--seed", "2", "--out", str(src)]) == 0
        full_tracks = tmp_path / "full_tracks.jsonl"
        assert run(
            ["track", "--detections", str(src / "detections.jsonl"), "--poses", str(src / "poses.json"), "--out", str(full_tracks)]
        ) == 0

        # truncate inputs to the first k frames and rerun
        k = 35
        from mono3dt.io import load_sequence
        sequence = load_sequence(src / "detections.jsonl", src / "poses.json")
        cut = tmp_path / "cut"
        cut.mkdir()
        write_detections(sequence.detections[:k], cut / "detections.jsonl")
        write_poses(sequence.intrinsics, sequence.poses[:k], cut / "poses.json")
        cut_tracks = tmp_path / "cut_tracks.jsonl"
        assert run(
            ["track", "--detections", str(cut / "detections.jsonl"), "--poses", str(cut / "poses.json"), "--out", str(cut_tracks)]
        ) == 0

        full_lines = [
            line
            for line in full_tracks.read_text().splitlines()[1:]
            if json.loads(line)["frame"] < k
        ]
        cut_lines = cut_tracks.read_text().splitlines()[1:]
        assert full_lines == cut_lines

    def test_batch_mode(self, tmp_path):
        for seed in (1, 2):
            assert run(
                ["simulate", "--preset", "open_road", "--seed", str(seed), "--noiseless", "--out", str(tmp_path / "in" / f"seq{seed}")]
            ) == 0
        code = run(["track", "--detections", str(tmp_path / "in"), "--out", str(tmp_path / "out")])
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "total" in manifest["timings_s"]
        assert_import_time(manifest)
        for seed in (1, 2):
            assert (tmp_path / "out" / f"seq{seed}" / "tracks.jsonl").exists()
            assert manifest["inputs"][f"seq{seed}/poses"] == str(tmp_path / "in" / f"seq{seed}" / "poses.json")

    def test_poses_where_they_are_not_read_exit_2(self, scenario, tmp_path, capsys):
        """A directory reads each sequence's own poses.json, so --poses with it is a usage error; a file needs it."""
        shutil.copytree(scenario, tmp_path / "in" / "seq1")
        directory = ["track", "--detections", str(tmp_path / "in"), "--out", str(tmp_path / "out")]
        assert run(directory + ["--poses", "/nonexistent/poses.json"]) == 2
        assert "--poses" in capsys.readouterr().err and not (tmp_path / "out").exists()
        assert run(["track", "--detections", str(scenario / "detections.jsonl"), "--out", str(tmp_path / "t.jsonl")]) == 2
        assert "--poses" in capsys.readouterr().err and not (tmp_path / "t.jsonl").exists()

    def test_batch_mode_bad_detection_exit_1_with_line(self, scenario, tmp_path):
        """A worker's parse error reaches the user as path:line, not a traceback."""
        for seq in ("seq1", "seq2"):
            shutil.copytree(scenario, tmp_path / "in" / seq)
        bad = tmp_path / "in" / "seq2" / "detections.jsonl"
        lines = bad.read_text().splitlines()
        record = json.loads(lines[5])
        record["depth_m"] = float("nan")
        lines[5] = json.dumps(record)
        bad.write_text("\n".join(lines) + "\n")
        src = str(Path(mono3dt.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "mono3dt.cli", "track", "--detections", str(tmp_path / "in"), "--out", str(tmp_path / "out")],
            cwd=src,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert f"seq2{os.sep}detections.jsonl:6: " in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "text, code",
        [("{}", 2), ('{"format_version": 1, "arrays": {}}', 1), ("nope", 1)],
        ids=["no-version", "no-arrays", "not-json"],
    )
    def test_bad_weights_error_line(self, scenario, tmp_path, text, code):
        """A weights file that does not hold weights reaches the user as an error line naming it."""
        weights = tmp_path / "w.json"
        weights.write_text(text)
        src = str(Path(mono3dt.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "mono3dt.cli", "track", "--detections", str(scenario / "detections.jsonl"), "--poses", str(scenario / "poses.json"), "--motion", "lstm", "--weights", str(weights), "--out", str(tmp_path / "t.jsonl")],
            cwd=src,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code
        assert f"{weights}:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda doc: doc.pop("intrinsics"), "intrinsics: expected an object"),
            (lambda doc: doc.pop("frames"), "frames: expected a list"),
            (lambda doc: doc["intrinsics"].update(focal_x="x"), "intrinsics.focal_x: expected a number"),
            (lambda doc: doc["intrinsics"].update(focal_x=[]), "intrinsics.focal_x: expected a number"),
            (lambda doc: doc["intrinsics"].update(focal_x=10**400), "intrinsics.focal_x: number out of float range"),
            (lambda doc: doc["frames"][3].update(rotation=[1.0, 0.0, 0.0]), "frames[3].rotation: expected 9 numbers"),
            (lambda doc: doc["frames"][3].update(translation_m=None), "frames[3].translation_m: expected 3 numbers"),
            (lambda doc: doc["frames"][3].update(frame="3"), "frames[3].frame: expected an integer"),
            (lambda doc: doc.clear(), "expected a JSON object"),
        ],
        ids=["no-intrinsics", "no-frames", "focal-str", "focal-list", "focal-overflow", "short-rotation",
             "null-translation", "string-frame", "list-document"],
    )
    @pytest.mark.parametrize("command", ["track", "evaluate"])
    def test_malformed_poses_exit_1_names_the_key(self, scenario, tmp_path, capsys, edit, where, command):
        """A poses.json of the wrong shape is an error line naming the file and the key path, not a traceback."""
        doc = json.loads((scenario / "poses.json").read_text())
        edit(doc)
        poses = tmp_path / "poses.json"
        poses.write_text(json.dumps(doc if doc else []))
        if command == "track":
            argv = ["track", "--detections", str(scenario / "detections.jsonl"), "--out", str(tmp_path / "t.jsonl")]
        else:
            gt = str(scenario / "gt_tracks.jsonl")
            argv = ["evaluate", "--gt", gt, "--pred", gt, "--ranges", "30", "--out", str(tmp_path / "r.json")]
        assert run(argv + ["--poses", str(poses)]) == 1
        assert f"{poses}:1: {where}" in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists() and not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("field", ["focal_y", "image_width"])
    def test_subnormal_intrinsic_exit_1_names_the_file(self, scenario, tmp_path, capsys, field):
        """A focal length or image size below the smallest normal float is refused as it loads."""
        poses = tmp_path / "poses.json"
        doc = json.loads((scenario / "poses.json").read_text())
        doc["intrinsics"][field] = 1e-320
        if field == "image_width":
            doc["intrinsics"]["principal_x"] = 0.0
        poses.write_text(json.dumps(doc))
        code = run(
            ["track", "--detections", str(scenario / "detections.jsonl"), "--poses", str(poses), "--out", str(tmp_path / "t.jsonl")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{poses}:1: " in err and field in err
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize(
        "config", [{"w_deep": "x"}, {"max_lost_age": None}, {"use_depth_ordering": "yes"}, {"w_deep": 10**400}]
    )
    def test_wrong_config_value_type_exit_2(self, scenario, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = run(
            ["track", "--detections", str(scenario / "detections.jsonl"), "--poses", str(scenario / "poses.json"), "--config", str(path), "--out", str(tmp_path / "t.jsonl")]
        )
        assert code == 2
        assert next(iter(config)) in capsys.readouterr().err

    def test_large_integer_in_float_field_tracks_as_the_float(self, scenario, tmp_path):
        """An integer beyond int64 in a float field is read as that float, not left for NumPy to choke on."""
        written = []
        for name, value in (("int", 10**308), ("float", 1e308)):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"range_max": value}))
            out = tmp_path / f"{name}.jsonl"
            assert run(
                ["track", "--detections", str(scenario / "detections.jsonl"), "--poses", str(scenario / "poses.json"), "--config", str(config), "--out", str(out)]
            ) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestEvaluate:
    def test_gt_against_itself(self, scenario, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            [
                "evaluate",
                "--gt", str(scenario / "gt_tracks.jsonl"),
                "--pred", str(scenario / "gt_tracks.jsonl"),
                "--mode", "3d",
                "--ranges", "30,50,100",
                "--poses", str(scenario / "poses.json"),
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        for name, report in doc["reports"].items():
            assert report["MOTA"] == 1.0
            assert report["MM"] == 0
        assert set(doc["reports"]) == {"all", "30m", "50m", "100m"}

    def test_range_reports_equal_filtered_record_lists(self, tmp_path):
        """Each --ranges report is evaluate_tracks of the record lists cut at that camera depth, row by row."""
        from mono3dt.association import run_sequence
        from mono3dt.data import TrackerConfig, TrackTable
        from mono3dt.io import load_sequence, write_tracks
        from mono3dt.simulator import ScenarioConfig, ground_truth_records, generate_world, render_detections

        config = ScenarioConfig.make_preset("open_road", seed=4, n_vehicles=30)
        world = generate_world(config)
        detections, visibility = render_detections(world)
        gt = ground_truth_records(world, visibility)
        write_tracks(gt, tmp_path / "gt.jsonl")
        write_detections(detections, tmp_path / "d.jsonl")
        write_poses(world.intrinsics, world.poses, tmp_path / "p.json")
        pred = run_sequence(load_sequence(tmp_path / "d.jsonl", tmp_path / "p.json"), TrackerConfig().validate())
        write_tracks(pred, tmp_path / "pred.jsonl")
        cutoffs = (20.0, 35.0, 60.0)
        for mode in ("2d", "3d"):
            out = tmp_path / f"{mode}.json"
            assert run(
                [
                    "evaluate", "--gt", str(tmp_path / "gt.jsonl"), "--pred", str(tmp_path / "pred.jsonl"), "--mode", mode,
                    "--ranges", ",".join(map(str, cutoffs)), "--poses", str(tmp_path / "p.json"), "--out", str(out),
                ]
            ) == 0
            reports = json.loads(out.read_text())["reports"]
            shown = set()
            for cutoff in cutoffs:
                cut = [
                    [r for r in records if world.poses[r.frame].world_to_camera(r.center)[2] <= cutoff]
                    for records in (gt, pred)
                ]
                expected = evaluate_tracks(*map(TrackTable.from_records, cut), mode).as_dict()
                assert reports[f"{cutoff:g}m"] == expected
                shown.add(expected["GT"])
            assert len(shown) == len(cutoffs) and reports["all"] == evaluate_tracks(*map(TrackTable.from_records, (gt, pred)), mode).as_dict()

    def test_empty_predictions_mota_nonpositive(self, scenario, tmp_path):
        from mono3dt.io import write_tracks
        empty = tmp_path / "empty.jsonl"
        write_tracks([], empty)
        out = tmp_path / "r.json"
        code = run(
            ["evaluate", "--gt", str(scenario / "gt_tracks.jsonl"), "--pred", str(empty), "--out", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())["reports"]["all"]
        assert rep["MOTA"] <= 0.0
        assert rep["FP"] == 0

    def test_non_finite_track_exit_1_with_line(self, scenario, tmp_path, capsys):
        lines = (scenario / "gt_tracks.jsonl").read_text().splitlines()
        record = json.loads(lines[3])
        record["P_m"][0] = float("nan")
        lines[3] = json.dumps(record)
        bad = tmp_path / "gt.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = run(["evaluate", "--gt", str(bad), "--pred", str(scenario / "gt_tracks.jsonl")])
        assert code == 1
        assert f"{bad}:4: " in capsys.readouterr().err

    def test_repeated_frame_and_id_exit_1_with_line(self, scenario, tmp_path, capsys):
        lines = (scenario / "gt_tracks.jsonl").read_text().splitlines()
        record = json.loads(lines[3])
        record["P_m"][0] += 0.4  # a second row for the same (frame, id)
        lines.insert(4, json.dumps(record))
        bad = tmp_path / "pred.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = run(["evaluate", "--gt", str(scenario / "gt_tracks.jsonl"), "--pred", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad}:5: " in err and "Traceback" not in err

    def test_row_without_pose_exit_1(self, scenario, tmp_path, capsys):
        lines = (scenario / "gt_tracks.jsonl").read_text().splitlines()
        record = json.loads(lines[3])
        record["frame"] = 999
        lines[3] = json.dumps(record)
        bad = tmp_path / "gt.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = run(
            ["evaluate", "--gt", str(bad), "--pred", str(scenario / "gt_tracks.jsonl"), "--ranges", "30", "--poses", str(scenario / "poses.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "frame 999" in err

    def test_ranges_without_poses_exit_2(self, scenario):
        code = run(
            ["evaluate", "--gt", str(scenario / "gt_tracks.jsonl"), "--pred", str(scenario / "gt_tracks.jsonl"), "--ranges", "30"]
        )
        assert code == 2

    @pytest.mark.parametrize("ranges", ["nan,-5,inf", "nan", "-5", "0", "30,inf"])
    def test_non_finite_or_non_positive_range_exit_2(self, scenario, tmp_path, ranges):
        """A cutoff that is not a finite positive distance exits 2 with an error line and writes no report."""
        out = tmp_path / "report.json"
        src = str(Path(mono3dt.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [
                sys.executable, "-m", "mono3dt.cli", "evaluate",
                "--gt", str(scenario / "gt_tracks.jsonl"),
                "--pred", str(scenario / "gt_tracks.jsonl"),
                "--ranges", ranges,
                "--poses", str(scenario / "poses.json"),
                "--out", str(out),
            ],
            cwd=src,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "--ranges" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists() and not (tmp_path / "manifest.json").exists()


# one-value edits of an input file: delete the value, or write one of these in its place
DELETE, WRONG_LENGTH = "<delete>", "<wrong length>"
EDITS = (DELETE, None, "x", [], True, 1e308, 10**400, 1e-320, WRONG_LENGTH)


def json_paths(value, path=()):
    """The key path of value and of everything inside it, value's own (empty) path first."""
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


def edited_text(doc, path, edit, lines: bool) -> str:
    """The file text of doc with one edit at path; a JSON Lines doc is the list of its lines' values.

    doc is edited in place, which spares copying a weights file per example, and restored.
    """
    def replaced(value):
        if edit is WRONG_LENGTH:
            return value[:-1] if isinstance(value, list) and value else [0.0, 0.0]
        return edit

    def dump(value):
        return "".join(json.dumps(line) + "\n" for line in value) if lines else json.dumps(value)

    if not path:
        return "" if edit is DELETE else dump(replaced(doc))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    key = path[-1]
    old = parent[key]
    if edit is DELETE:
        del parent[key]
    else:
        parent[key] = replaced(old)
    try:
        return dump(doc)
    finally:
        if edit is DELETE and isinstance(parent, list):
            parent.insert(key, old)
        else:
            parent[key] = old


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A 12-frame crossing scene with a config and a weights file: each input kind's path and parsed value."""
    base = tmp_path_factory.mktemp("fuzz")
    assert run(["simulate", "--preset", "crossing_occlusion", "--seed", "3", "--frames", "12", "--out", str(base)]) == 0
    (base / "config.json").write_text(json.dumps(mono3dt.data.TrackerConfig().to_dict()))
    save_weights(LstmWeights.initialize(np.random.default_rng(0), scale=0.1), base / "weights.json")
    files = {
        "detections": base / "detections.jsonl",
        "poses": base / "poses.json",
        "tracks": base / "gt_tracks.jsonl",
        "config": base / "config.json",
        "weights": base / "weights.json",
    }
    docs = {}
    for kind, path in files.items():
        text = path.read_text()
        doc = [json.loads(line) for line in text.splitlines()] if path.suffix == ".jsonl" else json.loads(text)
        # a JSON Lines file is its lines, each a JSON value; the list that holds them is not one
        docs[kind] = (doc, [p for p in json_paths(doc) if p or path.suffix != ".jsonl"])
    return base, files, docs


class TestInputFuzz:
    @pytest.mark.parametrize("kind", ["detections", "poses", "tracks", "config", "weights"])
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_one_edited_value_never_raises(self, fuzz_inputs, kind, data):
        """Any one-value edit of an input file exits 0, 1 or 2 without a traceback, and what it writes loads."""
        base, files, docs = fuzz_inputs
        doc, paths = docs[kind]
        path, edit = data.draw(st.sampled_from(paths)), data.draw(st.sampled_from(EDITS))
        with tempfile.TemporaryDirectory(dir=base) as work:
            work = Path(work)
            inputs = dict(files)
            inputs[kind] = work / files[kind].name
            inputs[kind].write_text(edited_text(doc, path, edit, files[kind].suffix == ".jsonl"))
            out = work / "tracks.jsonl"
            if kind == "tracks":
                argv = ["evaluate", "--gt", str(inputs["tracks"]), "--pred", str(files["tracks"]), "--ranges", "30"]
                argv += ["--poses", str(inputs["poses"]), "--out", str(work / "report.json")]
            else:
                argv = ["track", "--detections", str(inputs["detections"]), "--poses", str(inputs["poses"])]
                argv += ["--config", str(inputs["config"]), "--out", str(out)]
                if kind == "weights":
                    argv += ["--motion", "lstm", "--weights", str(inputs["weights"])]
            assert run(argv) in (0, 1, 2)
            if out.exists():
                load_tracks(out)

    @pytest.mark.parametrize(
        "kind, fault, line_no",
        [
            ("detections", "utf8", 6),
            ("poses", "utf8", 5),
            ("tracks", "utf8", 6),
            ("config", "utf8", 3),
            ("weights", "utf8", 1),
            ("detections", "digits", 6),
            ("config", "digits", 1),
            ("detections", "nesting", 6),
            # whole documents, written indented: the fault replaces the number on line_no
            ("poses", "digits", 4),
            ("config", "digits", 6),
            ("poses", "nesting", 4),
            ("config", "nesting", 6),
        ],
    )
    def test_undecodable_input_exit_1_with_line(self, fuzz_inputs, tmp_path, capsys, kind, fault, line_no):
        """A byte that is not UTF-8, a 5,000-digit integer or 100,000 nested lists exits 1 naming path:line."""
        base, files, _ = fuzz_inputs
        text = files[kind].read_bytes()
        if kind == "config":
            text = json.dumps(json.loads(text), indent=1).encode()
        lines = text.split(b"\n")
        bad = b"9" * 5000 if fault == "digits" else b"[" * 100_000
        if fault == "utf8":
            lines[line_no - 1] = b"\xff" + lines[line_no - 1]
        elif kind == "config" and line_no == 1:
            lines = [b'{"max_lost_age": ' + bad + b"}"]
        elif kind in ("poses", "config"):
            lines[line_no - 1] = re.sub(rb"[\d.]+", bad, lines[line_no - 1], count=1)
        else:
            lines[line_no - 1] = bad
        inputs = dict(files, **{kind: tmp_path / files[kind].name})
        inputs[kind].write_bytes(b"\n".join(lines))
        if kind == "tracks":
            argv = ["evaluate", "--gt", str(inputs["tracks"]), "--pred", str(files["tracks"])]
        else:
            argv = ["track", "--detections", str(inputs["detections"]), "--poses", str(inputs["poses"])]
            argv += ["--config", str(inputs["config"]), "--motion", "lstm", "--weights", str(inputs["weights"])]
        assert run(argv + ["--out", str(tmp_path / "out.jsonl")]) == 1
        assert f"{inputs[kind]}:{line_no}: " in capsys.readouterr().err


class TestTrainMotion:
    def test_zero_epochs_usage_error(self, tmp_path):
        assert run(["train-motion", "--epochs", "0", "--out", str(tmp_path / "w.json")]) == 2

    @pytest.mark.parametrize(
        "args",
        [["--window", "1"], ["--window", "0"], ["--batch-size", "0"], ["--batch-size", "-2"], ["--trajectory-frames", "5"]],
        ids=["window-1", "window-0", "batch-0", "batch-negative", "trajectory-shorter-than-window"],
    )
    def test_untrainable_arguments_usage_error(self, tmp_path, args):
        """Arguments that cannot train exit 2 with an error line and write no weights."""
        weights = tmp_path / "w.json"
        src = str(Path(mono3dt.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "mono3dt.cli", "train-motion", "--scenarios", "2", "--epochs", "1", *args, "--out", str(weights)],
            cwd=src,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert args[0] in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not weights.exists()

    def test_deterministic_weights(self, tmp_path):
        base = [
            "train-motion", "--scenarios", "3", "--seed", "9", "--epochs", "15",
            "--batch-size", "2", "--trajectory-frames", "15",
        ]
        assert run(base + ["--out", str(tmp_path / "w1.json")]) == 0
        assert run(base + ["--out", str(tmp_path / "w2.json")]) == 0
        assert sha256(tmp_path / "w1.json") == sha256(tmp_path / "w2.json")
        assert (tmp_path / "w1.loss.csv").exists()

    def test_track_with_trained_weights(self, scenario, tmp_path):
        weights = tmp_path / "w.json"
        assert run(
            ["train-motion", "--scenarios", "3", "--seed", "1", "--epochs", "10", "--batch-size", "2", "--trajectory-frames", "15", "--out", str(weights)]
        ) == 0
        code = run(
            [
                "track",
                "--detections", str(scenario / "detections.jsonl"),
                "--poses", str(scenario / "poses.json"),
                "--motion", "lstm",
                "--weights", str(weights),
                "--out", str(tmp_path / "t.jsonl"),
            ]
        )
        assert code == 0


class TestDemo:
    def test_demo_runs(self, tmp_path, capsys):
        assert run(["demo", "--seed", "1", "--out", str(tmp_path / "demo")]) == 0
        captured = capsys.readouterr()
        assert "MOTA" in captured.out
        assert (tmp_path / "demo" / "report.json").exists()
