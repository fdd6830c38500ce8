"""CLI contracts: exit codes, determinism, causality, manifests."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mono3dt
from mono3dt.cli import main
from mono3dt.io import load_tracks, write_detections, write_poses
from mono3dt.metrics import evaluate_tracks


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(argv):
    return main(argv)


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

    def test_repeat_runs_identical_hashes(self, tmp_path):
        args = ["simulate", "--preset", "dense", "--seed", "3", "--out"]
        assert run(args + [str(tmp_path / "a")]) == 0
        assert run(args + [str(tmp_path / "b")]) == 0
        for name in ("detections.jsonl", "poses.json", "gt_tracks.jsonl"):
            assert sha256(tmp_path / "a" / name) == sha256(tmp_path / "b" / name)

    def test_zero_frames_usage_error(self, tmp_path):
        code = run(["simulate", "--frames", "0", "--out", str(tmp_path / "x")])
        assert code == 2


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
        from mono3dt.data import TrackerConfig
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
                expected = evaluate_tracks(*cut, mode).as_dict()
                assert reports[f"{cutoff:g}m"] == expected
                shown.add(expected["GT"])
            assert len(shown) == len(cutoffs) and reports["all"] == evaluate_tracks(gt, pred, mode).as_dict()

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
