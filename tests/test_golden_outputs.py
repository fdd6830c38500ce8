"""Byte-identity of the program's outputs on a fixed set of seeded runs.

A change that should not alter behaviour (a refactor, a speed-up) must
leave these digests alone; a change that does alter behaviour updates
them and says why. Each digest is the first 16 hex characters of the
SHA-256 of the written file. Float results can move in their last bits
with the NumPy build, so the digests are only compared under the NumPy
version they were taken with.

The pinned weights come from train_lstm, so a change to the order in
which training sums its products (batching the windows of a step, or
one matrix product per layer in the forward pass) moves the weights in
their last bits. Such a change re-pins the weights digest and the lstm
entries of TRACKS_DIGESTS and ABLATION_DIGESTS that follow from them,
and should show that the re-pinned tracks keep their (frame, id) rows
and CLEAR counts. LSTM_TRACKING_DIGESTS track with fixed, untrained
weights, so they pin the tracking path apart from training and must not
move with it.

SCENARIO_DIGESTS pin the simulator's own detections and ground truth
for the same scenes, so a change to the render shows apart from the
tracker.

BENCH_SCENE_DIGESTS pin the benchmark's own seed-0 scene-0 inputs,
which hold far more tracklets a nearer one claims than the simulator
presets. The benchmark's generator (bench/scenegen.py) is loaded from
its file and only read; it imports nothing from mono3dt.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from mono3dt.association import run_sequence
from mono3dt.data import TrackerConfig
from mono3dt.io import load_sequence, load_tracks, write_tracks
from mono3dt.lstm import LstmWeights, MotionTrainConfig, sample_trajectories, save_weights, train_lstm
from mono3dt.metrics import evaluate_tracks
from mono3dt.simulator import ScenarioConfig, write_scenario

DIGEST_NUMPY = "2.4.6"

WEIGHTS_DIGEST = "192c1e569e80faea"

BACKENDS = ("none", "kf2d", "kf3d", "lstm")

# (preset, seed, overrides) -> tracks.jsonl digest per backend, default
# TrackerConfig; the lstm backend tracks with the weights pinned above
TRACKS_DIGESTS = {
    ("dense", 3, ()): ("a67e44ac40046a4f", "37a4ef6487081bb4", "0637befd0cee3bed", "0086c0e60968efa7"),
    ("open_road", 0, (("n_vehicles", 12),)): (
        "62d4307d0372850e",
        "63b7966a5bb48161",
        "3fbeb5d76f799f28",
        "4bdca7b7de01c09e",
    ),
    ("crossing_occlusion", 3, ()): ("4fabaebf159dae08", "0bd8fb6054f83217", "96d9ace7710bbdc8", "2196f94976e10cbf"),
    ("reappearance", 5, ()): ("c8adb18394a68649", "49fa155fbafc1d62", "a35c1c6cdd98b8c8", "e95660ff274d3d9a"),
}

# the same scenes tracked with the ablation switches off:
# TrackerConfig(motion_backend=b, use_depth_ordering=False, use_occlusion_state=False)
ABLATION_DIGESTS = {
    ("dense", 3, ()): ("e2a7254eb3a8e9bf", "3933e54e4ae3185c", "534e98163b0ab7e5", "730196810f92c1e3"),
    ("open_road", 0, (("n_vehicles", 12),)): (
        "06e659239511caca",
        "26ffd2db69144899",
        "745fcfe5ad424aae",
        "096197f7167768f6",
    ),
    ("crossing_occlusion", 3, ()): ("74074fb1aac0dcea", "74074fb1aac0dcea", "0dfbf5fbb07c1cf4", "a32bd789a69e8348"),
    ("reappearance", 5, ()): ("c8adb18394a68649", "f512d7464272a5a4", "a36ee52a8f944eac", "7556bb152cc8fbaa"),
}

# the same scenes tracked by the lstm backend alone, default TrackerConfig,
# with LstmWeights.initialize(np.random.default_rng(0), scale=0.5)
LSTM_TRACKING_DIGESTS = {
    ("dense", 3, ()): "ecdded0bfbb109e5",
    ("open_road", 0, (("n_vehicles", 12),)): "39e02fd598836371",
    ("crossing_occlusion", 3, ()): "d44332e08dead7a3",
    ("reappearance", 5, ()): "eec92be8d1e8b1c4",
}

# the simulator's own files for the scenes above: (detections.jsonl,
# gt_tracks.jsonl) digests
SCENARIO_DIGESTS = {
    ("dense", 3, ()): ("a98db0d58b9982f7", "5a9a35c342e76b46"),
    ("open_road", 0, (("n_vehicles", 12),)): ("7bc79580b9eae596", "25bab6c8481f18a6"),
    ("crossing_occlusion", 3, ()): ("6824ddbf052b77e1", "203f71780363425b"),
    ("reappearance", 5, ()): ("41397bb3803eac09", "315f7fcf6639a52e"),
}

# workload -> tracks.jsonl digest of bench/scenegen.py's seed-0 scene 0,
# tracked with the default kf3d TrackerConfig
BENCH_SCENE_DIGESTS = {"crowd": "50cd9cafce553647", "jam": "c0f4bdfaa35a26db"}

# (scene, mode) -> evaluate_tracks report of that scene's kf3d tracks against
# its ground truth, both read back with load_tracks: the bench scenes above
# and the open_road scene of TRACKS_DIGESTS. Integer fields are pinned
# exactly, the others to 1e-12 (MOTP sums the pairs' 3D IoUs).
EVALUATE_REPORTS = {
    ("crowd", "3d"): {"MOTA": 0.8888888888888888, "MOTP": 0.7756047786586239, "MM": 4, "FP": 13, "FN": 87, "FRAG": 67,
                      "MT": 0.90625, "ML": 0.0, "GT": 936, "matches": 849},
    ("jam", "3d"): {"MOTA": 0.9703075291622482, "MOTP": 0.8234867617001201, "MM": 1, "FP": 0, "FN": 27, "FRAG": 26,
                    "MT": 1.0, "ML": 0.0, "GT": 943, "matches": 916},
    ("open_road", "3d"): {"MOTA": 1.0, "MOTP": 0.8372007533179594, "MM": 0, "FP": 0, "FN": 0, "FRAG": 0,
                          "MT": 1.0, "ML": 0.0, "GT": 766, "matches": 766},
    ("open_road", "2d"): {"MOTA": 1.0, "MOTP": 0.9637543304743855, "MM": 0, "FP": 0, "FN": 0, "FRAG": 0,
                          "MT": 1.0, "ML": 0.0, "GT": 766, "matches": 766},
}

pytestmark = pytest.mark.skipif(
    np.__version__ != DIGEST_NUMPY,
    reason=f"digests were taken under NumPy {DIGEST_NUMPY}, this is NumPy {np.__version__}",
)


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.fixture(scope="module")
def weights_and_path(tmp_path_factory):
    dataset = sample_trajectories(np.random.default_rng(0), 20, length=30)
    weights, _ = train_lstm(dataset, MotionTrainConfig(steps=30, batch_size=4, window=10))
    path = tmp_path_factory.mktemp("weights") / "weights.json"
    save_weights(weights, path)
    return weights, path


def test_weights_digest(weights_and_path):
    assert digest(weights_and_path[1]) == WEIGHTS_DIGEST


def track_digests(scene, weights, tmp_path, backends=BACKENDS, **switches) -> dict:
    preset, seed, overrides = scene
    paths = write_scenario(ScenarioConfig.make_preset(preset, seed=seed, **dict(overrides)), tmp_path)
    sequence = load_sequence(paths["detections"], paths["poses"])
    got = {}
    for backend in backends:
        records = run_sequence(
            sequence,
            TrackerConfig(motion_backend=backend, **switches).validate(),
            weights if backend == "lstm" else None,
        )
        out = tmp_path / f"tracks-{backend}.jsonl"
        write_tracks(records, out)
        got[backend] = digest(out)
    return got


@pytest.mark.parametrize("scene", list(TRACKS_DIGESTS), ids=lambda s: f"{s[0]}-s{s[1]}")
def test_tracks_digests(scene, weights_and_path, tmp_path):
    got = track_digests(scene, weights_and_path[0], tmp_path)
    assert got == dict(zip(BACKENDS, TRACKS_DIGESTS[scene]))


@pytest.mark.parametrize("scene", list(ABLATION_DIGESTS), ids=lambda s: f"{s[0]}-s{s[1]}")
def test_ablation_tracks_digests(scene, weights_and_path, tmp_path):
    got = track_digests(
        scene, weights_and_path[0], tmp_path, use_depth_ordering=False, use_occlusion_state=False
    )
    assert got == dict(zip(BACKENDS, ABLATION_DIGESTS[scene]))


@pytest.mark.parametrize("scene", list(LSTM_TRACKING_DIGESTS), ids=lambda s: f"{s[0]}-s{s[1]}")
def test_lstm_tracking_digests(scene, tmp_path):
    weights = LstmWeights.initialize(np.random.default_rng(0), scale=0.5)
    got = track_digests(scene, weights, tmp_path, backends=("lstm",))
    assert got == {"lstm": LSTM_TRACKING_DIGESTS[scene]}


@pytest.mark.parametrize("scene", list(SCENARIO_DIGESTS), ids=lambda s: f"{s[0]}-s{s[1]}")
def test_scenario_digests(scene, tmp_path):
    preset, seed, overrides = scene
    paths = write_scenario(ScenarioConfig.make_preset(preset, seed=seed, **dict(overrides)), tmp_path)
    assert (digest(paths["detections"]), digest(paths["gt_tracks"])) == SCENARIO_DIGESTS[scene]


def load_scenegen():
    path = Path(__file__).resolve().parents[1] / "bench" / "scenegen.py"
    spec = importlib.util.spec_from_file_location("bench_scenegen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", list(BENCH_SCENE_DIGESTS))
def test_bench_scene_digests(workload, tmp_path):
    scenegen = load_scenegen()
    paths = scenegen.write_inputs(scenegen.make_scene(workload, 0, 0), tmp_path)
    records = run_sequence(
        load_sequence(paths["detections"], paths["poses"]), TrackerConfig(motion_backend="kf3d").validate()
    )
    write_tracks(records, tmp_path / "tracks.jsonl")
    assert digest(tmp_path / "tracks.jsonl") == BENCH_SCENE_DIGESTS[workload]


@pytest.mark.parametrize("scene, mode", list(EVALUATE_REPORTS), ids=lambda v: v)
def test_evaluate_reports(scene, mode, tmp_path):
    if scene == "open_road":
        paths = write_scenario(ScenarioConfig.make_preset("open_road", seed=0, n_vehicles=12), tmp_path)
        gt_path = paths["gt_tracks"]
    else:
        scenegen = load_scenegen()
        paths = scenegen.write_inputs(scenegen.make_scene(scene, 0, 0), tmp_path)
        gt_path = paths["gt"]
    records = run_sequence(
        load_sequence(paths["detections"], paths["poses"]), TrackerConfig(motion_backend="kf3d").validate()
    )
    write_tracks(records, tmp_path / "tracks.jsonl")
    got = evaluate_tracks(load_tracks(gt_path), load_tracks(tmp_path / "tracks.jsonl"), mode).as_dict()
    pinned = EVALUATE_REPORTS[(scene, mode)]
    assert {k: v for k, v in got.items() if isinstance(v, int)} == {k: v for k, v in pinned.items() if isinstance(v, int)}
    assert {k: v for k, v in got.items() if isinstance(v, float)} == pytest.approx(
        {k: v for k, v in pinned.items() if isinstance(v, float)}, rel=0, abs=1e-12
    )
