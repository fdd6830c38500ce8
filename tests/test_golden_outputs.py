"""Byte-identity of the program's outputs on a fixed set of seeded runs.

A change that should not alter behaviour (a refactor, a speed-up) must
leave these digests alone; a change that does alter behaviour updates
them and says why. Each digest is the first 16 hex characters of the
SHA-256 of the written file. Float results can move in their last bits
with the NumPy build, so the digests are only compared under the NumPy
version they were taken with.
"""

import hashlib

import numpy as np
import pytest

from mono3dt.association import run_sequence
from mono3dt.data import TrackerConfig
from mono3dt.io import load_sequence, write_tracks
from mono3dt.lstm import MotionTrainConfig, sample_trajectories, save_weights, train_lstm
from mono3dt.simulator import ScenarioConfig, write_scenario

DIGEST_NUMPY = "2.4.6"

WEIGHTS_DIGEST = "c2b1b774cb07f8e7"

BACKENDS = ("none", "kf2d", "kf3d", "lstm")

# (preset, seed, overrides) -> tracks.jsonl digest per backend, default
# TrackerConfig; the lstm backend tracks with the weights pinned above
TRACKS_DIGESTS = {
    ("dense", 3, ()): ("a67e44ac40046a4f", "37a4ef6487081bb4", "0637befd0cee3bed", "dfe5c5d7aab666e8"),
    ("open_road", 0, (("n_vehicles", 12),)): (
        "62d4307d0372850e",
        "63b7966a5bb48161",
        "3fbeb5d76f799f28",
        "121ae8246ab6590b",
    ),
    ("crossing_occlusion", 3, ()): ("4fabaebf159dae08", "0bd8fb6054f83217", "96d9ace7710bbdc8", "747d049f737f36b3"),
    ("reappearance", 5, ()): ("c8adb18394a68649", "49fa155fbafc1d62", "a35c1c6cdd98b8c8", "c2b576c0ed945eeb"),
}

# the same scenes tracked with the ablation switches off:
# TrackerConfig(motion_backend=b, use_depth_ordering=False, use_occlusion_state=False)
ABLATION_DIGESTS = {
    ("dense", 3, ()): ("e2a7254eb3a8e9bf", "3933e54e4ae3185c", "534e98163b0ab7e5", "45214d48ce3c6f24"),
    ("open_road", 0, (("n_vehicles", 12),)): (
        "06e659239511caca",
        "26ffd2db69144899",
        "745fcfe5ad424aae",
        "d1e32240cacbead6",
    ),
    ("crossing_occlusion", 3, ()): ("74074fb1aac0dcea", "74074fb1aac0dcea", "0dfbf5fbb07c1cf4", "72715318b2b90823"),
    ("reappearance", 5, ()): ("c8adb18394a68649", "f512d7464272a5a4", "a36ee52a8f944eac", "36d69be008892d5b"),
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


def track_digests(scene, weights, tmp_path, **switches) -> dict:
    preset, seed, overrides = scene
    paths = write_scenario(ScenarioConfig.make_preset(preset, seed=seed, **dict(overrides)), tmp_path)
    sequence = load_sequence(paths["detections"], paths["poses"])
    got = {}
    for backend in BACKENDS:
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
