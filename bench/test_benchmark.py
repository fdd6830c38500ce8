"""Fast tests of the benchmark's own generator and output checker.

Run with `python -m pytest bench/test_benchmark.py -q` from the repository root.
"""

import json
import math

import numpy as np
import pytest

import outcheck
import scenegen


def footprint_corners(positions, dims, yaws):
    """(F, V, 4, 2) ground corners of oriented footprints."""
    half_l = dims[:, 0] / 2.0
    half_w = dims[:, 1] / 2.0
    signs = np.array([[1, 1], [1, -1], [-1, -1], [-1, 1]], dtype=float)
    local = signs[None, None] * np.stack([half_l, half_w], axis=-1)[None, :, None, :]
    c = np.cos(yaws)[..., None]
    s = np.sin(yaws)[..., None]
    x = c * local[..., 0] - s * local[..., 1] + positions[..., 0:1]
    y = s * local[..., 0] + c * local[..., 1] + positions[..., 1:2]
    return np.stack([x, y], axis=-1)


def sat_overlaps(positions, dims, yaws):
    """Separating-axis test of every vehicle pair in every frame; (F, P) bool and the pairs."""
    corners = footprint_corners(positions, np.asarray(dims, dtype=float), yaws)
    n = positions.shape[1]
    i, j = np.triu_indices(n, k=1)
    axes_of = lambda yaw: np.stack(  # noqa: E731  (F, P, 2 axes, 2)
        [np.stack([np.cos(yaw), np.sin(yaw)], -1), np.stack([-np.sin(yaw), np.cos(yaw)], -1)], axis=-2
    )
    axes = np.concatenate([axes_of(yaws[:, i]), axes_of(yaws[:, j])], axis=-2)  # (F, P, 4, 2)
    proj_i = np.einsum("fpcd,fpad->fpac", corners[:, i], axes)
    proj_j = np.einsum("fpcd,fpad->fpac", corners[:, j], axes)
    separated = (proj_i.max(-1) < proj_j.min(-1)) | (proj_j.max(-1) < proj_i.min(-1))
    return ~separated.any(axis=-1), (i, j)


def test_sat_finds_overlap_and_rotated_clearance():
    dims = np.array([[4.0, 2.0, 1.5], [4.0, 2.0, 1.5]])
    # side by side at 45 degrees, 2.2 m apart across their 2 m width: the
    # axis-aligned bounds overlap, the footprints do not
    offset = 2.2 / math.sqrt(2.0)
    clear = np.array([[[0.0, 0.0, 0.75], [-offset, offset, 0.75]]])
    hit, _ = sat_overlaps(clear, dims, np.full((1, 2), math.pi / 4))
    assert not hit.any()
    touching = np.array([[[0.0, 0.0, 0.75], [3.9, 0.5, 0.75]]])
    hit, _ = sat_overlaps(touching, dims, np.array([[0.0, 0.3]]))
    assert hit.all()


@pytest.mark.parametrize("workload", scenegen.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_never_builds_overlapping_footprints(workload, seed):
    scene = scenegen.make_scene(workload, seed)
    hit, (i, j) = sat_overlaps(scene.positions, scene.dims, scene.yaws)
    frames, pairs = np.nonzero(hit)
    assert frames.size == 0, f"overlap at frame {frames[0]} between {i[pairs[0]]} and {j[pairs[0]]}"


def brute_force_projection(center, dims, yaw, ego_x):
    """Image hull, center pixel and depth of one box from its 8 corners, one at a time."""
    us, vs, zs = [], [], []
    for sx in (-1, 1):
        for sy in (-1, 1):
            for sz in (-1, 1):
                lx, ly, lz = sx * dims[0] / 2, sy * dims[1] / 2, sz * dims[2] / 2
                wx = center[0] + math.cos(yaw) * lx - math.sin(yaw) * ly
                wy = center[1] + math.sin(yaw) * lx + math.cos(yaw) * ly
                wz = center[2] + lz
                # camera at (ego_x, 0, height) looking along +x: x right = -y, y down = -z
                cx, cy, cz = -wy, scenegen.CAMERA_HEIGHT - wz, wx - ego_x
                zs.append(cz)
                us.append(scenegen.FOCAL * cx / cz + scenegen.IMAGE_W / 2)
                vs.append(scenegen.FOCAL * cy / cz + scenegen.IMAGE_H / 2)
    clip = lambda value, hi: min(max(value, 0.0), hi)  # noqa: E731
    box = [
        clip(min(us), scenegen.IMAGE_W),
        clip(min(vs), scenegen.IMAGE_H),
        clip(max(us), scenegen.IMAGE_W),
        clip(max(vs), scenegen.IMAGE_H),
    ]
    depth = center[0] - ego_x
    pixel = [
        scenegen.FOCAL * -center[1] / depth + scenegen.IMAGE_W / 2,
        scenegen.FOCAL * (scenegen.CAMERA_HEIGHT - center[2]) / depth + scenegen.IMAGE_H / 2,
    ]
    return box, pixel, depth, min(zs) > scenegen.MIN_CORNER_Z


@pytest.mark.parametrize("workload", scenegen.WORKLOADS)
def test_projection_matches_brute_force_corners(workload):
    scene = scenegen.make_scene(workload, 3)
    checked = 0
    for t in range(0, scene.n_frames, 7):
        rotation, translation = scenegen.ego_pose(scene.ego_x[t])
        boxes, pixels, depths, in_front = scenegen.project_boxes(
            scene.positions[t], scene.dims, scene.yaws[t], rotation, translation
        )
        for v in range(scene.n_vehicles):
            box, pixel, depth, front = brute_force_projection(
                scene.positions[t, v], scene.dims[v], scene.yaws[t, v], scene.ego_x[t]
            )
            assert front == in_front[v]
            assert depths[v] == pytest.approx(depth, rel=1e-12, abs=1e-9)
            if front:
                assert boxes[v] == pytest.approx(box, rel=1e-9, abs=1e-6)
                assert pixels[v] == pytest.approx(pixel, rel=1e-9, abs=1e-6)
                checked += 1
    assert checked > 50


GOOD_ROW = {
    "frame": 0,
    "id": 1,
    "P_m": [10.0, 1.0, 0.75],
    "yaw_rad": 0.5,
    "dim_m": [4.2, 1.8, 1.5],
    "vel_mpf": [0.5, 0.0, 0.0],
    "box2d": [900.0, 500.0, 1000.0, 580.0],
    "status": "tracked",
}
HEADER = '{"format_version": 1, "kind": "tracks"}\n'


def write(tmp_path, text):
    path = tmp_path / "tracks.jsonl"
    path.write_text(text, encoding="utf-8")
    return path


def test_checker_accepts_a_good_file(tmp_path):
    second = dict(GOOD_ROW, id=2)
    rows = outcheck.read_tracks_strict(write(tmp_path, HEADER + json.dumps(GOOD_ROW) + "\n" + json.dumps(second) + "\n"))
    assert [r["id"] for r in rows] == [1, 2]


@pytest.mark.parametrize(
    "body",
    [
        pytest.param(json.dumps(GOOD_ROW).replace("0.75", "NaN"), id="bare-nan"),
        pytest.param(json.dumps(GOOD_ROW).replace("0.75", "Infinity"), id="infinity"),
        pytest.param(json.dumps(GOOD_ROW).replace("0.75", "1e999"), id="overflow"),
        pytest.param(json.dumps(GOOD_ROW) + "\n" + json.dumps(GOOD_ROW), id="duplicate-id"),
        pytest.param(json.dumps(dict(GOOD_ROW, box2d=[1000.0, 500.0, 900.0, 580.0])), id="inverted-box"),
    ],
)
def test_checker_rejects_bad_records(tmp_path, body):
    with pytest.raises(outcheck.CheckError):
        outcheck.read_tracks_strict(write(tmp_path, HEADER + body + "\n"))


def test_checker_rejects_missing_header(tmp_path):
    with pytest.raises(outcheck.CheckError):
        outcheck.read_tracks_strict(write(tmp_path, json.dumps(GOOD_ROW) + "\n"))


def row(frame, track_id, x, status="tracked"):
    return dict(GOOD_ROW, frame=frame, id=track_id, P_m=[x, 0.0, 0.75], status=status)


def test_clear_recount_by_hand():
    gt = [row(0, 0, 10.0), row(1, 0, 11.0), row(2, 0, 12.0), row(3, 0, 13.0, "occluded"), row(3, 5, 30.0)]
    pred = [
        row(0, 7, 10.5),
        row(1, 8, 11.2),  # identity change: gt 0 was 7, now 8
        row(1, 9, 50.0),  # false positive
        row(2, 8, 15.0),  # outside the 2 m gate: a miss and a false positive
        row(3, 8, 13.0),  # matches the occluded, don't-care row
        row(3, 4, 60.0, "occluded"),  # unmatched coasting output is no false positive
    ]
    counts = outcheck.clear_counts(gt, pred)
    assert counts == {"FP": 2, "FN": 2, "MM": 1, "GT": 4, "matched": 2}
