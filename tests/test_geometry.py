"""Geometry tests: hand-computed cases plus seeded round-trip and raster oracles."""

import math

import numpy as np
import pytest

from mono3dt.geometry import (
    BoxBehindCamera,
    CameraIntrinsics,
    MIN_CAMERA_Z,
    CameraPose,
    GeometryError,
    NonPositiveDepth,
    PointBehindCamera,
    alpha_to_theta,
    _bev_intersections,
    backproject,
    box_corners,
    camera_heading,
    iou_2d,
    iou_2d_matrix,
    iou_3d,
    iou_3d_pairs,
    normalize_angle,
    project_box,
    project_boxes,
    project_point,
    theta_to_alpha,
)

from conftest import (
    box_row,
    default_intrinsics,
    monte_carlo_iou_3d,
    random_pose,
    raster_bev_intersection,
    raster_iou_2d,
    reference_bev_intersection_area,
    reference_iou_3d,
)


def bev_intersection_area(a, b) -> float:
    """Footprint intersection area of two (center, dims, yaw) boxes: one pair through the batched clip."""
    return float(_bev_intersections(box_corners(*a), box_corners(*b))[0])


def simple_intrinsics(f=100.0):
    # principal point at the corner keeps the trivial cases literal
    return CameraIntrinsics(f, f, 0.0, 0.0, 2000.0, 2000.0)


class TestProjection:
    def test_principal_ray_point(self):
        pix, depth = project_point([0, 0, 10], CameraPose.identity(), simple_intrinsics())
        assert np.allclose(pix, [0.0, 0.0])
        assert depth == pytest.approx(10.0)

    def test_offset_point(self):
        pix, depth = project_point([1, 0, 10], CameraPose.identity(), simple_intrinsics())
        assert np.allclose(pix, [10.0, 0.0])
        assert depth == pytest.approx(10.0)

    def test_point_behind_camera(self):
        with pytest.raises(PointBehindCamera):
            project_point([0, 0, -1.0], CameraPose.identity(), simple_intrinsics())

    def test_round_trip_seeded(self):
        rng = np.random.default_rng(7)
        intr = default_intrinsics()
        for _ in range(1000):
            pose = random_pose(rng)
            p_cam = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 80)])
            p_world = pose.camera_to_world(p_cam)
            pix, depth = project_point(p_world, pose, intr)
            back = backproject(pix, depth, pose, intr)
            assert np.max(np.abs(back - p_world)) < 1e-6


class TestBackprojection:
    def test_optical_axis(self):
        intr = simple_intrinsics()
        p = backproject([0, 0], 5.0, CameraPose.identity(), intr)
        assert np.allclose(p, [0, 0, 5])

    def test_inverse_of_projection_example(self):
        p = backproject([10, 0], 10.0, CameraPose.identity(), simple_intrinsics())
        assert np.allclose(p, [1, 0, 10])

    def test_nonpositive_depth(self):
        with pytest.raises(NonPositiveDepth):
            backproject([0, 0], 0.0, CameraPose.identity(), simple_intrinsics())


class TestOrientationConversion:
    def test_zero_at_image_center(self):
        intr = default_intrinsics()
        assert alpha_to_theta(0.0, intr.image_width / 2.0, intr) == pytest.approx(0.0)

    def test_quarter_turn_offset(self):
        intr = default_intrinsics()
        # x_hat equal to the focal length contributes arctan(1) = pi/4
        x_c = intr.image_width / 2.0 + intr.focal_x
        assert alpha_to_theta(math.pi / 2.0, x_c, intr) == pytest.approx(3 * math.pi / 4)
        assert theta_to_alpha(3 * math.pi / 4, x_c, intr) == pytest.approx(math.pi / 2)

    def test_round_trip_seeded(self):
        rng = np.random.default_rng(11)
        intr = default_intrinsics()
        for _ in range(1000):
            theta_l = rng.uniform(0, 2 * math.pi)
            x_c = rng.uniform(0, intr.image_width)
            theta = alpha_to_theta(theta_l, x_c, intr)
            assert 0.0 <= theta < 2 * math.pi
            back = theta_to_alpha(theta, x_c, intr)
            diff = abs(normalize_angle(back - theta_l))
            assert min(diff, 2 * math.pi - diff) < 1e-9


class TestBoxCorners:
    def test_unit_cube(self):
        corners = box_corners(*box_row([0, 0, 0], [1, 1, 1], 0.0))[0]
        expected = {(sx / 2, sy / 2, sz / 2) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
        got = {tuple(np.round(c, 12)) for c in corners}
        assert got == expected

    def test_quarter_turn_maps_corner(self):
        box = box_row([0, 0, 0], [2, 1, 1], math.pi / 2)
        corners = box_corners(*box)[0]
        # the (l/2, w/2, .) offset rotates onto (-w/2, l/2, .)
        assert any(np.allclose(c[:2], [-0.5, 1.0]) for c in corners)

    def test_edge_lengths_match_dimensions(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dims = rng.uniform(0.5, 6.0, size=3)
            box = box_row(rng.normal(size=3), dims, rng.uniform(0, 2 * math.pi))
            corners = box_corners(*box)[0]
            assert np.max(np.abs(corners.mean(axis=0) - box[0])) < 1e-9
            # 12 edges: bottom ring, top ring, verticals
            ring = [(0, 1), (1, 2), (2, 3), (3, 0)]
            edges = []
            for i, j in ring:
                edges.append(np.linalg.norm(corners[i] - corners[j]))
                edges.append(np.linalg.norm(corners[i + 4] - corners[j + 4]))
            for i in range(4):
                edges.append(np.linalg.norm(corners[i] - corners[i + 4]))
            expected = sorted([dims[0]] * 4 + [dims[1]] * 4 + [dims[2]] * 4)
            assert np.allclose(sorted(edges), expected, atol=1e-9)
            # volume from edge lengths
            l = np.linalg.norm(corners[0] - corners[3])
            w = np.linalg.norm(corners[0] - corners[1])
            h = np.linalg.norm(corners[0] - corners[4])
            assert abs(l * w * h - np.prod(box[1])) < 1e-9


class TestProjectBox:
    def test_symmetric_about_principal_point(self):
        intr = default_intrinsics()
        box = box_row([0, 0, 20], [2, 2, 2], 0.0)
        b = project_box(*box, CameraPose.identity(), intr)
        cx, cy = 0.5 * (b[0] + b[2]), 0.5 * (b[1] + b[3])
        assert cx == pytest.approx(intr.principal_x)
        assert cy == pytest.approx(intr.principal_y)

    def test_clipped_to_image(self):
        intr = default_intrinsics()
        # large nearby box spills past the image border
        box = box_row([0, 0, 3], [20, 20, 2], 0.0)
        b = project_box(*box, CameraPose.identity(), intr)
        assert b[0] >= 0.0 and b[1] >= 0.0
        assert b[2] <= intr.image_width and b[3] <= intr.image_height

    def test_all_corners_behind(self):
        with pytest.raises(BoxBehindCamera):
            project_box(*box_row([0, 0, -10], [1, 1, 1], 0.0), CameraPose.identity(), default_intrinsics())

    def test_hull_matches_cornerwise_projection(self):
        rng = np.random.default_rng(5)
        intr = default_intrinsics()
        done = 0
        while done < 200:
            pose = random_pose(rng)
            center = pose.camera_to_world([rng.uniform(-8, 8), rng.uniform(-4, 4), rng.uniform(8, 60)])
            box = box_row(center, rng.uniform(0.5, 4.0, size=3), rng.uniform(0, 2 * math.pi))
            corners = box_corners(*box)[0]
            pix = []
            behind = False
            for c in corners:
                try:
                    p, _ = project_point(c, pose, intr)
                except PointBehindCamera:
                    behind = True
                    break
                pix.append(p)
            if behind:
                continue
            pix = np.array(pix)
            expected = (
                min(max(pix[:, 0].min(), 0), intr.image_width),
                min(max(pix[:, 1].min(), 0), intr.image_height),
                min(max(pix[:, 0].max(), 0), intr.image_width),
                min(max(pix[:, 1].max(), 0), intr.image_height),
            )
            got = project_box(*box, pose, intr)
            assert np.allclose(got, expected, atol=1e-9)
            done += 1


def project_one(box, pose, intr):
    """project_boxes on the one row of box: (center pixels (2,), depth, (x_min, y_min, x_max, y_max))."""
    center_px, depth, boxes, _, _ = project_boxes(*box, pose, intr)
    return center_px[0], float(depth[0]), tuple(boxes[0].tolist())


def area(box) -> float:
    return (box[2] - box[0]) * (box[3] - box[1])


class TestProjectObject:
    def test_in_front_matches_point_and_box(self):
        rng = np.random.default_rng(11)
        intr = default_intrinsics()
        for _ in range(50):
            pose = random_pose(rng)
            center = pose.camera_to_world([rng.uniform(-8, 8), rng.uniform(-4, 4), rng.uniform(8, 60)])
            box = box_row(center, rng.uniform(0.5, 4.0, size=3), rng.uniform(0, 2 * math.pi))
            center_px, depth, box2d = project_one(box, pose, intr)
            expected_px, expected_depth = project_point(box[0], pose, intr)
            assert np.array_equal(center_px, expected_px)
            assert depth == expected_depth
            assert box2d == project_box(*box, pose, intr)

    def test_center_behind_gives_zero_pixels_and_box(self):
        center_px, depth, box2d = project_one(
            box_row([0, 0, -3.0], [4, 4, 4], 0.0), CameraPose.identity(), default_intrinsics()
        )
        assert np.array_equal(center_px, [0.0, 0.0])
        assert depth == pytest.approx(-3.0)
        assert depth <= MIN_CAMERA_Z
        assert area(box2d) == 0.0

    def test_corners_behind_truncate_the_box(self):
        intr = default_intrinsics()
        # center 1 m ahead, the 4 m long box reaches 1 m behind the camera
        box = box_row([0, 0, 1.0], [2, 2, 4], 0.0)
        center_px, depth, box2d = project_one(box, CameraPose.identity(), intr)
        assert depth == pytest.approx(1.0)
        assert np.allclose(center_px, [intr.principal_x, intr.principal_y])
        assert area(box2d) > 0.0
        assert box2d == project_box(*box, CameraPose.identity(), intr)


# The one-box projection as written before project_boxes, kept as the bit-level reference.
CORNER_SIGNS = [[1, 1, -1], [1, -1, -1], [-1, -1, -1], [-1, 1, -1], [1, 1, 1], [1, -1, 1], [-1, -1, 1], [-1, 1, 1]]


def scalar_project_box(box, pose, intr):
    """(hull tuple, any corner in front); the hull is None when no corner is in front."""
    center, dims, yaw = box
    c, s = math.cos(yaw), math.sin(yaw)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    corners = center + (np.array(CORNER_SIGNS, dtype=float) * (dims / 2.0)) @ rotation.T
    cam = (pose.rotation @ corners.T).T + pose.translation
    in_front = cam[:, 2] > MIN_CAMERA_Z
    if not np.any(in_front):
        return None, False
    vis = cam[in_front]
    us = intr.focal_x * vis[:, 0] / vis[:, 2] + intr.principal_x
    vs = intr.focal_y * vis[:, 1] / vis[:, 2] + intr.principal_y
    hull = (
        min(max(float(us.min()), 0.0), intr.image_width),
        min(max(float(vs.min()), 0.0), intr.image_height),
        min(max(float(us.max()), 0.0), intr.image_width),
        min(max(float(vs.max()), 0.0), intr.image_height),
    )
    return hull, True


def scalar_project_object(box, pose, intr):
    """(center pixels, depth, box tuple, any corner in front) with project_boxes' semantics for one box."""
    p_cam = pose.rotation @ box[0] + pose.translation
    depth = float(p_cam[2])
    hull, in_front = scalar_project_box(box, pose, intr)
    if depth <= MIN_CAMERA_Z or hull is None:
        return np.zeros(2), depth, (0.0, 0.0, 0.0, 0.0), in_front
    u = intr.focal_x * p_cam[0] / depth + intr.principal_x
    v = intr.focal_y * p_cam[1] / depth + intr.principal_y
    return np.array([u, v]), depth, hull, in_front


def random_boxes_around_camera(rng, pose, count):
    """Seeded boxes in front of, straddling and behind the camera, with unnormalized yaws."""
    cam = np.column_stack(
        [rng.uniform(-10, 10, count), rng.uniform(-4, 4, count), rng.uniform(-8, 60, count)]
    )
    cam[: count // 4, 2] = rng.uniform(-1.0, 1.0, count // 4)  # centers near the camera plane
    centers = np.array([pose.camera_to_world(c) for c in cam]).reshape(count, 3)
    return centers, rng.uniform(0.3, 8.0, (count, 3)), rng.uniform(-10.0, 10.0, count)


class TestProjectBoxes:
    def test_rows_bit_equal_to_one_box_projection(self):
        rng = np.random.default_rng(23)
        intr = default_intrinsics()
        kinds = {"center behind, corner in front": 0, "wholly behind": 0, "in front": 0}
        for _ in range(20):
            pose = random_pose(rng)
            centers, dims, yaws = random_boxes_around_camera(rng, pose, 40)
            center_px, depth, boxes, hulls, in_front = project_boxes(centers, dims, yaws, pose, intr)
            for k in range(len(centers)):
                box = box_row(centers[k], dims[k], yaws[k])
                ref_px, ref_depth, ref_box, ref_in_front = scalar_project_object(box, pose, intr)
                assert np.array_equal(center_px[k], ref_px)
                assert depth[k] == ref_depth
                assert tuple(boxes[k]) == ref_box
                assert in_front[k] == ref_in_front
                ref_hull = scalar_project_box(box, pose, intr)[0]
                assert tuple(hulls[k]) == (ref_hull if ref_in_front else (0.0, 0.0, 0.0, 0.0))
                if not ref_in_front:
                    kinds["wholly behind"] += 1
                    with pytest.raises(BoxBehindCamera):
                        project_box(*box, pose, intr)
                else:
                    kinds["center behind, corner in front" if ref_depth <= MIN_CAMERA_Z else "in front"] += 1
                    assert project_box(*box, pose, intr) == scalar_project_box(box, pose, intr)[0]
        assert min(kinds.values()) >= 20, kinds

    def test_empty_batch(self):
        center_px, depth, boxes, hulls, in_front = project_boxes(
            np.zeros((0, 3)), np.zeros((0, 3)), [], CameraPose.identity(), default_intrinsics()
        )
        assert center_px.shape == (0, 2) and depth.shape == (0,) and in_front.shape == (0,)
        assert boxes.shape == hulls.shape == (0, 4)

    def test_stacked_halves_bit_equal_to_each_half_alone(self):
        # the tracker projects its n predicted tracklets and its m decoded
        # detections in one call over their stacked rows
        rng = np.random.default_rng(37)
        intr = default_intrinsics()
        for n, m in [(12, 9), (0, 7), (5, 0), (1, 1)]:
            pose = random_pose(rng)
            tracklets = random_boxes_around_camera(rng, pose, n)
            detections = random_boxes_around_camera(rng, pose, m)
            stacked = project_boxes(*(np.concatenate(pair) for pair in zip(tracklets, detections)), pose, intr)
            for half, rows in ((tracklets, slice(0, n)), (detections, slice(n, n + m))):
                for got, alone in zip(stacked, project_boxes(*half, pose, intr)):
                    assert np.array_equal(got[rows], alone)

    def test_yaws_normalized_like_box3d(self):
        intr = default_intrinsics()
        centers, dims = [[1.0, 0.5, 20.0]] * 3, [[4.2, 1.8, 1.5]] * 3
        yaws = [0.4, 0.4 + 2 * math.pi, 0.4 - 4 * math.pi]
        pose = CameraPose.identity()
        _, _, boxes, _, _ = project_boxes(centers, dims, yaws, pose, intr)
        for k in range(3):
            assert tuple(boxes[k]) == project_box(*box_row(centers[k], dims[k], yaws[k]), pose, intr)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_dimensions_rejected(self, bad):
        with pytest.raises(GeometryError):
            project_boxes([[0, 0, 10]], [[4.0, bad, 1.5]], [0.0], CameraPose.identity(), default_intrinsics())


class TestIou2dMatrix:
    def test_entries_bit_equal_to_iou_2d(self):
        rng = np.random.default_rng(29)
        edges = np.array([0.0, 1.0, 2.0, 2.5, 3.0, 5.0])  # shared edges give touching boxes
        for _ in range(50):
            boxes = []
            for _ in range(rng.integers(1, 12)):
                if rng.random() < 0.5:
                    x0, x1 = np.sort(rng.choice(edges, 2))  # may be equal: zero area
                    y0, y1 = np.sort(rng.choice(edges, 2))
                else:
                    x0, x1 = np.sort(rng.uniform(0, 6, 2))
                    y0, y1 = np.sort(rng.uniform(0, 6, 2))
                boxes.append((float(x0), float(y0), float(x1), float(y1)))
            split = rng.integers(0, len(boxes) + 1)
            a, b = boxes[:split], boxes[split:]
            got = iou_2d_matrix(a, b)
            assert got.shape == (len(a), len(b))
            for i, j in np.ndindex(got.shape):
                assert got[i, j] == iou_2d(a[i], b[j])

    def test_touching_disjoint_and_zero_area(self):
        a = [(0.0, 0.0, 1.0, 1.0)]
        b = [(1.0, 0.0, 2.0, 1.0), (3.0, 3.0, 4.0, 4.0), (0.5, 0.5, 0.5, 0.9), (0.0, 0.0, 1.0, 1.0)]
        assert iou_2d_matrix(a, b).tolist() == [[0.0, 0.0, 0.0, 1.0]]


class TestIou2d:
    def test_identical(self):
        b = (1, 2, 5, 9)
        assert iou_2d(b, b) == pytest.approx(1.0)

    def test_disjoint(self):
        assert iou_2d((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0

    def test_one_third_overlap(self):
        a = (0, 0, 2, 2)
        b = (1, 0, 3, 2)
        assert iou_2d(a, b) == pytest.approx(1.0 / 3.0)
        assert raster_iou_2d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-2)

    def test_symmetry_and_bounds_seeded(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            x0, x1 = sorted(rng.uniform(0, 10, 2))
            y0, y1 = sorted(rng.uniform(0, 10, 2))
            u0, u1 = sorted(rng.uniform(0, 10, 2))
            v0, v1 = sorted(rng.uniform(0, 10, 2))
            a = (x0, y0, x1, y1)
            b = (u0, v0, u1, v1)
            val = iou_2d(a, b)
            assert 0.0 <= val <= 1.0
            assert val == pytest.approx(iou_2d(b, a), abs=0)


class TestBevIntersection:
    def test_coincident(self):
        box = box_row([1, 2, 0], [4, 2, 1.5], 0.7)
        assert bev_intersection_area(box, box) == pytest.approx(8.0, abs=1e-9)

    def test_square_quarter_turn(self):
        a = box_row([0, 0, 0], [2, 2, 1], 0.0)
        b = box_row([0, 0, 0], [2, 2, 1], math.pi / 2)
        assert bev_intersection_area(a, b) == pytest.approx(4.0, abs=1e-9)

    def test_against_raster_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            a = box_row(
                [rng.uniform(-2, 2), rng.uniform(-2, 2), 0],
                [rng.uniform(1, 5), rng.uniform(1, 5), 1.0],
                rng.uniform(0, 2 * math.pi),
            )
            b = box_row(
                [rng.uniform(-2, 2), rng.uniform(-2, 2), 0],
                [rng.uniform(1, 5), rng.uniform(1, 5), 1.0],
                rng.uniform(0, 2 * math.pi),
            )
            got = bev_intersection_area(a, b)
            ref = raster_bev_intersection(a, b)
            assert got == pytest.approx(bev_intersection_area(b, a), abs=1e-9)
            scale = max(ref, 1e-3)
            assert abs(got - ref) / scale < 2e-2  # raster oracle resolution limit

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            a = box_row(rng.uniform(-3, 3, 3), rng.uniform(1, 4, 3), rng.uniform(0, 2 * math.pi))
            b = box_row(rng.uniform(-3, 3, 3), rng.uniform(1, 4, 3), rng.uniform(0, 2 * math.pi))
            base = bev_intersection_area(a, b)
            phi = rng.uniform(0, 2 * math.pi)
            shift = rng.uniform(-10, 10, 2)
            c, s = math.cos(phi), math.sin(phi)
            rot = np.array([[c, -s], [s, c]])

            def moved(box):
                center, dims, yaw = box
                new_xy = rot @ center[:2] + shift
                return box_row(
                    [new_xy[0], new_xy[1], center[2]], dims, yaw + phi
                )

            assert abs(bev_intersection_area(moved(a), moved(b)) - base) < 1e-9


class TestIou3d:
    def test_identical(self):
        box = box_row([3, -1, 2], [4.2, 1.8, 1.5], 1.1)
        assert iou_3d(box, box) == pytest.approx(1.0)

    def test_far_apart(self):
        a = box_row([0, 0, 0], [1, 1, 1], 0.3)
        b = box_row([100, 0, 0], [1, 1, 1], 1.2)
        assert iou_3d(a, b) == 0.0

    def test_axis_aligned_offset_cubes(self):
        a = box_row([0, 0, 0], [1, 1, 1], 0.0)
        b = box_row([0.5, 0, 0], [1, 1, 1], 0.0)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_against_monte_carlo(self, mc_samples):
        rng = np.random.default_rng(23)
        for _ in range(60):
            a = box_row(
                [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)],
                rng.uniform(0.8, 4.0, 3),
                rng.uniform(0, 2 * math.pi),
            )
            b = box_row(
                [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)],
                rng.uniform(0.8, 4.0, 3),
                rng.uniform(0, 2 * math.pi),
            )
            got = iou_3d(a, b)
            assert 0.0 <= got <= 1.0
            assert got == pytest.approx(iou_3d(b, a), abs=1e-12)
            assert abs(got - monte_carlo_iou_3d(a, b, mc_samples)) < 1e-2



def oracle_pairs() -> list:
    """Seeded (center, dims, yaw) box pairs: 2,000 random, 400 on a half-metre grid, and named edge cases.

    Grid pairs have quarter-turn yaws, so edges coincide, touch or cross at
    vertices; the named cases pin touching, containment, identity, 45 and
    90 degree turns and boxes without vertical overlap.
    """
    rng = np.random.default_rng(31)
    pairs = []
    for _ in range(2000):
        a = box_row(rng.normal(scale=2.0, size=3), rng.uniform(0.5, 5.0, 3), rng.uniform(-7.0, 7.0))
        b = box_row(a[0] + rng.normal(scale=1.5, size=3), rng.uniform(0.5, 5.0, 3), rng.uniform(-7.0, 7.0))
        pairs.append((a, b))
    for _ in range(400):
        a = box_row(rng.integers(-4, 5, 3) * 0.5, rng.integers(1, 9, 3) * 0.5, rng.integers(0, 4) * math.pi / 2)
        b = box_row(a[0] + rng.integers(-6, 7, 3) * 0.5, rng.integers(1, 9, 3) * 0.5, rng.integers(0, 4) * math.pi / 2)
        pairs.append((a, b))
    unit = box_row([0, 0, 0], [2, 2, 1], 0.0)
    pairs += [
        (unit, box_row([2, 0, 0], [2, 2, 1], 0.0)),  # touching along an edge
        (unit, box_row([2, 2, 0], [2, 2, 1], 0.0)),  # touching at a corner
        (unit, box_row([1, 0, 0], [2, 2, 1], 0.0)),  # half overlap on the grid
        (unit, box_row([0.2, 0.1, 0.1], [1, 1, 0.5], 0.3)),  # contained
        (box_row([0.2, 0.1, 0.1], [1, 1, 0.5], 0.3), unit),  # containing
        (unit, unit),
        (box_row([3, -1, 2], [4.2, 1.8, 1.5], 1.1), box_row([3, -1, 2], [4.2, 1.8, 1.5], 1.1)),
        (unit, box_row([0, 0, 0], [2, 2, 1], math.pi / 4)),
        (box_row([0, 0, 0], [4, 2, 1], 0.0), box_row([0, 0, 0], [4, 2, 1], math.pi / 2)),
        (unit, box_row([0, 0, 2], [2, 2, 1], 0.0)),  # no vertical overlap
        (unit, box_row([0, 0, 1], [2, 2, 1], 0.0)),  # vertical faces touch
    ]
    return pairs


def box_columns(boxes) -> tuple:
    """(centers (K, 3), dims (K, 3), yaws (K,)) of K (center, dims, yaw) boxes."""
    centers, dims, yaws = zip(*boxes) if boxes else ((), (), ())
    return np.reshape(centers, (-1, 3)), np.reshape(dims, (-1, 3)), np.array(yaws, dtype=float)


class TestIou3dPairs:
    """iou_3d_pairs against the scalar clipper it replaced (tests/conftest.py)."""

    def test_matches_scalar_reference(self):
        pairs = oracle_pairs()
        got = iou_3d_pairs(box_columns([a for a, _ in pairs]), box_columns([b for _, b in pairs]))
        ref = np.array([reference_iou_3d(a, b) for a, b in pairs])
        assert got.shape == (len(pairs),) and len(pairs) >= 2000
        assert np.max(np.abs(got - ref)) <= 1e-12
        assert np.count_nonzero(ref > 0.0) > 1000 and np.count_nonzero(ref == 0.0) > 100

    def test_named_cases(self):
        got = iou_3d_pairs(*map(box_columns, zip(*oracle_pairs()[-11:])))
        octagon = 8.0 * (math.sqrt(2.0) - 1.0)  # two unit squares a 45 degree turn apart
        expected = [0.0, 0.0, 1.0 / 3.0, 0.5 / 4.0, 0.5 / 4.0, 1.0, 1.0]
        expected += [octagon / (8.0 - octagon), 1.0 / 3.0, 0.0, 0.0]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_bev_intersection_matches_scalar_reference(self):
        for a, b in oracle_pairs()[::5]:
            ref = reference_bev_intersection_area(a, b)
            assert abs(bev_intersection_area(a, b) - ref) <= 1e-12 * max(1.0, ref)

    def test_empty_batch(self):
        assert iou_3d_pairs(box_columns([]), box_columns([])).shape == (0,)

class TestCameraHeading:
    def test_heading_round_trip(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            psi = rng.uniform(0, 2 * math.pi)
            f = np.array([math.cos(psi), math.sin(psi), 0.0])
            right = np.array([math.sin(psi), -math.cos(psi), 0.0])
            down = np.array([0.0, 0.0, -1.0])
            rot = np.stack([right, down, f])
            pose = CameraPose(rot, rng.normal(size=3))
            assert abs(normalize_angle(camera_heading(pose) - psi)) < 1e-9 or (
                abs(normalize_angle(camera_heading(pose) - psi) - 2 * math.pi) < 1e-9
            )


class TestValidation:
    def test_bad_intrinsics(self):
        with pytest.raises(GeometryError):
            CameraIntrinsics(-1, 100, 0, 0, 100, 100)
        with pytest.raises(GeometryError):
            CameraIntrinsics(100, float("nan"), 0, 0, 100, 100)

    def test_bad_rotation(self):
        with pytest.raises(GeometryError):
            CameraPose(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(GeometryError):
            CameraPose(np.eye(3), [0.0, float("nan"), 0.0])

    def test_pose_tolerance_is_allclose_rule(self):
        """|r r^T - I| <= 1e-9 + 1e-5 |I| entry by entry: a diagonal error inside the rtol band passes."""
        stretched = np.diag([1.0 + 4e-6, 1.0, 1.0])  # r r^T holds 1 + 8e-6 on the diagonal
        assert np.array_equal(CameraPose(stretched, np.zeros(3)).rotation, stretched)
        rng = np.random.default_rng(41)
        for _ in range(20):
            CameraPose(random_pose(rng).rotation, rng.normal(size=3))

    @pytest.mark.parametrize(
        "rotation, translation, problem",
        [
            ([[1.0, 2e-9, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.0] * 3, "not orthonormal"),
            (np.diag([1.0, 1.0, -1.0]), [0.0] * 3, "negative determinant"),
            ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [0.0] * 3, "negative determinant"),
            (np.diag([1.0, float("nan"), 1.0]), [0.0] * 3, "not orthonormal"),
            (np.eye(3), [0.0, 0.0, float("nan")], "translation must be finite"),
        ],
        ids=["off-diagonal-2e-9", "reflection", "swapped-axes", "nan-rotation", "nan-translation"],
    )
    def test_pose_refusals(self, rotation, translation, problem):
        with pytest.raises(GeometryError, match=problem):
            CameraPose(np.array(rotation), translation)

    def test_bad_box(self):
        with pytest.raises(GeometryError):
            box_corners([0, 0, 0], [0, 1, 1], 0.0)

    def test_yaw_normalized(self):
        assert normalize_angle(-math.pi) == pytest.approx(math.pi)
        assert 0.0 <= normalize_angle(7 * math.pi) < 2 * math.pi
