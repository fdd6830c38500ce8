"""Camera geometry: pinhole projection, oriented 3D boxes, box overlaps,
and the painter's occlusion model shared by the simulator and the tracker.

Conventions (fixed for the whole package):
  * World frame is right-handed with +z up; yaw rotates +x toward +y.
  * Camera frame is the usual computer-vision frame: x right, y down,
    z forward. A CameraPose maps world points into that frame,
    p_cam = R @ p_world + t.
  * Angles are radians; box_corners normalizes yaws to [0, 2*pi).
  * Lengths are meters, image coordinates are pixels.
  * Boxes are rows: an image box is (x_min, y_min, x_max, y_max), an
    oriented 3D box is (center, dims (l, w, h), yaw), and N boxes are
    (N, 4) rows or (N, 3), (N, 3), (N,) columns.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

TAU = 2.0 * math.pi
MIN_CAMERA_Z = 1e-6


class GeometryError(ValueError):
    pass


class PointBehindCamera(GeometryError):
    """Raised when a point's camera-frame z is at or below the near limit."""


class BoxBehindCamera(GeometryError):
    """Raised when every corner of a box is behind the camera."""


class NonPositiveDepth(GeometryError):
    """Raised when a backprojection depth is not strictly positive."""


def matvec(m, v) -> np.ndarray:
    """m @ row for one row v or for every row of a (..., n) stack v.

    A stack runs as stacked matrix-vector products, each the same BLAS call
    as m @ row, so it is bit-equal to running its rows one by one (a GEMM
    would not be). One row takes m @ v directly, which skips the view
    handling a one-row call would pay. This is the per-row path that LSTM
    tracking runs; training's forward pass runs one GEMM per layer
    (lstm._gemm) instead.
    """
    v = np.asarray(v, dtype=float)
    return m @ v if v.ndim == 1 else np.matmul(m, v[..., None])[..., 0]


def normalize_angle(theta: float) -> float:
    """Wrap an angle into [0, 2*pi)."""
    theta = math.fmod(theta, TAU)
    if theta < 0.0:
        theta += TAU
    # fmod of values just below 2*pi can round back up to 2*pi exactly
    if theta >= TAU:
        theta -= TAU
    return theta


def normalize_angles(thetas) -> np.ndarray:
    """normalize_angle of every element, bit-equal: fmod is exact, then the same two wraps."""
    thetas = np.fmod(np.asarray(thetas, dtype=float), TAU)
    np.add(thetas, TAU, out=thetas, where=thetas < 0.0)
    np.subtract(thetas, TAU, out=thetas, where=thetas >= TAU)
    return thetas


@dataclass(frozen=True)
class CameraIntrinsics:
    focal_x: float
    focal_y: float
    principal_x: float
    principal_y: float
    image_width: float
    image_height: float

    def __post_init__(self):
        # a subnormal focal length or size divides into non-finite states
        for name in ("focal_x", "focal_y", "image_width", "image_height"):
            if not (sys.float_info.min <= getattr(self, name) < math.inf):
                raise GeometryError(f"{name} must be a finite number of at least {sys.float_info.min}")
        if not (0.0 <= self.principal_x <= self.image_width):
            raise GeometryError("principal_x outside image")
        if not (0.0 <= self.principal_y <= self.image_height):
            raise GeometryError("principal_y outside image")

    @property
    def image_diagonal(self) -> float:
        return math.hypot(self.image_width, self.image_height)


_EYE3 = np.eye(3)
# np.allclose's rule against the identity with its default rtol: |a - b| <= atol + rtol * |b|
_ORTHONORMAL_TOLERANCE = 1e-9 + 1e-5 * _EYE3


@dataclass(frozen=True)
class CameraPose:
    """World-to-camera rigid transform: p_cam = rotation @ p_world + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if not (np.abs(r @ r.T - _EYE3) <= _ORTHONORMAL_TOLERANCE).all():
            raise GeometryError("rotation is not orthonormal")
        if not np.isfinite(t).all():
            raise GeometryError("translation must be finite")
        (a, b, c), (d, e, f), (g, h, i) = r.tolist()
        # the determinant's sign is that of (r0 x r1) . r2
        if g * (b * f - c * e) + h * (c * d - a * f) + i * (a * e - b * d) < 0:
            raise GeometryError("rotation has negative determinant")

    @staticmethod
    def identity() -> "CameraPose":
        return CameraPose(np.eye(3), np.zeros(3))

    def world_to_camera(self, point) -> np.ndarray:
        """Camera-frame coordinates of one (3,) point or of (N, 3) rows, each R @ p + t."""
        return matvec(self.rotation, point) + self.translation

    def camera_to_world(self, point) -> np.ndarray:
        """World coordinates of one (3,) camera-frame point or of (N, 3) rows."""
        return matvec(self.rotation.T, np.asarray(point, dtype=float) - self.translation)


def camera_heading(pose: CameraPose) -> float:
    """Azimuth of the camera's forward (+z) axis in the world xy-plane.

    Used to move yaws between camera-relative and world frames. Undefined
    (returns 0) for a camera looking straight up or down.
    """
    forward = pose.rotation.T @ np.array([0.0, 0.0, 1.0])
    if abs(forward[0]) < 1e-12 and abs(forward[1]) < 1e-12:
        return 0.0
    return math.atan2(forward[1], forward[0])


def project_point(point, pose: CameraPose, intrinsics: CameraIntrinsics):
    """Project a world point. Returns ((u, v) pixels, camera-frame depth).

    Raises PointBehindCamera if the point is not strictly in front.
    """
    p_cam = pose.world_to_camera(point)
    z = float(p_cam[2])
    if z <= MIN_CAMERA_Z:
        raise PointBehindCamera(f"camera-frame z={z:.3g} <= {MIN_CAMERA_Z}")
    u = intrinsics.focal_x * p_cam[0] / z + intrinsics.principal_x
    v = intrinsics.focal_y * p_cam[1] / z + intrinsics.principal_y
    return np.array([u, v]), z


def backproject(pixel, depth, pose: CameraPose, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Invert project_point: pixel + camera-frame depth -> world point.

    (N, 2) pixels and (N,) depths give (N, 3) world rows.
    """
    pixel, depth = np.asarray(pixel, dtype=float), np.asarray(depth, dtype=float)
    if np.any(depth <= 0.0):
        raise NonPositiveDepth(f"depth={depth!r} must be > 0")
    x = (pixel[..., 0] - intrinsics.principal_x) / intrinsics.focal_x * depth
    y = (pixel[..., 1] - intrinsics.principal_y) / intrinsics.focal_y * depth
    return pose.camera_to_world(np.stack([x, y, depth], axis=-1))


def alpha_to_theta(theta_l: float, x_c: float, intrinsics: CameraIntrinsics) -> float:
    """Local (appearance) yaw -> camera-frame yaw for an object seen at pixel x_c.

    The viewing-ray correction uses the horizontal image center, so the
    conversion is exactly invertible by theta_to_alpha for any x_c.
    """
    x_hat = x_c - intrinsics.image_width / 2.0
    return normalize_angle(theta_l + math.atan2(x_hat, intrinsics.focal_x))


def theta_to_alpha(theta: float, x_c: float, intrinsics: CameraIntrinsics) -> float:
    """Camera-frame yaw -> local (appearance) yaw; inverse of alpha_to_theta."""
    x_hat = x_c - intrinsics.image_width / 2.0
    return normalize_angle(theta - math.atan2(x_hat, intrinsics.focal_x))


# Corner order: all sign combinations of (l/2, w/2, h/2); the first four
# share the bottom face, the last four the top face.
_CORNER_SIGNS = np.array(
    [
        [1, 1, -1],
        [1, -1, -1],
        [-1, -1, -1],
        [-1, 1, -1],
        [1, 1, 1],
        [1, -1, 1],
        [-1, -1, 1],
        [-1, 1, 1],
    ],
    dtype=float,
)


def box_corners(centers, dims, yaws) -> np.ndarray:
    """(N, 8, 3) world-frame corners of N oriented boxes; one box is N = 1.

    Dimensions must be positive and yaws are normalized first; the stacked
    product repeats the one-box float operations, so every box's corners
    are bit-equal to computing them alone.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    dims = np.asarray(dims, dtype=float).reshape(-1, 3)
    if (dims <= 0).any():
        raise GeometryError("box dimensions must be positive")
    yaws = normalize_angles(np.reshape(yaws, -1))
    c, s = np.cos(yaws), np.sin(yaws)
    # rotations about +z taking +x toward +y for positive yaw
    rot = np.zeros((len(centers), 3, 3))
    rot[:, 0, 0] = rot[:, 1, 1] = c
    rot[:, 0, 1] = -s
    rot[:, 1, 0] = s
    rot[:, 2, 2] = 1.0
    offsets = _CORNER_SIGNS * (dims / 2.0)[:, None, :]
    return centers[:, None, :] + np.matmul(offsets, rot.transpose(0, 2, 1))


def project_boxes(centers, dims, yaws, pose: CameraPose, intrinsics: CameraIntrinsics):
    """Project N objects at once: center pixels, depths, image boxes, hulls, corner mask.

    Returns (center_px (N, 2), depth (N,), boxes (N, 4), hulls (N, 4),
    any_corner_in_front (N,)). Row k of hulls is project_box's hull of box
    k: its visible corners' extent, truncated where the box is partly
    behind the camera, and the zero box where no corner is in front, as
    any_corner_in_front tells. Row k of center_px, depth and boxes holds
    project_point's center pixels and depth and that hull, except that an
    object whose center is behind the camera gets zero pixels, its
    camera-frame z (at or below MIN_CAMERA_Z) and the zero box. Boxes are
    (x_min, y_min, x_max, y_max) rows; the stacked products repeat the
    one-box float operations, so every row is bit-equal to projecting its
    object alone.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    focal = np.array([intrinsics.focal_x, intrinsics.focal_y])
    principal = np.array([intrinsics.principal_x, intrinsics.principal_y])
    # (N, 3, 8): each box's eight corners as camera-frame columns
    cam = np.matmul(pose.rotation, box_corners(centers, dims, yaws).transpose(0, 2, 1)) + pose.translation[:, None]
    in_front = cam[:, 2:] > MIN_CAMERA_Z
    uv = focal[:, None] * cam[:, :2] / np.where(in_front, cam[:, 2:], 1.0) + principal[:, None]
    lo, hi = np.where(in_front, uv, np.inf).min(axis=2), np.where(in_front, uv, -np.inf).max(axis=2)
    hulls = np.concatenate([lo, hi], axis=1)
    hulls = np.minimum(np.maximum(hulls, 0.0), [intrinsics.image_width, intrinsics.image_height] * 2)
    any_in_front = in_front.any(axis=(1, 2))
    hulls[~any_in_front] = 0.0
    cam_centers = pose.world_to_camera(centers)
    depth = cam_centers[:, 2]
    ahead = depth[:, None] > MIN_CAMERA_Z
    center_px = np.where(ahead, focal * cam_centers[:, :2] / np.where(ahead, depth[:, None], 1.0) + principal, 0.0)
    return center_px, depth, np.where(ahead, hulls, 0.0), hulls, any_in_front


def project_box(center, dims, yaw, pose: CameraPose, intrinsics: CameraIntrinsics) -> tuple:
    """(x_min, y_min, x_max, y_max) image hull of one box's visible corners, clipped to the image.

    project_boxes' one-box hull: corners behind the camera are ignored and
    a partially-behind box is truncated rather than rejected. Raises
    BoxBehindCamera only when no corner is in front. Nothing in the
    package calls it; it stays because the benchmark tracer
    (bench/layertrace.py) wraps it by name.
    """
    _, _, _, hulls, any_in_front = project_boxes(center, dims, yaw, pose, intrinsics)
    if not any_in_front[0]:
        raise BoxBehindCamera("all corners behind camera")
    return tuple(hulls[0].tolist())


def iou_2d(a, b) -> float:
    """Intersection-over-union of two (x_min, y_min, x_max, y_max) rows, in [0, 1]."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = _rect_area(a) + _rect_area(b) - inter
    if union <= 0.0:
        return 0.0
    return float(inter / union)


def iou_2d_matrix(a, b) -> np.ndarray:
    """(n, m) iou_2d of every row of a (n, 4) against every row of b (m, 4).

    Rows are (x_min, y_min, x_max, y_max); the element-wise operations are
    iou_2d's, so entry [i, j] is bit-equal to iou_2d of the two boxes.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 1, 4)
    b = np.asarray(b, dtype=float).reshape(1, -1, 4)
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = ix * iy
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    valid = (ix > 0.0) & (iy > 0.0) & (union > 0.0)
    return np.where(valid, inter / np.where(valid, union, 1.0), 0.0)


def _successors(poly: np.ndarray, count: np.ndarray):
    """Valid-vertex mask (K, V) and each vertex's cyclic successor (K, V, 2)."""
    v = np.arange(poly.shape[1])
    successor = np.where(v + 1 < count[:, None], v + 1, 0)
    return v < count[:, None], np.take_along_axis(poly, successor[..., None], axis=1)


def _clip_polygons(poly: np.ndarray, count: np.ndarray, edge_a: np.ndarray, edge_b: np.ndarray):
    """Clip K convex polygons, each against the half-plane left of its edge a->b.

    Polygon k is the first count[k] of its V padded vertices. Sutherland-
    Hodgman on all K at once: a vertex on or left of the edge (signed area
    >= -1e-12) is kept, followed by the crossing with the edge wherever the
    side changes. Returns the (K, V', 2) clipped polygons and their counts.
    """
    tol = 1e-12
    valid, succ = _successors(poly, count)
    edge = (edge_b - edge_a)[:, None, :]
    rel = np.stack([poly, succ]) - edge_a[:, None, :]
    side, side_succ = edge[..., 0] * rel[..., 1] - edge[..., 1] * rel[..., 0]
    inside = side >= -tol
    denom = side - side_succ
    cross = valid & (inside != (side_succ >= -tol)) & (np.abs(denom) > tol)
    t = side / np.where(cross, denom, 1.0)
    slots = (len(poly), 2 * poly.shape[1])  # each vertex, then its crossing
    candidates = np.stack([poly, poly + t[..., None] * (succ - poly)], axis=2).reshape(*slots, 2)
    keep = np.stack([valid & inside, cross], axis=2).reshape(slots)
    count = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")[:, : count.max(initial=0)]
    return np.take_along_axis(candidates, order[..., None], axis=1), count


def _bev_intersections(corners_a: np.ndarray, corners_b: np.ndarray) -> np.ndarray:
    """(K,) ground-plane intersection areas of K box pairs given as (K, 8, 3) corners."""
    # reversed, the bottom corners run counterclockwise around the footprint
    poly, rect_b = corners_a[:, 3::-1, :2], corners_b[:, 3::-1, :2]
    count = np.full(len(poly), 4)
    for i in range(4):
        poly, count = _clip_polygons(poly, count, rect_b[:, i], rect_b[:, (i + 1) % 4])
    valid, succ = _successors(poly, count)
    twice = np.where(valid, poly[..., 0] * succ[..., 1] - poly[..., 1] * succ[..., 0], 0.0).sum(axis=1)
    return np.where(count >= 3, 0.5 * np.abs(twice), 0.0)


def iou_3d_pairs(a, b) -> np.ndarray:
    """(K,) volumetric IoU of box a[k] with box b[k] for each of K pairs.

    a and b are (centers (K, 3), dims (K, 3), yaws (K,)) rows; one box's
    (center, dims, yaw) is K = 1. The BEV rotated-rectangle intersections of all pairs are
    clipped at once, then multiplied by each pair's vertical overlap.
    """
    dims_a, dims_b = (np.asarray(rows[1], dtype=float).reshape(-1, 3) for rows in (a, b))
    corners_a, corners_b = box_corners(a[0], dims_a, a[2]), box_corners(b[0], dims_b, b[2])
    # corners 0 and 4 lie on the bottom and top faces
    dz = np.minimum(corners_a[:, 4, 2], corners_b[:, 4, 2]) - np.maximum(corners_a[:, 0, 2], corners_b[:, 0, 2])
    inter = _bev_intersections(corners_a, corners_b) * dz
    overlap = (dz > 0.0) & (inter > 0.0)
    union = np.prod(dims_a, axis=1) + np.prod(dims_b, axis=1) - inter
    return np.where(overlap, inter / np.where(overlap, union, 1.0), 0.0)


def iou_3d(a, b) -> float:
    """Volumetric IoU of two (center, dims, yaw) boxes: iou_3d_pairs' one-pair call.

    Nothing in the package calls it; it stays because the benchmark tracer
    (bench/layertrace.py) wraps it by name.
    """
    return float(iou_3d_pairs(a, b)[0])


# --- painter's occlusion: nearer image boxes cover farther ones ------------

# The tracker and the simulator widen the tie layer proportionally to
# depth, matching the sigma = 0.05 * depth monocular noise law the motion
# model assumes: estimated depths of the same object can differ by more
# than a fixed tie at range, and treating them as distinct layers would
# let a tracklet occlude its own detection.
DEPTH_ORDER_TIE_RATE = 0.05


def _rects(boxes) -> list:
    """The (x_min, y_min, x_max, y_max) rows of (n, 4) boxes as lists of floats."""
    return np.asarray(boxes, dtype=float).tolist()


def _rect_area(rect) -> float:
    return (rect[2] - rect[0]) * (rect[3] - rect[1])


def _clip_rect(rect, base):
    x0 = max(rect[0], base[0])
    y0 = max(rect[1], base[1])
    x1 = min(rect[2], base[2])
    y1 = min(rect[3], base[3])
    if x0 >= x1 or y0 >= y1:
        return None
    return (x0, y0, x1, y1)


def _union_area_within(base, rects) -> float:
    """Area of (union of rects) clipped to the base rectangle.

    Exact via coordinate compression: cell centers of the grid induced by
    all rectangle edges are tested against each rectangle.
    """
    clipped = []
    for rect in rects:
        c = _clip_rect(rect, base)
        if c is not None:
            clipped.append(c)
    if not clipped:
        return 0.0
    xs = sorted({base[0], base[2], *(r[0] for r in clipped), *(r[2] for r in clipped)})
    ys = sorted({base[1], base[3], *(r[1] for r in clipped), *(r[3] for r in clipped)})
    total = 0.0
    for i in range(len(xs) - 1):
        cx = 0.5 * (xs[i] + xs[i + 1])
        w = xs[i + 1] - xs[i]
        for j in range(len(ys) - 1):
            cy = 0.5 * (ys[j] + ys[j + 1])
            for r in clipped:
                if r[0] <= cx <= r[2] and r[1] <= cy <= r[3]:
                    total += w * (ys[j + 1] - ys[j])
                    break
    return total


def _touching(boxes: np.ndarray) -> np.ndarray:
    """(n, n) bool: entry [i, k] is true when boxes i and k share area, which is _clip_rect's not-None test.

    A box that does not touch another adds nothing to a union clipped to
    it, so it can be left out of that union's rectangles.
    """
    x0, y0, x1, y1 = boxes.T
    return (np.maximum.outer(x0, x0) < np.minimum.outer(x1, x1)) & (np.maximum.outer(y0, y0) < np.minimum.outer(y1, y1))


def nearer_mask(depths, tie_meters: float, tie_rate: float) -> np.ndarray:
    """(n, n) bool: entry [i, j] is true when box j is strictly nearer than box i.

    Boxes whose depth gap is within the tie share a layer and are never
    nearer than each other; the tie is max(tie_meters, tie_rate * mean
    depth), so with tie_meters >= 0 the diagonal is false.
    """
    d = np.asarray(depths, dtype=float)
    tie = np.maximum(tie_meters, tie_rate * 0.5 * (d[:, None] + d[None, :]))
    return d[:, None] - d[None, :] > tie


def cover_fractions(boxes, depths, tie_meters: float = 1.0, tie_rate: float = 0.0, rows=None) -> np.ndarray:
    """Fraction of each box covered by the union of strictly nearer boxes.

    boxes are (n, 4) rows. The layer tie is that of nearer_mask. Zero-area
    boxes report cover 0. With rows, an iterable of box indices, only those
    boxes are computed and the others report 0.
    """
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    rects = _rects(boxes)
    out = np.zeros(len(rects))
    # a nearer box that does not touch box i covers none of it
    covering = nearer_mask(depths, tie_meters, tie_rate) & _touching(boxes)
    for i in range(len(rects)) if rows is None else rows:
        area = _rect_area(rects[i])
        if area <= 0.0:
            continue
        occluders = [rect for rect, near in zip(rects, covering[i].tolist()) if near]
        if not occluders:
            continue
        out[i] = _union_area_within(rects[i], occluders) / area
    return out


def depth_ordered_overlaps(
    track_boxes, track_depths, det_boxes, det_depths, kept, tie_meters: float = 1.0, tie_rate: float = 0.0
) -> np.ndarray:
    """(n, m) detection-vs-tracklet overlaps under depth ordering around each DOI.

    Tracklets closer to a detection's depth layer (its DOI) claim the
    image area they cover from tracklets farther away from it, provided
    the claimant is also physically in front of the tracklet it masks
    (something behind you cannot hide you). The tracklet nearest the
    detection's own layer therefore keeps its full overlap, while
    tracklets a layer away meet the detection only through their
    unclaimed region, taken over the union of that region with the
    detection box and capped at the plain two-box IoU. With no competing
    layers this equals iou_2d exactly, and a tracklet fully claimed by a
    nearer layer scores 0. The layer tie works as in nearer_mask.

    Boxes are (k, 4) rows. Only the pairs set in the (n, m) bool mask kept
    are computed; the other entries are 0. Claimants range over all
    tracklets either way, but a claimant whose box does not touch the
    tracklet's box claims nothing from it, so a pair with no touching
    claimant keeps the plain IoU.
    """
    track_boxes = np.asarray(track_boxes, dtype=float).reshape(-1, 4)
    rects, det_rects = _rects(track_boxes), _rects(det_boxes)
    plain = iou_2d_matrix(track_boxes, det_boxes)
    depths = np.asarray(track_depths, dtype=float)
    doi_gap = np.abs(np.subtract.outer(depths, np.asarray(det_depths, dtype=float)))
    # [i, j, k]: tracklet k touches tracklet i, is in front of it and is closer to detection j's layer
    in_front = nearer_mask(depths, tie_meters, tie_rate) & _touching(track_boxes)
    claims = in_front[:, None, :] & (doi_gap.T < doi_gap[:, :, None])
    out = np.where(kept, plain, 0.0)
    # a claimed pair needs union areas only where the two boxes intersect
    # (plain > 0); elsewhere its overlap is 0, its plain IoU
    claimants = zip(*(axis.tolist() for axis in np.nonzero(claims & (kept & (plain > 0.0))[:, :, None])))
    for (i, j), claim in groupby(claimants, key=itemgetter(0, 1)):
        rect, det_rect = rects[i], det_rects[j]
        occluders = [rects[k] for _, _, k in claim]
        inter_rect = _clip_rect(rect, det_rect)
        inter = (inter_rect[2] - inter_rect[0]) * (inter_rect[3] - inter_rect[1])
        numerator = inter - _union_area_within(inter_rect, occluders)
        out[i, j] = 0.0
        if numerator <= 0.0:
            continue
        visible_area = _rect_area(rect) - _union_area_within(rect, occluders)
        denominator = visible_area + _rect_area(det_rect) - numerator
        if denominator > 0.0:
            out[i, j] = min(numerator / denominator, plain[i, j])
    return out
