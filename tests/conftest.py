import math

import numpy as np
import pytest

from mono3dt.geometry import CameraIntrinsics, CameraPose, normalize_angle


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via QR with positive determinant."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_pose(rng: np.random.Generator) -> CameraPose:
    return CameraPose(random_rotation(rng), rng.normal(scale=5.0, size=3))


def default_intrinsics(width=1920.0, height=1080.0, f=1000.0) -> CameraIntrinsics:
    return CameraIntrinsics(f, f, width / 2.0, height / 2.0, width, height)


def box_row(center, dims, yaw) -> tuple:
    """An oriented 3D box as the (center (3,), dims (3,), yaw) row geometry reads, its yaw in [0, 2*pi)."""
    return np.asarray(center, dtype=float).reshape(3), np.asarray(dims, dtype=float).reshape(3), normalize_angle(float(yaw))


def raster_iou_2d(a, b, cells: int = 400) -> float:
    """Rasterization oracle for axis-aligned IoU of two (x_min, y_min, x_max, y_max) rows."""
    x0 = min(a[0], b[0])
    x1 = max(a[2], b[2])
    y0 = min(a[1], b[1])
    y1 = max(a[3], b[3])
    xs = np.linspace(x0, x1, cells, endpoint=False) + (x1 - x0) / (2 * cells)
    ys = np.linspace(y0, y1, cells, endpoint=False) + (y1 - y0) / (2 * cells)
    gx, gy = np.meshgrid(xs, ys)
    in_a = (gx >= a[0]) & (gx <= a[2]) & (gy >= a[1]) & (gy <= a[3])
    in_b = (gx >= b[0]) & (gx <= b[2]) & (gy >= b[1]) & (gy <= b[3])
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def bev_point_mask(box, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Boolean mask of grid points inside a (center, dims, yaw) box's ground-plane footprint."""
    center, dims, yaw = box
    c, s = math.cos(yaw), math.sin(yaw)
    dx = gx - center[0]
    dy = gy - center[1]
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    return (np.abs(lx) <= dims[0] / 2.0) & (np.abs(ly) <= dims[1] / 2.0)


def raster_bev_intersection(a, b, cells: int = 1200) -> float:
    """Grid-sampling oracle for the BEV rotated-rectangle intersection area of two (center, dims, yaw) boxes."""
    (center_a, dims_a, _), (center_b, dims_b, _) = a, b
    ra = max(dims_a[0], dims_a[1])
    rb = max(dims_b[0], dims_b[1])
    x0 = min(center_a[0] - ra, center_b[0] - rb)
    x1 = max(center_a[0] + ra, center_b[0] + rb)
    y0 = min(center_a[1] - ra, center_b[1] - rb)
    y1 = max(center_a[1] + ra, center_b[1] + rb)
    xs = np.linspace(x0, x1, cells, endpoint=False) + (x1 - x0) / (2 * cells)
    ys = np.linspace(y0, y1, cells, endpoint=False) + (y1 - y0) / (2 * cells)
    gx, gy = np.meshgrid(xs, ys)
    inside = bev_point_mask(a, gx, gy) & bev_point_mask(b, gx, gy)
    cell_area = (x1 - x0) * (y1 - y0) / (cells * cells)
    return float(np.count_nonzero(inside) * cell_area)


def monte_carlo_iou_3d(a, b, samples: np.ndarray) -> float:
    """Volume-sampling IoU oracle of two (center, dims, yaw) boxes.

    `samples` is an (N, 3) block of uniform [0, 1) triples, rescaled to the
    intersection of the two boxes' axis-aligned bounds. The second box is
    only tested on points already inside the first, which keeps the
    million-sample sweep affordable.
    """

    def aabb(box):
        center, dims, yaw = box
        corners_xy = np.array(
            [
                [dims[0] / 2, dims[1] / 2],
                [dims[0] / 2, -dims[1] / 2],
                [-dims[0] / 2, dims[1] / 2],
                [-dims[0] / 2, -dims[1] / 2],
            ]
        )
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s], [s, c]])
        pts = corners_xy @ rot.T + center[:2]
        lo = np.array([pts[:, 0].min(), pts[:, 1].min(), center[2] - dims[2] / 2])
        hi = np.array([pts[:, 0].max(), pts[:, 1].max(), center[2] + dims[2] / 2])
        return lo, hi

    lo_a, hi_a = aabb(a)
    lo_b, hi_b = aabb(b)
    lo = np.maximum(lo_a, lo_b)
    hi = np.minimum(hi_a, hi_b)
    if np.any(hi <= lo):
        return 0.0
    span = (hi - lo).astype(np.float32)
    base = lo.astype(np.float32)
    px = samples[:, 0] * span[0] + base[0]
    py = samples[:, 1] * span[1] + base[1]
    pz = samples[:, 2] * span[2] + base[2]

    def inside(box, x, y, z):
        center, dims, yaw = box
        c, s = math.cos(yaw), math.sin(yaw)
        # Python floats keep the float32 samples float32 under NumPy 2 promotion
        cx, cy, cz = (float(v) for v in center)
        dx = x - cx
        dy = y - cy
        mask = np.abs(c * dx + s * dy) <= float(dims[0]) / 2.0
        mask &= np.abs(-s * dx + c * dy) <= float(dims[1]) / 2.0
        mask &= np.abs(z - cz) <= float(dims[2]) / 2.0
        return mask

    in_a = inside(a, px, py, pz)
    hits = int(np.count_nonzero(inside(b, px[in_a], py[in_a], pz[in_a])))
    inter = hits / len(samples) * float(np.prod(hi - lo))
    union = float(np.prod(a[1])) + float(np.prod(b[1])) - inter
    if union <= 0:
        return 0.0
    return inter / union


# --- reference 3D IoU: the scalar Sutherland-Hodgman clipper, one pair at a
# time, whose arithmetic geometry.iou_3d_pairs repeats over K pairs at once


def _bev_rect(box) -> np.ndarray:
    """4x2 counterclockwise ground-plane footprint of an oriented (center, dims, yaw) box."""
    center, dims, yaw = box
    half = dims[:2] / 2.0
    local = np.array(
        [[half[0], half[1]], [-half[0], half[1]], [-half[0], -half[1]], [half[0], -half[1]]]
    )
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s], [s, c]])
    return center[:2] + local @ rot.T


def _clip_polygon(poly: np.ndarray, edge_a: np.ndarray, edge_b: np.ndarray) -> np.ndarray:
    """Clip a convex polygon against the half-plane left of edge a->b."""
    if len(poly) == 0:
        return poly
    edge = edge_b - edge_a
    # signed area sign: >= -tol keeps points on or left of the edge
    tol = 1e-12
    rel = poly - edge_a
    side = edge[0] * rel[:, 1] - edge[1] * rel[:, 0]
    out = []
    n = len(poly)
    for i in range(n):
        j = (i + 1) % n
        si, sj = side[i], side[j]
        if si >= -tol:
            out.append(poly[i])
        if (si >= -tol) != (sj >= -tol):
            denom = si - sj
            if abs(denom) > tol:
                t = si / denom
                out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.array(out) if out else np.empty((0, 2))


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def reference_bev_intersection_area(a, b) -> float:
    """Ground-plane intersection area of two oriented (center, dims, yaw) boxes (convex clipping)."""
    poly = _bev_rect(a)
    rect_b = _bev_rect(b)
    for i in range(4):
        poly = _clip_polygon(poly, rect_b[i], rect_b[(i + 1) % 4])
        if len(poly) == 0:
            return 0.0
    return _polygon_area(poly)


def reference_iou_3d(a, b) -> float:
    """Volumetric IoU of two (center, dims, yaw) boxes: BEV rotated-rectangle intersection times vertical overlap."""
    (center_a, dims_a, _), (center_b, dims_b, _) = a, b
    z_lo = max(center_a[2] - dims_a[2] / 2.0, center_b[2] - dims_b[2] / 2.0)
    z_hi = min(center_a[2] + dims_a[2] / 2.0, center_b[2] + dims_b[2] / 2.0)
    dz = z_hi - z_lo
    if dz <= 0.0:
        return 0.0
    inter = reference_bev_intersection_area(a, b) * dz
    if inter <= 0.0:
        return 0.0
    union = float(np.prod(dims_a)) + float(np.prod(dims_b)) - inter
    return inter / union


@pytest.fixture(scope="session")
def mc_samples():
    rng = np.random.default_rng(20240917)
    return rng.random((200_000, 3))
