import math

import numpy as np
import pytest

from mono3dt.geometry import Box2D, Box3D, CameraIntrinsics, CameraPose


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


def raster_iou_2d(a: Box2D, b: Box2D, cells: int = 400) -> float:
    """Rasterization oracle for axis-aligned IoU."""
    x0 = min(a.x_min, b.x_min)
    x1 = max(a.x_max, b.x_max)
    y0 = min(a.y_min, b.y_min)
    y1 = max(a.y_max, b.y_max)
    xs = np.linspace(x0, x1, cells, endpoint=False) + (x1 - x0) / (2 * cells)
    ys = np.linspace(y0, y1, cells, endpoint=False) + (y1 - y0) / (2 * cells)
    gx, gy = np.meshgrid(xs, ys)
    in_a = (gx >= a.x_min) & (gx <= a.x_max) & (gy >= a.y_min) & (gy <= a.y_max)
    in_b = (gx >= b.x_min) & (gx <= b.x_max) & (gy >= b.y_min) & (gy <= b.y_max)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def bev_point_mask(box: Box3D, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Boolean mask of grid points inside the box's ground-plane footprint."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx = gx - box.center[0]
    dy = gy - box.center[1]
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    return (np.abs(lx) <= box.length / 2.0) & (np.abs(ly) <= box.width / 2.0)


def raster_bev_intersection(a: Box3D, b: Box3D, cells: int = 1200) -> float:
    """Grid-sampling oracle for the BEV rotated-rectangle intersection area."""
    ra = max(a.length, a.width)
    rb = max(b.length, b.width)
    x0 = min(a.center[0] - ra, b.center[0] - rb)
    x1 = max(a.center[0] + ra, b.center[0] + rb)
    y0 = min(a.center[1] - ra, b.center[1] - rb)
    y1 = max(a.center[1] + ra, b.center[1] + rb)
    xs = np.linspace(x0, x1, cells, endpoint=False) + (x1 - x0) / (2 * cells)
    ys = np.linspace(y0, y1, cells, endpoint=False) + (y1 - y0) / (2 * cells)
    gx, gy = np.meshgrid(xs, ys)
    inside = bev_point_mask(a, gx, gy) & bev_point_mask(b, gx, gy)
    cell_area = (x1 - x0) * (y1 - y0) / (cells * cells)
    return float(np.count_nonzero(inside) * cell_area)


def monte_carlo_iou_3d(a: Box3D, b: Box3D, samples: np.ndarray) -> float:
    """Volume-sampling IoU oracle.

    `samples` is an (N, 3) block of uniform [0, 1) triples, rescaled to the
    intersection of the two boxes' axis-aligned bounds. The second box is
    only tested on points already inside the first, which keeps the
    million-sample sweep affordable.
    """

    def aabb(box: Box3D):
        corners_xy = np.array(
            [
                [box.length / 2, box.width / 2],
                [box.length / 2, -box.width / 2],
                [-box.length / 2, box.width / 2],
                [-box.length / 2, -box.width / 2],
            ]
        )
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        rot = np.array([[c, -s], [s, c]])
        pts = corners_xy @ rot.T + box.center[:2]
        lo = np.array([pts[:, 0].min(), pts[:, 1].min(), box.center[2] - box.height / 2])
        hi = np.array([pts[:, 0].max(), pts[:, 1].max(), box.center[2] + box.height / 2])
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

    def inside(box: Box3D, x, y, z):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        # Python floats keep the float32 samples float32 under NumPy 2 promotion
        cx, cy, cz = (float(v) for v in box.center)
        dx = x - cx
        dy = y - cy
        mask = np.abs(c * dx + s * dy) <= box.length / 2.0
        mask &= np.abs(-s * dx + c * dy) <= box.width / 2.0
        mask &= np.abs(z - cz) <= box.height / 2.0
        return mask

    in_a = inside(a, px, py, pz)
    hits = int(np.count_nonzero(inside(b, px[in_a], py[in_a], pz[in_a])))
    inter = hits / len(samples) * float(np.prod(hi - lo))
    union = a.volume + b.volume - inter
    if union <= 0:
        return 0.0
    return inter / union


# --- reference 3D IoU: the scalar Sutherland-Hodgman clipper, one pair at a
# time, whose arithmetic geometry.iou_3d_pairs repeats over K pairs at once


def _bev_rect(box: Box3D) -> np.ndarray:
    """4x2 counterclockwise ground-plane footprint of an oriented box."""
    half = box.dimensions[:2] / 2.0
    local = np.array(
        [[half[0], half[1]], [-half[0], half[1]], [-half[0], -half[1]], [half[0], -half[1]]]
    )
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, -s], [s, c]])
    return box.center[:2] + local @ rot.T


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


def reference_bev_intersection_area(a: Box3D, b: Box3D) -> float:
    """Ground-plane intersection area of two oriented boxes (convex clipping)."""
    poly = _bev_rect(a)
    rect_b = _bev_rect(b)
    for i in range(4):
        poly = _clip_polygon(poly, rect_b[i], rect_b[(i + 1) % 4])
        if len(poly) == 0:
            return 0.0
    return _polygon_area(poly)


def reference_iou_3d(a: Box3D, b: Box3D) -> float:
    """Volumetric IoU: BEV rotated-rectangle intersection times vertical overlap."""
    z_lo = max(a.center[2] - a.height / 2.0, b.center[2] - b.height / 2.0)
    z_hi = min(a.center[2] + a.height / 2.0, b.center[2] + b.height / 2.0)
    dz = z_hi - z_lo
    if dz <= 0.0:
        return 0.0
    inter = reference_bev_intersection_area(a, b) * dz
    if inter <= 0.0:
        return 0.0
    union = a.volume + b.volume - inter
    return inter / union


@pytest.fixture(scope="session")
def mc_samples():
    rng = np.random.default_rng(20240917)
    return rng.random((200_000, 3))
