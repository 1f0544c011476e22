"""Frames, projection, and oriented-box geometry.

Coordinate convention used throughout the library: y is the vertical
axis and the x-z plane is the ground. A box's length runs along its
local x axis, height along y, width along z, and yaw rotates about +y,
so bird's-eye-view (BEV) footprints live in the x-z plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera, DimensionMismatch

# An overlap at most this share of the smaller footprint counts as
# zero: clipping touching pairs (shared edges and corners) leaves
# rounding noise. Relative, so tiny boxes keep their overlap.
_AREA_REL_EPS = 1e-9
# Corners this close to the other footprint's boundary, relative to the
# pair's squared extent, count as on it.
_INSIDE_REL_TOL = 1e-12
# Footprint corners at local (+-length/2, +-width/2), counter-clockwise.
_CORNER_X = np.array([[1.0], [-1.0], [-1.0], [1.0]])
_CORNER_Z = np.array([[1.0], [1.0], [-1.0], [-1.0]])
# Index of the next vertex around a quad and around the 24 candidates.
_NEXT = np.array([1, 2, 3, 0])
_NEXT24 = np.roll(np.arange(24), -1)


def wrap_angle(theta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return float(np.mod(theta + np.pi, 2.0 * np.pi) - np.pi)


def rotation_y(yaw: float) -> np.ndarray:
    """Right-handed 3x3 rotation about the vertical (+y) axis."""
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


@dataclass
class PointCloud:
    """N points with 3D coordinates in meters and optional intensity.

    Treated as immutable: operations return new clouds and never write
    through to ``coords`` or ``intensity``.
    """

    coords: np.ndarray
    intensity: np.ndarray | None = None

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise DimensionMismatch(f"coords must be (N, 3), got {coords.shape}")
        if not np.isfinite(coords).all():
            raise ValueError("point coordinates must be finite")
        self.coords = coords
        if self.intensity is not None:
            intensity = np.asarray(self.intensity, dtype=np.float64)
            if intensity.shape != (coords.shape[0],):
                raise DimensionMismatch(
                    f"intensity has shape {intensity.shape}, "
                    f"expected ({coords.shape[0]},)"
                )
            self.intensity = intensity

    def __len__(self) -> int:
        return self.coords.shape[0]


@dataclass
class Box3D:
    """Oriented 3D box: center, sizes (length, height, width), yaw.

    Yaw is normalized to [-pi, pi) at construction. A box with yaw
    shifted by pi and length/width swapped describes the same cuboid;
    the overlap operations treat the two forms identically.
    """

    center: np.ndarray
    length: float
    height: float
    width: float
    yaw: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64)
        if center.shape != (3,):
            raise DimensionMismatch(f"center must be (3,), got {center.shape}")
        if not np.isfinite(center).all():
            raise ValueError("box center must be finite")
        if not (self.length > 0 and self.height > 0 and self.width > 0):
            raise ValueError("box sizes must be positive")
        self.center = center
        self.length = float(self.length)
        self.height = float(self.height)
        self.width = float(self.width)
        self.yaw = wrap_angle(float(self.yaw))

    @property
    def volume(self) -> float:
        return self.length * self.height * self.width


def _as_projection(m) -> np.ndarray:
    out = np.asarray(m, dtype=np.float64)
    if out.shape != (3, 4):
        raise DimensionMismatch(f"projection matrix must be (3, 4), got {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError("projection matrix must be finite")
    return out


def project_points(coords, projection) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project (N, 3) points through a 3x4 homogeneous projection matrix.

    Parameters
    ----------
    coords : (N, 3) array
        Points in the cloud frame, meters.
    projection : (3, 4) array
        Composed camera matrix (intrinsics times extrinsics).

    Returns
    -------
    u, v : (N,) ndarray
        Pixel coordinates after the perspective divide; NaN where the
        point lies at or behind the camera (depth <= 0).
    depth : (N,) ndarray
        Projected depth in meters.
    """
    m = _as_projection(projection)
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise DimensionMismatch(f"coords must be (N, 3), got {coords.shape}")
    uvd = coords @ m[:, :3].T + m[:, 3]
    depth = uvd[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        us = np.where(depth > 0, uvd[:, 0] / depth, np.nan)
        vs = np.where(depth > 0, uvd[:, 1] / depth, np.nan)
    return us, vs, depth


def project_point(point, projection) -> tuple[float, float, float]:
    """Project one point; :func:`project_points` on a single row.

    Raises
    ------
    BehindCamera
        When the projected depth is <= 0; such points are invisible and
        the caller must drop them.
    """
    p = np.asarray(point, dtype=np.float64).reshape(1, 3)
    us, vs, depths = project_points(p, projection)
    depth = float(depths[0])
    if depth <= 0.0:
        raise BehindCamera(f"point {p[0].tolist()} projects to depth {depth}")
    return float(us[0]), float(vs[0]), depth


def back_project(u: float, v: float, depth: float, projection) -> np.ndarray:
    """Invert :func:`project_point` given the depth.

    Requires the left 3x3 block of the projection matrix to be
    non-singular.
    """
    m = _as_projection(projection)
    rhs = depth * np.array([u, v, 1.0]) - m[:, 3]
    return np.linalg.solve(m[:, :3], rhs)


def in_image_bounds(us, vs, width, height) -> np.ndarray:
    """Mask of pixel coordinates inside [0, width-1] x [0, height-1].

    NaN coordinates (points behind the camera) are outside.
    """
    return (us >= 0) & (us <= width - 1) & (vs >= 0) & (vs <= height - 1)


def bilinear_sample(feature_map, us, vs) -> np.ndarray:
    """Sample an (H, W, C) feature map at fractional pixel coordinates.

    ``us`` and ``vs`` broadcast against each other; the result has their
    shape plus a trailing C axis, so scalar coordinates give one (C,)
    row. Pixel centers sit at integer coordinates. Coordinates outside
    [0, W-1] x [0, H-1], and NaN coordinates, give all-zero rows,
    mirroring the convention that invisible points contribute no image
    feature.
    """
    fmap = np.asarray(feature_map, dtype=np.float64)
    if fmap.ndim != 3:
        raise DimensionMismatch(f"feature map must be (H, W, C), got {fmap.shape}")
    h, w, c = fmap.shape
    us, vs = np.broadcast_arrays(np.asarray(us, dtype=np.float64),
                                 np.asarray(vs, dtype=np.float64))
    out = np.zeros(us.shape + (c,))
    inside = in_image_bounds(us, vs, w, h)
    if inside.any():
        us, vs = us[inside], vs[inside]
        u0 = np.floor(us).astype(np.intp)
        v0 = np.floor(vs).astype(np.intp)
        u1 = np.minimum(u0 + 1, w - 1)
        v1 = np.minimum(v0 + 1, h - 1)
        du = (us - u0)[:, None]
        dv = (vs - v0)[:, None]
        top = (1.0 - du) * fmap[v0, u0] + du * fmap[v0, u1]
        bottom = (1.0 - du) * fmap[v1, u0] + du * fmap[v1, u1]
        out[inside] = (1.0 - dv) * top + dv * bottom
    return out


def gather_point_image_features(
    cloud: PointCloud, projection, feature_map
) -> tuple[np.ndarray, np.ndarray]:
    """Project every point and sample the image feature map at it.

    Points behind the camera or landing outside the image get an
    all-zero feature row and a False visibility bit, so the output
    keeps one row per point.

    Returns
    -------
    features : (N, C) ndarray
    visible : (N,) bool ndarray
    """
    us, vs, _ = project_points(cloud.coords, projection)
    features = bilinear_sample(feature_map, us, vs)
    h, w = np.shape(feature_map)[:2]
    return features, in_image_bounds(us, vs, w, h)


def _circumradius(box: Box3D) -> float:
    return 0.5 * math.hypot(box.length, box.width)


def _apart(dx, dz, ra, rb):
    """Circumradius gate: True where two footprints cannot overlap.

    Elementwise, so a pair given as floats and the same pair inside
    arrays get the same decision.
    """
    r = ra + rb
    return dx * dx + dz * dz > r * r


def _footprints(boxes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """BEV footprints of a sequence of boxes, as arrays.

    Returns centers (N, 2), counter-clockwise corners (N, 4, 2), areas
    (N,) and circumradii (N,). Each row comes from elementwise
    arithmetic on its own box, so a box gets the same bits in any batch.
    """
    rows = np.array(
        [(b.center[0], b.center[2], 0.5 * b.length, 0.5 * b.width,
          math.cos(b.yaw), -math.sin(b.yaw), math.sin(b.yaw), math.cos(b.yaw),
          b.length * b.width, _circumradius(b)) for b in boxes],
        dtype=np.float64,
    ).reshape(-1, 10)
    # corner = center + lx * (cos, -sin) + lz * (sin, cos), with the
    # local offsets (lx, lz) = (+-length/2, +-width/2)
    lx = rows[:, None, 2:3] * _CORNER_X
    lz = rows[:, None, 3:4] * _CORNER_Z
    corners = rows[:, None, 0:2] + (lx * rows[:, None, 4:6] + lz * rows[:, None, 6:8])
    return rows[:, 0:2], corners, rows[:, 8], rows[:, 9]


def footprint_corners(box: Box3D) -> np.ndarray:
    """BEV footprint corners in the x-z plane, counter-clockwise, (4, 2)."""
    return _footprints([box])[1][0]


def _row_sum(x: np.ndarray) -> np.ndarray:
    # sums over axis 1 in a fixed order with elementwise adds, so a
    # row's bits never depend on how many rows share the call
    while x.shape[1] % 2 == 0:
        half = x.shape[1] // 2
        x = x[:, :half] + x[:, half:]
    out = x[:, 0]
    for k in range(1, x.shape[1]):
        out = out + x[:, k]
    return out


def _overlap_areas(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Overlap areas of M footprint pairs, (M, 4, 2) x (M, 4, 2) -> (M,).

    The overlap of two convex quads is the convex polygon whose vertices
    are the corners of each quad inside the other and the crossings of
    their edges. These (at most 24) candidates are ordered by angle
    about their centroid and summed with the shoelace formula, as in
    the OpenPCDet ``iou3d_nms`` kernels. A pair's
    values pass only through elementwise arithmetic, maxima, stable row
    sorts and fixed-order row sums, so it gets the same bits alone or
    inside any batch. Overlaps at most a small share of the smaller
    footprint, the rounding noise of touching pairs, are returned as 0.
    """
    m = a.shape[0]
    rows = np.arange(m)[:, None]
    # coordinates relative to a's center keep the products small
    o = 0.5 * (a[:, :1] + a[:, 2:3])
    pa, pb = a - o, b - o
    ea, eb = pa[:, _NEXT] - pa, pb[:, _NEXT] - pb
    # (M, 4, 4) over corner/edge i of a and corner/edge j of b:
    # side_a[i, j] > 0 puts corner i of a on the inner side of edge j of
    # b, side_b[i, j] > 0 corner j of b on the inner side of edge i of a
    w = pb[:, None] - pa[:, :, None]
    side_a = w[..., 0] * eb[:, None, :, 1] - w[..., 1] * eb[:, None, :, 0]
    side_b = ea[:, :, None, 0] * w[..., 1] - ea[:, :, None, 1] * w[..., 0]
    # sides within the tolerance, relative to the pair's squared extent,
    # count as on the line: such corners stay inside despite rounding,
    # and only clear sign changes make crossings, so (nearly) collinear
    # edges, whose crossing is ill-conditioned, give none
    tol = _INSIDE_REL_TOL * np.abs(w).max(axis=(1, 2, 3))[:, None, None] ** 2
    sign_a = (side_a > tol).view(np.int8) - (side_a < -tol).view(np.int8)
    sign_b = (side_b > tol).view(np.int8) - (side_b < -tol).view(np.int8)
    # edge i of a crosses edge j of b where the ends of each lie on
    # opposite sides of the other's line, at t in (0, 1) along edge i
    hit = (sign_a * sign_a[:, _NEXT] < 0) & (sign_b * sign_b[:, :, _NEXT] < 0)
    t = side_a / np.where(hit, side_a - side_a[:, _NEXT], 1.0)
    crossings = pa[:, :, None] + t[..., None] * ea[:, :, None]
    pts = np.concatenate([pa, pb, crossings.reshape(m, 16, 2)], axis=1)
    valid = np.concatenate(
        [(sign_a >= 0).all(axis=2), (sign_b >= 0).all(axis=1),
         hit.reshape(m, 16)], axis=1)
    # order by a trig-free pseudo-angle in [-1, 3) about the centroid,
    # which lies inside the overlap; candidates left out sort last and
    # then repeat the first vertex, which adds nothing to the sum
    count = np.maximum(valid.sum(axis=1), 1)[:, None]
    d = pts - (_row_sum(np.where(valid[..., None], pts, 0.0)) / count)[:, None]
    r = np.abs(d[..., 0]) + np.abs(d[..., 1])
    p = d[..., 1] / np.where(r > 0.0, r, 1.0)
    key = np.where(valid, np.where(d[..., 0] >= 0.0, p, 2.0 - p), np.inf)
    order = np.argsort(key, axis=1, kind="stable")
    order = np.where(valid[rows, order], order, order[:, :1])
    v = d[rows, order]
    vn = v[:, _NEXT24]
    area = 0.5 * _row_sum(v[..., 0] * vn[..., 1] - v[..., 1] * vn[..., 0])
    own = np.minimum(ea[:, 0, 0] * ea[:, 1, 1] - ea[:, 0, 1] * ea[:, 1, 0],
                     eb[:, 0, 0] * eb[:, 1, 1] - eb[:, 0, 1] * eb[:, 1, 0])
    return np.where(area > _AREA_REL_EPS * own, area, 0.0)


def intersection_area_bev(a: Box3D, b: Box3D) -> float:
    """Footprint overlap area of two boxes in the ground plane."""
    if _apart(a.center[0] - b.center[0], a.center[2] - b.center[2],
              _circumradius(a), _circumradius(b)):
        return 0.0
    corners = _footprints([a, b])[1]
    return float(_overlap_areas(corners[:1], corners[1:])[0])


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Intersection over union of the two yaw-rotated footprints, in [0, 1]."""
    inter = intersection_area_bev(a, b)
    if inter == 0.0:
        return 0.0
    union = a.length * a.width + b.length * b.width - inter
    return min(1.0, inter / union)


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volume intersection over union: BEV overlap times vertical overlap."""
    inter_area = intersection_area_bev(a, b)
    if inter_area == 0.0:
        return 0.0
    lo = max(a.center[1] - a.height / 2.0, b.center[1] - b.height / 2.0)
    hi = min(a.center[1] + a.height / 2.0, b.center[1] + b.height / 2.0)
    if hi <= lo:
        return 0.0
    inter_vol = inter_area * (hi - lo)
    union = a.volume + b.volume - inter_vol
    return min(1.0, inter_vol / union)


def _greedy_nms(boxes, scores, iou_threshold: float):
    """Yield the indices :func:`nms` keeps, best first.

    A pick is final before any later box is looked at, so a caller that
    needs the first k stops after k picks. Each kept box is tested only
    against the later boxes still unsuppressed: the circumradius gate in
    one array op, then the survivors in one overlap-kernel call, which
    gives each pair the same bits as :func:`iou_bev`.
    """
    if len(boxes) != len(scores):
        raise DimensionMismatch(
            f"{len(boxes)} boxes but {len(scores)} scores"
        )
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    order = np.argsort(-scores, kind="stable")
    centers, corners, areas, radii = _footprints([boxes[i] for i in order])
    alive = np.ones(len(order), dtype=bool)
    for pos in range(len(order)):
        if not alive[pos]:
            continue
        yield int(order[pos])
        rest = pos + 1 + np.flatnonzero(alive[pos + 1:])
        d = centers[rest] - centers[pos]
        near = rest[~_apart(d[:, 0], d[:, 1], radii[pos], radii[rest])]
        if near.size:
            inter = _overlap_areas(
                np.broadcast_to(corners[pos], (near.size, 4, 2)), corners[near])
            iou = np.minimum(1.0, inter / (areas[pos] + areas[near] - inter))
            alive[near[iou > iou_threshold]] = False


def nms(boxes, scores, iou_threshold: float) -> list[int]:
    """Greedy non-maximum suppression on BEV IoU.

    Repeatedly keeps the highest-scoring remaining box and suppresses
    every box whose BEV IoU with it exceeds the threshold. Score ties
    are broken toward the lower index, which makes the output
    independent of input ordering when scores are distinct.

    Returns the kept indices in descending-score order.
    """
    return list(_greedy_nms(boxes, scores, iou_threshold))


def enlarge_box(box: Box3D, amount: float) -> Box3D:
    """Grow every size dimension by ``amount``; center and yaw unchanged."""
    if amount < 0:
        raise ValueError(f"enlargement must be >= 0, got {amount}")
    return Box3D(
        box.center.copy(),
        box.length + amount,
        box.height + amount,
        box.width + amount,
        box.yaw,
    )


def points_in_box(cloud: PointCloud, box: Box3D) -> np.ndarray:
    """Indices of points inside the closed box, faces included.

    Points are moved into the box's canonical frame (centered,
    yaw-derotated) and compared against the half sizes.
    """
    local = (cloud.coords - box.center) @ rotation_y(box.yaw)
    half = np.array([box.length, box.height, box.width]) / 2.0
    return np.flatnonzero((np.abs(local) <= half).all(axis=1))


def rotate_y(cloud: PointCloud, angle: float) -> PointCloud:
    """Rigid rotation of the cloud about the vertical axis."""
    return PointCloud(cloud.coords @ rotation_y(angle).T, cloud.intensity)


def flip(cloud: PointCloud, axis: str) -> PointCloud:
    """Mirror one horizontal axis ('x' or 'z'); intensity untouched."""
    if axis not in ("x", "z"):
        raise ValueError(f"flip axis must be 'x' or 'z', got {axis!r}")
    coords = cloud.coords.copy()
    coords[:, 0 if axis == "x" else 2] *= -1.0
    return PointCloud(coords, cloud.intensity)


def scale(cloud: PointCloud, factor: float) -> PointCloud:
    """Uniformly scale coordinates; intensity untouched."""
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    return PointCloud(cloud.coords * float(factor), cloud.intensity)


def crop_range(cloud: PointCloud, x_range, y_range, z_range) -> PointCloud:
    """Keep points inside the closed axis-aligned ranges."""
    ranges = []
    for name, rng in (("x", x_range), ("y", y_range), ("z", z_range)):
        lo, hi = float(rng[0]), float(rng[1])
        if not lo < hi:
            raise ValueError(f"{name}_range must satisfy min < max, got {rng}")
        ranges.append((lo, hi))
    c = cloud.coords
    mask = np.ones(len(cloud), dtype=bool)
    for axis, (lo, hi) in enumerate(ranges):
        mask &= (c[:, axis] >= lo) & (c[:, axis] <= hi)
    intensity = cloud.intensity[mask] if cloud.intensity is not None else None
    return PointCloud(c[mask], intensity)
