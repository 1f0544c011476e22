"""Frames, projection, and oriented-box geometry.

Coordinate convention used throughout the library: y is the vertical
axis and the x-z plane is the ground. A box's length runs along its
local x axis, height along y, width along z, and yaw rotates about +y,
so bird's-eye-view (BEV) footprints live in the x-z plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera, DimensionMismatch

# Intersection areas below this are treated as zero; resolves polygon
# clipping degeneracies (shared edges, touching corners).
_AREA_EPS = 1e-9


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


def footprint_corners(box: Box3D) -> np.ndarray:
    """BEV footprint corners in the x-z plane, counter-clockwise, (4, 2)."""
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    hl, hw = 0.5 * box.length, 0.5 * box.width
    local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
    rot = np.array([[c, s], [-s, c]])
    return local @ rot.T + np.array([box.center[0], box.center[2]])


def _edge_side(a, d, p) -> float:
    # cross product of the directed edge d with (p - a); >= 0 is inside
    # for a counter-clockwise clip polygon
    return d[0] * (p[1] - a[1]) - d[1] * (p[0] - a[0])


def _line_intersect(p1, p2, a, b) -> np.ndarray:
    d1 = p2 - p1
    d2 = b - a
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0.0:
        # parallel segment; only reached when an endpoint already lies
        # on the clip line, so either endpoint is a valid intersection
        return p1
    t = ((a[0] - p1[0]) * d2[1] - (a[1] - p1[1]) * d2[0]) / denom
    return p1 + t * d1


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> list[np.ndarray]:
    """Sutherland-Hodgman clip of a polygon by a convex CCW polygon."""
    output = [np.asarray(p, dtype=np.float64) for p in subject]
    k = len(clip)
    for i in range(k):
        if not output:
            break
        a, b = clip[i], clip[(i + 1) % k]
        d = b - a
        pts = output
        output = []
        prev = pts[-1]
        prev_in = _edge_side(a, d, prev) >= 0.0
        for p in pts:
            p_in = _edge_side(a, d, p) >= 0.0
            if p_in:
                if not prev_in:
                    output.append(_line_intersect(prev, p, a, b))
                output.append(p)
            elif prev_in:
                output.append(_line_intersect(prev, p, a, b))
            prev, prev_in = p, p_in
    return output


def _polygon_area(pts: list[np.ndarray]) -> float:
    if len(pts) < 3:
        return 0.0
    arr = np.asarray(pts)
    x, z = arr[:, 0], arr[:, 1]
    return 0.5 * abs(float(x @ np.roll(z, -1) - z @ np.roll(x, -1)))


def intersection_area_bev(a: Box3D, b: Box3D) -> float:
    """Footprint overlap area of two boxes in the ground plane."""
    # circumradius gate: far-apart footprints cannot overlap
    ra = 0.5 * np.hypot(a.length, a.width)
    rb = 0.5 * np.hypot(b.length, b.width)
    dx = a.center[0] - b.center[0]
    dz = a.center[2] - b.center[2]
    if dx * dx + dz * dz > (ra + rb) ** 2:
        return 0.0
    area = _polygon_area(_clip_polygon(footprint_corners(a), footprint_corners(b)))
    return area if area > _AREA_EPS else 0.0


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


def nms(boxes, scores, iou_threshold: float) -> list[int]:
    """Greedy non-maximum suppression on BEV IoU.

    Repeatedly keeps the highest-scoring remaining box and suppresses
    every box whose BEV IoU with it exceeds the threshold. Score ties
    are broken toward the lower index, which makes the output
    independent of input ordering when scores are distinct.

    Returns the kept indices in descending-score order.
    """
    if len(boxes) != len(scores):
        raise DimensionMismatch(
            f"{len(boxes)} boxes but {len(scores)} scores"
        )
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    if not np.isfinite(np.asarray(scores, dtype=np.float64)).all():
        raise ValueError("scores must be finite")
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    suppressed = [False] * len(boxes)
    kept: list[int] = []
    for i in order:
        if suppressed[i]:
            continue
        kept.append(i)
        for j in order:
            if not suppressed[j] and j != i:
                if iou_bev(boxes[i], boxes[j]) > iou_threshold:
                    suppressed[j] = True
    return kept


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
