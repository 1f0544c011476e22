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

from .numerics import _real, checked_array, fold

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
# A Python float, so that strip edges stay Python floats (bisect and the
# FPS loop compare and add them faster than numpy scalars).
_TINY = float(np.finfo(np.float64).tiny)
# Box sizes lie in this closed range. It keeps every product the IoU
# functions form finite and normal: volumes (1e-150 to 1e150), the
# overlap kernel's products of two coordinate differences and its side
# tolerance (1e-12 times a squared extent, at least 1e-112), and the
# NMS bound's e^2 / h (at most about 4e150; see there). So no area,
# volume or union is 0.
_SIZE_MIN = 1e-50
_SIZE_MAX = 1e50
_SIZE_RANGE = f"[{_SIZE_MIN!r}, {_SIZE_MAX!r}]"
# Greedy NMS settles the score order in blocks of this many live boxes.
_NMS_BLOCK = 64
# The overlap kernel takes its pairs in slices of this many, which keeps
# its temporaries (a few KB a pair) near the size of a core's L2 cache:
# on 16k pairs, slices of 1024 cost 6.2 us a pair against 8.3 us for one
# pass (2 vCPUs, numpy 2.4.6).
_KERNEL_ROWS = 1024


def wrap_angle(theta: float) -> float:
    """Wrap a finite angle into [-pi, pi)."""
    return fold(_real(theta, "theta"), np.pi)


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
        self.coords = checked_array(self.coords, "point coordinates", ("N", 3),
                                    finite=True)
        if self.intensity is not None:
            self.intensity = checked_array(self.intensity, "point intensities",
                                           (len(self.coords),), finite=True)

    def __len__(self) -> int:
        return self.coords.shape[0]


@dataclass
class Box3D:
    """Oriented 3D box: center, sizes (length, height, width), yaw.

    Sizes lie in [1e-50, 1e50], where every area, volume and overlap
    product the IoU functions form is finite and nonzero; a size outside
    it is a DomainError naming the size. The yaw is finite and is
    normalized to [-pi, pi) at construction. A box with yaw shifted by
    pi, or by pi/2 with length and width swapped, describes the same
    cuboid; the overlap operations agree on the forms up to rounding.
    """

    center: np.ndarray
    length: float
    height: float
    width: float
    yaw: float

    def __post_init__(self):
        self.center = checked_array(self.center, "box center", (3,), finite=True)
        self.length = _real(self.length, "length", _SIZE_MIN, _SIZE_MAX, _SIZE_RANGE)
        self.height = _real(self.height, "height", _SIZE_MIN, _SIZE_MAX, _SIZE_RANGE)
        self.width = _real(self.width, "width", _SIZE_MIN, _SIZE_MAX, _SIZE_RANGE)
        self.yaw = fold(_real(self.yaw, "yaw"), np.pi)

    @property
    def volume(self) -> float:
        return self.length * self.height * self.width


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
    m = checked_array(projection, "projection matrix", (3, 4), finite=True)
    coords = checked_array(coords, "coords", ("N", 3))
    uvd = coords @ m[:, :3].T + m[:, 3]
    depth = uvd[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        us = np.where(depth > 0, uvd[:, 0] / depth, np.nan)
        vs = np.where(depth > 0, uvd[:, 1] / depth, np.nan)
    return us, vs, depth


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
    fmap = checked_array(feature_map, "feature map", ("H", "W", "C"))
    h, w, c = fmap.shape
    us, vs = np.broadcast_arrays(np.asarray(us, dtype=np.float64),
                                 np.asarray(vs, dtype=np.float64))
    out = np.zeros(us.shape + (c,))
    inside = in_image_bounds(us, vs, w, h)
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


# The strip rule of points_in_box, farthest point sampling and aad. A
# query with centers x0 in [left, right] wants every point with
# |x - x0| <= r (1 + 16u) for some x0, u = 2**-53, and keeps those with
# fl(left - reach) <= x <= fl(right + reach), reach = _x_reach(r, pad),
# pad >= 1e-9 * max(|left|, |right|) + tiny. The edges round by at most
# u * (|x0| + reach), reach by a few u * reach, and a value that
# underflows by less than tiny; the margin 1e-9 and the pad cover that
# with room to spare, so each wanted point lies strictly inside. An
# infinite radius gives every point. The callers' radii qualify:
# - Distance queries (sampling): d2 adds non-negative terms to
#   fl(dx * dx), dx = fl(x - x0), and rounding is monotone, so
#   fl(dx * dx) <= bound and, with r = fl(sqrt(bound)),
#   |x - x0| <= r (1 + 3u).
# - Box containment, with dx, dz the rounded offsets from the center and
#   c, s the rounded cosine and sine (c^2 + s^2 >= 1 - 4u): lx = c dx - s dz
#   and lz = s dx + c dz are computed within e = 2u (|dx| + |dz|), fused
#   or not (the height term is times an exact 0). Passing |lx| <= l/2 and
#   |lz| <= w/2 gives (c^2 + s^2) |dx| = |c lx + s lz|
#   <= sqrt(c^2 + s^2) hypot(l/2 + e, w/2 + e), and the same for |dz|, so
#   |x - x0| and |z - z0| are at most r (1 + 12u), r = 0.5 hypot(l, w).


def _x_pad(x_max: float) -> float:
    """The pad of the strip rule above, for centers with |x0| <= x_max."""
    return 1e-9 * x_max + _TINY


def _x_reach(radius: float, pad: float) -> float:
    """Half-width of the x-strip that holds every point within ``radius``."""
    return radius * (1.0 + 1e-9) + pad


# The IoU bound of greedy NMS. Footprint b lies inside its bounding
# rectangle in a's local axes (x along (cos, -sin), as in _footprints),
# whose half-extents about b's center are |cos D| lb + |sin D| wb and
# |sin D| lb + |cos D| wb, with D the yaw difference and lb, wb b's half
# sizes. So the overlap of a and b is at most the overlap of a with that
# rectangle, and at most the smaller area; IoU = I / (A + B - I) grows
# with I, so a pair whose bound gives an IoU <= threshold cannot
# suppress. In floating point (u = 2**-53) the bound is compared with
# what the kernel computes, for a pair that passed the circumradius gate
# (center distance <= e = ra + rb), with h its shortest half side, in
# the pair's own frame: a's center at the origin, b's at the rounded
# center differences that the gate, the bound and the kernel share.
# - Every vertex the kernel sums lies in both footprints grown by
#   g0 = 2e-12 e^2 / h + a few u e in each half side. A corner counts as
#   inside the other footprint up to tol / edge length
#   <= 4e-12 e^2 / 2h beyond its edges, tol being the kernel's side
#   tolerance. A crossing counts only where the ends of both edges lie
#   beyond tol on either side of the other's line; that keeps it, wherever
#   the rounding of t slides it along its own edge, on the other edge
#   within a few u e. Corner offsets and shifted corners round by a few u e.
# - Sorted by angle about their mean, the vertices make a simple polygon
#   inside their hull, so the kernel's overlap I is at most the overlap
#   of the grown footprints plus the rounding of its shoelace sum, which
#   is a few hundred u (e + 2 g0)^2.
# - The bound grows every half side by g = 1e-9 e + 1e-11 e^2 / h, far
#   more than g0 plus the few roundings of its own arithmetic, and adds
#   1e-9 (e + 2g)^2, so the overlap ov it computes is >= I.
# - The kernel's IoU is fl(I / fl(fl(A + B) - I)) and rounding is
#   monotone, so a pair with ov <= fl(t fl(fl(A + B) - ov)), where
#   t = threshold (1 - 1e-6), has a kernel IoU below the threshold. The
#   denominator is positive there, since ov > 0. The 1e-6 is spare: the
#   argument above needs only t <= threshold.
# For the sizes Box3D accepts, e^2 stays normal, and e^2 / h and
# (e + 2g)^2 finite, wherever the centers lie.


def _iou_may_exceed(ta, tb, threshold: float) -> np.ndarray:
    """False where the bound above shows a pair's IoU <= ``threshold``.

    ``ta`` and ``tb`` hold the pairs' columns of the _footprints table,
    (10, P) each.
    """
    xa, za, la, wa, ca, _, sa, _, area_a, ra = ta
    xb, zb, lb, wb, cb, _, sb, _, area_b, rb = tb
    e = ra + rb
    grow = 1e-9 * e + 1e-11 * e * e / np.minimum(np.minimum(la, wa), np.minimum(lb, wb))
    la, wa, lb, wb = la + grow, wa + grow, lb + grow, wb + grow
    # b's center and bounding rectangle in a's local axes
    dx, dz = xb - xa, zb - za
    u, v = np.abs(dx * ca - dz * sa), np.abs(dx * sa + dz * ca)
    cd, sd = np.abs(ca * cb + sa * sb), np.abs(sb * ca - cb * sa)
    hx, hz = cd * lb + sd * wb, sd * lb + cd * wb
    # overlap lengths of [-la, la] and [u - hx, u + hx], and likewise in z
    ox = np.maximum(np.minimum(2.0 * np.minimum(la, hx), la + hx - u), 0.0)
    oz = np.maximum(np.minimum(2.0 * np.minimum(wa, hz), wa + hz - v), 0.0)
    ov = np.minimum(ox * oz, 4.0 * np.minimum(la * wa, lb * wb))
    ov += 1e-9 * (e + 2.0 * grow) ** 2
    return ov > threshold * (1.0 - 1e-6) * (area_a + area_b - ov)


def _apart(dx, dz, ra, rb):
    """Circumradius gate: True where two footprints cannot overlap.

    Elementwise, so a pair given as floats and the same pair inside
    arrays get the same decision. A difference or square past the float
    range is inf, so apart: Python floats overflow to inf silently, and
    :func:`_near` has numpy do the same.
    """
    r = ra + rb
    return dx * dx + dz * dz > r * r


def _footprints(boxes) -> tuple[np.ndarray, np.ndarray]:
    """BEV footprints of a sequence of boxes, as arrays.

    Returns an (N, 10) table with the columns center x, center z, half
    length, half width, cos yaw, -sin yaw, sin yaw, cos yaw, area and
    circumradius, and the counter-clockwise corners (N, 4, 2) as offsets
    from the box's own center. Each row comes from elementwise
    arithmetic on its own box, so a box gets the same bits in any batch.
    """
    # one flat list of Python floats converts faster than a list of rows
    table = []
    for b in boxes:
        x, _, z = b.center.tolist()
        c, s = math.cos(b.yaw), math.sin(b.yaw)
        table += (x, z, 0.5 * b.length, 0.5 * b.width, c, -s, s, c,
                  b.length * b.width, _circumradius(b))
    rows = np.array(table, dtype=np.float64).reshape(-1, 10)
    # corner offset = lx * (cos, -sin) + lz * (sin, cos), with the local
    # offsets (lx, lz) = (+-length/2, +-width/2)
    lx = rows[:, None, 2:3] * _CORNER_X
    lz = rows[:, None, 3:4] * _CORNER_Z
    return rows, lx * rows[:, None, 4:6] + lz * rows[:, None, 6:8]


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


def _overlap_areas(a: np.ndarray, b: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Overlap areas of M footprint pairs, (M, 4, 2) x (M, 4, 2) -> (M,).

    ``a`` and ``b`` hold corner offsets from each box's center and
    ``shift`` (M, 2) b's center minus a's: a's center is the origin. The
    overlap of two convex quads is the convex polygon whose vertices are
    the corners of each quad inside the other and the crossings of their
    edges. These (at most 24) candidates are ordered by angle about
    their centroid and summed with the shoelace formula, as in the
    OpenPCDet ``iou3d_nms`` kernels. A pair's values pass only through
    elementwise arithmetic, maxima, stable row sorts and fixed-order row
    sums, so it gets the same bits alone or inside any batch; more than
    _KERNEL_ROWS pairs go through in slices of that many. Overlaps at
    most a small share of the smaller footprint, the rounding noise of
    touching pairs, are returned as 0.
    """
    m = a.shape[0]
    if m > _KERNEL_ROWS:
        cut = [slice(s, s + _KERNEL_ROWS) for s in range(0, m, _KERNEL_ROWS)]
        return np.concatenate([_overlap_areas(a[k], b[k], shift[k]) for k in cut])
    rows = np.arange(m)[:, None]
    pa, pb = a, b + shift[:, None]
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


def _intersection_area_bev(a: Box3D, b: Box3D) -> float:
    """Footprint overlap area of two boxes in the ground plane."""
    (xa, _, za), (xb, _, zb) = a.center.tolist(), b.center.tolist()
    dx, dz = xb - xa, zb - za
    if _apart(dx, dz, _circumradius(a), _circumradius(b)):
        return 0.0
    corners = _footprints([a, b])[1]
    return float(_overlap_areas(corners[:1], corners[1:], np.array([[dx, dz]]))[0])


def _iou(inter, size_a, size_b):
    """The one IoU rule, elementwise: inter / (size_a + size_b - inter),
    clipped to 1. Box3D's size range keeps every size positive, and the
    union is at least the larger size up to rounding, so it is never 0."""
    return np.minimum(1.0, inter / (size_a + size_b - inter))


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Intersection over union of the two yaw-rotated footprints, in [0, 1];
    of the centers, only their rounded differences count. The error is about
    2e-16 times a footprint's length/width ratio; past a ratio of about 1e11
    the kernel's side tolerance is wider than the short side."""
    return float(_iou(_intersection_area_bev(a, b), a.length * a.width,
                      b.length * b.width))


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volume intersection over union: BEV overlap times vertical overlap;
    of the centers, only their rounded differences count. Its error, as
    iou_bev's, is about 2e-16 times the footprint's length/width ratio."""
    # Python floats: a difference past the float range is inf, unwarned
    ha, hb = 0.5 * a.height, 0.5 * b.height
    dy = float(b.center[1]) - float(a.center[1])
    inter = _intersection_area_bev(a, b) * max(0.0, min(ha, dy + hb) - max(-ha, dy - hb))
    return float(_iou(inter, a.volume, b.volume))


def _near(cols, first, second) -> np.ndarray:
    """(len(first), len(second)) mask of the pairs the gate lets through,
    from ``cols``, the _footprints table transposed, with the differences
    of a one-pair test of box ``first`` against ``second``."""
    x, z, r = cols[0], cols[1], cols[9]
    with np.errstate(over="ignore"):
        return ~_apart(x[second] - x[first, None], z[second] - z[first, None],
                       r[first, None], r[second])


def _suppresses(cols, corners, a, b, threshold: float) -> np.ndarray:
    """Mask of the pairs (a[k], b[k]) whose BEV IoU exceeds ``threshold``.

    Pairs the bound clears skip the kernel; the rest go to one kernel
    call, which gives each pair the bits of ``iou_bev(box a, box b)``.
    """
    ta, tb = cols[:, a], cols[:, b]
    hit = _iou_may_exceed(ta, tb, threshold)
    m = np.flatnonzero(hit)
    if m.size:
        inter = _overlap_areas(corners[a[m]], corners[b[m]], (tb[:2, m] - ta[:2, m]).T)
        hit[m] = _iou(inter, ta[8, m], tb[8, m]) > threshold
    return hit


def _greedy_nms(boxes, scores, iou_threshold: float, top=None):
    """Yield the indices :func:`nms` keeps, best first.

    Only the ``top`` best-scoring boxes take part (all of them when
    None). A pick is final before any later box is looked at, so a
    caller that needs the first k stops after k picks. The score order
    is settled in blocks of the next _NMS_BLOCK live boxes, one kernel
    call per block: it tests the pairs inside the block and each block
    box against the kept boxes not yet applied to the live set, and the
    block's picks then follow in a Python loop and are yielded. Once at
    least _NMS_BLOCK kept boxes are pending, and only when the caller
    asks for more, one call applies them to every later live box. So a
    box entering a block has been tested against every earlier kept
    box. Before each call the circumradius gate and the IoU bound drop
    pairs that cannot suppress; the kernel gives every other pair, the
    earlier box first, the same bits as :func:`iou_bev`, so the picks
    are those of greedy NMS testing one kept box at a time. Footprints
    are built per block, when the loop reaches it, and for every
    remaining box before the first apply step, so a caller that stops
    within the first blocks builds only theirs.
    """
    scores = checked_array(scores, "scores", (len(boxes),), finite=True)
    iou_threshold = _real(iou_threshold, "iou_threshold", 0.0, 1.0, "[0, 1]")
    order = np.argsort(-scores, kind="stable")[:top]
    cols = np.empty((10, len(order)))
    corners = np.empty((len(order), 4, 2))
    built = 0

    def build(stop):
        # fill the footprint rows of positions [built, stop) of the order
        nonlocal built
        if stop > built:
            rows, block_corners = _footprints([boxes[i] for i in order[built:stop]])
            cols[:, built:stop], corners[built:stop] = rows.T, block_corners
            built = stop

    live = np.arange(len(order))
    pending = live[:0]
    while live.size:
        block, live = live[:_NMS_BLOCK], live[_NMS_BLOCK:]
        build(int(block[-1]) + 1)
        k, n = block.size, pending.size
        # rows: the pending kept boxes, then the block; columns: the block
        first = np.concatenate([pending, block])
        near = _near(cols, first, block)
        near[n:] = np.triu(near[n:], 1)  # in the block, only p before q
        i, j = np.nonzero(near)
        hit = _suppresses(cols, corners, first[i], block[j], iou_threshold)
        beaten = np.zeros((n + k, k), dtype=bool)
        beaten[i[hit], j[hit]] = True
        dead = beaten[:n].any(axis=0)
        picks = []
        for p in range(k):
            if not dead[p]:
                picks.append(p)
                yield int(order[block[p]])
                dead |= beaten[n + p]
        pending = np.concatenate([pending, block[picks]])
        if pending.size >= _NMS_BLOCK and live.size:
            build(len(order))
            i, j = np.nonzero(_near(cols, pending, live))
            hit = _suppresses(cols, corners, pending[i], live[j], iou_threshold)
            live = np.delete(live, j[hit])
            pending = pending[:0]


def nms(boxes, scores, iou_threshold: float) -> list[int]:
    """Greedy non-maximum suppression on BEV IoU.

    Repeatedly keeps the highest-scoring remaining box and suppresses
    every box whose BEV IoU with it exceeds the threshold. Score ties
    are broken toward the lower index, which makes the output
    independent of input ordering when scores are distinct. The work
    runs in blocks of 64 live boxes, one overlap-kernel call per block
    plus one per 64 or more kept boxes, on the pairs that neither the
    circumradius gate nor the IoU bound rules out (see
    :func:`_greedy_nms`).

    Returns the kept indices in descending-score order.
    """
    return list(_greedy_nms(boxes, scores, iou_threshold))


def enlarge_box(box: Box3D, amount: float) -> Box3D:
    """Grow every size by ``amount`` in [0, 1e50 - longest size]; center, yaw kept."""
    high = _SIZE_MAX - max(box.length, box.height, box.width)
    amount = _real(amount, "amount", 0.0, high, f"[0, {high!r}]")
    return Box3D(
        box.center.copy(),
        box.length + amount,
        box.height + amount,
        box.width + amount,
        box.yaw,
    )


def points_in_box(cloud: PointCloud, box: Box3D) -> np.ndarray:
    """Indices of points inside the closed box, faces included, ascending.

    Only the points of the box's strip, within its circumradius of the
    center in x (two comparisons on the x column) and then in z, are
    derotated into the box's frame and compared against the half sizes,
    with the arithmetic of derotating the whole cloud, row for row, and
    so with its result. Working memory is two boolean masks over the
    cloud plus O(candidates).
    """
    c = cloud.coords
    r = _circumradius(box)
    cx, cz = float(box.center[0]), float(box.center[2])
    reach = _x_reach(r, _x_pad(abs(cx)))
    strip = c[:, 0] >= cx - reach
    strip &= c[:, 0] <= cx + reach
    near = np.flatnonzero(strip)
    z = c[near, 2]
    reach = _x_reach(r, _x_pad(abs(cz)))
    near = near[(z >= cz - reach) & (z <= cz + reach)]
    local = np.abs((c[near] - box.center) @ rotation_y(box.yaw))
    inside = local[:, 0] <= 0.5 * box.length
    inside &= local[:, 1] <= 0.5 * box.height
    inside &= local[:, 2] <= 0.5 * box.width
    return near[inside]


def rotate_y(cloud: PointCloud, angle: float) -> PointCloud:
    """Rigid rotation of the cloud about the vertical axis by a finite angle."""
    return PointCloud(cloud.coords @ rotation_y(_real(angle, "angle")).T,
                      cloud.intensity)


def scale(cloud: PointCloud, factor: float) -> PointCloud:
    """Uniformly scale coordinates by a factor in (0, inf); intensity untouched."""
    factor = _real(factor, "factor", 0.0, interval="(0, inf)")
    return PointCloud(cloud.coords * factor, cloud.intensity)


def crop_range(cloud: PointCloud, x_range, y_range, z_range) -> PointCloud:
    """Keep points inside the closed axis-aligned ranges."""
    ranges = []
    for name, rng in (("x", x_range), ("y", y_range), ("z", z_range)):
        lo, hi = checked_array(rng, f"{name}_range", (2,))
        if not lo < hi:
            raise ValueError(f"{name}_range must satisfy min < max, got {rng}")
        ranges.append((lo, hi))
    c = cloud.coords
    mask = np.ones(len(cloud), dtype=bool)
    for axis, (lo, hi) in enumerate(ranges):
        mask &= (c[:, axis] >= lo) & (c[:, axis] <= hi)
    intensity = cloud.intensity[mask] if cloud.intensity is not None else None
    return PointCloud(c[mask], intensity)
