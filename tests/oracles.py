"""Independent reference implementations used to check the library.

Each oracle takes a different computational path from the code it
verifies: the brute-force sampler oracle recomputes minimum distances
from scratch every round, the row-wise one measures every point at each
pick where the library updates an x-window of coordinate columns in
place, the AAD oracle builds the whole distance matrix where the
library searches x-windows (the three sampler oracles square distances
in the library's one order, (dx*dx + dz*dz) + dy*dy, with explicit
adds, so their results are bit-equal to the library's), box
containment goes through corner/edge projections instead of frame
derotation (the whole-cloud containment oracle keeps the library's own
arithmetic on every point, where the library derotates only the points
of the box's x-strip, so the two must agree bit for bit), the IoU
oracles count Monte-Carlo samples, the overlap area oracle clips one
footprint by each edge line of the other in turn (Sutherland-Hodgman, in
plain floats, so the vertices come out in order) where the library
gathers the corners of each footprint inside the other and the edge
crossings in one batched pass and orders them by angle about their
centroid before the shoelace sum, the image-feature oracle projects and
interpolates one point at a time with plain floats, and the
finite-difference oracle perturbs one entry at a time and calls its
function twice per entry.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def _squared_distances(diff: np.ndarray) -> np.ndarray:
    """(dx*dx + dz*dz) + dy*dy over the last axis of ``diff``; a square
    beyond the float range is inf."""
    with np.errstate(over="ignore"):
        sq = diff * diff
        return (sq[..., 0] + sq[..., 2]) + sq[..., 1]


def brute_fps(coords: np.ndarray, n: int, seed_index: int = 0) -> list[int]:
    """Greedy farthest-first selection, recomputed from scratch per round."""
    d2 = _squared_distances(coords[:, None, :] - coords[None, :, :])
    chosen = [seed_index]
    for _ in range(n - 1):
        dmin = d2[:, chosen].min(axis=1)
        dmin[chosen] = -1.0
        chosen.append(int(np.argmax(dmin)))
    return chosen


def rowwise_fps(coords: np.ndarray, n: int, seed_index: int = 0) -> list[int]:
    """Greedy farthest-first selection, one (N, 3) row reduction per pick.

    Needs O(N) memory, so it can check clouds too large for brute_fps.
    """
    chosen = [seed_index]
    min_d2 = _squared_distances(coords - coords[seed_index])
    min_d2[seed_index] = -1.0
    for _ in range(n - 1):
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        d2 = _squared_distances(coords - coords[nxt])
        np.minimum(min_d2, d2, out=min_d2)
        min_d2[nxt] = -1.0
    return chosen


def dense_aad(coords: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared-distance AAD from the full (k, k, 3) difference tensor.

    Each point's three nearest squared distances are sorted before the
    mean, so the result does not depend on the order partition leaves.
    """
    d2 = _squared_distances(coords[:, None, :] - coords[None, :, :])
    np.fill_diagonal(d2, np.inf)
    nearest = np.sort(np.partition(d2, 2, axis=1)[:, :3], axis=1)
    per_point = nearest.mean(axis=1)
    return per_point, float(per_point.mean())


def scalar_image_feature(fmap: np.ndarray, projection: np.ndarray, point) -> np.ndarray:
    """Project one point and blend its four neighboring pixels.

    Points at or behind the camera, or outside [0, W-1] x [0, H-1],
    give the all-zero vector.
    """
    h, w, c = fmap.shape
    x, y, z = (float(t) for t in point)
    row = [float(projection[k, 0]) * x + float(projection[k, 1]) * y
           + float(projection[k, 2]) * z + float(projection[k, 3])
           for k in range(3)]
    if row[2] <= 0.0:
        return np.zeros(c)
    u, v = row[0] / row[2], row[1] / row[2]
    if not (0.0 <= u <= w - 1 and 0.0 <= v <= h - 1):
        return np.zeros(c)
    u0, v0 = int(np.floor(u)), int(np.floor(v))
    u1, v1 = min(u0 + 1, w - 1), min(v0 + 1, h - 1)
    du, dv = u - u0, v - v0
    top = (1.0 - du) * fmap[v0, u0] + du * fmap[v0, u1]
    bottom = (1.0 - du) * fmap[v1, u0] + du * fmap[v1, u1]
    return (1.0 - dv) * top + dv * bottom


def scalar_finite_diff_grad(
    f: Callable[[np.ndarray], float], x, eps: float
) -> np.ndarray:
    """Central differences of a scalar function, one entry at a time."""
    x = np.array(x, dtype=np.float64)
    grad = np.empty_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = float(f(x))
        x[idx] = orig - eps
        f_minus = float(f(x))
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def brute_nms(boxes, scores, threshold: float, iou_fn) -> list[int]:
    """Set-based greedy suppression: keep the best, filter, repeat."""
    remaining = list(range(len(boxes)))
    kept = []
    while remaining:
        best = min(remaining, key=lambda i: (-scores[i], i))
        kept.append(best)
        remaining = [
            j for j in remaining
            if j != best and iou_fn(boxes[best], boxes[j]) <= threshold
        ]
    return kept


def _bev_corners(box) -> np.ndarray:
    """Footprint corners built from scratch, starting at (-l/2, -w/2)."""
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    rot = np.array([[c, s], [-s, c]])
    local = np.array([
        [-box.length / 2, -box.width / 2],
        [box.length / 2, -box.width / 2],
        [box.length / 2, box.width / 2],
        [-box.length / 2, box.width / 2],
    ])
    return local @ rot.T + np.array([box.center[0], box.center[2]])


def points_in_footprint(points_xz: np.ndarray, box) -> np.ndarray:
    """Rectangle containment via edge projections (no derotation)."""
    corners = _bev_corners(box)
    origin = corners[0]
    u = corners[1] - origin
    w = corners[3] - origin
    rel = points_xz - origin
    pu = rel @ u
    pw = rel @ w
    return (pu >= 0) & (pu <= u @ u) & (pw >= 0) & (pw <= w @ w)


def points_in_box_oracle(points: np.ndarray, box) -> np.ndarray:
    """3D containment: footprint test plus a vertical slab test."""
    in_bev = points_in_footprint(points[:, [0, 2]], box)
    in_y = np.abs(points[:, 1] - box.center[1]) <= box.height / 2
    return in_bev & in_y


def points_in_box_full(points: np.ndarray, box) -> np.ndarray:
    """Indices inside the closed box, derotating every point of the cloud."""
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    rotation = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    local = (points - box.center) @ rotation
    half = np.array([box.length, box.height, box.width]) / 2.0
    return np.flatnonzero((np.abs(local) <= half).all(axis=1))


def mc_iou_bev(a, b, samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo footprint IoU over the joint bounding rectangle."""
    corners = np.vstack([_bev_corners(a), _bev_corners(b)])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(samples, 2))
    in_a = points_in_footprint(pts, a)
    in_b = points_in_footprint(pts, b)
    either = int((in_a | in_b).sum())
    if either == 0:
        return 0.0
    return int((in_a & in_b).sum()) / either


def mc_iou_3d(a, b, samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo volume IoU over the joint bounding cuboid."""
    lo = np.empty(3)
    hi = np.empty(3)
    bev = np.vstack([_bev_corners(a), _bev_corners(b)])
    lo[[0, 2]] = bev.min(axis=0)
    hi[[0, 2]] = bev.max(axis=0)
    lo[1] = min(a.center[1] - a.height / 2, b.center[1] - b.height / 2)
    hi[1] = max(a.center[1] + a.height / 2, b.center[1] + b.height / 2)
    pts = rng.uniform(lo, hi, size=(samples, 3))
    in_a = points_in_box_oracle(pts, a)
    in_b = points_in_box_oracle(pts, b)
    either = int((in_a | in_b).sum())
    if either == 0:
        return 0.0
    return int((in_a & in_b).sum()) / either


def clip_overlap_area(a, b) -> float:
    """Footprint overlap area in plain floats: Sutherland-Hodgman clip of
    a's footprint by the four edge lines of b's, then the shoelace sum."""
    poly = [(float(x), float(z)) for x, z in _bev_corners(a)]
    clip = [(float(x), float(z)) for x, z in _bev_corners(b)]
    for (x0, z0), (x1, z1) in zip(clip, clip[1:] + clip[:1]):
        def inner(p):
            return (x1 - x0) * (p[1] - z0) - (z1 - z0) * (p[0] - x0)

        out = []
        for p, q in zip(poly, poly[1:] + poly[:1]):
            sp, sq = inner(p), inner(q)
            if sp >= 0.0:
                out.append(p)
            if (sp >= 0.0) != (sq >= 0.0):
                t = sp / (sp - sq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        poly = out
        if not poly:
            return 0.0
    return 0.5 * sum(p[0] * q[1] - p[1] * q[0] for p, q in zip(poly, poly[1:] + poly[:1]))


def random_box(rng: np.random.Generator, center_spread: float = 1.5):
    """A random box near the origin with sizes in [0.5, 3]."""
    from fuse3d import Box3D

    return Box3D(
        rng.uniform(-center_spread, center_spread, size=3),
        rng.uniform(0.5, 3.0),
        rng.uniform(0.5, 3.0),
        rng.uniform(0.5, 3.0),
        rng.uniform(-np.pi, np.pi),
    )


def clustered_boxes(rng: np.random.Generator, count: int, clusters: int = 8):
    """Boxes jittered around a few random boxes; every fifth box repeats
    the one before it exactly."""
    from fuse3d import Box3D

    seeds = [random_box(rng, center_spread=12.0) for _ in range(clusters)]
    boxes = []
    for k in range(count):
        if k % 5 == 4:
            prev = boxes[-1]
            boxes.append(Box3D(prev.center.copy(), prev.length, prev.height,
                               prev.width, prev.yaw))
            continue
        s = seeds[k % clusters]
        boxes.append(Box3D(
            s.center + rng.normal(0.0, 0.3, size=3),
            s.length * rng.uniform(0.8, 1.2),
            s.height,
            s.width * rng.uniform(0.8, 1.2),
            s.yaw + rng.normal(0.0, 0.2),
        ))
    return boxes
