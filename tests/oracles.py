"""Independent reference implementations used to check the library.

Each oracle takes a different computational path from the code it
verifies: the brute-force sampler oracle recomputes minimum distances
from scratch every round, the row-wise one reduces (N, 3) rows where the
library updates coordinate columns in place, the AAD oracle builds the
whole distance matrix where the library works in row chunks, box
containment goes through corner/edge projections instead of frame
derotation, and the overlap oracles count Monte-Carlo samples instead
of clipping polygons.
"""

from __future__ import annotations

import numpy as np


def brute_fps(coords: np.ndarray, n: int, seed_index: int = 0) -> list[int]:
    """Greedy farthest-first selection, recomputed from scratch per round."""
    diff = coords[:, None, :] - coords[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
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
    min_d2 = np.sum((coords - coords[seed_index]) ** 2, axis=1)
    min_d2[seed_index] = -1.0
    for _ in range(n - 1):
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        d2 = np.sum((coords - coords[nxt]) ** 2, axis=1)
        np.minimum(min_d2, d2, out=min_d2)
        min_d2[nxt] = -1.0
    return chosen


def dense_aad(coords: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared-distance AAD from the full (k, k, 3) difference tensor."""
    diff = coords[:, None, :] - coords[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    per_point = np.partition(d2, 2, axis=1)[:, :3].mean(axis=1)
    return per_point, float(per_point.mean())


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
