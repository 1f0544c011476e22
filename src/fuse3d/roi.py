"""Stage-2 input assembly: proposal selection and per-proposal pooling.

Proposal selection reproduces the first-stage postprocessing (score
sort, candidate cap, NMS, keep cap). Pooling gathers raw coordinates
and every feature stream for the points inside an enlarged proposal
into a fixed-size block the refinement stage can consume directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .geometry import Box3D, PointCloud, _greedy_nms, enlarge_box, points_in_box
from .numerics import _count, _real, checked_array


@dataclass
class Proposal:
    """A candidate box with its objectness score."""

    box: Box3D
    score: float

    def __post_init__(self):
        self.score = _real(self.score, "score")


@dataclass
class PooledRoI:
    """Fixed-size per-proposal feature block.

    Rows beyond ``valid_count`` are all-zero padding. ``indices`` holds
    the source point index of each valid row and -1 for padding rows.
    """

    features: np.ndarray  # (n_points, 3 + c_img + c_pt + c_fused)
    valid_count: int
    indices: np.ndarray   # (n_points,)


def select_proposals(
    proposals: list[Proposal],
    pre_nms_top: int = 8000,
    nms_threshold: float = 0.8,
    keep: int = 64,
) -> list[Proposal]:
    """Score-sort, truncate, suppress overlaps, and keep the best few.

    Short inputs pass through: fewer than ``keep`` survivors are all
    returned. Score ties break toward the lower input index. Greedy NMS
    fixes its first picks before it looks at anything later, so
    suppression stops once ``keep`` proposals are kept; the result
    equals ``nms(...)[:keep]``. Both caps must be positive integers
    (numpy integers pass; a float or a bool is an InvalidCount).
    """
    pre_nms_top = _count(pre_nms_top, "pre_nms_top", 1)
    keep = _count(keep, "keep", 1)
    kept = _greedy_nms([p.box for p in proposals], [p.score for p in proposals],
                       nms_threshold, top=pre_nms_top)
    return [proposals[i] for i in islice(kept, min(keep, len(proposals)))]


def roi_pooled_fusion(
    proposal: Proposal,
    cloud: PointCloud,
    f_img: np.ndarray,
    f_pt: np.ndarray,
    f_fused: np.ndarray,
    enlarge: float = 0.2,
    n_points: int = 512,
    seed: int = 0,
) -> PooledRoI:
    """Pool coordinates and feature streams inside the enlarged proposal.

    Each valid row is [x, y, z | image features | point features |
    fused features] for one contained point. Regions holding more than
    ``n_points`` points are subsampled uniformly at random with the
    given seed; smaller regions keep every point and pad with zeros, so
    the output shape is constant regardless of occupancy. ``n_points``
    must be a positive integer and ``seed`` a non-negative one (numpy
    integers pass; a float or a bool is an InvalidCount).
    """
    n_points = _count(n_points, "n_points", 1)
    seed = _count(seed, "seed", 0)
    f_img, f_pt, f_fused = (
        checked_array(f, name, (len(cloud), "C"))
        for f, name in ((f_img, "f_img"), (f_pt, "f_pt"), (f_fused, "f_fused")))
    inside = points_in_box(cloud, enlarge_box(proposal.box, enlarge))
    if inside.size > n_points:
        rng = np.random.default_rng(seed)
        pick = rng.choice(inside.size, size=n_points, replace=False)
        inside = np.sort(inside[pick])
    width = 3 + f_img.shape[1] + f_pt.shape[1] + f_fused.shape[1]
    features = np.zeros((n_points, width))
    indices = np.full(n_points, -1, dtype=np.intp)
    k = int(inside.size)
    features[:k] = np.concatenate([cloud.coords[inside], f_img[inside], f_pt[inside],
                                   f_fused[inside]], axis=1)
    indices[:k] = inside
    return PooledRoI(features=features, valid_count=k, indices=indices)
