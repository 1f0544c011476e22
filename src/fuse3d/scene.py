"""Seeded synthetic scenes standing in for real captures.

A scene is a handful of dense gaussian clusters (foreground, each with
a fitted ground-truth box) scattered over sparse uniform background,
plus two-level attention scores marking the clusters. Everything is
deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box3D, PointCloud, rotation_y
from .numerics import _count, _real


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """Scene layout parameters. The defaults are the standard clustered
    scene used by the studies and the acceptance suite."""

    num_clusters: int = 4
    points_per_cluster: int = 200
    cluster_radius: float = 0.5       # gaussian std dev, meters
    background_points: int = 800
    background_extent: float = 40.0   # side of the square ground footprint
    attention_contrast: float = 0.6   # foreground/background score gap
    seed: int = 42

    def __post_init__(self):
        # each field is stored as the Python int or float its check
        # returns, so the spec converts to JSON as it is
        for name in ("num_clusters", "points_per_cluster", "background_points"):
            object.__setattr__(self, name, _count(getattr(self, name), name, 1))
        for name, high, interval in (("cluster_radius", math.inf, "(0, inf)"),
                                     ("background_extent", math.inf, "(0, inf)"),
                                     ("attention_contrast", 1.0, "[0, 1)")):
            object.__setattr__(self, name,
                               _real(getattr(self, name), name, 0.0, high, interval))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))


def generate_scene(
    spec: SyntheticSceneSpec,
) -> tuple[PointCloud, np.ndarray, list[Box3D]]:
    """Build (cloud, attention scores, ground-truth boxes) from a seed.

    Cluster points come first in the cloud, in cluster order, followed
    by the background. Each cluster's box is fitted around its own
    points in the box's yawed frame, so containment holds exactly.
    Attention is 0.5 + contrast/2 on cluster points and
    0.5 - contrast/2 on background.
    """
    rng = np.random.default_rng(spec.seed)
    half = spec.background_extent / 2.0
    parts = []
    boxes = []
    for _ in range(spec.num_clusters):
        center = np.array([
            rng.uniform(-0.8 * half, 0.8 * half),
            rng.uniform(-0.5, 0.5),
            rng.uniform(-0.8 * half, 0.8 * half),
        ])
        yaw = float(rng.uniform(-np.pi, np.pi))
        pts = center + rng.normal(
            scale=spec.cluster_radius, size=(spec.points_per_cluster, 3)
        )
        # fit the box to the points: half sizes cover the yawed extents,
        # a small margin keeps every point strictly interior
        local = (pts - center) @ rotation_y(yaw)
        sizes = 2.0 * np.abs(local).max(axis=0) + 1e-6
        boxes.append(Box3D(center, sizes[0], sizes[1], sizes[2], yaw))
        parts.append(pts)
    background = np.column_stack([
        rng.uniform(-half, half, spec.background_points),
        rng.uniform(-1.0, 1.0, spec.background_points),
        rng.uniform(-half, half, spec.background_points),
    ])
    parts.append(background)
    coords = np.concatenate(parts, axis=0)
    n_fg = spec.num_clusters * spec.points_per_cluster
    attention = np.full(coords.shape[0], 0.5 - spec.attention_contrast / 2.0)
    attention[:n_fg] = 0.5 + spec.attention_contrast / 2.0
    return PointCloud(coords), attention, boxes
