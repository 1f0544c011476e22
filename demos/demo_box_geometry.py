"""Rotated-box geometry: projection, overlap, suppression, augmentation.

Walks the geometric toolbox used everywhere else: pinhole projection
with the perspective divide, bilinear feature lookup, footprint IoU
from the batched convex-overlap kernel, greedy NMS, and the standard
point-cloud augmentations.
"""

import numpy as np

from fuse3d import (
    Box3D,
    PointCloud,
    bilinear_sample,
    crop_range,
    enlarge_box,
    iou_3d,
    iou_bev,
    nms,
    points_in_box,
    project_points,
    rotate_y,
    scale,
)

# Projection: a camera with focal length 700 and principal point (620, 190).
projection = np.array([
    [700.0, 0.0, 620.0, 0.0],
    [0.0, 700.0, 190.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
])
(u,), (v,), (depth,) = project_points(np.array([[2.0, -1.0, 20.0]]), projection)
print(f"point (2, -1, 20) lands at pixel ({u:.1f}, {v:.1f}), depth {depth} m")

# Bilinear lookup blends the four neighboring pixels.
fmap = np.arange(12.0).reshape(2, 3, 2)
print("feature at fractional pixel (0.5, 0.5):", bilinear_sample(fmap, 0.5, 0.5))

# Overlap of yaw-rotated footprints.
a = Box3D(np.array([0.0, 0.0, 0.0]), 4.0, 1.6, 1.8, 0.0)
b = Box3D(np.array([0.8, 0.0, 0.3]), 4.0, 1.6, 1.8, np.pi / 8)
print(f"\nfootprint IoU {iou_bev(a, b):.3f}, volume IoU {iou_3d(a, b):.3f}")

# Greedy suppression keeps the strongest of heavily overlapping boxes.
rng = np.random.default_rng(3)
boxes = [a]
for _ in range(7):
    boxes.append(Box3D(a.center + rng.normal(0, 0.4, 3), 4.0, 1.6, 1.8,
                       rng.normal(0, 0.2)))
boxes.append(Box3D(np.array([30.0, 0.0, 0.0]), 4.0, 1.6, 1.8, 0.0))
scores = list(rng.uniform(0.3, 1.0, len(boxes)))
kept = nms(boxes, scores, iou_threshold=0.5)
print(f"NMS keeps {len(kept)} of {len(boxes)} boxes: indices {kept}")

# Containment against an enlarged proposal.
cloud = PointCloud(rng.uniform(-3, 3, size=(500, 3)))
inner = points_in_box(cloud, a)
outer = points_in_box(cloud, enlarge_box(a, 0.2))
print(f"\nbox holds {inner.size} points, {outer.size} after enlarging by 0.2")

# Augmentations are exact rigid or similarity maps.
rotated = rotate_y(cloud, np.deg2rad(10.0))
rescaled = scale(cloud, 1.05)
cropped = crop_range(cloud, (0.0, 3.0), (-3.0, 3.0), (-3.0, 3.0))
dist = np.linalg.norm(cloud.coords[:, [0, 2]], axis=1)
dist_rot = np.linalg.norm(rotated.coords[:, [0, 2]], axis=1)
print(f"rotation changes axis distances by at most "
      f"{np.abs(dist - dist_rot).max():.2e}")
print(f"scaling by 1.05 moved the farthest point to "
      f"{np.abs(rescaled.coords).max():.2f} m")
print(f"cropping to the forward half keeps {len(cropped)} of {len(cloud)}")
