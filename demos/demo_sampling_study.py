"""Hybrid downsampling study on a clustered scene.

Plain farthest point sampling spreads its picks evenly through space,
so dense foreground objects get only a handful of samples. The hybrid
sampler first oversamples with FPS and then keeps the points the
attention scores mark as important. Sweeping the oversample factor
shows the trade-off: samples concentrate on the objects (foreground
fraction rises) and the average aggregation distance drops.
"""

import numpy as np

from fuse3d import (
    SyntheticSceneSpec,
    aad,
    farthest_point_sampling,
    generate_scene,
    hybrid_sweep,
)

# The standard clustered scene: four dense gaussian blobs (foreground,
# attention 0.8) over sparse uniform background (attention 0.2).
spec = SyntheticSceneSpec()
cloud, attention, boxes = generate_scene(spec)
print(f"scene: {len(cloud)} points, {len(boxes)} ground-truth boxes")

# Baseline: pure FPS equals the hybrid sampler at factor 1.
n = 256
fps = farthest_point_sampling(cloud, n)
_, fps_aad = aad(cloud, fps)
print(f"pure FPS      n={n}: mean AAD {fps_aad:8.4f}, "
      f"foreground share {np.mean(attention[fps] > 0.5):.3f}")

# Sweep the oversample factor; all factors share one FPS run.
lambdas = [1.0, 1.2, 1.4, 1.6, 2.0]
print("\nlambda   mean AAD   foreground share")
for lam, picked in hybrid_sweep(cloud, attention, n, lambdas):
    _, mean_aad = aad(cloud, picked)
    fg = float(np.mean(attention[picked] > 0.5))
    print(f"{lam:6.1f}   {mean_aad:8.4f}   {fg:.3f}")

print("\nLarger factors pull samples into the clusters: the AAD shrinks "
      "monotonically while the foreground share grows. Factor 1.4 keeps "
      "a middle ground between spatial coverage and object focus.")
