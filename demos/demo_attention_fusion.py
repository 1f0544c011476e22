"""One attention fusion block end to end.

Per-point image features are gathered by projecting each point into a
feature map and interpolating. The block then scores both modalities
per point with sigmoid gates, scales them, and fuses the result with
the running fused feature. The analytic backward pass is checked
against central finite differences.
"""

import tempfile
from pathlib import Path

import numpy as np

from fuse3d import (
    AAFInput,
    PointCloud,
    aaf_backward,
    aaf_forward,
    gather_point_image_features,
    init_params,
    load_params,
    run_gradcheck,
    save_params,
)

rng = np.random.default_rng(0)

# A tiny scene: 6 points in front of a unit-focal camera, one of them
# behind it (that row gets an all-zero image feature).
coords = np.array([
    [0.5, 0.5, 1.0],
    [1.0, 2.0, 2.0],
    [3.0, 1.0, 1.5],
    [0.2, 0.1, 4.0],
    [2.0, 2.0, 5.0],
    [0.0, 0.0, -1.0],
])
cloud = PointCloud(coords)
projection = np.hstack([np.eye(3), np.zeros((3, 1))])
feature_map = rng.standard_normal((4, 5, 3))  # H x W x C image features

c_img, c_pt, c_prev, c_out = 3, 4, 2, 5
f_image, _ = gather_point_image_features(cloud, projection, feature_map)
inp = AAFInput(
    f_image,
    f_point=rng.standard_normal((6, c_pt)),
    f_fused_prev=rng.standard_normal((6, c_prev)),
)
print("gathered image features (behind-camera row is zero):")
print(np.round(inp.f_image, 3))

# Forward pass: per-point gates and the fused feature.
params = init_params(c_img, c_pt, c_prev, c_out, rng)
out = aaf_forward(params, inp)
print("\nimage gates:", np.round(out.att_image, 4))
print("point gates:", np.round(out.att_point, 4))
print("fused feature shape:", out.f_fused.shape)

# Backward pass for an arbitrary upstream signal.
upstream = rng.standard_normal(out.f_fused.shape)
grads = aaf_backward(params, inp, upstream)
print("\ngradient shapes:",
      {k: tuple(getattr(grads, k).shape)
       for k in ("w_img_att", "w_out", "f_image")})

# Verify every gradient against finite differences on random instances.
report = run_gradcheck(seed=42, trials=20)
print("\ngradient check over 20 random instances:")
for group, err in report["per_group_max_relative_error"].items():
    print(f"  {group:14s} max relative error {err:.2e}")
print(f"overall: {report['max_relative_error']:.2e}")

# Parameters round-trip through the binary blob format.
with tempfile.TemporaryDirectory() as tmp:
    blob = Path(tmp) / "fusion_params.bin"
    save_params(params, blob)
    restored = load_params(blob)
print("\nserialization roundtrip exact:",
      bool(np.array_equal(restored.w_out, params.w_out)))
