"""Desk-scale toolkit for LiDAR-camera fusion 3D detection.

The library covers the algorithmic core of a two-stage fusion
detector: attention-gated feature fusion with an analytic backward
pass, hybrid spread-plus-attention point downsampling with its
aggregation diagnostic, rotated-box geometry (projection, IoU, NMS),
RoI-pooled feature assembly, the detection loss stack, seeded
synthetic scenes, and dataset file I/O. Everything runs on numpy
arrays in float64 and is deterministic given its seeds.
"""

from .config import RunConfig, load_config, parse_config, subsystem_seed
from .errors import (
    DimensionMismatch,
    DomainError,
    Fuse3DError,
    InvalidCount,
    MissingKey,
    OutOfRange,
    ParseError,
    TooFewPoints,
    TruncatedFile,
)
from .fusion import (
    AAFGradients,
    AAFInput,
    AAFOutput,
    AAFParams,
    aaf_backward,
    aaf_forward,
    gradcheck,
    init_params,
    load_params,
    relative_error,
    run_gradcheck,
    save_params,
)
from .geometry import (
    Box3D,
    PointCloud,
    bilinear_sample,
    crop_range,
    enlarge_box,
    gather_point_image_features,
    in_image_bounds,
    iou_3d,
    iou_bev,
    nms,
    points_in_box,
    project_points,
    rotate_y,
    rotation_y,
    scale,
    wrap_angle,
)
from .kitti_io import (
    CalibData,
    read_calib,
    read_labels,
    read_point_cloud_bin,
    write_point_cloud_bin,
)
from .losses import (
    BinConfig,
    BinSpec,
    BoxTarget,
    FocalConfig,
    RegressionPrediction,
    RegressionTerms,
    bin_cross_entropy,
    decode_bins,
    encode_bins,
    encode_box_target,
    focal_loss,
    iou_reg_loss,
    regression_loss,
    regression_terms,
    smooth_l1,
    total_loss,
)
from .numerics import finite_diff_grad, sigmoid
from .roi import PooledRoI, Proposal, roi_pooled_fusion, select_proposals
from .sampling import (
    SamplerConfig,
    aad,
    farthest_point_sampling,
    hybrid_sample,
    hybrid_sweep,
    lambda_sweep,
)
from .scene import SyntheticSceneSpec, generate_scene

__version__ = "0.1.0"
