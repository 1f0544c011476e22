"""Classification and regression losses for the two-stage detector.

Classification uses a focal term that down-weights easy examples.
Regression parameterizes x, z, and yaw as a bin classification plus a
normalized within-bin residual, applies smooth-L1 to the residuals of
all seven box quantities, and adds a log regularizer on the BEV
overlap of the predicted and ground-truth footprints. The two-stage
total is a plain sum of both stages' classification and regression
terms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, OutOfRange
from .geometry import Box3D, iou_bev
from .numerics import _count, _real, checked_array, fold

_PROB_FLOOR = 1e-12
_IOU_FLOOR = 1e-6


@dataclass(frozen=True)
class FocalConfig:
    """Focal loss constants (defaults alpha=0.25, gamma=2.0)."""

    alpha: float = 0.25
    gamma: float = 2.0

    def __post_init__(self):
        # stored as the Python floats the checks return, as in BinSpec
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha", 0.0, 1.0, "(0, 1)"))
        object.__setattr__(self, "gamma",
                           _real(self.gamma, "gamma", 0.0, interval="[0, inf)"))


def focal_loss(c_t: float, cfg: FocalConfig = FocalConfig()) -> float:
    """Down-weighted cross entropy -alpha * (1 - c_t)^gamma * ln(c_t).

    ``c_t`` is the predicted probability of the true class. It must lie
    in (0, 1], so the log is always finite; values below 1e-12 are
    raised to 1e-12 before the log.
    """
    c_t = _real(c_t, "c_t", 0.0, 1.0, "(0, 1]")
    return float(-cfg.alpha * (1.0 - c_t) ** cfg.gamma
                 * math.log(max(c_t, _PROB_FLOOR)))


def smooth_l1(pred: float, target: float) -> float:
    """Quadratic near zero, linear past |pred - target| = 1."""
    d = abs(_real(pred, "pred") - _real(target, "target"))
    return 0.5 * d * d if d < 1.0 else d - 0.5


def _half_range(value, num_bins: int, name: str, count_name: str) -> float:
    """``value`` as the half range of ``num_bins`` bins, else a DomainError
    naming ``name``. It lies in (0, sys.float_info.max / 2], so that the
    search range 2 * half_range, and with it every bin width and residual,
    is finite, and the bin width must be a float above 0. A bin count
    beyond the float range is a DomainError naming ``count_name`` and
    giving the count's number of digits."""
    high = sys.float_info.max / 2.0
    out = _real(value, name, 0.0, high, f"(0, {high!r}]")
    try:
        width = 2.0 * out / num_bins
    except OverflowError:
        # log10 can be one off near a power of ten; str() refuses huge ints
        k = int(math.log10(num_bins))
        digits = k + 1 + (num_bins >= 10 ** (k + 1)) - (num_bins < 10 ** k)
        raise DomainError(f"{count_name} must lie within the float range, "
                          f"got an integer of {digits} digits") from None
    if width == 0.0:
        raise DomainError(f"{name} must give {num_bins} bins a nonzero "
                          f"width, got {value!r}")
    return out


@dataclass(frozen=True)
class BinSpec:
    """Search range and bin layout for one regressed quantity.

    The search range is [anchor - half_range, anchor + half_range),
    split into ``num_bins`` equal bins. Wrapping specs (yaw) fold the
    offset into the range instead of rejecting it.
    """

    half_range: float
    num_bins: int
    wrap: bool = False

    def __post_init__(self):
        # stored as the Python float and int the checks return: a numpy
        # float32 half range would make every width and residual float32
        object.__setattr__(self, "num_bins", _count(self.num_bins, "num_bins", 2))
        object.__setattr__(self, "half_range",
                           _half_range(self.half_range, self.num_bins, "half_range",
                                       "num_bins"))

    @property
    def width(self) -> float:
        return 2.0 * self.half_range / self.num_bins


@dataclass(frozen=True)
class BinConfig:
    """Bin layouts for the three binned quantities."""

    x: BinSpec = BinSpec(3.0, 12)
    z: BinSpec = BinSpec(3.0, 12)
    yaw: BinSpec = BinSpec(math.pi, 12, wrap=True)


def encode_bins(value: float, anchor: float, spec: BinSpec) -> tuple[int, float]:
    """Discretize value - anchor into a bin index plus a residual.

    The residual is measured from the bin center in units of the bin
    width, so it lies in [-0.5, 0.5) and is zero at the center.

    Raises
    ------
    OutOfRange
        When a non-wrapping offset leaves [-half_range, half_range), or a
        wrapping one cannot be folded into it: the difference of two
        finite values overflowed to an infinity, or so did the fold.
    """
    offset = _real(value, "value") - _real(anchor, "anchor")
    r = spec.half_range
    # an overflowed offset folds to NaN, which the range check rejects
    folded = fold(offset, r) if spec.wrap else offset
    if not -r <= folded < r:
        raise OutOfRange(
            f"offset {offset} outside [{-r}, {r}) for anchor {anchor}"
        )
    shifted = folded + r  # in [0, 2r)
    index = int(shifted // spec.width)
    if index >= spec.num_bins:  # float roundoff at the top edge
        return spec.num_bins - 1, math.nextafter(0.5, 0.0)
    residual = (shifted - (index + 0.5) * spec.width) / spec.width
    return index, residual


def decode_bins(
    bin_index: int, residual: float, anchor: float, spec: BinSpec
) -> float:
    """Invert :func:`encode_bins`: a non-wrapping pair whose exact value lies
    in the search range decodes into it, as :func:`encode_bins` measures it."""
    bin_index = _count(bin_index, "bin_index", 0, spec.num_bins - 1)
    residual, anchor = _real(residual, "residual"), _real(anchor, "anchor")
    r = spec.half_range
    value = anchor - r + (bin_index + 0.5 + residual) * spec.width
    if not spec.wrap and -0.5 - bin_index <= residual < spec.num_bins - bin_index - 0.5:
        # rounding can land on or past an edge; step back inside
        while value - anchor >= r:
            value = math.nextafter(value, -math.inf)
        while value - anchor < -r:
            value = math.nextafter(value, math.inf)
    return value


def bin_cross_entropy(logits, target_bin: int) -> float:
    """Softmax negative log-likelihood of the target bin."""
    l = checked_array(logits, "logits", ("C",), finite=True)
    if l.size == 0:
        raise DimensionMismatch(f"logits must be non-empty 1-D, got {l.shape}")
    target_bin = _count(target_bin, "target_bin", 0, l.size - 1)
    m = float(l.max())
    lse = m + math.log(float(np.exp(l - m).sum()))
    return float(lse - l[target_bin])


def iou_reg_loss(pred: Box3D, gt: Box3D) -> float:
    """-ln of the BEV overlap ratio, floored so disjoint boxes stay finite."""
    return float(-math.log(max(iou_bev(pred, gt), _IOU_FLOOR)))


@dataclass
class BoxTarget:
    """Encoded regression target for one box against its anchor.

    ``residuals`` are ordered x, y, z, length, height, width, yaw: the
    x, z, and yaw entries are in-bin residuals, the y, length, height,
    width entries are plain offsets from the anchor.
    """

    bin_x: int
    bin_z: int
    bin_yaw: int
    residuals: np.ndarray  # (7,)

    def __post_init__(self):
        self.residuals = checked_array(self.residuals, "residuals", (7,),
                                       finite=True)


@dataclass
class RegressionPrediction:
    """Network outputs for one box: bin logits plus residuals for all
    seven quantities, ordered x, y, z, length, height, width, yaw."""

    logits_x: np.ndarray
    logits_z: np.ndarray
    logits_yaw: np.ndarray
    residuals: np.ndarray  # (7,)

    def __post_init__(self):
        for name in ("logits_x", "logits_z", "logits_yaw"):
            setattr(self, name, checked_array(getattr(self, name), name, finite=True))
        self.residuals = checked_array(self.residuals, "residuals", (7,), finite=True)


def encode_box_target(gt: Box3D, anchor: Box3D, cfg: BinConfig = BinConfig()) -> BoxTarget:
    """Encode a ground-truth box against an anchor box."""
    bin_x, res_x = encode_bins(gt.center[0], anchor.center[0], cfg.x)
    bin_z, res_z = encode_bins(gt.center[2], anchor.center[2], cfg.z)
    bin_yaw, res_yaw = encode_bins(gt.yaw, anchor.yaw, cfg.yaw)
    residuals = np.array([
        res_x,
        gt.center[1] - anchor.center[1],
        res_z,
        gt.length - anchor.length,
        gt.height - anchor.height,
        gt.width - anchor.width,
        res_yaw,
    ])
    return BoxTarget(bin_x, bin_z, bin_yaw, residuals)


@dataclass(frozen=True)
class RegressionTerms:
    """Per-term breakdown of the regression objective for one box."""

    ce_x: float
    ce_z: float
    ce_yaw: float
    smooth_l1_sum: float
    iou_regularizer: float

    @property
    def total(self) -> float:
        """The regression objective: the terms summed in a fixed order."""
        return float((self.ce_x + self.ce_z + self.ce_yaw)
                     + self.smooth_l1_sum + self.iou_regularizer)


def regression_terms(
    pred: RegressionPrediction,
    target: BoxTarget,
    pred_box: Box3D,
    gt_box: Box3D,
    cfg: BinConfig = BinConfig(),
) -> RegressionTerms:
    """Every term of the regression objective for one box.

    The bin cross-entropy for x, z, and yaw, smooth-L1 summed over all
    seven residuals, and the BEV-overlap log regularizer of ``pred_box``
    as given (nothing is decoded) against ``gt_box``.
    """
    for name, spec in (("logits_x", cfg.x), ("logits_z", cfg.z),
                       ("logits_yaw", cfg.yaw)):
        checked_array(getattr(pred, name), name, (spec.num_bins,))
    return RegressionTerms(
        ce_x=bin_cross_entropy(pred.logits_x, target.bin_x),
        ce_z=bin_cross_entropy(pred.logits_z, target.bin_z),
        ce_yaw=bin_cross_entropy(pred.logits_yaw, target.bin_yaw),
        smooth_l1_sum=sum(
            smooth_l1(float(pred.residuals[i]), float(target.residuals[i]))
            for i in range(7)
        ),
        iou_regularizer=iou_reg_loss(pred_box, gt_box),
    )


def regression_loss(
    pred: RegressionPrediction,
    target: BoxTarget,
    pred_box: Box3D,
    gt_box: Box3D,
    cfg: BinConfig = BinConfig(),
) -> float:
    """Full regression objective for one box.

    The total of :func:`regression_terms`, as a float.
    """
    return regression_terms(pred, target, pred_box, gt_box, cfg).total


_TERM_NAMES = ("rpn_cls", "rpn_reg", "rcnn_cls", "rcnn_reg")


def total_loss(
    rpn_cls: float, rpn_reg: float, rcnn_cls: float, rcnn_reg: float
) -> float:
    """Two-stage objective: plain sum of all four stage terms.

    Raises DomainError when a term is not finite or the sum overflows.
    """
    terms = (rpn_cls, rpn_reg, rcnn_cls, rcnn_reg)
    # Python floats overflow to inf without a numpy warning
    a, b, c, d = (_real(t, name) for t, name in zip(terms, _TERM_NAMES))
    total = a + b + c + d
    if not math.isfinite(total):
        raise DomainError(f"total_loss overflows: the sum of {terms} is {total}")
    return total
