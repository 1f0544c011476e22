import math
import sys

import numpy as np
import pytest

from fuse3d import (
    BinConfig,
    BinSpec,
    Box3D,
    BoxTarget,
    DimensionMismatch,
    DomainError,
    FocalConfig,
    InvalidCount,
    OutOfRange,
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
    wrap_angle,
)
from fuse3d.numerics import fold


def box(cx=0.0, cy=0.0, cz=0.0, l=1.0, h=1.0, w=1.0, yaw=0.0):
    return Box3D(np.array([cx, cy, cz]), l, h, w, yaw)


class TestFocalLoss:
    def test_perfect_prediction(self):
        assert focal_loss(1.0) == 0.0

    def test_half_probability_with_defaults(self):
        expected = 0.25 * 0.25 * math.log(2.0)
        assert focal_loss(0.5) == pytest.approx(expected, abs=1e-15)

    def test_default_constants(self):
        cfg = FocalConfig()
        assert (cfg.alpha, cfg.gamma) == (0.25, 2.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            focal_loss(0.0)
        with pytest.raises(DomainError):
            focal_loss(-0.3)
        with pytest.raises(DomainError):
            focal_loss(1.1)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.01, 1.0, 200)
        values = [focal_loss(float(c)) for c in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_gamma_zero_reduces_to_weighted_cross_entropy(self):
        cfg = FocalConfig(alpha=0.25, gamma=0.0)
        for c in (0.1, 0.4, 0.9):
            assert focal_loss(c, cfg) == pytest.approx(-0.25 * math.log(c))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FocalConfig(alpha=0.0)
        with pytest.raises(ValueError):
            FocalConfig(gamma=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("alpha", math.nan), ("gamma", math.nan), ("gamma", math.inf),
    ])
    def test_config_rejects_nonfinite(self, field, value):
        with pytest.raises(ValueError, match=field):
            FocalConfig(**{field: value})


class TestSmoothL1:
    def test_zero_at_match(self):
        assert smooth_l1(2.5, 2.5) == 0.0

    def test_branch_junction_continuous(self):
        assert smooth_l1(1.0, 0.0) == 0.5
        assert smooth_l1(1.0 - 1e-9, 0.0) == pytest.approx(0.5, abs=1e-8)
        assert smooth_l1(1.0 + 1e-9, 0.0) == pytest.approx(0.5, abs=1e-8)

    def test_linear_branch(self):
        assert smooth_l1(3.0, 0.0) == 2.5

    def test_symmetric(self):
        assert smooth_l1(0.0, 0.7) == smooth_l1(0.7, 0.0)

    @pytest.mark.parametrize("pred, target", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf),
        (math.inf, math.inf)])
    def test_nonfinite_arguments_rejected(self, pred, target):
        with pytest.raises(DomainError):
            smooth_l1(pred, target)


class TestBins:
    spec = BinSpec(3.0, 12)  # width 0.5

    def test_center_has_zero_residual(self):
        index, residual = encode_bins(0.25, 0.0, self.spec)
        assert index == 6
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_lower_edge(self):
        assert encode_bins(-3.0, 0.0, self.spec) == (0, -0.5)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            encode_bins(3.0, 0.0, self.spec)  # half-open upper bound
        with pytest.raises(OutOfRange):
            encode_bins(-3.0001, 0.0, self.spec)

    @pytest.mark.parametrize("num_bins", [True, 12.5, 12.0])
    def test_bin_count_must_be_an_integer(self, num_bins):
        with pytest.raises(InvalidCount, match=(
                f"^num_bins must be an integer, got {num_bins!r}$")):
            BinSpec(3.0, num_bins)

    @pytest.mark.parametrize("bin_index", [True, 1.5, 2.0])
    def test_decode_bin_index_must_be_an_integer(self, bin_index):
        with pytest.raises(InvalidCount, match=(
                f"^bin_index must be an integer, got {bin_index!r}$")):
            decode_bins(bin_index, 0.0, 0.0, self.spec)
        assert decode_bins(np.int64(6), 0.0, 0.0, self.spec) == 0.25

    def test_roundtrip_random(self):
        rng = np.random.default_rng(70)
        for _ in range(500):
            anchor = float(rng.uniform(-10, 10))
            value = anchor + float(rng.uniform(-3.0, 3.0 - 1e-9))
            index, residual = encode_bins(value, anchor, self.spec)
            assert -0.5 <= residual < 0.5
            assert abs(decode_bins(index, residual, anchor, self.spec) - value) < 1e-12

    def test_top_edge_residual_below_half(self):
        # offset + half_range rounds up onto 2 * half_range here; the top
        # bin's residual must still lie in [-0.5, 0.5)
        value = float(np.nextafter(3.0, 0.0))
        index, residual = encode_bins(value, 0.0, self.spec)
        assert (index, residual) == (11, float(np.nextafter(0.5, 0.0)))
        assert decode_bins(index, residual, 0.0, self.spec) \
            == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("spec", [
        BinSpec(3.0, 12), BinSpec(3.0, 12, wrap=True), BinConfig().yaw])
    def test_values_just_below_top_edge_stay_in_range(self, spec):
        rng = np.random.default_rng(72)
        for anchor in [0.0, *rng.uniform(-10, 10, size=50)]:
            value = anchor + spec.half_range
            for _ in range(4):
                value = float(np.nextafter(value, -np.inf))
                try:
                    index, residual = encode_bins(value, anchor, spec)
                except OutOfRange:  # anchor + half_range rounded up
                    continue
                assert 0 <= index < spec.num_bins
                assert -0.5 <= residual < 0.5

    @pytest.mark.parametrize("anchor", [0.0, 1e3, -7.3])
    @pytest.mark.parametrize("spec", [BinSpec(3.0, 12), BinSpec(1.7, 7)])
    def test_edge_pairs_decode_inside_the_range(self, anchor, spec):
        # the pair encode_bins returns at the top edge, and the bottom edge;
        # plain evaluation rounds onto (or past) an edge for some anchors
        top = (spec.num_bins - 1, math.nextafter(0.5, 0.0))
        assert encode_bins(decode_bins(*top, anchor, spec), anchor, spec)[0] \
            == spec.num_bins - 1
        assert encode_bins(decode_bins(0, -0.5, anchor, spec), anchor, spec)[0] == 0

    def test_pairs_outside_the_range_decode_plainly(self):
        # the exact value lies on or past an edge, so nothing is moved
        assert decode_bins(11, 0.5, 0.0, self.spec) == 3.0
        assert decode_bins(0, math.nextafter(-0.5, -1.0), -7.3, self.spec) \
            == -7.3 - 3.0
        assert decode_bins(5, 7.0, 0.0, self.spec) == 3.25

    def test_yaw_wraps(self):
        spec = BinConfig().yaw
        index, residual = encode_bins(np.pi + 0.1, 0.0, spec)
        decoded = decode_bins(index, residual, 0.0, spec)
        assert abs(wrap_angle(decoded - (np.pi + 0.1))) < 1e-12

    def test_yaw_just_below_lower_edge_folds_into_first_bin(self):
        # the fold rounds onto +pi; the half-open range maps that to -pi
        angle = float(np.nextafter(-np.pi, -np.inf))
        assert encode_bins(angle, 0.0, BinConfig().yaw) == (0, -0.5)

    def test_yaw_roundtrip_around_boundary(self):
        spec = BinConfig().yaw
        rng = np.random.default_rng(71)
        for _ in range(300):
            anchor = float(rng.uniform(-np.pi, np.pi))
            value = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            index, residual = encode_bins(value, anchor, spec)
            decoded = decode_bins(index, residual, anchor, spec)
            assert abs(wrap_angle(decoded - value)) < 1e-12

    def test_decode_rejects_bad_bin(self):
        with pytest.raises(InvalidCount):
            decode_bins(12, 0.0, 0.0, self.spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BinSpec(0.0, 12)
        with pytest.raises(ValueError):
            BinSpec(3.0, 1)

    @pytest.mark.parametrize("half_range", [math.nan, math.inf])
    def test_spec_rejects_nonfinite_range(self, half_range):
        with pytest.raises(ValueError, match="half_range"):
            BinSpec(half_range, 12)

    @pytest.mark.parametrize("half_range", [
        1e308, math.nextafter(sys.float_info.max / 2, math.inf)])
    def test_spec_rejects_a_range_whose_width_overflows(self, half_range):
        # 2 * half_range is inf, and with it the width and every residual
        with pytest.raises(DomainError, match="^half_range must be finite and in"):
            BinSpec(half_range, 12)

    @pytest.mark.parametrize("half_range, num_bins, message", [
        (5e-324, 12, "half_range must give 12 bins a nonzero width, got 5e-324"),
        (1e-300, 10**300, f"half_range must give {10**300} bins a nonzero width, "
         "got 1e-300"),
        # the count is at fault: it is named, with its number of digits
        (1.0, 10**400, "num_bins must lie within the float range, "
         "got an integer of 401 digits")],
        ids=["subnormal", "many_bins", "bins_beyond_float"])
    def test_spec_rejects_a_range_whose_width_rounds_to_zero(self, half_range,
                                                            num_bins, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            BinSpec(half_range, num_bins)

    @pytest.mark.parametrize("digits", [309, 400, 4300, 5000])
    def test_count_beyond_the_float_range_gives_its_digit_count(self, digits):
        for num_bins, expected in ((10**digits - 1, digits), (10**digits, digits + 1)):
            with pytest.raises(DomainError, match=f"integer of {expected} digits$"):
                BinSpec(1.0, num_bins)

    def test_smallest_width_still_encodes(self):
        spec = BinSpec(6 * 5e-324, 12)
        assert spec.width == 5e-324
        index, residual = encode_bins(0.0, 0.0, spec)
        assert 0 <= index < 12 and -0.5 <= residual < 0.5

    @pytest.mark.parametrize("value, anchor, half_range", [
        (1e308, -1e308, math.pi),
        (-1e308, 1e308, math.pi),
        # a finite offset whose fold overflows
        (sys.float_info.max, 0.0, sys.float_info.max / 2),
    ])
    def test_wrapping_offset_that_cannot_fold_is_out_of_range(
            self, value, anchor, half_range):
        with pytest.raises(OutOfRange, match="^offset "):
            encode_bins(value, anchor, BinSpec(half_range, 12, wrap=True))

    def test_wrapping_offsets_fold_as_before(self):
        spec = BinConfig().yaw
        rng = np.random.default_rng(73)
        for offset in [*rng.uniform(-1e6, 1e6, 200), -math.pi, math.pi, 1e300]:
            shifted = fold(offset, math.pi) + math.pi
            index = int(shifted // spec.width)
            expected = (index, (shifted - (index + 0.5) * spec.width) / spec.width)
            assert encode_bins(offset, 0.0, spec) == expected

    @pytest.mark.parametrize("wrap", [False, True])
    def test_largest_range_encodes_finite_residuals(self, wrap):
        half = sys.float_info.max / 2
        spec = BinSpec(half, 12, wrap=wrap)
        assert math.isfinite(spec.width)
        for value in (-half, -0.5 * half, 0.0, 0.999 * half,
                      math.nextafter(half, 0.0)):
            index, residual = encode_bins(value, 0.0, spec)
            assert 0 <= index < 12 and -0.5 <= residual < 0.5

    def test_spec_stores_python_scalars(self):
        spec = BinSpec(np.float32(3.0), np.int64(12))
        assert type(spec.half_range) is float and type(spec.num_bins) is int
        index, residual = encode_bins(0.1, 0.0, spec)
        assert type(residual) is float
        assert (index, residual) == encode_bins(0.1, 0.0, BinSpec(3.0, 12))


class TestBinCrossEntropy:
    def test_uniform_logits(self):
        assert bin_cross_entropy(np.zeros(12), 3) == pytest.approx(math.log(12))

    def test_saturated_target(self):
        # residual mass is 7 e^-20, about 1.4e-8
        logits = np.zeros(8)
        logits[5] = 20.0
        assert bin_cross_entropy(logits, 5) == pytest.approx(0.0, abs=1e-7)

    def test_known_value(self):
        expected = -math.log(math.exp(3) / (math.e + math.e ** 2 + math.e ** 3))
        assert bin_cross_entropy([1.0, 2.0, 3.0], 2) == pytest.approx(
            expected, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(72)
        for _ in range(100):
            logits = rng.normal(0, 5, size=int(rng.integers(2, 16)))
            target = int(rng.integers(0, logits.size))
            assert bin_cross_entropy(logits, target) >= 0.0

    def test_bad_target_rejected(self):
        with pytest.raises(InvalidCount):
            bin_cross_entropy(np.zeros(4), 4)
        with pytest.raises(DimensionMismatch):
            bin_cross_entropy(np.zeros((2, 2)), 0)
        with pytest.raises(DimensionMismatch):
            bin_cross_entropy(np.zeros(0), 0)

    @pytest.mark.parametrize("target", [True, 1.5, 2.0])
    def test_target_bin_must_be_an_integer(self, target):
        with pytest.raises(InvalidCount, match=(
                f"^target_bin must be an integer, got {target!r}$")):
            bin_cross_entropy(np.zeros(4), target)
        assert bin_cross_entropy(np.zeros(4), np.int64(2)) == pytest.approx(
            math.log(4))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_logits_rejected(self, bad):
        with pytest.raises(ValueError, match="logits must be finite"):
            bin_cross_entropy([bad, 0.0], 0)


class TestIouRegLoss:
    def test_identical_boxes(self):
        assert iou_reg_loss(box(), box()) == pytest.approx(0.0, abs=1e-12)

    def test_offset_unit_squares(self):
        assert iou_reg_loss(box(), box(cx=0.5)) == pytest.approx(
            math.log(3.0), abs=1e-12)

    def test_disjoint_boxes_stay_finite(self):
        value = iou_reg_loss(box(), box(cx=100.0))
        assert value == pytest.approx(-math.log(1e-6))

    def test_nonnegative(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            a = box(cx=float(rng.uniform(-1, 1)), yaw=float(rng.uniform(-3, 3)))
            b = box(cz=float(rng.uniform(-1, 1)), w=2.0)
            assert iou_reg_loss(a, b) >= 0.0


class TestRegressionLoss:
    cfg = BinConfig()

    def perfect_prediction(self, gt, anchor):
        target = encode_box_target(gt, anchor, self.cfg)
        logits = {}
        for name, bin_index in (("x", target.bin_x), ("z", target.bin_z),
                                ("yaw", target.bin_yaw)):
            spec = getattr(self.cfg, name)
            arr = np.zeros(spec.num_bins)
            arr[bin_index] = 30.0
            logits[name] = arr
        pred = RegressionPrediction(
            logits_x=logits["x"],
            logits_z=logits["z"],
            logits_yaw=logits["yaw"],
            residuals=target.residuals.copy(),
        )
        return pred, target

    def test_perfect_prediction_is_near_zero(self):
        gt = box(cx=1.3, cy=0.2, cz=-0.7, l=2.0, h=1.5, w=1.2, yaw=0.4)
        anchor = box(cx=1.0, cy=0.0, cz=0.0, l=2.2, h=1.4, w=1.0, yaw=0.3)
        pred, target = self.perfect_prediction(gt, anchor)
        loss = regression_loss(pred, target, gt, gt, self.cfg)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_uniform_logits_entropy_sum(self):
        gt = box()
        anchor = box()
        target = encode_box_target(gt, anchor, self.cfg)
        pred = RegressionPrediction(
            logits_x=np.zeros(12), logits_z=np.zeros(12),
            logits_yaw=np.zeros(12), residuals=target.residuals.copy(),
        )
        loss = regression_loss(pred, target, gt, gt, self.cfg)
        assert loss == pytest.approx(3.0 * math.log(12.0), abs=1e-9)

    def test_equals_sum_of_standalone_terms(self):
        rng = np.random.default_rng(74)
        gt = box(cx=0.8, cz=-0.3, yaw=0.5)
        anchor = box()
        pred_box = box(cx=0.6, cz=-0.2, yaw=0.4)
        target = encode_box_target(gt, anchor, self.cfg)
        pred = RegressionPrediction(
            logits_x=rng.normal(size=12),
            logits_z=rng.normal(size=12),
            logits_yaw=rng.normal(size=12),
            residuals=rng.normal(size=7),
        )
        expected = (
            bin_cross_entropy(pred.logits_x, target.bin_x)
            + bin_cross_entropy(pred.logits_z, target.bin_z)
            + bin_cross_entropy(pred.logits_yaw, target.bin_yaw)
            + sum(smooth_l1(float(pred.residuals[i]), float(target.residuals[i]))
                  for i in range(7))
            + iou_reg_loss(pred_box, gt)
        )
        got = regression_loss(pred, target, pred_box, gt, self.cfg)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_breakdown_holds_each_standalone_term(self):
        rng = np.random.default_rng(75)
        gt = box(cx=0.8, cz=-0.3, yaw=0.5)
        anchor = box()
        pred_box = box(cx=0.6, cz=-0.2, yaw=0.4)
        target = encode_box_target(gt, anchor, self.cfg)
        pred = RegressionPrediction(
            logits_x=rng.normal(size=12),
            logits_z=rng.normal(size=12),
            logits_yaw=rng.normal(size=12),
            residuals=rng.normal(size=7),
        )
        terms = regression_terms(pred, target, pred_box, gt, self.cfg)
        assert terms == RegressionTerms(
            ce_x=bin_cross_entropy(pred.logits_x, target.bin_x),
            ce_z=bin_cross_entropy(pred.logits_z, target.bin_z),
            ce_yaw=bin_cross_entropy(pred.logits_yaw, target.bin_yaw),
            smooth_l1_sum=sum(
                smooth_l1(float(pred.residuals[i]), float(target.residuals[i]))
                for i in range(7)),
            iou_regularizer=iou_reg_loss(pred_box, gt),
        )
        # the objective is the breakdown's sum, in the same order
        assert regression_loss(pred, target, pred_box, gt, self.cfg) == (
            (terms.ce_x + terms.ce_z + terms.ce_yaw)
            + terms.smooth_l1_sum + terms.iou_regularizer)
        assert isinstance(terms.total, float)

    @staticmethod
    def standalone_terms(pred, target, pred_box, gt):
        """The breakdown from the one-term functions, each residual read
        as a numpy scalar: the definition every term must keep, bit for
        bit."""
        return RegressionTerms(
            ce_x=bin_cross_entropy(pred.logits_x, target.bin_x),
            ce_z=bin_cross_entropy(pred.logits_z, target.bin_z),
            ce_yaw=bin_cross_entropy(pred.logits_yaw, target.bin_yaw),
            smooth_l1_sum=sum(
                smooth_l1(float(pred.residuals[i]), float(target.residuals[i]))
                for i in range(7)),
            iou_regularizer=iou_reg_loss(pred_box, gt))

    def test_terms_bit_equal_the_standalone_terms(self):
        # the loss-eval fixture of tests/test_cli.py, then 1000 random
        # pairs with logits from flat to peaked
        rng = np.random.default_rng(76)
        gt = anchor = box()
        cases = [(gt, anchor, box(cx=0.5), np.zeros((3, 12)), np.zeros(7))]
        for _ in range(1000):
            gt = box(*rng.uniform(-20.0, 20.0, 3), *rng.uniform(0.5, 5.0, 3),
                     rng.uniform(-np.pi, np.pi))
            anchor, pred_box = (
                Box3D(gt.center + rng.uniform(-2.9, 2.9, 3),
                      *(np.array([gt.length, gt.height, gt.width])
                        * rng.uniform(0.7, 1.3, 3)),
                      gt.yaw + rng.normal(0.0, 1.0)) for _ in range(2))
            cases.append((gt, anchor, pred_box,
                          rng.normal(size=(3, 12)) * rng.choice([0.1, 1.0, 30.0]),
                          rng.normal(size=7) * rng.choice([0.1, 1.0, 10.0])))
        for gt, anchor, pred_box, logits, residuals in cases:
            target = encode_box_target(gt, anchor, self.cfg)
            pred = RegressionPrediction(*logits, residuals)
            got = regression_terms(pred, target, pred_box, gt, self.cfg)
            expected = self.standalone_terms(pred, target, pred_box, gt)
            assert [float.hex(v) for v in vars(got).values()] == [
                float.hex(v) for v in vars(expected).values()]

    def test_termwise_monotonicity(self):
        gt = box(cx=1.3, cz=-0.7, yaw=0.4)
        anchor = box(cx=1.0, cz=0.0, yaw=0.3)
        pred, target = self.perfect_prediction(gt, anchor)
        base = regression_loss(pred, target, gt, gt, self.cfg)
        worse = RegressionPrediction(
            logits_x=pred.logits_x, logits_z=pred.logits_z,
            logits_yaw=pred.logits_yaw,
            residuals=pred.residuals + np.eye(7)[3] * 0.4,
        )
        assert regression_loss(worse, target, gt, gt, self.cfg) > base
        worse_box = box(cx=1.8, cz=-0.7, l=1.0, yaw=0.4)
        assert regression_loss(pred, target, worse_box, gt, self.cfg) > base

    @pytest.mark.parametrize("name", ["logits_x", "logits_z", "logits_yaw"])
    def test_logits_length_checked(self, name):
        gt, anchor = box(), box()
        target = encode_box_target(gt, anchor, self.cfg)
        logits = {"logits_x": np.zeros(12), "logits_z": np.zeros(12),
                  "logits_yaw": np.zeros(12), name: np.zeros(11)}
        pred = RegressionPrediction(**logits, residuals=np.zeros(7))
        message = rf"^{name} must have shape \(12,\), got \(11,\)$"
        with pytest.raises(DimensionMismatch, match=message):
            regression_loss(pred, target, gt, gt, self.cfg)
        with pytest.raises(DimensionMismatch, match=message):
            regression_terms(pred, target, gt, gt, self.cfg)

    @pytest.mark.parametrize("name", ["logits_x", "logits_z", "logits_yaw"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_logits_made_nonfinite_after_construction_rejected(self, name, value):
        gt, anchor = box(), box()
        target = encode_box_target(gt, anchor, self.cfg)
        pred = RegressionPrediction(logits_x=np.zeros(12), logits_z=np.zeros(12),
                                    logits_yaw=np.zeros(12), residuals=np.zeros(7))
        getattr(pred, name)[3] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            regression_terms(pred, target, gt, gt, self.cfg)

    @pytest.mark.parametrize("shape", [(6,), (8,), (1, 7)])
    def test_residuals_of_wrong_shape_rejected(self, shape):
        with pytest.raises(DimensionMismatch, match=r"shape \(7,\)"):
            RegressionPrediction(
                logits_x=np.zeros(12), logits_z=np.zeros(12),
                logits_yaw=np.zeros(12), residuals=np.zeros(shape),
            )
        with pytest.raises(DimensionMismatch, match=r"shape \(7,\)"):
            BoxTarget(bin_x=0, bin_z=0, bin_yaw=0, residuals=np.zeros(shape))

    @pytest.mark.parametrize("name", ["logits_x", "logits_z", "logits_yaw",
                                      "residuals"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_prediction_rejected(self, name, value):
        arrays = {"logits_x": np.zeros(12), "logits_z": np.zeros(12),
                  "logits_yaw": np.zeros(12), "residuals": np.zeros(7)}
        arrays[name][3] = value
        with pytest.raises(ValueError, match=name):
            RegressionPrediction(**arrays)


class TestTotalLoss:
    def test_all_zero(self):
        assert total_loss(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_plain_sum(self):
        assert total_loss(1.0, 2.0, 3.0, 4.0) == 10.0

    def test_permutation_invariant(self):
        terms = (0.3, 1.7, 0.9, 2.1)
        base = total_loss(*terms)
        assert total_loss(terms[2], terms[0], terms[3], terms[1]) == pytest.approx(base)

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_term_rejected(self, position, bad):
        terms = [0.0] * 4
        terms[position] = bad
        with pytest.raises(DomainError):
            total_loss(*terms)


    @pytest.mark.parametrize("terms", [
        (1e308, 1e308, 0.0, 0.0),
        (0.0, -1e308, 0.0, -1e308),
        (1.7e308, 0.0, 0.0, 0.1e308),
    ])
    def test_overflowing_sum_rejected(self, terms):
        with pytest.raises(DomainError, match="overflows"):
            total_loss(*terms)

    def test_largest_finite_sum_kept(self):
        big = np.finfo(np.float64).max
        assert total_loss(big, 0.0, 0.0, 0.0) == big
        assert total_loss(big, -big, 1.0, 0.0) == 1.0


class TestEncodeBoxTarget:
    def test_residual_layout(self):
        gt = box(cx=1.2, cy=0.3, cz=-0.4, l=2.0, h=1.5, w=1.1, yaw=0.6)
        anchor = box(cx=1.0, cy=0.1, cz=0.0, l=1.8, h=1.2, w=1.0, yaw=0.5)
        target = encode_box_target(gt, anchor)
        # y, l, h, w entries are plain offsets
        assert target.residuals[1] == pytest.approx(0.2)
        assert target.residuals[3] == pytest.approx(0.2)
        assert target.residuals[4] == pytest.approx(0.3)
        assert target.residuals[5] == pytest.approx(0.1)
        # x, z, yaw entries decode back through their bins
        cfg = BinConfig()
        assert decode_bins(target.bin_x, target.residuals[0],
                           anchor.center[0], cfg.x) == pytest.approx(1.2)
        assert decode_bins(target.bin_z, target.residuals[2],
                           anchor.center[2], cfg.z) == pytest.approx(-0.4)
        decoded_yaw = decode_bins(target.bin_yaw, target.residuals[6],
                                  anchor.yaw, cfg.yaw)
        assert abs(wrap_angle(decoded_yaw - 0.6)) < 1e-12

    def test_out_of_range_center_propagates(self):
        with pytest.raises(OutOfRange):
            encode_box_target(box(cx=5.0), box())
