import math
import os
import re
import sys

import numpy as np
import pytest

from fuse3d import (
    BinSpec,
    Box3D,
    DimensionMismatch,
    DomainError,
    FocalConfig,
    InvalidCount,
    PointCloud,
    Proposal,
    RunConfig,
    SyntheticSceneSpec,
    bin_cross_entropy,
    decode_bins,
    encode_bins,
    enlarge_box,
    farthest_point_sampling,
    finite_diff_grad,
    focal_loss,
    hybrid_sweep,
    init_params,
    nms,
    roi_pooled_fusion,
    rotate_y,
    run_gradcheck,
    scale,
    select_proposals,
    sigmoid,
    smooth_l1,
    subsystem_seed,
    total_loss,
    wrap_angle,
)
from fuse3d.cli import _build_parser, cmd_gradcheck
from fuse3d.numerics import _count, _real, checked_array

from oracles import scalar_finite_diff_grad


class TestSigmoid:
    def test_symmetry_point(self):
        assert float(sigmoid(0.0)) == 0.5

    def test_known_value(self):
        # 1 / (1 + e^-2)
        np.testing.assert_allclose(float(sigmoid(2.0)), 0.8807970779778823,
                                   rtol=0, atol=1e-15)

    def test_mirror_sum_is_one(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-30, 30, size=1000)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-14)

    def test_strictly_inside_unit_interval(self):
        x = np.array([-1e308, -1e6, -745.0, -40.0, 0.0, 40.0, 745.0, 1e6, 1e308])
        s = sigmoid(x)
        assert np.all(s > 0.0)
        assert np.all(s < 1.0)
        assert np.isfinite(s).all()

    def test_monotone(self):
        x = np.linspace(-20, 20, 2001)
        assert np.all(np.diff(sigmoid(x)) > 0)

    def test_equals_two_branch_clipped_form_bit_for_bit(self):
        # the stable two-branch form, clamped by np.clip, NaN included
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.standard_normal(4000) * scale
                            for scale in (1.0, 10.0, 40.0, 800.0)]
                           + [[math.nan, math.inf, -math.inf, 0.0, -0.0,
                               5e-324, -5e-324, 36.0, -36.0, 1e308]])
        e = np.exp(-np.abs(x))
        expected = np.clip(np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)),
                           np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))
        got = sigmoid(x.reshape(-1, 2, 1))
        assert got.shape == (x.size // 2, 2, 1)
        assert got.reshape(-1).tobytes() == expected.tobytes()


class TestFiniteDiffGrad:
    def test_sum_of_squares(self):
        grad = finite_diff_grad(lambda s: (s ** 2).sum(axis=(1, 2)), [[3.0]],
                                eps=1e-4)
        np.testing.assert_allclose(grad, [[6.0]], rtol=1e-6)

    def test_constant_function(self):
        grad = finite_diff_grad(lambda s: np.full(len(s), 7.5), np.ones((2, 3)),
                                eps=1e-4)
        np.testing.assert_array_equal(grad, np.zeros((2, 3)))

    def test_linear_function(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 2))
        grad = finite_diff_grad(lambda s: s.sum(axis=(1, 2)), x, eps=1e-4)
        np.testing.assert_allclose(grad, np.ones((3, 2)), rtol=1e-9)

    def test_quadratic_matches_analytic(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((4, 4))
        q = q + q.T
        x = rng.standard_normal(4)

        def f(stack):
            return np.array([float(v @ q @ v) for v in stack])

        grad = finite_diff_grad(f, x, eps=1e-4)
        analytic = 2.0 * q @ x
        assert float(np.abs(grad - analytic).max() / np.abs(analytic).max()) < 1e-6

    def test_one_call_on_the_whole_stencil(self):
        x = np.arange(6.0).reshape(2, 3) - 2.5
        eps = 0.25
        calls = []

        def f(stack):
            calls.append(stack.copy())
            return stack.reshape(len(stack), -1) @ np.arange(1.0, 7.0)

        grad = finite_diff_grad(f, x, eps=eps)
        assert len(calls) == 1
        [stack] = calls
        assert stack.shape == (12, 2, 3)
        for k in range(6):
            plus, minus = x.copy(), x.copy()
            plus.flat[k] = x.flat[k] + eps
            minus.flat[k] = x.flat[k] - eps
            np.testing.assert_array_equal(stack[k], plus)
            np.testing.assert_array_equal(stack[6 + k], minus)
        np.testing.assert_allclose(grad, np.arange(1.0, 7.0).reshape(2, 3),
                                   rtol=1e-12)

    def test_matches_scalar_oracle_bitwise(self):
        rng = np.random.default_rng(5)
        for shape in [(1,), (5,), (2, 3), (3, 1, 2)]:
            x = rng.standard_normal(shape)

            def scalar(v):
                return float(np.tanh(v).sum() + (v.reshape(-1)[:1] ** 3).sum())

            def rows(stack):
                return np.array([scalar(v) for v in stack])

            np.testing.assert_array_equal(
                finite_diff_grad(rows, x, eps=1e-5),
                scalar_finite_diff_grad(scalar, x, eps=1e-5),
            )

    def test_blocks_of_at_most_128_entries(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((20, 15))
        eps = 1e-5
        calls = []

        def scalar(v):
            return float(np.tanh(v).sum())

        def rows(stack):
            calls.append(stack.copy())
            return np.array([scalar(v) for v in stack])

        grad = finite_diff_grad(rows, x, eps=eps)
        assert [len(stack) for stack in calls] == [256, 256, 88]
        for block, stack in enumerate(calls):
            m = len(stack) // 2
            for i in range(m):
                plus, minus = x.copy(), x.copy()
                plus.flat[128 * block + i] += eps
                minus.flat[128 * block + i] -= eps
                np.testing.assert_array_equal(stack[i], plus)
                np.testing.assert_array_equal(stack[m + i], minus)
        np.testing.assert_array_equal(grad, scalar_finite_diff_grad(scalar, x, eps=eps))

    def test_wrong_value_shape_raises(self):
        with pytest.raises(ValueError, match="expected \\(16,\\)"):
            finite_diff_grad(lambda s: s.sum(axis=1), np.ones((4, 2)), eps=1e-4)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda m: 0.0, np.ones(2), eps=0.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-4])
    def test_rejects_nonfinite_or_negative_eps(self, eps):
        calls = []
        with pytest.raises(DomainError, match=r"^eps must be finite and in \(0, inf\)"):
            finite_diff_grad(lambda s: calls.append(s) or np.zeros(len(s)),
                             np.ones(2), eps=eps)
        assert calls == []


class TestCheckedArray:
    def test_float64_array_comes_back_unchanged(self):
        coords = np.zeros((5, 3))
        assert checked_array(coords, "coords", ("N", 3), finite=True) is coords
        assert PointCloud(coords).coords is coords

    def test_array_likes_convert_to_float64(self):
        out = checked_array([[1, 2, 3]], "coords", ("N", 3))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("shape, value, message", [
        (("N", 3), np.zeros((4, 2)), r"coords must have shape \(N, 3\), got \(4, 2\)"),
        ((7,), np.zeros(6), r"coords must have shape \(7,\), got \(6,\)"),
    ])
    def test_message_names_the_axes(self, shape, value, message):
        with pytest.raises(DimensionMismatch, match=message):
            checked_array(value, "coords", shape)

    @pytest.mark.parametrize("value", [np.zeros(3), np.zeros((1, 2, 3)), 1.0])
    def test_wrong_rank_raises(self, value):
        with pytest.raises(DimensionMismatch):
            checked_array(value, "coords", ("N", 3))

    def test_labels_match_any_length(self):
        for n in (0, 1, 17):
            assert checked_array(np.zeros((n, 3)), "coords", ("N", 3)).shape == (n, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected_only_when_asked(self, bad):
        value = np.array([0.0, bad])
        assert checked_array(value, "scores") is value
        with pytest.raises(ValueError, match="scores must be finite"):
            checked_array(value, "scores", finite=True)


def _pool(**kwargs):
    zeros = np.zeros((3, 1))
    box = Box3D(np.zeros(3), 1.0, 1.0, 1.0, 0.0)
    return roi_pooled_fusion(Proposal(box, 0.5), PointCloud(np.zeros((3, 3))),
                             zeros, zeros, zeros, **kwargs)


def _init(name, value):
    sizes = {"c_img": 1, "c_pt": 1, "c_prev": 1, "c_out": 1, name: value}
    return init_params(**sizes, rng=np.random.default_rng(0))


# Every public integer argument or RunConfig key with a lower bound:
# (owner, name, bound, call with that one value changed).
_INTEGER_ARGUMENTS = [
    *(("RunConfig", key, low, lambda v, key=key: RunConfig(**{key: v}))
      for key, low in (("pre_nms_top", 1), ("proposals_keep", 1),
                       ("roi_points", 1), ("bin_count_xz", 2),
                       ("bin_count_yaw", 2), ("seed", 0))),
    *(("SyntheticSceneSpec", key, low,
       lambda v, key=key: SyntheticSceneSpec(**{key: v}))
      for key, low in (("num_clusters", 1), ("points_per_cluster", 1),
                       ("background_points", 1), ("seed", 0))),
    *(("select_proposals", key, 1,
       lambda v, key=key: select_proposals([], **{key: v}))
      for key in ("pre_nms_top", "keep")),
    ("roi_pooled_fusion", "n_points", 1, lambda v: _pool(n_points=v)),
    ("roi_pooled_fusion", "seed", 0, lambda v: _pool(seed=v)),
    ("run_gradcheck", "seed", 0, lambda v: run_gradcheck(seed=v, trials=1)),
    *(("run_gradcheck", key, 1,
       lambda v, key=key: run_gradcheck(seed=0, **{key: v}))
      for key in ("trials", "max_points", "max_channels")),
    ("BinSpec", "num_bins", 2, lambda v: BinSpec(1.0, v)),
    *(("init_params", key, low, lambda v, key=key: _init(key, v))
      for key, low in (("c_img", 1), ("c_pt", 1), ("c_prev", 0), ("c_out", 1))),
    ("subsystem_seed", "global_seed", 0, lambda v: subsystem_seed(v, "roi")),
]


@pytest.mark.parametrize("owner, name, low, call", _INTEGER_ARGUMENTS,
                         ids=[f"{row[0]}.{row[1]}" for row in _INTEGER_ARGUMENTS])
class TestIntegerArguments:
    @pytest.mark.parametrize("value", [True, 2.5])
    def test_non_integer_is_invalid_count(self, owner, name, low, call, value):
        with pytest.raises(InvalidCount,
                           match=f"^{name} must be an integer, got {value!r}$"):
            call(value)

    def test_below_bound_is_invalid_count(self, owner, name, low, call):
        with pytest.raises(InvalidCount,
                           match=f"^{name} must be >= {low}, got {low - 1}$"):
            call(low - 1)

    def test_bound_itself_passes(self, owner, name, low, call):
        call(np.int64(low))


def _box(**fields):
    values = dict(center=np.zeros(3), length=1.0, height=1.0, width=1.0, yaw=0.0)
    return Box3D(**dict(values, **fields))


def _gradcheck_cli(tolerance):
    args = _build_parser().parse_args(
        ["gradcheck", "--trials", "1", "--out", os.devnull])
    args.tolerance = tolerance
    return cmd_gradcheck(args)


_CLOUD = PointCloud(np.arange(12.0).reshape(4, 3))
_TERMS = ("rpn_cls", "rpn_reg", "rcnn_cls", "rcnn_reg")


def _total(name, value):
    return total_loss(*(value if term == name else 1.0 for term in _TERMS))


# Every integer argument with an upper bound as well: (owner, name, low,
# high, call with that one value changed). _CLOUD has 4 points.
_BOUNDED_INTEGER_ARGUMENTS = [
    ("farthest_point_sampling", "n", 1, 4,
     lambda v: farthest_point_sampling(_CLOUD, v)),
    ("farthest_point_sampling", "seed_index", 0, 3,
     lambda v: farthest_point_sampling(_CLOUD, 1, v)),
    ("hybrid_sweep", "n", 1, 4,
     lambda v: hybrid_sweep(_CLOUD, np.full(4, 0.5), v, [1.0])),
    # checked even when no factor asks for a sample
    ("hybrid_sweep", "seed_index", 0, 3,
     lambda v: hybrid_sweep(_CLOUD, np.full(4, 0.5), 1, [], v)),
    ("decode_bins", "bin_index", 0, 11,
     lambda v: decode_bins(v, 0.0, 0.0, BinSpec(3.0, 12))),
    ("bin_cross_entropy", "target_bin", 0, 3,
     lambda v: bin_cross_entropy(np.zeros(4), v)),
]


@pytest.mark.parametrize("owner, name, low, high, call", _BOUNDED_INTEGER_ARGUMENTS,
                         ids=[f"{row[0]}.{row[1]}"
                              for row in _BOUNDED_INTEGER_ARGUMENTS])
class TestBoundedIntegerArguments:
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_outside_bounds_is_invalid_count(self, owner, name, low, high, call,
                                             side):
        value = low - 1 if side == "below" else high + 1
        with pytest.raises(InvalidCount, match=(
                rf"^{name} must be in \[{low}, {high}\], got {value}$")):
            call(value)

    def test_each_bound_passes(self, owner, name, low, high, call):
        call(np.int64(low))
        call(np.int64(high))

    @pytest.mark.parametrize("value", [True, 2.5])
    def test_non_integer_is_invalid_count(self, owner, name, low, high, call,
                                          value):
        with pytest.raises(InvalidCount,
                           match=f"^{name} must be an integer, got {value!r}$"):
            call(value)


class TestIntegerBeyondTheFloatRange:
    # str() refuses integers of more than 4300 digits, and one of a few
    # hundred would fill the message, so past the float range the
    # message gives the digit count
    @pytest.mark.parametrize("digits", [309, 400, 4300, 5000])
    def test_message_gives_the_digit_count(self, digits):
        for value, expected in ((10**digits - 1, digits), (10**digits, digits + 1)):
            with pytest.raises(InvalidCount, match=(
                    rf"^n must be in \[1, 10\], got an integer of {expected} digits$")):
                _count(value, "n", 1, 10)
            with pytest.raises(InvalidCount, match=(
                    f"^pre_nms_top must be >= 1, got a negative integer of "
                    f"{expected} digits$")):
                RunConfig(pre_nms_top=-value)

    def test_integer_within_the_float_range_shows_in_full(self):
        with pytest.raises(InvalidCount, match=f"^n must be >= 1, got -{10**308}$"):
            _count(-10**308, "n", 1)


# A half range is at most half the largest float, so that its search
# range, twice it, is finite.
_HALF_RANGE = f"(0, {sys.float_info.max / 2!r}]"

# Every scalar real argument or field with its interval: (owner, name,
# interval, a value inside it, call with that one value changed).
_REAL_ARGUMENTS = [
    ("wrap_angle", "theta", "(-inf, inf)", 0.5, wrap_angle),
    *(("Box3D", key, "[1e-50, 1e+50]", 1.5, lambda v, key=key: _box(**{key: v}))
      for key in ("length", "height", "width")),
    ("Box3D", "yaw", "(-inf, inf)", 0.5, lambda v: _box(yaw=v)),
    ("nms", "iou_threshold", "[0, 1]", 0.5, lambda v: nms([_box()], [1.0], v)),
    ("enlarge_box", "amount", "[0, 1e+50]", 0.5, lambda v: enlarge_box(_box(), v)),
    ("rotate_y", "angle", "(-inf, inf)", 0.5, lambda v: rotate_y(_CLOUD, v)),
    ("scale", "factor", "(0, inf)", 1.5, lambda v: scale(_CLOUD, v)),
    ("Proposal", "score", "(-inf, inf)", 0.5, lambda v: Proposal(_box(), v)),
    ("FocalConfig", "alpha", "(0, 1)", 0.5, lambda v: FocalConfig(alpha=v)),
    ("FocalConfig", "gamma", "[0, inf)", 1.5, lambda v: FocalConfig(gamma=v)),
    ("focal_loss", "c_t", "(0, 1]", 0.5, focal_loss),
    ("smooth_l1", "pred", "(-inf, inf)", 0.5, lambda v: smooth_l1(v, 0.0)),
    ("smooth_l1", "target", "(-inf, inf)", 0.5, lambda v: smooth_l1(0.0, v)),
    ("BinSpec", "half_range", _HALF_RANGE, 1.5, lambda v: BinSpec(v, 12)),
    ("encode_bins", "value", "(-inf, inf)", 0.5,
     lambda v: encode_bins(v, 0.0, BinSpec(3.0, 12))),
    ("encode_bins", "anchor", "(-inf, inf)", 0.5,
     lambda v: encode_bins(0.0, v, BinSpec(3.0, 12))),
    ("decode_bins", "residual", "(-inf, inf)", 0.5,
     lambda v: decode_bins(0, v, 0.0, BinSpec(3.0, 12))),
    ("decode_bins", "anchor", "(-inf, inf)", 0.5,
     lambda v: decode_bins(0, 0.0, v, BinSpec(3.0, 12))),
    *(("total_loss", key, "(-inf, inf)", 0.5, lambda v, key=key: _total(key, v))
      for key in _TERMS),
    *(("RunConfig", key, interval, inside,
       lambda v, key=key: RunConfig(**{key: v}))
      for key, interval, inside in (
          ("nms_threshold", "[0, 1]", 0.5), ("enlarge", "[0, 1e+50]", 0.5),
          ("focal_alpha", "(0, 1)", 0.5), ("focal_gamma", "[0, inf)", 1.5),
          ("bin_half_range", _HALF_RANGE, 1.5))),
    *(("SyntheticSceneSpec", key, interval, inside,
       lambda v, key=key: SyntheticSceneSpec(**{key: v}))
      for key, interval, inside in (
          ("cluster_radius", "(0, inf)", 1.5),
          ("background_extent", "(0, inf)", 1.5),
          ("attention_contrast", "[0, 1)", 0.5))),
    ("finite_diff_grad", "eps", "(0, inf)", 0.5,
     lambda v: finite_diff_grad(lambda s: np.zeros(len(s)), np.ones(2), v)),
    ("cmd_gradcheck", "tolerance", "(0, inf)", 1.5, _gradcheck_cli),
    # the type and finiteness only: the range [1, N/n] is an InvalidCount
    ("hybrid_sweep", "oversample factor", "(-inf, inf)", 1.5,
     lambda v: hybrid_sweep(_CLOUD, np.full(4, 0.5), 2, [v])),
]


def _ends(interval):
    """(low, high, low closed, high closed) of an interval such as "(0, 1]"."""
    low, high = interval[1:-1].split(", ")
    return float(low), float(high), interval[0] == "[", interval[-1] == "]"


def _contains(interval, value):
    low, high, low_closed, high_closed = _ends(interval)
    return ((low <= value) if low_closed else (low < value)) and (
        (value <= high) if high_closed else (value < high))


@pytest.mark.parametrize("owner, name, interval, inside, call", _REAL_ARGUMENTS,
                         ids=[f"{row[0]}.{row[1]}" for row in _REAL_ARGUMENTS])
class TestRealArguments:
    @pytest.mark.parametrize("value", [True, np.True_, "1.5", None])
    def test_non_real_is_domain_error(self, owner, name, interval, inside,
                                      call, value):
        message = f"{name} must be a real number, got {value!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(value)

    def test_nonfinite_or_outside_is_domain_error(self, owner, name, interval,
                                                  inside, call):
        low, high, low_closed, high_closed = _ends(interval)
        outside = [math.nan, math.inf, -math.inf]
        if math.isfinite(low):
            outside.append(math.nextafter(low, -math.inf) if low_closed else low)
        if math.isfinite(high):
            outside.append(math.nextafter(high, math.inf) if high_closed else high)
        for value in outside:
            message = f"{name} must be finite and in {interval}, got {value!r}"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                call(value)

    def test_closed_bounds_numpy_floats_and_integers_pass(
            self, owner, name, interval, inside, call):
        low, high, low_closed, high_closed = _ends(interval)
        values = [np.float32(inside), np.float64(inside)]
        values += [bound for bound, closed in ((low, low_closed), (high, high_closed))
                   if closed]
        values += [i for i in (math.floor(inside), math.ceil(inside))
                   if _contains(interval, i)]
        for value in values:
            call(value)


class TestReal:
    def test_returns_the_float_of_its_argument(self):
        for value in (np.float32(0.1), np.float64(0.1), 3):
            out = _real(value, "x")
            assert type(out) is float and out == float(value)

    def test_integer_beyond_the_float_range_is_not_finite(self):
        with pytest.raises(DomainError, match="^x must be finite and in"):
            _real(10 ** 400, "x")
