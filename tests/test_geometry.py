import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from fuse3d import (
    Box3D,
    DimensionMismatch,
    DomainError,
    PointCloud,
    Proposal,
    SyntheticSceneSpec,
    bilinear_sample,
    crop_range,
    enlarge_box,
    gather_point_image_features,
    generate_scene,
    iou_3d,
    iou_bev,
    nms,
    points_in_box,
    project_points,
    rotate_y,
    scale,
    select_proposals,
    wrap_angle,
)
from fuse3d import geometry
from fuse3d.geometry import (
    _KERNEL_ROWS,
    _apart,
    _footprints,
    _greedy_nms,
    _intersection_area_bev,
    _iou_may_exceed,
    _overlap_areas,
)
from oracles import (
    brute_nms,
    clip_overlap_area,
    clustered_boxes,
    mc_iou_3d,
    mc_iou_bev,
    points_in_box_full,
    points_in_box_oracle,
    random_box,
    scalar_image_feature,
)

IDENTITY_M = np.hstack([np.eye(3), np.zeros((3, 1))])


def unit_box(cx=0.0, cy=0.0, cz=0.0, l=1.0, h=1.0, w=1.0, yaw=0.0):
    return Box3D(np.array([cx, cy, cz]), l, h, w, yaw)


def shifted(box, dl=0.0, dw=0.0):
    """``box`` moved dl along its length axis and dw along its width axis."""
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    return Box3D(box.center + np.array([dl * c + dw * s, 0.0, -dl * s + dw * c]),
                 box.length, box.height, box.width, box.yaw)


def degenerate_pairs():
    """Named pairs whose overlap polygon is degenerate or whose edges
    partly coincide, far from the origin."""
    base = Box3D(np.array([12.3, 0.4, 31.7]), 4.2, 1.5, 1.8, 0.7)
    l, w = base.length, base.width
    square = Box3D(base.center, 1.0, base.height, 1.0, base.yaw)
    long_ = Box3D(base.center, 11.0, base.height, 1.0, base.yaw)
    return {
        "identical": (base, shifted(base)),
        "shared_short_edge": (base, shifted(base, l)),
        "shared_long_edge": (base, shifted(base, dw=w)),
        "half_shared_edge": (base, shifted(base, l, 0.5 * w)),
        "touching_corners": (base, shifted(base, l, w)),
        # long edges on the same lines, running the same way
        "slid_along_edge": (base, shifted(base, 0.5 * l)),
        "nested": (base, Box3D(base.center, 1.0, 1.0, 0.5, 0.2)),
        # one long edge of b on a's, running the same way
        "flush_nested": (base, shifted(Box3D(base.center, 2.0, 1.0, 1.0, base.yaw),
                                       dw=0.5 * (w - 1.0))),
        "swapped": (base, Box3D(base.center, w, base.height, l, base.yaw + np.pi / 2)),
        # b's top edge 1e-11 below a's 11 m bottom edge: a's corners are
        # within the tolerance of b's edge line, b's not of a's
        "gap_under_long_edge": (long_, shifted(square, dw=-(1.0 + 1e-11))),
        # b's 11 m bottom edge turned by 9e-12 rad, its ends within 5e-11
        # of the line of a's bottom edge: the overlap is all of a
        "tilted_long_flush": (square, Box3D(shifted(square, -4.0).center, 11.0,
                                            base.height, 1.0, base.yaw + 1e-10 / 11)),
    }


def near_collinear_pair(rng):
    """A random box a and a box b with an edge along the line of a's edge
    at -width/2, turned and moved off that line by tiny random amounts
    (or not at all), on either side of it and sliding anywhere along it."""
    big_l, big_w, l, w = rng.uniform(0.5, 12.0, size=4)
    a = Box3D(rng.uniform(-40.0, 40.0, size=3), big_l, 1.0, big_w, rng.uniform(-np.pi, np.pi))
    quarter_turns = rng.integers(4)
    sign = rng.choice([-1.0, 1.0], size=2) * rng.integers(2, size=2)
    tilt, offset = sign * 10.0 ** rng.uniform(-14, -7, size=2)
    center = shifted(a, rng.uniform(-0.5, 0.5) * (big_l + l),
                     -0.5 * big_w + rng.choice([-0.5, 0.5]) * w + offset).center
    if quarter_turns % 2:
        l, w = w, l
    return a, Box3D(center, l, 1.0, w, a.yaw + quarter_turns * np.pi / 2 + tilt)


class TestTypes:
    def test_cloud_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatch):
            PointCloud(np.zeros((4, 2)))

    def test_cloud_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, np.nan, 0.0]]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="intensities must be finite"):
                PointCloud(np.zeros((2, 3)), intensity=np.array([0.0, bad]))

    def test_cloud_intensity_length_checked(self):
        with pytest.raises(DimensionMismatch):
            PointCloud(np.zeros((3, 3)), intensity=np.zeros(2))

    def test_box_normalizes_yaw(self):
        assert unit_box(yaw=3 * np.pi).yaw == pytest.approx(-np.pi)
        assert -np.pi <= unit_box(yaw=123.4).yaw < np.pi

    def test_box_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            unit_box(l=0.0)

    @pytest.mark.parametrize("size", [{"l": np.inf}, {"h": np.nan}, {"w": np.inf},
                                      {"w": -1.0}])
    def test_box_rejects_nonfinite_sizes(self, size):
        (key, value), = size.items()
        name = {"l": "length", "h": "height", "w": "width"}[key]
        message = f"{name} must be finite and in (0, inf), got {value!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            unit_box(**size)

    @pytest.mark.parametrize("yaw", [np.nan, np.inf, -np.inf])
    def test_box_rejects_nonfinite_yaw(self, yaw):
        with pytest.raises(ValueError, match="yaw must be finite"):
            unit_box(yaw=yaw)

    def test_wrap_angle_halfopen(self):
        assert wrap_angle(np.pi) == pytest.approx(-np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(-np.pi)
        assert wrap_angle(0.25) == pytest.approx(0.25)
        # the modulo rounds this one onto +pi, the excluded end
        assert wrap_angle(np.nextafter(-np.pi, -np.inf)) == -np.pi
        assert Box3D(np.zeros(3), 1.0, 1.0, 1.0,
                     np.nextafter(-np.pi, -np.inf)).yaw == -np.pi

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_wrap_angle_rejects_nonfinite(self, theta):
        message = f"theta must be finite and in (-inf, inf), got {theta!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            wrap_angle(theta)


class TestProjection:
    def test_identity_intrinsics(self):
        us, vs, depth = project_points(np.array([[1.0, 2.0, 4.0]]), IDENTITY_M)
        assert (us[0], vs[0], depth[0]) == (0.25, 0.5, 4.0)

    def test_behind_camera(self):
        coords = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 4.0]])
        us, vs, depth = project_points(coords, IDENTITY_M)
        np.testing.assert_array_equal(depth, [-1.0, 0.0, 4.0])
        assert np.isnan(us[:2]).all() and np.isnan(vs[:2]).all()
        assert (us[2], vs[2]) == (0.25, 0.5)

    def test_focal_and_principal_point(self):
        m = np.array([[2.0, 0, 3, 0], [0, 2.0, 3, 0], [0, 0, 1.0, 0]])
        us, vs, depth = project_points(np.array([[1.0, 1.0, 2.0]]), m)
        assert (us[0], vs[0], depth[0]) == (4.0, 4.0, 2.0)

    def test_vectorised_matches_one_row_calls(self):
        rng = np.random.default_rng(16)
        m = np.array([[700.0, 0, 620, 4.0], [0, 700.0, 190, -2.0],
                      [0.01, 0, 1.0, 0.3]])
        coords = rng.uniform([-10, -10, -5], [10, 10, 40], size=(64, 3))
        us, vs, depth = project_points(coords, m)
        assert (depth <= 0).any() and (depth > 0).any()
        for i, p in enumerate(coords):
            (u,), (v,), (d,) = project_points(p[None], m)
            assert d == depth[i]
            if d <= 0:
                assert np.isnan(u) and np.isnan(v)
                assert np.isnan(us[i]) and np.isnan(vs[i])
            else:
                assert (u, v) == (us[i], vs[i])

    def test_points_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            project_points(np.zeros((4, 2)), IDENTITY_M)


class TestBilinearSample:
    fmap = np.arange(24.0).reshape(2, 3, 4)  # H=2, W=3, C=4

    def test_grid_node_is_exact(self):
        np.testing.assert_array_equal(
            bilinear_sample(self.fmap, 1.0, 1.0), self.fmap[1, 1]
        )

    def test_horizontal_midpoint_blend(self):
        expected = 0.5 * (self.fmap[0, 0] + self.fmap[0, 1])
        np.testing.assert_allclose(bilinear_sample(self.fmap, 0.5, 0.0), expected)

    def test_out_of_bounds_is_zero(self):
        np.testing.assert_array_equal(bilinear_sample(self.fmap, -5.0, -5.0),
                                      np.zeros(4))
        np.testing.assert_array_equal(bilinear_sample(self.fmap, 2.001, 0.0),
                                      np.zeros(4))
        np.testing.assert_array_equal(bilinear_sample(self.fmap, np.nan, 0.0),
                                      np.zeros(4))
        np.testing.assert_array_equal(bilinear_sample(self.fmap, 1.0, np.nan),
                                      np.zeros(4))

    def test_far_edge_is_in_bounds(self):
        np.testing.assert_array_equal(bilinear_sample(self.fmap, 2.0, 1.0),
                                      self.fmap[1, 2])

    def test_arrays_give_one_row_per_coordinate(self):
        us = np.array([1.0, 0.5, np.nan, 2.001, 2.0])
        vs = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
        out = bilinear_sample(self.fmap, us, vs)
        assert out.shape == (5, 4)
        for i in range(5):
            np.testing.assert_array_equal(
                out[i], bilinear_sample(self.fmap, us[i], vs[i]))


class TestGatherPointImageFeatures:
    def test_all_behind_camera(self):
        cloud = PointCloud(np.array([[0.0, 0, -1], [1.0, 1, -2]]))
        fmap = np.ones((4, 4, 2))
        feats, visible = gather_point_image_features(cloud, IDENTITY_M, fmap)
        np.testing.assert_array_equal(feats, np.zeros((2, 2)))
        assert not visible.any()

    def test_exact_pixel_hit(self):
        # depth 1 projects (u, v) = (x, y)
        cloud = PointCloud(np.array([[2.0, 1.0, 1.0]]))
        fmap = np.arange(36.0).reshape(3, 4, 3)
        feats, visible = gather_point_image_features(cloud, IDENTITY_M, fmap)
        np.testing.assert_array_equal(feats[0], fmap[1, 2])
        assert visible[0]

    def test_matches_per_point_composition(self):
        rng = np.random.default_rng(11)
        fmap = rng.standard_normal((5, 7, 3))
        coords = np.array([
            [0.5, 0.5, 1.0],     # visible, fractional landing
            [0.0, 0.0, -2.0],    # behind camera
            [50.0, 0.0, 1.0],    # projects outside the image
        ])
        cloud = PointCloud(coords)
        m = np.array([[2.0, 0, 3, 0], [0, 2.0, 2, 0], [0, 0, 1.0, 0]])
        feats, visible = gather_point_image_features(cloud, m, fmap)
        expected = np.array([scalar_image_feature(fmap, m, p) for p in coords])
        np.testing.assert_allclose(feats, expected, atol=1e-12)
        np.testing.assert_array_equal(visible, [True, False, False])


class TestIoU:
    def test_identical_boxes(self):
        b = random_box(np.random.default_rng(12))
        assert iou_bev(b, b) == pytest.approx(1.0, abs=1e-12)
        assert iou_3d(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_boxes(self):
        a = unit_box()
        b = unit_box(cx=100.0)
        assert iou_bev(a, b) == 0.0
        assert iou_3d(a, b) == 0.0

    def test_offset_unit_squares(self):
        a = unit_box()
        b = unit_box(cx=0.5)
        assert iou_bev(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_half_height_overlap(self):
        a = unit_box()
        b = unit_box(cy=0.5)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_disjoint_in_height(self):
        assert iou_3d(unit_box(), unit_box(cy=5.0)) == 0.0

    def test_disjoint_boxes_whose_sizes_underflow(self):
        # area and volume round to 0, so the union is 0 as well
        a = unit_box(l=1e-200, h=1e-200, w=1e-200)
        b = unit_box(cx=1.0, l=1e-200, h=1e-200, w=1e-200)
        assert a.volume == a.length * a.width == 0.0
        assert iou_bev(a, b) == iou_3d(a, b) == 0.0
        assert nms([a, b], [0.9, 0.8], 0.0) == [0, 1]

    def test_results_are_python_floats(self):
        a, b = unit_box(), unit_box(cx=0.5, cy=0.5)
        assert type(iou_bev(a, b)) is float and type(iou_3d(a, b)) is float
        assert iou_3d(a, b) == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_yaw_pi_with_swapped_footprint_is_same_cuboid(self):
        a = Box3D(np.zeros(3), 2.0, 1.0, 1.0, 0.3)
        b = Box3D(np.zeros(3), 2.0, 1.0, 1.0, 0.3 + np.pi)
        c = Box3D(np.zeros(3), 1.0, 1.0, 2.0, 0.3 + np.pi / 2)
        assert iou_bev(a, b) == pytest.approx(1.0, abs=1e-9)
        assert iou_bev(a, c) == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            ab, ba = iou_bev(a, b), iou_bev(b, a)
            assert ab == pytest.approx(ba, abs=1e-12)
            assert 0.0 <= ab <= 1.0
            assert 0.0 <= iou_3d(a, b) <= 1.0

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a, b = random_box(rng), random_box(rng)
            assert abs(iou_bev(a, b) - mc_iou_bev(a, b, 100_000, rng)) < 0.01
            assert abs(iou_3d(a, b) - mc_iou_3d(a, b, 100_000, rng)) < 0.01


class TestOverlapKernel:
    def test_batched_equals_one_pair_bits(self):
        rng = np.random.default_rng(17)
        pairs = [(random_box(rng), random_box(rng)) for _ in range(300)]
        pairs += list(degenerate_pairs().values())
        pairs += [near_collinear_pair(rng) for _ in range(100)]
        corners_a = _footprints([a for a, _ in pairs])[1]
        corners_b = _footprints([b for _, b in pairs])[1]
        batched = _overlap_areas(corners_a, corners_b)
        alone = np.array([_overlap_areas(corners_a[k:k + 1], corners_b[k:k + 1])[0]
                          for k in range(len(pairs))])
        assert np.array_equal(batched, alone)
        # a batch longer than one slice of the kernel, ending mid-slice
        repeats = (2 * _KERNEL_ROWS) // len(pairs) + 1
        sliced = _overlap_areas(np.tile(corners_a, (repeats, 1, 1)),
                                np.tile(corners_b, (repeats, 1, 1)))
        assert len(sliced) % _KERNEL_ROWS and np.array_equal(sliced, np.tile(alone, repeats))
        one_pair = np.array([_intersection_area_bev(a, b) for a, b in pairs])
        assert np.array_equal(batched, one_pair)
        assert (batched > 0).sum() > 100  # many random pairs overlap

    def test_matches_clipping_oracle(self):
        rng = np.random.default_rng(20)
        pairs = [(random_box(rng), random_box(rng)) for _ in range(300)]
        base = degenerate_pairs()["identical"][0]
        l, w = base.length, base.width
        pairs += [(base, shifted(base, f * l)) for f in (0.25, 0.5, 0.75)]
        pairs += [degenerate_pairs()[name] for name in
                  ("flush_nested", "swapped", "gap_under_long_edge", "tilted_long_flush")]
        pairs.append((base, Box3D(base.center, l, base.height, w, base.yaw + np.pi)))
        pairs += [(b, a) for a, b in pairs[300:]]
        corners_a = _footprints([a for a, _ in pairs])[1]
        corners_b = _footprints([b for _, b in pairs])[1]
        areas = _overlap_areas(corners_a, corners_b)
        for (a, b), area in zip(pairs, areas):
            own = min(a.length * a.width, b.length * b.width)
            assert abs(area - clip_overlap_area(a, b)) <= 1e-9 * own

    def test_near_collinear_edges_match_clipping_oracle(self):
        # the kernel zeroes overlaps up to 1e-9 of the smaller footprint,
        # which these pairs reach when b only grazes a, so the bound is
        # twice that share
        rng = np.random.default_rng(21)
        pairs = [near_collinear_pair(rng) for _ in range(400)]
        pairs += [(b, a) for a, b in pairs]
        corners_a = _footprints([a for a, _ in pairs])[1]
        corners_b = _footprints([b for _, b in pairs])[1]
        areas = _overlap_areas(corners_a, corners_b)
        for (a, b), area in zip(pairs, areas):
            own = min(a.length * a.width, b.length * b.width)
            assert abs(area - clip_overlap_area(a, b)) <= 2e-9 * own
        assert (areas > 0).sum() > 300  # half the pairs lie on a's side

    def test_footprints_match_one_row_calls(self):
        rng = np.random.default_rng(18)
        boxes = [random_box(rng, center_spread=40.0) for _ in range(50)]
        corners = _footprints(boxes)[1]
        for box, row in zip(boxes, corners):
            assert np.array_equal(_footprints([box])[1][0], row)

    def test_footprints_match_per_field_construction(self):
        # the table built field by field, each read and trig call per
        # field, gives the bits the one-read-per-box table must keep
        rng = np.random.default_rng(22)
        boxes = [random_box(rng, center_spread=40.0) for _ in range(200)]
        offsets = (-1e6, 0.0, 1e6)
        for size in (1e-6, 1e3):
            for yaw in (np.pi, -np.pi, np.nextafter(np.pi, 0.0), rng.uniform(-4, 4)):
                for dx in offsets:
                    center = np.array([dx, 0.5, -dx]) + rng.normal(size=3)
                    boxes.append(Box3D(center, size, 1.0, rng.uniform(1e-6, 1e3), yaw))
                    boxes.append(Box3D(center, rng.uniform(1e-6, 1e3), 1.0, size, yaw))
        rows = np.array(
            [(b.center[0], b.center[2], 0.5 * b.length, 0.5 * b.width,
              math.cos(b.yaw), -math.sin(b.yaw), math.sin(b.yaw), math.cos(b.yaw),
              b.length * b.width, 0.5 * math.hypot(b.length, b.width)) for b in boxes])
        lx = rows[:, None, 2:3] * np.array([[1.0], [-1.0], [-1.0], [1.0]])
        lz = rows[:, None, 3:4] * np.array([[1.0], [1.0], [-1.0], [-1.0]])
        corners = rows[:, None, 0:2] + (lx * rows[:, None, 4:6] + lz * rows[:, None, 6:8])
        table, got = _footprints(boxes)
        assert np.array_equal(table, rows)
        assert np.array_equal(got, corners)

    def test_degenerate_pairs(self):
        pairs = degenerate_pairs()
        base = pairs["identical"][0]
        for name in ("identical", "swapped"):
            a, b = pairs[name]
            assert iou_bev(a, b) == pytest.approx(1.0, abs=1e-12), name
            assert iou_bev(b, a) == pytest.approx(1.0, abs=1e-12), name
        for name in ("shared_short_edge", "shared_long_edge",
                     "half_shared_edge", "touching_corners"):
            a, b = pairs[name]
            assert _intersection_area_bev(a, b) == 0.0, name
            assert iou_bev(a, b) == 0.0 and iou_bev(b, a) == 0.0, name
            assert iou_3d(a, b) == 0.0, name
        a, b = pairs["nested"]
        assert _intersection_area_bev(a, b) == pytest.approx(0.5, rel=1e-12)
        assert iou_bev(b, a) == pytest.approx(0.5 / (base.length * base.width),
                                              rel=1e-12)
        a, b = pairs["slid_along_edge"]
        for inter in (_intersection_area_bev(a, b), _intersection_area_bev(b, a)):
            assert inter == pytest.approx(0.5 * base.length * base.width, rel=1e-12)
        a, b = pairs["flush_nested"]
        for inter in (_intersection_area_bev(a, b), _intersection_area_bev(b, a)):
            assert inter == pytest.approx(2.0, rel=1e-12)
        a, b = pairs["gap_under_long_edge"]
        assert _intersection_area_bev(a, b) == 0.0 == _intersection_area_bev(b, a)
        a, b = pairs["tilted_long_flush"]
        for inter in (_intersection_area_bev(a, b), _intersection_area_bev(b, a)):
            assert inter == pytest.approx(1.0, rel=1e-9)

    def test_unit_squares_touching(self):
        a = unit_box()
        for b in (unit_box(cx=1.0), unit_box(cz=-1.0), unit_box(cx=1.0, cz=1.0),
                  unit_box(cx=1.0, cz=0.5)):
            assert iou_bev(a, b) == 0.0
            assert iou_3d(a, b) == 0.0

    def test_tiny_boxes_keep_their_overlap(self):
        a = Box3D(np.array([3.0, 0.0, 7.0]), 1e-5, 1e-5, 1e-5, 0.4)
        assert iou_bev(a, a) == pytest.approx(1.0, abs=1e-9)
        assert iou_3d(a, a) == pytest.approx(1.0, abs=1e-9)
        b = Box3D(np.array([3.0, 0.0, 7.0]), 1e-5, 1e-5, 1e-5, 0.4 + np.pi / 4)
        # two squares rotated by 45 degrees overlap in an octagon
        octagon = 2.0 * (np.sqrt(2.0) - 1.0) * 1e-10
        assert _intersection_area_bev(a, b) == pytest.approx(octagon, rel=1e-9)


class TestNms:
    def test_single_box_kept(self):
        assert nms([unit_box()], [0.5], 0.8) == [0]

    def test_identical_boxes_suppress(self):
        boxes = [unit_box(), unit_box()]
        assert nms(boxes, [0.9, 0.8], 0.8) == [0]
        assert nms(boxes, [0.8, 0.9], 0.8) == [1]

    def test_disjoint_kept_in_score_order(self):
        boxes = [unit_box(), unit_box(cx=10.0)]
        assert nms(boxes, [0.2, 0.7], 0.8) == [1, 0]

    def test_nonfinite_scores_rejected(self):
        boxes = [unit_box(), unit_box(cx=10.0)]
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                nms(boxes, [bad, 0.5], 0.8)

    def test_score_tie_prefers_lower_index(self):
        boxes = [unit_box(), unit_box()]
        assert nms(boxes, [0.5, 0.5], 0.8) == [0]

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, np.nan])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="iou_threshold"):
            nms([unit_box(), unit_box(cx=10.0)], [0.9, 0.8], threshold)

    def test_box_and_score_counts_must_match(self):
        message = "scores must have shape (2,), got (3,)"
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            nms([unit_box(), unit_box(cx=10.0)], [0.9, 0.8, 0.7], 0.5)

    @pytest.mark.parametrize("shape", [(2, 1), (2, 2)])
    def test_scores_of_the_right_length_but_not_1d_rejected(self, shape):
        message = f"scores must have shape (2,), got {shape}"
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            nms([unit_box(), unit_box(cx=10.0)], np.full(shape, 0.5), 0.5)

    def test_boundary_iou_not_suppressed(self):
        # IoU exactly at the threshold must survive
        a = unit_box()
        b = unit_box(cx=0.5)  # IoU 1/3
        assert nms([a, b], [0.9, 0.8], 1.0 / 3.0 + 1e-9) == [0, 1]

    def test_order_independence_with_distinct_scores(self):
        rng = np.random.default_rng(15)
        boxes = [random_box(rng) for _ in range(12)]
        scores = list(rng.permutation(np.linspace(0.1, 0.9, 12)))
        kept = nms(boxes, scores, 0.3)
        perm = list(rng.permutation(12))
        kept_perm = nms([boxes[i] for i in perm], [scores[i] for i in perm], 0.3)
        assert sorted(perm[i] for i in kept_perm) == sorted(kept)

    def test_matches_brute_force_on_clustered_sets(self):
        rng = np.random.default_rng(19)
        for _ in range(2):
            boxes = clustered_boxes(rng, 200)
            # two decimals give many tied scores
            scores = list(np.round(rng.uniform(0.0, 1.0, len(boxes)), 2))
            for threshold in (0.3, 0.8):
                kept = nms(boxes, scores, threshold)
                assert kept == brute_nms(boxes, scores, threshold, iou_bev)
                assert len(kept) < len(boxes)  # duplicates are suppressed

    def test_matches_brute_force(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            k = int(rng.integers(1, 20))
            boxes = [random_box(rng) for _ in range(k)]
            scores = list(rng.uniform(0, 1, size=k))
            assert nms(boxes, scores, 0.5) == brute_nms(boxes, scores, 0.5, iou_bev)


def memo_iou():
    """iou_bev remembered per ordered pair of box objects, so brute_nms
    runs over one set at several thresholds share their pairs."""
    seen = {}

    def iou(a, b):
        key = (id(a), id(b))
        if key not in seen:
            seen[key] = iou_bev(a, b)
        return seen[key]
    return iou


def table_iou(boxes):
    """iou_bev of every ordered pair of ``boxes``, looked up by object.

    One kernel call on every pair the circumradius gate passes, as
    iou_bev makes for one pair; the kernel gives each pair the same bits
    alone or in a batch (TestOverlapKernel), so the table holds exactly
    what iou_bev returns, without its per-pair cost.
    """
    n = len(boxes)
    rows, corners = _footprints(boxes)
    i, j = np.nonzero(~_apart(rows[:, None, 0] - rows[None, :, 0],
                              rows[:, None, 1] - rows[None, :, 1],
                              rows[:, None, 9], rows[None, :, 9]))
    inter = _overlap_areas(corners[i], corners[j])
    table = np.zeros((n, n))
    table[i, j] = np.where(inter == 0.0, 0.0, np.minimum(
        1.0, inter / (rows[i, 8] + rows[j, 8] - inter)))
    position = {id(b): k for k, b in enumerate(boxes)}
    return lambda a, b: table[position[id(a)], position[id(b)]]


def brute_top(boxes, scores, threshold, top, iou):
    """brute_nms over the ``top`` best scores (ties to the lower index)."""
    subset = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))[:top]
    kept = brute_nms([boxes[i] for i in subset], [scores[i] for i in subset],
                     threshold, iou)
    return [subset[k] for k in kept]


def grid_boxes(count, spacing=10.0):
    """``count`` car-sized boxes far enough apart that none suppresses."""
    return [Box3D(np.array([spacing * (k % 12), 0.0, spacing * (k // 12)]),
                  4.0, 1.5, 1.8, 0.3 * k) for k in range(count)]


def touching_boxes():
    """Footprints that share edges or corners exactly, or overlap by a
    sliver, twice over: an axis-aligned unit grid and a tiling along a
    turned box's own axes, plus repeats of some footprints."""
    boxes = [unit_box(cx=float(i), cz=float(j)) for i in range(6) for j in range(6)]
    boxes += [unit_box(cx=2.0, cz=3.0, yaw=np.pi / 2), unit_box(cx=4.0 + 1e-6, cz=1.0)]
    base = Box3D(np.array([30.0, 0.0, 20.0]), 3.0, 1.5, 1.2, 0.7)
    boxes += [shifted(base, i * base.length, j * base.width)
              for i in range(5) for j in range(5)]
    boxes += [Box3D(base.center, base.width, 1.5, base.length, base.yaw + np.pi / 2),
              shifted(base, 0.5 * base.length)]
    return boxes


def tight_pairs(rng):
    """Pairs whose rectangle bound equals their IoU, and contained pairs,
    where the smaller area binds."""
    base = Box3D(rng.uniform(-50.0, 50.0, size=3), rng.uniform(1.0, 6.0), 1.5,
                 rng.uniform(0.4, 2.5), rng.uniform(-np.pi, np.pi))
    l, h, w = base.length, base.height, base.width
    f = rng.uniform(0.02, 0.7)
    inner = 0.9 * min(l, w) / np.hypot(1.0, rng.uniform(0.2, 5.0))
    return [
        (base, shifted(base, f * l)),
        (base, shifted(base, dw=f * w)),
        (base, shifted(base, f * l, f * w)),
        (base, Box3D(shifted(base, f * l).center, l, h, w, base.yaw + np.pi)),
        (base, Box3D(shifted(base, dw=f * w).center, w, h, l, base.yaw + np.pi / 2)),
        (base, Box3D(base.center, f * l, h, f * w, base.yaw)),
        (base, Box3D(base.center, inner, h, inner * rng.uniform(0.2, 1.0),
                     rng.uniform(-np.pi, np.pi))),
    ]


def ulps_around(x, k):
    """x and the k floats either side of it inside [0, 1]."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -1.0), np.nextafter(hi, 2.0)
        out += [lo, hi]
    return [float(t) for t in out if 0.0 <= t <= 1.0]


class TestBlockedNms:
    """The blocked NMS settles 64 live boxes per kernel call and skips
    pairs by an IoU bound; its picks must stay those of greedy NMS."""

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 130])
    def test_clustered_sets_match_brute_force(self, count):
        rng = np.random.default_rng(40 + count)
        boxes = clustered_boxes(rng, count)
        # one decimal gives many tied scores
        scores = list(np.round(rng.uniform(0.0, 1.0, count), 1))
        iou = memo_iou()
        for threshold in (0.0, 0.3, 0.8, 1.0):
            for top in (None, count - 1, 64, 65):
                if top == 0:
                    continue
                kept = list(_greedy_nms(boxes, scores, threshold, top))
                assert kept == brute_top(boxes, scores, threshold, top, iou)

    @pytest.mark.parametrize("count", [63, 64, 65, 130])
    def test_disjoint_sets_keep_every_box(self, count):
        # nothing is suppressed, so the live counts at the block edges
        # are exactly 64, 128, ...
        boxes = grid_boxes(count)
        scores = list(np.round(np.random.default_rng(count).uniform(0, 1, count), 1))
        expected = sorted(range(count), key=lambda i: (-scores[i], i))
        for threshold in (0.0, 0.8):
            assert nms(boxes, scores, threshold) == expected
            assert list(_greedy_nms(boxes, scores, threshold, top=64)) == expected[:64]

    def test_kept_boxes_pending_over_two_blocks(self):
        # by score: block 1 keeps 40 of 64 and block 2 keeps 30 of 64,
        # so the 70 kept boxes reach every later box in one call after
        # block 2; a later twin of box 5 overlaps only box 5, kept in
        # block 1
        rng = np.random.default_rng(44)
        yaws = rng.uniform(-np.pi, np.pi, 80)

        def base(k, turn=0.0):
            center = np.array([20.0 * (k % 10), 0.0, 20.0 * (k // 10)])
            return Box3D(center, 4.0, 1.5, 1.8, yaws[k] + turn)

        def twin(k, d=0.01):
            b = base(k)
            return Box3D(b.center + d, 4.0, 1.5, 1.8, b.yaw + d)

        boxes = [base(k) for k in range(40)] + [twin(k) for k in range(24)]
        boxes += ([base(k) for k in range(40, 70)] + [twin(k) for k in range(24, 58)])
        boxes += [twin(5, 0.02)] + [base(k) for k in range(70, 80)]
        boxes += [twin(k) for k in range(60, 66)] + [base(3, np.pi / 4)]
        n = len(boxes)
        scores = list(1.0 - 0.005 * np.arange(n))
        iou = memo_iou()
        for threshold in (0.0, 0.3, 0.8, 1.0):
            for top in (None, 128, 140):
                kept = list(_greedy_nms(boxes, scores, threshold, top))
                assert kept == brute_top(boxes, scores, threshold, top, iou)
        kept = nms(boxes, scores, 0.8)
        assert sum(k < 64 for k in kept) == 40 and sum(k < 128 for k in kept) == 70
        assert 128 not in kept  # the twin of box 5
        assert kept[70:] == list(range(129, 139)) + [n - 1]

    def test_touching_and_edge_sharing_boxes(self):
        boxes = touching_boxes()
        rng = np.random.default_rng(41)
        iou = memo_iou()
        for _ in range(3):
            scores = list(np.round(rng.uniform(0.0, 1.0, len(boxes)), 1))
            for threshold in (0.0, 0.3, 0.8, 1.0):
                kept = nms(boxes, scores, threshold)
                assert kept == brute_nms(boxes, scores, threshold, iou)
        # in index order, touching keeps both boxes: at 0.0 only the
        # repeated footprints, the sliver and the half-shifted tile go
        assert nms(boxes, [0.5] * len(boxes), 0.0) == [
            k for k in range(len(boxes)) if k not in (36, 37, 63, 64)]

    def test_iou_a_few_ulps_from_the_threshold(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            for a, b in tight_pairs(rng):
                for first, second in ((a, b), (b, a)):
                    pair = [first, second]
                    for threshold in ulps_around(iou_bev(first, second), 3):
                        kept = nms(pair, [0.9, 0.8], threshold)
                        assert kept == brute_nms(pair, [0.9, 0.8], threshold, iou_bev)
                        assert kept == ([0] if iou_bev(first, second) > threshold
                                        else [0, 1])

    def test_bound_covers_the_kernel_iou(self):
        rng = np.random.default_rng(43)
        pairs = []
        while len(pairs) < 10_000:
            a = random_box(rng, center_spread=30.0)
            if rng.uniform() < 0.3:  # thin boxes, aspect ratio 1e3
                size = rng.uniform(0.5, 8.0)
                l, w = (size, 1e-3 * size) if rng.uniform() < 0.5 else (1e-3 * size, size)
                a = Box3D(a.center, l, a.height, w, a.yaw)
            turn = rng.choice([0.0, np.pi, np.pi / 2, rng.normal(0.0, 0.05),
                               rng.uniform(-np.pi, np.pi)])
            stretch = rng.uniform(0.5, 1.5, size=2)
            if rng.uniform() < 0.5:
                stretch = np.ones(2)
            r = 0.5 * np.hypot(a.length, a.width)
            b = Box3D(a.center + rng.normal(0.0, 0.5 * r, size=3),
                      a.length * stretch[0], a.height, a.width * stretch[1],
                      a.yaw + turn)
            if not _apart(a.center[0] - b.center[0], a.center[2] - b.center[2],
                          r, 0.5 * np.hypot(b.length, b.width)):
                pairs.append((a, b))
        pairs += list(degenerate_pairs().values())
        pairs += [near_collinear_pair(rng) for _ in range(500)]
        for _ in range(20):
            pairs += tight_pairs(rng)
        rows_a, corners_a = _footprints([a for a, _ in pairs])
        rows_b, corners_b = _footprints([b for _, b in pairs])
        inter = _overlap_areas(corners_a, corners_b)
        iou = np.minimum(1.0, inter / (rows_a[:, 8] + rows_b[:, 8] - inter))
        scale = max(np.abs(rows_a[:, :2]).max(), np.abs(rows_b[:, :2]).max())
        hit = iou > 0.0
        assert hit.sum() > 5000
        # a threshold one ulp below the kernel's IoU, with the spare
        # margin taken back out: the bound alone must let each pair pass
        threshold = np.nextafter(iou[hit], 0.0) / (1.0 - 1e-6)
        assert _iou_may_exceed(rows_a[hit].T, rows_b[hit].T, threshold, scale).all()
        # and it is not vacuous: at 0.8 it clears most pairs below it
        below = iou < 0.8
        cleared = ~_iou_may_exceed(rows_a[below].T, rows_b[below].T, 0.8, scale)
        assert cleared.mean() > 0.5
        # the smaller area caps the bound: a thin box turned inside a
        # square has a bounding rectangle of nearly the whole square
        square = unit_box(l=4.0, w=4.0)
        thin = unit_box(l=5.0, w=0.3, yaw=np.pi / 4)
        assert iou_bev(square, thin) == pytest.approx(1.5 / 16.0)
        rows = _footprints([square, thin])[0]
        assert not _iou_may_exceed(rows[:1].T, rows[1:].T, 0.1, 0.0).any()


@st.composite
def clustered_set(draw):
    """Up to 150 boxes jittered about a few seed boxes, some repeated
    exactly, with one-decimal scores, so many tie."""
    finite = dict(allow_nan=False, allow_infinity=False)
    seeds = draw(st.lists(st.tuples(
        st.floats(-40.0, 40.0, **finite), st.floats(-40.0, 40.0, **finite),
        st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(-np.pi, np.pi)),
        min_size=1, max_size=40))
    count = draw(st.integers(1, 150))
    members = draw(st.lists(st.tuples(
        st.integers(0, len(seeds) - 1),
        st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
        st.floats(0.8, 1.2), st.floats(0.8, 1.2), st.floats(-0.4, 0.4),
        st.booleans(), st.integers(0, 10)),
        min_size=count, max_size=count))
    boxes, scores = [], []
    for k, (s, dx, dz, fl, fw, dyaw, repeat, score) in enumerate(members):
        if repeat and boxes:
            prev = boxes[-1]
            boxes.append(Box3D(prev.center.copy(), prev.length, prev.height,
                               prev.width, prev.yaw))
        else:
            x, z, l, w, yaw = seeds[s]
            boxes.append(Box3D(np.array([x + dx, 0.0, z + dz]), l * fl, 1.5, w * fw,
                               yaw + dyaw))
        scores.append(score / 10.0)
    return boxes, scores


class TestNmsProperties:
    # the schedule runs at the library's block size and at blocks of 12
    # and 5 boxes, where a set of 150 spans many blocks and kept boxes
    # stay pending over several of them. Shrinking a failing example
    # took minutes, so it is skipped: a failure reports the first
    # falsifying example as generated.
    @settings(derandomize=True, max_examples=30, deadline=None,
              phases=[p for p in Phase if p is not Phase.shrink])
    @given(clustered_set(),
           st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           st.integers(1, 160), st.integers(1, 80), st.sampled_from([64, 12, 5]))
    def test_nms_and_selection_match_brute_force(self, boxes_scores, threshold,
                                                 top, keep, block):
        boxes, scores = boxes_scores
        iou = table_iou(boxes)
        assert all(iou(boxes[0], b) == iou_bev(boxes[0], b) for b in boxes[:8])
        props = [Proposal(b, s) for b, s in zip(boxes, scores)]
        with mock.patch.object(geometry, "_NMS_BLOCK", block):
            kept = nms(boxes, scores, threshold)
            out = select_proposals(props, pre_nms_top=top, nms_threshold=threshold,
                                   keep=keep)
        assert kept == brute_nms(boxes, scores, threshold, iou)
        expected = brute_top(boxes, scores, threshold, top, iou)[:keep]
        assert [id(p) for p in out] == [id(props[k]) for k in expected]


class TestBoxOps:
    def test_enlarge_zero_is_identity(self):
        b = unit_box(yaw=0.4)
        e = enlarge_box(b, 0.0)
        assert (e.length, e.height, e.width, e.yaw) == (b.length, b.height,
                                                        b.width, b.yaw)

    def test_enlarge_default_margin(self):
        e = enlarge_box(unit_box(), 0.2)
        assert (e.length, e.height, e.width) == (1.2, 1.2, 1.2)

    def test_enlarge_componentwise(self):
        e = enlarge_box(Box3D(np.zeros(3), 2.0, 1.0, 3.0, 0.0), 1.0)
        assert (e.length, e.height, e.width) == (3.0, 2.0, 4.0)

    def test_enlarge_rejects_negative(self):
        with pytest.raises(ValueError):
            enlarge_box(unit_box(), -0.1)

    @pytest.mark.parametrize("amount", [np.nan, np.inf])
    def test_enlarge_rejects_nonfinite(self, amount):
        with pytest.raises(DomainError, match=r"^amount must be finite and in \[0, inf\)"):
            enlarge_box(unit_box(), amount)

    def test_center_point_included(self):
        cloud = PointCloud(np.zeros((1, 3)))
        assert list(points_in_box(cloud, unit_box(yaw=0.7))) == [0]

    def test_face_point_included(self):
        cloud = PointCloud(np.array([[0.5, 0.0, 0.0]]))
        assert list(points_in_box(cloud, unit_box())) == [0]

    def test_rotated_box_containment(self):
        # inside only after the quarter-turn maps length onto z
        box = Box3D(np.zeros(3), 4.0, 1.0, 1.0, np.pi / 2)
        cloud = PointCloud(np.array([[0.0, 0.0, 1.5], [1.5, 0.0, 0.0]]))
        assert list(points_in_box(cloud, box)) == [0]

    def test_matches_halfspace_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            box = random_box(rng)
            pts = rng.uniform(-4, 4, size=(500, 3))
            got = np.zeros(500, dtype=bool)
            got[points_in_box(PointCloud(pts), box)] = True
            np.testing.assert_array_equal(got, points_in_box_oracle(pts, box))

    def test_enlarged_box_contains_original_points(self):
        rng = np.random.default_rng(18)
        box = random_box(rng)
        cloud = PointCloud(rng.uniform(-4, 4, size=(800, 3)))
        inner = set(points_in_box(cloud, box).tolist())
        outer = set(points_in_box(cloud, enlarge_box(box, 0.5)).tolist())
        assert inner <= outer


def surface_points(box):
    """The box's center, face centers, edge midpoints and corners, each
    also moved by one ulp either way along every axis: points that the
    rounding of the derotation puts on either side of a face."""
    signs = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 3, indexing="ij"),
                     axis=-1).reshape(-1, 3)
    half = np.array([box.length, box.height, box.width]) / 2.0
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    rotation = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    exact = box.center + (signs * half) @ rotation.T
    return np.vstack([exact, np.nextafter(exact, np.inf),
                      np.nextafter(exact, -np.inf)])


def strip_edge_boxes(center=(0.0, 0.0, 0.0), scale=1.0):
    """Rotated boxes about ``center`` with sizes times ``scale``; the
    yaws +-atan2(w, l) and pi/2 - atan2(w, l) lay a diagonal along x or
    z, so corners sit at the strip's edges."""
    return [Box3D(np.array(center), scale * l, scale * h, scale * w, yaw)
            for l, h, w in ((2.0, 1.0, 1.0), (3.9, 1.6, 1.6), (0.7, 2.3, 4.1))
            for yaw in (0.0, np.pi / 2, -np.pi, np.pi / 4, 0.3, -2.2,
                        np.arctan2(w, l), -np.arctan2(w, l),
                        np.pi / 2 - np.arctan2(w, l))]


def assert_same_as_full_cloud(coords, box):
    got = points_in_box(PointCloud(coords), box)
    expected = points_in_box_full(coords, box)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    return got


class TestPointsInBoxStrip:
    """Only the box's x-strip is derotated; the indices must be those of
    derotating the whole cloud, bit for bit."""

    @pytest.mark.parametrize("center, scale", [
        ((0.0, 0.0, 0.0), 1.0),
        ((1e6, -3.0, -1e6), 1.0),
        ((-1e6, 0.5, 1e6 + 0.25), 1.0),
        ((0.0, 0.0, 0.0), 1e-6),
        ((12.5, -1.0, 37.0), 1e-6),
    ], ids=["origin", "offset-1e6", "offset-minus-1e6", "micro", "micro-offset"])
    def test_faces_and_corners(self, center, scale):
        rng = np.random.default_rng(60)
        for box in strip_edge_boxes(center, scale):
            pts = surface_points(box)
            inside = assert_same_as_full_cloud(pts, box)
            assert 0 < inside.size < len(pts)
            # each point alone, and among points around the box
            for p in pts:
                assert_same_as_full_cloud(p[None], box)
            spread = 3.0 * scale * rng.uniform(-1.0, 1.0, size=(300, 3))
            assert_same_as_full_cloud(
                rng.permutation(np.vstack([pts, box.center + spread])), box)

    def test_corners_on_the_strip_edges(self):
        # a diagonal along x or z puts two corners about a circumradius
        # from the center; rounding puts some of them, and of their
        # neighbours a few ulps out, past center -+ radius yet inside
        rng = np.random.default_rng(65)
        for k in range(800):
            l, w = rng.uniform(0.5, 4.0, size=2)
            diagonal = np.arctan2(w, l)
            yaw = (diagonal, -diagonal, np.pi / 2 - diagonal,
                   np.pi / 2 + diagonal)[k % 4]
            box = Box3D(rng.uniform(-10.0, 10.0, size=3), l, 1.0, w, yaw)
            corners = surface_points(box)[[0, 2, 6, 8, 18, 20, 24, 26]]
            assert_same_as_full_cloud(np.vstack(
                [corners, np.nextafter(corners, np.inf),
                 np.nextafter(corners, -np.inf),
                 np.nextafter(np.nextafter(corners, np.inf), np.inf),
                 np.nextafter(np.nextafter(corners, -np.inf), -np.inf)]), box)

    def test_equal_x_columns(self):
        # columns of equal x at the box's extents and at the strip's edge
        box = Box3D(np.array([1.0, 0.0, -2.0]), 2.0, 1.0, 1.0, 0.0)
        reach = 0.5 * np.hypot(2.0, 1.0)
        xs = np.array([0.0, 1.0, 2.0, 1.0 - reach, 1.0 + reach,
                       np.nextafter(2.0, 3.0), np.nextafter(0.0, -1.0)])
        zs = np.linspace(-3.0, -1.0, 41)
        grid = np.stack(np.meshgrid(xs, [-0.5, 0.0, 0.5], zs, indexing="ij"),
                        axis=-1).reshape(-1, 3)
        assert assert_same_as_full_cloud(grid, box).size
        for yaw in (np.pi / 2, 0.4, -np.pi):
            turned = Box3D(box.center, 2.0, 1.0, 1.0, yaw)
            assert_same_as_full_cloud(grid, turned)

    def test_no_candidates(self):
        box = Box3D(np.array([0.0, 0.0, 0.0]), 2.0, 1.0, 1.0, 0.5)
        rng = np.random.default_rng(61)
        far_x = rng.uniform(10.0, 20.0, size=(200, 3))
        # x in the strip, z far from the box
        far_z = np.column_stack([rng.uniform(-1.0, 1.0, 200),
                                 rng.uniform(-1.0, 1.0, 200),
                                 rng.uniform(10.0, 20.0, 200)])
        for coords in (far_x, far_z, np.empty((0, 3))):
            assert assert_same_as_full_cloud(coords, box).size == 0

    def test_every_point_a_candidate(self):
        box = Box3D(np.array([5.0, 0.0, -5.0]), 2.0, 1.0, 1.0, 0.9)
        rng = np.random.default_rng(62)
        coords = box.center + rng.uniform(-0.7, 0.7, size=(500, 3))
        inside = assert_same_as_full_cloud(coords, box)
        assert 0 < inside.size < 500

    def test_enlarged_jittered_proposals(self):
        cloud, _, gts = generate_scene(SyntheticSceneSpec(
            num_clusters=12, points_per_cluster=300, background_points=4000,
            seed=7))
        rng = np.random.default_rng(63)
        counts = []
        for k in range(2000):
            gt = gts[k % len(gts)]
            box = enlarge_box(Box3D(
                gt.center + rng.normal(0.0, [0.3, 0.1, 0.3]),
                *np.array([gt.length, gt.height, gt.width])
                * rng.uniform(0.8, 1.2, size=3),
                gt.yaw + rng.normal(0.0, 0.3)), 0.2)
            counts.append(assert_same_as_full_cloud(cloud.coords, box).size)
        assert min(counts) > 0

    def test_working_memory_below_eight_bytes_per_point(self):
        n = 200_000
        rng = np.random.default_rng(64)
        cloud = PointCloud(np.column_stack([rng.uniform(-40.0, 40.0, n),
                                            rng.uniform(-3.0, 1.0, n),
                                            rng.uniform(0.0, 70.4, n)]))
        box = Box3D(np.array([0.5, -1.0, 30.0]), 3.9, 1.6, 1.6, 0.4)
        tracemalloc.start()
        try:
            inside = points_in_box(cloud, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inside.size > 0
        # the whole-cloud derotation held about 51 bytes per point
        assert peak < 8 * n


class TestAugmentations:
    def test_rotate_zero_is_identity(self):
        rng = np.random.default_rng(19)
        cloud = PointCloud(rng.standard_normal((20, 3)))
        np.testing.assert_array_equal(rotate_y(cloud, 0.0).coords, cloud.coords)

    def test_rotate_preserves_axis_distance(self):
        rng = np.random.default_rng(20)
        cloud = PointCloud(rng.standard_normal((50, 3)))
        rotated = rotate_y(cloud, 0.37)
        before = np.hypot(cloud.coords[:, 0], cloud.coords[:, 2])
        after = np.hypot(rotated.coords[:, 0], rotated.coords[:, 2])
        np.testing.assert_allclose(after, before, atol=1e-12)
        np.testing.assert_array_equal(rotated.coords[:, 1], cloud.coords[:, 1])

    def test_rotate_preserves_pairwise_distances(self):
        rng = np.random.default_rng(21)
        cloud = PointCloud(rng.standard_normal((30, 3)))
        rotated = rotate_y(cloud, -1.2)

        def pdist(c):
            d = c[:, None, :] - c[None, :, :]
            return np.sqrt((d ** 2).sum(-1))

        np.testing.assert_allclose(pdist(rotated.coords), pdist(cloud.coords),
                                   atol=1e-12)

    def test_scale_inverse_pair(self):
        rng = np.random.default_rng(22)
        cloud = PointCloud(rng.standard_normal((25, 3)), rng.uniform(size=25))
        back = scale(scale(cloud, 1.05), 1.0 / 1.05)
        np.testing.assert_allclose(back.coords, cloud.coords, atol=1e-12)
        np.testing.assert_array_equal(back.intensity, cloud.intensity)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale(PointCloud(np.zeros((1, 3))), 0.0)

    @pytest.mark.parametrize("factor", [np.nan, np.inf, -np.inf])
    def test_scale_rejects_a_nonfinite_factor(self, factor):
        with pytest.raises(DomainError, match=r"^factor must be finite and in \(0, inf\)"):
            scale(PointCloud(np.ones((1, 3))), factor)

    @pytest.mark.parametrize("angle", [np.nan, np.inf])
    def test_rotate_rejects_a_nonfinite_angle(self, angle):
        with pytest.raises(DomainError,
                           match=r"^angle must be finite and in \(-inf, inf\)"):
            rotate_y(PointCloud(np.ones((1, 3))), angle)

    def test_containment_is_invariant_under_a_rigid_motion(self):
        # the cloud and the box turn about +y as rotate_y turns the cloud,
        # so the yaw grows by the angle, and then move by one translation
        spec = SyntheticSceneSpec()
        cloud, _, gts = generate_scene(spec)
        extent = spec.background_extent
        # a point within a few ulps of the extent of a face may land on
        # either side after the motion's rounding, so it is left out
        tol = 16 * np.spacing(extent)
        rng = np.random.default_rng(67)
        for box in gts + [enlarge_box(b, 0.2) for b in gts]:
            local = np.abs((cloud.coords - box.center) @ geometry.rotation_y(box.yaw))
            half = np.array([box.length, box.height, box.width]) / 2.0
            clear = (np.abs(local - half) > tol).all(axis=1)
            expected = points_in_box(cloud, box)
            assert expected.size
            expected = expected[clear[expected]]
            for _ in range(200):
                angle = rng.uniform(-np.pi, np.pi)
                shift = rng.uniform(-extent, extent, size=3)
                moved = PointCloud(rotate_y(cloud, angle).coords + shift)
                center = box.center @ geometry.rotation_y(angle).T + shift
                got = points_in_box(moved, Box3D(center, box.length, box.height,
                                                 box.width, box.yaw + angle))
                np.testing.assert_array_equal(got[clear[got]], expected)


class TestCropRange:
    def test_all_inside_is_identity(self):
        rng = np.random.default_rng(24)
        cloud = PointCloud(rng.uniform(-1, 1, size=(40, 3)))
        out = crop_range(cloud, (-2, 2), (-2, 2), (-2, 2))
        np.testing.assert_array_equal(out.coords, cloud.coords)

    def test_standard_window(self):
        coords = np.array([
            [10.0, 0.0, 0.0],    # inside
            [80.0, 0.0, 0.0],    # beyond x
            [10.0, 41.0, 0.0],   # beyond y
            [10.0, 0.0, -3.5],   # below z
            [70.4, 40.0, 1.0],   # on the closed boundary
        ])
        out = crop_range(PointCloud(coords), (0, 70.4), (-40, 40), (-3, 1))
        np.testing.assert_array_equal(out.coords, coords[[0, 4]])

    def test_empty_result_allowed(self):
        cloud = PointCloud(np.full((5, 3), 100.0), np.ones(5))
        out = crop_range(cloud, (0, 1), (0, 1), (0, 1))
        assert len(out) == 0
        assert out.intensity.shape == (0,)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            crop_range(PointCloud(np.zeros((1, 3))), (1, 1), (0, 1), (0, 1))

    @pytest.mark.parametrize("y_range", [(-9, 9, 100), (-9,), 5.0])
    def test_range_must_be_two_numbers(self, y_range):
        with pytest.raises(DimensionMismatch,
                           match=r"^y_range must have shape \(2,\)"):
            crop_range(PointCloud(np.zeros((1, 3))), (-1, 1), y_range, (-1, 1))
