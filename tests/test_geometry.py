import numpy as np
import pytest

from fuse3d import (
    Box3D,
    DimensionMismatch,
    PointCloud,
    bilinear_sample,
    crop_range,
    enlarge_box,
    gather_point_image_features,
    iou_3d,
    iou_bev,
    nms,
    points_in_box,
    project_points,
    rotate_y,
    scale,
    wrap_angle,
)
from fuse3d.geometry import _footprints, _intersection_area_bev, _overlap_areas
from oracles import (
    brute_nms,
    clip_overlap_area,
    clustered_boxes,
    mc_iou_3d,
    mc_iou_bev,
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
        with pytest.raises(ValueError, match="sizes must be positive and finite"):
            unit_box(**size)

    @pytest.mark.parametrize("yaw", [np.nan, np.inf, -np.inf])
    def test_box_rejects_nonfinite_yaw(self, yaw):
        with pytest.raises(ValueError, match="yaw must be finite"):
            unit_box(yaw=yaw)

    def test_wrap_angle_halfopen(self):
        assert wrap_angle(np.pi) == pytest.approx(-np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(-np.pi)
        assert wrap_angle(0.25) == pytest.approx(0.25)


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
        with pytest.raises(DimensionMismatch, match="2 boxes but 3 scores"):
            nms([unit_box(), unit_box(cx=10.0)], [0.9, 0.8, 0.7], 0.5)

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
        with pytest.raises(ValueError, match="enlargement"):
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
