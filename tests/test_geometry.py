import numpy as np
import pytest

from fuse3d import (
    BehindCamera,
    Box3D,
    DimensionMismatch,
    PointCloud,
    back_project,
    bilinear_sample,
    crop_range,
    enlarge_box,
    flip,
    footprint_corners,
    gather_point_image_features,
    intersection_area_bev,
    iou_3d,
    iou_bev,
    nms,
    points_in_box,
    project_point,
    project_points,
    rotate_y,
    scale,
    wrap_angle,
)
from fuse3d.geometry import _footprints, _overlap_areas
from oracles import (
    brute_nms,
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


def degenerate_pairs():
    """Named pairs whose overlap polygon is degenerate, far from the origin."""
    base = Box3D(np.array([12.3, 0.4, 31.7]), 4.2, 1.5, 1.8, 0.7)
    along_l = np.array([np.cos(base.yaw), 0.0, -np.sin(base.yaw)])
    along_w = np.array([np.sin(base.yaw), 0.0, np.cos(base.yaw)])

    def moved(offset):
        return Box3D(base.center + offset, base.length, base.height,
                     base.width, base.yaw)

    return {
        "identical": (base, moved(np.zeros(3))),
        "shared_short_edge": (base, moved(base.length * along_l)),
        "shared_long_edge": (base, moved(base.width * along_w)),
        "half_shared_edge": (base, moved(base.length * along_l
                                         + 0.5 * base.width * along_w)),
        "touching_corners": (base, moved(base.length * along_l
                                         + base.width * along_w)),
        "nested": (base, Box3D(base.center, 1.0, 1.0, 0.5, 0.2)),
        "swapped": (base, Box3D(base.center, base.width, base.height,
                                base.length, base.yaw + np.pi / 2)),
    }


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

    def test_wrap_angle_halfopen(self):
        assert wrap_angle(np.pi) == pytest.approx(-np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(-np.pi)
        assert wrap_angle(0.25) == pytest.approx(0.25)


class TestProjection:
    def test_identity_intrinsics(self):
        u, v, d = project_point((1.0, 2.0, 4.0), IDENTITY_M)
        assert (u, v, d) == (0.25, 0.5, 4.0)

    def test_behind_camera(self):
        with pytest.raises(BehindCamera):
            project_point((0.0, 0.0, -1.0), IDENTITY_M)
        with pytest.raises(BehindCamera):
            project_point((0.0, 0.0, 0.0), IDENTITY_M)

    def test_focal_and_principal_point(self):
        m = np.array([[2.0, 0, 3, 0], [0, 2.0, 3, 0], [0, 0, 1.0, 0]])
        assert project_point((1.0, 1.0, 2.0), m) == (4.0, 4.0, 2.0)

    def test_vectorised_matches_one_row_calls(self):
        rng = np.random.default_rng(16)
        m = np.array([[700.0, 0, 620, 4.0], [0, 700.0, 190, -2.0],
                      [0.01, 0, 1.0, 0.3]])
        coords = rng.uniform([-10, -10, -5], [10, 10, 40], size=(64, 3))
        us, vs, depth = project_points(coords, m)
        assert (depth <= 0).any() and (depth > 0).any()
        for i, p in enumerate(coords):
            if depth[i] <= 0:
                assert np.isnan(us[i]) and np.isnan(vs[i])
                with pytest.raises(BehindCamera):
                    project_point(p, m)
            else:
                assert project_point(p, m) == (us[i], vs[i], depth[i])

    def test_points_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            project_points(np.zeros((4, 2)), IDENTITY_M)

    def test_back_projection_roundtrip(self):
        rng = np.random.default_rng(10)
        k = np.array([[700.0, 0, 620], [0, 700.0, 190], [0, 0, 1]])
        m = np.hstack([k, np.zeros((3, 1))])
        for _ in range(50):
            p = rng.uniform([-10, -10, 0.5], [10, 10, 60])
            u, v, d = project_point(p, m)
            np.testing.assert_allclose(back_project(u, v, d, m), p, atol=1e-9)


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
        corners_a = _footprints([a for a, _ in pairs])[1]
        corners_b = _footprints([b for _, b in pairs])[1]
        batched = _overlap_areas(corners_a, corners_b)
        alone = np.array([_overlap_areas(corners_a[k:k + 1], corners_b[k:k + 1])[0]
                          for k in range(len(pairs))])
        assert np.array_equal(batched, alone)
        one_pair = np.array([intersection_area_bev(a, b) for a, b in pairs])
        assert np.array_equal(batched, one_pair)
        assert (batched > 0).sum() > 100  # many random pairs overlap

    def test_footprints_match_one_row_calls(self):
        rng = np.random.default_rng(18)
        boxes = [random_box(rng, center_spread=40.0) for _ in range(50)]
        corners = _footprints(boxes)[1]
        for box, row in zip(boxes, corners):
            assert np.array_equal(footprint_corners(box), row)

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
            assert intersection_area_bev(a, b) == 0.0, name
            assert iou_bev(a, b) == 0.0 and iou_bev(b, a) == 0.0, name
            assert iou_3d(a, b) == 0.0, name
        a, b = pairs["nested"]
        assert intersection_area_bev(a, b) == pytest.approx(0.5, rel=1e-12)
        assert iou_bev(b, a) == pytest.approx(0.5 / (base.length * base.width),
                                              rel=1e-12)

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
        assert intersection_area_bev(a, b) == pytest.approx(octagon, rel=1e-9)


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

    def test_flip_is_involution_and_leaves_other_axes(self):
        rng = np.random.default_rng(23)
        cloud = PointCloud(rng.standard_normal((25, 3)))
        once = flip(cloud, "x")
        np.testing.assert_array_equal(once.coords[:, 0], -cloud.coords[:, 0])
        np.testing.assert_array_equal(once.coords[:, 1:], cloud.coords[:, 1:])
        np.testing.assert_array_equal(flip(once, "x").coords, cloud.coords)
        with pytest.raises(ValueError):
            flip(cloud, "y")


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
