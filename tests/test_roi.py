import numpy as np
import pytest

from fuse3d import (
    Box3D,
    DimensionMismatch,
    PointCloud,
    PooledRoI,
    Proposal,
    enlarge_box,
    nms,
    points_in_box,
    roi_pooled_fusion,
    select_proposals,
)
from fuse3d import geometry
from oracles import clustered_boxes, random_box


def proposal(cx=0.0, score=0.5, l=1.0):
    return Proposal(Box3D(np.array([cx, 0.0, 0.0]), l, 1.0, 1.0, 0.0), score)


def count_kernel_calls(monkeypatch) -> list:
    """Record the pair count of every overlap-kernel call from now on."""
    calls = []
    kernel = geometry._overlap_areas

    def counting(a, b):
        calls.append(len(a))
        return kernel(a, b)
    monkeypatch.setattr(geometry, "_overlap_areas", counting)
    return calls


def feature_set(rng, n, c_img=2, c_pt=3, c_fused=4):
    return (
        rng.standard_normal((n, c_img)),
        rng.standard_normal((n, c_pt)),
        rng.standard_normal((n, c_fused)),
    )


class TestSelectProposals:
    def test_short_input_passes_through(self):
        props = [proposal(cx=10.0 * i, score=0.1 * (i + 1)) for i in range(5)]
        out = select_proposals(props, keep=64)
        assert len(out) == 5
        assert [p.score for p in out] == sorted((p.score for p in props),
                                                reverse=True)

    def test_heavy_overlap_collapses_to_best(self):
        props = [proposal(score=0.7), proposal(score=0.9), proposal(score=0.8)]
        out = select_proposals(props, nms_threshold=0.8)
        assert len(out) == 1
        assert out[0].score == 0.9

    def test_keep_cap(self):
        props = [proposal(cx=5.0 * i, score=1.0 - 0.01 * i) for i in range(10)]
        out = select_proposals(props, keep=3)
        assert [p.score for p in out] == [1.0, 0.99, 0.98]

    def test_pre_nms_cap_drops_low_scores_first(self):
        # only the two best enter NMS; the disjoint low scorer never does
        props = [proposal(cx=0.0, score=0.9), proposal(cx=0.1, score=0.8),
                 proposal(cx=50.0, score=0.1)]
        out = select_proposals(props, pre_nms_top=2, nms_threshold=0.01)
        assert [p.score for p in out] == [0.9]

    def test_score_tie_prefers_lower_index(self):
        props = [proposal(cx=0.0, score=0.5), proposal(cx=50.0, score=0.5)]
        out = select_proposals(props)
        assert out[0].box.center[0] == 0.0

    @pytest.mark.parametrize("caps", [{"pre_nms_top": 0}, {"keep": 0},
                                      {"keep": -4}])
    def test_caps_below_one_rejected(self, caps):
        with pytest.raises(ValueError, match="must be positive"):
            select_proposals([proposal()], **caps)

    @pytest.mark.parametrize("name", ["pre_nms_top", "keep"])
    @pytest.mark.parametrize("value", [0, -4])
    def test_cap_error_names_the_argument_and_value(self, name, value):
        message = f"^{name} must be positive, got {value}$"
        with pytest.raises(ValueError, match=message):
            select_proposals([proposal()], **{name: value})

    def test_both_caps_bad_reports_pre_nms_top(self):
        with pytest.raises(ValueError, match="^pre_nms_top must be positive, got 0$"):
            select_proposals([proposal()], pre_nms_top=0, keep=0)

    @pytest.mark.parametrize("score", [np.nan, np.inf])
    def test_nonfinite_score_rejected(self, score):
        with pytest.raises(ValueError, match="score must be finite"):
            proposal(score=score)

    def test_equals_nms_prefix(self):
        rng = np.random.default_rng(31)
        boxes = clustered_boxes(rng, 240)
        scores = np.round(rng.uniform(0.0, 1.0, len(boxes)), 2)
        props = [Proposal(b, s) for b, s in zip(boxes, scores)]
        by_score = sorted(range(len(props)), key=lambda i: (-scores[i], i))
        for pre_nms_top, keep in ((240, 16), (100, 8), (60, 500)):
            subset = by_score[:pre_nms_top]
            kept = nms([boxes[i] for i in subset], [scores[i] for i in subset], 0.5)
            expected = [props[subset[k]] for k in kept[:keep]]
            out = select_proposals(props, pre_nms_top, 0.5, keep)
            assert [id(p) for p in out] == [id(p) for p in expected]
        assert len(out) < 500  # fewer survivors than keep: all returned

    @pytest.mark.parametrize("keep", [32, 33])
    def test_keep_at_a_block_edge_and_one_past_it(self, keep, monkeypatch):
        # 40 boxes, each followed in score by a near twin it suppresses,
        # so the first block of 64 live boxes keeps 32; the last 8 sit on
        # the first 8 turned by 45 degrees, which passes the IoU bound
        # without suppressing
        rng = np.random.default_rng(33)
        yaws = rng.uniform(-np.pi, np.pi, 32)
        props = []
        for k in range(40):
            cell = k % 32
            center = np.array([20.0 * (cell % 8), 0.0, 20.0 * (cell // 8)])
            yaw = yaws[cell] + (np.pi / 4 if k >= 32 else 0.0)
            box = Box3D(center, 4.0, 1.5, 1.8, yaw)
            twin = Box3D(center + 0.01, 4.0, 1.5, 1.8, yaw + 0.01)
            props += [Proposal(box, 1.0 - 0.02 * k), Proposal(twin, 0.99 - 0.02 * k)]
        calls = count_kernel_calls(monkeypatch)
        out = select_proposals(props, keep=keep)
        assert [id(p) for p in out] == [id(props[2 * k]) for k in range(keep)]
        # one call per block: the next block's call, which also tests its
        # boxes against the 32 kept, runs only when a pick past the
        # first block is asked for
        assert len(calls) == (1 if keep == 32 else 2)

    def test_stop_at_a_block_edge_skips_applying_the_kept(self, monkeypatch):
        # 64 cells, each box followed in score by a near twin it
        # suppresses: the first two blocks keep 32 each, so 64 kept boxes
        # are pending at the second block's last pick; the last 16 boxes
        # sit on the first 8 cells turned by 45 degrees, with twins
        yaws = np.random.default_rng(35).uniform(-np.pi, np.pi, 64)
        props = []
        for k in range(72):
            cell = k % 64
            center = np.array([20.0 * (cell % 8), 0.0, 20.0 * (cell // 8)])
            yaw = yaws[cell] + (np.pi / 4 if k >= 64 else 0.0)
            box = Box3D(center, 4.0, 1.5, 1.8, yaw)
            twin = Box3D(center + 0.01, 4.0, 1.5, 1.8, yaw + 0.01)
            props += [Proposal(box, 1.0 - 0.01 * k), Proposal(twin, 0.995 - 0.01 * k)]
        calls = count_kernel_calls(monkeypatch)
        out = select_proposals(props, keep=64)
        assert [id(p) for p in out] == [id(props[2 * k]) for k in range(64)]
        assert calls == [32, 32]  # one call per block, none applying the kept
        calls.clear()
        out = select_proposals(props, keep=65)
        # the apply call tests the 64 kept boxes against the 16 later
        # ones and drops none of them; then the third block's call
        assert calls == [32, 32, 16, 8]
        assert [id(p) for p in out] == [id(props[2 * k]) for k in range(65)]

    def test_frame_style_8000_to_64(self, monkeypatch):
        # 8000 proposals jittered round robin about 12 car-sized boxes, as
        # a first stage hands them to selection
        rng = np.random.default_rng(36)
        objects = [Box3D(np.array([rng.uniform(-35, 35), -0.8, rng.uniform(5, 65)]),
                         rng.uniform(3.5, 4.5), 1.5, rng.uniform(1.6, 1.9),
                         rng.uniform(-np.pi, np.pi)) for _ in range(12)]
        props = []
        for k in range(8000):
            gt = objects[k % 12]
            offset = np.clip(rng.normal(0.0, [0.5, 0.1, 0.5]), -1.5, 1.5)
            l, h, w = np.array([gt.length, gt.height, gt.width]) * rng.uniform(0.9, 1.1, 3)
            box = Box3D(gt.center + offset, l, h, w, gt.yaw + rng.normal(0.0, 0.15))
            props.append(Proposal(box, rng.uniform(0.05, 0.95)))
        calls = count_kernel_calls(monkeypatch)
        out = select_proposals(props, pre_nms_top=8000, nms_threshold=0.8, keep=64)
        assert len(out) == 64
        assert len(calls) <= 3
        monkeypatch.undo()
        kept = nms([p.box for p in props], [p.score for p in props], 0.8)
        assert [id(p) for p in out] == [id(props[k]) for k in kept[:64]]

    def test_blocked_selection_calls_the_kernel_a_few_times(self, monkeypatch):
        rng = np.random.default_rng(34)
        boxes = clustered_boxes(rng, 512)
        scores = np.round(rng.uniform(0.0, 1.0, len(boxes)), 2)
        props = [Proposal(b, s) for b, s in zip(boxes, scores)]
        calls = count_kernel_calls(monkeypatch)
        out = select_proposals(props, keep=64)
        assert len(out) == 64
        assert 1 <= len(calls) <= 4  # one call per kept box would make 63
        monkeypatch.undo()
        kept = nms(boxes, scores, 0.8)[:64]
        assert [id(p) for p in out] == [id(props[k]) for k in kept]

    def test_default_constants(self):
        import inspect

        sig = inspect.signature(select_proposals)
        assert sig.parameters["pre_nms_top"].default == 8000
        assert sig.parameters["nms_threshold"].default == 0.8
        assert sig.parameters["keep"].default == 64


class TestRoiPooledFusion:
    def test_two_point_box_pads_with_zeros(self):
        coords = np.array([[0.0, 0, 0], [0.1, 0, 0], [50.0, 0, 0]])
        cloud = PointCloud(coords)
        rng = np.random.default_rng(80)
        f_img, f_pt, f_fused = feature_set(rng, 3)
        pooled = roi_pooled_fusion(proposal(), cloud, f_img, f_pt, f_fused,
                                   enlarge=0.2, n_points=8)
        assert pooled.valid_count == 2
        assert pooled.features.shape == (8, 3 + 2 + 3 + 4)
        np.testing.assert_array_equal(pooled.features[2:], 0.0)
        np.testing.assert_array_equal(pooled.indices[:2], [0, 1])
        np.testing.assert_array_equal(pooled.indices[2:], -1)

    def test_rows_carry_coordinates_and_features(self):
        rng = np.random.default_rng(81)
        cloud = PointCloud(rng.uniform(-0.4, 0.4, size=(20, 3)))
        f_img, f_pt, f_fused = feature_set(rng, 20)
        pooled = roi_pooled_fusion(proposal(), cloud, f_img, f_pt, f_fused,
                                   enlarge=0.0, n_points=64)
        for row in range(pooled.valid_count):
            src = pooled.indices[row]
            np.testing.assert_array_equal(pooled.features[row, :3],
                                          cloud.coords[src])
            np.testing.assert_array_equal(pooled.features[row, 3:5], f_img[src])
            np.testing.assert_array_equal(pooled.features[row, 5:8], f_pt[src])
            np.testing.assert_array_equal(pooled.features[row, 8:], f_fused[src])

    def test_gathered_set_matches_enlarged_containment(self):
        rng = np.random.default_rng(82)
        cloud = PointCloud(rng.uniform(-3, 3, size=(300, 3)))
        f_img, f_pt, f_fused = feature_set(rng, 300)
        prop = Proposal(random_box(rng), 0.5)
        pooled = roi_pooled_fusion(prop, cloud, f_img, f_pt, f_fused,
                                   enlarge=0.2, n_points=512)
        expected = points_in_box(cloud, enlarge_box(prop.box, 0.2))
        assert pooled.indices[:pooled.valid_count].tolist() == expected.tolist()

    def test_overflow_subsampling_is_seeded(self):
        rng = np.random.default_rng(83)
        cloud = PointCloud(rng.uniform(-0.5, 0.5, size=(100, 3)))
        f_img, f_pt, f_fused = feature_set(rng, 100)
        kwargs = dict(enlarge=0.0, n_points=16)
        a = roi_pooled_fusion(proposal(l=2.0), cloud, f_img, f_pt, f_fused,
                              seed=1, **kwargs)
        b = roi_pooled_fusion(proposal(l=2.0), cloud, f_img, f_pt, f_fused,
                              seed=1, **kwargs)
        c = roi_pooled_fusion(proposal(l=2.0), cloud, f_img, f_pt, f_fused,
                              seed=2, **kwargs)
        assert a.valid_count == b.valid_count == c.valid_count == 16
        np.testing.assert_array_equal(a.indices, b.indices)
        assert a.indices.tolist() != c.indices.tolist()
        # subsample draws from the containment set
        inside = set(points_in_box(cloud, proposal(l=2.0).box).tolist())
        assert set(a.indices.tolist()) <= inside

    def test_empty_roi(self):
        cloud = PointCloud(np.full((4, 3), 100.0))
        rng = np.random.default_rng(84)
        f_img, f_pt, f_fused = feature_set(rng, 4)
        pooled = roi_pooled_fusion(proposal(), cloud, f_img, f_pt, f_fused,
                                   n_points=8)
        assert pooled.valid_count == 0
        np.testing.assert_array_equal(pooled.features, 0.0)
        np.testing.assert_array_equal(pooled.indices, -1)

    def test_marginal_point_included_only_when_enlarged(self):
        # point 0.05 outside the face: inside after enlarging by 0.2
        cloud = PointCloud(np.array([[0.55, 0.0, 0.0]]))
        rng = np.random.default_rng(85)
        f_img, f_pt, f_fused = feature_set(rng, 1)
        tight = roi_pooled_fusion(proposal(), cloud, f_img, f_pt, f_fused,
                                  enlarge=0.0, n_points=4)
        grown = roi_pooled_fusion(proposal(), cloud, f_img, f_pt, f_fused,
                                  enlarge=0.2, n_points=4)
        assert tight.valid_count == 0
        assert grown.valid_count == 1

    def test_feature_row_count_checked(self):
        cloud = PointCloud(np.zeros((3, 3)))
        rng = np.random.default_rng(86)
        f_img, f_pt, f_fused = feature_set(rng, 4)
        with pytest.raises(DimensionMismatch):
            roi_pooled_fusion(proposal(), cloud, f_img, f_pt, f_fused)

    def test_first_bad_stream_in_argument_order_is_reported(self):
        cloud = PointCloud(np.zeros((3, 3)))
        f_img, _, f_fused = feature_set(np.random.default_rng(86), 4)
        with pytest.raises(DimensionMismatch, match=r"^f_img must have shape \(3, C\)"):
            roi_pooled_fusion(proposal(), cloud, f_img, "not numbers", f_fused)

    @pytest.mark.parametrize("n_points", [0, -1])
    def test_point_budget_below_one_rejected(self, n_points):
        cloud = PointCloud(np.zeros((3, 3)))
        f_img, f_pt, f_fused = feature_set(np.random.default_rng(88), 3)
        with pytest.raises(ValueError, match="n_points must be positive"):
            roi_pooled_fusion(proposal(), cloud, f_img, f_pt, f_fused,
                              n_points=n_points)

    def test_default_constants(self):
        import inspect

        sig = inspect.signature(roi_pooled_fusion)
        assert sig.parameters["enlarge"].default == 0.2
        assert sig.parameters["n_points"].default == 512

    def test_shape_constant_across_occupancy(self):
        rng = np.random.default_rng(87)
        cloud = PointCloud(rng.uniform(-2, 2, size=(600, 3)))
        f_img, f_pt, f_fused = feature_set(rng, 600)
        for l in (0.2, 1.0, 4.0):
            pooled = roi_pooled_fusion(proposal(l=l), cloud, f_img, f_pt,
                                       f_fused, n_points=32)
            assert isinstance(pooled, PooledRoI)
            assert pooled.features.shape == (32, 12)
            assert pooled.indices.shape == (32,)
