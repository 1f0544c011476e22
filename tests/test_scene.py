import math

import numpy as np
import pytest

from fuse3d import SyntheticSceneSpec, generate_scene, points_in_box


class TestSyntheticScene:
    def test_same_seed_is_identical(self):
        spec = SyntheticSceneSpec(seed=7)
        cloud_a, att_a, boxes_a = generate_scene(spec)
        cloud_b, att_b, boxes_b = generate_scene(spec)
        np.testing.assert_array_equal(cloud_a.coords, cloud_b.coords)
        np.testing.assert_array_equal(att_a, att_b)
        for a, b in zip(boxes_a, boxes_b):
            np.testing.assert_array_equal(a.center, b.center)
            assert (a.length, a.height, a.width, a.yaw) == \
                (b.length, b.height, b.width, b.yaw)

    def test_different_seeds_differ(self):
        cloud_a, _, _ = generate_scene(SyntheticSceneSpec(seed=1))
        cloud_b, _, _ = generate_scene(SyntheticSceneSpec(seed=2))
        assert not np.array_equal(cloud_a.coords, cloud_b.coords)

    def test_zero_contrast_gives_uniform_attention(self):
        _, attention, _ = generate_scene(SyntheticSceneSpec(attention_contrast=0.0))
        np.testing.assert_array_equal(attention, 0.5)

    def test_two_level_attention(self):
        spec = SyntheticSceneSpec(attention_contrast=0.6)
        _, attention, _ = generate_scene(spec)
        n_fg = spec.num_clusters * spec.points_per_cluster
        np.testing.assert_array_equal(attention[:n_fg], 0.8)
        np.testing.assert_array_equal(attention[n_fg:], 0.2)
        assert np.all((attention > 0) & (attention < 1))

    def test_counts_and_layout(self):
        spec = SyntheticSceneSpec(num_clusters=3, points_per_cluster=50,
                                  background_points=120)
        cloud, attention, boxes = generate_scene(spec)
        assert len(cloud) == 3 * 50 + 120
        assert attention.shape == (len(cloud),)
        assert len(boxes) == 3

    def test_cluster_points_inside_their_boxes(self):
        spec = SyntheticSceneSpec()
        cloud, _, boxes = generate_scene(spec)
        per = spec.points_per_cluster
        for k, box in enumerate(boxes):
            cluster = np.arange(k * per, (k + 1) * per)
            inside = points_in_box(cloud, box)
            assert set(cluster.tolist()) <= set(inside.tolist())

    def test_background_spans_extent(self):
        spec = SyntheticSceneSpec(background_extent=40.0)
        cloud, _, _ = generate_scene(spec)
        bg = cloud.coords[spec.num_clusters * spec.points_per_cluster:]
        assert np.abs(bg[:, [0, 2]]).max() <= 20.0
        assert np.abs(bg[:, [0, 2]]).max() > 15.0  # actually fills the area

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSceneSpec(num_clusters=0)
        with pytest.raises(ValueError):
            SyntheticSceneSpec(attention_contrast=1.0)
        with pytest.raises(ValueError):
            SyntheticSceneSpec(cluster_radius=0.0)

    @pytest.mark.parametrize("field", ["num_clusters", "points_per_cluster",
                                       "background_points"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_count_error_names_the_field_and_value(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive, got {value}$"):
            SyntheticSceneSpec(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SyntheticSceneSpec(seed=-1)

    @pytest.mark.parametrize("field", ["cluster_radius", "background_extent"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_extent_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticSceneSpec(**{field: value})
