import numpy as np
import pytest

from conftest import make_cloud
from fuse3d import (
    DimensionMismatch,
    InvalidCount,
    PointCloud,
    SamplerConfig,
    SyntheticSceneSpec,
    TooFewPoints,
    aad,
    farthest_point_sampling,
    generate_scene,
    hybrid_sample,
    hybrid_sweep,
    lambda_sweep,
    rotate_y,
    scale,
)
from fuse3d.sampling import _AAD_CHUNK
from oracles import brute_fps, dense_aad, rowwise_fps


def synthetic_attention(rng, n):
    return rng.uniform(0.05, 0.95, size=n)


def large_clouds():
    """4096-point clouds: uniform, a 16^3 lattice, and four copies of
    each of 1024 integer points, so distance ties are everywhere."""
    rng = np.random.default_rng(45)
    axis = np.arange(16.0)
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    distinct = rng.integers(0, 6, size=(1024, 3)).astype(float)
    return {
        "uniform": make_cloud(rng, 4096),
        "lattice": PointCloud(lattice.reshape(-1, 3)),
        "duplicates": PointCloud(np.repeat(distinct, 4, axis=0)),
    }


class TestFarthestPointSampling:
    def test_n_equals_total_returns_all(self):
        rng = np.random.default_rng(30)
        cloud = make_cloud(rng, 12)
        idx = farthest_point_sampling(cloud, 12)
        assert sorted(idx.tolist()) == list(range(12))

    def test_n_one_returns_seed(self):
        cloud = make_cloud(np.random.default_rng(31), 9)
        assert farthest_point_sampling(cloud, 1, seed_index=4).tolist() == [4]

    def test_colinear_greedy_order(self):
        # seed 0, farthest is 10, then 2 (min-dist 2 beats 1's min-dist 1)
        coords = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [10.0, 0, 0]])
        idx = farthest_point_sampling(PointCloud(coords), 3, seed_index=0)
        assert idx.tolist() == [0, 3, 2]
        assert idx.tolist() == brute_fps(coords, 3, 0)

    def test_invalid_counts(self):
        cloud = make_cloud(np.random.default_rng(32), 5)
        with pytest.raises(InvalidCount):
            farthest_point_sampling(cloud, 0)
        with pytest.raises(InvalidCount):
            farthest_point_sampling(cloud, 6)
        with pytest.raises(InvalidCount):
            farthest_point_sampling(cloud, 2, seed_index=5)

    def test_indices_distinct_even_with_duplicates(self):
        coords = np.zeros((6, 3))  # fully degenerate cloud
        idx = farthest_point_sampling(PointCloud(coords), 6)
        assert sorted(idx.tolist()) == list(range(6))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            n_pts = int(rng.integers(2, 64))
            cloud = make_cloud(rng, n_pts)
            n = int(rng.integers(1, n_pts + 1))
            seed_index = int(rng.integers(0, n_pts))
            got = farthest_point_sampling(cloud, n, seed_index).tolist()
            assert got == brute_fps(cloud.coords, n, seed_index)

    @pytest.mark.parametrize("name", ["uniform", "lattice", "duplicates"])
    def test_matches_rowwise_oracle_at_4096(self, name):
        cloud = large_clouds()[name]
        got = farthest_point_sampling(cloud, 1434, seed_index=7).tolist()
        assert got == rowwise_fps(cloud.coords, 1434, seed_index=7)

    def test_prefix_property(self):
        cloud = large_clouds()["duplicates"]
        full = farthest_point_sampling(cloud, 1500, seed_index=3)
        for m in (1, 2, 256, 1024, 1025, 1499):
            np.testing.assert_array_equal(
                farthest_point_sampling(cloud, m, seed_index=3), full[:m])


class TestHybridSample:
    def test_lambda_one_set_equals_fps(self):
        rng = np.random.default_rng(34)
        cloud = make_cloud(rng, 40)
        att = synthetic_attention(rng, 40)
        hybrid = hybrid_sample(cloud, att, SamplerConfig(n=10, lam=1.0))
        fps = farthest_point_sampling(cloud, 10)
        assert set(hybrid.tolist()) == set(fps.tolist())

    def test_lambda_max_set_equals_global_top_n(self):
        rng = np.random.default_rng(35)
        cloud = make_cloud(rng, 40)
        att = synthetic_attention(rng, 40)
        hybrid = hybrid_sample(cloud, att, SamplerConfig(n=10, lam=4.0))
        top = np.argsort(-att, kind="stable")[:10]
        assert set(hybrid.tolist()) == set(top.tolist())

    def test_small_case_matches_composed_oracle(self):
        rng = np.random.default_rng(36)
        cloud = make_cloud(rng, 6)
        att = synthetic_attention(rng, 6)
        got = hybrid_sample(cloud, att, SamplerConfig(n=2, lam=2.0))
        stage1 = brute_fps(cloud.coords, 4, 0)
        expected = sorted(stage1, key=lambda i: (-att[i], i))[:2]
        assert got.tolist() == expected

    def test_output_is_subset_of_stage_one_in_score_order(self):
        rng = np.random.default_rng(37)
        cloud = make_cloud(rng, 50)
        att = synthetic_attention(rng, 50)
        cfg = SamplerConfig(n=12, lam=1.5)
        out = hybrid_sample(cloud, att, cfg)
        stage1 = farthest_point_sampling(cloud, int(np.ceil(1.5 * 12)))
        assert set(out.tolist()) <= set(stage1.tolist())
        assert len(set(out.tolist())) == 12
        assert np.all(np.diff(att[out]) <= 0)

    def test_rejects_bad_factor(self):
        rng = np.random.default_rng(38)
        cloud = make_cloud(rng, 20)
        att = synthetic_attention(rng, 20)
        with pytest.raises(InvalidCount):
            hybrid_sample(cloud, att, SamplerConfig(n=10, lam=0.5))
        with pytest.raises(InvalidCount):
            hybrid_sample(cloud, att, SamplerConfig(n=10, lam=2.5))

    def test_rejects_bad_attention(self):
        rng = np.random.default_rng(39)
        cloud = make_cloud(rng, 20)
        with pytest.raises(DimensionMismatch):
            hybrid_sample(cloud, np.full(19, 0.5), SamplerConfig(n=5))
        with pytest.raises(ValueError):
            hybrid_sample(cloud, np.full(20, 1.0), SamplerConfig(n=5))

    def test_rejects_nan_attention(self):
        rng = np.random.default_rng(46)
        cloud = make_cloud(rng, 20)
        att = synthetic_attention(rng, 20)
        att[3] = np.nan
        with pytest.raises(ValueError, match="strictly in"):
            hybrid_sample(cloud, att, SamplerConfig(n=5))

    def test_tied_scores_rank_toward_lower_index(self):
        rng = np.random.default_rng(47)
        cloud = make_cloud(rng, 500)
        # five distinct scores, so most candidates tie with others
        att = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=500)
        got = hybrid_sample(cloud, att, SamplerConfig(n=100, lam=2.0))
        stage1 = rowwise_fps(cloud.coords, 200)
        expected = sorted(stage1, key=lambda i: (-att[i], i))[:100]
        assert got.tolist() == expected


class TestAad:
    def test_unit_square_corners(self):
        corners = np.array([
            [0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 1], [1.0, 0, 1],
        ])
        per_point, mean = aad(PointCloud(corners), [0, 1, 2, 3])
        # squared neighbor distances are {1, 1, 2} for every corner
        np.testing.assert_allclose(per_point, 4.0 / 3.0, atol=1e-12)
        assert mean == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_coincident_points(self):
        cloud = PointCloud(np.zeros((5, 3)))
        per_point, mean = aad(cloud, range(5))
        np.testing.assert_array_equal(per_point, 0.0)
        assert mean == 0.0

    def test_scales_quadratically(self):
        rng = np.random.default_rng(40)
        cloud = make_cloud(rng, 30)
        idx = list(range(30))
        _, base = aad(cloud, idx)
        _, scaled = aad(scale(cloud, 3.0), idx)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_rigid_motion_invariant(self):
        rng = np.random.default_rng(41)
        cloud = make_cloud(rng, 30)
        idx = list(range(0, 30, 2))
        _, base = aad(cloud, idx)
        moved = PointCloud(rotate_y(cloud, 0.8).coords + np.array([3.0, -1.0, 2.0]))
        _, after = aad(moved, idx)
        assert after == pytest.approx(base, rel=1e-9)

    def test_sqrt_variant(self):
        corners = np.array([
            [0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 1], [1.0, 0, 1],
        ])
        per_point, _ = aad(PointCloud(corners), [0, 1, 2, 3], squared=False)
        np.testing.assert_allclose(per_point, (2.0 + np.sqrt(2.0)) / 3.0,
                                   atol=1e-12)

    def test_too_few_points(self):
        cloud = make_cloud(np.random.default_rng(42), 10)
        with pytest.raises(TooFewPoints):
            aad(cloud, [0, 1, 2])

    @pytest.mark.parametrize(
        "k", [_AAD_CHUNK - 5, _AAD_CHUNK, 2 * _AAD_CHUNK + 37])
    def test_chunked_rows_equal_dense_formula(self, k):
        rng = np.random.default_rng(48)
        cloud = make_cloud(rng, 1000)
        idx = rng.permutation(1000)[:k]
        per_point, mean = aad(cloud, idx)
        expected_per_point, expected_mean = dense_aad(cloud.coords[idx])
        np.testing.assert_array_equal(per_point, expected_per_point)
        assert mean == expected_mean


class TestLambdaSweep:
    def test_single_entry_is_pure_fps(self):
        rng = np.random.default_rng(43)
        cloud = make_cloud(rng, 40)
        att = synthetic_attention(rng, 40)
        [(lam, mean_aad)] = lambda_sweep(cloud, att, 10, [1.0])
        assert lam == 1.0
        fps = farthest_point_sampling(cloud, 10)
        _, expected = aad(cloud, fps)
        assert mean_aad == pytest.approx(expected, rel=1e-12)

    def test_order_independent_sorted_output(self):
        rng = np.random.default_rng(44)
        cloud = make_cloud(rng, 40)
        att = synthetic_attention(rng, 40)
        a = lambda_sweep(cloud, att, 8, [2.0, 1.0, 1.5])
        b = lambda_sweep(cloud, att, 8, [1.0, 1.5, 2.0])
        assert a == b
        assert [row[0] for row in a] == [1.0, 1.5, 2.0]

    def test_clustered_scene_trend(self, standard_scene):
        cloud, attention, _ = standard_scene
        rows = lambda_sweep(cloud, attention, 256, [1.0, 1.2, 1.4, 1.6, 2.0])
        aads = [mean_aad for _, mean_aad in rows]
        assert all(b <= a for a, b in zip(aads, aads[1:]))
        # the endpoints bracket the trend
        assert aads[-1] <= aads[0]

    def test_propagates_sampler_errors(self):
        cloud, attention, _ = generate_scene(SyntheticSceneSpec(
            num_clusters=1, points_per_cluster=10, background_points=10))
        with pytest.raises(InvalidCount):
            lambda_sweep(cloud, attention, 10, [3.0])

    def test_rows_equal_per_factor_sample_and_aad(self, standard_scene):
        cloud, attention, _ = standard_scene
        lambdas = [1.6, 1.0, 2.0, 1.2, 1.4]
        rows = lambda_sweep(cloud, attention, 256, lambdas, seed_index=5)
        expected = []
        for lam in sorted(lambdas):
            selected = hybrid_sample(
                cloud, attention, SamplerConfig(n=256, lam=lam, seed_index=5))
            expected.append((lam, aad(cloud, selected)[1]))
        assert rows == expected

    def test_sweep_selections_equal_hybrid_sample(self, standard_scene):
        cloud, attention, _ = standard_scene
        lambdas = [2.0, 1.0, 1.3, 1.3]
        sweep = hybrid_sweep(cloud, attention, 256, lambdas, seed_index=2)
        assert [lam for lam, _ in sweep] == sorted(lambdas)
        for lam, selected in sweep:
            expected = hybrid_sample(
                cloud, attention, SamplerConfig(n=256, lam=lam, seed_index=2))
            np.testing.assert_array_equal(selected, expected)

    @pytest.mark.parametrize("bad", [0.5, 7.0, float("nan")])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_any_invalid_factor_raises(self, standard_scene, bad, position):
        cloud, attention, _ = standard_scene
        lambdas = [1.0, 1.2, 1.4, 1.6]
        lambdas.insert(position, bad)
        with pytest.raises(InvalidCount):
            lambda_sweep(cloud, attention, 256, lambdas)
