import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import make_cloud
from fuse3d import (
    DimensionMismatch,
    DomainError,
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
from fuse3d import sampling
from fuse3d.sampling import _x_index, _x_window
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


def window_edge_clouds():
    """Clouds on which an x-window could go wrong: x never varies, most
    distances tie, x sits far from zero (either side) in fine steps,
    neighbouring x values differ by one ulp, x is so large that its ulp
    is 1 and the window edges px -+ r round by up to half a unit, each
    point has four copies so that many windows have zero reach and end
    on equal x, or a few points lie so far out that a reach spans the
    whole cloud."""
    rng = np.random.default_rng(46)
    axis = np.arange(7.0)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    ulp = np.spacing(1.0)
    far = 1e150 * np.array([-3.0, -2.0, 2.0, 3.0])
    return {
        "equal_x": np.column_stack(
            [np.full(600, 2.5), rng.uniform(-10, 10, size=(600, 2))]),
        "tripled_grid": np.tile(grid.reshape(-1, 3), (3, 1)),
        "far_x_mm_steps": np.column_stack([
            1e6 + 1e-3 * rng.integers(0, 400, size=800),
            1e-3 * rng.integers(0, 20, size=(800, 2))]),
        "ulp_apart_x": np.column_stack([
            1.0 + ulp * rng.permutation(500),
            ulp * rng.integers(0, 30, size=(500, 2))]),
        "x_ulp_one": np.column_stack([
            2.0**52 + rng.integers(0, 12, size=400),
            rng.integers(0, 4, size=(400, 2))]).astype(float),
        "negative_far_x_mm_steps": np.column_stack([
            -1e6 - 1e-3 * rng.integers(0, 400, size=800),
            1e-3 * rng.integers(0, 20, size=(800, 2))]),
        "negative_x_ulp_one": np.column_stack([
            -2.0**52 - rng.integers(0, 12, size=400),
            rng.integers(0, 4, size=(400, 2))]).astype(float),
        "four_copies": np.repeat(
            rng.integers(-20, 20, size=(150, 3)).astype(float), 4, axis=0),
        "far_spread": np.vstack([
            rng.uniform(-1, 1, size=(300, 3)),
            np.column_stack([far, far[::-1], np.zeros(4)])]),
    }


WINDOW_EDGE_NAMES = list(window_edge_clouds())


def aad_clouds(k):
    """Clouds of at least k points on which a windowed 3-NN could go
    wrong: tight clusters, four copies of each point (third-nearest
    bounds of 0), an integer lattice full of exact ties, one x for every
    point, and one far outlier whose block's window spans the sample."""
    rng = np.random.default_rng(47)
    centers = rng.uniform(-20, 20, size=(4, 3))
    axis = np.arange(5.0)
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    outlier = rng.uniform(-5, 5, size=(k, 3))
    outlier[k // 2] = [900.0, -40.0, -700.0]
    return {
        "clustered": centers[rng.integers(0, 4, size=k)]
        + rng.normal(scale=0.3, size=(k, 3)),
        "duplicated": np.repeat(rng.uniform(-5, 5, size=(k // 4 + 1, 3)), 4,
                                axis=0),
        "lattice": lattice.reshape(-1, 3),
        "equal_x": np.column_stack(
            [np.full(k, -7.25), rng.uniform(-3, 3, size=(k, 2))]),
        "far_outlier": outlier,
    }


def assert_aad_equals_dense_formula(coords, idx):
    per_point, mean = aad(PointCloud(coords), idx)
    expected_per_point, expected_mean = dense_aad(coords[idx])
    np.testing.assert_array_equal(per_point, expected_per_point)
    assert mean == expected_mean
    return per_point


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

    @pytest.mark.parametrize("n, seed_index, name, value", [
        (2.5, 0, "n", 2.5),
        (np.float64(2.0), 0, "n", np.float64(2.0)),
        (True, 0, "n", True),
        ("2", 0, "n", "2"),
        (2, 1.5, "seed_index", 1.5),
        (2, np.float64(2.0), "seed_index", np.float64(2.0)),
        (2, False, "seed_index", False),
        (2, np.bool_(True), "seed_index", np.bool_(True)),
    ])
    def test_non_integer_counts_are_invalid(self, n, seed_index, name, value):
        cloud = make_cloud(np.random.default_rng(32), 5)
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(InvalidCount, match=re.escape(message)):
            farthest_point_sampling(cloud, n, seed_index)

    def test_numpy_integer_counts_accepted(self):
        cloud = make_cloud(np.random.default_rng(32), 9)
        np.testing.assert_array_equal(
            farthest_point_sampling(cloud, np.int32(4), np.uint8(3)),
            farthest_point_sampling(cloud, 4, 3))

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

    @pytest.mark.parametrize("name", WINDOW_EDGE_NAMES)
    def test_window_edge_cases_match_rowwise_oracle(self, name):
        coords = window_edge_clouds()[name]
        n = len(coords)
        got = farthest_point_sampling(PointCloud(coords), n, seed_index=5)
        assert got.tolist() == rowwise_fps(coords, n, seed_index=5)

    @pytest.mark.parametrize("name", WINDOW_EDGE_NAMES)
    def test_column_view_of_records_matches_rowwise_oracle(self, name):
        # the layout read_point_cloud_bin builds: the coordinates are the
        # first three columns of (N, 4) records, a strided view
        coords = window_edge_clouds()[name]
        records = np.column_stack([coords, np.arange(len(coords), dtype=float)])
        cloud = PointCloud(records[:, :3])
        assert not cloud.coords.flags.c_contiguous
        n = len(coords)
        got = farthest_point_sampling(cloud, n, seed_index=5)
        assert got.tolist() == rowwise_fps(coords, n, seed_index=5)

    def test_clustered_scene_matches_rowwise_oracle(self, standard_scene):
        cloud, _, _ = standard_scene
        n = len(cloud)
        got = farthest_point_sampling(cloud, n, seed_index=11)
        assert got.tolist() == rowwise_fps(cloud.coords, n, seed_index=11)

    @pytest.mark.parametrize("seed_index", [0, 7, 2048, 4095])
    def test_permuted_lattice_ties_follow_index_order(self, seed_index):
        # the lattice is built x-major, so its index order is its x order;
        # permuted, a tie won by the lowest x and one won by the lowest
        # index pick different points
        coords = large_clouds()["lattice"].coords
        coords = coords[np.random.default_rng(48).permutation(len(coords))]
        assert not np.all(np.diff(coords[:, 0]) >= 0)
        n = len(coords)
        got = farthest_point_sampling(PointCloud(coords), n, seed_index)
        assert got.tolist() == rowwise_fps(coords, n, seed_index)

    def test_working_memory_per_point(self):
        n_pts = 65536
        cloud = make_cloud(np.random.default_rng(49), n_pts)
        tracemalloc.start()
        try:
            farthest_point_sampling(cloud, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the x-sorted coordinates and the scratch block (24 bytes each),
        # the x order, its inverse and the two running minima (8 each);
        # a per-pick gather of the running minima adds 8 more
        assert peak < 81 * n_pts

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

    @pytest.mark.parametrize("cfg, message", [
        (SamplerConfig(n=2.5), "n must be an integer, got 2.5"),
        (SamplerConfig(n=5, seed_index=1.5),
         "seed_index must be an integer, got 1.5"),
    ])
    def test_non_integer_counts_are_invalid(self, cfg, message):
        rng = np.random.default_rng(40)
        cloud = make_cloud(rng, 20)
        att = synthetic_attention(rng, 20)
        with pytest.raises(InvalidCount, match=re.escape(message)):
            hybrid_sample(cloud, att, cfg)
        # checked before the attention scores
        with pytest.raises(InvalidCount, match=re.escape(message)):
            hybrid_sweep(cloud, att[:3], cfg.n, [1.0], cfg.seed_index)

    # every foreground score lies above every background score, so each
    # factor's top n of an FPS prefix of at least n points keeps at least
    # the foreground of FPS(n), the prefix itself at factor 1
    @settings(derandomize=True, max_examples=300, deadline=None,
              phases=[p for p in Phase if p is not Phase.shrink])
    @given(st.data())
    def test_hybrid_keeps_at_least_the_foreground_of_fps(self, data):
        total = data.draw(st.integers(20, 300), label="N")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        cloud = make_cloud(rng, total)
        foreground = rng.random(total) < data.draw(st.floats(0.0, 1.0), label="share")
        low = data.draw(st.floats(0.01, 0.49), label="background score")
        high = data.draw(st.floats(0.51, 0.99), label="foreground score")
        att = np.where(foreground, high, low)
        n = data.draw(st.integers(4, total // 2), label="n")
        lams = [1.0] + data.draw(st.lists(st.floats(1.0, total / n), max_size=4),
                                 label="factors")
        seed_index = data.draw(st.integers(0, total - 1), label="seed_index")
        fps = farthest_point_sampling(cloud, n, seed_index)
        rows = hybrid_sweep(cloud, att, n, lams, seed_index)
        assert len(rows) == len(lams)
        for _, picked in rows:
            assert foreground[picked].sum() >= foreground[fps].sum()
        assert set(rows[0][1].tolist()) == set(fps.tolist())

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

    def test_too_few_points(self):
        cloud = make_cloud(np.random.default_rng(42), 10)
        with pytest.raises(TooFewPoints):
            aad(cloud, [0, 1, 2])

    def test_two_dimensional_indices_rejected(self):
        cloud = make_cloud(np.random.default_rng(43), 10)
        with pytest.raises(DimensionMismatch, match="1-D"):
            aad(cloud, [[0, 1], [2, 3]])

    @pytest.mark.parametrize("sampled, match", [
        ([-1, 0, 1, 2], r"distinct and lie in \[0, 10\)"),
        ([0, 1, 2, 10], r"distinct and lie in \[0, 10\)"),
        ([0.5, 1, 2, 3], "integers"),
        (np.array([0.0, 1.0, 2.0, 3.0]), "integers"),
        ([0, 1, 2, 2], r"distinct and lie in \[0, 10\)"),
    ])
    def test_bad_indices_rejected(self, sampled, match):
        cloud = make_cloud(np.random.default_rng(44), 10)
        with pytest.raises(InvalidCount, match=match):
            aad(cloud, sampled)

    def test_any_integer_dtype_accepted(self):
        cloud = make_cloud(np.random.default_rng(45), 10)
        idx = [0, 3, 5, 9]
        expected = aad(cloud, idx)
        for dtype in (np.uint8, np.int32, np.int64):
            per_point, mean = aad(cloud, np.array(idx, dtype=dtype))
            np.testing.assert_array_equal(per_point, expected[0])
            assert mean == expected[1]

    @pytest.mark.parametrize("k", [4, 5, 31, 32, 33, 100, 2 * 32 + 37])
    @pytest.mark.parametrize(
        "name", ["clustered", "duplicated", "lattice", "equal_x", "far_outlier"])
    def test_windowed_rows_equal_dense_formula(self, name, k):
        coords = aad_clouds(k)[name]
        idx = np.random.default_rng(48).permutation(len(coords))[:k]
        assert_aad_equals_dense_formula(coords, idx)

    @pytest.mark.parametrize("name", WINDOW_EDGE_NAMES)
    def test_window_edge_cases_equal_dense_formula(self, name):
        coords = window_edge_clouds()[name]
        idx = np.random.default_rng(49).permutation(len(coords))
        assert_aad_equals_dense_formula(coords, idx)

    def test_overflowing_distances_give_infinite_reach(self):
        # squared distances from the far points overflow to inf, so their
        # bounds, and the windows of their blocks, cover every point
        rng = np.random.default_rng(50)
        far = 1e155 * np.array([-5.0, -4, -3, -2, -1, 1, 2, 3, 4, 5])
        coords = np.vstack([rng.uniform(-1, 1, size=(40, 3)),
                            np.column_stack([far, np.zeros((10, 2))])])
        idx = rng.permutation(50)
        per_point = assert_aad_equals_dense_formula(coords, idx)
        assert np.isinf(per_point[idx >= 40]).all()
        assert np.isfinite(per_point[idx < 40]).all()

    def test_distances_keep_the_dense_sum_order(self):
        # (dx*dx + dy*dy) + dz*dz, left to right, rounds apart from the
        # library's order, (dx*dx + dz*dz) + dy*dy, on some of these
        # three-nearest distances, so a block summed in another order
        # changes per-point values
        rng = np.random.default_rng(53)
        coords = rng.normal(size=(300, 3)) * [3.0, 0.7, 5.0]
        idx = rng.permutation(300)
        sq = (coords[idx, None] - coords[None, idx]) ** 2
        left = (sq[..., 0] + sq[..., 1]) + sq[..., 2]
        np.fill_diagonal(left, np.inf)
        left_per_point = np.sort(np.partition(left, 2, axis=1)[:, :3],
                                 axis=1).mean(axis=1)
        per_point = assert_aad_equals_dense_formula(coords, idx)
        assert (per_point != left_per_point).any()

    def test_working_memory_per_sampled_point(self):
        # 4096 of a 16384-point study-like scene: the O(k) arrays plus
        # one block of 32 rows against its window; a k-sized block buffer
        # would about double this
        cloud, _, _ = generate_scene(SyntheticSceneSpec(
            num_clusters=8, points_per_cluster=512, background_points=12288,
            seed=0))
        k = 4096
        idx = np.sort(np.random.default_rng(0).permutation(len(cloud))[:k])
        # the first np.unique in a process imports numpy.ma (about 0.5 MB)
        aad(cloud, idx)
        tracemalloc.start()
        try:
            aad(cloud, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 600 * k


def test_x_window_keeps_equal_x_at_zero_reach_and_all_at_infinite():
    sx = np.array([-3.0, -1.0, -1.0, 0.0, 0.0, 0.0, 2.0])
    x_sorted, pad = _x_index(sx)
    assert _x_window(x_sorted, 0.0, 0.0, 0.0, pad) == (3, 6)
    assert _x_window(x_sorted, -1.0, 0.0, 0.0, pad) == (1, 6)
    # dx * dx equal to the bound is kept
    assert _x_window(x_sorted, 2.0, 2.0, 4.0, pad) == (3, 7)
    assert _x_window(x_sorted, -3.0, -3.0, np.inf, pad) == (0, 7)


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

    def test_sweep_rejects_more_samples_than_points(self):
        cloud, attention, _ = generate_scene(SyntheticSceneSpec(
            num_clusters=1, points_per_cluster=10, background_points=10))
        with pytest.raises(InvalidCount, match=r"^n must be in \[1, 20\], got 21$"):
            hybrid_sweep(cloud, attention, 21, [1.0])

    def test_sweep_of_no_factors_is_empty(self, standard_scene):
        cloud, attention, _ = standard_scene
        assert hybrid_sweep(cloud, attention, 64, []) == []

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
        # NaN is not finite, a DomainError; 0.5 and 7.0 lie outside [1, N/n]
        with pytest.raises(DomainError if np.isnan(bad) else InvalidCount):
            lambda_sweep(cloud, attention, 256, lambdas)

    @pytest.mark.parametrize("bad", [True, "1.5"])
    def test_factor_must_be_a_real_number(self, monkeypatch, bad):
        rng = np.random.default_rng(46)
        cloud = make_cloud(rng, 50)
        att = synthetic_attention(rng, 50)

        def no_fps(*args):
            raise AssertionError("FPS ran before the factors were checked")

        monkeypatch.setattr(sampling, "farthest_point_sampling", no_fps)
        message = f"oversample factor must be a real number, got {bad!r}"
        for sweep in (hybrid_sweep, lambda_sweep):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                sweep(cloud, att, 10, [1.2, bad])

    def test_numpy_and_integer_factors_accepted(self):
        rng = np.random.default_rng(47)
        cloud = make_cloud(rng, 50)
        att = synthetic_attention(rng, 50)
        rows = hybrid_sweep(cloud, att, 10, [np.float32(1.5), np.int64(2), 1])
        expected = hybrid_sweep(cloud, att, 10, [1.5, 2.0, 1.0])
        assert [lam for lam, _ in rows] == [1.0, 1.5, 2.0]
        for (_, got), (_, want) in zip(rows, expected):
            np.testing.assert_array_equal(got, want)
