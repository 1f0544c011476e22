import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from fuse3d import (
    AAFInput,
    AAFParams,
    DimensionMismatch,
    DomainError,
    InvalidCount,
    ParseError,
    TruncatedFile,
    aaf_backward,
    aaf_forward,
    gradcheck,
    init_params,
    load_params,
    relative_error,
    run_gradcheck,
    save_params,
)
from fuse3d import fusion
from fuse3d.fusion import _GRAD_GROUPS, _WEIGHTS, _forward, _groups

from oracles import scalar_finite_diff_grad


def zero_params(c_img, c_pt, c_prev, c_out):
    c_cat = c_img + c_pt
    return AAFParams(
        c_img=c_img,
        c_pt=c_pt,
        w_img_att=np.zeros((c_cat, 1)),
        b_img_att=np.zeros(1),
        w_pt_att=np.zeros((c_cat, 1)),
        b_pt_att=np.zeros(1),
        w_out=np.zeros((c_cat + c_prev, c_out)),
        b_out=np.zeros(c_out),
    )


def random_instance(rng, n=None):
    n = n or int(rng.integers(1, 5))
    c_img, c_pt, c_prev, c_out = (int(rng.integers(1, 4)) for _ in range(4))
    params = init_params(c_img, c_pt, c_prev, c_out, rng)
    inp = AAFInput(
        f_image=rng.standard_normal((n, c_img)),
        f_point=rng.standard_normal((n, c_pt)),
        f_fused_prev=rng.standard_normal((n, c_prev)),
    )
    return params, inp


def per_element_gradcheck(params, inp, upstream, eps):
    """Gradient-check report from one forward call per perturbed entry."""
    analytic = aaf_backward(params, inp, upstream)
    report = {}
    for group in _GRAD_GROUPS:
        owner = inp if group.startswith("f_") else params

        def loss(value):
            if owner is inp:
                out = aaf_forward(params, replace(inp, **{group: value}))
            else:
                out = aaf_forward(replace(params, **{group: value}), inp)
            return float((upstream * out.f_fused).sum())

        numeric = scalar_finite_diff_grad(loss, getattr(owner, group), eps)
        report[group] = relative_error(getattr(analytic, group), numeric)
    return report


class TestForward:
    def test_zero_params_give_half_gates_and_zero_output(self):
        params = zero_params(2, 3, 1, 4)
        rng = np.random.default_rng(50)
        inp = AAFInput(rng.standard_normal((5, 2)),
                       rng.standard_normal((5, 3)),
                       rng.standard_normal((5, 1)))
        out = aaf_forward(params, inp)
        np.testing.assert_array_equal(out.att_image, np.full(5, 0.5))
        np.testing.assert_array_equal(out.att_point, np.full(5, 0.5))
        np.testing.assert_array_equal(out.f_fused, np.zeros((5, 4)))

    def test_closed_gates_pass_previous_feature_through(self):
        # large negative attention biases shut both gates; the output
        # head forwards the previous fused block and sums the (gated,
        # hence negligible) modality columns
        c_img, c_pt, c_prev = 2, 2, 3
        params = zero_params(c_img, c_pt, c_prev, c_prev)
        params.b_img_att = np.array([-40.0])
        params.b_pt_att = np.array([-40.0])
        w = np.zeros((c_img + c_pt + c_prev, c_prev))
        w[:c_img + c_pt, :] = 1.0
        w[c_img + c_pt:, :] = np.eye(c_prev)
        params.w_out = w
        rng = np.random.default_rng(51)
        inp = AAFInput(rng.standard_normal((6, c_img)),
                       rng.standard_normal((6, c_pt)),
                       rng.standard_normal((6, c_prev)))
        out = aaf_forward(params, inp)
        np.testing.assert_allclose(out.f_fused, inp.f_fused_prev, atol=1e-12)
        assert np.all(out.att_image < 1e-15)

    def test_manual_two_point_trace(self):
        # single-channel instance traced step by step with plain floats
        params = AAFParams(
            c_img=1, c_pt=1,
            w_img_att=np.array([[0.5], [-0.25]]),
            b_img_att=np.array([0.1]),
            w_pt_att=np.array([[-0.4], [0.3]]),
            b_pt_att=np.array([-0.2]),
            w_out=np.array([[1.0, -1.0], [2.0, 0.5], [-0.5, 0.25]]),
            b_out=np.array([0.05, -0.05]),
        )
        f_img, f_pt, f_prev = [0.6, -1.2], [0.8, 0.4], [1.5, -0.7]
        inp = AAFInput(np.array(f_img)[:, None], np.array(f_pt)[:, None],
                       np.array(f_prev)[:, None])
        out = aaf_forward(params, inp)
        for i in range(2):
            z_i = 0.5 * f_img[i] - 0.25 * f_pt[i] + 0.1
            z_p = -0.4 * f_img[i] + 0.3 * f_pt[i] - 0.2
            a_i = 1.0 / (1.0 + math.exp(-z_i))
            a_p = 1.0 / (1.0 + math.exp(-z_p))
            g = [f_img[i] * a_i, f_pt[i] * a_p, f_prev[i]]
            fused0 = g[0] * 1.0 + g[1] * 2.0 + g[2] * -0.5 + 0.05
            fused1 = g[0] * -1.0 + g[1] * 0.5 + g[2] * 0.25 - 0.05
            assert out.att_image[i] == pytest.approx(a_i, rel=1e-15)
            assert out.att_point[i] == pytest.approx(a_p, rel=1e-15)
            assert out.f_fused[i, 0] == pytest.approx(fused0, rel=1e-12)
            assert out.f_fused[i, 1] == pytest.approx(fused1, rel=1e-12)

    def test_attention_strictly_open_for_huge_inputs(self):
        rng = np.random.default_rng(52)
        params = init_params(2, 2, 2, 3, rng)
        inp = AAFInput(
            rng.uniform(-1e3, 1e3, size=(64, 2)),
            rng.uniform(-1e3, 1e3, size=(64, 2)),
            rng.uniform(-1e3, 1e3, size=(64, 2)),
        )
        out = aaf_forward(params, inp)
        for att in (out.att_image, out.att_point):
            assert np.all(att > 0.0)
            assert np.all(att < 1.0)
        assert np.isfinite(out.f_fused).all()

    def test_gate_continuity_toward_zero_feature(self):
        rng = np.random.default_rng(53)
        params, inp = random_instance(rng, n=3)
        shrunk = AAFInput(inp.f_image * 1e-8, inp.f_point, inp.f_fused_prev)
        zeroed = AAFInput(np.zeros_like(inp.f_image), inp.f_point,
                          inp.f_fused_prev)
        out_shrunk = aaf_forward(params, shrunk)
        out_zeroed = aaf_forward(params, zeroed)
        np.testing.assert_allclose(out_shrunk.f_fused, out_zeroed.f_fused,
                                   atol=1e-6)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(54)
        params, inp = random_instance(rng, n=7)
        perm = rng.permutation(7)
        out = aaf_forward(params, inp)
        out_p = aaf_forward(params, AAFInput(
            inp.f_image[perm], inp.f_point[perm], inp.f_fused_prev[perm]))
        np.testing.assert_array_equal(out_p.f_fused, out.f_fused[perm])
        np.testing.assert_array_equal(out_p.att_image, out.att_image[perm])

    def test_shape_mismatch_raises(self):
        params = zero_params(2, 2, 1, 1)
        with pytest.raises(DimensionMismatch):
            aaf_forward(params, AAFInput(np.zeros((3, 1)), np.zeros((3, 2)),
                                         np.zeros((3, 1))))

    def test_row_count_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            AAFInput(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros((3, 1)))

    def test_params_shapes_checked(self):
        good = zero_params(2, 1, 1, 3)
        for name, bad in (("w_img_att", np.zeros((2, 1))),
                          ("b_pt_att", np.zeros(2)),
                          ("w_out", np.zeros((2, 3))),
                          ("b_out", np.zeros(2))):
            with pytest.raises(DimensionMismatch):
                replace(good, **{name: bad})

    @pytest.mark.parametrize("name", ["c_img", "c_pt"])
    @pytest.mark.parametrize("value, message", [
        (-1, "must be >= 1, got -1"),
        (1.5, "must be an integer, got 1.5"),
        (True, "must be an integer, got True"),
    ], ids=["negative", "fraction", "bool"])
    def test_params_channel_counts_checked(self, name, value, message):
        with pytest.raises(InvalidCount, match=f"^{name} {message}$"):
            replace(zero_params(1, 1, 1, 1), **{name: value})

    def test_negative_image_count_with_matching_shapes_rejected(self):
        # c_prev is read off w_out, so these shapes fit c_img = -1, c_pt = 1
        with pytest.raises(InvalidCount, match="^c_img must be >= 1, got -1$"):
            AAFParams(-1, 1, np.zeros((0, 1)), np.zeros(1), np.zeros((0, 1)),
                      np.zeros(1), np.zeros((2, 1)), np.zeros(1))

    def test_zero_output_channels_rejected(self):
        with pytest.raises(InvalidCount, match="^c_out must be >= 1, got 0$"):
            AAFParams(1, 1, np.zeros((2, 1)), np.zeros(1), np.zeros((2, 1)),
                      np.zeros(1), np.zeros((2, 0)), np.zeros(0))

    def test_feature_arrays_must_be_2d(self):
        for shapes in (((3,), (3, 2), (3, 1)),
                       ((3, 2), (3, 2, 1), (3, 1)),
                       ((3, 2), (3, 2), ())):
            with pytest.raises(DimensionMismatch):
                AAFInput(*(np.zeros(shape) for shape in shapes))


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(55)
        params, inp = random_instance(rng, n=4)
        grads = aaf_backward(params, inp, np.zeros((4, params.c_out)))
        for name in ("w_img_att", "b_img_att", "w_pt_att", "b_pt_att",
                     "w_out", "b_out", "f_image", "f_point", "f_fused_prev"):
            np.testing.assert_array_equal(getattr(grads, name), 0.0)

    def test_output_bias_gradient_is_column_sum(self):
        rng = np.random.default_rng(56)
        params, inp = random_instance(rng, n=5)
        upstream = rng.standard_normal((5, params.c_out))
        grads = aaf_backward(params, inp, upstream)
        np.testing.assert_allclose(grads.b_out, upstream.sum(axis=0),
                                   atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            params, inp = random_instance(rng)
            upstream = rng.standard_normal((inp.f_image.shape[0], params.c_out))
            report = gradcheck(params, inp, upstream, eps=1e-5)
            assert max(report.values()) < 1e-5

    def test_upstream_shape_checked(self):
        rng = np.random.default_rng(58)
        params, inp = random_instance(rng, n=3)
        with pytest.raises(DimensionMismatch):
            aaf_backward(params, inp, np.zeros((3, params.c_out + 1)))

    def test_run_gradcheck_report(self):
        report = run_gradcheck(seed=123, trials=5)
        assert report["trials"] == 5
        assert set(report["per_group_max_relative_error"]) == {
            "w_img_att", "b_img_att", "w_pt_att", "b_pt_att", "w_out",
            "b_out", "f_image", "f_point", "f_fused_prev",
        }
        assert report["max_relative_error"] < 1e-5

    def test_batched_report_equals_per_element_oracle(self):
        rng = np.random.default_rng(59)
        for trial in range(24):
            bound = 4 if trial < 16 else 7
            n = int(rng.integers(1, bound + 1))
            sizes = [int(rng.integers(1, bound)) for _ in range(4)]
            params = init_params(*sizes, rng)
            inp = AAFInput(rng.standard_normal((n, sizes[0])),
                           rng.standard_normal((n, sizes[1])),
                           rng.standard_normal((n, sizes[2])))
            upstream = rng.standard_normal((n, sizes[3]))
            for eps in (1e-5, 1e-3):
                assert gradcheck(params, inp, upstream, eps=eps) == \
                    per_element_gradcheck(params, inp, upstream, eps)

    @pytest.mark.parametrize("n, c_prev, nan_at", [
        (3, 2, None), (3, 0, None), (0, 2, None), (3, 2, 3), (3, 2, -1),
        (3, 0, -1)],
        ids=["full", "empty_group", "no_points", "nan_in_bias", "nan_last",
             "nan_beside_empty_group"])
    def test_report_equals_relative_error_of_each_group(self, monkeypatch, n,
                                                        c_prev, nan_at):
        # the one-pass comparison against relative_error group by group,
        # on the same numeric gradient, one entry of it NaN if nan_at is set
        rng = np.random.default_rng(83)
        params = init_params(2, 1, c_prev, 2, rng)
        inp = AAFInput(rng.standard_normal((n, 2)), rng.standard_normal((n, 1)),
                       rng.standard_normal((n, c_prev)))
        upstream = rng.standard_normal((n, 2))
        real, seen = fusion.finite_diff_grad, []

        def spiked(*args, **kwargs):
            grad = real(*args, **kwargs)
            if nan_at is not None:
                grad[nan_at] = math.nan
            seen.append(grad)
            return grad

        monkeypatch.setattr(fusion, "finite_diff_grad", spiked)
        report = gradcheck(params, inp, upstream)
        [numeric] = seen
        analytic = aaf_backward(params, inp, upstream)
        expected, start = {}, 0
        for group in _GRAD_GROUPS:
            exact = getattr(analytic, group)
            part = numeric[start:start + exact.size].reshape(exact.shape)
            expected[group] = relative_error(exact, part)
            start += exact.size
        assert list(report) == list(_GRAD_GROUPS)
        assert {g: repr(e) for g, e in report.items()} == \
            {g: repr(e) for g, e in expected.items()}
        assert (report["f_fused_prev"] == 0.0) == (n * c_prev == 0)
        assert sum(map(math.isnan, report.values())) == (nan_at is not None)

    def test_run_gradcheck_is_the_group_wise_max_of_its_trials(self):
        seed, trials = 31, 40
        rng = np.random.default_rng(seed)
        errors = {group: [] for group in _GRAD_GROUPS}
        for _ in range(trials):
            params, inp = random_instance(rng)  # run_gradcheck's draws
            upstream = rng.standard_normal((len(inp.f_image), params.c_out))
            for group, err in gradcheck(params, inp, upstream).items():
                errors[group].append(err)
        worst = {group: max(errs) for group, errs in errors.items()}
        report = run_gradcheck(seed, trials)
        assert report["per_group_max_relative_error"] == worst
        assert report["max_relative_error"] == max(worst.values())

    def test_large_instance_memory_is_bounded(self):
        # 50 points and 12 channels per group make 2294 entries, whose
        # whole stencil alone would take 84 MB; the blocks keep the
        # traced peak far below that
        rng = np.random.default_rng(67)
        params = init_params(12, 12, 12, 12, rng)
        inp = AAFInput(*(rng.standard_normal((50, 12)) for _ in range(3)))
        upstream = rng.standard_normal((50, 12))
        tracemalloc.start()
        try:
            report = gradcheck(params, inp, upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert max(report.values()) < 1e-5

    def test_forward_body_broadcasts_over_a_batch_axis(self):
        rng = np.random.default_rng(61)
        instances = [init_params(2, 3, 1, 2, rng) for _ in range(5)]
        inputs = [AAFInput(rng.standard_normal((3, 2)),
                           rng.standard_normal((3, 3)),
                           rng.standard_normal((3, 1))) for _ in range(5)]
        stacked = [
            np.stack([g if g.ndim == 2 else g[None] for g in groups])
            for groups in zip(*(_groups(p, i) for p, i in zip(instances, inputs)))
        ]
        fused = _forward(*stacked)[-1]
        for k, (p, i) in enumerate(zip(instances, inputs)):
            np.testing.assert_array_equal(fused[k], aaf_forward(p, i).f_fused)

    def test_run_gradcheck_keeps_a_nan_error(self, monkeypatch):
        real = fusion.gradcheck
        calls = []

        def nan_in_second_trial(*args, **kwargs):
            report = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 2:
                report["b_out"] = math.nan
            return report

        monkeypatch.setattr(fusion, "gradcheck", nan_in_second_trial)
        report = run_gradcheck(seed=123, trials=3)
        assert math.isnan(report["per_group_max_relative_error"]["b_out"])
        assert math.isnan(report["max_relative_error"])

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-5, 0.0])
    def test_run_gradcheck_rejects_bad_eps(self, eps):
        with pytest.raises(DomainError, match=r"^eps must be finite and in \(0, inf\)"):
            run_gradcheck(seed=1, trials=2, eps=eps)

    @pytest.mark.parametrize("name", ["seed", "trials", "max_points",
                                      "max_channels"])
    @pytest.mark.parametrize("value", [True, 2.5, 2.0])
    def test_run_gradcheck_counts_and_seed_must_be_integers(self, name, value):
        args = {"seed": 1, "trials": 2, name: value}
        with pytest.raises(InvalidCount,
                           match=f"^{name} must be an integer, got {value!r}$"):
            run_gradcheck(**args)

    def test_run_gradcheck_rejects_a_negative_seed(self):
        with pytest.raises(InvalidCount, match="^seed must be >= 0, got -1$"):
            run_gradcheck(seed=-1, trials=1)
        report = run_gradcheck(seed=np.int64(1), trials=np.int64(2))
        assert report == run_gradcheck(seed=1, trials=2)

    @pytest.mark.parametrize("name", ["trials", "max_points", "max_channels"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_run_gradcheck_rejects_counts_below_one(self, name, value):
        with pytest.raises(InvalidCount,
                           match=f"^{name} must be >= 1, got {value}$"):
            run_gradcheck(seed=1, **{name: value})


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(60)
        params = init_params(3, 2, 4, 5, rng)
        path = tmp_path / "params.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert (loaded.c_img, loaded.c_pt) == (3, 2)
        assert (loaded.c_prev, loaded.c_out) == (4, 5)
        for name in ("w_img_att", "b_img_att", "w_pt_att", "b_pt_att",
                     "w_out", "b_out"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(params, name))

    def test_loaded_arrays_are_writable(self, tmp_path):
        params = init_params(3, 2, 4, 5, np.random.default_rng(63))
        path = tmp_path / "params.bin"
        save_params(params, path)
        loaded = load_params(path)
        names = ("w_img_att", "b_img_att", "w_pt_att", "b_pt_att",
                 "w_out", "b_out")
        assert all(getattr(loaded, name).flags.writeable for name in names)
        loaded.w_pt_att[0, 0] = 1.0
        loaded.b_out[0] = 1.0
        # the edit stays in the loaded copy; the file and its reload do not move
        again = load_params(path)
        for name in names:
            np.testing.assert_array_equal(getattr(again, name),
                                          getattr(params, name))
        assert loaded.w_pt_att[0, 0] == 1.0 and params.w_pt_att[0, 0] != 1.0

    def test_header_layout(self, tmp_path):
        rng = np.random.default_rng(61)
        params = init_params(1, 2, 3, 4, rng)
        path = tmp_path / "params.bin"
        save_params(params, path)
        blob = path.read_bytes()
        header = np.frombuffer(blob[:20], dtype="<u4")
        np.testing.assert_array_equal(header, [1, 2, 3, 1, 4])
        first = np.frombuffer(blob, dtype="<f8", offset=20)[0]
        assert first == params.w_img_att[0, 0]

    def test_whole_blob_matches_documented_layout(self, tmp_path):
        params = init_params(2, 3, 4, 5, np.random.default_rng(64))
        path = tmp_path / "params.bin"
        save_params(params, path)
        # header, then image-attention weights/bias, point-attention
        # weights/bias, output weights/bias, row-major little-endian
        expected = np.array([2, 3, 4, 1, 5], dtype="<u4").tobytes() + b"".join(
            np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (
                params.w_img_att, params.b_img_att, params.w_pt_att,
                params.b_pt_att, params.w_out, params.b_out))
        assert path.read_bytes() == expected
        assert len(expected) == 20 + 8 * (5 + 1 + 5 + 1 + 9 * 5 + 5)

    def test_truncated_blob_rejected(self, tmp_path):
        rng = np.random.default_rng(62)
        params = init_params(1, 1, 1, 1, rng)
        path = tmp_path / "params.bin"
        save_params(params, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(TruncatedFile):
            load_params(path)

    def test_file_shorter_than_header_rejected(self, tmp_path):
        path = tmp_path / "params.bin"
        path.write_bytes(b"\x01\x00\x00\x00" * 3)
        with pytest.raises(TruncatedFile, match="too short for the header"):
            load_params(path)

    def test_unsupported_attention_width_rejected(self, tmp_path):
        path = tmp_path / "params.bin"
        header = np.array([1, 1, 1, 2, 1], dtype="<u4").tobytes()
        path.write_bytes(header + b"\x00" * 64)
        with pytest.raises(ParseError):
            load_params(path)

    @pytest.mark.parametrize("header, name", [
        ([0, 1, 0, 1, 1], "c_img"), ([1, 0, 0, 1, 1], "c_pt"),
        ([1, 1, 0, 1, 0], "c_out")])
    def test_zero_channel_count_in_header_is_parse_error(self, tmp_path,
                                                         header, name):
        path = tmp_path / "params.bin"
        # six float64 entries: one concatenated channel and six arrays of
        # one entry, or two channels and no output head
        path.write_bytes(np.array(header, dtype="<u4").tobytes() + b"\x00" * 48)
        message = f"{path}: {name} must be >= 1, got 0"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$") as info:
            load_params(path)
        assert not isinstance(info.value, ValueError)

    def test_seeded_init_draws_each_array_in_turn(self):
        params = init_params(2, 3, 4, 5, np.random.default_rng(78))
        rng = np.random.default_rng(78)
        for name, shape in (("w_img_att", (5, 1)), ("b_img_att", (1,)),
                            ("w_pt_att", (5, 1)), ("b_pt_att", (1,)),
                            ("w_out", (9, 5)), ("b_out", (5,))):
            np.testing.assert_array_equal(
                getattr(params, name), rng.uniform(-0.1, 0.1, size=shape))

    def test_weight_table_lists_every_array_field_in_order(self):
        names = [f.name for f in fields(AAFParams)]
        assert names[:2] == ["c_img", "c_pt"] and _WEIGHTS == tuple(names[2:])
        assert _GRAD_GROUPS[:len(_WEIGHTS)] == _WEIGHTS

    def test_seeded_init_is_reproducible(self):
        a = init_params(2, 2, 2, 2, np.random.default_rng(77))
        b = init_params(2, 2, 2, 2, np.random.default_rng(77))
        np.testing.assert_array_equal(a.w_out, b.w_out)
        assert np.all(np.abs(a.w_out) <= 0.1)


class TestRelativeError:
    def test_identical_arrays(self):
        assert relative_error(np.ones(3), np.ones(3)) == 0.0

    def test_floor_guards_tiny_entries(self):
        a = np.array([1e-9])
        b = np.array([2e-9])
        assert relative_error(a, b) == pytest.approx(1e-9 / 1e-4)

    def test_large_entries_relative(self):
        assert relative_error(np.array([2.0]), np.array([1.0])) == 0.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch, match="shapes differ"):
            relative_error(np.ones(3), np.ones((3, 1)))

    def test_empty_input_is_zero(self):
        assert relative_error(np.empty(0), np.empty(0)) == 0.0
