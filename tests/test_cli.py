import csv
import json
import math
import re
import struct

import numpy as np
import pytest

from fuse3d import (
    SamplerConfig,
    SyntheticSceneSpec,
    aad,
    farthest_point_sampling,
    generate_scene,
    hybrid_sample,
    read_point_cloud_bin,
)
from fuse3d.cli import main

IDENTITY_CALIB = """\
P2: 1 0 0 0 0 1 0 0 0 0 1 0
R0_rect: 1 0 0 0 1 0 0 0 1
Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0
"""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestGenScene:
    def test_writes_three_files(self, tmp_path, capsys):
        out = tmp_path / "scene"
        assert main(["gen-scene", "--outdir", str(out),
                     "--num-clusters", "2", "--points-per-cluster", "30",
                     "--background-points", "50"]) == 0
        assert "2 boxes" in capsys.readouterr().out
        cloud = read_point_cloud_bin(out / "cloud.bin")
        assert len(cloud) == 2 * 30 + 50
        rows = read_csv(out / "attention.csv")
        assert rows[0] == ["index", "score"]
        assert len(rows) == 1 + len(cloud)
        boxes = json.loads((out / "boxes.json").read_text())
        assert len(boxes["boxes"]) == 2
        assert boxes["spec"]["num_clusters"] == 2

    @pytest.mark.parametrize("flag, value", [
        ("--background-extent", "nan"), ("--background-extent", "inf"),
        ("--cluster-radius", "inf"),
    ])
    def test_nonfinite_extent_is_usage_error(self, tmp_path, capsys, flag,
                                             value):
        out = tmp_path / "scene"
        assert main(["gen-scene", "--outdir", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert flag[2:].replace("-", "_") in err
        assert not out.exists()

    def test_extent_beyond_float32_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "scene"
        assert main(["gen-scene", "--outdir", str(out),
                     "--background-extent", "1e39"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "cloud.bin" in err
        assert not out.exists()

    def test_extent_beyond_float32_writes_nothing_to_an_existing_dir(
            self, tmp_path):
        out = tmp_path / "scene"
        out.mkdir()
        assert main(["gen-scene", "--outdir", str(out),
                     "--background-extent", "1e39"]) == 1
        assert list(out.iterdir()) == []


class TestSampleStudy:
    def test_csv_schema_and_values(self, tmp_path):
        out = tmp_path / "study.csv"
        assert main(["sample-study", "--n", "64",
                     "--lambdas", "1.0,2.0", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["lambda", "mean_aad", "fg_fraction"]
        assert [r[0] for r in rows[1:]] == ["1.0", "2.0"]
        # the lam = 1 row equals a pure-FPS run of the same scene
        cloud, attention, _ = generate_scene(SyntheticSceneSpec())
        fps = farthest_point_sampling(cloud, 64)
        _, expected = aad(cloud, fps)
        assert float(rows[1][1]) == pytest.approx(expected, rel=1e-12)
        sel = hybrid_sample(cloud, attention, SamplerConfig(n=64, lam=2.0))
        assert float(rows[2][2]) == pytest.approx(
            float(np.mean(attention[sel] > 0.5)))

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample-study", "--n", "128", "--out"]
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_file_input_with_attention(self, tmp_path):
        scene_dir = tmp_path / "scene"
        main(["gen-scene", "--outdir", str(scene_dir)])
        out = tmp_path / "study.csv"
        assert main(["sample-study",
                     "--cloud", str(scene_dir / "cloud.bin"),
                     "--attention", str(scene_dir / "attention.csv"),
                     "--n", "32", "--lambdas", "1.0,1.5",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 3

    def test_stdout_output(self, capsys):
        assert main(["sample-study", "--n", "16", "--lambdas", "1.0",
                     "--num-clusters", "1", "--points-per-cluster", "20",
                     "--background-points", "30"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("lambda,mean_aad,fg_fraction\n")

    def test_bad_lambda_is_usage_error(self, tmp_path):
        assert main(["sample-study", "--n", "64", "--lambdas", "0.5"]) == 1

    @pytest.mark.parametrize("lambdas", [",", "1.0,x", ""])
    def test_malformed_lambda_list_is_usage_error(self, capsys, lambdas):
        assert main(["sample-study", "--lambdas", lambdas]) == 1
        err = capsys.readouterr().err
        assert "argument --lambdas: expected a comma-separated list of " \
               "numbers" in err
        assert "_float_list" not in err

    def test_attention_without_cloud_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        assert main(["sample-study", "--attention", str(tmp_path / "none.csv"),
                     "--n", "8", "--lambdas", "1.0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--cloud" in err
        assert not out.exists()

    def test_attention_length_mismatch_is_data_error(self, tmp_path):
        scene_dir = tmp_path / "scene"
        main(["gen-scene", "--outdir", str(scene_dir)])
        att = tmp_path / "short.csv"
        att.write_text("index,score\n0,0.5\n")
        assert main(["sample-study", "--cloud", str(scene_dir / "cloud.bin"),
                     "--attention", str(att), "--n", "8"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "1.5", "0.0", "high"])
    def test_bad_attention_score_is_data_error(self, tmp_path, capsys, bad):
        scene_dir = tmp_path / "scene"
        main(["gen-scene", "--outdir", str(scene_dir)])
        att = scene_dir / "attention.csv"
        lines = att.read_text().splitlines()
        lines[3] = f"2,{bad}"
        att.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["sample-study", "--cloud", str(scene_dir / "cloud.bin"),
                     "--attention", str(att), "--n", "8"]) == 2
        assert f"{att}:4:" in capsys.readouterr().err

    def test_blank_attention_rows_skipped(self, tmp_path, capsys):
        scene_dir = tmp_path / "scene"
        main(["gen-scene", "--outdir", str(scene_dir)])
        att = scene_dir / "attention.csv"
        header, *rows = att.read_text().splitlines()
        gappy = tmp_path / "gappy.csv"
        gappy.write_text("\n".join([header, "", *rows[:2], "", "", *rows[2:], ""]))
        outs = []
        for path in (att, gappy):
            outs.append(tmp_path / f"study-{path.stem}.csv")
            assert main(["sample-study", "--cloud", str(scene_dir / "cloud.bin"),
                         "--attention", str(path), "--n", "8",
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        # blank rows still count toward the reported line number
        gappy.write_text("\n".join([header, "", "0,0.5", "", "1,2.0"]) + "\n")
        assert main(["sample-study", "--cloud", str(scene_dir / "cloud.bin"),
                     "--attention", str(gappy), "--n", "8"]) == 2
        assert f"{gappy}:5:" in capsys.readouterr().err

    @pytest.mark.parametrize("row, fields", [("0,zzz,0.5", 3), ("0", 1)])
    def test_attention_row_without_two_fields_is_data_error(
            self, tmp_path, capsys, row, fields):
        scene_dir = tmp_path / "scene"
        main(["gen-scene", "--outdir", str(scene_dir)])
        att = scene_dir / "attention.csv"
        header, *rows = att.read_text().splitlines()
        att.write_text("\n".join([header, row, *rows[1:]]) + "\n")
        capsys.readouterr()
        assert main(["sample-study", "--cloud", str(scene_dir / "cloud.bin"),
                     "--attention", str(att), "--n", "8"]) == 2
        assert capsys.readouterr().err == (
            f"data error: {att}:2: expected 2 fields (index,score), "
            f"got {fields}\n")

    def test_attention_header_on_first_non_blank_row_only(self, tmp_path,
                                                           capsys):
        scene_dir = tmp_path / "scene"
        main(["gen-scene", "--outdir", str(scene_dir)])
        att = scene_dir / "attention.csv"
        header, *rows = att.read_text().splitlines()
        lead = tmp_path / "lead.csv"
        lead.write_text("\n".join(["", "", header, *rows]) + "\n")
        outs = []
        for path in (att, lead):
            outs.append(tmp_path / f"study-{path.stem}.csv")
            assert main(["sample-study", "--cloud", str(scene_dir / "cloud.bin"),
                         "--attention", str(path), "--n", "8",
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        # a second header is a data row
        lead.write_text("\n".join(["", header, header, *rows]) + "\n")
        capsys.readouterr()
        assert main(["sample-study", "--cloud", str(scene_dir / "cloud.bin"),
                     "--attention", str(lead), "--n", "8"]) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {lead}:3: invalid literal")

    @pytest.mark.parametrize("reorder", ["reversed", "skipped", "not_integer"])
    def test_attention_index_out_of_position_is_data_error(
            self, tmp_path, capsys, reorder):
        scene_dir = tmp_path / "scene"
        main(["gen-scene", "--outdir", str(scene_dir)])
        att = scene_dir / "attention.csv"
        header, *rows = att.read_text().splitlines()
        if reorder == "reversed":
            rows.reverse()
            line, expected = 2, f"index '{len(rows) - 1}', expected 0"
        elif reorder == "skipped":
            del rows[1]
            line, expected = 3, "index '2', expected 1"
        else:
            rows[0] = "0.0," + rows[0].split(",")[1]
            line, expected = 2, "invalid literal"
        att.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        out = tmp_path / "study.csv"
        assert main(["sample-study", "--cloud", str(scene_dir / "cloud.bin"),
                     "--attention", str(att), "--n", "8",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert f"{att}:{line}:" in err and expected in err
        assert not out.exists()

    def test_cloud_without_attention_scores_every_point_half(self, tmp_path):
        scene_dir = tmp_path / "scene"
        main(["gen-scene", "--outdir", str(scene_dir)])
        out = tmp_path / "study.csv"
        assert main(["sample-study", "--cloud", str(scene_dir / "cloud.bin"),
                     "--n", "32", "--lambdas", "1.0,2.0", "--out", str(out)]) == 0
        rows = read_csv(out)[1:]
        # no score lies above the 0.5 midpoint, and lam = 1 is pure FPS
        assert [r[2] for r in rows] == ["0.0", "0.0"]
        cloud = read_point_cloud_bin(scene_dir / "cloud.bin")
        _, expected = aad(cloud, farthest_point_sampling(cloud, 32))
        assert float(rows[0][1]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("flags", [
        ["--num-clusters", "9", "--scene-seed", "3"],
        ["--background-extent", "10.0"],
    ])
    def test_scene_flag_with_cloud_is_usage_error(self, tmp_path, capsys,
                                                  flags):
        scene_dir = tmp_path / "scene"
        main(["gen-scene", "--outdir", str(scene_dir)])
        capsys.readouterr()
        out = tmp_path / "study.csv"
        assert main(["sample-study", "--cloud", str(scene_dir / "cloud.bin"),
                     *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--cloud" in err
        assert all(flag in err for flag in flags[::2])
        assert not out.exists()

    def test_nonfinite_cloud_is_data_error(self, tmp_path, capsys):
        cloud_path = tmp_path / "cloud.bin"
        good = struct.pack("<4f", 1.0, 2.0, 3.0, 0.0)
        # a non-finite coordinate, then a NaN intensity
        for bad in ((1.0, float("nan"), 4.0, 0.0), (1.0, 2.0, 4.0, float("nan"))):
            cloud_path.write_bytes(struct.pack("<4f", *bad) + good)
            assert main(["sample-study", "--cloud", str(cloud_path),
                         "--n", "1", "--lambdas", "1.0"]) == 2
            assert str(cloud_path) in capsys.readouterr().err

    def test_default_lambdas(self, tmp_path):
        out = tmp_path / "study.csv"
        assert main(["sample-study", "--n", "64", "--out", str(out)]) == 0
        assert [r[0] for r in read_csv(out)[1:]] == [
            "1.0", "1.2", "1.4", "1.6", "2.0"]

    @pytest.mark.parametrize("with_attention", [False, True])
    def test_empty_cloud_is_data_error(self, tmp_path, capsys, with_attention):
        cloud_path = tmp_path / "empty.bin"
        cloud_path.write_bytes(b"")
        args = ["sample-study", "--cloud", str(cloud_path), "--n", "4"]
        if with_attention:
            attention_path = tmp_path / "attention.csv"
            attention_path.write_text("index,score\n")
            args += ["--attention", str(attention_path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(cloud_path) in err


class TestGradcheck:
    def test_report_and_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gradcheck", "--trials", "10", "--seed", "3", "--out"]
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        report = json.loads(a.read_text())
        assert report["trials"] == 10
        assert report["pass"] is True
        assert report["max_relative_error"] < report["tolerance"]
        assert len(report["per_group_max_relative_error"]) == 9

    def test_seed_changes_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gradcheck", "--trials", "5", "--seed", "1", "--out", str(a)])
        main(["gradcheck", "--trials", "5", "--seed", "2", "--out", str(b)])
        ra = json.loads(a.read_text())["max_relative_error"]
        rb = json.loads(b.read_text())["max_relative_error"]
        assert ra != rb

    @pytest.mark.parametrize("flags, named", [
        (["--eps", "nan"], "eps"),
        (["--eps", "inf"], "eps"),
        (["--trials", "0"], "trials"),
        (["--trials", "-3"], "trials"),
        (["--max-points", "0"], "max_points"),
        (["--max-channels", "0"], "max_channels"),
        (["--tolerance", "nan"], "tolerance"),
        (["--tolerance", "inf"], "tolerance"),
        (["--tolerance", "0"], "tolerance"),
        (["--tolerance", "-0.5"], "tolerance"),
        (["--tolerance", "-1e-5"], "tolerance"),
        (["--tolerance", "-2.5E+1"], "tolerance"),
        (["--eps", "-1e-5"], "eps"),
        (["--tolerance", "-inf"], "tolerance"),
        (["--tolerance", "-NaN"], "tolerance"),
        (["--eps", "-nan"], "eps"),
        (["--eps", "-Infinity"], "eps"),
    ])
    def test_bad_argument_is_usage_error(self, tmp_path, capsys, flags, named):
        out = tmp_path / "g.json"
        assert main(["gradcheck", "--trials", "3", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and named in err
        assert not out.exists()


class TestProject:
    def test_projection_table(self, tmp_path):
        cloud_path = tmp_path / "cloud.bin"
        cloud_path.write_bytes(
            struct.pack("<4f", 1.0, 2.0, 4.0, 0.0)
            + struct.pack("<4f", 0.0, 0.0, -1.0, 0.0)
        )
        calib_path = tmp_path / "calib.txt"
        calib_path.write_text(IDENTITY_CALIB)
        out = tmp_path / "proj.csv"
        assert main(["project", "--cloud", str(cloud_path),
                     "--calib", str(calib_path), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["index", "u", "v", "depth", "visible"]
        assert rows[1] == ["0", "0.25", "0.5", "4.0", "1"]
        assert rows[2][1] == "nan" and rows[2][4] == "0"

    def test_image_bounds_restrict_visibility(self, tmp_path):
        cloud_path = tmp_path / "cloud.bin"
        cloud_path.write_bytes(struct.pack("<4f", 50.0, 0.0, 1.0, 0.0))
        calib_path = tmp_path / "calib.txt"
        calib_path.write_text(IDENTITY_CALIB)
        out = tmp_path / "proj.csv"
        main(["project", "--cloud", str(cloud_path), "--calib", str(calib_path),
              "--image-width", "10", "--image-height", "10", "--out", str(out)])
        assert read_csv(out)[1][4] == "0"

    @pytest.mark.parametrize("bound", ["--image-width", "--image-height"])
    def test_lone_image_bound_is_usage_error(self, tmp_path, capsys, bound):
        cloud_path = tmp_path / "cloud.bin"
        cloud_path.write_bytes(struct.pack("<4f", 50.0, 0.0, 1.0, 0.0))
        calib_path = tmp_path / "calib.txt"
        calib_path.write_text(IDENTITY_CALIB)
        out = tmp_path / "proj.csv"
        assert main(["project", "--cloud", str(cloud_path),
                     "--calib", str(calib_path), bound, "10",
                     "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("width, height", [("-5", "-5"), ("0", "10"),
                                               ("10", "0")])
    def test_image_bound_below_one_is_usage_error(self, tmp_path, capsys,
                                                  width, height):
        cloud_path = tmp_path / "cloud.bin"
        cloud_path.write_bytes(struct.pack("<4f", 0.0, 0.0, 1.0, 0.0))
        calib_path = tmp_path / "calib.txt"
        calib_path.write_text(IDENTITY_CALIB)
        out = tmp_path / "proj.csv"
        assert main(["project", "--cloud", str(cloud_path),
                     "--calib", str(calib_path), "--image-width", width,
                     "--image-height", height, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    def test_missing_cloud_is_data_error(self, tmp_path):
        calib_path = tmp_path / "calib.txt"
        calib_path.write_text(IDENTITY_CALIB)
        assert main(["project", "--cloud", str(tmp_path / "nope.bin"),
                     "--calib", str(calib_path)]) == 2

    def test_nonfinite_cloud_is_data_error(self, tmp_path, capsys):
        cloud_path = tmp_path / "cloud.bin"
        calib_path = tmp_path / "calib.txt"
        calib_path.write_text(IDENTITY_CALIB)
        # a non-finite coordinate, then a NaN intensity
        for bad in ((float("inf"), 0.0, 1.0, 0.0), (0.0, 0.0, 1.0, float("nan"))):
            cloud_path.write_bytes(struct.pack("<4f", *bad))
            assert main(["project", "--cloud", str(cloud_path),
                         "--calib", str(calib_path)]) == 2
            assert str(cloud_path) in capsys.readouterr().err

    def test_nonfinite_calib_is_data_error(self, tmp_path):
        cloud_path = tmp_path / "cloud.bin"
        cloud_path.write_bytes(struct.pack("<4f", 1.0, 2.0, 4.0, 0.0))
        calib_path = tmp_path / "calib.txt"
        calib_path.write_text(IDENTITY_CALIB.replace("P2: 1", "P2: nan"))
        assert main(["project", "--cloud", str(cloud_path),
                     "--calib", str(calib_path)]) == 2

    def test_truncated_cloud_is_data_error(self, tmp_path):
        cloud_path = tmp_path / "cloud.bin"
        cloud_path.write_bytes(b"\x00" * 18)
        calib_path = tmp_path / "calib.txt"
        calib_path.write_text(IDENTITY_CALIB)
        assert main(["project", "--cloud", str(cloud_path),
                     "--calib", str(calib_path)]) == 2


class TestRoiDemo:
    def test_summary_structure(self, tmp_path):
        out = tmp_path / "roi.json"
        assert main(["roi-demo", "--out", str(out),
                     "--proposals-per-box", "8"]) == 0
        summary = json.loads(out.read_text())
        assert summary["num_gt_boxes"] == 4
        assert summary["num_proposals"] == 32
        assert summary["num_selected"] <= 64
        assert summary["feature_width"] == 3 + 4 + 4 + 8
        for entry in summary["selected"]:
            assert 0 <= entry["valid_count"] <= summary["roi_points"]
        # proposals overlap the dense clusters, so some RoIs must be occupied
        assert any(e["valid_count"] > 0 for e in summary["selected"])

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_proposals_per_box_below_one_is_usage_error(self, tmp_path,
                                                        capsys, count):
        out = tmp_path / "roi.json"
        assert main(["roi-demo", "--proposals-per-box", count,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "proposals_per_box" in err
        assert not out.exists()

    def test_keep_cap_beyond_sys_maxsize_keeps_every_survivor(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["roi-demo", "--proposals-per-box", "4",
                     "--proposals-keep", "1" + "0" * 30, "--out", str(a)]) == 0
        assert main(["roi-demo", "--proposals-per-box", "4",
                     "--proposals-keep", "16", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["roi-demo", "--out", str(a)])
        main(["roi-demo", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestLossEval:
    @staticmethod
    def fixture_payload():
        unit = {"center": [0.0, 0.0, 0.0], "length": 1.0, "height": 1.0,
                "width": 1.0, "yaw": 0.0}
        offset = dict(unit, center=[0.5, 0.0, 0.0])
        return {
            "focal_c_t": 0.5,
            "pred_box": offset,
            "gt_box": unit,
            "anchor_box": unit,
            "logits_x": [0.0] * 12,
            "logits_z": [0.0] * 12,
            "logits_yaw": [0.0] * 12,
            "pred_residuals": [0.0] * 7,
            "stages": {"rpn_cls": 1.0, "rpn_reg": 2.0,
                       "rcnn_cls": 3.0, "rcnn_reg": 4.0},
        }

    def test_term_values(self, tmp_path):
        import math

        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(self.fixture_payload()))
        out = tmp_path / "losses.json"
        assert main(["loss-eval", "--fixture", str(fixture),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["focal"] == pytest.approx(0.25 * 0.25 * math.log(2))
        assert report["cross_entropy"]["x"] == pytest.approx(math.log(12))
        assert report["iou_regularizer"] == pytest.approx(math.log(3))
        # gt == anchor sits on a bin edge, so x, z, yaw residuals are -0.5
        assert report["smooth_l1_sum"] == pytest.approx(3 * 0.5 * 0.25)
        assert report["total"] == 10.0
        assert report["regression"] == pytest.approx(
            3 * math.log(12) + 3 * 0.5 * 0.25 + math.log(3))

    @pytest.mark.parametrize("flag, value, expected", [
        ("--focal-gamma", "0.0", 0.25 * math.log(2)),
        ("--focal-alpha", "0.5", 0.5 * 0.25 * math.log(2)),
    ])
    def test_focal_flags_set_the_focal_term(self, tmp_path, flag, value,
                                            expected):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(self.fixture_payload()))
        out = tmp_path / "losses.json"
        assert main(["loss-eval", "--fixture", str(fixture), flag, value,
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["focal"] == pytest.approx(expected)

    @pytest.mark.parametrize("key", ["alpha", "gamma"])
    def test_fixture_focal_constant_is_data_error(self, tmp_path, capsys, key):
        payload = dict(self.fixture_payload(), **{key: 0.5})
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(payload))
        out = tmp_path / "losses.json"
        assert main(["loss-eval", "--fixture", str(fixture),
                     f"--focal-{key}", "0.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {fixture}:")
        assert repr(key) in err and f"--focal-{key}" in err
        assert not out.exists()

    @pytest.mark.parametrize("where, key", [
        ("key", "stage"), ("key", "_comment"), ("stages key", "rcnn_rge"),
    ])
    def test_unread_fixture_key_is_data_error(self, tmp_path, capsys, where, key):
        payload = self.fixture_payload()
        if where == "stages key":
            payload["stages"][key] = 1.0
        else:  # "stage" is the misspelling that once dropped "total" silently
            payload[key] = payload.pop("stages")
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(payload))
        out = tmp_path / "losses.json"
        assert main(["loss-eval", "--fixture", str(fixture),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {fixture}: {where} {key!r} is not read\n")
        assert not out.exists()

    def test_unread_box_key_is_data_error(self, tmp_path, capsys):
        payload = self.fixture_payload()
        payload["gt_box"] = dict(payload["gt_box"], yaw_deg=90.0)
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(payload))
        out = tmp_path / "losses.json"
        assert main(["loss-eval", "--fixture", str(fixture),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {fixture}: bad box 'gt_box': key 'yaw_deg' is not "
            "read\n")
        assert not out.exists()

    @pytest.mark.parametrize("name, box", [
        ("pred_box", {"center": [0.0, 0.0, 0.0], "length": 1.0,
                      "height": 1.0, "width": 1.0}),
        ("gt_box", {"center": [0.0, 0.0], "length": 1.0, "height": 1.0,
                    "width": 1.0, "yaw": 0.0}),
        ("anchor_box", {"center": [0.0, 0.0, 0.0], "length": -1.0,
                        "height": 1.0, "width": 1.0, "yaw": 0.0}),
        ("gt_box", [1.0, 2.0]),
    ], ids=["no-yaw", "short-center", "negative-length", "not-an-object"])
    def test_malformed_box_is_data_error(self, tmp_path, capsys, name, box):
        payload = dict(self.fixture_payload(), **{name: box})
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(payload))
        assert main(["loss-eval", "--fixture", str(fixture)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and repr(name) in err

    def test_missing_key_is_data_error(self, tmp_path):
        payload = self.fixture_payload()
        del payload["gt_box"]
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(payload))
        assert main(["loss-eval", "--fixture", str(fixture)]) == 2

    def test_invalid_json_is_data_error(self, tmp_path):
        fixture = tmp_path / "fixture.json"
        fixture.write_text("{not json")
        assert main(["loss-eval", "--fixture", str(fixture)]) == 2

    @pytest.mark.parametrize("text", ["[1, 2]", '"alphabet"', "3"])
    def test_fixture_that_is_not_an_object_is_data_error(self, tmp_path,
                                                          capsys, text):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(text)
        assert main(["loss-eval", "--fixture", str(fixture)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {fixture}: expected a JSON object\n")

    @pytest.mark.parametrize("key, index, value, name", [
        ("pred_box", "length", True, "length"),
        ("pred_box", "height", "1.5", "height"),
        ("pred_box", "yaw", False, "yaw"),
        ("focal_c_t", None, True, "c_t"),
        ("stages", "rpn_cls", True, "rpn_cls"),
    ], ids=["bool-size", "string-size", "bool-yaw", "bool-probability",
            "bool-stage"])
    def test_non_real_fixture_value_is_data_error(self, tmp_path, capsys,
                                                  key, index, value, name):
        payload = self.fixture_payload()
        if index is None:
            payload[key] = value
        else:
            payload[key] = dict(payload[key], **{index: value})
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(payload))
        out = tmp_path / "losses.json"
        assert main(["loss-eval", "--fixture", str(fixture),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {fixture}:")
        assert f"{name} must be a real number, got {value!r}" in err
        assert not out.exists()

    def test_bad_probability_is_data_error(self, tmp_path):
        payload = self.fixture_payload()
        payload["focal_c_t"] = -0.5
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(payload))
        assert main(["loss-eval", "--fixture", str(fixture)]) == 2

    def test_overflowing_stage_sum_is_data_error(self, tmp_path, capsys):
        payload = self.fixture_payload()
        payload["stages"].update(rpn_cls=1e308, rpn_reg=1e308)
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(payload))
        out = tmp_path / "losses.json"
        assert main(["loss-eval", "--fixture", str(fixture),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {fixture}:") and "overflows" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, index, literal", [
        ("logits_x", 0, "NaN"),
        ("pred_residuals", 2, "Infinity"),
        ("stages", "rcnn_reg", "-Infinity"),
        ("stages", "rpn_cls", "1e999"),
        ("gt_box", "yaw", "1" + "0" * 400),
    ], ids=["nan", "inf", "-inf", "float-overflow", "int-overflow"])
    def test_nonfinite_fixture_number_is_data_error(self, tmp_path, capsys,
                                                    key, index, literal):
        payload = self.fixture_payload()
        if index is None:
            payload[key] = "@"
        else:
            payload[key][index] = "@"
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(payload).replace('"@"', literal))
        out = tmp_path / "losses.json"
        assert main(["loss-eval", "--fixture", str(fixture),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(fixture) in err
        assert not out.exists()


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 11\nproposals_keep = 2\n")
        out = tmp_path / "roi.json"
        assert main(["roi-demo", "--config", str(cfg),
                     "--proposals-keep", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["num_selected"] <= 3

    def test_bad_config_file_is_data_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("unknown_key = 5\n")
        assert main(["gradcheck", "--config", str(cfg)]) == 2

    def test_repeated_config_key_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nseed = 2\n")
        assert main(["gradcheck", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "data error: line 2: seed given a second time\n")

    def test_bad_override_value_is_usage_error(self):
        assert main(["gradcheck", "--seed", "not-an-int"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["roi-demo", "--nms-threshold", "abc"],
         "argument --nms-threshold: invalid float value: 'abc'"),
        (["gradcheck", "--seed", "1.5"],
         "argument --seed: invalid int value: '1.5'"),
        (["roi-demo", "--seed", "-1e3"],
         "argument --seed: invalid int value: '-1e3'"),
        (["loss-eval", "--fixture", "f.json", "--bin-count-xz", "12.0"],
         "argument --bin-count-xz: invalid int value: '12.0'"),
    ])
    def test_malformed_typed_flag_names_the_flag(self, capsys, argv, message):
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_invalid_config_value_is_usage_error(self):
        assert main(["roi-demo", "--nms-threshold", "2.0"]) == 1

    @pytest.mark.parametrize("command", ["roi-demo", "gradcheck"])
    def test_negative_seed_flag_names_the_key(self, tmp_path, capsys, command):
        out = tmp_path / "report.json"
        assert main([command, "--seed", "-3", "--out", str(out)]) == 1
        assert "usage error: seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["roi-demo", "gradcheck"])
    def test_negative_seed_in_config_file_names_the_key(self, tmp_path, capsys,
                                                        command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        out = tmp_path / "report.json"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "usage error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_scene_seed_names_the_key(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        assert main(["sample-study", "--scene-seed", "-3", "--out", str(out)]) == 1
        assert "usage error: seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, key", [
        ("--focal-gamma", "nan", "focal_gamma"),
        ("--bin-half-range", "nan", "bin_half_range"),
        ("--bin-half-range", "inf", "bin_half_range"),
        ("--enlarge", "nan", "enlarge"),
        ("--enlarge", "inf", "enlarge"),
    ])
    def test_nonfinite_config_value_is_usage_error(self, tmp_path, capsys,
                                                   flag, value, key):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(TestLossEval.fixture_payload()))
        out = tmp_path / "report.json"
        # enlarge is read by roi-demo, the others by loss-eval
        command = (["roi-demo"] if key == "enlarge"
                   else ["loss-eval", "--fixture", str(fixture)])
        assert main([*command, flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and key in err
        assert not out.exists()


    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_half_range_whose_bin_width_overflows_is_usage_error(
            self, tmp_path, capsys, source):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(TestLossEval.fixture_payload()))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bin_half_range = 1e308\n")
        out = tmp_path / "report.json"
        given = (["--config", str(cfg)] if source == "config"
                 else ["--bin-half-range", "1e308"])
        assert main(["loss-eval", "--fixture", str(fixture), *given,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: bin_half_range must be finite and in")
        assert not out.exists()

    def test_half_range_whose_bin_width_rounds_to_zero_is_usage_error(
            self, tmp_path, capsys):
        # the fixture's ground truth and anchor share x, so the offset is 0
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(TestLossEval.fixture_payload()))
        out = tmp_path / "report.json"
        assert main(["loss-eval", "--fixture", str(fixture), "--bin-half-range",
                     "5e-324", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "usage error: bin_half_range must give 12 bins a nonzero width, "
            "got 5e-324\n")
        assert not out.exists()

    def test_yaw_bin_count_beyond_the_float_range_is_usage_error(
            self, tmp_path, capsys):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(TestLossEval.fixture_payload()))
        out = tmp_path / "report.json"
        assert main(["loss-eval", "--fixture", str(fixture), "--bin-count-yaw",
                     "1" + "0" * 400, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "usage error: bin_count_yaw must lie within the float range, "
            "got an integer of 401 digits\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, keys", [
        ("gradcheck", ["seed"]),
        ("roi-demo", ["seed", "nms_threshold", "pre_nms_top",
                      "proposals_keep", "enlarge", "roi_points"]),
        ("loss-eval", ["focal_alpha", "focal_gamma", "bin_half_range",
                       "bin_count_xz", "bin_count_yaw"]),
    ])
    def test_help_lists_only_the_keys_read(self, capsys, command, keys):
        assert main([command, "--help"]) == 0
        listed = re.findall(r"override config key (\w+)",
                            capsys.readouterr().out)
        assert listed == keys

    @pytest.mark.parametrize("argv", [
        ["loss-eval", "--enlarge", "0.3"],
        ["gradcheck", "--crop-x-min", "5"],
        ["gradcheck", "--nms-threshold", "0.5"],
        ["roi-demo", "--focal-gamma", "1.0"],
    ])
    def test_flag_of_unread_key_is_rejected(self, tmp_path, capsys, argv):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(TestLossEval.fixture_payload()))
        out = tmp_path / "report.json"
        extra = ["--fixture", str(fixture)] if argv[0] == "loss-eval" else []
        assert main([*argv, *extra, "--out", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_may_set_keys_the_command_ignores(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("enlarge = 0.3\nseed = 4\n")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gradcheck", "--trials", "3", "--config", str(cfg),
                     "--out", str(a)]) == 0
        assert main(["gradcheck", "--trials", "3", "--seed", "4",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_is_validated_in_full(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("enlarge = nan\n")
        assert main(["gradcheck", "--trials", "3", "--config", str(cfg)]) == 1
        assert "enlarge" in capsys.readouterr().err


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-scene" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["sample-study", "--frobnicate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: fuse3d [-h]")
        assert err.endswith("\nfuse3d: error: unrecognized arguments: "
                            "--frobnicate\n")

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1
