import csv
import json
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

    def test_attention_length_mismatch_is_data_error(self, tmp_path):
        scene_dir = tmp_path / "scene"
        main(["gen-scene", "--outdir", str(scene_dir)])
        att = tmp_path / "short.csv"
        att.write_text("index,score\n0,0.5\n")
        assert main(["sample-study", "--cloud", str(scene_dir / "cloud.bin"),
                     "--attention", str(att), "--n", "8"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "1.5", "0.0"])
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

    def test_nonfinite_cloud_is_data_error(self, tmp_path, capsys):
        cloud_path = tmp_path / "cloud.bin"
        cloud_path.write_bytes(struct.pack("<4f", 1.0, float("nan"), 4.0, 0.0)
                               + struct.pack("<4f", 1.0, 2.0, 3.0, 0.0))
        assert main(["sample-study", "--cloud", str(cloud_path),
                     "--n", "1", "--lambdas", "1.0"]) == 2
        assert str(cloud_path) in capsys.readouterr().err

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

    def test_missing_cloud_is_data_error(self, tmp_path):
        calib_path = tmp_path / "calib.txt"
        calib_path.write_text(IDENTITY_CALIB)
        assert main(["project", "--cloud", str(tmp_path / "nope.bin"),
                     "--calib", str(calib_path)]) == 2

    def test_nonfinite_cloud_is_data_error(self, tmp_path, capsys):
        cloud_path = tmp_path / "cloud.bin"
        cloud_path.write_bytes(struct.pack("<4f", float("inf"), 0.0, 1.0, 0.0))
        calib_path = tmp_path / "calib.txt"
        calib_path.write_text(IDENTITY_CALIB)
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

    def test_bad_probability_is_data_error(self, tmp_path):
        payload = self.fixture_payload()
        payload["focal_c_t"] = -0.5
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(payload))
        assert main(["loss-eval", "--fixture", str(fixture)]) == 2


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

    def test_bad_override_value_is_usage_error(self):
        assert main(["gradcheck", "--seed", "not-an-int"]) == 1

    def test_invalid_config_value_is_usage_error(self):
        assert main(["roi-demo", "--nms-threshold", "2.0"]) == 1


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-scene" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["sample-study", "--frobnicate"]) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1
