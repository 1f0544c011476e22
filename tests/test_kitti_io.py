import re
import struct

import numpy as np
import pytest

from fuse3d import (
    MissingKey,
    ParseError,
    PointCloud,
    TruncatedFile,
    read_calib,
    read_labels,
    read_point_cloud_bin,
    write_point_cloud_bin,
)
from fuse3d.kitti_io import _read_calib_components

IDENTITY_CALIB = """\
P2: 1 0 0 0 0 1 0 0 0 0 1 0
R0_rect: 1 0 0 0 1 0 0 0 1
Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0
"""


class TestPointCloudBin:
    def test_single_record(self, tmp_path):
        path = tmp_path / "cloud.bin"
        path.write_bytes(struct.pack("<4f", 1.0, 2.0, 3.0, 0.5))
        cloud = read_point_cloud_bin(path)
        np.testing.assert_array_equal(cloud.coords, [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(cloud.intensity, [0.5])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        cloud = read_point_cloud_bin(path)
        assert len(cloud) == 0
        assert cloud.intensity.shape == (0,)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(TruncatedFile):
            read_point_cloud_bin(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_point_cloud_bin(tmp_path / "nope.bin")

    def test_nonfinite_coordinates_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(struct.pack("<4f", 1.0, float("nan"), 3.0, 0.0))
        with pytest.raises(ParseError, match="c.bin"):
            read_point_cloud_bin(path)

    def test_write_read_byte_identical(self, tmp_path):
        rng = np.random.default_rng(90)
        cloud = PointCloud(
            rng.uniform(-50, 50, size=(64, 3)).astype(np.float32),
            rng.uniform(0, 1, size=64).astype(np.float32),
        )
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        write_point_cloud_bin(cloud, first)
        write_point_cloud_bin(read_point_cloud_bin(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_write_without_intensity_pads_zeros(self, tmp_path):
        cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]))
        path = tmp_path / "c.bin"
        write_point_cloud_bin(cloud, path)
        back = read_point_cloud_bin(path)
        np.testing.assert_array_equal(back.intensity, [0.0])

    @pytest.mark.parametrize("coords, intensity", [
        ([[1.0, 1e39, 3.0]], None), ([[1.0, 2.0, 3.0]], [-4e38])])
    def test_value_beyond_float32_rejected_before_writing(self, tmp_path,
                                                          coords, intensity):
        path = tmp_path / "c.bin"
        with pytest.raises(ValueError, match="c.bin: point values must fit in float32"):
            write_point_cloud_bin(PointCloud(np.array(coords), intensity), path)
        assert not path.exists()


class TestCalib:
    def test_identity_composition(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(IDENTITY_CALIB)
        m = read_calib(path)
        np.testing.assert_array_equal(m, np.hstack([np.eye(3), np.zeros((3, 1))]))

    def test_missing_key(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P2: 1 0 0 0 0 1 0 0 0 0 1 0\n"
                        "Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(MissingKey):
            read_calib(path)

    def test_bad_float(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(IDENTITY_CALIB.replace("R0_rect: 1", "R0_rect: x"))
        with pytest.raises(ParseError):
            read_calib(path)

    def test_nonfinite_value(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(IDENTITY_CALIB.replace("R0_rect: 1", "R0_rect: inf"))
        with pytest.raises(ParseError, match=r"calib\.txt:2"):
            read_calib(path)

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(IDENTITY_CALIB.replace(
            "R0_rect: 1 0 0 0 1 0 0 0 1", "R0_rect: 1 0 0"))
        with pytest.raises(ParseError):
            read_calib(path)

    def test_known_translation_composes_by_hand(self, tmp_path):
        p2 = np.array([[700.0, 0, 600, 40], [0, 700.0, 180, 2],
                       [0, 0, 1.0, 0.01]])
        r0 = np.array([[0.9999, 0.01, 0], [-0.01, 0.9999, 0], [0, 0, 1.0]])
        tr = np.array([[0.0, -1, 0, -0.02], [0, 0, -1, -0.06],
                       [1.0, 0, 0, -0.27]])
        lines = [
            "P2: " + " ".join(repr(float(v)) for v in p2.reshape(-1)),
            "R0_rect: " + " ".join(repr(float(v)) for v in r0.reshape(-1)),
            "Tr_velo_to_cam: " + " ".join(repr(float(v)) for v in tr.reshape(-1)),
        ]
        path = tmp_path / "calib.txt"
        path.write_text("\n".join(lines) + "\n")
        # hand composition: pad each factor to 4x4 and multiply through
        r0_pad = np.eye(4)
        r0_pad[:3, :3] = r0
        tr_pad = np.eye(4)
        tr_pad[:3, :4] = tr
        expected = p2 @ r0_pad @ tr_pad
        np.testing.assert_allclose(read_calib(path), expected, atol=1e-12)

    def test_full_kitti_layout_reads_only_its_three_keys(self, tmp_path):
        # a real calib file also carries P0, P1, P3 and Tr_imu_to_velo;
        # they, blank lines and lines without a colon are skipped
        row = " ".join(["7.2e+02"] * 12)
        lines = IDENTITY_CALIB.splitlines()
        path = tmp_path / "calib.txt"
        path.write_text("\n".join([
            f"P0: {row}", f"P1: {row}", "", lines[0], f"P3: {row}",
            "calibration for drive 0001", lines[1], lines[2],
            "Tr_imu_to_velo: 1 0 0 x", "",
        ]))
        np.testing.assert_array_equal(
            read_calib(path), np.hstack([np.eye(3), np.zeros((3, 1))]))

    @pytest.mark.parametrize("line", [0, 1, 2])
    def test_repeated_key_names_its_second_line(self, tmp_path, line):
        # a second line for a key used to replace the first without a word
        lines = IDENTITY_CALIB.splitlines()
        key = lines[line].split(":")[0]
        path = tmp_path / "calib.txt"
        path.write_text("\n".join(lines + ["", lines[line]]) + "\n")
        with pytest.raises(ParseError, match=(
                rf"^{re.escape(str(path))}:5: {key} given a second time$")):
            read_calib(path)

    def test_components_exposed(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(IDENTITY_CALIB)
        calib = _read_calib_components(path)
        np.testing.assert_array_equal(calib.r0, np.eye(3))


CAR_LINE = ("Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 "
            "1.65 1.67 3.64 -0.65 1.71 46.70 -1.59")


class TestLabels:
    def test_single_car_line(self, tmp_path):
        path = tmp_path / "label.txt"
        path.write_text(CAR_LINE + "\n")
        [(name, box)] = read_labels(path)
        assert name == "Car"
        # sizes arrive as h, w, l; the location is the bottom-face center
        assert (box.length, box.height, box.width) == (3.64, 1.65, 1.67)
        np.testing.assert_allclose(box.center, [-0.65, 1.71 - 1.65 / 2, 46.70])
        assert box.yaw == pytest.approx(-1.59)

    def test_dontcare_skipped(self, tmp_path):
        path = tmp_path / "label.txt"
        path.write_text("DontCare -1 -1 -10 0 0 0 0 -1 -1 -1 -1000 -1000 -1000 -10\n"
                        + CAR_LINE + "\n")
        assert len(read_labels(path)) == 1

    @pytest.mark.parametrize("row, message", [
        ("DontCare 1 2", "expected 15 fields, or 16 with a score, got 3"),
        ("DontCare -1 -1 -10 0 0 0 0 -1 -1 -1 -1000 -1000 -1000 -10 0.5 x",
         "expected 15 fields, or 16 with a score, got 17"),
        ("DontCare -1 -1 -10 0 0 0 0 -1 -1 -1 -1000 -1000 -1000 -10 high",
         "could not convert string to float: 'high'"),
        ("DontCare -1 -1 -10 0 0 0 0 -1 -1 -1 -1000 -1000 -1000 -10 nan",
         "score must be finite"),
        ("DontCare -1 nan -10 0 0 0 0 -1 -1 -1 -1000 -1000 -1000 -10",
         "occlusion must be finite"),
    ], ids=["3_fields", "17_fields", "word_score", "nan_score",
            "nan_occlusion"])
    def test_dontcare_row_checked_before_it_is_skipped(self, tmp_path, row,
                                                       message):
        path = tmp_path / "label.txt"
        path.write_text(CAR_LINE + "\n" + row + "\n")
        with pytest.raises(ParseError, match=(
                rf"^{re.escape(str(path))}:2: {re.escape(message)}$")):
            read_labels(path)

    @pytest.mark.parametrize("row, column", [
        ("Car nan 0 0 0 0 0 inf 1.5 1.6 3.9 1.0 1.0 10.0 0.1", "truncation"),
        (CAR_LINE.replace("614.12", "inf"), "bbox_right"),
        (CAR_LINE.replace("-1.58", "-inf"), "alpha"),
    ], ids=["nan_truncation", "inf_bbox", "inf_alpha"])
    def test_every_number_must_be_finite(self, tmp_path, row, column):
        path = tmp_path / "label.txt"
        path.write_text(CAR_LINE + "\n" + row + "\n")
        with pytest.raises(ParseError, match=(
                rf"^{re.escape(str(path))}:2: {column} must be finite$")):
            read_labels(path)

    def test_kitti_dontcare_row_parses_as_nothing(self, tmp_path):
        # a real KITTI DontCare row: sizes -1, location -1000, no box
        path = tmp_path / "label.txt"
        path.write_text("DontCare -1 -1 -10 503.89 169.71 590.61 190.13 "
                        "-1 -1 -1 -1000 -1000 -1000 -10\n")
        assert read_labels(path) == []

    def test_empty_file(self, tmp_path):
        path = tmp_path / "label.txt"
        path.write_text("")
        assert read_labels(path) == []

    def test_malformed_float(self, tmp_path):
        path = tmp_path / "label.txt"
        path.write_text(CAR_LINE.replace("46.70", "forty") + "\n")
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert ":1:" in str(err.value)

    def test_short_line(self, tmp_path):
        path = tmp_path / "label.txt"
        path.write_text("Car 0.0 0 -1.58\n")
        with pytest.raises(ParseError):
            read_labels(path)

    @pytest.mark.parametrize("field, value", [
        (-1, "nan"), (-1, "inf"), (-1, "-inf"),  # yaw
        (-2, "nan"),                               # z of the location
        (10, "0"), (8, "-1.5"), (9, "inf"),        # l, h, w
        (10, "1e60"), (8, "1e-60"),                # outside Box3D's range
    ])
    def test_bad_box_value_names_file_and_line(self, tmp_path, field, value):
        parts = CAR_LINE.split()
        parts[field] = value
        path = tmp_path / "label.txt"
        path.write_text(CAR_LINE + "\n" + " ".join(parts) + "\n")
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert f"{path}:2:" in str(err.value)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "label.txt"
        path.write_text("\n" + CAR_LINE + "\n   \n\n" + CAR_LINE + "\n\n")
        assert [name for name, _ in read_labels(path)] == ["Car", "Car"]
        path.write_text("\n" + CAR_LINE + "\n\n" + CAR_LINE.replace("46.70", "x"))
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert f"{path}:4:" in str(err.value)

    def test_trailing_score_tolerated(self, tmp_path):
        path = tmp_path / "label.txt"
        path.write_text(CAR_LINE + "\n" + CAR_LINE + " 0.98\n")
        [(_, plain), (_, scored)] = read_labels(path)
        np.testing.assert_array_equal(scored.center, plain.center)

    @pytest.mark.parametrize("extra, fields", [(" 0.98 1 2", 18),
                                               (" 0.98 extra", 17)])
    def test_more_than_sixteen_fields_rejected(self, tmp_path, extra, fields):
        path = tmp_path / "label.txt"
        path.write_text(CAR_LINE + "\n" + CAR_LINE + extra + "\n")
        with pytest.raises(ParseError, match=(
                rf"^{re.escape(str(path))}:2: expected 15 fields, "
                rf"or 16 with a score, got {fields}$")):
            read_labels(path)

    @pytest.mark.parametrize("score", ["high", "nan", "inf", "-inf"])
    def test_score_must_be_a_finite_number(self, tmp_path, score):
        path = tmp_path / "label.txt"
        path.write_text(CAR_LINE + " 0.5\n" + CAR_LINE + f" {score}\n")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:2: "):
            read_labels(path)
