import dataclasses
import math

import numpy as np
import pytest

from fuse3d import (
    ParseError,
    RunConfig,
    load_config,
    parse_config,
    subsystem_seed,
)


class TestDefaults:
    def test_operating_constants(self):
        cfg = RunConfig()
        assert cfg.nms_threshold == 0.8
        assert (cfg.pre_nms_top, cfg.proposals_keep) == (8000, 64)
        assert cfg.enlarge == 0.2
        assert cfg.roi_points == 512
        assert (cfg.focal_alpha, cfg.focal_gamma) == (0.25, 2.0)
        assert cfg.seed == 0

    def test_eleven_keys(self):
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "nms_threshold", "pre_nms_top", "proposals_keep", "enlarge",
            "roi_points", "focal_alpha", "focal_gamma", "bin_half_range",
            "bin_count_xz", "bin_count_yaw", "seed",
        ]

    def test_bin_config_layout(self):
        bins = RunConfig().bin_config()
        assert bins.x.half_range == 3.0 and bins.x.num_bins == 12
        assert bins.z.width == 0.5
        assert bins.yaw.wrap and bins.yaw.half_range == math.pi


class TestRoundTrip:
    """Reading ``key = value`` text into a RunConfig."""

    def test_modified_config(self):
        cfg = parse_config("nms_threshold = 0.7\npre_nms_top = 2048\n"
                           "bin_half_range = 51.2\nseed = 99\n")
        assert cfg == dataclasses.replace(
            RunConfig(), nms_threshold=0.7, pre_nms_top=2048,
            bin_half_range=51.2, seed=99)
        assert type(cfg.pre_nms_top) is int and type(cfg.seed) is int
        assert type(cfg.nms_threshold) is float

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("enlarge = 1e-1\nroi_points = 256\n")
        cfg = load_config(path)
        assert cfg == dataclasses.replace(RunConfig(), enlarge=0.1,
                                          roi_points=256)
        assert type(cfg.roi_points) is int and type(cfg.enlarge) is float

    def test_comments_and_blanks_ignored(self):
        text = "# study setup\n\nenlarge = 0.5  # roomy\nseed = 5\n"
        cfg = parse_config(text)
        assert cfg.enlarge == 0.5
        assert cfg.seed == 5
        assert cfg.nms_threshold == 0.8  # untouched default

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config("not_a_key = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ParseError, match="line 2: bad value for roi_points"):
            parse_config("seed = 1\nroi_points = many\n")
        with pytest.raises(ParseError, match="seed"):
            parse_config("seed = 1.5\n")
        with pytest.raises(ParseError):
            parse_config("just a line\n")


class TestValidation:
    """A RunConfig checks its values when it is built."""

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(nms_threshold=1.5)

    @pytest.mark.parametrize("key, value", [
        ("nms_threshold", math.nan),
        ("enlarge", math.nan), ("enlarge", math.inf),
        ("focal_alpha", math.nan),
        ("focal_gamma", math.nan), ("focal_gamma", math.inf),
        ("bin_half_range", math.nan), ("bin_half_range", math.inf),
        ("bin_count_yaw", 1),
        ("roi_points", 0),
        ("seed", -1),
    ])
    def test_bad_value_rejected_by_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            RunConfig(**{key: value})
        with pytest.raises(ValueError, match=key):
            dataclasses.replace(RunConfig(), **{key: value})

    @pytest.mark.parametrize("key, value", [
        ("pre_nms_top", 0), ("proposals_keep", -1),
    ])
    def test_proposal_caps_below_one_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be >= 1, got {value}"):
            RunConfig(**{key: value})

    def test_out_of_range_file_value_rejected_by_parser(self):
        with pytest.raises(ValueError, match="enlarge must be finite"):
            parse_config("seed = 3\nenlarge = -0.5\n")


class TestSubsystemSeed:
    def test_deterministic(self):
        assert subsystem_seed(42, "scene") == subsystem_seed(42, "scene")

    def test_subsystems_differ(self):
        seeds = {subsystem_seed(42, s) for s in ("scene", "roi", "params",
                                                 "proposals")}
        assert len(seeds) == 4

    def test_global_seed_matters(self):
        assert subsystem_seed(1, "roi") != subsystem_seed(2, "roi")

    def test_usable_by_numpy(self):
        rng = np.random.default_rng(subsystem_seed(0, "params"))
        assert rng.uniform() >= 0.0

    def test_unknown_subsystem_rejected(self):
        with pytest.raises(KeyError):
            subsystem_seed(0, "nope")
