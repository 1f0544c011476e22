"""Run configuration and the flat key = value file it is read from.

The defaults are the pipeline's standard operating constants: NMS and
proposal caps, RoI enlargement and point budget, focal constants, the
bin layout and the global seed. Every key is read by some command, and
a RunConfig checks its values when it is built, so every one is valid.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .losses import BinConfig, BinSpec


@dataclass(frozen=True)
class RunConfig:
    nms_threshold: float = 0.8
    pre_nms_top: int = 8000
    proposals_keep: int = 64
    enlarge: float = 0.2
    roi_points: int = 512
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    bin_half_range: float = 3.0
    bin_count_xz: int = 12
    bin_count_yaw: int = 12
    seed: int = 0

    def __post_init__(self):
        # a bad value raises ValueError naming its key; NaN fails every check
        if not 0.0 <= self.nms_threshold <= 1.0:
            raise ValueError(
                f"nms_threshold must be in [0, 1], got {self.nms_threshold}")
        for key in ("pre_nms_top", "proposals_keep"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not 0.0 <= self.enlarge < math.inf:
            raise ValueError(f"enlarge must be finite and >= 0, got {self.enlarge}")
        if self.roi_points < 1:
            raise ValueError(f"roi_points must be >= 1, got {self.roi_points}")
        if not 0.0 < self.focal_alpha < 1.0:
            raise ValueError(
                f"focal_alpha must be in (0, 1), got {self.focal_alpha}")
        if not 0.0 <= self.focal_gamma < math.inf:
            raise ValueError(
                f"focal_gamma must be finite and >= 0, got {self.focal_gamma}")
        if not 0.0 < self.bin_half_range < math.inf:
            raise ValueError(
                f"bin_half_range must be positive and finite, got "
                f"{self.bin_half_range}"
            )
        for key in ("bin_count_xz", "bin_count_yaw"):
            if getattr(self, key) < 2:
                raise ValueError(f"{key} must be >= 2, got {getattr(self, key)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def bin_config(self) -> BinConfig:
        return BinConfig(
            x=BinSpec(self.bin_half_range, self.bin_count_xz),
            z=BinSpec(self.bin_half_range, self.bin_count_xz),
            yaw=BinSpec(math.pi, self.bin_count_yaw, wrap=True),
        )


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines; '#' starts a comment, blanks skipped.

    Unknown keys and malformed values raise ParseError, and a value out
    of its key's range raises ValueError. Missing keys keep defaults.
    """
    types = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}
    values = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in types:
            raise ParseError(f"line {line_no}: unknown key {key!r}")
        value = value.strip()
        try:
            values[key] = types[key](value)
        except ValueError as exc:
            raise ParseError(
                f"line {line_no}: bad value for {key}: {value!r} ({exc})"
            ) from None
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


# Subsystems draw independent seeds from the global one, so a component
# stays reproducible regardless of what ran before it.
_SUBSYSTEM_INDEX = {"scene": 0, "roi": 1, "params": 2, "proposals": 3}


def subsystem_seed(global_seed: int, subsystem: str) -> int:
    """Derive the seed for one subsystem from the global seed.

    Uses a seed sequence over (global_seed, subsystem index) with the
    fixed table scene=0, roi=1, params=2, proposals=3.
    """
    index = _SUBSYSTEM_INDEX[subsystem]
    return int(np.random.SeedSequence([global_seed, index]).generate_state(1)[0])
