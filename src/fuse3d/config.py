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
from .losses import BinConfig, BinSpec, _half_range
from .numerics import _count, _real


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
        # a bad value raises InvalidCount (integer keys) or DomainError
        # (real keys) naming its key; a good one is stored as the Python
        # int or float the check returns, never as a numpy scalar
        for key, low in (("pre_nms_top", 1), ("proposals_keep", 1),
                         ("roi_points", 1), ("bin_count_xz", 2),
                         ("bin_count_yaw", 2), ("seed", 0)):
            object.__setattr__(self, key, _count(getattr(self, key), key, low))
        for key, low, high, interval in (
                ("nms_threshold", 0.0, 1.0, "[0, 1]"),
                ("enlarge", 0.0, math.inf, "[0, inf)"),
                ("focal_alpha", 0.0, 1.0, "(0, 1)"),
                ("focal_gamma", 0.0, math.inf, "[0, inf)")):
            object.__setattr__(self, key,
                               _real(getattr(self, key), key, low, high, interval))
        object.__setattr__(self, "bin_half_range", _half_range(
            self.bin_half_range, self.bin_count_xz, "bin_half_range", "bin_count_xz"))
        _half_range(math.pi, self.bin_count_yaw, "bin_count_yaw", "bin_count_yaw")

    def bin_config(self) -> BinConfig:
        xz = BinSpec(self.bin_half_range, self.bin_count_xz)
        return BinConfig(x=xz, z=xz, yaw=BinSpec(math.pi, self.bin_count_yaw, wrap=True))


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines; '#' starts a comment, blanks skipped.

    Unknown or repeated keys and malformed values raise ParseError, and
    a value out of its key's range raises ValueError. Missing keys keep
    defaults.
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
        if key in values:
            raise ParseError(f"line {line_no}: {key} given a second time")
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
    fixed table scene=0, roi=1, params=2, proposals=3. ``global_seed``
    must be an integer >= 0, else it is an InvalidCount.
    """
    global_seed = _count(global_seed, "global_seed", 0)
    index = _SUBSYSTEM_INDEX[subsystem]
    return int(np.random.SeedSequence([global_seed, index]).generate_state(1)[0])
