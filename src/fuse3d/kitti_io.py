"""Readers and writers for the dataset's on-disk formats.

Point clouds are flat binary records of four little-endian float32
values (x, y, z, intensity). Calibration files are text lines of
``KEY: v v v ...``; the composed LiDAR-to-image matrix is
P2 @ pad4(R0_rect) @ pad4(Tr_velo_to_cam). Labels are one object per
line in camera-frame coordinates.

File access failures propagate as the standard OSError.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MissingKey, ParseError, TruncatedFile
from .geometry import Box3D, PointCloud

_RECORD_BYTES = 16  # four float32 per point


def read_point_cloud_bin(path) -> PointCloud:
    """Read a binary point cloud of (x, y, z, intensity) records."""
    data = Path(path).read_bytes()
    if len(data) % _RECORD_BYTES != 0:
        raise TruncatedFile(
            f"{path}: {len(data)} bytes is not a multiple of {_RECORD_BYTES}"
        )
    records = np.frombuffer(data, dtype="<f4").reshape(-1, 4).astype(np.float64)
    try:
        return PointCloud(records[:, :3], records[:, 3])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _point_records(cloud: PointCloud, path) -> bytes:
    """The bytes :func:`write_point_cloud_bin` writes to ``path``."""
    intensity = (
        cloud.intensity if cloud.intensity is not None else np.zeros(len(cloud))
    )
    try:
        with np.errstate(over="raise"):
            records = np.column_stack([cloud.coords, intensity]).astype("<f4")
    except FloatingPointError:
        raise ValueError(f"{path}: point values must fit in float32") from None
    return records.tobytes()


def write_point_cloud_bin(cloud: PointCloud, path) -> None:
    """Write a cloud in the binary record format (zero intensity if absent).

    A value too large for float32 is a ValueError, and nothing is written.
    """
    Path(path).write_bytes(_point_records(cloud, path))


_CALIB_KEYS = {"P2": 12, "R0_rect": 9, "Tr_velo_to_cam": 12}


@dataclass
class CalibData:
    """The three calibration matrices of one camera, kept separate."""

    p2: np.ndarray              # (3, 4) rectified camera projection
    r0: np.ndarray              # (3, 3) rectification rotation
    tr_velo_to_cam: np.ndarray  # (3, 4) LiDAR-to-camera rigid transform

    @property
    def projection(self) -> np.ndarray:
        """Composed (3, 4) LiDAR-to-image matrix."""
        return self.p2 @ _pad4(self.r0) @ _pad4(self.tr_velo_to_cam)


def _pad4(m: np.ndarray) -> np.ndarray:
    out = np.eye(4)
    out[: m.shape[0], : m.shape[1]] = m
    return out


def _read_calib_components(path) -> CalibData:
    """Parse the three calibration keys into their separate matrices."""
    found = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or ":" not in line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        if key not in _CALIB_KEYS:
            continue
        if key in found:
            raise ParseError(f"{path}:{line_no}: {key} given a second time")
        try:
            values = [float(v) for v in rest.split()]
        except ValueError as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from None
        if not np.isfinite(values).all():
            raise ParseError(f"{path}:{line_no}: {key} values must be finite")
        if len(values) != _CALIB_KEYS[key]:
            raise ParseError(
                f"{path}:{line_no}: {key} needs {_CALIB_KEYS[key]} values, "
                f"got {len(values)}"
            )
        found[key] = np.array(values)
    for key in _CALIB_KEYS:
        if key not in found:
            raise MissingKey(f"{path}: missing calibration key {key!r}")
    return CalibData(
        p2=found["P2"].reshape(3, 4),
        r0=found["R0_rect"].reshape(3, 3),
        tr_velo_to_cam=found["Tr_velo_to_cam"].reshape(3, 4),
    )


def read_calib(path) -> np.ndarray:
    """Composed (3, 4) LiDAR-to-image projection matrix."""
    return _read_calib_components(path).projection


_LABEL_FIELDS = 15  # class + 14 numbers, then an optional score
# the name of each number, in column order
_LABEL_COLUMNS = ("truncation", "occlusion", "alpha", "bbox_left", "bbox_top",
                  "bbox_right", "bbox_bottom", "h", "w", "l", "x", "y", "z",
                  "yaw", "score")


def read_labels(path) -> list[tuple[str, Box3D]]:
    """Parse object labels, one camera-frame box per line.

    Line layout: class, truncation, occlusion, alpha, four 2D-bbox
    values, h, w, l, x, y, z, yaw, and an optional score, which is
    checked and not returned. Every number must be finite, else a
    ParseError names its column. The stored location is the center of
    the bottom face (camera y points down), so the returned box center
    is lifted by half the height. 'DontCare' rows pass the field-count,
    number and finiteness checks and are then skipped.
    """
    out = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if not _LABEL_FIELDS <= len(parts) <= _LABEL_FIELDS + 1:
            raise ParseError(
                f"{path}:{line_no}: expected {_LABEL_FIELDS} fields, or "
                f"{_LABEL_FIELDS + 1} with a score, got {len(parts)}"
            )
        try:
            values = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from None
        finite = np.isfinite(values)
        if not finite.all():
            column = _LABEL_COLUMNS[int(finite.argmin())]
            raise ParseError(f"{path}:{line_no}: {column} must be finite")
        # checked like any row, but its -1 sizes make no box
        if parts[0] == "DontCare":
            continue
        h, w, l, x, y, z, yaw = values[7:14]
        try:
            box = Box3D(np.array([x, y - h / 2.0, z]), l, h, w, yaw)
        except ValueError as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from None
        out.append((parts[0], box))
    return out

