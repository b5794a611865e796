"""Pinhole camera model, stereo rig and depth/disparity conversions.

Conventions used throughout the toolkit:

* camera frame: +Z forward, +X right, +Y down
* pixel origin at the top-left image corner, pixel (i, j) has its center
  at the half-integer coordinate (i + 0.5, j + 0.5)
* world -> camera mapping: ``p_cam = R @ p_world + t``
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError

__all__ = [
    "CameraIntrinsics",
    "CameraPose",
    "StereoRig",
    "project",
    "unproject",
    "depth_to_disparity",
    "disparity_to_depth",
    "transform_point",
]


@dataclass(frozen=True)
class CameraIntrinsics:
    focal_px: float
    principal_point: tuple[float, float]
    image_size: tuple[int, int]  # (width, height)
    sensor_width_mm: float
    focal_mm: float

    def __post_init__(self):
        w, h = self.image_size
        if w <= 0 or h <= 0:
            raise GeometryError(f"image size must be positive, got {w}x{h}")
        if not all(map(math.isfinite, (self.focal_px, self.focal_mm,
                                       self.sensor_width_mm,
                                       *self.principal_point))):
            raise GeometryError(f"camera values must be finite, got {self}")
        if self.focal_px <= 0:
            raise GeometryError(f"focal_px must be positive, got {self.focal_px}")
        _check_sensor_width(self.sensor_width_mm)
        expected = self.focal_mm / self.sensor_width_mm * w
        if not math.isclose(self.focal_px, expected, rel_tol=1e-12):
            raise GeometryError(
                f"focal_px={self.focal_px} inconsistent with "
                f"focal_mm/sensor_width*width={expected}"
            )

    @classmethod
    def from_sensor(cls, focal_mm, sensor_width_mm, width, height,
                    principal_point=None):
        """Build intrinsics from physical lens/sensor values.

        The principal point defaults to the image center.
        """
        _check_sensor_width(sensor_width_mm)
        focal_px = focal_mm / sensor_width_mm * width
        if principal_point is None:
            principal_point = (width / 2.0, height / 2.0)
        return cls(
            focal_px=focal_px,
            principal_point=(float(principal_point[0]), float(principal_point[1])),
            image_size=(int(width), int(height)),
            sensor_width_mm=float(sensor_width_mm),
            focal_mm=float(focal_mm),
        )

    @property
    def width(self):
        return self.image_size[0]

    @property
    def height(self):
        return self.image_size[1]

    def to_dict(self):
        return {
            "focal_mm": self.focal_mm,
            "sensor_width_mm": self.sensor_width_mm,
            "width": self.width,
            "height": self.height,
            "cx": self.principal_point[0],
            "cy": self.principal_point[1],
        }

    @classmethod
    def from_dict(cls, d):
        return cls.from_sensor(
            d["focal_mm"], d["sensor_width_mm"], d["width"], d["height"],
            principal_point=(d["cx"], d["cy"]),
        )


def _check_sensor_width(sensor_width_mm):
    # focal_px is focal_mm / sensor_width_mm * width
    if not (math.isfinite(sensor_width_mm) and sensor_width_mm > 0):
        raise GeometryError(
            f"sensor_width_mm must be finite and positive, got {sensor_width_mm}")


def _as_matrix(rotation):
    r = np.asarray(rotation, dtype=np.float64)
    if r.shape != (3, 3):
        raise GeometryError(f"rotation must be 3x3, got shape {r.shape}")
    return r


@dataclass(frozen=True)
class CameraPose:
    """World -> camera rigid transform: ``p_cam = R @ p_world + t``."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        r = _as_matrix(self.rotation)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise GeometryError("rotation and translation must be finite")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9 or np.linalg.det(r) < 0:
            raise GeometryError("rotation must be orthonormal with det +1")

    def world_to_camera(self, points):
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def camera_to_world(self, points):
        p = np.asarray(points, dtype=np.float64)
        return (p - self.translation) @ self.rotation

    def to_dict(self):
        return {
            "rotation": [[float(v) for v in row] for row in self.rotation],
            "translation": [float(v) for v in self.translation],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(np.array(d["rotation"]), np.array(d["translation"]))


@dataclass(frozen=True)
class StereoRig:
    """Rectified stereo pair: right camera offset by `baseline` along the
    left camera's +X axis; both views share the intrinsics."""

    left: CameraPose
    baseline: float
    intrinsics: CameraIntrinsics

    def __post_init__(self):
        if not (math.isfinite(self.baseline) and self.baseline > 0):
            raise GeometryError(
                f"baseline must be finite and positive, got {self.baseline}")

    @property
    def right(self):
        # same orientation, camera center shifted by b along left +X:
        # p_right = R p_world + t - (b, 0, 0)
        t = self.left.translation - np.array([self.baseline, 0.0, 0.0])
        return CameraPose(self.left.rotation, t)

    def to_dict(self):
        return {
            "left_pose": self.left.to_dict(),
            "baseline": self.baseline,
            "intrinsics": self.intrinsics.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            left=CameraPose.from_dict(d["left_pose"]),
            baseline=d["baseline"],
            intrinsics=CameraIntrinsics.from_dict(d["intrinsics"]),
        )


def project(p, k: CameraIntrinsics):
    """Project camera-frame 3D points to continuous pixel coordinates.

    Accepts a single (3,) point or an (..., 3) array; raises for Z <= 0.
    """
    p = np.asarray(p, dtype=np.float64)
    z = p[..., 2]
    if np.any(z <= 0):
        raise GeometryError("cannot project point(s) with Z <= 0")
    cx, cy = k.principal_point
    u = k.focal_px * p[..., 0] / z + cx
    v = k.focal_px * p[..., 1] / z + cy
    return np.stack([u, v], axis=-1)


def unproject(px, z, k: CameraIntrinsics):
    """Lift pixel coordinates and depth back to camera-frame 3D points."""
    px = np.asarray(px, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if np.any(z <= 0):
        raise GeometryError("depth must be positive")
    cx, cy = k.principal_point
    x = (px[..., 0] - cx) * z / k.focal_px
    y = (px[..., 1] - cy) * z / k.focal_px
    return np.stack([x, y, np.broadcast_to(z, x.shape)], axis=-1)


def depth_to_disparity(z, rig: StereoRig):
    """d = baseline * focal_px / Z for a rectified rig."""
    z = np.asarray(z, dtype=np.float64)
    if np.any(z <= 0):
        raise GeometryError("depth must be positive")
    return rig.baseline * rig.intrinsics.focal_px / z


def disparity_to_depth(d, rig: StereoRig):
    """Exact inverse of :func:`depth_to_disparity`."""
    d = np.asarray(d, dtype=np.float64)
    if np.any(d <= 0):
        raise GeometryError("disparity must be positive")
    return rig.baseline * rig.intrinsics.focal_px / d


def transform_point(p, frame_a: CameraPose, frame_b: CameraPose):
    """Re-express camera-frame-A point(s) in camera frame B."""
    return frame_b.world_to_camera(frame_a.camera_to_world(p))
