"""The camera model: one rectified stereo pinhole rig.

This module is the only one that knows the projection f*X/Z + c, the
stereo relation d = b*f/Z and the intrinsics they read. Conventions used
throughout the toolkit:

* camera frame: +Z forward, +X right, +Y down
* pixel origin at the top-left image corner, pixel (i, j) has its center
  at the half-integer coordinate (i + 0.5, j + 0.5)
* world -> camera mapping: ``p_cam = R @ p_world + t``
* `project` gives NaN pixel coordinates for points with Z <= 0 (or NaN
  Z), so whole passes project without a mask
* the right camera is the left one shifted by the baseline along its +X
  axis (`SceneSpec.camera_pose` builds both); the manifest's
  ``rig.left_pose`` is always the identity and is never read
* an image holds at most `MAX_PIXELS` pixels, the size every reader of
  `formats` accepts
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError

__all__ = [
    "CameraIntrinsics", "CameraPose", "StereoRig", "project", "unproject",
    "MAX_PIXELS",
]

MAX_PIXELS = 2**28  # w * h cap of every image, written or read


def _read(value, name, kind=(int, float)):
    """value, read from a manifest: TypeError unless it is of kind, an
    integer or (by default) a number; a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} must be "
                        f"{'an integer' if kind is int else 'a number'}, "
                        f"got {value!r}")
    return value


@dataclass(frozen=True)
class CameraIntrinsics:
    focal_mm: float
    sensor_width_mm: float
    image_size: tuple[int, int]  # (width, height)
    principal_point: tuple[float, float]

    def __post_init__(self):
        w, h = self.image_size
        if w <= 0 or h <= 0:
            raise GeometryError(f"image size must be positive, got {w}x{h}")
        if w * h > MAX_PIXELS:
            raise GeometryError(
                f"image size {w}x{h} exceeds {MAX_PIXELS} pixels")
        if not all(map(math.isfinite, (self.focal_mm, self.sensor_width_mm,
                                       *self.principal_point))):
            raise GeometryError(f"camera values must be finite, got {self}")
        if not self.sensor_width_mm > 0:
            raise GeometryError(
                f"sensor_width_mm must be positive, got {self.sensor_width_mm}")
        focal_px = self.focal_px
        if not (math.isfinite(focal_px) and focal_px > 0):
            raise GeometryError(
                f"focal_px must be finite and positive, got {focal_px}")

    @classmethod
    def from_sensor(cls, focal_mm, sensor_width_mm, width, height,
                    principal_point=None):
        """Build intrinsics from physical lens/sensor values.

        The principal point defaults to the image center.
        """
        if principal_point is None:
            principal_point = (width / 2.0, height / 2.0)
        return cls(
            focal_mm=float(focal_mm),
            sensor_width_mm=float(sensor_width_mm),
            image_size=(int(width), int(height)),
            principal_point=(float(principal_point[0]), float(principal_point[1])),
        )

    @property
    def focal_px(self):
        return self.focal_mm / self.sensor_width_mm * self.width

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
        """The intrinsics `to_dict` wrote. TypeError unless every value is
        a number, and width and height integers; a bool is neither."""
        for key in ("focal_mm", "sensor_width_mm", "width", "height", "cx", "cy"):
            _read(d[key], f"intrinsics {key}",
                  int if key in ("width", "height") else (int, float))
        return cls.from_sensor(
            d["focal_mm"], d["sensor_width_mm"], d["width"], d["height"],
            principal_point=(d["cx"], d["cy"]),
        )


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
        """The pose `to_dict` wrote. TypeError unless every rotation and
        translation entry is a number; a bool is none."""
        return cls(
            np.array([[_read(v, "rotation entry") for v in row]
                      for row in d["rotation"]]),
            np.array([_read(v, "translation entry") for v in d["translation"]]))


@dataclass(frozen=True)
class StereoRig:
    """Rectified stereo pair: the right camera is the left one shifted by
    `baseline` along its +X axis, and both views share the intrinsics. The
    pose of the left camera changes per frame and is the scene's."""

    baseline: float
    intrinsics: CameraIntrinsics

    def __post_init__(self):
        if not (math.isfinite(self.baseline) and self.baseline > 0):
            raise GeometryError(
                f"baseline must be finite and positive, got {self.baseline}")

    @property
    def bf(self):
        """b * f: a point at depth Z has disparity bf / Z."""
        return self.baseline * self.intrinsics.focal_px

    def to_dict(self):
        return {
            # the manifest format holds a left pose; the rig's own frame is
            # the left camera, so it is the identity, and nothing reads it
            "left_pose": CameraPose().to_dict(),
            "baseline": self.baseline,
            "intrinsics": self.intrinsics.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        """The rig `to_dict` wrote. TypeError unless the baseline is a
        number, as for `CameraIntrinsics.from_dict`."""
        return cls(baseline=_read(d["baseline"], "baseline"),
                   intrinsics=CameraIntrinsics.from_dict(d["intrinsics"]))


def project(p, k: CameraIntrinsics, out=None, z=None):
    """Project camera-frame 3D points to continuous pixel coordinates.

    Accepts a single (3,) point or an (..., 3) array and returns (..., 2)
    coordinates. Points with Z <= 0, or a NaN Z, project to NaN.

    u and v are computed in float64 as two planes, each as f*X (or f*Y),
    then divided by Z in place and shifted by the principal point in place;
    a coordinate past the float64 range is inf, with no warning.
    A float32 p is read as it is, not copied: f*X and f*Y widen what they
    read, and both divides read Z as one contiguous float64 plane. That is
    z, p's Z widened, if the caller holds it (it is only read), else a
    widened copy made here. With out, a float64 array of shape
    (2,) + p.shape[:-1], the planes are written to out[0] and out[1] and
    out is returned; without it, the (..., 2) result is a view of new
    planes.
    """
    p = np.asarray(p)
    planes = np.empty((2,) + p.shape[:-1]) if out is None else out
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if z is None:
            z = np.array(p[..., 2], dtype=np.float64)
        behind = ~(z > 0)
        # [i, ...] keeps a plane of a single point a 0-d view
        for i, c in enumerate(k.principal_point):
            plane = planes[i, ...]
            # float64 named: NEP 50 runs `float * float32` in float32
            np.multiply(k.focal_px, p[..., i], out=plane, dtype=np.float64)
            plane /= z
            plane += c
            plane[behind] = np.nan
    return planes if out is not None else np.moveaxis(planes, 0, -1)


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
