"""Keyframed rigid-motion trajectories: Catmull-Rom positions, slerp
rotations, evaluated at fractional frame times.

Rotations are unit quaternions in (x, y, z, w) order. The few functions
below take and return numpy arrays and compute on Python floats, one
operation at a time in the order of scipy's `Rotation` and `Slerp`
(scipy 1.17, `scipy/spatial/transform/_rotation_xp.py`), so scenes hold
the bytes scipy gives them without importing it. `tests/test_trajectory.py`
keeps scipy as the reference, bit for bit."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# the identity rotation as an (x, y, z, w) quaternion
IDENTITY_QUAT = np.array([0.0, 0.0, 0.0, 1.0])
IDENTITY_QUAT.flags.writeable = False

__all__ = [
    "Trajectory", "quat_normalize", "quat_from_euler", "quat_from_rotvec",
    "quat_compose", "quat_to_matrix", "quat_slerp",
]


def _unit(x, y, z, w):
    # Rotation(quat, normalize=True): squares summed left to right
    n = math.sqrt(x * x + y * y + z * z + w * w)
    return x / n, y / n, z / n, w / n


def _product(p, q):
    """p * q, unnormalized, with scipy's cross-product term order."""
    px, py, pz, pw = p
    qx, qy, qz, qw = q
    cx = py * qz - pz * qy
    cy = pz * qx - px * qz
    cz = px * qy - py * qx
    return (pw * qx + qw * px + cx, pw * qy + qw * py + cy,
            pw * qz + qw * pz + cz, pw * qw - px * qx - py * qy - pz * qz)


def _from_rotvec(x, y, z):
    angle = math.sqrt(x * x + y * y + z * z)
    if angle <= 1e-3:  # Taylor series of sin(angle / 2) / angle
        a2 = angle * angle
        scale = 0.5 - a2 / 48 + a2 * a2 / 3840
    else:
        scale = math.sin(angle / 2) / angle
    return x * scale, y * scale, z * scale, math.cos(angle / 2)


def _as_rotvec(q):
    x, y, z, w = q
    if w < 0 or (w == 0 and (x < 0 or (x == 0 and (y < 0 or (y == 0 and z < 0))))):
        x, y, z, w = -x, -y, -z, -w  # the canonical (w >= 0) cover
    angle = 2 * math.atan2(math.sqrt(x * x + y * y + z * z), w)
    if angle <= 1e-3:  # Taylor series of angle / sin(angle / 2)
        a2 = angle * angle
        scale = 2 + a2 / 12 + 7 * a2 * a2 / 2880
    else:
        scale = angle / math.sin(angle / 2.0)
    return scale * x, scale * y, scale * z


def quat_normalize(q) -> np.ndarray:
    """Unit quaternion, as scipy's `Rotation.from_quat(q).as_quat()`."""
    return np.array(_unit(*map(float, q)))


def quat_from_euler(seq, angles) -> np.ndarray:
    """Extrinsic rotations about the axes of seq ("x", "y", "z"), first
    to last, as `Rotation.from_euler(seq, angles).as_quat()`."""
    q = None
    for axis, angle in zip(seq, np.atleast_1d(angles).tolist(), strict=True):
        e = [0.0, 0.0, 0.0, math.cos(angle / 2.0)]
        e["xyz".index(axis)] = math.sin(angle / 2.0)
        q = e if q is None else _product(e, q)
    return np.array(q, dtype=np.float64)


def quat_from_rotvec(rotvec) -> np.ndarray:
    """Rotation by |rotvec| radians about rotvec, as
    `Rotation.from_rotvec(rotvec).as_quat()`."""
    return np.array(_from_rotvec(*map(float, rotvec)))


def quat_compose(p, q) -> np.ndarray:
    """Rotation q, then p: `(Rotation(p) * Rotation(q)).as_quat()` for
    stored unit quaternions p and q."""
    return np.array(_unit(*_product(tuple(map(float, p)), tuple(map(float, q)))))


def quat_to_matrix(q) -> np.ndarray:
    """(3, 3) rotation matrix of a unit quaternion, as `as_matrix()`."""
    x, y, z, w = map(float, q)
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([
        [x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
        [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
        [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2],
    ])


def quat_slerp(q0, q1, alpha) -> np.ndarray:
    """Spherical-linear interpolation at alpha in [0, 1], as
    `Slerp([0, 1], Rotation.from_quat([q0, q1]))(alpha).as_quat()`:
    r0 * from_rotvec(as_rotvec(r0^-1 * r1) * alpha)."""
    r0 = _unit(*map(float, q0))
    r1 = _unit(*map(float, q1))
    x, y, z, w = r0
    rx, ry, rz = _as_rotvec(_unit(*_product((-x, -y, -z, w), r1)))
    alpha = float(alpha)
    return np.array(_unit(*_product(r0, _from_rotvec(rx * alpha, ry * alpha, rz * alpha))))


@dataclass(frozen=True)
class Trajectory:
    """Keyframes of (position, rotation) over frame time.

    Positions interpolate with a C1 Catmull-Rom spline (clamped endpoint
    velocities), rotations with piecewise spherical-linear interpolation.
    Rotations are stored as unit quaternions in (x, y, z, w) order and
    mean object-to-world (or camera-to-world) orientation.
    """

    times: np.ndarray  # (K,) strictly increasing frame times
    positions: np.ndarray  # (K, 3)
    quaternions: np.ndarray  # (K, 4)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64).reshape(-1)
        p = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        q = np.asarray(self.quaternions, dtype=np.float64).reshape(-1, 4)
        if not (len(t) == len(p) == len(q)) or len(t) < 2:
            raise ConfigurationError("trajectory needs >= 2 matching keyframes")
        for name, a in (("times", t), ("positions", p), ("quaternions", q)):
            if not np.isfinite(a).all():
                raise ConfigurationError(f"keyframe {name} must be finite")
        if np.any(np.diff(t) <= 0):
            raise ConfigurationError("keyframe times must be strictly increasing")
        norm = np.linalg.norm(q, axis=1, keepdims=True)
        if np.any(norm == 0):
            raise ConfigurationError("keyframe quaternions must be nonzero")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "quaternions", q / norm)

    @classmethod
    def static(cls, position, quaternion=None, t0=1.0, t1=2.0):
        """Constant pose spanning [t0, t1] (a single repeated keyframe)."""
        q = IDENTITY_QUAT if quaternion is None else quaternion
        return cls(
            times=np.array([t0, t1]),
            positions=np.array([position, position], dtype=np.float64),
            quaternions=np.array([q, q]),
        )

    def evaluate(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Pose at frame time t -> (position (3,), rotation matrix (3, 3))."""
        t = float(t)
        times = self.times
        if t < times[0] or t > times[-1]:
            raise ConfigurationError(
                f"time {t} outside trajectory domain [{times[0]}, {times[-1]}]"
            )
        # exact keyframe hits reproduce the keyframe bit-for-bit
        hit = np.nonzero(times == t)[0]
        if len(hit):
            i = int(hit[0])
            q = quat_normalize(self.quaternions[i])
            return self.positions[i].copy(), quat_to_matrix(q)
        i = int(np.searchsorted(times, t) - 1)
        pos = self._catmull_rom(i, t)
        alpha = (t - times[i]) / (times[i + 1] - times[i])
        q = quat_slerp(self.quaternions[i], self.quaternions[i + 1], alpha)
        return pos, quat_to_matrix(q)

    def _velocity(self, i):
        p, t = self.positions, self.times
        if i == 0:
            return (p[1] - p[0]) / (t[1] - t[0])
        if i == len(t) - 1:
            return (p[-1] - p[-2]) / (t[-1] - t[-2])
        return (p[i + 1] - p[i - 1]) / (t[i + 1] - t[i - 1])

    def _catmull_rom(self, i, t):
        # cubic Hermite in time with central-difference keyframe velocities;
        # C1 for arbitrary (strictly increasing) keyframe spacing
        t0, t1 = self.times[i], self.times[i + 1]
        h = t1 - t0
        u = (t - t0) / h
        p0, p1 = self.positions[i], self.positions[i + 1]
        v0, v1 = self._velocity(i), self._velocity(i + 1)
        u2, u3 = u * u, u * u * u
        return (
            (2 * u3 - 3 * u2 + 1) * p0
            + (u3 - 2 * u2 + u) * h * v0
            + (-2 * u3 + 3 * u2) * p1
            + (u3 - u2) * h * v1
        )

    def to_dict(self):
        return {
            "times": self.times.tolist(),
            "positions": self.positions.tolist(),
            "quaternions": self.quaternions.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            np.array(d["times"]), np.array(d["positions"]),
            np.array(d["quaternions"]),
        )
