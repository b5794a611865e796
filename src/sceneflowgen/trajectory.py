"""Keyframed rigid-motion trajectories: Catmull-Rom positions, slerp
rotations, evaluated at fractional frame times.

Rotations are scipy `Rotation`s. scipy.spatial is imported on first use,
not with this module, so commands that build no scene never load it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError

if TYPE_CHECKING:
    from scipy.spatial.transform import Rotation

# the identity rotation as a quaternion in scipy (x, y, z, w) order
IDENTITY_QUAT = np.array([0.0, 0.0, 0.0, 1.0])
IDENTITY_QUAT.flags.writeable = False

__all__ = ["Trajectory"]


@dataclass(frozen=True)
class Trajectory:
    """Keyframes of (position, rotation) over frame time.

    Positions interpolate with a C1 Catmull-Rom spline (clamped endpoint
    velocities), rotations with piecewise spherical-linear interpolation.
    Rotations are stored as unit quaternions in scipy (x, y, z, w) order
    and mean object-to-world (or camera-to-world) orientation.
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
        if np.any(np.diff(t) <= 0):
            raise ConfigurationError("keyframe times must be strictly increasing")
        q = q / np.linalg.norm(q, axis=1, keepdims=True)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "quaternions", q)

    @classmethod
    def static(cls, position, rotation=None, t0=1.0, t1=2.0):
        """Constant pose spanning [t0, t1] (a single repeated keyframe)."""
        q = IDENTITY_QUAT if rotation is None else rotation.as_quat()
        return cls(
            times=np.array([t0, t1]),
            positions=np.array([position, position], dtype=np.float64),
            quaternions=np.array([q, q]),
        )

    def evaluate(self, t) -> tuple[np.ndarray, Rotation]:
        """Pose at frame time t -> (position (3,), Rotation)."""
        from scipy.spatial.transform import Rotation, Slerp

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
            return self.positions[i].copy(), Rotation.from_quat(self.quaternions[i])
        i = int(np.searchsorted(times, t) - 1)
        pos = self._catmull_rom(i, t)
        seg = Slerp(times[i:i + 2], Rotation.from_quat(self.quaternions[i:i + 2]))
        return pos, seg([t])[0]

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
