"""Seeded procedural scene construction: randomized flying-object scenes
and a street-driving preset, with deterministic per-object RNG streams.

Rotations are (x, y, z, w) unit quaternions built with the numpy
helpers of `trajectory`."""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .assets import Mesh, Texture, primitive_mesh
from .errors import ConfigurationError
from .geometry import CameraIntrinsics, CameraPose, StereoRig, project, unproject
from .trajectory import (
    IDENTITY_QUAT, Trajectory, quat_compose, quat_from_euler, quat_from_rotvec,
    quat_normalize,
)

__all__ = [
    "ObjectInstance", "SceneSpec", "FlyingThingsParams", "DrivingParams",
    "generate_flyingthings_scene", "generate_driving_preset", "stream_rng",
]

DEFAULT_SENSOR_MM = 32.0
DEFAULT_FOCAL_MM = 35.0
DEFAULT_WIDTH = 960
DEFAULT_HEIGHT = 540
DEFAULT_BASELINE = 1.0
# an object's index is its 1-based place in `SceneSpec.all_objects()`,
# stored in uint16 passes, so a scene has at most this many objects
_MAX_INDEX = int(np.iinfo(np.uint16).max)


def stream_rng(seed: int, *tags) -> np.random.Generator:
    """Independent, portable RNG stream named by (seed, tags).

    Streams depend only on the seed and the tag tuple, so adding workers
    or reordering generation loops cannot change any draw.
    """
    digest = hashlib.sha256(repr(tags).encode()).digest()
    entropy = [int(seed) & (2**63 - 1)] + [
        int.from_bytes(digest[i:i + 8], "big") for i in (0, 8, 16, 24)
    ]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class ObjectInstance:
    mesh: Mesh
    texture: Texture  # on every triangle
    scale: np.ndarray  # (3,)
    trajectory: Trajectory
    # float(t) -> read-only (R, t); every view of a frame asks for the
    # same few times
    _poses: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "scale", np.asarray(self.scale, dtype=np.float64).reshape(3)
        )

    def pose_at(self, t):
        """Object-to-world transform at frame time t -> (R (3,3), t (3,)).

        Memoised per float(t); the arrays are read-only because every
        caller shares them.
        """
        key = float(t)
        pose = self._poses.get(key)
        if pose is None:
            pos, r = self.trajectory.evaluate(key)
            pose = (r, pos)
            for a in pose:
                a.flags.writeable = False
            self._poses[key] = pose
        return pose

    def to_dict(self, index):
        """The manifest entry of the object at 1-based place `index` in
        draw order."""
        return {
            "mesh": self.mesh.asset_id,
            "materials": {"1": {"kind": self.texture.kind,
                                "asset_id": self.texture.asset_id,
                                "params": _jsonable(self.texture.params)}},
            "scale": self.scale.tolist(),
            "trajectory": self.trajectory.to_dict(),
            "object_index": index,
        }


def _jsonable(params):
    out = {}
    for k, v in sorted(params.items()):
        if isinstance(v, (tuple, np.ndarray)):
            out[k] = [float(x) for x in v]
        elif isinstance(v, (np.integer,)):
            out[k] = int(v)
        elif isinstance(v, (np.floating,)):
            out[k] = float(v)
        else:
            out[k] = v
    return out


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    frames: int
    rig_trajectory: Trajectory  # left-camera center + camera-to-world rotation
    objects: list  # dynamic foreground ObjectInstances
    ground_plane: ObjectInstance
    background_objects: list
    rig: StereoRig  # intrinsics + baseline; pose comes from rig_trajectory
    name: str = "scene"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.all_objects())
        if n > _MAX_INDEX:
            raise ConfigurationError(
                f"{n} objects, but object indices stop at {_MAX_INDEX}")
        if self.frames < 2:
            raise ConfigurationError("a scene needs at least 2 frames")

    def all_objects(self):
        """The objects in draw order; an object's index is its 1-based
        place here, 0 being void."""
        return [self.ground_plane, *self.background_objects, *self.objects]

    def camera_pose(self, t, view="left") -> CameraPose:
        """World -> camera pose of one rig view at frame time t. The right
        camera is the left one shifted by the baseline along its own +X
        axis: p_right = p_left - (b, 0, 0)."""
        center, r_cw = self.rig_trajectory.evaluate(t)
        r_wc = r_cw.T
        pose = CameraPose(r_wc, -r_wc @ center)
        if view == "left":
            return pose
        if view == "right":
            t_r = pose.translation - np.array([self.rig.baseline, 0.0, 0.0])
            return CameraPose(pose.rotation, t_r)
        raise ConfigurationError(f"unknown view {view!r}")

    def to_dict(self):
        entries = [o.to_dict(i) for i, o in enumerate(self.all_objects(), 1)]
        split = 1 + len(self.background_objects)
        return {
            "name": self.name,
            "seed": self.seed,
            "frames": self.frames,
            "params": _jsonable(self.params),
            "rig": {
                "baseline": self.rig.baseline,
                "intrinsics": self.rig.intrinsics.to_dict(),
            },
            "rig_trajectory": self.rig_trajectory.to_dict(),
            "ground_plane": entries[0],
            "background_objects": entries[1:split],
            "objects": entries[split:],
        }


# ---------------------------------------------------------------------------
# FlyingThings-style generation

@dataclass(frozen=True)
class FlyingThingsParams:
    n_objects_range: tuple = (5, 20)
    n_background: int = 200
    frames: int = 10
    width: int = DEFAULT_WIDTH
    height: int = DEFAULT_HEIGHT
    focal_mm: float = DEFAULT_FOCAL_MM
    sensor_width_mm: float = DEFAULT_SENSOR_MM
    baseline: float = DEFAULT_BASELINE
    camera_motion: float = 1.0  # scales camera keyframe displacement
    static: bool = False  # freeze all trajectories (debug scenes)

    def to_dict(self):
        # a list, not a tuple: `_jsonable` turns tuples into floats
        return {**dataclasses.asdict(self),
                "n_objects_range": list(self.n_objects_range)}


_GROUND_Y = 4.0  # ground level (camera looks +Z, +Y is down)
_MESH_POOL = ("cuboid", "cylinder", "sphere", "torus")


def _random_texture(rng, tag):
    kind = ["checker", "noise", "gradient"][int(rng.integers(3))]
    if kind == "checker":
        params = {
            "scale": float(rng.uniform(2, 10)),
            "color_a": tuple(rng.uniform(0.4, 1.0, 3)),
            "color_b": tuple(rng.uniform(0.0, 0.5, 3)),
        }
    elif kind == "gradient":
        params = {
            "color0": tuple(rng.uniform(0.0, 0.6, 3)),
            "color1": tuple(rng.uniform(0.4, 1.0, 3)),
            "axis": "u" if rng.random() < 0.5 else "v",
        }
    else:
        params = {
            "seed": int(rng.integers(2**31)),
            "frequency": float(rng.uniform(2, 12)),
        }
    return Texture(kind=kind, params=params, asset_id=f"tex:{tag}")


def _random_quaternion(rng) -> np.ndarray:
    q = rng.normal(size=4)
    return quat_normalize(q / np.linalg.norm(q))


def _textured_object(rng, tag, mesh, scale, trajectory):
    """An object with one random texture on every triangle. The texture is
    drawn from rng after every draw that built the arguments."""
    return ObjectInstance(mesh=mesh, texture=_random_texture(rng, tag),
                          scale=scale, trajectory=trajectory)


def _default_intrinsics(p) -> CameraIntrinsics:
    return CameraIntrinsics.from_sensor(p.focal_mm, p.sensor_width_mm,
                                        p.width, p.height)


def _ground_object(rng, frames, half_extent=80.0):
    # the ground and the shell are drawn first and second, and their
    # texture tags name those places
    traj = Trajectory.static((0.0, _GROUND_Y + 0.25, 40.0), t0=1.0, t1=float(frames))
    return _textured_object(
        rng, "ground:1", primitive_mesh("cuboid"),
        np.array([2 * half_extent, 0.5, 2 * half_extent]), traj,
    )


def _shell_object(rng, frames, radius=220.0):
    """Giant enclosing box so that void (no-geometry) pixels are rare."""
    traj = Trajectory.static((0.0, 0.0, 0.0), t0=1.0, t1=float(frames))
    return _textured_object(
        rng, "shell:2", primitive_mesh("cuboid"),
        np.array([2 * radius, 2 * radius, 2 * radius]), traj,
    )


def _camera_trajectory(rng, frames, motion_scale) -> Trajectory:
    n_key = 4 if frames > 2 else 2
    times = np.linspace(1.0, float(frames), n_key)
    positions = []
    quats = []
    pos = np.array([0.0, 0.0, 0.0])
    for i in range(n_key):
        positions.append(pos.copy())
        step = rng.uniform(-0.4, 0.4, 3) * motion_scale
        pos = pos + step
        yaw = rng.uniform(-0.03, 0.03) * motion_scale
        pitch = rng.uniform(-0.02, 0.02) * motion_scale
        quats.append(quat_from_euler("yx", [yaw, pitch]))
    if motion_scale == 0.0:
        positions = [positions[0]] * n_key
        quats = [IDENTITY_QUAT] * n_key
    return Trajectory(times, np.array(positions), np.array(quats))


def generate_flyingthings_scene(seed, params: FlyingThingsParams | None = None) -> SceneSpec:
    """Randomized scene of textured primitives flying through the view of a
    slowly moving stereo rig, on a textured ground plane with static
    background clutter."""
    p = params or FlyingThingsParams()
    lo, hi = p.n_objects_range
    if not (1 <= lo <= hi <= 100):
        raise ConfigurationError(f"object count range {p.n_objects_range} outside [1, 100]")
    if p.frames < 2:
        raise ConfigurationError("frames must be >= 2")
    # ground, shell, background and foreground objects, one index each
    most_background = _MAX_INDEX - 2 - hi
    if not 0 <= p.n_background <= most_background:
        raise ConfigurationError(
            f"n_background must be in [0, {most_background}], got {p.n_background}")
    intr = _default_intrinsics(p)
    motion = 0.0 if p.static else p.camera_motion
    rig_traj = _camera_trajectory(stream_rng(seed, "camera"), p.frames, motion)

    ground = _ground_object(stream_rng(seed, "ground"), p.frames)
    background = [_shell_object(stream_rng(seed, "shell"), p.frames)]
    for i in range(p.n_background):
        rng = stream_rng(seed, "background", i)
        name = _MESH_POOL[int(rng.integers(2))]  # cuboids and cylinders only
        mesh = primitive_mesh(name)
        scale = rng.uniform(0.8, 4.0, 3)
        x = rng.uniform(-45.0, 45.0)
        z = rng.uniform(4.0, 75.0)
        y = _GROUND_Y - scale[1] / 2.0
        q = quat_from_euler("y", rng.uniform(0, 2 * np.pi))
        traj = Trajectory.static((x, y, z), q, t0=1.0, t1=float(p.frames))
        background.append(_textured_object(rng, f"bg:{seed}:{i}", mesh, scale, traj))

    n_objects = int(stream_rng(seed, "count").integers(lo, hi + 1))
    objects = []
    # preview camera poses for frustum-constrained keyframe placement
    for i in range(n_objects):
        rng = stream_rng(seed, "object", i)
        name = _MESH_POOL[int(rng.integers(len(_MESH_POOL)))]
        mesh = primitive_mesh(name)
        scale = rng.uniform(0.6, 1.8, 3)
        if p.static:
            traj = Trajectory.static(
                _frustum_point(rng, rig_traj, intr, 1.0),
                _random_quaternion(rng), t0=1.0, t1=float(p.frames),
            )
        else:
            traj = _foreground_trajectory(rng, rig_traj, intr, p.frames)
        objects.append(_textured_object(rng, f"fg:{seed}:{i}", mesh, scale, traj))

    rig = StereoRig(p.baseline, intr)
    return SceneSpec(
        seed=int(seed), frames=p.frames, rig_trajectory=rig_traj,
        objects=objects, ground_plane=ground, background_objects=background,
        rig=rig, name=f"flyingthings-{seed}", params=p.to_dict(),
    )


_DEPTH_RANGE = (7.0, 22.0)  # sampling band for flying objects


def _foreground_trajectory(rng, rig_traj, intr, frames) -> Trajectory:
    """Smooth random walk kept inside the camera frustum at every keyframe.

    Per-frame displacement is drawn uniformly from 0.5..4% of the scene
    depth range; rotation accumulates in small random increments. These
    magnitudes are generator defaults, recorded in the manifest.
    """
    n_key = int(rng.integers(3, 7))
    times = np.linspace(1.0, float(frames), n_key)
    depth_span = _DEPTH_RANGE[1] - _DEPTH_RANGE[0] + 15.0
    positions = [_frustum_point(rng, rig_traj, intr, times[0])]
    for i in range(1, n_key):
        dt = times[i] - times[i - 1]
        prev = positions[-1]
        point = None
        for _ in range(20):
            step = rng.normal(size=3)
            step *= rng.uniform(0.005, 0.04) * depth_span * dt / np.linalg.norm(step)
            candidate = prev + step
            if _in_frustum(candidate, rig_traj, intr, times[i]):
                point = candidate
                break
        positions.append(point if point is not None
                         else _frustum_point(rng, rig_traj, intr, times[i]))
    quats = [_random_quaternion(rng)]
    for i in range(1, n_key):
        dt = times[i] - times[i - 1]
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, 0.12) * dt
        quats.append(quat_compose(quat_from_rotvec(axis * angle), quats[-1]))
    return Trajectory(times, np.array(positions), np.array(quats))


def _in_frustum(point, rig_traj, intr, t, margin=0.1):
    center, r_cw = rig_traj.evaluate(t)
    p_cam = r_cw.T @ (np.asarray(point) - center)
    if p_cam[2] < 2.0:
        return False
    w, h = intr.image_size
    u, v = project(p_cam, intr)
    return margin * w <= u <= (1 - margin) * w and margin * h <= v <= (1 - margin) * h


def _frustum_point(rng, rig_traj, intr, t):
    """World-space point that projects inside the left view at time t."""
    w, h = intr.image_size
    margin_u, margin_v = 0.12 * w, 0.12 * h
    u = rng.uniform(margin_u, w - margin_u)
    v = rng.uniform(margin_v, h - margin_v)
    z = rng.uniform(*_DEPTH_RANGE)
    p_cam = unproject(np.array([u, v]), z, intr)
    center, r_cw = rig_traj.evaluate(t)
    return r_cw @ p_cam + center


# ---------------------------------------------------------------------------
# Driving preset

@dataclass(frozen=True)
class DrivingParams:
    focal_mm: float = DEFAULT_FOCAL_MM  # 35, or 15 for the wide-angle variant
    frames: int = 10
    width: int = DEFAULT_WIDTH
    height: int = DEFAULT_HEIGHT
    sensor_width_mm: float = DEFAULT_SENSOR_MM
    baseline: float = DEFAULT_BASELINE
    n_oncoming: int = 4
    n_parked: int = 6
    speed: float = 1.2  # camera forward units per frame

    def to_dict(self):
        return dataclasses.asdict(self)


def generate_driving_preset(seed, params: DrivingParams | None = None) -> SceneSpec:
    """Street-scene preset: forward-moving camera at car height, oncoming
    and parked box cars on a ground plane, baseline 1 unit."""
    p = params or DrivingParams()
    if p.focal_mm not in (35.0, 15.0, 35, 15):
        raise ConfigurationError(f"driving preset focal_mm must be 35 or 15, got {p.focal_mm}")
    if p.frames < 2:  # before the rig's keyframes, which need two times
        raise ConfigurationError("frames must be >= 2")
    intr = _default_intrinsics(p)

    # straight forward motion at street level
    times = np.array([1.0, float(p.frames)])
    positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, p.speed * (p.frames - 1)]])
    q = IDENTITY_QUAT
    rig_traj = Trajectory(times, positions, np.array([q, q]))

    ground = _ground_object(stream_rng(seed, "ground"), p.frames, half_extent=250.0)
    background = [_shell_object(stream_rng(seed, "shell"), p.frames, radius=400.0)]
    for i in range(p.n_parked):
        rng = stream_rng(seed, "parked", i)
        scale = np.array([2.0, 1.5, 4.0]) * rng.uniform(0.9, 1.1)
        side = -1.0 if i % 2 == 0 else 1.0
        x = side * rng.uniform(4.0, 7.0)
        z = rng.uniform(8.0, 20.0 + 4.0 * p.frames)
        y = _GROUND_Y - scale[1] / 2.0
        traj = Trajectory.static((x, y, z), t0=1.0, t1=float(p.frames))
        background.append(_textured_object(
            rng, f"parked:{seed}:{i}", primitive_mesh("cuboid"), scale, traj))
    objects = []
    for i in range(p.n_oncoming):
        rng = stream_rng(seed, "oncoming", i)
        scale = np.array([2.0, 1.5, 4.0]) * rng.uniform(0.9, 1.1)
        x = rng.uniform(2.5, 4.5)  # opposite lane
        z0 = rng.uniform(15.0, 30.0 + 4.0 * p.frames)
        speed = rng.uniform(1.0, 2.5)
        y = _GROUND_Y - scale[1] / 2.0
        positions = np.array([
            [x, y, z0], [x, y, z0 - speed * (p.frames - 1)],
        ])
        traj = Trajectory(times.copy(), positions, np.array([q, q]))
        objects.append(_textured_object(
            rng, f"car:{seed}:{i}", primitive_mesh("cuboid"), scale, traj))

    rig = StereoRig(p.baseline, intr)
    return SceneSpec(
        seed=int(seed), frames=p.frames, rig_trajectory=rig_traj,
        objects=objects, ground_plane=ground, background_objects=background,
        rig=rig, name=f"driving-{seed}", params=p.to_dict(),
    )
