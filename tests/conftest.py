import dataclasses

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import sceneflowgen as sf
from sceneflowgen import _parallel
from sceneflowgen.render import FramePasses
from sceneflowgen.scene import FlyingThingsParams
from sceneflowgen.trajectory import Trajectory


SMALL = FlyingThingsParams(
    n_objects_range=(3, 6), n_background=15, frames=3, width=128, height=96,
)


def small_params(**overrides):
    return dataclasses.replace(SMALL, **overrides)


def set_cpus(mp, n):
    """Make the thread map see n usable CPUs."""
    mp.setattr(_parallel.os, "sched_getaffinity", lambda pid: set(range(n)),
               raising=False)


def bilinear_sample(grid, coords, fill=np.nan):
    """Bilinear lookup of an (H, W[, C]) grid at continuous pixel
    coordinates (..., 2), pixel centers at half-integers; samples whose
    2x2 footprint leaves the grid get `fill`."""
    g = grid[..., None] if grid.ndim == 2 else grid
    h, w = g.shape[:2]
    x = coords[..., 0] - 0.5
    y = coords[..., 1] - 0.5
    x0, y0 = np.floor(x), np.floor(y)
    inside = (x0 >= 0) & (y0 >= 0) & (x0 <= w - 2) & (y0 <= h - 2)
    x0i = np.where(inside, x0, 0).astype(int)
    y0i = np.where(inside, y0, 0).astype(int)
    x1i, y1i = np.minimum(x0i + 1, w - 1), np.minimum(y0i + 1, h - 1)
    fx = np.where(inside, x - x0i, 0.0)[..., None]
    fy = np.where(inside, y - y0i, 0.0)[..., None]
    with np.errstate(invalid="ignore"):  # an inf corner of weight 0
        top = g[y0i, x0i] * (1 - fx) + g[y0i, x1i] * fx
        bot = g[y1i, x0i] * (1 - fx) + g[y1i, x1i] * fx
        out = top * (1 - fy) + bot * fy
    out[~inside] = fill
    return out[..., 0] if grid.ndim == 2 else out


def make_passes(depth, intrinsics, pos3d_next=None, object_index=None,
                pose=None, pose_next=None, t=1):
    """Hand-built pass bundle for unit tests that don't need the renderer."""
    depth = np.asarray(depth, dtype=np.float64)
    h, w = depth.shape
    u, v = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    valid = np.isfinite(depth)
    safe = np.where(valid, depth, 1.0)
    pos_t = sf.unproject(np.stack([u, v], axis=-1), safe, intrinsics)
    pos_t[~valid] = np.nan
    if object_index is None:
        object_index = valid.astype(np.uint16)
    return FramePasses(
        rgb=np.zeros((h, w, 3), dtype=np.uint8),
        depth=np.where(valid, depth, np.nan),
        pos3d_t=pos_t,
        pos3d_prev=None,
        pos3d_next=pos3d_next,
        object_index=np.asarray(object_index, dtype=np.uint16),
        material_index=np.asarray(object_index, dtype=np.uint16),
        view="left",
        frame_time=t,
        camera_pose=pose or sf.CameraPose(),
        camera_pose_prev=None,
        camera_pose_next=pose_next,
        intrinsics=intrinsics,
    )


def baseline_shift_scene(seed=3, params=None):
    """Static scene whose camera translates by exactly the baseline
    between consecutive frames (forward flow must equal (-d, 0))."""
    params = params or small_params(static=True)
    spec = sf.generate_flyingthings_scene(seed, params)
    b = spec.rig.baseline
    times = np.array([1.0, float(spec.frames)])
    positions = np.array([
        [0.0, 0.0, 0.0],
        [b * (spec.frames - 1), 0.0, 0.0],
    ])
    q = Rotation.identity().as_quat()
    traj = Trajectory(times, positions, np.array([q, q]))
    return dataclasses.replace(spec, rig_trajectory=traj)


@pytest.fixture(scope="session")
def rendered_scene():
    """One small rendered scene shared by read-only tests."""
    spec = sf.generate_flyingthings_scene(7, SMALL)
    passes = {
        (t, v): sf.rasterize_frame(spec, t, v)
        for t in (1, 2, 3) for v in ("left", "right")
    }
    return spec, passes
