import dataclasses
import threading
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import sceneflowgen as sf
from sceneflowgen import _parallel, groundtruth as gt
from sceneflowgen.groundtruth import pixel_centers
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


def at_once(fn):
    """fn, recording in `.most` how many of its calls ever ran at once. Each
    call holds its place for 10 ms, so calls that may overlap do."""
    lock = threading.Lock()
    running = 0

    def counted(*args):
        nonlocal running
        with lock:
            running += 1
            counted.most = max(counted.most, running)
        try:
            time.sleep(0.01)
            return fn(*args)
        finally:
            with lock:
                running -= 1

    counted.most = 0
    return counted


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


def make_passes(depth, intrinsics, pos3d_next=None, index=None, t=1):
    """Hand-built pass bundle for unit tests that don't need the renderer;
    `index` is the object index pass, 1 wherever depth is finite by
    default."""
    depth = np.asarray(depth, dtype=np.float64)
    h, w = depth.shape
    u, v = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    valid = np.isfinite(depth)
    safe = np.where(valid, depth, 1.0)
    pos_t = sf.unproject(np.stack([u, v], axis=-1), safe, intrinsics)
    pos_t[~valid] = np.nan
    if index is None:
        index = valid
    return FramePasses(  # the passes in field order
        np.zeros((h, w, 3), dtype=np.uint8), pos_t, None, pos3d_next,
        np.asarray(index, dtype=np.uint16), frame_time=t)


def with_flow(passes, flow, intrinsics):
    """passes, made with intrinsics, with pos3d_next set so that
    derive_frame sees the forward flow (H, W, 2), up to rounding: each
    point moves at its depth to the pixel center plus its flow."""
    px = pixel_centers(*passes.depth.shape)
    passes.pos3d_next = sf.unproject(px + flow, passes.depth, intrinsics)
    return passes


def derive_maps(passes, rig, passes_next=None):
    """Both ground-truth steps of a view, as the frame loop runs them, as
    {field: array or None} in the oracle's field order: the forward
    occlusion mask of `compute_occlusion_mask` against the
    `next_frame_tables` of passes_next (None without), then
    `derive_frame`'s maps, the mask placed last."""
    mask = None if passes_next is None else \
        gt.compute_occlusion_mask(passes, rig,
                                  gt.next_frame_tables(passes_next))
    return {**vars(gt.derive_frame(passes, rig)), "occlusion_fwd": mask}


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
