"""Whole-frame ground truth: the reference `derive_frame` is tested against.

It imports nothing from `sceneflowgen.groundtruth`. Every map is computed
over the whole frame at once, from passes widened to float64 up front:
the projection f*X/Z + c, flow as a difference of projections, disparity
b*f/depth, disparity change b*f/Z_other - b*f/Z_t, both NaN where the
neighbour's point is gone, motion boundaries with `scipy.ndimage.label` as
the component filter, and forward occlusion as a clamped 2x2 bilinear
lookup of the next frame's z-buffer, indexed by row and column.
"""

import numpy as np
from scipy import ndimage

# the dataset's constants, restated: a flow difference of 1.5 px between
# two objects marks a motion boundary, and boundary components under
# 10 px are dropped
MOTION_DIFF_PX = 1.5
MIN_BOUNDARY_PX = 10
F32_MAX = float(np.finfo(np.float32).max)

FIELDS = ("flow_fwd", "flow_bwd", "disparity", "dispchange_fwd",
          "dispchange_bwd", "motion_boundaries", "occlusion_fwd")


def _f64(a):
    return None if a is None else np.asarray(a, dtype=np.float64)


def project(pos, k):
    """f*X/Z + c per pixel, NaN where Z is not positive (or NaN)."""
    x, y, z = pos[..., 0], pos[..., 1], pos[..., 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        front = z > 0
        u = k.focal_px * x / z + k.principal_point[0]
        v = k.focal_px * y / z + k.principal_point[1]
    uv = np.stack([u, v], axis=-1)
    uv[~front] = np.nan
    return uv


def disparity(depth, bf, valid):
    with np.errstate(invalid="ignore"):
        return np.where(valid, bf / depth, np.nan)


def neighbour(pos_other, pos_t, z_t, k, bf, valid):
    """(flow, disparity change) toward the frame of pos_other, or
    (None, None) without it. Both are NaN at void and where the point is
    gone: its Z is not positive (or NaN), its b*f/Z is past the float32
    maximum, or its flow rounds to +-inf in float32."""
    if pos_other is None:
        return None, None
    flow = project(pos_other, k) - project(pos_t, k)
    z = pos_other[..., 2]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        dispchange = bf / z - bf / z_t
        kept = (valid & (z > 0) & (bf / z <= F32_MAX)
                & ~np.isinf(flow.astype(np.float32)).any(axis=-1))
    flow[~kept] = np.nan
    dispchange[~kept] = np.nan
    return flow, dispchange


def motion_boundaries(index, flow_fwd):
    """Both pixels of every 4-adjacent pair of different objects whose
    flows differ by at least MOTION_DIFF_PX, less the 8-connected
    components of fewer than MIN_BOUNDARY_PX pixels."""
    marked = np.zeros(index.shape, dtype=bool)
    for a, b in (((slice(None, -1),), (slice(1, None),)),
                 ((slice(None), slice(None, -1)), (slice(None), slice(1, None)))):
        with np.errstate(invalid="ignore"):
            step = np.linalg.norm(flow_fwd[a] - flow_fwd[b], axis=-1)
            hit = (index[a] != index[b]) & (step >= MOTION_DIFF_PX)
        marked[a] |= hit
        marked[b] |= hit
    labels, n = ndimage.label(marked, structure=np.ones((3, 3), dtype=int))
    sizes = np.bincount(labels.ravel(), minlength=n + 1)
    return marked & (sizes[labels] >= MIN_BOUNDARY_PX)


def occlusion_eps(depth):
    """1e-3 of the median of the depths that are not NaN (1e-3 if none)."""
    depth = depth[~np.isnan(depth)]
    scale = float(np.median(depth)) if depth.size else 1.0
    return 1e-3 * (scale if np.isfinite(scale) and scale > 0 else 1.0)


def occlusion(pos_next, index_t, valid, passes_next, k, eps):
    """Valid pixels whose point at t + 1 projects out of the next frame,
    lands on a 2x2 footprint that touches another object, or lies more
    than eps behind the next frame's z-buffer (depth, inf at void) there."""
    h, w = passes_next.depth.shape
    uv = project(pos_next, k)
    with np.errstate(invalid="ignore"):
        inside = ((uv[..., 0] >= 0) & (uv[..., 0] <= w)
                  & (uv[..., 1] >= 0) & (uv[..., 1] <= h))
    look = valid & inside
    u, v = uv[look, 0], uv[look, 1]
    # the footprint's top-left corner, clamped to [0, w - 2] x [0, h - 2];
    # in an image one pixel wide (high) that is -1, and both of its
    # columns (rows) clamp to the one there is
    x0 = np.clip(np.floor(u - 0.5), 0, w - 2)
    y0 = np.clip(np.floor(v - 0.5), 0, h - 2)
    fx = np.clip(u - 0.5 - x0, 0.0, 1.0)
    fy = np.clip(v - 0.5 - y0, 0.0, 1.0)
    cols = [np.clip(x0 + i, 0, w - 1).astype(int) for i in (0, 1)]
    rows = [np.clip(y0 + i, 0, h - 1).astype(int) for i in (0, 1)]
    index_next = passes_next.object_index
    zbuf = np.where(index_next > 0, _f64(passes_next.depth), np.inf)
    g = [[zbuf[r, c] for c in cols] for r in rows]
    with np.errstate(invalid="ignore"):  # inf corners of weight 0
        top = g[0][0] * (1 - fx) + g[0][1] * fx
        bot = g[1][0] * (1 - fx) + g[1][1] * fx
        hidden = top * (1 - fy) + bot * fy < pos_next[look, 2] - eps
    own = index_t[look]
    mixed = np.zeros_like(hidden)
    for r in rows:
        for c in cols:
            mixed |= index_next[r, c] != own
    occluded = valid & ~inside
    occluded[look] = hidden | mixed
    return occluded


def derive(passes, rig, passes_next=None):
    """derive_frame's maps, as {field: array or None}, over the whole frame."""
    k = rig.intrinsics
    bf = rig.baseline * k.focal_px
    valid = passes.object_index > 0
    depth = _f64(passes.depth)
    pos_t, pos_prev, pos_next = (_f64(passes.pos3d_t), _f64(passes.pos3d_prev),
                                 _f64(passes.pos3d_next))
    z_t = pos_t[..., 2]
    flow_fwd, dispchange_fwd = neighbour(pos_next, pos_t, z_t, k, bf, valid)
    flow_bwd, dispchange_bwd = neighbour(pos_prev, pos_t, z_t, k, bf, valid)
    maps = {
        "flow_fwd": flow_fwd,
        "flow_bwd": flow_bwd,
        "disparity": disparity(depth, bf, valid),
        "dispchange_fwd": dispchange_fwd,
        "dispchange_bwd": dispchange_bwd,
        "occlusion_fwd": None,
    }
    maps["motion_boundaries"] = (
        None if pos_next is None
        else motion_boundaries(passes.object_index, maps["flow_fwd"]))
    if passes_next is not None:
        maps["occlusion_fwd"] = occlusion(
            pos_next, passes.object_index, valid, passes_next, k,
            occlusion_eps(depth))
    return maps
