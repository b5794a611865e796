"""Dense scene-flow ground truth derived from rendered frame passes:
bidirectional optical flow, disparity, disparity change, motion
boundaries, occlusion masks, and 3D scene-flow reconstruction from the
(flow, disparity, disparity change) components.

All arithmetic is float64. Passes may come in as float32 (as read from
files) or float64 (from the renderer): each map function widens what it
reads, and `derive_frame` widens each band of the passes inside its band,
so only band-sized float64 copies exist and either input gives the same
bytes.

`derive_frame` runs the per-pixel maps on the row bands of `_parallel`,
through its thread map, with band-sized temporaries. A band projects
each 3D-position pass once and shares the projection between the maps
that read it.

Everything here is numpy alone; the small-component filter of the
motion boundaries is a union-find over the marked pixels, not an image
labelling library."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ._parallel import bands, map_ordered
from .errors import ContractError, DataCorruptionError, GeometryError
from .geometry import CameraIntrinsics, CameraPose, StereoRig, unproject
from .render import FramePasses

__all__ = [
    "GroundTruthFrame", "derive_disparity", "derive_flow",
    "derive_disparity_change", "derive_motion_boundaries",
    "compute_occlusion_mask", "reconstruct_scene_flow", "derive_frame",
    "pixel_centers",
    "MOTION_DIFF_THRESHOLD_PX", "MIN_BOUNDARY_AREA_PX",
]

MOTION_DIFF_THRESHOLD_PX = 1.5
MIN_BOUNDARY_AREA_PX = 10


@dataclass
class GroundTruthFrame:
    flow_fwd: np.ndarray | None  # (H, W, 2), NaN at void; None at t = frames
    flow_bwd: np.ndarray | None  # None at t = 1
    disparity: np.ndarray  # (H, W), positive at valid pixels
    dispchange_fwd: np.ndarray | None
    dispchange_bwd: np.ndarray | None
    motion_boundaries: np.ndarray | None  # (H, W) bool
    occlusion_fwd: np.ndarray | None  # (H, W) bool


def pixel_centers(h, w):
    """(H, W, 2) array of half-integer pixel-center coordinates."""
    u, v = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    return np.stack([u, v], axis=-1)


def _wide(a):
    """a as float64: itself if it is already, else a widened copy. NEP 50
    keeps `float * float32-array` in float32, so every map widens the
    passes it reads before any arithmetic."""
    return a.astype(np.float64, copy=False)


def _project_pass(pos, k: CameraIntrinsics):
    """Project a 3D-position pass; pixels with Z <= 0 (or NaN) come back NaN."""
    pos = _wide(pos)
    z = pos[..., 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        ok = z > 0
        safe_z = np.where(ok, z, 1.0)
        u = k.focal_px * pos[..., 0] / safe_z + k.principal_point[0]
        v = k.focal_px * pos[..., 1] / safe_z + k.principal_point[1]
    out = np.stack([u, v], axis=-1)
    out[~ok] = np.nan
    return out


def derive_disparity(passes: FramePasses, rig: StereoRig) -> np.ndarray:
    """d = baseline * focal_px / depth at valid pixels, NaN at void."""
    depth = _wide(passes.depth)
    valid = passes.valid
    if np.any(valid & ~(depth > 0)):
        raise DataCorruptionError("non-positive depth at a covered pixel")
    with np.errstate(invalid="ignore"):
        d = rig.baseline * rig.intrinsics.focal_px / depth
    d = np.where(valid, d, np.nan)
    return d


def derive_flow(passes: FramePasses, direction: str) -> np.ndarray | None:
    """Optical flow as the difference of projected pixel positions.

    Forward: project(pos3d_next) - project(pos3d_t); backward uses
    pos3d_prev. Defined at every valid pixel, also where the point is
    occluded in the other frame. Returns None at a sequence boundary
    where the required pass is absent.
    """
    other = _other_pass(passes, direction)
    if other is None:
        return None
    k = passes.intrinsics
    return _flow(_project_pass(other, k), _project_pass(passes.pos3d_t, k),
                 passes.valid)


def _flow(proj_other, proj_t, valid, out=None):
    """The flow between two projections of the same points, NaN off
    valid; written to out if given."""
    flow = np.subtract(proj_other, proj_t, out=out)
    flow[~valid] = np.nan
    return flow


def derive_disparity_change(passes: FramePasses, rig: StereoRig,
                            direction: str) -> np.ndarray | None:
    """Delta-d = b*f/Z_other - b*f/Z_t; positive for approaching surfaces."""
    other = _other_pass(passes, direction)
    if other is None:
        return None
    bf = rig.baseline * rig.intrinsics.focal_px
    return _disparity_change(bf, _bf_over_z(bf, passes.pos3d_t),
                             _wide(other[..., 2]), passes.valid)


def _bf_over_z(bf, pos):
    """b*f/Z of a 3D-position pass: the disparity of each point."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return bf / _wide(pos[..., 2])


def _disparity_change(bf, bf_over_z_t, z_other, valid, out=None):
    """b*f/z_other - bf_over_z_t, NaN where z_other <= 0 and off valid;
    written to out if given."""
    with np.errstate(invalid="ignore", divide="ignore"):
        dd = np.subtract(np.where(z_other > 0, bf / z_other, np.nan),
                         bf_over_z_t, out=out)
    dd[~valid] = np.nan
    return dd


def _other_pass(passes: FramePasses, direction: str):
    if direction == "fwd":
        return passes.pos3d_next
    if direction == "bwd":
        return passes.pos3d_prev
    raise ContractError(f"direction must be 'fwd' or 'bwd', got {direction!r}")


def derive_motion_boundaries(passes: FramePasses, flow: np.ndarray) -> np.ndarray:
    """Boundary pixels between differently moving objects.

    A 4-adjacent pixel pair is a candidate when the two pixels belong to
    different objects and their flow vectors differ by at least
    MOTION_DIFF_THRESHOLD_PX; both pixels of the pair are marked.
    8-connected components smaller than MIN_BOUNDARY_AREA_PX pixels are
    removed (`_drop_small_components`, which gives the mask of
    `scipy.ndimage.label` with a 3x3 structure).
    """
    marked = _mark_motion_pairs(passes.object_index, flow)
    return _drop_small_components(marked, MIN_BOUNDARY_AREA_PX)


def _mark_motion_pairs(obj, flow):
    """Both pixels of every 4-adjacent pair of different objects whose
    flow vectors differ by at least MOTION_DIFF_THRESHOLD_PX. A function
    of its own, so its temporaries are freed before the component filter
    runs."""
    marked = np.zeros(obj.shape, dtype=bool)
    with np.errstate(invalid="ignore"):
        for axis in (0, 1):
            a = (slice(None, -1), slice(None)) if axis == 0 else (slice(None), slice(None, -1))
            b = (slice(1, None), slice(None)) if axis == 0 else (slice(None), slice(1, None))
            # |flow[a] - flow[b]| as np.linalg.norm sums it, one plane at
            # a time and in place: no (H, W, 2) temporary
            dflow = flow[a][..., 0] - flow[b][..., 0]
            dv = flow[a][..., 1] - flow[b][..., 1]
            dflow *= dflow
            dv *= dv
            dflow += dv
            del dv
            np.sqrt(dflow, out=dflow)
            hit = (obj[a] != obj[b]) & (dflow >= MOTION_DIFF_THRESHOLD_PX)
            marked[a] |= hit
            marked[b] |= hit
    return marked


# (dy, dx) of the 4 forward 8-neighbours; with the 4 backward ones they
# are the same undirected edges
_FORWARD_NEIGHBOURS = ((0, 1), (1, -1), (1, 0), (1, 1))


def _drop_small_components(mask: np.ndarray, min_area) -> np.ndarray:
    """mask with its 8-connected components of fewer than min_area pixels
    cleared, in place.

    A union-find over the marked pixels only: each round hooks the larger
    root of every edge that still joins two roots onto the smaller
    (`np.minimum.at`), then pointer-jumps until every pixel points at its
    root. Parents only ever decrease, so no cycle can form, and each round
    leaves fewer roots. Boundaries are thin, so there are few rounds; a
    dense or serpentine mask takes more.
    """
    h, w = mask.shape
    pixels = np.flatnonzero(mask)  # sorted, so searchsorted maps pixel -> node
    if min_area <= 1 or not len(pixels):
        return mask
    src, dst = [], []
    for dy, dx in _FORWARD_NEIGHBOURS:
        # edge from (y, x) to (y + dy, x + dx), both marked
        ys = slice(0, h - dy)
        xs = slice(max(0, -dx), w - max(0, dx))
        ye = slice(dy, h)
        xe = slice(max(0, dx), w + min(0, dx))
        both = np.zeros_like(mask)
        both[ys, xs] = mask[ys, xs] & mask[ye, xe]
        start = np.flatnonzero(both)
        src.append(start)
        dst.append(start + (dy * w + dx))
    a = np.searchsorted(pixels, np.concatenate(src))
    b = np.searchsorted(pixels, np.concatenate(dst))
    parent = np.arange(len(pixels))
    while True:
        ra, rb = parent[a], parent[b]
        open_ = ra != rb  # a joined edge stays joined, so drop it
        if not open_.any():
            break
        a, b, ra, rb = a[open_], b[open_], ra[open_], rb[open_]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    sizes = np.bincount(parent, minlength=len(pixels))
    mask.flat[pixels[sizes[parent] < min_area]] = False
    return mask


def compute_occlusion_mask(passes_t: FramePasses, passes_other: FramePasses,
                           eps=None) -> np.ndarray:
    """Pixels of frame t whose surface point is hidden or out of frame at
    the time of `passes_other` (the t+1 or t-1 frame of the same view).

    A pixel is occluded when the other frame's z-buffer (its depth, inf
    at void), bilinearly sampled at the point's projected location, is
    nearer than the point itself by more than eps, or when the projection
    leaves the other frame's image. passes_t may be a band of rows of
    frame t (see `derive_frame`); eps defaults to 1e-3 of its median depth.
    """
    direction = "fwd" if passes_other.frame_time > passes_t.frame_time else "bwd"
    other = _other_pass(passes_t, direction)
    if other is None:
        raise ContractError("occlusion needs the corresponding 3D-position pass")
    if eps is None:
        eps = _occlusion_eps(passes_t.depth)
    return _occluded(_project_pass(other, passes_t.intrinsics),
                     _wide(other[..., 2]), passes_t, passes_other, eps)


def _occluded(proj, z_point, passes_t, passes_other, eps, out=None):
    """`compute_occlusion_mask` of the points of passes_t whose projection
    into passes_other is proj and whose depth there is z_point; written
    to out if given."""
    h, w = passes_other.depth.shape
    with np.errstate(invalid="ignore"):
        u = np.nan_to_num(proj[..., 0], nan=-1.0)
        v = np.nan_to_num(proj[..., 1], nan=-1.0)
        inside = (u >= 0) & (u <= w) & (v >= 0) & (v <= h) & np.isfinite(proj[..., 0])
        # the 2x2 footprint, clamped into the image so border projections
        # still get a lookup: top-left corner (x0i, y0i), weights (fx, fy)
        x0i = np.clip(np.floor(u - 0.5), 0, w - 2).astype(int)
        y0i = np.clip(np.floor(v - 0.5), 0, h - 2).astype(int)
        fx = np.clip(u - 0.5 - x0i, 0.0, 1.0)
        fy = np.clip(v - 0.5 - y0i, 0.0, 1.0)
        # temporaries go as soon as they are used: a worker's heap keeps
        # its band peak, so that peak counts once per worker in the RSS
        del u, v
        # the corners as flat indices: top-left k, then + dx and + dy. An
        # image one pixel wide (high) clamps x0i (y0i) to -1 and reads its
        # one column (row) at both corners, so dx (dy) is 0 there
        dx, dy = min(w - 1, 1), min(h - 1, 1) * w
        k = y0i * w + x0i
        del x0i, y0i
        k += (1 - dx) + (w - dy)
        corners = (k, k + dx, k + dy, k + (dy + dx))
        index = passes_other.object_index.ravel()
        depth = passes_other.depth.ravel()
        oi = [index.take(c) for c in corners]
        # the other frame's z-buffer at the corners alone: depth, inf at
        # void, widened to float64 here
        g00, g01, g10, g11 = (np.where(o > 0, _wide(depth.take(c)), np.inf)
                              for o, c in zip(oi, corners))
        del k, corners
        top = g00 * (1 - fx) + g01 * fx
        bot = g10 * (1 - fx) + g11 * fx
        sampled = top * (1 - fy) + bot * fy
        hidden = sampled < z_point - eps
        # silhouette-adjacent samples: the 2x2 footprint touches another
        # object, so the point's surface is not cleanly visible there
        own = passes_t.object_index
        mixed = (oi[0] != own) | (oi[1] != own) | (oi[2] != own) | (oi[3] != own)
    return np.logical_and(~inside | hidden | mixed, passes_t.valid, out=out)


def _occlusion_eps(depth):
    """The occlusion test's depth tolerance: 1e-3 of the median depth."""
    # widened first: a float32 median of an even count rounds the midpoint
    scale = float(np.nanmedian(_wide(depth)))
    return 1e-3 * (scale if np.isfinite(scale) and scale > 0 else 1.0)


def reconstruct_scene_flow(flow: np.ndarray, disparity: np.ndarray,
                           dispchange: np.ndarray, rig: StereoRig,
                           pose_t: CameraPose, pose_next: CameraPose):
    """Rebuild 3D positions and world-frame motion from the components.

    Returns (position, motion): (H, W, 3) world-frame point at t and its
    3D displacement to t+1. NaN components stay NaN; finite non-positive
    disparities (d or d + delta-d) are rejected.
    """
    h, w = disparity.shape
    bf = rig.baseline * rig.intrinsics.focal_px
    valid = np.isfinite(disparity) & np.isfinite(dispchange) \
        & np.isfinite(flow).all(axis=-1)
    if np.any(valid & (disparity <= 0)):
        raise GeometryError("non-positive disparity at a valid pixel")
    d_next = disparity + dispchange
    if np.any(valid & (d_next <= 0)):
        raise GeometryError("non-positive disparity at t+1 (d + delta-d <= 0)")

    px = pixel_centers(h, w)
    safe_d = np.where(valid, disparity, 1.0)
    safe_dn = np.where(valid, d_next, 1.0)
    safe_flow = np.where(valid[..., None], flow, 0.0)

    p_cam = unproject(px, bf / safe_d, rig.intrinsics)
    p_next_cam = unproject(px + safe_flow, bf / safe_dn, rig.intrinsics)
    p_world = pose_t.camera_to_world(p_cam)
    p_next_world = pose_next.camera_to_world(p_next_cam)
    motion = p_next_world - p_world
    p_world[~valid] = np.nan
    motion[~valid] = np.nan
    return p_world, motion


def derive_frame(passes: FramePasses, rig: StereoRig,
                 passes_next: FramePasses | None = None) -> GroundTruthFrame:
    """All per-view ground-truth maps for one rendered frame.

    Flow, disparity, disparity change and occlusion are per pixel, so they
    run on the bands of `_parallel.bands`; each band widens its rows of
    the floating passes to float64, projects each 3D-position pass once,
    writes its rows of the full maps, and holds temporaries the size of a
    band. passes_next, if given, is the next frame of the same view.
    What a band cannot see is taken over the whole view: the occlusion
    eps comes from the median depth of the frame, and the occlusion test
    samples the whole next frame. Motion boundaries pair pixels across
    band edges and drop small components of the whole mask, so they run
    on the whole forward flow once the bands are done. The maps do not
    depend on the band height or the number of workers.
    """
    h, w = passes.depth.shape
    fwd, bwd = passes.pos3d_next is not None, passes.pos3d_prev is not None
    frame = GroundTruthFrame(
        flow_fwd=np.empty((h, w, 2)) if fwd else None,
        flow_bwd=np.empty((h, w, 2)) if bwd else None,
        disparity=np.empty((h, w)),
        dispchange_fwd=np.empty((h, w)) if fwd else None,
        dispchange_bwd=np.empty((h, w)) if bwd else None,
        motion_boundaries=None,
        occlusion_fwd=(np.empty((h, w), dtype=bool) if passes_next is not None
                       else None),
    )
    eps = None
    if passes_next is not None:
        if not fwd or passes_next.frame_time <= passes.frame_time:
            raise ContractError("forward occlusion needs pos3d_next and a "
                                "later frame as passes_next")
        eps = _occlusion_eps(passes.depth)
    k = passes.intrinsics
    bf = rig.baseline * rig.intrinsics.focal_px

    def band(rows):
        part = _band(passes, rows)
        valid = part.valid
        frame.disparity[rows] = derive_disparity(part, rig)
        # each position pass is projected once, and each projection is
        # dropped after its last use
        proj_t = _project_pass(part.pos3d_t, k)
        if bwd:
            _flow(_project_pass(part.pos3d_prev, k), proj_t, valid,
                  out=frame.flow_bwd[rows])
        proj_next = _project_pass(part.pos3d_next, k) if fwd else None
        if fwd:
            _flow(proj_next, proj_t, valid, out=frame.flow_fwd[rows])
        del proj_t
        if passes_next is not None:
            _occluded(proj_next, part.pos3d_next[..., 2], part, passes_next,
                      eps, out=frame.occlusion_fwd[rows])
        del proj_next
        bf_over_z_t = _bf_over_z(bf, part.pos3d_t)
        for other, dispchange in ((part.pos3d_next, frame.dispchange_fwd),
                                  (part.pos3d_prev, frame.dispchange_bwd)):
            if other is not None:
                _disparity_change(bf, bf_over_z_t, other[..., 2], valid,
                                  out=dispchange[rows])

    map_ordered(band, bands(h))
    if fwd:
        frame.motion_boundaries = derive_motion_boundaries(passes, frame.flow_fwd)
    return frame


def _band(passes: FramePasses, rows: slice) -> FramePasses:
    """The passes of one band of rows, floating passes widened to float64:
    band-sized copies of float32 passes, views of float64 ones and of the
    integer passes."""
    return dataclasses.replace(passes, **{
        f.name: _wide(a[rows]) if a.dtype.kind == "f" else a[rows]
        for f in dataclasses.fields(passes)
        if isinstance(a := getattr(passes, f.name), np.ndarray)})
