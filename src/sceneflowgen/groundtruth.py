"""Dense scene-flow ground truth derived from rendered frame passes:
bidirectional optical flow, disparity, disparity change, motion
boundaries, the forward occlusion mask, and 3D scene-flow reconstruction
from the (flow, disparity, disparity change) components.

Two steps compute every ground-truth map in the package, one code path
per map; `generate` and `derive` both call them, and
`tests/groundtruth_oracle.py` is the whole-frame reference they are
tested against. `derive_frame` gives a view's per-view maps from its
passes alone. `compute_occlusion_mask` gives its forward occlusion mask
from a small record of the view (an `OcclusionSource`: pos3d_next, object
index, frame time and occlusion eps, taken while the view is whole) and
the whole of frame t + 1, so `pipeline` runs it once frame t + 1 exists
and no two views are held at once. Both run the per-pixel maps on the
row bands of `_parallel`, through its thread map, with band-sized
temporaries. A band projects each 3D-position pass it reads once, as two
contiguous planes of u and v (`geometry.project` with `out=`), and shares
the projection between the maps that read it; the occlusion step
projects pos3d_next again, in its own bands.
The steps write into band-sized buffers with `out=` and in-place
operations, set NaN (and the occlusion test's inf) with masked writes,
and difference the planes one at a time; every float64 operation on an
element is the one the whole-frame expressions make, in the same order,
so the bytes are those of `tests/groundtruth_oracle.py`.
Each band also marks the motion boundaries' pixel pairs within its rows
from its float64 forward flow, and the pairs across band edges are marked
from the bands' first and last rows; only the boundaries' small-component
filter and the occlusion eps run on the whole frame, on one thread.

All arithmetic is float64, and `derive_frame` holds its flow, disparity
and disparity-change maps as float32, the precision the files store:
each band rounds its float64 values once, as it writes its rows, and
first refuses a covered Z_t whose b*f/Z_t is not a positive float32.
Passes may come in as float32 (as read from files) or float64 (from the
renderer). A view's depth is pos3d_t's Z (`FramePasses.depth`), so one Z
gives the disparity, the disparity change and the projections. Each band
reads its rows of the position passes in place, Z_t from pos3d_t's rows,
and every float64 step on them names its loop (`dtype=np.float64`),
since under NEP 50 `float * float32-array` runs in float32; so no
float64 copy of a pass exists, and either input gives the same bytes.
`reconstruct_scene_flow` widens the maps it is given. On the whole frame
only the occlusion eps (a median depth, of which only the middle values
are widened, taken by `OcclusionSource.of` while the view is whole) and
the next frame's z-buffer lookup widen what they read.

Everything here is numpy alone; the small-component filter of the
motion boundaries is a union-find over the marked pixels, not an image
labelling library."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _parallel
from .errors import ContractError, DataCorruptionError, GeometryError
from .geometry import CameraPose, StereoRig, project, unproject
from .render import FramePasses

__all__ = [
    "GroundTruthFrame", "OcclusionSource", "reconstruct_scene_flow",
    "derive_frame", "compute_occlusion_mask", "pixel_centers",
    "MOTION_DIFF_THRESHOLD_PX", "MIN_BOUNDARY_AREA_PX",
]

MOTION_DIFF_THRESHOLD_PX = 1.5
MIN_BOUNDARY_AREA_PX = 10


@dataclass
class GroundTruthFrame:
    """`derive_frame`'s maps; the occlusion mask is the next step's."""
    # flow, disparity and disparity change: float32, computed in float64
    # and rounded once
    flow_fwd: np.ndarray | None  # (H, W, 2), NaN at void; None at t = frames
    flow_bwd: np.ndarray | None  # None at t = 1
    disparity: np.ndarray  # (H, W), positive at valid pixels
    dispchange_fwd: np.ndarray | None  # (H, W), NaN at void
    dispchange_bwd: np.ndarray | None
    # marked from the float64 forward flow
    motion_boundaries: np.ndarray | None  # (H, W) bool


def pixel_centers(h, w):
    """(H, W, 2) array of half-integer pixel-center coordinates."""
    u, v = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    return np.stack([u, v], axis=-1)


def _wide(a):
    """a as float64: itself if it is already, else a widened copy, for the
    whole-array steps that read it more than once. A signalling NaN widens
    to a quiet one without a warning; numpy's error state is per thread,
    so it is set here, on the thread that widens."""
    with np.errstate(invalid="ignore"):
        return a.astype(np.float64, copy=False)


def _flow(proj_other, proj_t, void, out, into):
    """The flow between two projections of the same points, given as
    (2, H, W) planes: computed in float64 in place of into (either of
    them), NaN at void, and written to out (H, W, 2), rounded to out's
    dtype. Returns the float64 planes."""
    flow = np.subtract(proj_other, proj_t, out=into)
    flow[:, void] = np.nan
    for i, plane in enumerate(flow):
        out[..., i] = plane
    return flow


def _disparity_change(bf, bf_over_z_t, z_other, void, out):
    """b*f/z_other - bf_over_z_t, NaN where z_other <= 0 and at void,
    written to out (computed in float64, rounded to out's dtype); positive
    for approaching surfaces."""
    with np.errstate(invalid="ignore", divide="ignore"):
        np.subtract(np.divide(bf, z_other, dtype=np.float64), bf_over_z_t,
                    out=out)
        gone = ~(z_other > 0)
    gone |= void
    out[gone] = np.nan


def _mark_edge_pairs(marked, obj, cuts, edges):
    """Mark in marked, which holds the pairs within each band of cuts,
    the pairs across each band edge, from edges[i]: the float64 flow of
    the first and last row of band i, as (2, 2, W) planes."""
    for above, below, rows in zip(edges, edges[1:], cuts[1:]):
        y = rows.start
        pair = np.stack([above[:, 1], below[:, 0]], axis=1)
        marked[y - 1:y + 1] |= _mark_motion_pairs(obj[y - 1:y + 1], pair)


def _mark_motion_pairs(obj, flow):
    """Both pixels of every 4-adjacent pair of different objects whose
    flow vectors differ by at least MOTION_DIFF_THRESHOLD_PX, in a block
    of rows obj (H, W) and flow (2, H, W), u and v as planes."""
    marked = np.zeros(obj.shape, dtype=bool)
    u, v = flow
    with np.errstate(invalid="ignore"):
        # vertical pairs, then horizontal ones
        for a, b in (((slice(-1),), (slice(1, None),)),
                     ((..., slice(-1)), (..., slice(1, None)))):
            # |flow[a] - flow[b]| as np.linalg.norm sums it, one plane at
            # a time and in place
            dflow = u[a] - u[b]
            dv = v[a] - v[b]
            dflow *= dflow
            dv *= dv
            dflow += dv
            np.sqrt(dflow, out=dflow)
            hit = obj[a] != obj[b]
            hit &= dflow >= MOTION_DIFF_THRESHOLD_PX
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


def _occluded(proj, z_point, own, valid, passes_next, eps, out):
    """Forward occlusion of the points of a band of frame t that project
    to proj, (2, H, W) planes of u and v, in passes_next (the whole frame
    t + 1) at depth z_point, written to out; own and valid are the band's
    object indices and valid mask. A valid pixel is occluded when its
    projection leaves the image, its 2x2 footprint touches another object,
    or the bilinear z-buffer there (pos3d_t's Z, inf at void) is nearer by
    more than eps. The Z of a corner is read through a strided view of
    pos3d_t, so no copy of the next frame's Z plane is made.

    proj is used up: the footprint's fractions are computed in its planes.
    Every other step writes into band-sized buffers: the floor of each
    axis, the corner index k, the weight of the columns (in the first
    floor's buffer), the two rows of the sample, one corner at a time and
    two bools besides out."""
    h, w = passes_next.object_index.shape
    u, v = proj
    with np.errstate(invalid="ignore"):
        # NaN compares False, and +-inf lies outside: neither is inside.
        # A projection outside is occluded: mixed starts with those
        inside = u >= 0
        test = np.less_equal(u, w)
        inside &= test
        inside &= np.greater_equal(v, 0, out=test)
        inside &= np.less_equal(v, h, out=test)
        mixed = np.logical_not(inside, out=inside)
        del inside

        def footprint(plane, size):
            """The footprint's first pixel along one axis, clamped into the
            image so border projections still get a lookup, and the weight
            of the second, in place of plane: floor(plane - 0.5) in
            [0, size - 2], the fraction in [0, 1]. fmax maps NaN to 0, so a
            projection that is not inside still reads a pixel of the image."""
            frac = np.subtract(plane, 0.5, out=plane)
            first = np.floor(frac)
            np.fmax(first, 0, out=first)
            np.fmin(first, size - 2, out=first)
            frac -= first
            np.clip(frac, 0.0, 1.0, out=frac)
            return first, frac

        x0, fx = footprint(u, w)
        y0, fy = footprint(v, h)
        # the corners as flat indices: top-left k, then + dx and + dy. An
        # image one pixel wide (high) clamps x0 (y0) to -1 and reads its
        # one column (row) at both corners, so dx (dy) is 0 there. The
        # float64 sums are exact integers: an image holds under 2**53
        # pixels
        dx, dy = min(w - 1, 1), min(h - 1, 1) * w
        y0 *= w
        y0 += x0
        y0 += (1 - dx) + (w - dy)
        k = y0.astype(np.intp)
        del y0
        index = passes_next.object_index.ravel()
        z = passes_next.pos3d_t.reshape(-1)[2::3]

        def zbuf(step):
            """The next frame's z-buffer at the corners k + step, read from
            views shifted by step: pos3d_t's Z, inf at void, widened to
            float64 here. A footprint that touches another object is
            silhouette-adjacent: the point's surface is not cleanly visible
            there, so it counts as occluded, in mixed."""
            o = index[step:].take(k)
            np.logical_or(mixed, np.not_equal(o, own, out=test), out=mixed)
            corner = z[step:][k].astype(np.float64, copy=False)
            corner[np.equal(o, 0, out=test)] = np.inf
            return corner

        # the bilinear sample a row at a time, one corner read at a time: a
        # worker's heap keeps its band peak, so that peak counts once per
        # worker in the RSS
        weight = np.subtract(1, fx, out=x0)
        top = zbuf(0)
        top *= weight
        right = zbuf(dx)
        right *= fx
        top += right
        del right
        bottom = zbuf(dy)
        bottom *= weight
        del weight, x0
        right = zbuf(dy + dx)
        right *= fx
        bottom += right
        del k, right
        weight = np.subtract(1, fy)
        top *= weight  # the sample, in top
        bottom *= fy
        top += bottom
        np.subtract(z_point, eps, out=weight, dtype=np.float64)
        mixed |= np.less(top, weight, out=test)  # hidden
    return np.logical_and(mixed, valid, out=out)


def _occlusion_eps(depth):
    """The occlusion test's depth tolerance: 1e-3 of the median of depth,
    a view's pos3d_t Z plane, or 1e-3 at a view with no depth (which
    np.nanmedian would warn about).

    The median is that of the depths widened to float64, as np.median
    takes it: the middle value, or the mean of the middle two. The
    values are partitioned in their own dtype, which orders them as
    their widened copies would be, and only the middle ones are widened:
    a float32 mean of an even count rounds the midpoint."""
    values = depth[~np.isnan(depth)]
    n = values.size
    if not n:
        return 1e-3
    middle = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
    values.partition(middle)
    # no warning for the mean of -inf and inf or of two values past half
    # the float64 maximum: either scale falls back to 1
    with np.errstate(invalid="ignore", over="ignore"):
        scale = float(np.mean(_wide(values[middle])))
    return 1e-3 * (scale if np.isfinite(scale) and scale > 0 else 1.0)


@dataclass(frozen=True)
class OcclusionSource:
    """What the forward occlusion test reads of view t, so that its other
    passes need not be held until frame t + 1 exists: the view's
    pos3d_next (H, W, 3), its object index (H, W), its frame time and the
    test's depth tolerance eps, 1e-3 of its median Z_t (`_occlusion_eps`),
    taken by `of` while the view is whole."""

    pos3d_next: np.ndarray
    object_index: np.ndarray
    frame_time: int
    eps: float

    @classmethod
    def of(cls, passes: FramePasses) -> OcclusionSource:
        if passes.pos3d_next is None:
            raise ContractError("forward occlusion needs pos3d_next")
        return cls(passes.pos3d_next, passes.object_index, passes.frame_time,
                   _occlusion_eps(passes.depth))


def compute_occlusion_mask(source: OcclusionSource, rig: StereoRig,
                           passes_next: FramePasses) -> np.ndarray:
    """The forward occlusion mask, (H, W) bool, of the view that source
    was taken of (`OcclusionSource.of`), against passes_next, a later
    frame of the same view (ContractError for the same or an earlier
    one): each point at t + 1 (pos3d_next, projected through
    `rig.intrinsics`) is tested against the whole of passes_next (see
    `_occluded`). It is the one occlusion path, the step after
    `derive_frame`, which the frame loop runs once frame t + 1 exists.

    It runs on the `_parallel.GT_BAND_ROWS`-row bands of `_parallel.bands`,
    on the thread map: each band projects its rows of pos3d_next into a
    (2, rows, W) buffer of u and v planes, which the test uses up, and
    writes its rows of the mask. eps and the z-buffer are of whole frames,
    so the mask does not depend on the band height or the workers."""
    if passes_next.frame_time <= source.frame_time:
        raise ContractError("forward occlusion needs a later frame as "
                            "passes_next")
    h, w = source.object_index.shape
    mask = np.empty((h, w), dtype=bool)

    def band(rows):
        obj = source.object_index[rows]
        pos_next = source.pos3d_next[rows]
        proj = project(pos_next, rig.intrinsics,
                       out=np.empty((2,) + obj.shape))
        _occluded(proj, pos_next[..., 2], obj, obj > 0, passes_next,
                  source.eps, out=mask[rows])

    _parallel.map_ordered(band, _parallel.bands(h, _parallel.GT_BAND_ROWS))
    return mask


def reconstruct_scene_flow(flow: np.ndarray, disparity: np.ndarray,
                           dispchange: np.ndarray, rig: StereoRig,
                           pose_t: CameraPose, pose_next: CameraPose):
    """Rebuild 3D positions and world-frame motion from the components.

    Returns (position, motion): (H, W, 3) world-frame point at t and its
    3D displacement to t+1, in float64 whatever the dtype of the maps
    (`derive_frame`'s are float32), which are widened first. NaN
    components stay NaN; finite non-positive disparities (d or
    d + delta-d) are rejected.
    """
    flow, disparity, dispchange = (_wide(a) for a in (flow, disparity, dispchange))
    h, w = disparity.shape
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

    p_cam = unproject(px, rig.bf / safe_d, rig.intrinsics)
    p_next_cam = unproject(px + safe_flow, rig.bf / safe_dn, rig.intrinsics)
    p_world = pose_t.camera_to_world(p_cam)
    p_next_world = pose_next.camera_to_world(p_next_cam)
    motion = p_next_world - p_world
    p_world[~valid] = np.nan
    motion[~valid] = np.nan
    return p_world, motion


def derive_frame(passes: FramePasses, rig: StereoRig) -> GroundTruthFrame:
    """All per-view ground-truth maps for one rendered frame, seen by
    the rig's one camera: positions project through `rig.intrinsics`, and
    b*f is `rig.bf`. The depth Z_t is pos3d_t's Z, the one Z every map
    reads. Disparity is b*f/Z_t at valid pixels and NaN at void; a covered
    pixel whose b*f/Z_t is not positive and at most the float32 maximum
    (a Z_t that is non-positive, NaN, infinite or so small that the
    disparity overflows float32) raises DataCorruptionError. Flow is the
    difference of the projected 3D positions, defined also where the
    point is occluded in the other frame; disparity change is
    b*f/Z_other - b*f/Z_t, positive for approaching surfaces, with
    b*f/Z_t the float64 disparity; both are NaN at void. Motion boundaries
    mark both pixels of every 4-adjacent pair of different objects whose
    forward flows differ by at least MOTION_DIFF_THRESHOLD_PX, less the
    8-connected components of fewer than MIN_BOUNDARY_AREA_PX pixels
    (`_drop_small_components`, which gives the mask of
    `scipy.ndimage.label` with a 3x3 structure). The forward occlusion
    mask reads frame t + 1, so it is the next step's:
    `compute_occlusion_mask` of the view's `OcclusionSource`.

    Every map but the boundaries' component filter is per pixel, so they
    run on the `_parallel.GT_BAND_ROWS`-row bands of `_parallel.bands`;
    each band reads its rows of the position passes in place, divides b*f
    by pos3d_t's Z once in float64, checks the quotient at its covered
    pixels and writes its rows of the disparity and of both disparity
    changes from it, projects each 3D-position
    pass once into one of two (2, rows, W) buffers of u and v planes
    (pos3d_t's, and pos3d_prev's, then pos3d_next's in turn), computes in
    float64 in place in those and a few other band-sized buffers, and
    writes its rows of the full maps, rounding flow, disparity and
    disparity change to float32 there. The forward flow is computed in
    place of pos3d_t's projection. Each band also marks the motion
    boundaries' pixel pairs within its rows from its float64 forward flow
    and keeps that flow's first and last rows, from which the pairs across
    band edges are marked once the bands are done (`_mark_edge_pairs`); no
    whole-frame float64 map is held. Small boundary components, which a
    band cannot see, are dropped from the whole mask. The maps do not
    depend on the band height or the number of workers.
    """
    h, w = passes.object_index.shape
    fwd, bwd = passes.pos3d_next is not None, passes.pos3d_prev is not None

    def new(*shape, dtype=np.float32):
        return np.empty((h, w) + shape, dtype=dtype)

    frame = GroundTruthFrame(
        flow_fwd=new(2) if fwd else None,
        flow_bwd=new(2) if bwd else None,
        disparity=new(),
        dispchange_fwd=new() if fwd else None,
        dispchange_bwd=new() if bwd else None,
        motion_boundaries=new(dtype=bool) if fwd else None,
    )
    k, bf = rig.intrinsics, rig.bf

    def band(rows):
        obj = passes.object_index[rows]
        void = obj <= 0
        # the band's rows of the position passes, read in place: every
        # float64 step names its loop, since NEP 50 runs `float * float32`
        # in float32
        pos_t, pos_prev, pos_next = (
            None if a is None else a[rows]
            for a in (passes.pos3d_t, passes.pos3d_prev, passes.pos3d_next))
        # each point's disparity b*f/Z_t in float64, rounded as it is
        # written to the band's rows, and subtracted by both disparity
        # changes before the projections' buffers are made. A signalling
        # NaN or a corrupt Z_t may raise a flag: the check refuses the latter
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            bf_over_z_t = np.divide(bf, pos_t[..., 2], dtype=np.float64)
        ok = bf_over_z_t > 0
        ok &= bf_over_z_t <= np.finfo(np.float32).max
        ok |= void
        if not ok.all():
            raise DataCorruptionError(
                "a covered pixel's depth gives no finite, positive disparity")
        del ok
        disparity = frame.disparity[rows]
        disparity[...] = bf_over_z_t
        disparity[void] = np.nan
        for other, dispchange in ((pos_next, frame.dispchange_fwd),
                                  (pos_prev, frame.dispchange_bwd)):
            if other is not None:
                _disparity_change(bf, bf_over_z_t, other[..., 2], void,
                                  out=dispchange[rows])
        del bf_over_z_t
        # each position pass is projected once, as two planes: pos3d_t's
        # into one buffer, pos3d_prev's and then pos3d_next's into another.
        # The backward flow is computed in place of pos3d_prev's projection
        # and the forward flow in place of pos3d_t's, the last to read it
        shape = (2,) + void.shape
        proj_t = project(pos_t, k, out=np.empty(shape))
        proj = np.empty(shape)
        if bwd:
            project(pos_prev, k, out=proj)
            _flow(proj, proj_t, void, out=frame.flow_bwd[rows], into=proj)
        edge_rows = None
        if fwd:
            project(pos_next, k, out=proj)
            flow = _flow(proj, proj_t, void, out=frame.flow_fwd[rows],
                         into=proj_t)
            frame.motion_boundaries[rows] = _mark_motion_pairs(obj, flow)
            edge_rows = flow[:, [0, -1]]
        return edge_rows

    cuts = _parallel.bands(h, _parallel.GT_BAND_ROWS)
    edges = _parallel.map_ordered(band, cuts)
    if fwd:
        _mark_edge_pairs(frame.motion_boundaries, passes.object_index, cuts,
                         edges)
        del edges  # before the filter, which sets the peak
        _drop_small_components(frame.motion_boundaries, MIN_BOUNDARY_AREA_PX)
    return frame

