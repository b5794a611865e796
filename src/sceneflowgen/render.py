"""Deterministic z-buffer rasterizer.

Produces, per frame and per stereo view, the RGB image, the object index
mask, and three 3D-position passes: the surface point's position at time
t (camera frame of t), and the same surface point's position at t-1 /
t+1 expressed in the camera frame of that time. The depth pass is the
first one's Z. All passes are rasterized with time-t geometry, so
corresponding pixels of the three passes refer to the same surface point.

Rasterization is batched array work rather than a loop over triangles:

1. Collect every object's triangles in draw order (object in
   `SceneSpec.all_objects()` order, triangle index, then clip-fan index)
   as three arrays: per-vertex attributes, object index and flat shading
   factor. Only triangles that straddle Z = near are clipped.
2. Project all triangles at once, reverse those of negative screen area,
   and compute bounding boxes, top-left fill flags and the per-edge and
   per-vertex tables, each column-major: one contiguous row per edge or
   vertex, beside the object index and shading factor of each triangle
   drawn. The attribute array is freed once the tables hold it.
3. Cut each triangle's bounding box into row spans: the pixels of a row
   that lie, within a relative rounding margin, on the inner side of
   every edge's crossing with that row. Evaluate Pineda edge functions
   and depth on spans of similar length in fixed-size fragment batches.
   A batch gathers each per-span value with a 1-D take of one table row
   and writes every step in place, into a few buffers that serve all
   three edges.
4. Keep a per-pixel z-buffer and the draw order of its owner across
   batches. A pixel goes to the lexicographic minimum of (depth, draw
   order) over fragments with finite depth: a strictly nearer fragment
   wins, and of two at equal depth the earlier draw wins.
5. Write the object index pass from the winners, and group the covered
   pixels by object with one stable sort of it. Their winners' screen
   rows are taken then, and the per-pixel winner table is dropped before
   any rgb or position pass is allocated.
6. Interpolate attributes and sample textures once per covered pixel,
   for its winner only, in fixed-size batches of that order which run
   across object boundaries. A batch holds its barycentric weights as one contiguous
   row per edge and interpolates one attribute column at a time into one
   reused buffer, which it scatters into the pass; pos3d_t's Z is
   written from the z-buffer, and is the view's one depth pass
   (`FramePasses.depth`). Its objects' runs start where the object
   index of its pixels changes; it samples each run's texture into that
   run's rows of one colour buffer, then shades, rounds and scatters
   all of its pixels at once.

Steps 4 and 6 run on the thread map of `_parallel`: the fragment batches
are dealt to one z-buffer per worker and the z-buffers fold by the same
minimum, and each shading batch writes its own pixels.

The per-pixel arithmetic is the same float64 expression sequence a
per-triangle loop would evaluate on the whole bounding box, and a span
holds every pixel that arithmetic covers, so the passes do not depend on
spans, batch sizes or the number of workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import map_ordered, map_shares
from .errors import ContractError
from .geometry import CameraIntrinsics, project
from .scene import SceneSpec

__all__ = ["FramePasses", "rasterize_frame"]

NEAR_PLANE = 0.1
_LIGHT_DIR = np.array([0.35, -0.5, 0.6]) / np.linalg.norm([0.35, -0.5, 0.6])
_AMBIENT = 0.35
# Fragments (span cells) evaluated per batch, and covered pixels shaded
# per batch. Both bound the working set of a view; a shading batch holds
# under 160 bytes per pixel, its colour buffer and a noise texture's
# sampling included (about 150 with one, 75-100 with the others).
_FRAGMENT_BATCH = 1 << 16
_SHADE_BATCH = 1 << 15
# Relative margin of a span bound: far above the few ulps by which the
# crossing and the fold's edge expression can round.
_SPAN_SLACK = 2.0 ** -40
_BELOW_ZERO = -np.nextafter(0.0, 1.0)
_NO_OWNER = np.iinfo(np.int64).max


@dataclass
class FramePasses:
    """The pixels of one view at frame_time; its camera is the rig's
    (`StereoRig.intrinsics`, `SceneSpec.camera_pose(frame_time, view)`)."""

    rgb: np.ndarray  # (H, W, 3) uint8
    # positions: float64 from the renderer, float32 when read from files
    # (`pipeline.load_frame_passes`); `groundtruth` computes in float64
    # on either
    pos3d_t: np.ndarray  # (H, W, 3), camera frame at t; NaN at void
    pos3d_prev: np.ndarray | None  # camera frame at t-1; None at t = 1
    pos3d_next: np.ndarray | None  # camera frame at t+1; None at t = frames
    # (H, W) uint16, 0 = void: the 1-based place of the pixel's object in
    # `SceneSpec.all_objects()`
    object_index: np.ndarray
    frame_time: int

    @property
    def depth(self):
        """The depth pass, (H, W): pos3d_t's Z, a view of pos3d_t, NaN at
        void. The view holds one Z, so depth and pos3d_t cannot disagree."""
        return self.pos3d_t[..., 2]

    @property
    def valid(self):
        return self.object_index > 0


def _clip_near(attrs, near=NEAR_PLANE):
    """Sutherland-Hodgman clip of one triangle against Z = near.

    `attrs` is (3, A) per vertex, the camera-space position in its first
    three columns. Attributes are linear over the 3D triangle, so plain
    linear interpolation along clipped edges is exact. Returns a fan of
    (3, A) triangles.
    """
    inside = attrs[:, 2] > near
    if inside.all():
        return [attrs]
    if not inside.any():
        return []
    poly = []
    for i in range(3):
        j = (i + 1) % 3
        ai, aj = attrs[i], attrs[j]
        if inside[i]:
            poly.append(ai)
        if inside[i] != inside[j]:
            s = (near - ai[2]) / (aj[2] - ai[2])
            poly.append(ai + s * (aj - ai))
    return [np.stack([poly[0], poly[i], poly[i + 1]])
            for i in range(1, len(poly) - 1)]


def _camera_vertices(obj, base, pose, t):
    """Object vertices in the camera frame of `pose` at time t."""
    r, p = obj.pose_at(t)
    return pose.world_to_camera(base @ r.T + p)


def _collect(objects, t, pose_t, pose_prev, pose_next):
    """Camera-space triangles of one view in draw order: (N, 3, A)
    per-vertex attributes (pos_t(3), pos_prev(3) where t > 1, pos_next(3)
    where t < frames, uv(2)), (N,) uint16 1-based place of the object in
    `objects`, and (N,) flat shading factor."""
    attrs, indices, shades = [], [], []
    for index, obj in enumerate(objects, 1):
        base = obj.mesh.vertices * obj.scale
        r_t, t_t = obj.pose_at(t)
        world_t = base @ r_t.T + t_t
        cam_t = pose_t.world_to_camera(world_t)
        # cheap whole-object cull
        if cam_t[:, 2].max() <= NEAR_PLANE:
            continue
        tris = obj.mesh.triangles
        tri_attrs = np.concatenate([
            cam_t,
            *(_camera_vertices(obj, base, pose, s)
              for pose, s in ((pose_prev, t - 1), (pose_next, t + 1))
              if pose is not None),
            obj.mesh.uv,
        ], axis=1)[tris]

        # flat shading: per-triangle world normal at t, the cross product
        # (vb - va) x (vc - va) in np.cross's order of operations
        va, vb, vc = (world_t[tris[:, i]] for i in range(3))
        (a0, a1, a2), (b0, b1, b2) = (vb - va).T, (vc - va).T
        normals = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                            a0 * b1 - a1 * b0], axis=1)
        nlen = np.linalg.norm(normals, axis=1)
        nlen[nlen == 0] = 1.0
        shade = _AMBIENT + (1 - _AMBIENT) * np.abs(
            (normals / nlen[:, None]) @ _LIGHT_DIR
        )

        # whole triangles in front of the near plane go in as one block;
        # the clip fan of a straddling triangle follows it in draw order
        in_front = tri_attrs[:, :, 2] > NEAR_PLANE
        whole = in_front.all(axis=1)
        tri_ids = np.flatnonzero(whole)
        block = tri_attrs[whole]
        straddle = np.flatnonzero(in_front.any(axis=1) & ~whole)
        if len(straddle):
            keys, pieces = [2 * tri_ids], [block]
            for ti in straddle:
                fan = _clip_near(tri_attrs[ti])
                keys.append(2 * ti + np.arange(len(fan)))
                pieces.append(np.stack(fan))
            keys = np.concatenate(keys)
            order = np.argsort(keys, kind="stable")
            tri_ids = keys[order] // 2
            block = np.concatenate(pieces)[order]

        attrs.append(block)
        indices.append(np.full(len(tri_ids), index, dtype=np.uint16))
        shades.append(shade[tri_ids])

    if not attrs:
        width = 5 + 3 * ((pose_prev is not None) + (pose_next is not None))
        return np.zeros((0, 3, width)), np.zeros(0, dtype=np.uint16), np.zeros(0)
    return np.concatenate(attrs), np.concatenate(indices), np.concatenate(shades)


@dataclass
class _Screen:
    """Screen-space set-up of the triangles that touch the image."""
    # per-edge and per-vertex tables are column-major, (3, N), so a batch
    # gathers each value with a contiguous 1-D take
    index: np.ndarray  # (N,) uint16 object index, in draw order
    shade: np.ndarray  # (N,) flat shading factor
    ax: np.ndarray  # (3, N) edge i runs from vertex (i+1)%3 ...
    ay: np.ndarray
    ex: np.ndarray  # (3, N) ... to vertex (i+2)%3: b - a
    ey: np.ndarray
    top_left: np.ndarray  # (3, N) bool: edge i owns its zero set
    area: np.ndarray  # (N,) > 0
    z: np.ndarray  # (3, N) vertex depth
    attr_over_z: np.ndarray  # (3, 11, N): per vertex, per attribute column
    x0: np.ndarray  # (N,) bounding box [x0, x1) x [y0, y1), clamped
    x1: np.ndarray
    y0: np.ndarray
    y1: np.ndarray


def _screen_setup(attrs, index, shade, k: CameraIntrinsics, w, h) -> _Screen:
    # every vertex is in front of the near plane, so none projects to NaN
    uv = project(attrs[:, :, :3], k)
    sx, sy = uv[..., 0], uv[..., 1]
    area = ((sx[:, 1] - sx[:, 0]) * (sy[:, 2] - sy[:, 0])
            - (sy[:, 1] - sy[:, 0]) * (sx[:, 2] - sx[:, 0]))
    # negative area: reverse the vertex order, keep the negated area
    flip = area < 0
    sx[flip] = sx[flip, ::-1]
    sy[flip] = sy[flip, ::-1]
    area = np.abs(area)

    # clamp in float: off-screen vertices can lie far outside int64
    x0 = np.clip(np.floor(sx.min(axis=1) - 0.5), 0, w).astype(np.int64)
    x1 = np.clip(np.ceil(sx.max(axis=1) - 0.5) + 1, 0, w).astype(np.int64)
    y0 = np.clip(np.floor(sy.min(axis=1) - 0.5), 0, h).astype(np.int64)
    y1 = np.clip(np.ceil(sy.max(axis=1) - 0.5) + 1, 0, h).astype(np.int64)
    draw = np.flatnonzero((area > 0) & (x0 < x1) & (y0 < y1))

    sx, sy, attrs, flip = sx[draw].T, sy[draw].T, attrs[draw], flip[draw]
    attrs[flip] = attrs[flip, ::-1]
    a, b = [1, 2, 0], [2, 0, 1]
    ex = sx[b] - sx[a]
    ey = sy[b] - sy[a]
    z = attrs[:, :, 2]
    return _Screen(
        index=index[draw], shade=shade[draw], ax=sx[a], ay=sy[a], ex=ex, ey=ey,
        top_left=((ey == 0) & (ex > 0)) | (ey < 0),
        area=area[draw], z=np.ascontiguousarray(z.T),
        attr_over_z=np.ascontiguousarray((attrs / z[:, :, None]).transpose(1, 2, 0)),
        x0=x0[draw], x1=x1[draw], y0=y0[draw], y1=y1[draw],
    )


def _fragment_jobs(scr: _Screen):
    """Row spans of the triangles, in batches of at most _FRAGMENT_BATCH
    cells: int32 (triangle, y, x0, length) arrays per batch.

    A span is the part of one bounding-box row where the triangle can
    cover. Along a row each edge function is linear in x, so an edge with
    ey < 0 bounds x from below at its zero crossing c and one with ey > 0
    from above; a horizontal edge does not bound x. A span holds the
    integers x of the bounding box with c - m <= x for each lower edge and
    x <= c + m for each upper edge: c is in pixel-index coordinates
    (base + py * slope) and m = _SPAN_SLACK * (|ax| + (|ay| + y1) *
    |slope|) is far above the rounding error of the crossing and of the
    fold's edge expression, so every cell the fold would cover lies in a
    span. An edge whose margin is not finite bounds nothing. Spans are
    sorted by length and batched by length class: a class-k batch holds
    up to max(_FRAGMENT_BATCH >> max(k, 4), 1) spans of 2**(k-1) + 1 ..
    2**k pixels. The batches are views of one table of 16 bytes per span,
    built _FRAGMENT_BATCH rows at a time so the float temporaries stay
    small.
    """
    rows = scr.y1 - scr.y0
    ends = np.cumsum(rows)
    total = int(ends[-1]) if len(ends) else 0
    if not total:
        return
    # the crossing of an edge with the row through the pixel centres py,
    # less 0.5 for the pixel index, is base + py * slope, where py < y1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = scr.ex / scr.ey
        base = scr.ax - scr.ay * slope - 0.5
        margin = _SPAN_SLACK * (
            np.abs(scr.ax) + (np.abs(scr.ay) + scr.y1) * np.abs(slope))
        # a finite margin means a finite slope, base and bound
        lower = (scr.ey < 0) & np.isfinite(margin)
        upper = (scr.ey > 0) & np.isfinite(margin)
        lo_base = np.where(lower, base - margin, -np.inf)
        lo_slope = np.where(lower, slope, 0.0)
        hi_base = np.where(upper, base + margin, np.inf)
        hi_slope = np.where(upper, slope, 0.0)

    # chunks of whole triangles, each holding about _FRAGMENT_BATCH rows
    cuts = np.unique(np.concatenate([
        [0], np.searchsorted(ends, np.arange(_FRAGMENT_BATCH, total, _FRAGMENT_BATCH)),
        [len(rows)]])).tolist()
    cols = [[], [], [], []]
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        tri = np.repeat(np.arange(t0, t1), rows[t0:t1])
        # row r of all the rows is row y1 - (ends - r) of its triangle
        y = scr.y1[tri] - ends[tri] + np.arange(ends[t0] - rows[t0], ends[t1 - 1])
        py = y + 0.5
        lo = scr.x0[tri].astype(np.float64)
        hi = scr.x1[tri].astype(np.float64)
        for i in range(3):
            np.maximum(lo, np.ceil(lo_base[i].take(tri) + py * lo_slope[i].take(tri)),
                       out=lo)
            np.minimum(hi, np.floor(hi_base[i].take(tri) + py * hi_slope[i].take(tri)) + 1,
                       out=hi)
        length = hi - lo
        keep = length > 0
        for col, a in zip(cols, (tri, y, lo, length)):
            col.append(a[keep].astype(np.int32))
    cols = [np.concatenate(c) for c in cols]
    length = cols[3]
    if not len(length):
        return
    # sorted one column at a time, so at most one column is held twice;
    # numpy radix-sorts keys of 16 bits or less
    order = np.argsort(length.astype(np.min_scalar_type(int(length.max()))),
                       kind="stable")
    for i, c in enumerate(cols):
        cols[i] = c[order]
    del order, c
    tri, y, x0, length = cols
    # class k: lengths 2**(k-1) + 1 .. 2**k (class 0: length 1)
    classes = int(length[-1] - 1).bit_length() + 1
    start = 0
    for k, end in enumerate(np.searchsorted(length, (1 << np.arange(classes)) + 1).tolist()):
        # short spans: at most _FRAGMENT_BATCH >> 4 per batch, so their
        # per-span arrays stay a small part of the batch
        per_batch = max(_FRAGMENT_BATCH >> max(k, 4), 1)
        for s in range(start, end, per_batch):
            e = min(s + per_batch, end)
            yield tri[s:e], y[s:e], x0[s:e], length[s:e]
        start = end


def _resolve_depth(scr: _Screen, w, h):
    """Per-pixel z-buffer and the screen row of each pixel's winner.

    The fragment batches are dealt round-robin into one share per worker
    (`map_shares`); each share folds into its own pair, and the pairs
    fold together by the same lexicographic minimum of (depth, draw
    order), so the result does not depend on how the batches were dealt.
    """
    pairs = map_shares(lambda share: _fold_fragments(scr, share, w, h),
                       _fragment_jobs(scr))
    zbuf, owner = pairs[0]
    for z, o in pairs[1:]:
        np.minimum(owner, o, out=owner, where=z == zbuf)
        np.copyto(owner, o, where=z < zbuf)
        np.minimum(zbuf, z, out=zbuf)
    return zbuf, owner


def _fold_fragments(scr: _Screen, jobs, w, h):
    """Z-buffer and owner of the fragments of the given batches alone."""
    zbuf = np.full(h * w, np.inf)
    owner = np.full(h * w, _NO_OWNER, dtype=np.int64)
    # w > -0 (the smallest subnormal below zero) is w >= 0:
    # (w > 0) | ((w == 0) & top_left) for every float, NaN included
    threshold = np.where(scr.top_left, _BELOW_ZERO, 0.0)
    for job in jobs:
        # int64 before anything is indexed: int32 indices are slower
        tri, y, x0, length = (a.astype(np.int64) for a in job)
        gw = int(length.max())
        ox = np.arange(gw)
        # x + 0.5 is exact in float64, whatever the order of the sums
        px = (x0 + 0.5)[:, None] + ox
        py = y + 0.5
        covered = ox < length[:, None]
        area = scr.area.take(tri)[:, None]
        wv = np.empty(px.shape)
        inv_z = np.empty(px.shape)
        ok = np.empty(px.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i in range(3):
                # w = ex * (py - ay) - ey * (px - ax), in place; the first
                # edge's w is written where 1 / depth will be summed
                wi = inv_z if i == 0 else wv
                np.subtract(px, scr.ax[i].take(tri)[:, None], out=wi)
                wi *= scr.ey[i].take(tri)[:, None]
                term = py - scr.ay[i].take(tri)
                term *= scr.ex[i].take(tri)
                np.subtract(term[:, None], wi, out=wi)
                covered &= np.greater(wi, threshold[i].take(tri)[:, None], out=ok)
                # 1 / depth = w0 / area / z0 + w1 / area / z1 + w2 / area / z2
                wi /= area
                wi /= scr.z[i].take(tri)[:, None]
                if i:
                    inv_z += wv
            del px, wv  # freed before the fragments are gathered: a lower peak
            depth = np.divide(1.0, inv_z, out=inv_z)
        # NaN and inf never win: only finite depths compete
        covered &= np.less(depth, np.inf, out=ok)
        # a fragment behind the stored depth can no longer win; padding
        # cells past a span's end may index past the image, so clip
        pix = (y * w + x0)[:, None] + ox
        old = zbuf.take(pix, mode="clip")
        covered &= np.less_equal(depth, old, out=ok)
        cell = np.flatnonzero(covered)
        d = depth.reshape(-1)[cell]
        p = pix.reshape(-1)[cell]
        old = old.reshape(-1)[cell]
        # screen rows are in draw order, so the row stands for it
        o = tri[cell // gw]
        del covered, depth, pix, cell, ok
        np.minimum.at(zbuf, p, d)
        new = zbuf[p]
        owner[p[new < old]] = _NO_OWNER
        tie = d == new
        np.minimum.at(owner, p[tie], o[tie])
    return zbuf, owner


def _object_index(scr: _Screen, owner, obj_idx):
    """Write each covered pixel's winner's object into obj_idx, (P,) and
    0 (void) where no fragment won."""
    if len(scr.area):
        np.copyto(obj_idx, scr.index.take(owner, mode="clip"),
                  where=owner != _NO_OWNER)


def _shading_order(objects, obj_idx, owner):
    """The covered pixels grouped by object, each object's in pixel
    order, and their winners' screen rows: two int32 arrays (8 bytes per
    covered pixel), which `_shade` takes in place of owner, the int64
    winner table. obj_idx is the flat object index pass, already written
    (`_object_index`); `objects` is `SceneSpec.all_objects()`, and the
    texture of each object shown builds its caches here, once, not in two
    shading workers at the same time."""
    counts = np.bincount(obj_idx)
    # uint16 keys: a stable radix sort groups the pixels by object, void
    # (index 0) first, and each object's in pixel order. Pixels and screen
    # rows fit an int32: an image holds at most 2**28 pixels, and a view's
    # screen tables far fewer than 2**31 triangles
    pix = np.argsort(obj_idx, kind="stable")[counts[0]:].astype(np.int32)
    for i in np.flatnonzero(counts[1:]):
        objects[i].texture.sample(np.zeros((0, 2)))  # on no points
    return pix, owner.take(pix).astype(np.int32)


def _shade(scr: _Screen, objects, zbuf, pix, row, w, passes):
    """Interpolate attributes and sample textures for each pixel's winner,
    in batches of _SHADE_BATCH covered pixels that run through
    `map_ordered`; `objects` is `SceneSpec.all_objects()`, whose textures
    the object index picks, and pix and row are `_shading_order`'s.

    `passes` holds the flattened rgb (P, 3), object index (P,) and
    position (P, 3) passes, the positions of the passes the view has in
    the order of the attribute columns. The object index must already be
    written (`_object_index`); the others are written in place. It
    returns nothing.

    The batches cut pix, the covered pixels grouped by object, into
    fixed-size pieces across object boundaries. Above its inputs and
    outputs, shading holds each worker's batch: a batch gathers from the
    column-major tables with 1-D takes, holds its barycentric weights as
    (3, B) rows and interpolates one attribute column at a time into one
    reused buffer. Its objects' runs
    start where the object index of its pixels changes; it samples each
    run's texture into that run's rows of one colour buffer, then shades,
    rounds and scatters all its pixels at once, so its temporaries are a
    few pixel-sized vectors and the colour buffer, the textures' sampling
    aside.
    """
    rgb, obj_idx, *positions = passes
    aoz = scr.attr_over_z

    def shade(start):
        sel = slice(start, start + _SHADE_BATCH)
        # int64 before anything is indexed: int32 indices are slower
        p, r = pix[sel].astype(np.int64), row[sel].astype(np.int64)
        y, x = np.divmod(p, w)
        px = x + 0.5
        py = y + 0.5
        del y, x
        # lam = (ex * (py - ay) - ey * (px - ax)) / area, one edge per row
        area = scr.area.take(r)
        lam = np.empty((3, len(p)))
        col = np.empty(len(p))
        for k in range(3):
            np.subtract(py, scr.ay[k].take(r), out=lam[k])
            lam[k] *= scr.ex[k].take(r)
            np.subtract(px, scr.ax[k].take(r), out=col)
            col *= scr.ey[k].take(r)
            lam[k] -= col
            lam[k] /= area
        del px, py, area
        depth = zbuf.take(p)

        def interp(c, out):
            # perspective-correct interpolation of attribute column c
            # (attr/z affine in screen), one column at a time
            np.multiply(aoz[0, c].take(r), lam[0], out=out)
            for k in (1, 2):
                term = aoz[k, c].take(r)
                term *= lam[k]
                out += term
            out *= depth
            return out

        for k, dst in enumerate(positions):
            for c in range(3):
                if k == 0 and c == 2:
                    dst[:, 2][p] = depth  # pos3d_t's Z is the z-buffer
                else:
                    dst[:, c][p] = interp(3 * k + c, col)
        uv = np.empty((len(p), 2))
        for c in range(2):
            interp(aoz.shape[1] - 2 + c, uv[:, c])
        del lam, depth, col  # freed before the textures are sampled: a lower peak
        color = np.empty((len(p), 3))
        objs = obj_idx.take(p)
        bounds = [0, *(np.flatnonzero(objs[1:] != objs[:-1]) + 1).tolist(), len(p)]
        for s, e in zip(bounds[:-1], bounds[1:]):
            color[s:e] = objects[objs[s] - 1].texture.sample(uv[s:e])
        del uv
        color *= scr.shade.take(r)[:, None]
        color *= 255.0
        rgb[p] = np.clip(np.rint(color, out=color), 0, 255, out=color).astype(np.uint8)

    # each covered pixel is in exactly one batch, so the batches write
    # disjoint elements of the outputs
    map_ordered(shade, range(0, len(pix), _SHADE_BATCH))


def rasterize_frame(spec: SceneSpec, t: int, view: str) -> FramePasses:
    """Render one view at integer frame time t (1-based, inclusive)."""
    if not 1 <= t <= spec.frames:
        raise ContractError(f"frame time {t} outside [1, {spec.frames}]")
    intr = spec.rig.intrinsics
    w, h = intr.image_size
    has_prev = t > 1
    has_next = t < spec.frames

    pose_t = spec.camera_pose(t, view)
    pose_prev = spec.camera_pose(t - 1, view) if has_prev else None
    pose_next = spec.camera_pose(t + 1, view) if has_next else None

    objects = spec.all_objects()
    scr = _screen_setup(*_collect(objects, t, pose_t, pose_prev, pose_next), intr, w, h)
    zbuf, owner = _resolve_depth(scr, w, h)
    obj_idx = np.zeros((h, w), dtype=np.uint16)
    _object_index(scr, owner, obj_idx.reshape(-1))
    pix, row = _shading_order(objects, obj_idx.reshape(-1), owner)
    del owner  # freed before the rgb and position passes are allocated

    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    pos_t = np.full((h, w, 3), np.nan, dtype=np.float64)
    pos_prev = np.full((h, w, 3), np.nan, dtype=np.float64) if has_prev else None
    pos_next = np.full((h, w, 3), np.nan, dtype=np.float64) if has_next else None
    _shade(scr, objects, zbuf, pix, row, w, [
        rgb.reshape(-1, 3), obj_idx.reshape(-1),
        *(p.reshape(-1, 3) for p in (pos_t, pos_prev, pos_next) if p is not None),
    ])

    return FramePasses(  # the passes in field order
        rgb, pos_t, pos_prev, pos_next, obj_idx, frame_time=t)
