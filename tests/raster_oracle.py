"""Reference rasterizer: the per-triangle loop that `render.rasterize_frame`
replaced, kept as the oracle its output must match byte for byte.

Each triangle is drawn in order (object in `all_objects()` order, triangle
index, clip-fan index) into the z-buffer, and a fragment replaces the
stored one only when it is strictly nearer.
"""

import numpy as np

from sceneflowgen.errors import ContractError
from sceneflowgen.render import (
    _AMBIENT, _LIGHT_DIR, NEAR_PLANE, FramePasses, _clip_near,
)


def _edge(ax, ay, bx, by, px, py):
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def oracle_rasterize_frame(spec, t, view):
    """One view at frame time t, drawn one triangle at a time."""
    if not 1 <= t <= spec.frames:
        raise ContractError(f"frame time {t} outside [1, {spec.frames}]")
    intr = spec.rig.intrinsics
    w, h = intr.image_size
    cx, cy = intr.principal_point
    f = intr.focal_px
    has_prev = t > 1
    has_next = t < spec.frames

    pose_t = spec.camera_pose(t, view)
    pose_prev = spec.camera_pose(t - 1, view) if has_prev else None
    pose_next = spec.camera_pose(t + 1, view) if has_next else None

    zbuf = np.full((h, w), np.inf, dtype=np.float64)
    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    obj_idx = np.zeros((h, w), dtype=np.uint16)
    pos_t = np.full((h, w, 3), np.nan, dtype=np.float64)
    pos_prev = np.full((h, w, 3), np.nan, dtype=np.float64) if has_prev else None
    pos_next = np.full((h, w, 3), np.nan, dtype=np.float64) if has_next else None

    # pixel center grids, reused per triangle bbox
    xs_all = np.arange(w) + 0.5
    ys_all = np.arange(h) + 0.5

    # an object's index is its 1-based place in draw order
    for index, obj in enumerate(spec.all_objects(), 1):
        base = obj.mesh.vertices * obj.scale
        r_t, t_t = obj.pose_at(t)
        world_t = base @ r_t.T + t_t
        cam_t = pose_t.world_to_camera(world_t)
        if has_prev:
            r_p, t_p = obj.pose_at(t - 1)
            attr_prev = pose_prev.world_to_camera(base @ r_p.T + t_p)
        if has_next:
            r_n, t_n = obj.pose_at(t + 1)
            attr_next = pose_next.world_to_camera(base @ r_n.T + t_n)

        # flat shading: per-triangle world normal at t
        tris = obj.mesh.triangles
        va, vb, vc = (world_t[tris[:, i]] for i in range(3))
        normals = np.cross(vb - va, vc - va)
        nlen = np.linalg.norm(normals, axis=1)
        nlen[nlen == 0] = 1.0
        shade = _AMBIENT + (1 - _AMBIENT) * np.abs(
            (normals / nlen[:, None]) @ _LIGHT_DIR
        )

        # cheap whole-object cull
        if cam_t[:, 2].max() <= NEAR_PLANE:
            continue

        uv = obj.mesh.uv
        for ti in range(len(tris)):
            idx = tris[ti]
            tri_cam = cam_t[idx]
            if tri_cam[:, 2].max() <= NEAR_PLANE:
                continue
            # attribute block per vertex: pos_t(3) pos_prev(3) pos_next(3) uv(2)
            blocks = [tri_cam]
            if has_prev:
                blocks.append(attr_prev[idx])
            else:
                blocks.append(np.zeros((3, 3)))
            if has_next:
                blocks.append(attr_next[idx])
            else:
                blocks.append(np.zeros((3, 3)))
            blocks.append(uv[idx])
            attrs = np.concatenate(blocks, axis=1)

            for cattrs in _clip_near(attrs):
                _raster_triangle(
                    cattrs[:, :3], cattrs, f, cx, cy, w, h, xs_all, ys_all,
                    zbuf, rgb, obj_idx, pos_t, pos_prev, pos_next,
                    index, obj.texture, shade[ti],
                )

    return FramePasses(  # the passes in field order
        rgb, pos_t, pos_prev, pos_next, obj_idx, frame_time=t)


def _raster_triangle(tri_cam, attrs, f, cx, cy, w, h, xs_all, ys_all,
                     zbuf, rgb, obj_idx, pos_t, pos_prev, pos_next,
                     index, texture, shade):
    z = tri_cam[:, 2]
    sx = f * tri_cam[:, 0] / z + cx
    sy = f * tri_cam[:, 1] / z + cy

    area = _edge(sx[0], sy[0], sx[1], sy[1], sx[2], sy[2])
    if area == 0:
        return
    if area < 0:
        sx = sx[::-1].copy()
        sy = sy[::-1].copy()
        z = z[::-1].copy()
        attrs = attrs[::-1].copy()
        area = -area

    x0 = max(int(np.floor(sx.min() - 0.5)), 0)
    x1 = min(int(np.ceil(sx.max() - 0.5)) + 1, w)
    y0 = max(int(np.floor(sy.min() - 0.5)), 0)
    y1 = min(int(np.ceil(sy.max() - 0.5)) + 1, h)
    if x0 >= x1 or y0 >= y1:
        return

    px = xs_all[x0:x1][None, :]
    py = ys_all[y0:y1][:, None]

    # edge function opposite each vertex; fill rule: top or left edges own
    # their zero set (top: horizontal going +x; left: going -y)
    ws = []
    covered = None
    for i in range(3):
        a, b = (i + 1) % 3, (i + 2) % 3
        wv = _edge(sx[a], sy[a], sx[b], sy[b], px, py)
        dy = sy[b] - sy[a]
        dx = sx[b] - sx[a]
        top_left = (dy == 0 and dx > 0) or (dy < 0)
        ok = (wv > 0) | ((wv == 0) & top_left)
        covered = ok if covered is None else (covered & ok)
        ws.append(wv)
    if not covered.any():
        return

    # 1 / depth is evaluated on every bounding-box cell, covered or not:
    # where the sum of w / z is 0 or overflows, it is inf or NaN there,
    # which only a cell the triangle does not cover can hold
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam = [wv / area for wv in ws]
        inv_z = lam[0] / z[0] + lam[1] / z[1] + lam[2] / z[2]
        depth = 1.0 / inv_z

    tile_z = zbuf[y0:y1, x0:x1]
    win = covered & (depth < tile_z)
    if not win.any():
        return

    # perspective-correct attribute interpolation (attr/z affine in screen)
    a_over_z = (
        lam[0][..., None] * (attrs[0] / z[0])
        + lam[1][..., None] * (attrs[1] / z[1])
        + lam[2][..., None] * (attrs[2] / z[2])
    )
    interp = a_over_z[win] * depth[win][..., None]
    interp[:, 2] = depth[win]  # keep pos3d_t.Z identical to the depth pass

    tile_z[win] = depth[win]
    obj_idx[y0:y1, x0:x1][win] = index
    pos_t[y0:y1, x0:x1][win] = interp[:, 0:3]
    if pos_prev is not None:
        pos_prev[y0:y1, x0:x1][win] = interp[:, 3:6]
    if pos_next is not None:
        pos_next[y0:y1, x0:x1][win] = interp[:, 6:9]

    color = texture.sample(interp[:, 9:11]) * shade
    rgb[y0:y1, x0:x1][win] = np.clip(np.rint(color * 255.0), 0, 255).astype(np.uint8)
