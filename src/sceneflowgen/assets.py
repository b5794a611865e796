"""Mesh and texture assets: the built-in primitive meshes and the
procedural checker, noise and gradient textures."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "Mesh", "Texture", "make_cuboid", "make_cylinder", "make_sphere",
    "make_torus", "PRIMITIVES", "primitive_mesh",
]

_DEGENERATE_AREA = 1e-12


def _triangle_areas(vertices, triangles):
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray  # (N, 3) object space
    triangles: np.ndarray  # (M, 3) vertex indices
    uv: np.ndarray  # (N, 2)
    asset_id: str

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        uv = np.asarray(self.uv, dtype=np.float64).reshape(-1, 2)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "uv", uv)
        if len(uv) != len(v):
            raise ConfigurationError(
                f"mesh {self.asset_id!r}: {len(uv)} uv entries for {len(v)} vertices"
            )
        if len(t) and (t.min() < 0 or t.max() >= len(v)):
            raise ConfigurationError(
                f"mesh {self.asset_id!r}: triangle index out of range"
            )
        if len(t) == 0:
            raise ConfigurationError(f"mesh {self.asset_id!r} has no triangles")
        if np.any(_triangle_areas(v, t) <= _DEGENERATE_AREA):
            raise ConfigurationError(
                f"mesh {self.asset_id!r} contains degenerate triangles"
            )


_TEXTURE_KINDS = ("checker", "noise", "gradient")
_NOISE_LATTICE = 32


@dataclass(frozen=True)
class Texture:
    kind: str
    params: dict = field(default_factory=dict)
    asset_id: str = ""

    def __post_init__(self):
        if self.kind not in _TEXTURE_KINDS:
            raise ConfigurationError(f"unknown texture kind {self.kind!r}")

    def sample(self, uv):
        """Evaluate the texture at uv coordinates (..., 2) -> RGB in [0, 1]."""
        uv = np.asarray(uv, dtype=np.float64)
        u = uv[..., 0]
        v = uv[..., 1]
        if self.kind == "checker":
            scale = self.params.get("scale", 4.0)
            ca = np.asarray(self.params.get("color_a", (0.9, 0.9, 0.9)))
            cb = np.asarray(self.params.get("color_b", (0.1, 0.1, 0.1)))
            parity = (np.floor(u * scale) + np.floor(v * scale)) % 2
            return np.where(parity[..., None] < 0.5, ca, cb)
        if self.kind == "gradient":
            c0 = np.asarray(self.params.get("color0", (0.0, 0.0, 0.0)))
            c1 = np.asarray(self.params.get("color1", (1.0, 1.0, 1.0)))
            axis = self.params.get("axis", "u")
            t = np.clip(u if axis == "u" else v, 0.0, 1.0)
            return c0 + (c1 - c0) * t[..., None]
        # noise kind: bilinear in a periodic lattice, each corner's value
        # gathered per channel with one flat index, products in place
        channels = self._noise_channels
        freq = self.params.get("frequency", 4.0)
        out = np.empty(u.shape + (3,))
        u, v = u.reshape(-1), v.reshape(-1)
        fx, x0 = _lattice_cell(u, freq)
        fy, y0 = _lattice_cell(v, freq)
        x1 = x0 + 1
        x1 %= _NOISE_LATTICE
        y1 = y0 + 1
        y1 %= _NOISE_LATTICE
        y0 *= _NOISE_LATTICE
        y1 *= _NOISE_LATTICE
        # flat indices of the corners (y0, x0), (y0, x1), (y1, x0), (y1, x1)
        i10 = y1 + x0
        i11 = np.add(y1, x1, out=y1)
        i00 = np.add(y0, x0, out=x0)
        i01 = np.add(y0, x1, out=x1)
        del y0, y1
        gx = 1 - fx
        gy = 1 - fy
        top, bot, term = (np.empty(len(u)) for _ in range(3))
        flat = out.reshape(-1, 3)
        for ch, lattice in enumerate(channels):
            # top * (1 - fy) + bot * fy, where top and bot are the rows'
            # a * (1 - fx) + b * fx. Every index is in range; "clip" keeps
            # take from buffering its output
            for row, (a, b) in ((top, (i00, i01)), (bot, (i10, i11))):
                lattice.take(a, out=row, mode="clip")
                row *= gx
                lattice.take(b, out=term, mode="clip")
                term *= fx
                row += term
            top *= gy
            bot *= fy
            np.add(top, bot, out=flat[:, ch])
        return out

    @functools.cached_property
    def _noise_channels(self):
        """Value-noise lattice, built on first use and kept read-only: one
        row per channel, (3, L * L), the value at (y, x) at y * L + x."""
        seed = int(self.params.get("seed", 0))
        rng = np.random.Generator(np.random.Philox(key=seed))
        lattice = rng.random((_NOISE_LATTICE, _NOISE_LATTICE, 3))
        channels = np.ascontiguousarray(lattice.reshape(-1, 3).T)
        channels.flags.writeable = False
        return channels


def _lattice_cell(u, freq):
    """Fraction within its cell and the cell's lattice column of each
    coordinate u * freq, wrapped to the lattice."""
    x = u * freq
    x %= _NOISE_LATTICE
    cell = np.floor(x)
    x -= cell
    index = cell.astype(int)
    index %= _NOISE_LATTICE
    return x, index


# ---------------------------------------------------------------------------
# Primitive meshes (unit-scale, centered at the origin)

_CYLINDER_SEGMENTS = 16
_SPHERE_RINGS, _SPHERE_SEGMENTS = 8, 12
_TORUS_MAJOR, _TORUS_MINOR = 0.35, 0.15  # ring and tube radii
_TORUS_SEGMENTS, _TORUS_SIDES = 12, 8


def make_cuboid():
    """Axis-aligned unit cube; 4 vertices per face so each face maps the
    full [0,1]^2 uv square."""
    verts, uvs, tris = [], [], []
    # (axis, sign) for each of the 6 faces
    for axis in range(3):
        for sign in (-1.0, 1.0):
            a1, a2 = [i for i in range(3) if i != axis]
            base = len(verts)
            for cu, cv in ((0, 0), (1, 0), (1, 1), (0, 1)):
                p = np.zeros(3)
                p[axis] = 0.5 * sign
                p[a1] = cu - 0.5
                p[a2] = cv - 0.5
                verts.append(p)
                uvs.append((cu, cv))
            tris.append((base, base + 1, base + 2))
            tris.append((base, base + 2, base + 3))
    return Mesh(np.array(verts), np.array(tris), np.array(uvs),
                "primitive:cuboid")


def make_cylinder():
    """Unit-height, unit-diameter cylinder along Y with caps."""
    segments = _CYLINDER_SEGMENTS
    verts, uvs, tris = [], [], []
    # side wall, duplicated seam vertex for clean uv wrap
    for i in range(segments + 1):
        ang = 2 * np.pi * i / segments
        x, z = 0.5 * np.cos(ang), 0.5 * np.sin(ang)
        u = i / segments
        verts.append((x, -0.5, z)); uvs.append((u, 0.0))
        verts.append((x, 0.5, z)); uvs.append((u, 1.0))
    for i in range(segments):
        b = 2 * i
        tris.append((b, b + 2, b + 3))
        tris.append((b, b + 3, b + 1))
    # caps
    for sign in (-1.0, 1.0):
        center = len(verts)
        verts.append((0.0, 0.5 * sign, 0.0)); uvs.append((0.5, 0.5))
        ring = len(verts)
        for i in range(segments):
            ang = 2 * np.pi * i / segments
            x, z = 0.5 * np.cos(ang), 0.5 * np.sin(ang)
            verts.append((x, 0.5 * sign, z))
            uvs.append((0.5 + x, 0.5 + z))
        for i in range(segments):
            j = ring + i
            k = ring + (i + 1) % segments
            if sign > 0:
                tris.append((center, j, k))
            else:
                tris.append((center, k, j))
    return Mesh(np.array(verts), np.array(tris), np.array(uvs),
                "primitive:cylinder")


def make_sphere():
    """Unit-diameter lat/long sphere."""
    rings, segments = _SPHERE_RINGS, _SPHERE_SEGMENTS
    verts, uvs, tris = [], [], []
    for r in range(rings + 1):
        theta = np.pi * r / rings
        for s in range(segments + 1):
            phi = 2 * np.pi * s / segments
            verts.append((
                0.5 * np.sin(theta) * np.cos(phi),
                -0.5 * np.cos(theta),
                0.5 * np.sin(theta) * np.sin(phi),
            ))
            uvs.append((s / segments, r / rings))
    stride = segments + 1
    for r in range(rings):
        for s in range(segments):
            a = r * stride + s
            b = a + stride
            if r > 0:
                tris.append((a, b, a + 1))
            if r < rings - 1:
                tris.append((a + 1, b, b + 1))
    return Mesh(np.array(verts), np.array(tris), np.array(uvs),
                "primitive:sphere")


def make_torus():
    major, minor = _TORUS_MAJOR, _TORUS_MINOR
    segments, sides = _TORUS_SEGMENTS, _TORUS_SIDES
    verts, uvs, tris = [], [], []
    for i in range(segments + 1):
        a = 2 * np.pi * i / segments
        for j in range(sides + 1):
            b = 2 * np.pi * j / sides
            r = major + minor * np.cos(b)
            verts.append((r * np.cos(a), minor * np.sin(b), r * np.sin(a)))
            uvs.append((i / segments, j / sides))
    stride = sides + 1
    for i in range(segments):
        for j in range(sides):
            a = i * stride + j
            b = a + stride
            tris.append((a, b, a + 1))
            tris.append((a + 1, b, b + 1))
    return Mesh(np.array(verts), np.array(tris), np.array(uvs),
                "primitive:torus")


PRIMITIVES = {
    "cuboid": make_cuboid,
    "cylinder": make_cylinder,
    "sphere": make_sphere,
    "torus": make_torus,
}


@functools.cache
def primitive_mesh(name) -> Mesh:
    """The one shared mesh of a built-in primitive, with read-only arrays."""
    if name not in PRIMITIVES:
        raise ConfigurationError(f"unknown primitive {name!r}")
    mesh = PRIMITIVES[name]()
    for a in (mesh.vertices, mesh.triangles, mesh.uv):
        a.flags.writeable = False
    return mesh
