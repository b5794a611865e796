"""The batched rasterizer against the per-triangle oracle, byte for byte,
plus pinned dataset digests and a memory bound."""

import hashlib
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import sceneflowgen as sf
from sceneflowgen import render
from sceneflowgen.assets import Texture, make_cuboid
from sceneflowgen.cli import main
from sceneflowgen.geometry import CameraIntrinsics, CameraPose, StereoRig
from sceneflowgen.render import NEAR_PLANE, _clip_near, rasterize_frame
from sceneflowgen.scene import DrivingParams, FlyingThingsParams, ObjectInstance, SceneSpec
from sceneflowgen.trajectory import IDENTITY_QUAT, Trajectory

from conftest import set_cpus, small_params
from raster_oracle import oracle_rasterize_frame

PASSES = ("rgb", "depth", "pos3d_t", "pos3d_prev", "pos3d_next",
          "object_index", "material_index")
# 128 px / 32 mm sensor: focal_px = 4 * focal_mm, so 35 mm -> 140 px
INTR = CameraIntrinsics.from_sensor(35, 32, 128, 96)
TEXTURES = (
    Texture("checker", {"scale": 4.0, "color_a": (1, 1, 1), "color_b": (0.2, 0.2, 0.2)}),
    Texture("noise", {"seed": 11, "frequency": 5.0}),
    Texture("gradient", {"color0": (0.1, 0.2, 0.3), "color1": (0.9, 0.7, 0.5),
                         "axis": "v"}),
)


def box(center, scale, index, frames=2, end=None, rotation=None, materials=1):
    """Cuboid object; `end` moves it linearly to another center by the
    last frame, `materials` > 1 alternates textures over its triangles."""
    mesh = make_cuboid()
    q = IDENTITY_QUAT if rotation is None else rotation.as_quat()
    if end is None:
        traj = Trajectory.static(center, q, t0=1.0, t1=float(frames))
    else:
        traj = Trajectory(np.array([1.0, float(frames)]),
                          np.array([center, end], dtype=np.float64),
                          np.array([q, q]))
    return ObjectInstance(
        mesh=mesh,
        materials={m + 1: TEXTURES[(index + m) % len(TEXTURES)]
                   for m in range(materials)},
        triangle_materials=np.arange(len(mesh.triangles)) % materials + 1,
        scale=np.asarray(scale, dtype=np.float64),
        trajectory=traj, object_index=index,
    )


def scene(objects, intr=INTR, frames=2, camera_end=None):
    """Static (or linearly moving) camera at the origin looking down +Z;
    objects[0] plays the ground-plane slot, so it is drawn first."""
    q = Rotation.identity().as_quat()
    end = [0.0, 0.0, 0.0] if camera_end is None else camera_end
    rig_traj = Trajectory(np.array([1.0, float(frames)]),
                          np.array([[0.0, 0.0, 0.0], end]), np.array([q, q]))
    return SceneSpec(
        seed=0, frames=frames, rig_trajectory=rig_traj, objects=[],
        ground_plane=objects[0], background_objects=list(objects[1:]),
        rig=StereoRig(CameraPose(), 1.0, intr),
    )


def assert_matches_oracle(spec, times=None, views=("left", "right")):
    """Every pass of every requested view equals the oracle's bytes."""
    out = {}
    for t in times or range(1, spec.frames + 1):
        for view in views:
            new = rasterize_frame(spec, t, view)
            ref = oracle_rasterize_frame(spec, t, view)
            for name in PASSES:
                a, b = getattr(new, name), getattr(ref, name)
                if b is None:
                    assert a is None, (t, view, name)
                    continue
                assert a.dtype == b.dtype and a.shape == b.shape, (t, view, name)
                assert a.tobytes() == b.tobytes(), (t, view, name)
            out[(t, view)] = new
    return out


@pytest.mark.parametrize("seed", [42, 7, 1042])
def test_seeded_flyingthings_scenes(seed):
    assert_matches_oracle(sf.generate_flyingthings_scene(seed, small_params()))


def test_flyingthings_default_density():
    params = FlyingThingsParams(frames=3, width=96, height=64)
    assert_matches_oracle(sf.generate_flyingthings_scene(42, params), times=[2])


@pytest.mark.parametrize("focal_mm", [35.0, 15.0])
def test_driving_preset(focal_mm):
    params = DrivingParams(frames=3, width=96, height=64, focal_mm=focal_mm)
    assert_matches_oracle(sf.generate_driving_preset(3, params))


def test_quads_crossing_near_plane():
    # boxes that reach behind the camera: their side faces cross Z = near,
    # and the tilted one clips at varied angles
    spec = scene([
        box((0, 0, 30.25), (60, 60, 0.5), 1),
        box((0.3, 0.2, 0.3), (1.0, 0.8, 1.0), 2, end=(0.1, 0.0, 0.6)),
        box((-0.8, 0.5, 0.5), (0.6, 0.6, 2.0), 3,
            rotation=Rotation.from_euler("xyz", [0.3, -0.4, 0.2])),
    ])
    fans = {1: 0, 2: 0}
    for t in (1, 2):
        for obj in spec.all_objects():
            r, p = obj.pose_at(t)
            cam = (obj.mesh.vertices * obj.scale) @ r.T + p
            for tri in obj.mesh.triangles:
                z = cam[tri, 2]
                if (z > NEAR_PLANE).any() and not (z > NEAR_PLANE).all():
                    pieces = _clip_near(cam[tri], np.zeros((3, 11)))
                    fans[len(pieces)] += 1
    assert fans[1] > 0 and fans[2] > 0
    assert_matches_oracle(spec)


def test_exact_depth_tie_goes_to_earlier_draw():
    # two boxes with identical geometry: every fragment ties in depth
    a = box((0, 0, 10.25), (4, 4, 0.5), 1)
    b = box((0, 0, 10.25), (4, 4, 0.5), 2)
    for first, second in ((a, b), (b, a)):
        out = assert_matches_oracle(scene([first, second]), times=[1])
        idx = out[(1, "left")].object_index
        assert set(np.unique(idx)) == {0, first.object_index}
    # coplanar faces of different sizes tie at some pixels; the earlier
    # draw's larger triangles are evaluated in a later fragment batch
    big = box((0, 0, 10.25), (4, 4, 0.5), 1)
    small = box((0.3, 0.2, 10.25), (1, 1, 0.5), 2)
    idx = assert_matches_oracle(scene([big, small]), times=[1])[(1, "left")].object_index
    alone = rasterize_frame(scene([small]), 1, "left").object_index > 0
    assert 0 < int((idx[alone] == 1).sum()) < int(alone.sum())


def test_shared_edges_follow_top_left_rule():
    # Z = 14 and f = 140: X = -2.75 projects to x = 36.5 exactly, so the
    # outer edges and the shared boundary at X = 0.25 (x = 66.5) run
    # through pixel centers, as does each face's diagonal
    left = box((-1.25, 0, 14.25), (3, 5.5, 0.5), 1, materials=2)
    right = box((1.5, 0, 14.25), (2.5, 5.5, 0.5), 2, materials=2)
    fp = assert_matches_oracle(scene([left, right]), times=[1])[(1, "left")]
    # each pixel center on a shared edge belongs to exactly one side, and
    # of two opposite outer edges exactly one owns its centers
    assert int(fp.valid.sum()) == 55 * 55
    assert set(np.unique(fp.object_index)) == {0, 1, 2}
    assert len(set(np.unique(fp.material_index)) - {0}) == 4


def test_offscreen_sliver_and_edge_on_triangles():
    specs = [
        ((0, 0, 40.25), (8, 8, 0.5), {}),
        ((-30, 0, 10), (2, 2, 2), {}),  # off the left edge
        ((0, 25, 10), (2, 2, 2), {}),  # below the image
        ((0, 0, -5), (2, 2, 2), {}),  # behind the camera
        ((4, -3, 8), (6, 6, 1), {}),  # partly off-screen
        ((0, 1, 12), (6, 0.002, 0.5), {}),  # sub-pixel sliver
        ((-1, 0.5, 9), (3, 1, 2), {}),  # bottom face in the plane Y = 0
        ((0.7, -0.4, 1.5), (0.05, 3, 0.05),  # thin, tall, near
         {"rotation": Rotation.from_euler("z", 0.7)}),
    ]
    objects = [box(c, s, i + 1, frames=3, **kw) for i, (c, s, kw) in enumerate(specs)]
    assert_matches_oracle(scene(objects, frames=3, camera_end=(0.4, -0.2, 0.5)))


def test_nothing_in_front_of_the_camera():
    spec = scene([box((0, 0, -5), (2, 2, 2), 1), box((0, 0, 0.05), (1, 1, 0.05), 2)])
    fp = assert_matches_oracle(spec, times=[1])[(1, "left")]
    assert not fp.valid.any() and np.isnan(fp.depth).all()


@pytest.mark.parametrize("size", [(1, 1), (4, 4)])
def test_tiny_images(size):
    w, h = size
    assert_matches_oracle(
        sf.generate_flyingthings_scene(5, small_params(width=w, height=h)))
    intr = CameraIntrinsics.from_sensor(35, 32, w, h)
    assert_matches_oracle(scene([box((0, 0, 10.25), (4, 4, 0.5), 1),
                                 box((0.1, 0, 6.25), (0.5, 0.5, 0.5), 2)], intr))


# The scenes of the tests above whose bytes hinge on how fragments and
# pixels are split up: depth ties within a batch (identical boxes) and
# across batches (coplanar faces of different sizes), near-plane clip
# fans, and 1x1 and 4x4 images.
WORKER_SCENES = {
    "ties": lambda: scene([box((0, 0, 10.25), (4, 4, 0.5), 1),
                           box((0, 0, 10.25), (4, 4, 0.5), 2),
                           box((0.3, 0.2, 10.25), (1, 1, 0.5), 3)]),
    "near-plane": lambda: scene([
        box((0, 0, 30.25), (60, 60, 0.5), 1),
        box((0.3, 0.2, 0.3), (1.0, 0.8, 1.0), 2, end=(0.1, 0.0, 0.6)),
        box((-0.8, 0.5, 0.5), (0.6, 0.6, 2.0), 3,
            rotation=Rotation.from_euler("xyz", [0.3, -0.4, 0.2])),
    ]),
    "1x1": lambda: sf.generate_flyingthings_scene(
        5, small_params(width=1, height=1)),
    "4x4": lambda: scene([box((0, 0, 10.25), (4, 4, 0.5), 1),
                          box((0.1, 0, 6.25), (0.5, 0.5, 0.5), 2)],
                         CameraIntrinsics.from_sensor(35, 32, 4, 4)),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(WORKER_SCENES))
def test_worker_count_does_not_change_bytes(monkeypatch, name, workers):
    # small batches, so every worker gets several fragment batches and
    # several shading batches; the 4x4 scene has only a few short spans
    monkeypatch.setattr(render, "_FRAGMENT_BATCH", 16)
    monkeypatch.setattr(render, "_SHADE_BATCH", 64)
    set_cpus(monkeypatch, workers)
    shares = []
    fold = render._fold_fragments

    def counted(scr, jobs, w, h):
        shares.append(len(jobs))
        return fold(scr, jobs, w, h)

    monkeypatch.setattr(render, "_fold_fragments", counted)
    spec = WORKER_SCENES[name]()
    assert_matches_oracle(spec, times=[1])
    if min(spec.rig.intrinsics.image_size) > 1:
        # one share per worker for each view, none of them empty
        assert len(shares) == 2 * workers and min(shares) > 0, shares


def test_more_workers_than_cores(monkeypatch):
    # eight workers on the tie scene, switching as often as possible: a
    # lost z-buffer fold or a shading batch that wrote outside its pixels
    # would show in the bytes
    monkeypatch.setattr(render, "_FRAGMENT_BATCH", 64)
    monkeypatch.setattr(render, "_SHADE_BATCH", 16)
    set_cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert_matches_oracle(WORKER_SCENES["ties"](), times=[1],
                                  views=("left",))
    finally:
        sys.setswitchinterval(interval)


class PairedTexture(Texture):
    """A texture whose first two samples of pixels wait for each other."""

    def __init__(self, *args, barrier, threads, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_paired", (barrier, threads))

    def sample(self, uv):
        barrier, threads = self._paired
        if len(uv) and len(threads) < 2:
            threads.append(threading.get_ident())
            barrier.wait()
        return super().sample(uv)


def test_two_cpus_render_two_units_at_once(monkeypatch):
    # each of the two z-buffer shares, and the first two shading batches,
    # wait until another one has started alongside it
    monkeypatch.setattr(render, "_FRAGMENT_BATCH", 256)
    monkeypatch.setattr(render, "_SHADE_BATCH", 64)
    set_cpus(monkeypatch, 2)
    fold_barrier, shade_barrier = (threading.Barrier(2, timeout=30)
                                   for _ in range(2))
    fold_threads, shade_threads = [], []
    fold = render._fold_fragments

    def paired_fold(*args):
        fold_threads.append(threading.get_ident())
        fold_barrier.wait()
        return fold(*args)

    monkeypatch.setattr(render, "_fold_fragments", paired_fold)
    obj = box((0, 0, 10.25), (4, 4, 0.5), 1)
    texture = PairedTexture("checker", {"scale": 4.0}, barrier=shade_barrier,
                            threads=shade_threads)
    obj.materials[1] = texture
    fp = rasterize_frame(scene([obj]), 1, "left")
    assert fp.valid.sum() > 2 * render._SHADE_BATCH
    for threads in (fold_threads, shade_threads):
        assert len(threads) == 2 and len(set(threads)) == 2
        assert threading.get_ident() not in threads


# SHA-256 over manifest.json and every file it lists, in manifest order,
# of `sfgen generate --frames 2 --size 96x64`, recorded with the
# per-triangle rasterizer.
GENERATE_DIGESTS = {
    ("flyingthings", 42): "554e0dde307429bb526e901633f4d0151ebe255c0aea841b3ab834fe52459fbf",
    ("flyingthings", 7): "5cc237d18370eb89e72c308f45ef6646f5bda0ccef92b1a1c6eadc753e278b54",
    ("driving", 3): "ddf21a85213c6e2678c6e81b5b9c3ffe87e18af32c1183b31bf5dd032afaba6b",
}


@pytest.mark.parametrize("preset,seed", sorted(GENERATE_DIGESTS))
def test_small_generate_digest_is_pinned(tmp_path, preset, seed):
    out = tmp_path / "ds"
    assert main(["generate", "--preset", preset, "--seed", str(seed),
                 "--frames", "2", "--size", "96x64", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "manifest.json").read_bytes())
    manifest = json.loads((out / "manifest.json").read_text())
    for frame in manifest["frames"]:
        for view in ("left", "right"):
            for rel in frame["files"][view].values():
                digest.update((out / rel).read_bytes())
    assert digest.hexdigest() == GENERATE_DIGESTS[(preset, seed)]


def _peak_bytes(n_small):
    """tracemalloc peak of one view: a quad filling the image behind a
    grid of n_small overlapping boxes (12 triangles, about 20x20 px each)."""
    intr = CameraIntrinsics.from_sensor(35, 32, 320, 240)  # f = 350 px
    objects = [box((0, 0, 30.25), (80, 80, 0.5), 1)]
    cols = 40
    for i in range(n_small):
        x = (i % cols - cols / 2 + 0.5) * 0.45
        y = (i // cols - n_small / cols / 2) * 0.45
        objects.append(box((x, y, 20 + 0.001 * i), (1.0, 1.0, 1.0), i + 2,
                           rotation=Rotation.from_euler("xy", [0.4, 0.3])))
    spec = scene(objects, intr)
    tracemalloc.start()
    try:
        rasterize_frame(spec, 1, "left")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_view_memory_does_not_grow_with_fragment_count(monkeypatch):
    # 4800 more triangles add about 1.4M fragments: held at once they
    # would take some 50 MB more. The per-triangle tables may grow by
    # under 1 kB per triangle; the fragment batches have a fixed size.
    # One worker, so the peaks do not move with how the batches of two
    # workers happen to overlap.
    set_cpus(monkeypatch, 1)
    base = _peak_bytes(400)
    doubled = _peak_bytes(800)
    assert doubled - base < 400 * 12 * 1024, (base, doubled)
