"""The batched rasterizer against the per-triangle oracle, byte for byte,
plus pinned dataset digests and a memory bound."""

import hashlib
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import sceneflowgen as sf
from sceneflowgen import render
from sceneflowgen.assets import Texture, make_cuboid
from sceneflowgen.cli import main
from sceneflowgen.geometry import CameraIntrinsics, StereoRig
from sceneflowgen.render import NEAR_PLANE, _clip_near, rasterize_frame
from sceneflowgen.scene import DrivingParams, FlyingThingsParams, ObjectInstance, SceneSpec
from sceneflowgen.trajectory import IDENTITY_QUAT, Trajectory

from conftest import set_cpus, small_params
from raster_oracle import oracle_rasterize_frame

PASSES = ("rgb", "depth", "pos3d_t", "pos3d_prev", "pos3d_next", "object_index")
# 128 px / 32 mm sensor: focal_px = 4 * focal_mm, so 35 mm -> 140 px
INTR = CameraIntrinsics.from_sensor(35, 32, 128, 96)
TEXTURES = (
    Texture("checker", {"scale": 4.0, "color_a": (1, 1, 1), "color_b": (0.2, 0.2, 0.2)}),
    Texture("noise", {"seed": 11, "frequency": 5.0}),
    Texture("gradient", {"color0": (0.1, 0.2, 0.3), "color1": (0.9, 0.7, 0.5),
                         "axis": "v"}),
)


def box(center, scale, index, frames=2, end=None, rotation=None, texture=None):
    """Cuboid object; `end` moves it linearly to another center by the
    last frame. The texture defaults to one of TEXTURES by index; the
    object's own index is its place in the scene's draw order."""
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
        texture=TEXTURES[index % len(TEXTURES)] if texture is None else texture,
        scale=np.asarray(scale, dtype=np.float64),
        trajectory=traj,
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
        rig=StereoRig(1.0, intr),
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
                    pieces = _clip_near(cam[tri])
                    fans[len(pieces)] += 1
    assert fans[1] > 0 and fans[2] > 0
    assert_matches_oracle(spec)


def test_exact_depth_tie_goes_to_earlier_draw():
    # two boxes with identical geometry: every fragment ties in depth
    a = box((0, 0, 10.25), (4, 4, 0.5), 1)
    b = box((0, 0, 10.25), (4, 4, 0.5), 2)
    for first, second in ((a, b), (b, a)):
        # the oracle's bytes tell the two textures apart
        out = assert_matches_oracle(scene([first, second]), times=[1])
        idx = out[(1, "left")].object_index
        assert set(np.unique(idx)) == {0, 1}
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
    left = box((-1.25, 0, 14.25), (3, 5.5, 0.5), 1)
    right = box((1.5, 0, 14.25), (2.5, 5.5, 0.5), 2)
    fp = assert_matches_oracle(scene([left, right]), times=[1])[(1, "left")]
    # each pixel center on a shared edge belongs to exactly one side, and
    # of two opposite outer edges exactly one owns its centers
    assert int(fp.valid.sum()) == 55 * 55
    assert set(np.unique(fp.object_index)) == {0, 1, 2}


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


def _mixed_texture_scene():
    """A checker wall, a gradient speck of one or two pixels and a noise
    box in front of it. In the right view the wall covers 2867 pixels,
    the speck one and the box 156, so the 5-pixel batch from sorted
    pixel 2865 holds the last two of the wall, the speck and the first
    two of the box."""
    checker, noise, gradient = TEXTURES
    return scene([box((0, 0, 10.25), (3.9, 4, 0.5), 1, texture=checker),
                  box((0.6, -0.5, 6.0), (0.05, 0.05, 0.05), 2, texture=gradient),
                  box((-0.3, 0.4, 6.25), (0.5, 0.5, 0.5), 3, texture=noise)])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("batch", [1, 5, 1 << 15])
def test_shading_batches_cross_objects(monkeypatch, batch, workers):
    # a shading batch runs across object boundaries: it samples each of
    # its objects' textures into that object's rows of one colour buffer
    monkeypatch.setattr(render, "_SHADE_BATCH", batch)
    set_cpus(monkeypatch, workers)
    units = []
    ordered = render.map_ordered
    sample = Texture.sample
    # the sizes of the texture samples of the batch a thread is shading;
    # the oracle's samples fall outside every batch and are not recorded
    shading = threading.local()

    def recorded(fn, items):
        items = list(items)
        sizes = [[] for _ in items]
        units.append(sizes)

        def traced(i):
            shading.sizes = sizes[i]
            try:
                return fn(items[i])
            finally:
                shading.sizes = None

        return ordered(traced, range(len(items)))

    def traced_sample(self, uv):
        sizes = getattr(shading, "sizes", None)
        if sizes is not None and len(uv):
            sizes.append(len(uv))
        return sample(self, uv)

    monkeypatch.setattr(render, "map_ordered", recorded)
    monkeypatch.setattr(Texture, "sample", traced_sample)
    out = assert_matches_oracle(_mixed_texture_scene())
    covered = [int(fp.valid.sum()) for fp in out.values()]
    assert [len(u) for u in units] == [-(-n // batch) for n in covered]
    # one non-empty sample per object of a batch, of that object's pixels
    # in it: the runs of the batch's piece of the pixels sorted by object
    for sizes, fp in zip(units, out.values()):
        objs = np.sort(fp.object_index[fp.valid], kind="stable")
        assert sizes == [np.unique(objs[s:s + batch], return_counts=True)[1].tolist()
                         for s in range(0, len(objs), batch)]
    # one object per pixel, three in a batch that spans the speck, all
    # three in the one large batch
    assert max(len(b) for u in units for b in u) == (1 if batch == 1 else 3)
    if batch > max(covered):
        assert all(len(u) == 1 for u in units)


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
    texture = PairedTexture("checker", {"scale": 4.0}, barrier=shade_barrier,
                            threads=shade_threads)
    obj = box((0, 0, 10.25), (4, 4, 0.5), 1, texture=texture)
    fp = rasterize_frame(scene([obj]), 1, "left")
    assert fp.valid.sum() > 2 * render._SHADE_BATCH
    for threads in (fold_threads, shade_threads):
        assert len(threads) == 2 and len(set(threads)) == 2
        assert threading.get_ident() not in threads


def _value(lo, hi):
    """Quarter steps (exact pixel-centre and corner hits) or any float."""
    return st.one_of(st.integers(int(4 * lo), int(4 * hi)).map(lambda k: k / 4),
                     st.floats(lo, hi))


@st.composite
def _random_box(draw, index):
    """A cuboid in front of the camera or straddling Z = near, maybe
    tilted, maybe moving between the two frames."""
    if draw(st.booleans()):
        center = (draw(_value(-3, 3)), draw(_value(-3, 3)), draw(_value(0.5, 12)))
    else:
        # through the near plane: some faces are clipped into fans
        center = (draw(_value(-1, 1)), draw(_value(-1, 1)), draw(_value(-0.5, 0.6)))
    scale = tuple(draw(_value(0.05, 4)) for _ in range(3))
    rotation = None
    if draw(st.booleans()):
        rotation = Rotation.from_euler("xyz", [draw(st.floats(-np.pi, np.pi))
                                               for _ in range(3)])
    end = None
    if draw(st.booleans()):
        end = tuple(c + draw(st.floats(-0.5, 0.5)) for c in center)
    return dict(center=center, scale=scale, index=index, end=end, rotation=rotation)


@st.composite
def _random_scene(draw):
    """1-4 boxes on a 1-24 px image; a box may repeat an earlier one's
    geometry (every fragment ties in depth) or share its front-face depth
    (coplanar faces of different sizes tie at some pixels)."""
    boxes = []
    for i in range(draw(st.integers(1, 4))):
        b = draw(_random_box(i + 1))
        tie = draw(st.sampled_from([None, "same", "coplanar"])) if boxes else None
        if tie == "same":
            b = dict(draw(st.sampled_from(boxes)), index=i + 1)
        elif tie == "coplanar":
            # two unrotated boxes with the same Z extent at frame 1
            other = draw(st.sampled_from(boxes))
            other["rotation"] = None
            b.update(rotation=None, center=(*b["center"][:2], other["center"][2]),
                     scale=(*b["scale"][:2], other["scale"][2]))
        boxes.append(b)
    size = (draw(st.integers(1, 24)), draw(st.integers(1, 24)))
    # a 32 mm focal length on the 32 mm sensor makes focal_px the width,
    # so quarter-step coordinates put edges through pixel centres
    intr = CameraIntrinsics.from_sensor(draw(st.sampled_from([8.0, 32.0, 35.0])), 32,
                                        *size)
    return scene([box(**b) for b in boxes], intr)


@settings(max_examples=100, deadline=None)
@given(spec=_random_scene(), t=st.sampled_from([1, 2]),
       workers=st.integers(1, 3),
       fragment_batch=st.sampled_from([1, 4, 16, 64, 1 << 16]),
       shade_batch=st.sampled_from([1, 3, 16, 1 << 15]))
def test_random_scenes_match_oracle(spec, t, workers, fragment_batch, shade_batch):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(render, "_FRAGMENT_BATCH", fragment_batch)
        mp.setattr(render, "_SHADE_BATCH", shade_batch)
        set_cpus(mp, workers)
        for view in ("left", "right"):
            new = rasterize_frame(spec, t, view)
            ref = oracle_rasterize_frame(spec, t, view)
            for name in PASSES:
                a, b = getattr(new, name), getattr(ref, name)
                assert (a is None) == (b is None), (view, name)
                assert b is None or (a.dtype == b.dtype and a.shape == b.shape
                                     and a.tobytes() == b.tobytes()), \
                    (view, name)


@pytest.mark.parametrize("size", [(4, 11), (7, 11)])
def test_box_with_a_zero_depth_sum_matches_oracle(size):
    # a box through the near plane on a narrow image: the sum of w / z is
    # 0 at a bounding-box cell of a clipped fan, where the oracle's
    # 1 / depth divides by zero; it runs under the error filter of
    # RuntimeWarning all the same
    intr = CameraIntrinsics.from_sensor(8.0, 32, *size)
    assert_matches_oracle(scene([box((0, 0.75, 0), (2.15, 3, 3.25), 1)], intr))


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
