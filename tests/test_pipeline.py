import dataclasses
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import sceneflowgen as sf
from sceneflowgen import _parallel, formats, groundtruth, pipeline
from sceneflowgen.cli import main
from sceneflowgen.errors import ParseError

import pins
from conftest import derive_maps, set_cpus, small_params
from test_cli import GEN_ARGS, RENDER_PASSES, tree_bytes


class LiveViews:
    """Wraps a pass producer; counts the FramePasses it returned that are
    still alive, and records view_of(*args), the (t, view) of every
    call."""

    def __init__(self, fn, view_of):
        self.fn = fn
        self.view_of = view_of
        self.calls = []
        self.live = 0
        self.peak = 0

    def __call__(self, *args):
        passes = self.fn(*args)
        self.calls.append(self.view_of(*args))
        self.live += 1
        self.peak = max(self.peak, self.live)
        weakref.finalize(passes, self._released)
        return passes

    def _released(self):
        self.live -= 1


def view_major(frames):
    """(t, view) in the order the frame loop makes them: all left views
    first, each view's frames last to first."""
    return [(t, view) for view in ("left", "right") for t in range(frames, 0, -1)]


def small_spec(frames):
    params = small_params(n_objects_range=(2, 3), n_background=4, frames=frames,
                          width=64, height=48)
    return sf.generate_flyingthings_scene(5, params)


@pytest.mark.parametrize("frames", [2, 6])
def test_generate_holds_one_view(tmp_path, monkeypatch, frames):
    counter = LiveViews(pipeline.rasterize_frame,
                        lambda spec, t, view: (t, view))
    monkeypatch.setattr(pipeline, "rasterize_frame", counter)
    manifest = pipeline.generate_dataset(small_spec(frames), tmp_path / "ds")
    assert counter.calls == view_major(frames)
    assert counter.peak == 1
    assert manifest["complete"] is True
    assert [f["time"] for f in manifest["frames"]] == list(range(1, frames + 1))
    assert all(f["files"].keys() == {"left", "right"} for f in manifest["frames"])


def test_no_next_frame_table_is_held_through_derive_frame(tmp_path,
                                                          monkeypatch):
    # frame t + 1's tables give frame t's mask and are dropped before
    # frame t's per-view maps are derived
    tables = LiveViews(groundtruth.next_frame_tables,
                       lambda passes: passes.frame_time)
    monkeypatch.setattr(groundtruth, "next_frame_tables", tables)
    derived = []
    real_derive = groundtruth.derive_frame

    def derive(*args):
        derived.append(tables.live)
        return real_derive(*args)

    monkeypatch.setattr(groundtruth, "derive_frame", derive)
    pipeline.generate_dataset(small_spec(4), tmp_path / "ds")
    assert tables.calls == [4, 3, 2] * 2
    assert derived == [0] * 8
    assert tables.live == 0


def test_rendering_runs_no_ground_truth_or_write(tmp_path, monkeypatch):
    # the render layer makes passes only: no occlusion mask is computed and
    # no file written while a view is being rasterized
    rendering = []
    inside = []

    def spy(fn):
        def call(*args, **kwargs):
            inside.append((fn.__name__, bool(rendering)))
            return fn(*args, **kwargs)
        return call

    def rasterize(*args, **kwargs):
        rendering.append(args[1:3])
        try:
            return real_rasterize(*args, **kwargs)
        finally:
            rendering.pop()

    real_rasterize = pipeline.rasterize_frame
    monkeypatch.setattr(pipeline, "rasterize_frame", rasterize)
    monkeypatch.setattr(groundtruth, "compute_occlusion_mask",
                        spy(groundtruth.compute_occlusion_mask))
    monkeypatch.setattr(pipeline, "write_frame", spy(pipeline.write_frame))
    pipeline.generate_dataset(small_spec(3), tmp_path / "ds")
    assert sorted(set(inside)) == [("compute_occlusion_mask", False),
                                   ("write_frame", False)]
    assert inside.count(("compute_occlusion_mask", False)) == 4


def test_generate_peak_holds_no_source_beside_the_passes(tmp_path, monkeypatch):
    # 240x135, 3 frames: with frame t's OcclusionSource held while frame
    # t + 1's position passes were allocated before its z-buffer fold, the
    # traced peak read 11,765,288 bytes on one CPU and on two, set by the
    # screen tables of frame 2. It must stay more than one float64
    # position pass lower. A first run builds the textures' caches.
    spec = sf.generate_flyingthings_scene(42, sf.FlyingThingsParams(
        frames=3, width=240, height=135))
    pipeline.generate_dataset(spec, tmp_path / "warm")
    bound = 11_765_288 - 135 * 240 * 3 * 8
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            pipeline.generate_dataset(spec, tmp_path / f"ds-{cpus}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (cpus, peak, bound)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_view_is_written_with_no_whole_file_buffer(tmp_path, monkeypatch,
                                                     cpus):
    # one 960x540 view's ground-truth maps, each cast as its file is
    # written: the traced peak above the maps stays below the size of the
    # largest file, a .flo, where a whole-file buffer of it alone reached it
    rng = np.random.default_rng(0)
    maps = {name: rng.random((540, 960) + channels, dtype=np.float32)
            for name, channels in (("disparity", ()), ("flow_fwd", (2,)),
                                   ("dispchange_fwd", ()), ("flow_bwd", (2,)),
                                   ("dispchange_bwd", ()))}
    maps["motion_boundaries"] = maps["disparity"] < 0.1
    maps["occlusion_fwd"] = maps["disparity"] > 0.9
    largest = 12 + 540 * 960 * 2 * 4
    set_cpus(monkeypatch, cpus)
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        files = pipeline.write_frame(tmp_path / "scene", "scene", 1, "left",
                                     maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < largest, (cpus, peak, largest)
    flow = tmp_path / files["flow_fwd"]
    assert flow.stat().st_size == largest
    assert formats.read(flow).tobytes() == maps["flow_fwd"].tobytes()


def test_derive_loads_each_view_once_and_holds_one(tmp_path, monkeypatch):
    pipeline.generate_dataset(small_spec(3), tmp_path / "ds")
    # a view's files are named {t:04d}_{L|R}
    counter = LiveViews(pipeline.load_frame_passes, lambda files, t, k: (
        t, {"L": "left", "R": "right"}[files["rgb"].stem[-1]]))
    monkeypatch.setattr(pipeline, "load_frame_passes", counter)
    assert main(["derive", str(tmp_path / "ds"), "--out", str(tmp_path / "re")]) == 0
    assert counter.calls == view_major(3)
    assert counter.peak == 1
    assert not (tmp_path / "re" / "manifest.json").exists()


def test_loaded_passes_are_the_decoded_files(tmp_path):
    pipeline.generate_dataset(small_spec(3), tmp_path / "ds")
    manifest = formats.read_manifest((tmp_path / "ds" / "manifest.json").read_text())
    _, rig, paths = pipeline._derivable(manifest, tmp_path / "ds")
    for t, view in view_major(3):
        fp = pipeline.load_frame_passes(paths[t, view], t, rig.intrinsics)
        files = manifest["frames"][t - 1]["files"][view]
        for name in ("depth", "pos3d_t", "pos3d_prev", "pos3d_next"):
            a = getattr(fp, name)
            if name not in files:
                assert a is None, (t, view, name)
                continue
            stored = formats.read_pfm((tmp_path / "ds" / files[name]).read_bytes())
            assert a.dtype == np.float32 and a.shape == stored.shape
            assert a.tobytes() == stored.tobytes(), (t, view, name)


def test_derive_holds_float32_passes(tmp_path, monkeypatch):
    # 16-row bands at 240x135 are the share of a view that the default
    # 64-row ground-truth bands are at 960x540. Widening every depth and
    # position pass to float64 on load peaked at 7.36 MB here; read in place
    # band by band, the peak is more than one (H, W, 3) float64 map lower.
    spec = sf.generate_driving_preset(42, sf.DrivingParams(
        focal_mm=15, frames=3, width=240, height=135))
    pipeline.generate_dataset(spec, tmp_path / "ds")
    monkeypatch.setattr(_parallel, "GT_BAND_ROWS", 16)
    bound = 7_360_000 - 135 * 240 * 3 * 8
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            pipeline.derive_dataset(tmp_path / "ds", tmp_path / f"re-{cpus}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (cpus, peak, bound)


def test_small_generate_bytes_unchanged(tmp_path):
    out = tmp_path / "ds"
    assert main([*pins.RUNS["64x48"], "--out", str(out)]) == 0
    pins.assert_pinned(out, "64x48")


@pytest.mark.parametrize("edit", ["moved", "missing", "extra"])
def test_pin_check_names_each_file_that_differs(tmp_path, edit):
    # a tree of three files pinned as written, then one byte flipped, one
    # file deleted or one file added: the check fails naming that file
    tree = tmp_path / "tree"
    for rel in ("a/0001_L.pfm", "a/0001_R.pfm", "manifest.json"):
        (tree / rel).parent.mkdir(parents=True, exist_ok=True)
        (tree / rel).write_bytes(rel.encode() * 3)
    (tree / "config.generate.json").write_text("{}")
    table = tmp_path / "pins.json"
    table.write_text(json.dumps({"tree": pins.digests(tree)}))
    pins.assert_pinned(tree, "tree", table)
    (tree / "config.generate.json").write_text('{"out": "elsewhere"}')
    pins.assert_pinned(tree, "tree", table)  # the record is not pinned
    target = tree / "a" / "0001_R.pfm"
    if edit == "moved":
        data = bytearray(target.read_bytes())
        data[5] ^= 1
        target.write_bytes(bytes(data))
    elif edit == "missing":
        target.unlink()
    else:
        target = tree / "a" / "0002_L.pfm"
        target.write_bytes(b"new")
    with pytest.raises(AssertionError) as failed:
        pins.assert_pinned(tree, "tree", table)
    assert str(failed.value).splitlines()[1:] == [f"  {edit}: a/{target.name}"]


# A 2-frame run writes the manifest marked partial, 20 files per view, then
# the final manifest: fail on the first map, mid left view, and mid right
# view (the manifest writes are not counted).
@pytest.mark.parametrize("fail_at", [1, 15, 30])
def test_interrupted_write_leaves_whole_files(tmp_path, monkeypatch, fail_at):
    clean = tmp_path / "clean"
    assert main(GEN_ARGS + ["--out", str(clean)]) == 0

    real_open = Path.open
    calls = []

    class HalfThenRaise:
        """A file that takes the first half of what it is given, then
        fails."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def writelines(self, parts):
            data = b"".join(map(bytes, parts))
            self.f.write(data[:len(data) // 2])
            raise OSError("no space left on device")

    def half_then_raise(self, mode="r", *args, **kwargs):
        f = real_open(self, mode, *args, **kwargs)
        if mode != "wb" or self.name == ".manifest.json.tmp":
            return f
        calls.append(self)
        return HalfThenRaise(f) if len(calls) == fail_at else f

    monkeypatch.setattr(Path, "open", half_then_raise)
    out = tmp_path / "ds"
    assert main(GEN_ARGS + ["--out", str(out)]) == 1
    monkeypatch.undo()

    left = {p.relative_to(out) for p in out.rglob("*") if p.is_file()}
    for rel in left - {Path("config.generate.json"), Path("manifest.json")}:
        # neither truncated nor a temporary name: the clean run's file
        assert (clean / rel).is_file(), rel
        assert (out / rel).read_bytes() == (clean / rel).read_bytes(), rel
    manifest = formats.read_manifest((out / "manifest.json").read_text())
    assert manifest["complete"] is False
    listed = {Path(p) for f in manifest["frames"] for v in f["files"].values()
              for p in v.values()}
    assert listed <= left
    assert main(["inspect", str(out)]) == 0


def _files(root):
    """(path, inode) of every file under root but the manifest and the
    hidden temporaries; a file replaced by rename gets a new inode."""
    return {(p, p.stat().st_ino) for p in root.rglob("*")
            if p.is_file() and p.name != "manifest.json"
            and not p.name.startswith(".")}


@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM],
                         ids=["SIGKILL", "SIGTERM"])
def test_killed_generate_leaves_manifest_incomplete(tmp_path, sig):
    # neither signal runs the run's own clean-up, so the manifest says
    # partial only if the run marked it so before touching any file
    out = tmp_path / "ds"
    assert main(GEN_ARGS + ["--out", str(out)]) == 0  # 64x48, complete
    before = _files(out)
    src = str(Path(sf.__file__).parents[1])
    run = subprocess.Popen(
        [sys.executable, "-m", "sceneflowgen.cli", "generate", "--seed", "5",
         "--frames", "8", "--size", "320x240", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not _files(out) - before:
            assert run.poll() is None, "generate ended before a file was new"
            assert time.monotonic() < deadline, "no new file within 120 s"
            time.sleep(0.005)
        run.send_signal(sig)
        assert run.wait(timeout=60) == -sig
    finally:
        run.kill()
        run.wait(timeout=60)
    manifest = formats.read_manifest((out / "manifest.json").read_bytes())
    assert manifest["complete"] is False
    assert main(["derive", str(out)]) == 1


def listed_passes(root):
    """pass name -> relative paths of that pass, from root's manifest."""
    manifest = formats.read_manifest((root / "manifest.json").read_text())
    by_pass = {}
    for f in manifest["frames"]:
        for view in f["files"].values():
            for name, rel in view.items():
                by_pass.setdefault(name, []).append(rel)
    return by_pass


def test_derive_out_copies_render_passes(tmp_path, monkeypatch):
    src = tmp_path / "ds"
    assert main(GEN_ARGS + ["--out", str(src)]) == 0
    encoded = {}

    def spy(name):
        real = getattr(formats, name)

        def encode(a):
            payload = real(a)
            encoded.setdefault(name, []).append(bytes(payload))
            return payload
        monkeypatch.setattr(formats, name, encode)

    for name in ("write_pfm", "write_ppm", "write_pgm16"):
        spy(name)
    fresh = tmp_path / "fresh"
    assert main(["derive", str(src), "--out", str(fresh)]) == 0

    by_pass = listed_passes(src)
    for rel in (rel for name in RENDER_PASSES for rel in by_pass.get(name, ())):
        assert (fresh / rel).read_bytes() == (src / rel).read_bytes(), rel
        assert (fresh / rel).stat().st_ino != (src / rel).stat().st_ino, rel
    assert "write_ppm" not in encoded and "write_pgm16" not in encoded
    computed = [(fresh / rel).read_bytes() for name in by_pass
                if name.startswith(("disparity", "dispchange"))
                for rel in by_pass[name]]
    assert sorted(encoded["write_pfm"]) == sorted(computed)


def as_big_endian_pfm(payload):
    a = formats.read_pfm(payload)
    h, w = a.shape
    return f"Pf\n{w} {h}\n1.0\n".encode() + a[::-1].astype(">f4").tobytes()


def test_derive_out_copies_a_big_endian_pass_verbatim(tmp_path):
    canonical = tmp_path / "ds"
    assert main(GEN_ARGS + ["--out", str(canonical)]) == 0
    big = tmp_path / "big"
    shutil.copytree(canonical, big)
    depth = listed_passes(big)["depth"][0]
    (big / depth).write_bytes(as_big_endian_pfm((big / depth).read_bytes()))
    assert (big / depth).read_bytes() != (canonical / depth).read_bytes()

    for root in (canonical, big):
        assert main(["derive", str(root), "--out", str(tmp_path / f"{root.name}-re")]) == 0
    from_canonical = tree_bytes(tmp_path / "ds-re")
    from_big = tree_bytes(tmp_path / "big-re")
    assert from_big[depth] == (big / depth).read_bytes()
    for tree in (from_canonical, from_big):
        del tree["config.derive.json"], tree[depth]
    assert from_big == from_canonical


@pytest.mark.parametrize("cpus", [1, 2])
def test_first_bad_pass_in_pass_order_is_raised(tmp_path, monkeypatch, cpus):
    root = tmp_path / "ds"
    assert main(GEN_ARGS + ["--out", str(root)]) == 0
    manifest = formats.read_manifest((root / "manifest.json").read_text())
    files = manifest["frames"][0]["files"]["left"]
    (root / files["depth"]).write_bytes(
        bytes(formats.write_pfm(np.ones((24, 32), dtype=np.float32))))
    (root / files["object_index"]).write_bytes(b"P5\nnot a pgm")
    read_pfm = formats.read_pfm

    def slow_read_pfm(payload):
        a = read_pfm(payload)
        if a.shape == (24, 32):
            time.sleep(0.2)  # the object index pass, later in order, fails first
        return a

    monkeypatch.setattr(formats, "read_pfm", slow_read_pfm)
    set_cpus(monkeypatch, cpus)
    with pytest.raises(ParseError, match=re.escape(files["depth"])):
        _, rig, paths = pipeline._derivable(manifest, root)
        pipeline.load_frame_passes(paths[1, "left"], 1, rig.intrinsics)


# A 2-frame derive copies 6 render passes per (frame, view), frame 2
# before frame 1, in the order write_frame lists them: fail on the first
# copy, and on the right view's one that this order reaches 17th. The
# copies of one (frame, view) run on the thread map, so the fake fails on
# a destination, not a count.
FAIL_ON = {1: ("rgb", "0002_L.ppm"), 17: ("object_index", "0002_R.pgm")}


def frame_view(rel):
    """A key of a dataset file's path, (view, -frame), that sorts the
    files in the order derive writes them: all left views first, each
    view's frames last to first."""
    stem = Path(rel).stem  # e.g. 0001_L
    return "LR".index(stem[-1]), -int(stem[:4])


@pytest.mark.parametrize("fail_at", sorted(FAIL_ON))
def test_interrupted_copy_leaves_whole_files(tmp_path, monkeypatch, fail_at):
    src = tmp_path / "ds"
    assert main(GEN_ARGS + ["--out", str(src)]) == 0
    clean = tmp_path / "clean"
    assert main(["derive", str(src), "--out", str(clean)]) == 0

    fail_pass, fail_name = FAIL_ON[fail_at]
    lock = threading.Lock()
    failed = []

    def half_then_raise(source, dest):
        payload = Path(source).read_bytes()
        dest = Path(dest)
        if (dest.parent.name, dest.name) == (fail_pass, f".{fail_name}.tmp"):
            with lock:
                failed.append(dest)
            dest.write_bytes(payload[:len(payload) // 2])
            raise OSError("no space left on device")
        dest.write_bytes(payload)

    monkeypatch.setattr(pipeline.shutil, "copyfile", half_then_raise)
    out = tmp_path / "re"
    assert main(["derive", str(src), "--out", str(out)]) == 1
    monkeypatch.undo()

    assert len(failed) == 1
    left = tree_bytes(out)
    assert not [rel for rel in left if rel.endswith(".tmp")]
    clean_bytes = tree_bytes(clean)
    for rel, payload in left.items():
        assert payload == clean_bytes[rel], rel
    written = [rel for rel in left if rel != "config.derive.json"]
    assert not [rel for rel in written
                if frame_view(rel) > frame_view(fail_name)]


def fail_on(monkeypatch, rel):
    """Make pipeline.write_atomic raise on the file at rel (a pass
    directory and a file name), and write every other file."""
    real = pipeline.write_atomic

    def write_atomic(path, payload):
        if Path(path).parts[-2:] == Path(rel).parts:
            raise OSError("no space left on device")
        real(path, payload)

    monkeypatch.setattr(pipeline, "write_atomic", write_atomic)


@pytest.mark.parametrize("fail_name", ["0001_L", "0001_R"])
def test_interrupted_occlusion_write_lists_no_view_without_it(
        tmp_path, monkeypatch, fail_name):
    # frame 1's occlusion mask is written with its other files, after
    # frame 2's: a failure there leaves frame 1 unlisted, and the views
    # written before it listed with every file
    failing = f"occlusion_fwd/{fail_name}.pgm"
    clean = tmp_path / "clean"
    assert main(GEN_ARGS + ["--out", str(clean)]) == 0
    fail_on(monkeypatch, failing)
    out = tmp_path / "ds"
    assert main(GEN_ARGS + ["--out", str(out)]) == 1
    monkeypatch.undo()

    left = tree_bytes(out)
    assert not [rel for rel in left if rel.endswith(".tmp")]
    clean_bytes = tree_bytes(clean)
    for rel, payload in left.items():
        if rel not in ("config.generate.json", "manifest.json"):
            assert payload == clean_bytes[rel], rel
    manifest = formats.read_manifest(left["manifest.json"].decode())
    assert manifest["complete"] is False
    listed = {frame_view(files["rgb"]): files for f in manifest["frames"]
              for files in f["files"].values()}
    assert sorted(listed) == [
        (v, -t) for v, t in ((0, 2), (0, 1), (1, 2), (1, 1))
        if (v, -t) < frame_view(fail_name)]
    for files in listed.values():
        assert ("occlusion_fwd" in files) == ("pos3d_next" in files), files
        assert set(files.values()) <= set(left), files
    scene = "flyingthings-5/"
    assert f"{scene}flow_fwd/{fail_name}.flo" in left  # written before it
    assert f"{scene}{failing}" not in left
    assert not [rel for rel in left if rel.startswith(scene)
                and frame_view(rel) > frame_view(fail_name)]

    # derive --out: the same files of the views up to frame 1's, whole
    assert main(["derive", str(clean), "--out", str(tmp_path / "re-clean")]) == 0
    fail_on(monkeypatch, failing)
    assert main(["derive", str(clean), "--out", str(tmp_path / "re")]) == 1
    monkeypatch.undo()
    clean_derived = tree_bytes(tmp_path / "re-clean")
    left = tree_bytes(tmp_path / "re")
    assert not [rel for rel in left if rel.endswith(".tmp")]
    written = [rel for rel in left if rel != "config.derive.json"]
    assert f"{scene}flow_fwd/{fail_name}.flo" in written
    assert f"{scene}{failing}" not in written
    for rel in written:
        assert left[rel] == clean_derived[rel], rel
        assert frame_view(rel) <= frame_view(fail_name), rel


def test_a_view_holds_one_z(tmp_path):
    # depth is no field of its own: it is pos3d_t's Z, rendered or loaded
    assert "depth" not in {f.name for f in dataclasses.fields(sf.FramePasses)}
    spec = small_spec(2)
    pipeline.generate_dataset(spec, tmp_path / "ds")
    manifest = formats.read_manifest((tmp_path / "ds" / "manifest.json").read_text())
    _, rig, paths = pipeline._derivable(manifest, tmp_path / "ds")
    for fp in (sf.rasterize_frame(spec, 1, "left"),
               pipeline.load_frame_passes(paths[1, "left"], 1, rig.intrinsics)):
        assert np.shares_memory(fp.depth, fp.pos3d_t)
        assert np.isnan(fp.depth[~fp.valid]).all() and (fp.depth[fp.valid] > 0).all()


def _rewrite_pfm(path, change):
    """Decode the PFM at path, let change edit the array, encode it back."""
    a = formats.read_pfm(path.read_bytes())
    change(a)
    path.write_bytes(bytes(formats.write_pfm(a)))


def _scale_covered(z, factor=np.float32(1.01), count=50):
    """Scale the first count finite values of the (H, W) view z in place."""
    ys, xs = np.nonzero(np.isfinite(z))
    z[ys[:count], xs[:count]] *= factor


def test_derive_takes_z_from_the_depth_file_alone(tmp_path):
    # pos3d_t's Z scaled at covered pixels of every view: derive reads each
    # view's Z from its depth file, so every map keeps its bytes, and --out
    # still copies the pos3d_t files as they are
    clean, bent = tmp_path / "ds", tmp_path / "bent"
    assert main(GEN_ARGS + ["--out", str(clean)]) == 0
    shutil.copytree(clean, bent)
    by_pass = listed_passes(bent)
    for rel in by_pass["pos3d_t"]:
        _rewrite_pfm(bent / rel, lambda pos: _scale_covered(pos[..., 2]))
        assert (bent / rel).read_bytes() != (clean / rel).read_bytes()
    for root in (clean, bent):
        assert main(["derive", str(root), "--out", str(tmp_path / f"{root.name}-re")]) == 0
    from_clean, from_bent = tree_bytes(tmp_path / "ds-re"), tree_bytes(tmp_path / "bent-re")
    for rel in by_pass["pos3d_t"]:
        assert from_bent.pop(rel) == (bent / rel).read_bytes(), rel
        del from_clean[rel]
    del from_clean["config.derive.json"], from_bent["config.derive.json"]
    assert from_bent == from_clean


def test_a_scaled_depth_file_is_the_z_of_every_map(tmp_path):
    # frame 1's left depth file scaled at covered pixels: disparity, flow and
    # the rest come from that one Z, as derive_frame and
    # compute_occlusion_mask give them on passes whose pos3d_t Z is the
    # scaled depth
    root, fresh = tmp_path / "ds", tmp_path / "fresh"
    assert main(GEN_ARGS + ["--out", str(root)]) == 0
    manifest = formats.read_manifest((root / "manifest.json").read_text())
    files = manifest["frames"][0]["files"]["left"]
    z_clean = formats.read_pfm((root / files["depth"]).read_bytes())
    _rewrite_pfm(root / files["depth"], _scale_covered)
    assert main(["derive", str(root), "--out", str(fresh)]) == 0

    def passes(t, z=None):
        # decoded here, not by load_frame_passes: pos3d_t's Z is z, or
        # else the depth file
        files = manifest["frames"][t - 1]["files"]["left"]

        def read(name, codec="pfm"):
            if name not in files:
                return None
            return getattr(formats, "read_" + codec)((root / files[name]).read_bytes())
        pos_t = read("pos3d_t")
        pos_t[..., 2] = read("depth") if z is None else z
        return sf.FramePasses(read("rgb", "ppm"), pos_t, read("pos3d_prev"),
                              read("pos3d_next"), read("object_index", "pgm16"),
                              frame_time=t)

    rig = sf.StereoRig.from_dict(manifest["rig"])
    derived = derive_maps(passes(1), rig, passes(2))
    clean = derive_maps(passes(1, z_clean), rig, passes(2))
    for name in ("disparity", "flow_fwd"):  # the scaled Z moves both
        assert not np.array_equal(derived[name], clean[name],
                                  equal_nan=True), name
    codecs = {name: codec for name, _, codec, channels in pipeline._FILES
              if channels is None}
    maps = {name: rel for name, rel in files.items() if name in codecs}
    assert {"disparity", "flow_fwd", "dispchange_fwd", "occlusion_fwd"} <= set(maps)
    for name, rel in maps.items():
        want = bytes(getattr(formats, "write_" + codecs[name])(derived[name]))
        assert (fresh / rel).read_bytes() == want, name
