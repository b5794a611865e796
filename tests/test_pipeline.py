import hashlib
import shutil
import weakref
from pathlib import Path

import pytest

import sceneflowgen as sf
from sceneflowgen import formats, pipeline
from sceneflowgen.cli import main

from conftest import small_params
from test_cli import GEN_ARGS, RENDER_PASSES, tree_bytes


class LiveViews:
    """Wraps a pass producer; counts the FramePasses it returned that are
    still alive, and records the (t, view) of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []
        self.live = 0
        self.peak = 0

    def __call__(self, *args):
        passes = self.fn(*args)
        self.calls.append((passes.frame_time, passes.view))
        self.live += 1
        self.peak = max(self.peak, self.live)
        weakref.finalize(passes, self._released)
        return passes

    def _released(self):
        self.live -= 1


def view_major(frames):
    return [(t, view) for view in ("left", "right") for t in range(1, frames + 1)]


def small_spec(frames):
    params = small_params(n_objects_range=(2, 3), n_background=4, frames=frames,
                          width=64, height=48)
    return sf.generate_flyingthings_scene(5, params)


@pytest.mark.parametrize("frames", [2, 6])
def test_generate_holds_at_most_two_views(tmp_path, monkeypatch, frames):
    counter = LiveViews(pipeline.rasterize_frame)
    monkeypatch.setattr(pipeline, "rasterize_frame", counter)
    manifest = pipeline.generate_dataset(small_spec(frames), tmp_path / "ds")
    assert counter.calls == view_major(frames)
    assert counter.peak <= 2
    assert manifest["complete"] is True
    assert [f["time"] for f in manifest["frames"]] == list(range(1, frames + 1))
    assert all(f["files"].keys() == {"left", "right"} for f in manifest["frames"])


def test_derive_loads_each_view_once(tmp_path, monkeypatch):
    pipeline.generate_dataset(small_spec(3), tmp_path / "ds")
    counter = LiveViews(pipeline.load_frame_passes)
    monkeypatch.setattr(pipeline, "load_frame_passes", counter)
    assert main(["derive", str(tmp_path / "ds"), "--out", str(tmp_path / "re")]) == 0
    assert counter.calls == view_major(3)
    assert counter.peak <= 2
    assert not (tmp_path / "re" / "manifest.json").exists()


# SHA-256 over (relative path, bytes) of every file but config.json, in
# sorted path order, recorded before generation streamed view by view.
GENERATE_64X48_DIGEST = "fb615d7b454698f8324bf827142a5354eddc9c2e17a7d36fa067497933509ae1"


def test_small_generate_bytes_unchanged(tmp_path):
    out = tmp_path / "ds"
    assert main(["generate", "--seed", "1", "--frames", "3", "--size", "64x48",
                 "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "config.json":
            digest.update(str(p.relative_to(out)).encode() + b"\0" + p.read_bytes())
    assert digest.hexdigest() == GENERATE_64X48_DIGEST


# A 2-frame run writes 20 files per view, then the manifest: fail on the
# first file, mid left view, and mid right view.
@pytest.mark.parametrize("fail_at", [1, 15, 30])
def test_interrupted_write_leaves_whole_files(tmp_path, monkeypatch, fail_at):
    clean = tmp_path / "clean"
    assert main(GEN_ARGS + ["--out", str(clean)]) == 0

    real_write_bytes = Path.write_bytes
    calls = []

    def half_then_raise(self, data):
        calls.append(self)
        if len(calls) == fail_at:
            with open(self, "wb") as f:
                f.write(data[:len(data) // 2])
            raise OSError("no space left on device")
        return real_write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", half_then_raise)
    out = tmp_path / "ds"
    assert main(GEN_ARGS + ["--out", str(out)]) == 1
    monkeypatch.undo()

    left = {p.relative_to(out) for p in out.rglob("*") if p.is_file()}
    for rel in left - {Path("config.json"), Path("manifest.json")}:
        # neither truncated nor a temporary name: the clean run's file
        assert (clean / rel).is_file(), rel
        assert (out / rel).read_bytes() == (clean / rel).read_bytes(), rel
    manifest = formats.read_manifest((out / "manifest.json").read_text())
    assert manifest["complete"] is False
    listed = {Path(p) for f in manifest["frames"] for v in f["files"].values()
              for p in v.values()}
    assert listed <= left
    assert main(["inspect", str(out)]) == 0


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
            encoded.setdefault(name, []).append(payload)
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
        del tree["config.json"], tree[depth]
    assert from_big == from_canonical


# A 2-frame derive copies 6 render passes per (frame, view): fail on the
# first copy, and on one of the right view.
@pytest.mark.parametrize("fail_at", [1, 17])
def test_interrupted_copy_leaves_whole_files(tmp_path, monkeypatch, fail_at):
    src = tmp_path / "ds"
    assert main(GEN_ARGS + ["--out", str(src)]) == 0
    clean = tmp_path / "clean"
    assert main(["derive", str(src), "--out", str(clean)]) == 0

    calls = []

    def half_then_raise(source, dest):
        calls.append(dest)
        payload = Path(source).read_bytes()
        if len(calls) == fail_at:
            Path(dest).write_bytes(payload[:len(payload) // 2])
            raise OSError("no space left on device")
        Path(dest).write_bytes(payload)

    monkeypatch.setattr(pipeline.shutil, "copyfile", half_then_raise)
    out = tmp_path / "re"
    assert main(["derive", str(src), "--out", str(out)]) == 1
    monkeypatch.undo()

    assert len(calls) == fail_at
    left = tree_bytes(out)
    assert not [rel for rel in left if rel.endswith(".tmp")]
    clean_bytes = tree_bytes(clean)
    for rel, payload in left.items():
        assert payload == clean_bytes[rel], rel
