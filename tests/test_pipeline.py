import hashlib
import weakref
from pathlib import Path

import pytest

import sceneflowgen as sf
from sceneflowgen import formats, pipeline
from sceneflowgen.cli import main

from conftest import small_params
from test_cli import GEN_ARGS


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
