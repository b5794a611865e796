"""sceneflowgen benchmark: drives the public `sfgen` CLI, one operation at a
time, each in a fresh worker process, and checks every output.

Usage (from the root of a checkout):

    python3 bench/run.py --workload generate --seed 42 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 42 --seconds 10

With `--trace 0` the last line of standard output is the JSON result with
the end-to-end metrics; with `--trace 1` it carries the per-layer metrics
of a run whose workers record spans. `--workload all` runs every workload
untraced and traced, prints both and the tracing overhead. See README.md
in this directory for the metrics, their units and the baselines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 42
HELDOUT_SEED = 7  # kept out of tuning; a claimed gain must also hold here
DEFAULT_SIZE = (960, 540)  # the paper's rig
MAX_DISP = 160
# A workload with n scenes works on the scenes of seed + k * SCENE_SEED_STEP
# for k < n, in turn, so that a run averages over more than one scene.
SCENE_SEED_STEP = 1000
# Each operation measures its own set-up; set-up probes, workers that stop
# at their first timed call, make up the rest of these samples per run.
SETUP_SAMPLES = 4
OP_TIMEOUT_S = 150
# No operation starts that could end past this, which leaves time for
# set-up probes within a run limit of 180 s.
RUN_BUDGET_S = 160

# Digests of outputs at the default size, per (workload kind, scene seed).
# generate: SHA-256 over manifest.json and every file it lists, in
# manifest order; derive: SHA-256 over every file the fixture's manifest
# lists, read from derive's output, in manifest order; estimate: SHA-256
# of the disparity PFM.
PINNED = {
    ("generate", DEFAULT_SEED): "b9d97af44f10f4d34940c154edc79452a8a2a777bb846269b706594e1f6c2803",
    ("generate", HELDOUT_SEED): "e0d8c415733511ccde0ec4432d5387796be452ed93b358b5d0837103576196cb",
    ("generate", DEFAULT_SEED + SCENE_SEED_STEP): "a19360ba922ff967a5feba2a766c0be82ad60b4533969456fda530c0efbcf9ec",
    ("generate", HELDOUT_SEED + SCENE_SEED_STEP): "b4dadc2804bad2f5a825024f9a4a7417d5a25f7ba28a5351bc966189919e882a",
    ("derive", DEFAULT_SEED): "82e4a6ff4689c9ef5d7bc277afd8fadd14fca05c2717cd1858171540b50a8a1f",
    ("derive", HELDOUT_SEED): "189b362e437003d1966b846a2e025a436f32ae92a1caca5263c5d35bbe9b0dca",
    ("estimate", DEFAULT_SEED): "d472897848469d9de6224b20f0a6ed8e702143b3ca6e779c367c7ce20119b316",
    ("estimate", HELDOUT_SEED): "69ec98efd81b09de17512935562bca8f2333561e100f8ee8b93bcff98c707cb2",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # generate | derive | estimate
    frames: int  # stereo frames per operation
    threads: int = 1
    scenes: int = 1  # a run does at least one operation on each scene
    size: tuple = DEFAULT_SIZE


WORKLOADS = {
    # one scene's render time depends on its seed, so generate measures two
    # scenes per run; generate-2w keeps to one to bound the run time. It is
    # left out of BENCHMARK.json: its two render threads contend for the GIL
    # on shared CPUs, and its frames_per_s spreads wider than the bound.
    "generate": Workload("generate", "generate", frames=3, scenes=2),
    "generate-2w": Workload("generate-2w", "generate", frames=3, threads=2),
    "derive": Workload("derive", "derive", frames=3),
    "estimate": Workload("estimate", "estimate", frames=1),
}

END_TO_END = {  # name -> unit; all lower-is-better except frames_per_s
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "peak_rss_mb": "MB",
    "bytes_written_per_frame": "MB",
}
PER_LAYER = {
    "scene.spec_s": "s",
    "scene.objects": "count.exact",
    "scene.triangles": "count.exact",
    "render.view_s": "s",
    "render.views": "count.exact",
    "render.triangles_per_s": "1/s",
    "render.covered_px_frac": "ratio",
    "pipeline.self_s": "s",
    "pipeline.load_s": "s",
    "pipeline.views_resident_max": "count.exact",
    "pipeline.cpu_per_wall": "ratio",
    "groundtruth.frame_s": "s",
    "groundtruth.flow_s": "s",
    "groundtruth.disparity_s": "s",
    "groundtruth.dispchange_s": "s",
    "groundtruth.motion_boundaries_s": "s",
    "groundtruth.occlusion_s": "s",
    "groundtruth.occluded_px_frac": "ratio",
    "formats.encode_s": "s",
    "formats.decode_s": "s",
    "formats.bytes_encoded": "B.exact",
    "formats.bytes_decoded": "B.exact",
    "formats.files_written": "count.exact",
    "match.features_s": "s",
    "match.correlate_s": "s",
    "match.wta_s": "s",
    "match.subpixel_s": "s",
    "match.cost_volume_mb": "MB.computed",
    "match.correlate_macs": "MAC.computed",
    "metrics.eval_s": "s",
}


class Session:
    """One workload at one seed: fixtures, probes and operations, all in
    a temporary directory under the checkout that `close` removes."""

    fixture_pair = None  # estimate: (left rgb, right rgb, left disparity)

    def __init__(self, workload, seed, trace):
        self.w = workload
        self.seed = seed
        self.trace = trace
        tmp_root = ROOT / ".bench_tmp"
        tmp_root.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root))
        self.fixture = self.dir / "fixture"
        self.jobs = 0
        self.scene_seeds = [seed + k * SCENE_SEED_STEP
                            for k in range(workload.scenes)]
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
            OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
            SFGEN_THREADS=str(workload.threads),
        )

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another session still uses it

    @property
    def size_arg(self):
        return "{}x{}".format(*self.w.size)

    # -- workers ---------------------------------------------------------

    def run_cli(self, argvs, workdir, probe=False, trace=False):
        """Run `sfgen` argument lists in one worker to the end; peak RSS
        comes from that worker's own rusage."""
        self.jobs += 1
        job_path = workdir / f"job{self.jobs}.json"
        result_path = workdir / f"result{self.jobs}.json"
        log_path = workdir / f"worker{self.jobs}.log"
        job_path.write_text(json.dumps({"argvs": argvs, "probe": probe,
                                        "trace": trace,
                                        "result": str(result_path)}))
        with open(log_path, "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(job_path)],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=workdir)
            killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no worker behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = (json.loads(result_path.read_text())
                  if result_path.exists() else {})
        return {
            "spawn": start, "end": end, "code": proc.returncode,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6, "result": result,
            "log": log_path.read_text(errors="replace")[-2000:],
        }

    # -- workload definitions --------------------------------------------

    def build_fixture(self):
        """Inputs rendered once per session; excluded from every metric.

        derive reads a 3-frame driving dataset; estimate matches frame 1 of
        a 2-frame flyingthings dataset against its left disparity."""
        if self.w.kind == "derive":
            preset = ["--preset", "driving", "--focal-mm", "15",
                      "--frames", str(self.w.frames)]
        elif self.w.kind == "estimate":
            preset = ["--frames", "2"]
        else:
            return
        run = self.run_cli([["generate", *preset, "--seed", str(self.seed),
                             "--size", self.size_arg,
                             "--out", str(self.fixture)]], self.dir)
        if run["code"] != 0:
            raise RuntimeError(f"fixture build failed:\n{run['log']}")
        if self.w.kind == "estimate":
            manifest = json.loads((self.fixture / "manifest.json").read_text())
            files = manifest["frames"][0]["files"]
            self.fixture_pair = (self.fixture / files["left"]["rgb"],
                                 self.fixture / files["right"]["rgb"],
                                 self.fixture / files["left"]["disparity"])

    def argvs(self, scene_seed, out):
        if self.w.kind == "generate":
            return [["generate", "--seed", str(scene_seed),
                     "--frames", str(self.w.frames), "--size", self.size_arg,
                     "--out", str(out)]]
        if self.w.kind == "derive":
            return [["derive", str(self.fixture), "--out", str(out)]]
        left, right, gt = self.fixture_pair
        return [
            ["estimate", str(left), str(right), "--max-disp", str(MAX_DISP),
             "--out", str(out / "disparity.pfm")],
            ["evaluate", "--pred", str(out / "disparity.pfm"), "--gt", str(gt),
             "--out", str(out / "evaluation.json")],
        ]

    def probe(self, scene_seed):
        """Set-up time of one worker that stops at its first timed call."""
        workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=self.dir))
        try:
            run = self.run_cli(self.argvs(scene_seed, workdir / "out"), workdir,
                               probe=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        first = run["result"].get("first_call")
        if run["code"] != 0 or first is None:
            raise RuntimeError(f"set-up probe failed:\n{run['log']}")
        return first - run["spawn"]

    def operation(self, scene_seed):
        """One timed operation plus its output checks, in its own directory."""
        workdir = Path(tempfile.mkdtemp(prefix="op-", dir=self.dir))
        out = workdir / "out"
        try:
            run = self.run_cli(self.argvs(scene_seed, out), workdir,
                               trace=self.trace)
            res = run["result"]
            pin = self.pinned(scene_seed)
            first = res.get("first_call") or run["spawn"]
            op = {
                "scene_seed": scene_seed,
                "setup_s": first - run["spawn"],
                "wall_s": run["end"] - first,
                "frames": self.w.frames,
                "peak_rss_mb": run["rss_mb"],
                "bytes": _tree_bytes(out),
                "code": run["code"],
            }
            if run["code"] != 0:
                op["checks"] = {"exit_code_0": False}
                op["error"] = run["log"]
            else:
                try:
                    op["checks"], extra = CHECKS[self.w.kind](self, out, pin)
                    op.update(extra)
                except (OSError, ValueError, KeyError, IndexError) as e:
                    op["checks"] = {"outputs_readable": False}
                    op["error"] = f"{type(e).__name__}: {e}"
            if self.trace and res.get("spans"):
                op["layers"], op["self_time_error_s"], op["layer_self_s"] = (
                    layer_metrics(res))
                op["checks"]["trace_self_times_sum_to_wall"] = (
                    abs(op["self_time_error_s"]) < 1e-6)
            op["ok"] = all(op["checks"].values())
            return op
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def pinned(self, scene_seed):
        """Pinned digest of an operation's output, if there is one."""
        if self.w.size != DEFAULT_SIZE:
            return None
        return PINNED.get((self.w.kind, scene_seed))


# -- output checks -------------------------------------------------------
# Each takes the session, the output directory and the pinned digest (or
# None) and returns ({check name: passed}, extra fields for the operation).

def check_generate(session, out, pin):
    import numpy as np

    manifest_bytes = (out / "manifest.json").read_bytes()
    manifest = json.loads(manifest_bytes)
    listed_ok = all(
        set(view_files) == _expected_passes(frame["time"], session.w.frames)
        for frame in manifest["frames"] for view_files in frame["files"].values())
    listed_ok &= all((out / rel).is_file() for rel in _listed(manifest))
    checks = {
        "manifest_complete": manifest.get("complete") is True
        and len(manifest["frames"]) == session.w.frames,
        "every_pass_listed_and_present": listed_ok,
    }
    # disparity identity d = f * B / Z on frame 1, left view
    files = manifest["frames"][0]["files"]["left"]
    depth = read_pfm((out / files["depth"]).read_bytes())
    disp = read_pfm((out / files["disparity"]).read_bytes())
    intr = manifest["rig"]["intrinsics"]
    bf = (manifest["rig"]["baseline"]
          * intr["focal_mm"] / intr["sensor_width_mm"] * intr["width"])
    with np.errstate(divide="ignore", invalid="ignore"):
        want = bf / depth.astype(np.float64)
    checks["disparity_is_fB_over_depth"] = bool(np.allclose(
        disp, want, rtol=1e-6, atol=0, equal_nan=True))
    sha = _listed_digest(out, manifest, manifest_bytes) if listed_ok else None
    if pin:
        checks["digest_matches_pin"] = sha == pin
    return checks, {"digest": sha}


def _listed(manifest):
    """Every file a manifest lists, in manifest order."""
    return [rel for frame in manifest["frames"]
            for view_files in frame["files"].values()
            for rel in view_files.values()]


def _listed_digest(root, manifest, head=b""):
    """SHA-256 over `head` and every file the manifest lists under root."""
    digest = hashlib.sha256(head)
    for rel in _listed(manifest):
        digest.update((root / rel).read_bytes())
    return digest.hexdigest()


def _expected_passes(t, frames):
    passes = {"rgb", "depth", "pos3d_t", "object_index", "material_index",
              "disparity"}
    if t > 1:
        passes |= {"pos3d_prev", "flow_bwd", "dispchange_bwd"}
    if t < frames:
        passes |= {"pos3d_next", "flow_fwd", "dispchange_fwd",
                   "motion_boundaries", "occlusion_fwd"}
    return passes


# Passes that derive reads and writes back unchanged.
_COPIED = {"rgb", "depth", "pos3d_t", "pos3d_prev", "pos3d_next",
           "object_index", "material_index"}
# Largest difference allowed between a float ground-truth map derived from
# the float32 files (derive) and one derived from the float64 passes in
# memory (generate). Over seeds 1-12, 42 and 7 at 960x540 the largest was
# 5.3e-5 px (flow); masks never differed.
_MAP_ATOL_PX = 1e-4


def check_derive(session, out, pin):
    """Re-derived files against the files generate wrote (the fixture).

    At a pinned seed derive's output must be exactly the pinned bytes.
    At every seed the passes derive copies and the masks it derives must
    be byte-equal to generate's; the float maps derive computes from the
    float32 files differ from generate's, which come from float64 passes,
    by float32 rounding, so they are held to _MAP_ATOL_PX. The detail line
    reports how many files are byte-equal and the largest difference.
    """
    import numpy as np

    manifest = json.loads((session.fixture / "manifest.json").read_text())
    expected = _listed(manifest)
    scene_dir = out / manifest["dataset"]
    written = {p.relative_to(out).as_posix() for p in scene_dir.rglob("*")
               if p.is_file()}
    exact_ok, maps_close, byte_equal, max_diff = True, True, 0, 0.0
    for rel in expected:
        if rel not in written:
            continue
        mine, theirs = (out / rel).read_bytes(), (session.fixture / rel).read_bytes()
        byte_equal += mine == theirs
        if rel.split("/")[1] in _COPIED:
            exact_ok &= mine == theirs
            continue
        a, b = read_map(mine, rel), read_map(theirs, rel)
        if a.dtype == np.uint8:
            exact_ok &= mine == theirs
        elif a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
            maps_close = False
        elif mine != theirs:
            diff = float(np.nanmax(np.abs(a.astype(np.float64) - b)))
            max_diff = max(max_diff, diff)
            maps_close &= diff <= _MAP_ATOL_PX
    checks = {"same_files_as_generate": written == set(expected),
              "copied_passes_and_masks_byte_equal": exact_ok,
              "derived_maps_match_generate": maps_close}
    sha = _listed_digest(out, manifest) if written == set(expected) else None
    if pin:
        checks["digest_matches_pin"] = sha == pin
    return checks, {"files": len(written), "byte_equal_files": byte_equal,
                    "max_map_diff_px": max_diff, "digest": sha}


def check_estimate(session, out, pin):
    import numpy as np

    pfm = (out / "disparity.pfm").read_bytes()
    disp = read_pfm(pfm).astype(np.float64)
    gt = read_pfm(session.fixture_pair[2].read_bytes()).astype(np.float64)
    w, h = session.w.size
    checks = {"disparity_shape": disp.shape == (h, w),
              "disparity_in_range": bool(np.all((disp >= 0) & (disp < MAX_DISP)))}
    # D1-all (KITTI 2015) and EPE over every pixel with positive finite
    # ground truth, computed here independently of `sfgen evaluate`.
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(gt)
        err = np.abs(disp - gt)
        bad = (err > 3.0) & (err > 0.05 * np.abs(gt))
        valid = finite & (gt > 0)
        d1 = float(bad[valid].sum() / valid.sum())
        epe = float(err[finite].mean())
    report = json.loads((out / "evaluation.json").read_text())
    agg = report["aggregate"]["per_pixel"]
    checks["evaluate_agrees"] = (
        abs(agg["d1_all"] - d1) <= 1e-12 and abs(agg["mean_epe"] - epe) <= 1e-9 * epe)
    sha = hashlib.sha256(pfm).hexdigest()
    if pin:
        checks["digest_matches_pin"] = sha == pin
    return checks, {"digest": sha, "d1_all_pct": 100 * d1, "epe_px": epe}


CHECKS = {"generate": check_generate, "derive": check_derive,
          "estimate": check_estimate}


def read_map(buf, name):
    """A float map (.pfm, .flo) or an 8-bit mask (.pgm) as an array."""
    import numpy as np

    if name.endswith(".pfm"):
        return read_pfm(buf)
    if name.endswith(".flo"):
        w, h = np.frombuffer(buf[4:12], dtype="<i4")
        return np.frombuffer(buf[12:], dtype="<f4").reshape(h, w, 2)
    w, h = (int(x) for x in buf.split(maxsplit=3)[1:3])
    return np.frombuffer(buf[len(buf) - w * h:], dtype=np.uint8)


def read_pfm(buf):
    """Minimal PFM reader, independent of sceneflowgen.formats."""
    import numpy as np

    parts = buf.split(maxsplit=4)
    magic, w, h, scale = parts[0], int(parts[1]), int(parts[2]), float(parts[3])
    channels = 3 if magic == b"PF" else 1
    n = w * h * channels
    payload = buf[len(buf) - 4 * n:]
    a = np.frombuffer(payload, dtype="<f4" if scale < 0 else ">f4")
    return a.reshape((h, w, 3) if channels == 3 else (h, w))[::-1]


def _tree_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# -- spans -> per-layer metrics ------------------------------------------

def self_times(spans):
    """Self time of every span: its duration minus the time its children
    cover. Where spans on different threads overlap, each instant is shared
    equally among the innermost spans running then, so the self times of
    an operation add up to its root span's wall time."""
    active_children = [0] * len(spans)
    open_spans, innermost = set(), set()
    own = [0.0] * len(spans)
    events = sorted([(s[3], 0, i) for i, s in enumerate(spans)]
                    + [(s[2], 1, i) for i, s in enumerate(spans)])
    prev = None
    for t, is_start, i in events:
        if innermost and prev is not None:
            share = (t - prev) / len(innermost)
            for j in innermost:
                own[j] += share
        prev = t
        parent = spans[i][4]
        if is_start:
            open_spans.add(i)
            if not active_children[i]:
                innermost.add(i)
            if parent >= 0:
                active_children[parent] += 1
                innermost.discard(parent)
        else:
            open_spans.discard(i)
            innermost.discard(i)
            if parent >= 0:
                active_children[parent] -= 1
                if not active_children[parent] and parent in open_spans:
                    innermost.add(parent)
    return own


def layer_metrics(result):
    """Per-layer metrics of one traced operation; see README.md."""
    spans, counters = result["spans"], result["counters"]
    own = self_times(spans)
    roots = [s for s in spans if s[4] < 0]
    wall = sum(s[3] - s[2] for s in roots)

    def total(*names):
        return sum(s[3] - s[2] for s in spans if s[0] in names)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = {}
    for span, t in zip(spans, own):
        layer_self[span[1]] = layer_self.get(span[1], 0.0) + t
    views = calls("render.rasterize_frame")
    gt_views = calls("groundtruth.derive_frame")
    render_s = total("render.rasterize_frame")
    layer_names = {s[0] for s in spans}
    c = counters.get
    m = {
        "scene.spec_s": total("scene.generate_flyingthings_scene",
                              "scene.generate_driving_preset"),
        "scene.objects": c("scene.objects", 0),
        "scene.triangles": c("scene.triangles", 0),
        "render.view_s": ratio(render_s, views),
        "render.views": views,
        "render.triangles_per_s": ratio(c("render.triangles", 0), render_s),
        "render.covered_px_frac": ratio(c("render.covered_px", 0), c("render.px", 0)),
        "pipeline.self_s": layer_self.get("pipeline", 0.0),
        "pipeline.load_s": total("pipeline.load_frame_passes"),
        "pipeline.views_resident_max": c("views_resident_max", 0),
        "pipeline.cpu_per_wall": ratio(result["cpu_s"], result["end"] - result["start"]),
        "groundtruth.frame_s": ratio(total("groundtruth.derive_frame"), gt_views),
        "groundtruth.flow_s": ratio(total("groundtruth.derive_flow"), gt_views),
        "groundtruth.disparity_s": ratio(total("groundtruth.derive_disparity"), gt_views),
        "groundtruth.dispchange_s": ratio(
            total("groundtruth.derive_disparity_change"), gt_views),
        "groundtruth.motion_boundaries_s": ratio(
            total("groundtruth.derive_motion_boundaries"), gt_views),
        "groundtruth.occlusion_s": ratio(
            total("groundtruth.compute_occlusion_mask"), gt_views),
        "groundtruth.occluded_px_frac": ratio(
            c("groundtruth.occluded_px", 0), c("groundtruth.occlusion_px", 0)),
        "formats.encode_s": total(*(n for n in layer_names
                                    if n.startswith("formats.write_"))),
        "formats.decode_s": total(*(n for n in layer_names
                                    if n.startswith("formats.read_"))),
        "formats.bytes_encoded": c("formats.bytes_encoded", 0),
        "formats.bytes_decoded": c("formats.bytes_decoded", 0),
        "formats.files_written": c("formats.files_written", 0),
        "match.features_s": total("match.extract_features"),
        "match.correlate_s": total("match.correlate_1d"),
        "match.wta_s": total("match.wta_disparity"),
        "match.subpixel_s": total("match.subpixel_refine"),
        "match.cost_volume_mb": c("match.cost_volume_bytes", 0) / 1e6,
        "match.correlate_macs": c("match.correlate_macs", 0),
        "metrics.eval_s": sum(
            s[3] - s[2] for s in spans
            if s[1] == "metrics" and (s[4] < 0 or spans[s[4]][1] != "metrics")),
    }
    return m, sum(own) - wall, layer_self


# -- one run -------------------------------------------------------------

def run_session(workload, seed, seconds, trace):
    session = Session(workload, seed, trace)
    seeds = session.scene_seeds
    t0 = time.monotonic()
    ops, longest = [], 0.0
    try:
        session.build_fixture()
        measure_start = time.monotonic()
        while (len(ops) < len(seeds)
               or time.monotonic() - measure_start < seconds):
            if time.monotonic() - t0 + longest > RUN_BUDGET_S:
                break
            started = time.monotonic()
            ops.append(session.operation(seeds[len(ops) % len(seeds)]))
            longest = max(longest, time.monotonic() - started)
        # probes cycle over the scenes the operations work on
        setups = [] if trace else [
            session.probe(seeds[k % len(seeds)])
            for k in range(max(0, SETUP_SAMPLES - len(ops)))]
    finally:
        session.close()
    return summarize(workload, seed, trace, setups, ops)


def summarize(workload, seed, trace, setups, ops):
    failed = sum(not op["ok"] for op in ops)
    med = statistics.median
    summary = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "attempted": len(ops), "failed": failed,
        "failed_frac": failed / len(ops),
        "checks": _merge_checks(ops),
        "ops": [{k: v for k, v in op.items()
                 if k not in ("layers", "layer_self_s", "error")} for op in ops],
    }
    metrics = {
        "frames_per_s": med(op["frames"] / op["wall_s"] for op in ops),
        "peak_rss_mb": med(op["peak_rss_mb"] for op in ops),
        "bytes_written_per_frame": med(op["bytes"] / op["frames"] / 1e6 for op in ops),
    }
    summary["setup_probes_s"] = setups
    metrics["setup_s"] = med(setups + [op["setup_s"] for op in ops])
    if workload.kind == "estimate":
        accuracy = [op for op in ops if "d1_all_pct" in op]
        if accuracy:
            summary["d1_all_pct"] = med(op["d1_all_pct"] for op in accuracy)
            summary["epe_px"] = med(op["epe_px"] for op in accuracy)
    digests = sorted({op["digest"] for op in ops if op.get("digest")})
    if digests:
        summary["digests"] = digests
    if trace:
        traced = [op for op in ops if "layers" in op]
        summary["layers"] = {
            name: med(op["layers"][name] for op in traced) if traced else 0.0
            for name in PER_LAYER}
        summary["layer_self_s"] = traced[0]["layer_self_s"] if traced else {}
    summary["end_to_end"] = {name: metrics[name] for name in END_TO_END}
    summary["errors"] = [op["error"] for op in ops if "error" in op]
    return summary


def _merge_checks(ops):
    merged = {}
    for op in ops:
        for name, ok in op["checks"].items():
            merged[name] = merged.get(name, True) and ok
    return merged


def environment():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), **versions}


def print_summary(s):
    print(f"== {s['workload']} seed {s['seed']} trace {s['trace']}: "
          f"{s['attempted']} operation(s), {s['failed']} failed")
    e2e = s["end_to_end"]
    for name, unit in END_TO_END.items():
        samples = len(s["setup_probes_s"]) if name == "setup_s" else 0
        note = f"  (median of {samples + len(s['ops'])})"
        print(f"  {name:26s} {e2e[name]:12.6g} {unit}{note}")
    print(f"  {'failed_frac':26s} {s['failed_frac']:12.6g} ratio")
    for name, unit in (("d1_all_pct", "%"), ("epe_px", "px")):
        value = f"{s[name]:12.6g}" if name in s else f"{'n/a':>12s}"
        print(f"  {name:26s} {value} {unit}")
    for name, ok in s["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for digest in s.get("digests", []):
        print(f"  digest {digest}")
    for op in s["ops"]:
        if "byte_equal_files" in op:
            print(f"  derived files byte-equal to generate's: "
                  f"{op['byte_equal_files']} of {op['files']}; largest map "
                  f"difference {op['max_map_diff_px']:.3g} px")
            break
    if s["trace"]:
        print("  (tracing on: the figures above include its overhead)")
        for name, unit in PER_LAYER.items():
            value = s["layers"][name]
            shown = f"{value:14.0f}" if unit.endswith(".exact") else f"{value:14.6g}"
            print(f"  {name:34s} {shown} {unit}")
        for layer, t in sorted(s["layer_self_s"].items()):
            print(f"  self time {layer:12s} {t:10.4f} s")
    for error in s["errors"]:
        print("  error: " + error.strip().replace("\n", "\n    "))


def result_line(s):
    names = PER_LAYER if s["trace"] else END_TO_END
    values = s["layers"] if s["trace"] else s["end_to_end"]
    return json.dumps({
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names.items()},
    })


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "sceneflowgen" / "cli.py").is_file():
        print(f"error: no sceneflowgen sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    try:
        return run_workloads(args, env)
    except RuntimeError as e:  # a fixture or a set-up probe failed
        print(f"error: {e}", file=sys.stderr)
        return 1


def run_workloads(args, env):
    if args.workload != "all":
        s = run_session(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))
        print_summary(s)
        print("detail " + json.dumps(dict(s, env=env), sort_keys=True))
        print(result_line(s))
        return 0
    results = []
    for workload in WORKLOADS.values():
        plain = run_session(workload, args.seed, args.seconds, False)
        traced = run_session(workload, args.seed, args.seconds, True)
        for s in (plain, traced):
            print_summary(s)
        overhead = (traced["end_to_end"]["frames_per_s"]
                    / plain["end_to_end"]["frames_per_s"])
        print(f"  tracing: traced/untraced frames_per_s = {overhead:.4f}")
        results.append({"untraced": plain, "traced": traced,
                         "traced_over_untraced_frames_per_s": overhead})
    print("detail " + json.dumps({"env": env, "results": results}, sort_keys=True))
    return 0 if all(r[k]["failed"] == 0 for r in results
                    for k in ("untraced", "traced")) else 1


if __name__ == "__main__":
    sys.exit(main())
