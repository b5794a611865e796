"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with -s to see them live)."""

import json
import time
from pathlib import Path

import numpy as np

import sceneflowgen as sf
from sceneflowgen import formats, groundtruth as gt, match, metrics
from sceneflowgen.cli import main
from sceneflowgen.render import rasterize_frame

from conftest import baseline_shift_scene, bilinear_sample, set_cpus, small_params
import match_oracle
from test_cli import tree_bytes
from test_match import noise_box
from test_render import box_scene


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_01_disparity_identity():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(10):
        spec = sf.generate_flyingthings_scene(seed, small_params())
        rig = spec.rig
        for t in range(1, spec.frames + 1):
            for view in ("left", "right"):
                fp = rasterize_frame(spec, t, view)
                d = gt.derive_frame(fp, rig).disparity
                expected = rig.baseline * rig.intrinsics.focal_px / fp.depth
                err = np.abs(d - expected)[fp.valid]
                worst = max(worst, float(err.max()))
    elapsed = time.monotonic() - t0
    _report(1, "disparity identity", worst < 1e-4 and elapsed < 30.0,
            f"max err {worst:.2e}, {elapsed:.1f}s")


def test_02_stereo_flow_equivalence():
    worst = 0.0
    for seed in (3, 11):
        spec = baseline_shift_scene(seed)
        for t in range(1, spec.frames):
            fp = rasterize_frame(spec, t, "left")
            frame = gt.derive_frame(fp, spec.rig)
            flow, d = frame.flow_fwd, frame.disparity
            v = fp.valid & np.isfinite(flow).all(axis=-1)
            err_u = np.abs(flow[..., 0] + d)[v]
            err_v = np.abs(flow[..., 1])[v]
            worst = max(worst, float(err_u.max()), float(err_v.max()))
    _report(2, "stereo-flow equivalence", worst < 1e-3, f"max err {worst:.2e}")


def test_03_scene_flow_round_trip():
    worst = 0.0
    for seed in range(10):
        spec = sf.generate_flyingthings_scene(seed, small_params(frames=2))
        fp = rasterize_frame(spec, 1, "left")
        frame = gt.derive_frame(fp, spec.rig)
        pose, pose_next = spec.camera_pose(1, "left"), spec.camera_pose(2, "left")
        pos, motion = gt.reconstruct_scene_flow(
            frame.flow_fwd, frame.disparity, frame.dispchange_fwd, spec.rig,
            pose, pose_next)
        truth_pos = pose.camera_to_world(fp.pos3d_t)
        truth_motion = pose_next.camera_to_world(fp.pos3d_next) - truth_pos
        valid = np.isfinite(motion).all(axis=-1)
        assert valid.sum() > 0.9 * fp.valid.sum()
        worst = max(worst,
                    float(np.abs(pos[valid] - truth_pos[valid]).max()),
                    float(np.abs(motion[valid] - truth_motion[valid]).max()))
    _report(3, "scene-flow round trip", worst < 1e-3, f"max err {worst:.2e}")


def test_04_forward_backward_consistency():
    worst_rate = 1.0
    for seed in range(5):
        spec = sf.generate_flyingthings_scene(seed, small_params())
        for view in ("left", "right"):
            passes = {t: rasterize_frame(spec, t, view)
                      for t in range(1, spec.frames + 1)}
            for t in range(1, spec.frames):
                fp, fp_next = passes[t], passes[t + 1]
                flow_fwd = gt.derive_frame(fp, spec.rig).flow_fwd
                occ = gt.compute_occlusion_mask(
                    fp, spec.rig, gt.next_frame_tables(fp_next))
                flow_bwd = gt.derive_frame(fp_next, spec.rig).flow_bwd
                target = gt.pixel_centers(*fp.depth.shape) + flow_fwd
                back = bilinear_sample(np.nan_to_num(flow_bwd), target)
                resid = np.linalg.norm(flow_fwd + back, axis=-1)
                check = fp.valid & ~occ & np.isfinite(resid)
                rate = float((resid[check] < 0.05).mean())
                worst_rate = min(worst_rate, rate)
    _report(4, "forward/backward consistency", worst_rate >= 0.99,
            f"worst per-frame rate {worst_rate:.4f}")


def test_05_metric_oracles():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        g = rng.normal(size=(16, 16, 2))
        p = rng.normal(size=(16, 16, 2))
        per_pixel, rep = metrics.epe_map(p, g)
        total = 0.0
        for y in range(16):
            for x in range(16):
                du, dv = p[y, x] - g[y, x]
                e = np.sqrt(du * du + dv * dv)
                ok &= per_pixel[y, x] == e
                total += e
        ok &= abs(rep.mean_epe - total / 256) < 1e-12

        gd = rng.uniform(0.5, 120.0, (16, 16))
        pd = gd + rng.normal(scale=5.0, size=(16, 16))
        frac, _ = metrics.d1_all(pd, gd)
        count = sum(
            1 for y in range(16) for x in range(16)
            if abs(pd[y, x] - gd[y, x]) > 3.0
            and abs(pd[y, x] - gd[y, x]) > 0.05 * gd[y, x]
        )
        ok &= frac == count / 256

    def case(gv, pv):
        frac, _ = metrics.d1_all(np.full((2, 2), float(pv)),
                                 np.full((2, 2), float(gv)))
        return frac

    ok &= case(100, 104) == 0.0
    ok &= case(100, 106) == 1.0
    ok &= case(10, 12.9) == 0.0
    _report(5, "metric oracles", ok)


def test_06_correlation_oracle():
    rng = np.random.default_rng(8)
    ok = True
    a = rng.normal(size=(16, 16, 4))
    b = rng.normal(size=(16, 16, 4))
    cv = match_oracle.correlate_1d(a, b, 6)
    for y in range(16):
        for x in range(16):
            for d in range(6):
                if x - d < 0:
                    ok &= bool(np.isnan(cv[y, x, d]))
                else:
                    expected = 0.0
                    for c in range(4):
                        expected += a[y, x, c] * b[y, x - d, c]
                    ok &= cv[y, x, d] == expected

    # shift recovery, by the oracle and by the shipped matcher
    for shift in (1, 7, 39):
        img = rng.integers(0, 256, (24, 160)).astype(np.float64)
        right = np.roll(img, -shift, axis=1)
        fa = match_oracle.extract_features(img)
        fb = match_oracle.extract_features(right)
        cvs = match_oracle.correlate_1d(fa, fb, shift + 10)
        disp, _ = match_oracle.wta_disparity(cvs)
        interior = disp[2:-2, shift + 2:-shift - 2]
        ok &= (interior == shift).mean() >= 0.99
        est, _ = match.estimate_disparity(img, right, max_disp=shift + 10)
        interior = np.rint(est[2:-2, shift + 2:-shift - 2])
        ok &= (interior == shift).mean() >= 0.99

    # gain invariance, by the oracle and by the shipped matcher
    d1, _ = match_oracle.wta_disparity(match_oracle.correlate_1d(a, b, 6))
    d2, _ = match_oracle.wta_disparity(
        match_oracle.correlate_1d(a * 5.5, b * 0.3, 6))
    ok &= np.array_equal(d1, d2)
    left, right = rng.integers(0, 256, (2, 24, 96)).astype(np.float64)
    est = match.estimate_disparity(left, right, max_disp=16)
    scaled = match.estimate_disparity(left * 4.0, right * 0.25, max_disp=16)
    ok &= all(e.tobytes() == s.tobytes() for e, s in zip(est, scaled))
    _report(6, "correlation oracle", ok)


def test_07_matcher_rendered_sanity():
    spec = box_scene([noise_box((0, 0, 14.25), (8, 6, 0.5))])
    left = rasterize_frame(spec, 1, "left")
    right = rasterize_frame(spec, 1, "right")
    est, _ = match.estimate_disparity(left.rgb, right.rgb, max_disp=32, patch=9)
    gt_disp = spec.rig.baseline * spec.rig.intrinsics.focal_px / left.depth
    both = left.valid & np.roll(right.valid, 10, axis=1)
    both[:, :10] = False
    rate = float((np.abs(est - gt_disp)[both] < 0.25).mean())
    _report(7, "matcher rendered sanity", rate >= 0.95, f"rate {rate:.4f}")


def test_08_motion_boundary_thresholds():
    from conftest import make_passes, with_flow
    from test_groundtruth import INTR, RIG

    def two_objects(obj2_mask, flow2, shape=(16, 16)):
        obj = np.ones(shape, dtype=np.uint16)
        obj[obj2_mask] = 2
        passes = make_passes(np.full(shape, 10.0), INTR, index=obj)
        flow = np.zeros(shape + (2,))
        flow[obj2_mask] = flow2
        return passes, flow

    def boundaries(passes, flow):
        return gt.derive_frame(with_flow(passes, flow, INTR),
                               RIG).motion_boundaries

    half = np.zeros((16, 16), dtype=bool)
    half[:, 8:] = True
    p14, f14 = two_objects(half, (1.4, 0.0))
    p16, f16 = two_objects(half, (1.6, 0.0))
    ok = not boundaries(p14, f14).any()
    ok &= boundaries(p16, f16).any()

    corner = np.zeros((16, 16), dtype=bool)
    corner[13:, 14:] = True  # yields a 9-px marked component
    p9, f9 = two_objects(corner, (2.0, 0.0))
    ok &= not boundaries(p9, f9).any()

    p10, f10 = two_objects(half, (2.0, 0.0))
    f10[5:, :] = 0.0  # 5 rows above threshold -> 10-px component
    mb = boundaries(p10, f10)
    ok &= int(mb.sum()) == 10
    _report(8, "motion-boundary thresholds", ok)


def test_09_determinism(tmp_path, monkeypatch):
    args = ["generate", "--seed", "5", "--frames", "2", "--size", "64x48",
            "--n-objects", "2..3", "--n-background", "4", "--out", "ds"]
    trees = {}
    for cpus in (1, 2):
        workdir = tmp_path / f"run-{cpus}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        set_cpus(monkeypatch, cpus)  # one worker per usable CPU
        assert main(args) == 0
        trees[cpus] = tree_bytes(workdir / "ds")
    identical = trees[1].keys() == trees[2].keys() and all(
        trees[1][rel] == trees[2][rel] for rel in trees[1]
    )
    _report(9, "determinism across 1 and 2 usable CPUs", identical,
            f"{len(trees[1])} files compared")


def test_10_format_bijections():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(20):
        h, w = rng.integers(1, 12, 2)
        m1 = rng.normal(size=(h, w)).astype(np.float32)
        m1[rng.random((h, w)) < 0.15] = np.nan
        ok &= formats.read_pfm(bytes(formats.write_pfm(m1))).tobytes() == m1.tobytes()
        m3 = rng.normal(size=(h, w, 3)).astype(np.float32)
        ok &= formats.read_pfm(bytes(formats.write_pfm(m3))).tobytes() == m3.tobytes()
        fl = rng.normal(size=(h, w, 2)).astype(np.float32)
        fl[rng.random((h, w)) < 0.15] = np.nan
        ok &= formats.read_flo(bytes(formats.write_flo(fl))).tobytes() == fl.tobytes()
        img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        ok &= np.array_equal(formats.read_ppm(bytes(formats.write_ppm(img))), img)
        mask = rng.integers(0, 65536, (h, w), dtype=np.uint16)
        ok &= np.array_equal(formats.read_pgm16(bytes(formats.write_pgm16(mask))), mask)
    manifest = {
        "dataset": "x", "seed": 4, "params": {"nested": [1, 2.5, "s"]},
        "rig": {"baseline": 1.0, "intrinsics": {}},
        "frames": [{"time": 1, "cameras": {"left": {}},
                    "files": {"left": {"rgb": "x/rgb/0001_L.ppm"}}}],
        "complete": True,
    }
    text = formats.write_manifest(manifest)
    back = formats.read_manifest(text)
    ok &= formats.write_manifest(
        {k: v for k, v in back.items() if k != "version"}) == text
    _report(10, "format bijections", ok)


def test_11_rig_constants(tmp_path):
    out_default = tmp_path / "default"
    assert main(["generate", "--preset", "driving", "--seed", "0",
                 "--frames", "2", "--out", str(out_default)]) == 0
    config = json.loads((out_default / "config.generate.json").read_text())
    ok = config["focal_px"] == 1050.0
    ok &= config["width"] == 960 and config["height"] == 540
    ok &= config["baseline"] == 1.0
    ok &= config["max_disp_default"] == 160

    out_wide = tmp_path / "wide"
    assert main(["generate", "--preset", "driving", "--seed", "0",
                 "--frames", "2", "--focal-mm", "15", "--out", str(out_wide)]) == 0
    wide = json.loads((out_wide / "config.generate.json").read_text())
    ok &= wide["focal_px"] == 450.0
    _report(11, "rig constants in resolved config", ok)
