import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sceneflowgen
from sceneflowgen import formats
from sceneflowgen.cli import main

from conftest import set_cpus
from test_formats import minimal_manifest


GEN_ARGS = [
    "generate", "--seed", "5", "--frames", "2", "--size", "64x48",
    "--n-objects", "2..3", "--n-background", "4",
]


def tree_bytes(root):
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestGenerate:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "ds"
        assert main(GEN_ARGS + ["--out", str(out)]) == 0
        manifest = formats.read_manifest((out / "manifest.json").read_text())
        assert manifest["complete"] is True
        assert len(manifest["frames"]) == 2
        scene = manifest["dataset"]
        for pass_name in ("rgb", "depth", "pos3d_t", "disparity", "flow_fwd",
                          "object_index", "motion_boundaries", "occlusion_fwd"):
            assert (out / scene / pass_name).is_dir(), pass_name
        # frame 1 has forward passes, frame 2 only backward
        assert (out / scene / "flow_fwd" / "0001_L.flo").exists()
        assert not (out / scene / "flow_fwd" / "0002_L.flo").exists()
        assert (out / scene / "flow_bwd" / "0002_L.flo").exists()

    def test_config_log_resolved_values(self, tmp_path):
        out = tmp_path / "ds"
        assert main(GEN_ARGS + ["--out", str(out)]) == 0
        config = json.loads((out / "config.json").read_text())
        assert config["focal_px"] == 35.0 / 32.0 * 64
        assert config["sensor_width_mm"] == 32.0
        assert config["baseline"] == 1.0
        assert config["max_disp_default"] == 160
        assert config["motion_boundary_threshold_px"] == 1.5
        assert config["motion_boundary_min_area_px"] == 10

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        trees = {}
        for cpus in (1, 2, 3):
            out = tmp_path / f"ds-{cpus}"
            # one render and ground-truth worker per usable CPU
            set_cpus(monkeypatch, cpus)
            assert main(GEN_ARGS + ["--out", str(out)]) == 0
            trees[cpus] = tree_bytes(out)
        for cpus in (2, 3):
            assert trees[1].keys() == trees[cpus].keys()
            for rel in trees[1]:
                if rel == "config.json":  # records the differing --out path
                    continue
                assert trees[1][rel] == trees[cpus][rel], (cpus, rel)

    @pytest.mark.parametrize("n_objects", ["abc", "5", "1..2..3"])
    def test_bad_n_objects_exit_code(self, tmp_path, capsys, n_objects):
        args = GEN_ARGS + ["--out", str(tmp_path / "ds")]
        args[args.index("--n-objects") + 1] = n_objects
        assert main(args) == 1
        assert "error [ContractError]" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [("--baseline", "nan"),
                                               ("--baseline", "inf"),
                                               ("--focal-mm", "inf")])
    def test_non_finite_rig_exit_code(self, tmp_path, capsys, option, value):
        args = GEN_ARGS + [option, value, "--out", str(tmp_path / "ds")]
        assert main(args) == 1
        assert "error [GeometryError]" in capsys.readouterr().err

    def test_driving_preset(self, tmp_path):
        out = tmp_path / "drv"
        code = main(["generate", "--preset", "driving", "--seed", "1",
                     "--frames", "2", "--size", "64x48", "--out", str(out)])
        assert code == 0
        manifest = formats.read_manifest((out / "manifest.json").read_text())
        assert manifest["dataset"].startswith("driving")


RENDER_PASSES = {"rgb", "depth", "pos3d_t", "pos3d_prev", "pos3d_next",
                 "object_index", "material_index"}


class TestDerive:
    def test_rederive_matches_pipeline(self, tmp_path):
        out = tmp_path / "ds"
        assert main(GEN_ARGS + ["--out", str(out)]) == 0
        before = tree_bytes(out)
        assert main(["derive", str(out)]) == 0
        after = tree_bytes(out)
        assert before.keys() == after.keys()
        for rel, payload in before.items():
            if rel == "config.json":
                continue
            pass_name = Path(rel).parts[1] if len(Path(rel).parts) > 1 else ""
            if pass_name in ("disparity", "flow_fwd", "flow_bwd",
                             "dispchange_fwd", "dispchange_bwd"):
                # recomputed from the float32 maps on disk: equal to the
                # original float64 derivation up to storage quantization
                reader = (formats.read_flo if rel.endswith(".flo")
                          else formats.read_pfm)
                a = reader(payload)
                b = reader(after[rel])
                assert np.allclose(a, b, atol=1e-3, equal_nan=True), rel
            else:
                assert after[rel] == payload, rel

    def test_in_place_writes_only_derived_maps(self, tmp_path):
        out = tmp_path / "ds"
        assert main(GEN_ARGS + ["--out", str(out)]) == 0
        # the first derive turns the float64 maps of generate into the ones
        # the float32 passes give; from then on derive is a fixed point
        assert main(["derive", str(out)]) == 0
        manifest = formats.read_manifest((out / "manifest.json").read_text())
        render = {rel for f in manifest["frames"]
                  for view in f["files"].values()
                  for name, rel in view.items() if name in RENDER_PASSES}
        before = tree_bytes(out)
        stats = {rel: (out / rel).stat() for rel in before}
        assert main(["derive", str(out)]) == 0
        assert tree_bytes(out) == before
        for rel, st_before in stats.items():
            st_after = (out / rel).stat()
            if rel in render:
                assert st_after.st_ino == st_before.st_ino, rel
                assert st_after.st_mtime_ns == st_before.st_mtime_ns, rel
            elif rel != "manifest.json":  # derive writes no manifest
                assert st_after.st_ino != st_before.st_ino, rel

    def test_out_of_place_writes_every_listed_file(self, tmp_path):
        src = tmp_path / "ds"
        assert main(GEN_ARGS + ["--out", str(src)]) == 0
        fresh = tmp_path / "fresh"
        assert main(["derive", str(src), "--out", str(fresh)]) == 0
        manifest = formats.read_manifest((src / "manifest.json").read_text())
        listed = {rel for f in manifest["frames"]
                  for view in f["files"].values() for rel in view.values()}
        assert set(tree_bytes(fresh)) == listed | {"config.json"}


def _no_frames(m, ds):
    m["frames"] = []


def _drop(*keys):
    def mutate(m, ds):
        node = m
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
    return mutate


def _string_time(m, ds):
    m["frames"][0]["time"] = "1"


def _duplicate_time(m, ds):
    m["frames"][1]["time"] = 1


def _resized(name, encode, dtype):
    def mutate(m, ds):
        rel = m["frames"][1]["files"]["left"][name]
        (ds / rel).write_bytes(encode(np.ones((24, 32), dtype=dtype)))
    return mutate


def _channels(name, shape):
    # right size, wrong channel count, in frame 1, which has every pass
    def mutate(m, ds):
        rel = m["frames"][0]["files"]["left"][name]
        (ds / rel).write_bytes(formats.write_pfm(np.ones(shape, dtype=np.float32)))
    return mutate


def _nan_baseline(m, ds):
    m["rig"]["baseline"] = float("nan")  # json writes NaN, and reads it back


def _nan_right_rotation(m, ds):
    # orthonormality compares NaN to a tolerance, which is false
    m["frames"][1]["cameras"]["right"]["rotation"] = [[float("nan")] * 3] * 3


def _zero_sensor_width(m, ds):
    m["rig"]["intrinsics"]["sensor_width_mm"] = 0


def _path_outside(m, ds):
    # a whole, readable file, so only the path itself is at fault
    rel = m["frames"][0]["files"]["left"]["rgb"]
    shutil.copy(ds / rel, ds.parent / "outside.ppm")
    m["frames"][0]["files"]["left"]["rgb"] = "../outside.ppm"


MALFORMED = {
    "no frames": _no_frames,
    "view missing from files": _drop("frames", 0, "files", "right"),
    "view missing from cameras": _drop("frames", 1, "cameras", "left"),
    "pass missing": _drop("frames", 0, "files", "left", "object_index"),
    "rig without intrinsics": _drop("rig", "intrinsics"),
    "non-integer time": _string_time,
    "duplicate time": _duplicate_time,
    "pass of another size": _resized("depth", formats.write_pfm, np.float32),
    # derive never uses the material pass, but still checks it
    "material pass of another size": _resized(
        "material_index", formats.write_pgm16, np.uint16),
    "3-channel depth": _channels("depth", (48, 64, 3)),
    "1-channel pos3d_t": _channels("pos3d_t", (48, 64)),
    "1-channel pos3d_next": _channels("pos3d_next", (48, 64)),
    "path with ..": _path_outside,
    "rig baseline NaN": _nan_baseline,
    "sensor width 0": _zero_sensor_width,
    "frame 2 right rotation NaN": _nan_right_rotation,
}


class TestDeriveMalformed:
    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("gen") / "ds"
        assert main(GEN_ARGS + ["--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exit_code(self, dataset, tmp_path, capsys, case):
        ds = tmp_path / "ds"
        shutil.copytree(dataset, ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        MALFORMED[case](manifest, ds)
        (ds / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["derive", str(ds)]) == 1
        err = capsys.readouterr().err
        assert re.match(r"error \[\w+Error\]: ", err), err

    def test_incomplete_manifest_is_a_parse_error(self, dataset, tmp_path,
                                                  capsys):
        ds = tmp_path / "ds"
        shutil.copytree(dataset, ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["complete"] = False
        (ds / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["derive", str(ds)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ParseError]: manifest is incomplete"), err


class TestEstimate:
    def test_shifted_pair(self, tmp_path):
        rng = np.random.default_rng(0)
        left = rng.integers(0, 256, (32, 96, 3), dtype=np.uint8)
        right = np.roll(left, -7, axis=1)
        lp, rp = tmp_path / "l.ppm", tmp_path / "r.ppm"
        lp.write_bytes(formats.write_ppm(left))
        rp.write_bytes(formats.write_ppm(right))
        out = tmp_path / "disp.pfm"
        code = main(["estimate", str(lp), str(rp), "--max-disp", "16",
                     "--out", str(out)])
        assert code == 0
        disp = formats.read_pfm(out.read_bytes())
        interior = disp[2:-2, 9:-9]
        assert (np.abs(interior - 7.0) < 0.5).mean() > 0.99

    def test_size_mismatch_exit_code(self, tmp_path, capsys):
        a = tmp_path / "a.ppm"
        b = tmp_path / "b.ppm"
        a.write_bytes(formats.write_ppm(np.zeros((4, 4, 3), dtype=np.uint8)))
        b.write_bytes(formats.write_ppm(np.zeros((4, 5, 3), dtype=np.uint8)))
        code = main(["estimate", str(a), str(b), "--out", str(tmp_path / "o.pfm")])
        assert code == 1
        assert "error [ContractError]" in capsys.readouterr().err


    @pytest.mark.parametrize("max_disp", ["0", "7"])  # outside [1, W]
    def test_max_disp_out_of_range_exit_code(self, tmp_path, capsys, max_disp):
        img = tmp_path / "a.ppm"
        img.write_bytes(formats.write_ppm(np.zeros((4, 6, 3), dtype=np.uint8)))
        code = main(["estimate", str(img), str(img), "--max-disp", max_disp,
                     "--out", str(tmp_path / "o.pfm")])
        assert code == 1
        assert "error [ContractError]" in capsys.readouterr().err

    @pytest.mark.parametrize("header", [b"P6\nabc 2\n255\n",
                                        b"P6\n-1 -3\n255\n"])
    def test_malformed_ppm_exit_code(self, tmp_path, capsys, header):
        img = tmp_path / "a.ppm"
        img.write_bytes(header + bytes(9))
        code = main(["estimate", str(img), str(img), "--out",
                     str(tmp_path / "o.pfm")])
        assert code == 1
        assert "error [ParseError]" in capsys.readouterr().err


class TestEvaluate:
    def test_perfect_prediction(self, tmp_path, capsys):
        gt = np.random.default_rng(1).uniform(5.0, 40.0, (8, 8)).astype(np.float32)
        gt_path = tmp_path / "gt.pfm"
        pred_path = tmp_path / "pred.pfm"
        gt_path.write_bytes(formats.write_pfm(gt))
        pred_path.write_bytes(formats.write_pfm(gt))
        report = tmp_path / "report.json"
        code = main(["evaluate", "--pred", str(pred_path), "--gt", str(gt_path),
                     "--out", str(report)])
        assert code == 0
        table = capsys.readouterr().out
        assert "0.00" in table and "0.00%" in table
        data = json.loads(report.read_text())
        assert data["aggregate"]["per_pixel"]["mean_epe"] == 0.0
        assert data["aggregate"]["per_pixel"]["d1_all"] == 0.0

    def test_flow_maps_epe_only(self, tmp_path, capsys):
        flow = np.zeros((4, 4, 2), dtype=np.float32)
        pred = flow.copy()
        pred[..., 0] = 3.0
        pred[..., 1] = 4.0
        g, p = tmp_path / "g.flo", tmp_path / "p.flo"
        g.write_bytes(formats.write_flo(flow))
        p.write_bytes(formats.write_flo(pred))
        assert main(["evaluate", "--pred", str(p), "--gt", str(g),
                     "--metric", "epe"]) == 0
        assert "5.00" in capsys.readouterr().out

    def test_occlusion_aggregates_non_occluded(self, tmp_path, capsys):
        gt = np.full((4, 6), 10.0, dtype=np.float32)
        pred = gt.copy()
        pred[:, :2] = 20.0  # wrong only where occluded
        occ = np.zeros((4, 6), dtype=np.uint8)
        occ[:, :2] = 255
        g, p, o = tmp_path / "g.pfm", tmp_path / "p.pfm", tmp_path / "o.pgm"
        g.write_bytes(formats.write_pfm(gt))
        p.write_bytes(formats.write_pfm(pred))
        o.write_bytes(formats.write_pgm8(occ))
        report = tmp_path / "report.json"
        assert main(["evaluate", "--pred", str(p), str(p), "--gt", str(g),
                     str(g), "--occlusion", str(o), str(o),
                     "--out", str(report)]) == 0
        for line in capsys.readouterr().out.splitlines()[1:]:
            assert "---" not in line, line
        agg = json.loads(report.read_text())["aggregate"]
        assert agg["per_pixel"]["mean_epe"] == pytest.approx(10.0 / 3)
        assert agg["per_pixel"]["d1_all"] == pytest.approx(1.0 / 3)
        for weighting in ("per_pixel", "per_frame"):
            non_occluded = agg["non_occluded"][weighting]
            assert non_occluded["mean_epe"] == 0.0
            assert non_occluded["d1_all"] == 0.0
            assert non_occluded["evaluated_pixels"] == 2 * 16

    def test_d1_aggregate_weighted_by_its_own_pixels(self, tmp_path, capsys):
        # frame 0: 16 px, none bad; frame 1: ground truth 0 (no D1-all
        # verdict) in three columns, and all 4 px of the fourth are bad
        gt0 = np.full((4, 4), 10.0, dtype=np.float32)
        gt1 = gt0.copy()
        gt1[:, 1:] = 0.0
        pred1 = gt1.copy()
        pred1[:, 0] = 20.0
        paths = []
        for name, data in (("g0", gt0), ("p0", gt0), ("g1", gt1), ("p1", pred1)):
            paths.append(tmp_path / f"{name}.pfm")
            paths[-1].write_bytes(formats.write_pfm(data))
        g0, p0, g1, p1 = map(str, paths)
        report = tmp_path / "report.json"
        assert main(["evaluate", "--pred", p0, p1, "--gt", g0, g1,
                     "--out", str(report)]) == 0
        assert "20.00%" in capsys.readouterr().out
        agg = json.loads(report.read_text())["aggregate"]
        assert agg["per_pixel"]["d1_all"] == pytest.approx(4 / 20)
        assert agg["per_frame"]["d1_all"] == pytest.approx(0.5)
        assert agg["per_pixel"]["mean_epe"] == pytest.approx(40 / 32)
        assert agg["per_pixel"]["evaluated_pixels"] == 32

    def test_count_mismatch(self, tmp_path, capsys):
        g = tmp_path / "g.pfm"
        g.write_bytes(formats.write_pfm(np.ones((2, 2), dtype=np.float32)))
        code = main(["evaluate", "--pred", str(g), str(g), "--gt", str(g)])
        assert code == 1


class TestVisualize:
    def test_flow_to_ppm(self, tmp_path):
        flow = np.zeros((6, 6, 2), dtype=np.float32)
        flow[:3] = (2.0, 1.0)
        src = tmp_path / "f.flo"
        src.write_bytes(formats.write_flo(flow))
        out = tmp_path / "f.ppm"
        assert main(["visualize", str(src), "--out", str(out)]) == 0
        img = formats.read_ppm(out.read_bytes())
        assert img.shape == (6, 6, 3)

    def test_disparity_to_ppm(self, tmp_path):
        disp = np.linspace(1, 30, 24).reshape(4, 6).astype(np.float32)
        src = tmp_path / "d.pfm"
        src.write_bytes(formats.write_pfm(disp))
        out = tmp_path / "d.ppm"
        assert main(["visualize", str(src), "--out", str(out)]) == 0
        assert formats.read_ppm(out.read_bytes()).shape == (4, 6, 3)


class TestInspect:
    def test_dataset_summary(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(GEN_ARGS + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "seed: 5" in text
        assert "frames: 2" in text
        assert "complete: True" in text
        assert "resolution: 64x48" in text

    def test_single_map(self, tmp_path, capsys):
        src = tmp_path / "d.pfm"
        src.write_bytes(formats.write_pfm(np.full((3, 3), 2.5, dtype=np.float32)))
        assert main(["inspect", str(src)]) == 0
        text = capsys.readouterr().out
        assert "shape (3, 3)" in text

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope.pfm")]) == 1
        assert "error [io]" in capsys.readouterr().err


def _pfm_file(path, shape=(4, 6)):
    path.write_bytes(formats.write_pfm(np.full(shape, 9.0, dtype=np.float32)))
    return str(path)


def _truncated_pfm(path):
    path.write_bytes(formats.write_pfm(np.ones((4, 6), dtype=np.float32))[:-5])
    return str(path)


def _evaluate_truncated_pfm(tmp):
    return ["evaluate", "--pred", _truncated_pfm(tmp / "p.pfm"),
            "--gt", _pfm_file(tmp / "g.pfm")]


def _evaluate_mask_of_other_size(tmp):
    mask = tmp / "occ.pgm"
    mask.write_bytes(formats.write_pgm8(np.zeros((3, 3), dtype=np.uint8)))
    gt = _pfm_file(tmp / "g.pfm")
    return ["evaluate", "--pred", gt, "--gt", gt, "--occlusion", str(mask)]


def _evaluate_unknown_suffix(tmp):
    other = tmp / "p.txt"
    other.write_text("1 2 3\n")
    return ["evaluate", "--pred", str(other),
            "--gt", _pfm_file(tmp / "g.pfm")]


def _evaluate_d1all_on_flow(tmp):
    flo = tmp / "f.flo"
    flo.write_bytes(formats.write_flo(np.zeros((4, 6, 2), dtype=np.float32)))
    return ["evaluate", "--pred", str(flo), "--gt", str(flo),
            "--metric", "d1all"]


def _visualize_truncated_pfm(tmp):
    return ["visualize", _truncated_pfm(tmp / "d.pfm"),
            "--out", str(tmp / "d.ppm")]


def _visualize_unknown_suffix(tmp):
    other = tmp / "d.npy"
    other.write_bytes(b"\x93NUMPY")
    return ["visualize", str(other), "--out", str(tmp / "d.ppm")]


def _visualize_three_channel_pfm(tmp):
    return ["visualize", _pfm_file(tmp / "rgb.pfm", (4, 6, 3)),
            "--out", str(tmp / "rgb.ppm")]


def _visualize_scale(suffix, option, value):
    def build(tmp):
        src = tmp / f"map{suffix}"
        src.write_bytes(_valid_input(suffix))
        return ["visualize", str(src), option, value, "--out", str(tmp / "v.ppm")]
    return build


def _inspect_truncated_pfm(tmp):
    return ["inspect", _truncated_pfm(tmp / "d.pfm")]


def _inspect_unknown_suffix(tmp):
    other = tmp / "d.exr"
    other.write_bytes(b"v/1\x01")
    return ["inspect", str(other)]


def _manifest_dir(tmp, payload):
    (tmp / "ds").mkdir()
    (tmp / "ds" / "manifest.json").write_bytes(payload)
    return str(tmp / "ds")


def _inspect_non_utf8_manifest(tmp):
    return ["inspect", _manifest_dir(tmp, b'{"dataset": "\xff"}')]


def _inspect_manifest_without_resolution(tmp):
    m = minimal_manifest()  # valid, but its intrinsics are empty
    return ["inspect", _manifest_dir(tmp, formats.write_manifest(m).encode())]


def _derive_non_utf8_manifest(tmp):
    return ["derive", _manifest_dir(tmp, b"\xfe\xff")]


def _generate_n_background(value):
    def build(tmp):
        args = GEN_ARGS + ["--out", str(tmp / "ds")]
        args[args.index("--n-background") + 1] = value
        return args
    return build


BAD_INPUT = {
    "inspect non-UTF-8 manifest": (_inspect_non_utf8_manifest, "ParseError"),
    "inspect manifest without resolution": (
        _inspect_manifest_without_resolution, "ParseError"),
    "derive non-UTF-8 manifest": (_derive_non_utf8_manifest, "ParseError"),
    "generate negative n-background": (
        _generate_n_background("-3"), "ConfigurationError"),
    # object indices are uint16
    "generate n-background above 16-bit indices": (
        _generate_n_background("100000"), "ConfigurationError"),
    "generate n-background far above 16-bit indices": (
        _generate_n_background("100000000000"), "ConfigurationError"),
    "evaluate truncated pfm": (_evaluate_truncated_pfm, "ParseError"),
    "evaluate mask of other size": (_evaluate_mask_of_other_size, "ContractError"),
    "evaluate unknown suffix": (_evaluate_unknown_suffix, "ContractError"),
    "evaluate d1all on flow": (_evaluate_d1all_on_flow, "ContractError"),
    "visualize truncated pfm": (_visualize_truncated_pfm, "ParseError"),
    "visualize unknown suffix": (_visualize_unknown_suffix, "ContractError"),
    "visualize three-channel pfm": (_visualize_three_channel_pfm, "ContractError"),
    # a scale must be finite and > 0: -3 drew all white, 0 divided by zero
    "visualize negative max-flow": (
        _visualize_scale(".flo", "--max-flow", "-3"), "ContractError"),
    "visualize zero max-flow": (
        _visualize_scale(".flo", "--max-flow", "0"), "ContractError"),
    "visualize NaN max-flow": (
        _visualize_scale(".flo", "--max-flow", "nan"), "ContractError"),
    "visualize zero max-disp": (
        _visualize_scale(".pfm", "--max-disp", "0"), "ContractError"),
    "visualize infinite max-disp": (
        _visualize_scale(".pfm", "--max-disp", "inf"), "ContractError"),
    "inspect truncated pfm": (_inspect_truncated_pfm, "ParseError"),
    "inspect unknown suffix": (_inspect_unknown_suffix, "ContractError"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(BAD_INPUT))
    def test_exit_code(self, tmp_path, capsys, case):
        build, error = BAD_INPUT[case]
        argv = build(tmp_path)
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error [{error}]: "), captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


def _valid_input(suffix):
    """A small well-formed file of each kind the commands read."""
    if suffix == ".ppm":
        return formats.write_ppm(np.arange(72, dtype=np.uint8).reshape(4, 6, 3))
    if suffix == ".pgm":
        return formats.write_pgm8(np.arange(24, dtype=np.uint8).reshape(4, 6))
    if suffix == ".pfm":
        return formats.write_pfm(np.linspace(1, 9, 24, dtype=np.float32)
                                 .reshape(4, 6))
    if suffix == ".flo":
        return formats.write_flo(np.ones((4, 6, 2), dtype=np.float32))
    m = minimal_manifest()
    m["rig"]["intrinsics"] = {"width": 6, "height": 4}
    return formats.write_manifest(m).encode()


def _fuzz_argv(command, files, out):
    if command == "estimate":
        return ["estimate", files["left"], files["right"], "--max-disp", "1",
                "--out", str(out / "d.pfm")]
    if command == "evaluate":
        return ["evaluate", "--pred", files["pred"], "--gt", files["gt"],
                "--occlusion", files["occlusion"], "--out", str(out / "r.json")]
    if command == "visualize":
        return ["visualize", files["input"], "--out", str(out / "v.ppm")]
    return ["inspect", files["input"]]


# every input file of every command that reads one, under each name or
# suffix the command accepts for it
FUZZ_INPUTS = {
    "estimate": {"left": (".ppm", ".pgm"), "right": (".ppm", ".pgm")},
    "evaluate": {"pred": (".pfm", ".flo"), "gt": (".pfm", ".flo"),
                 "occlusion": (".pgm",)},
    "visualize": {"input": (".pfm", ".flo")},
    "inspect": {"input": (".pfm", ".flo", ".ppm", ".pgm", "manifest.json")},
}
FUZZ_CASES = [
    (command, slot, suffix)
    for command, slots in FUZZ_INPUTS.items()
    for slot, suffixes in slots.items() for suffix in suffixes
]


def _corrupted(suffix):
    valid = _valid_input(suffix)
    return st.one_of(
        st.binary(max_size=128),
        st.builds(lambda cut, tail: valid[:cut] + tail,
                  st.integers(0, len(valid)), st.binary(max_size=32)),
    )


@pytest.mark.parametrize("command, slot, suffix", FUZZ_CASES,
                         ids=["-".join(c) for c in FUZZ_CASES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_input_bytes_exit_cleanly(command, slot, suffix, data):
    payload = data.draw(_corrupted(suffix), label="payload")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {}
        for other, suffixes in FUZZ_INPUTS[command].items():
            kind = suffix if other == slot else suffixes[0]
            path = tmp / other / ("manifest.json" if kind == "manifest.json"
                                  else f"in{kind}")
            path.parent.mkdir()
            path.write_bytes(payload if other == slot else _valid_input(kind))
            files[other] = str(path)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(_fuzz_argv(command, files, tmp / "out"))
    assert code in (0, 1)
    if code == 1:
        assert stderr.getvalue().startswith("error ["), stderr.getvalue()


def _estimate_output(tmp):
    img = tmp / "a.ppm"
    img.write_bytes(_valid_input(".ppm"))
    out = tmp / "d.pfm"
    return ["estimate", str(img), str(img), "--max-disp", "1",
            "--out", str(out)], out


def _evaluate_output(tmp):
    pfm = tmp / "g.pfm"
    pfm.write_bytes(_valid_input(".pfm"))
    out = tmp / "r.json"
    return ["evaluate", "--pred", str(pfm), "--gt", str(pfm),
            "--out", str(out)], out


def _visualize_output(tmp):
    pfm = tmp / "g.pfm"
    pfm.write_bytes(_valid_input(".pfm"))
    out = tmp / "v.ppm"
    return ["visualize", str(pfm), "--out", str(out)], out


def _config_output(tmp):
    argv, out = _estimate_output(tmp)
    return argv, out.parent / "config.json"


@pytest.mark.parametrize("build", [_estimate_output, _evaluate_output,
                                   _visualize_output, _config_output],
                         ids=["estimate", "evaluate", "visualize", "config"])
def test_failed_write_keeps_old_output(tmp_path, capsys, monkeypatch, build):
    argv, out = build(tmp_path)
    assert main(argv) == 0
    old = out.read_bytes()
    out.write_bytes(b"old content")
    real_replace = os.replace

    def fail_on(target):
        def replace(src, dst):
            if Path(dst) == target:
                raise OSError("disk full")
            real_replace(src, dst)
        return replace

    monkeypatch.setattr(os, "replace", fail_on(out))
    capsys.readouterr()
    assert main(argv) == 1
    assert "error [io]" in capsys.readouterr().err
    assert out.read_bytes() == b"old content"
    assert not list(tmp_path.rglob("*.tmp"))
    monkeypatch.setattr(os, "replace", real_replace)
    assert main(argv) == 0
    assert out.read_bytes() == old


_IMPORT_GUARD = """
import json, sys
import sceneflowgen
from sceneflowgen.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import sceneflowgen": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded[argv[0]] = scipy_modules()
print("scipy modules:", json.dumps(loaded))
"""


def test_no_command_imports_scipy(tmp_path):
    ds, out = tmp_path / "ds", tmp_path / "est"
    scene = ds / "flyingthings-5"
    argvs = [
        GEN_ARGS + ["--out", str(ds)],
        ["estimate", str(scene / "rgb/0001_L.ppm"),
         str(scene / "rgb/0001_R.ppm"), "--max-disp", "16",
         "--out", str(out / "disparity.pfm")],
        ["evaluate", "--pred", str(out / "disparity.pfm"),
         "--gt", str(scene / "disparity/0001_L.pfm"),
         "--occlusion", str(scene / "occlusion_fwd/0001_L.pgm"),
         "--out", str(out / "evaluation.json")],
        ["derive", str(ds)],
        ["inspect", str(ds)],
        ["visualize", str(out / "disparity.pfm"),
         "--out", str(out / "disparity.ppm")],
    ]
    src = str(Path(sceneflowgen.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    loaded, = (json.loads(line.split(":", 1)[1]) for line in run.stdout.splitlines()
               if line.startswith("scipy modules:"))
    assert loaded == dict.fromkeys(
        ["import sceneflowgen", "generate", "estimate", "evaluate", "derive",
         "inspect", "visualize"], [])


def test_generate_without_scipy_writes_the_same_bytes(tmp_path):
    from test_pipeline import GENERATE_64X48_DIGEST  # imports this module

    # sys.modules['scipy'] = None makes any scipy import fail
    code = ("import sys; sys.modules['scipy'] = None; "
            "from sceneflowgen.cli import main; sys.exit(main(sys.argv[1:]))")
    argv = ["generate", "--seed", "1", "--frames", "3", "--size", "64x48"]
    src = str(Path(sceneflowgen.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c", code, *argv, "--out", str(tmp_path / "noscipy")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert main(argv + ["--out", str(tmp_path / "ds")]) == 0
    files = {p.relative_to(tmp_path / "ds") for p in (tmp_path / "ds").rglob("*")
             if p.is_file() and p.name != "config.json"}
    assert files == {p.relative_to(tmp_path / "noscipy")
                     for p in (tmp_path / "noscipy").rglob("*")
                     if p.is_file() and p.name != "config.json"}
    assert len(files) == 69  # 68 maps of 3 frames and 2 views, the manifest
    for rel in sorted(files):
        assert (tmp_path / "noscipy" / rel).read_bytes() == \
            (tmp_path / "ds" / rel).read_bytes(), rel
    digest = hashlib.sha256()
    for rel in sorted(files):
        digest.update(str(rel).encode() + b"\0" + (tmp_path / "noscipy" / rel).read_bytes())
    assert digest.hexdigest() == GENERATE_64X48_DIGEST
