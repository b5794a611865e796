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
from sceneflowgen.cli import build_parser, main
from sceneflowgen.match import estimate_disparity

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
        config = json.loads((out / "config.generate.json").read_text())
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
                if rel == "config.generate.json":  # records the differing --out path
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

    def test_size_above_pixel_cap_exit_code(self, tmp_path, capsys):
        # one pixel more than formats reads back: nothing is written
        out = tmp_path / "ds"
        args = GEN_ARGS + ["--out", str(out)]
        args[args.index("--size") + 1] = "16385x16384"
        assert main(args) == 1
        assert "error [GeometryError]" in capsys.readouterr().err
        assert not out.exists()

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
        assert after.keys() == before.keys() | {"config.derive.json"}
        for rel, payload in before.items():
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
            if rel in render or rel == "config.generate.json":
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
        assert set(tree_bytes(fresh)) == listed | {"config.derive.json"}


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


def _material_differs(m, ds):
    # the right size, one index changed
    path = ds / m["frames"][0]["files"]["left"]["material_index"]
    index = formats.read_pgm16(path.read_bytes())
    index[0, 0] += 1
    path.write_bytes(formats.write_pgm16(index))


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
    "material pass differs from the object pass": _material_differs,
    "3-channel depth": _channels("depth", (48, 64, 3)),
    "1-channel pos3d_t": _channels("pos3d_t", (48, 64)),
    "1-channel pos3d_next": _channels("pos3d_next", (48, 64)),
    "path with ..": _path_outside,
    "rig baseline NaN": _nan_baseline,
    "sensor width 0": _zero_sensor_width,
    "frame 2 right rotation NaN": _nan_right_rotation,
    # frames 1 and 2 are each other's neighbours, so each needs the
    # position pass toward the other
    "frame 1 without pos3d_next": _drop("frames", 0, "files", "left",
                                        "pos3d_next"),
    "frame 2 without pos3d_prev": _drop("frames", 1, "files", "left",
                                        "pos3d_prev"),
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

    @pytest.mark.parametrize("frame, name", [(1, "pos3d_next"),
                                             (2, "pos3d_prev")])
    def test_missing_neighbour_pass_writes_nothing(self, dataset, tmp_path,
                                                   capsys, frame, name):
        ds, fresh = tmp_path / "ds", tmp_path / "fresh"
        shutil.copytree(dataset, ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        del manifest["frames"][frame - 1]["files"]["left"][name]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        before = tree_bytes(ds)
        for argv in (["derive", str(ds), "--out", str(fresh)],
                     ["derive", str(ds)], ["inspect", str(ds)]):
            capsys.readouterr()
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err == (f"error [ParseError]: frame {frame} left: "
                           f"no ['{name}']\n"), argv
        assert tree_bytes(ds) == before
        assert not fresh.exists()

    @pytest.mark.parametrize("key", ["focal_mm", "height"])
    def test_string_intrinsics_are_a_parse_error(self, dataset, tmp_path,
                                                 capsys, key):
        ds = tmp_path / "ds"
        shutil.copytree(dataset, ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        intrinsics = manifest["rig"]["intrinsics"]
        intrinsics[key] = str(intrinsics[key])
        (ds / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["derive", str(ds)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ParseError]: ") and key in err, err

    # each converts to a valid value (True to 1, a numeric string to its
    # float), so only the type check refuses it
    @pytest.mark.parametrize("key", ["baseline", "translation", "rotation"])
    def test_non_number_rig_and_poses_are_a_parse_error(self, dataset,
                                                         tmp_path, capsys,
                                                         key):
        ds = tmp_path / "ds"
        shutil.copytree(dataset, ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        camera = manifest["frames"][1]["cameras"]["right"]
        if key == "baseline":
            manifest["rig"]["baseline"] = True
        elif key == "translation":
            camera["translation"][0] = str(camera["translation"][0])
        else:
            camera["rotation"] = [[float(i == j) for j in range(3)]
                                  for i in range(3)]
            camera["rotation"][2][2] = True
        (ds / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["derive", str(ds)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ParseError]: ") and key in err, err

    def test_zero_pfm_scale_is_a_parse_error(self, dataset, tmp_path, capsys):
        # a scale of 0.0 gives no byte order, so no depth can be read
        ds = tmp_path / "ds"
        shutil.copytree(dataset, ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        path = ds / manifest["frames"][0]["files"]["left"]["depth"]
        path.write_bytes(path.read_bytes().replace(b"\n-1.0\n", b"\n0.0\n", 1))
        capsys.readouterr()
        assert main(["derive", str(ds)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ParseError]: ") and "b'0.0'" in err, err
        assert err.startswith(f"error [ParseError]: {path.resolve()}: "), err

    def test_8_bit_object_index_is_a_parse_error_naming_it(self, dataset,
                                                           tmp_path, capsys):
        # index passes are 16-bit: a .pgm of the right values but maxval
        # 255 is refused, not read at the bit depth its header gives
        ds = tmp_path / "ds"
        shutil.copytree(dataset, ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        path = ds / manifest["frames"][0]["files"]["left"]["object_index"]
        index = formats.read_pgm16(path.read_bytes())
        path.write_bytes(formats.write_pgm8(index))
        capsys.readouterr()
        assert main(["derive", str(ds)]) == 1
        assert capsys.readouterr().err == (
            f"error [ParseError]: {path.resolve()}: "
            "P5 maxval 255, expected 65535\n")

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

    def test_confidence_into_new_directory(self, tmp_path):
        # each output's directory is made when its file is written
        rng = np.random.default_rng(1)
        left = rng.integers(0, 256, (12, 40, 3), dtype=np.uint8)
        lp, rp = tmp_path / "l.ppm", tmp_path / "r.ppm"
        lp.write_bytes(formats.write_ppm(left))
        rp.write_bytes(formats.write_ppm(np.roll(left, -3, axis=1)))
        out = tmp_path / "est" / "disp.pfm"
        conf = tmp_path / "newdir" / "sub" / "c.pfm"
        code = main(["estimate", str(lp), str(rp), "--max-disp", "8",
                     "--out", str(out), "--confidence-out", str(conf)])
        assert code == 0
        _, expected = estimate_disparity(formats.read_ppm(lp.read_bytes()),
                                         formats.read_ppm(rp.read_bytes()), 8)
        assert conf.read_bytes() == formats.write_pfm(expected)
        assert out.is_file() and (out.parent / "config.estimate.json").is_file()

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

    def test_nan_prediction_where_ground_truth_is_nan(self, tmp_path, capsys):
        # only where the ground truth is invalid too: the report holds
        # finite numbers, strict JSON
        gt = np.full((4, 6), 12.0, dtype=np.float32)
        gt[:, 0] = np.nan
        pred = gt + 1.0
        g, p, out = tmp_path / "g.pfm", tmp_path / "p.pfm", tmp_path / "r.json"
        g.write_bytes(formats.write_pfm(gt))
        p.write_bytes(formats.write_pfm(pred))
        assert main(["evaluate", "--pred", str(p), "--gt", str(g),
                     "--out", str(out)]) == 0

        def refuse(name):
            raise AssertionError(f"{name} in the report")

        data = json.loads(out.read_text(), parse_constant=refuse)
        assert data["aggregate"]["per_pixel"]["mean_epe"] == 1.0
        assert data["aggregate"]["per_pixel"]["evaluated_pixels"] == 20

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

    @staticmethod
    def two_frame_report(tmp_path):
        """evaluate --metric both of two 4x4 frames. Frame 0: 16 px, none
        bad; frame 1: ground truth 0 (no D1-all verdict) in three columns,
        and all 4 px of the fourth are bad."""
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
                     "--metric", "both", "--out", str(report)]) == 0
        return json.loads(report.read_text())

    def test_d1_aggregate_weighted_by_its_own_pixels(self, tmp_path, capsys):
        agg = self.two_frame_report(tmp_path)["aggregate"]
        assert "20.00%" in capsys.readouterr().out
        assert agg["per_pixel"]["d1_all"] == pytest.approx(4 / 20)
        assert agg["per_frame"]["d1_all"] == pytest.approx(0.5)
        assert agg["per_pixel"]["mean_epe"] == pytest.approx(40 / 32)
        assert agg["per_pixel"]["evaluated_pixels"] == 32

    def test_report_holds_d1_pixel_counts(self, tmp_path):
        # each report with both measures also gives D1-all's own pixels,
        # so the per-frame reports re-aggregate to the per-pixel D1-all
        data = self.two_frame_report(tmp_path)
        frames = [f["all"] for f in data["frames"]]
        assert [f["evaluated_pixels"] for f in frames] == [16, 16]
        assert [f["d1_evaluated_pixels"] for f in frames] == [16, 4]
        assert [f["d1_valid_pixels"] for f in frames] == [16, 4]
        assert [f["d1_all"] for f in frames] == [0.0, 1.0]
        agg = data["aggregate"]["per_pixel"]
        assert agg["d1_evaluated_pixels"] == 20
        assert agg["evaluated_pixels"] == 32
        assert agg["d1_all"] == pytest.approx(
            sum(f["d1_all"] * f["d1_evaluated_pixels"] for f in frames)
            / sum(f["d1_evaluated_pixels"] for f in frames))

    def test_single_measure_reports_have_no_d1_counts(self, tmp_path):
        g = tmp_path / "g.pfm"
        g.write_bytes(formats.write_pfm(np.full((2, 2), 4.0, dtype=np.float32)))
        for metric in ("epe", "d1all"):
            report = tmp_path / f"{metric}.json"
            assert main(["evaluate", "--pred", str(g), "--gt", str(g),
                         "--metric", metric, "--out", str(report)]) == 0
            data = json.loads(report.read_text())
            for r in (data["frames"][0]["all"], data["aggregate"]["per_pixel"]):
                assert "d1_evaluated_pixels" not in r, metric

    def test_mixed_flow_and_disparity(self, tmp_path, capsys):
        # --metric both on a flow pair and a disparity pair: D1-all scores
        # the disparity frame alone, EPE every frame
        flow = np.zeros((4, 4, 2), dtype=np.float32)
        pred_flow = flow.copy()
        pred_flow[..., 0] = 3.0
        pred_flow[..., 1] = 4.0
        gt = np.full((4, 4), 10.0, dtype=np.float32)
        pred = gt.copy()
        pred[0] = 20.0  # 4 px bad
        occ = np.zeros((4, 4), dtype=np.uint8)
        occ[:, 0] = 255
        files = {}
        for name, data, write in (
                ("g.flo", flow, formats.write_flo),
                ("p.flo", pred_flow, formats.write_flo),
                ("g.pfm", gt, formats.write_pfm),
                ("p.pfm", pred, formats.write_pfm),
                ("o.pgm", occ, formats.write_pgm8)):
            files[name] = tmp_path / name
            files[name].write_bytes(write(data))
        report = tmp_path / "report.json"
        assert main(["evaluate", "--pred", str(files["p.flo"]),
                     str(files["p.pfm"]), "--gt", str(files["g.flo"]),
                     str(files["g.pfm"]), "--occlusion", str(files["o.pgm"]),
                     str(files["o.pgm"]), "--metric", "both",
                     "--out", str(report)]) == 0
        data = json.loads(report.read_text())
        for mask, n in (("all", 16), ("non_occluded", 12)):
            flow_report, disp_report = (f[mask] for f in data["frames"])
            assert flow_report["d1_all"] is None
            assert "d1_evaluated_pixels" not in flow_report
            assert "d1_valid_pixels" not in flow_report
            assert disp_report["d1_evaluated_pixels"] == n
            assert disp_report["d1_valid_pixels"] == 16
            agg = (data["aggregate"] if mask == "all"
                   else data["aggregate"][mask])
            for weighting in ("per_pixel", "per_frame"):
                assert (agg[weighting]["d1_evaluated_pixels"]
                        == disp_report["d1_evaluated_pixels"])
                assert agg[weighting]["evaluated_pixels"] == (
                    flow_report["evaluated_pixels"]
                    + disp_report["evaluated_pixels"])
        rows = {line.split()[0]: line.split()[1:]
                for line in capsys.readouterr().out.splitlines()[1:]}
        assert rows["frame0"] == ["5.00", "5.00"]  # EPE alone
        assert rows["frame1"] == ["2.50", "/", "25.00%"] * 2

    def test_rows_in_frame_order(self, tmp_path, capsys):
        # twelve frames: frame10 and frame11 print after frame09
        paths = []
        for i in range(12):
            paths.append(tmp_path / f"{i}.pfm")
            paths[-1].write_bytes(
                formats.write_pfm(np.full((2, 2), i + 1.0, dtype=np.float32)))
        assert main(["evaluate", "--pred", *map(str, paths),
                     "--gt", *map(str, paths)]) == 0
        rows = [line.split()[0]
                for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows == ["aggregate/per-frame", "aggregate/per-pixel",
                        *(f"frame{i:02d}" for i in range(12))]

    def test_empty_occlusion_entry_refused(self, tmp_path, capsys):
        g = tmp_path / "g.pfm"
        g.write_bytes(formats.write_pfm(np.ones((2, 2), dtype=np.float32)))
        o = tmp_path / "o.pgm"
        o.write_bytes(formats.write_pgm8(np.zeros((2, 2), dtype=np.uint8)))
        report = tmp_path / "report.json"
        code = main(["evaluate", "--pred", str(g), str(g), "--gt", str(g),
                     str(g), "--occlusion", str(o), "", "--out", str(report)])
        assert code == 1
        assert ("error [ContractError]: need one occlusion mask per "
                "prediction") in capsys.readouterr().err
        assert not report.exists()

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

    # derive refuses both; inspect of a complete dataset checks what
    # derive checks (an incomplete one is only summarized)
    @pytest.mark.parametrize("key", ["baseline", "translation"])
    def test_what_derive_refuses_is_a_parse_error(self, tmp_path, capsys,
                                                  key):
        out = tmp_path / "ds"
        assert main(GEN_ARGS + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        if key == "baseline":
            manifest["rig"]["baseline"] = True
        else:
            camera = manifest["frames"][0]["cameras"]["left"]
            camera["translation"][0] = str(camera["translation"][0])
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ParseError]: "), err

    def test_single_map(self, tmp_path, capsys):
        src = tmp_path / "d.pfm"
        src.write_bytes(formats.write_pfm(np.full((3, 3), 2.5, dtype=np.float32)))
        assert main(["inspect", str(src)]) == 0
        text = capsys.readouterr().out
        assert "shape (3, 3)" in text

    def test_signalling_nan_reads_as_nan(self, tmp_path, capsys):
        # float32 0x7f810000 is a signalling NaN: widening it to float64
        # raises the invalid flag, which numpy would report as a warning
        src = tmp_path / "d.pfm"
        a = np.array([[0x7F810000, 0x3F800000]], dtype="<u4").view("<f4")
        src.write_bytes(formats.write_pfm(a))
        assert main(["inspect", str(src)]) == 0
        assert "shape (1, 2)" in capsys.readouterr().out

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


def _evaluate_nan_prediction(tmp):
    pred = tmp / "p.pfm"
    pred.write_bytes(formats.write_pfm(np.full((4, 6), np.nan, dtype=np.float32)))
    return ["evaluate", "--pred", str(pred), "--gt", _pfm_file(tmp / "g.pfm"),
            "--out", str(tmp / "r.json")]


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


def _inspect_incomplete_manifest_without_width(tmp):
    m = minimal_manifest()  # its intrinsics are empty
    m["complete"] = False  # so inspect does not check it as derive would
    return ["inspect", _manifest_dir(tmp, formats.write_manifest(m).encode())]


def _derive_non_utf8_manifest(tmp):
    return ["derive", _manifest_dir(tmp, b"\xfe\xff")]


def _estimate_outputs(out, confidence=None):
    def build(tmp):
        img = tmp / "a.ppm"
        img.write_bytes(_valid_input(".ppm"))
        argv = ["estimate", str(img), str(img), "--max-disp", "1",
                "--out", str(tmp / out)]
        return argv + (["--confidence-out", str(tmp / confidence)]
                       if confidence else [])
    return build


def _estimate_signalling_nan_pfm(tmp):
    # float32 0x7f810000 widens to float64 with the invalid flag raised
    img = np.full((4, 6), 9.0, dtype=np.float32)
    img.view("<u4")[0, 0] = 0x7F810000
    pfm = tmp / "a.pfm"
    pfm.write_bytes(formats.write_pfm(img))
    return ["estimate", str(pfm), str(pfm), "--max-disp", "1",
            "--out", str(tmp / "d.pfm")]


def _visualize_out_pgm(tmp):
    return ["visualize", _pfm_file(tmp / "d.pfm"), "--out", str(tmp / "v.pgm")]


def _inspect_10_bit_pgm(tmp):
    pgm = tmp / "m.pgm"
    pgm.write_bytes(b"P5\n2 2\n1023\n" + bytes(8))
    return ["inspect", str(pgm)]


def _generate_size(value):
    def build(tmp):
        args = GEN_ARGS + ["--out", str(tmp / "ds")]
        args[args.index("--size") + 1] = value
        return args
    return build


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
    "inspect incomplete manifest without width": (
        _inspect_incomplete_manifest_without_width, "ParseError"),
    "derive non-UTF-8 manifest": (_derive_non_utf8_manifest, "ParseError"),
    "generate size without x": (_generate_size("64"), "ContractError"),
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
    # scored as D1-all 0.00%, with "mean_epe": NaN in the report
    "evaluate NaN prediction": (_evaluate_nan_prediction, "ContractError"),
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
    # read at the bit depth its maxval gives: 8 or 16 bits, nothing else
    "inspect 10-bit pgm": (_inspect_10_bit_pgm, "ParseError"),
    # estimate writes PFM bytes and visualize PPM bytes, whatever the suffix
    "estimate --out .flo": (_estimate_outputs("d.flo"), "ContractError"),
    "estimate --confidence-out .ppm": (
        _estimate_outputs("d.pfm", "c.ppm"), "ContractError"),
    "visualize --out .pgm": (_visualize_out_pgm, "ContractError"),
    # a PFM is an image too: a NaN in it has no gray value, and no warning
    "estimate signalling-NaN pfm": (_estimate_signalling_nan_pfm, "ContractError"),
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

    @pytest.mark.parametrize("case, line", [
        ("generate size without x", "error [ContractError]: --size expects WxH, got '64'"),
        ("inspect incomplete manifest without width",
         "error [ParseError]: manifest: missing or malformed 'width'"),
    ])
    def test_error_line(self, tmp_path, capsys, case, line):
        argv = BAD_INPUT[case][0](tmp_path)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("argv", [
    ["estimate", "l.ppm", "r.ppm", "--out", "est/d.flo"],
    ["estimate", "l.ppm", "r.ppm", "--out", "est/d.pfm",
     "--confidence-out", "est/c.ppm"],
    ["visualize", "d.pfm", "--out", "v/v.pgm"],
], ids=["estimate --out", "estimate --confidence-out", "visualize --out"])
def test_output_suffix_refused_before_any_read_or_write(tmp_path, capsys,
                                                        monkeypatch, argv):
    # no input exists, so a read would be an [io] error
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error [ContractError]: ")
    assert not list(tmp_path.iterdir())


def _truncated(path, payload):
    path.write_bytes(payload[:-1])
    return path


def _bad_estimate_right(tmp):
    left = tmp / "l.ppm"
    left.write_bytes(_valid_input(".ppm"))
    right = _truncated(tmp / "r.ppm", _valid_input(".ppm"))
    return ["estimate", str(left), str(right), "--max-disp", "1",
            "--out", str(tmp / "d.pfm")], right


def _bad_second_prediction(tmp):
    good = _pfm_file(tmp / "p1.pfm")
    bad = _truncated(tmp / "p2.pfm", _valid_input(".pfm"))
    return ["evaluate", "--pred", good, str(bad), "--gt", good, good], bad


def _bad_visualize_input(tmp):
    bad = _truncated(tmp / "f.flo", _valid_input(".flo"))
    return ["visualize", str(bad), "--out", str(tmp / "f.ppm")], bad


def _bad_inspect_input(tmp):
    bad = tmp / "m.pgm"
    bad.write_bytes(b"P5\n2 two\n255\n")
    return ["inspect", str(bad)], bad


@pytest.mark.parametrize("build", [
    _bad_estimate_right, _bad_second_prediction, _bad_visualize_input,
    _bad_inspect_input], ids=["estimate", "evaluate", "visualize", "inspect"])
def test_decode_error_names_the_file(tmp_path, capsys, build):
    argv, bad = build(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [ParseError]: {bad}: "), err


def test_inspect_truncated_16_bit_pgm_reports_the_truncation(tmp_path, capsys):
    pgm = tmp_path / "m.pgm"
    pgm.write_bytes(formats.write_pgm16(np.ones((4, 6), np.uint16))[:-1])
    assert main(["inspect", str(pgm)]) == 1
    assert capsys.readouterr().err == (
        f"error [ParseError]: {pgm}: truncated PGM payload at byte 60: "
        "need 48 bytes, have 47\n")


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


# every input file of every command that reads one, under each suffix
# `formats.read` takes (and a manifest's name for inspect); the first is
# the one the other slots get a valid file of
MAPS, IMAGES = (".pfm", ".flo", ".ppm", ".pgm"), (".ppm", ".pgm", ".pfm", ".flo")
FUZZ_INPUTS = {
    "estimate": {"left": IMAGES, "right": IMAGES},
    "evaluate": {"pred": MAPS, "gt": MAPS, "occlusion": (".pgm", *MAPS[:3])},
    "visualize": {"input": MAPS},
    "inspect": {"input": MAPS + ("manifest.json",)},
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
    return argv, out.parent / "config.estimate.json"


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


def _generate_config(preset):
    def build(tmp):
        out = tmp / "ds"
        return GEN_ARGS + ["--preset", preset, "--out", str(out)], out
    return build


def _derive_config(to_fresh):
    def build(tmp):
        ds, fresh = tmp / "ds", tmp / "fresh"
        assert main(GEN_ARGS + ["--out", str(ds)]) == 0
        if to_fresh:
            return ["derive", str(ds), "--out", str(fresh)], fresh
        return ["derive", str(ds)], ds
    return build


def _estimate_confidence_config(tmp):
    argv, out = _estimate_output(tmp)
    return argv + ["--confidence-out", str(tmp / "c" / "c.pfm")], out.parent


def _evaluate_occlusion_config(tmp):
    pfm = _pfm_file(tmp / "g.pfm")
    mask = tmp / "o.pgm"
    mask.write_bytes(_valid_input(".pgm"))
    return ["evaluate", "--pred", pfm, "--gt", pfm, "--occlusion", str(mask),
            "--out", str(tmp / "r" / "r.json")], tmp / "r"


CONFIG_CASES = {
    "generate flyingthings": _generate_config("flyingthings"),
    "generate driving": _generate_config("driving"),
    "derive in place": _derive_config(False),
    "derive --out": _derive_config(True),
    "estimate": lambda tmp: (_estimate_output(tmp)[0], tmp),
    "estimate --confidence-out": _estimate_confidence_config,
    "evaluate --occlusion --out": _evaluate_occlusion_config,
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_config_records_every_argument(tmp_path, case):
    argv, out_dir = CONFIG_CASES[case](tmp_path)
    assert main(argv) == 0
    config = json.loads((out_dir / f"config.{argv[0]}.json").read_text())
    parsed = vars(build_parser().parse_args(argv))
    del parsed["command"], parsed["func"]
    if argv[0] == "derive":  # the directory it wrote to, --out or not
        parsed["out"] = str(out_dir)
    assert config["subcommand"] == argv[0]
    assert {key: config.get(key, "<absent>") for key in parsed} == parsed


def _generate_then_derive(tmp):
    ds = tmp / "ds"
    return [GEN_ARGS + ["--out", str(ds)], ["derive", str(ds)]], ds


def _estimate_then_evaluate(tmp):
    argv, out = _estimate_output(tmp)
    return [argv, ["evaluate", "--pred", str(out), "--gt", _pfm_file(tmp / "g.pfm"),
                   "--out", str(tmp / "r.json")]], tmp


@pytest.mark.parametrize("build", [_generate_then_derive, _estimate_then_evaluate],
                         ids=["derive in place", "evaluate beside estimate"])
def test_each_command_keeps_its_own_record(tmp_path, build):
    (first, then), out_dir = build(tmp_path)
    assert main(first) == 0
    record = (out_dir / f"config.{first[0]}.json").read_bytes()
    assert main(then) == 0
    assert (out_dir / f"config.{first[0]}.json").read_bytes() == record
    assert sorted(p.name for p in out_dir.glob("config*")) == sorted(
        f"config.{argv[0]}.json" for argv in (first, then))
    assert json.loads(record)["subcommand"] == first[0]


_IMPORT_GUARD = """
import json, sys
import sceneflowgen
from sceneflowgen.cli import main
from sceneflowgen.match import estimate_disparity

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
             if p.is_file() and p.name != "config.generate.json"}
    assert files == {p.relative_to(tmp_path / "noscipy")
                     for p in (tmp_path / "noscipy").rglob("*")
                     if p.is_file() and p.name != "config.generate.json"}
    assert len(files) == 69  # 68 maps of 3 frames and 2 views, the manifest
    for rel in sorted(files):
        assert (tmp_path / "noscipy" / rel).read_bytes() == \
            (tmp_path / "ds" / rel).read_bytes(), rel
    digest = hashlib.sha256()
    for rel in sorted(files):
        digest.update(str(rel).encode() + b"\0" + (tmp_path / "noscipy" / rel).read_bytes())
    assert digest.hexdigest() == GENERATE_64X48_DIGEST
