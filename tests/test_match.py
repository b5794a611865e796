import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneflowgen import _parallel, match
from sceneflowgen.assets import Texture, make_cuboid
from sceneflowgen.errors import ContractError
from sceneflowgen.render import rasterize_frame
from sceneflowgen.scene import ObjectInstance
from sceneflowgen.trajectory import Trajectory

from conftest import at_once, set_cpus
import match_oracle
from match_oracle import oracle_estimate_disparity
from test_render import box_scene


def textured_image(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (h, w), dtype=np.uint8).astype(np.float64)


def features(image, patch=3, y=0, rows=None):
    """The matcher's features of rows y .. y + rows - 1 (all rows by
    default), channels last as the oracle lays them out."""
    gray = match._to_gray(image)
    h, w = gray.shape
    rows = h - y if rows is None else rows
    flat = match._features(gray, y, rows, patch)
    return np.ascontiguousarray(np.moveaxis(flat.reshape(-1, rows, w), 0, -1))


class TestExtractFeatures:
    def test_constant_image_zero_features(self):
        feats = features(np.full((5, 8), 3.0))
        assert np.allclose(feats, 0.0)
        assert feats.shape == (5, 8, 9)

    def test_isolated_bright_pixel(self):
        img = np.zeros((7, 7))
        img[3, 3] = 9.0
        feats = features(img)
        center = feats[3, 3]
        others = np.delete(center, 4)
        assert center[4] > 0
        assert np.allclose(others, others[0]) and others[0] < 0
        assert others.sum() == pytest.approx(-center[4])
        assert np.linalg.norm(center) == pytest.approx(1.0)

    def test_rgb_converted_to_gray(self):
        rgb = np.zeros((4, 4, 3), dtype=np.uint8)
        rgb[..., 1] = 100
        feats = features(rgb)
        assert np.allclose(feats, 0.0)  # constant luminance

    def test_bad_shape(self):
        with pytest.raises(ContractError):
            match._to_gray(np.zeros((2, 2, 2, 2)))
        with pytest.raises(ContractError):
            match._to_gray(np.zeros((4, 4, 4), dtype=np.uint8))

    def test_rgb_gray_bytes_and_peak(self):
        # luminance band by band: the bytes of the whole-image product, and
        # a peak below one float64 copy of the RGB image
        h, w = 540, 96
        rgb = np.random.default_rng(3).integers(0, 256, (h, w, 3), dtype=np.uint8)
        ref = rgb.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
        tracemalloc.start()
        try:
            gray = match._to_gray(rgb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gray.tobytes() == ref.tobytes()
        assert gray.tobytes() == match_oracle.to_gray(rgb).tobytes()
        assert peak < h * w * 3 * 8

    @pytest.mark.parametrize("patch", [1, 2, 3, 4, 5, 9, 13])
    def test_equals_channels_last_reductions(self, patch):
        # the features as numpy's mean and norm over a channels-last stack
        # (the oracle's), to the bit, zero signs included, on the whole
        # image and on bands of it; patch 13 has 169 > 128 channels
        img = textured_image(12, 17, seed=patch) / 7.0  # sums that round
        img[:, :6] = 7.0  # textureless patches
        img[4:7] = np.round(img[4:7] / 8) * 8  # quantized rows
        ref = match_oracle.extract_features(img, patch)
        feats = features(img, patch)
        assert feats.shape == ref.shape
        assert feats.tobytes() == ref.tobytes()
        for y, rows in [(0, 5), (5, 5), (10, 2), (3, 1)]:
            band = features(img, patch, y, rows)
            assert band.tobytes() == ref[y:y + rows].tobytes(), (y, rows)


class TestCorrelate1d:
    def test_dot_product_example(self):
        a = np.tile([1.0, 2.0], (3, 3, 1))
        b = np.tile([3.0, 4.0], (3, 3, 1))
        cv = match_oracle.correlate_1d(a, b, 2)
        assert np.allclose(cv[..., 0], 11.0)

    def test_invalid_entries_are_nan(self):
        a = np.ones((2, 5, 3))
        cv = match_oracle.correlate_1d(a, a, 4)
        for d in range(4):
            assert np.isnan(cv[:, :d, d]).all()
            assert np.isfinite(cv[:, d:, d]).all()

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(16, 16, 4))
        b = rng.normal(size=(16, 16, 4))
        max_disp = 6
        cv = match_oracle.correlate_1d(a, b, max_disp)
        for y in range(16):
            for x in range(16):
                for d in range(max_disp):
                    if x - d < 0:
                        assert np.isnan(cv[y, x, d])
                    else:
                        expected = 0.0
                        for c in range(4):
                            expected += a[y, x, c] * b[y, x - d, c]
                        assert cv[y, x, d] == expected

    def test_self_correlation_is_row_maximum(self):
        a = match_oracle.extract_features(textured_image(12, 20))
        cv = match_oracle.correlate_1d(a, a, 8)
        disp, _ = match_oracle.wta_disparity(cv)
        assert np.array_equal(disp, np.zeros_like(disp))

    def test_contracts(self):
        a = np.ones((4, 4))
        with pytest.raises(ContractError):
            match.estimate_disparity(a, np.ones((4, 5)), 2)
        with pytest.raises(ContractError):
            match.estimate_disparity(a, a, 0)
        with pytest.raises(ContractError):
            match.estimate_disparity(a, a, 5)
        for patch in (0, -1):
            with pytest.raises(ContractError, match="patch"):
                match.estimate_disparity(a, a, 2, patch)


class TestWta:
    @pytest.mark.parametrize("shift", [1, 7, 39])
    def test_shift_recovery(self, shift):
        img = textured_image(24, 160, seed=shift)
        right = np.roll(img, -shift, axis=1)  # content moves left, like disparity
        a = match_oracle.extract_features(img)
        b = match_oracle.extract_features(right)
        cv = match_oracle.correlate_1d(a, b, max_disp=shift + 10)
        disp, _ = match_oracle.wta_disparity(cv)
        interior = disp[2:-2, shift + 2:-shift - 2]
        assert (interior == shift).mean() >= 0.99

    def test_tie_breaks_toward_smaller(self):
        cv = np.zeros((1, 8, 6))
        cv[0, 7, 3] = 5.0
        cv[0, 7, 5] = 5.0
        disp, _ = match_oracle.wta_disparity(cv)
        assert disp[0, 7] == 3

    def test_confidence_margin(self):
        cv = np.zeros((1, 4, 3))
        cv[0, 3] = [1.0, 7.0, 4.0]
        disp, conf = match_oracle.wta_disparity(cv)
        assert disp[0, 3] == 1
        assert conf[0, 3] == pytest.approx(3.0)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(10, 30, 9))
        b = rng.normal(size=(10, 30, 9))
        cv1 = match_oracle.correlate_1d(a, b, 8)
        cv2 = match_oracle.correlate_1d(a * 3.7, b * 0.2, 8)
        d1, _ = match_oracle.wta_disparity(cv1)
        d2, _ = match_oracle.wta_disparity(cv2)
        assert np.array_equal(d1, d2)


class TestSubpixel:
    def volume(self, triple, n_d=5, at=2):
        cv = np.full((1, 10, n_d), -10.0)
        cv[0, 5, at - 1:at + 2] = triple
        return cv, np.full((1, 10), at, dtype=np.int64)

    def test_symmetric_offset_zero(self):
        cv, disp = self.volume([1.0, 5.0, 1.0])
        refined = match_oracle.subpixel_refine(cv, disp)
        assert refined[0, 5] == pytest.approx(2.0)

    def test_parabola_vertex_example(self):
        # costs (1, 3, 2): offset = (1-2)/(2*(1-6+2)) = 1/6
        cv, disp = self.volume([1.0, 3.0, 2.0])
        refined = match_oracle.subpixel_refine(cv, disp)
        assert refined[0, 5] == pytest.approx(2.0 + 1.0 / 6.0)

    def test_offset_clamped_below_half(self):
        cv, disp = self.volume([1.0, 3.0, 2.999999999])
        refined = match_oracle.subpixel_refine(cv, disp)
        assert abs(refined[0, 5] - 2.0) < 0.5

    def test_boundary_winner_unrefined(self):
        cv = np.zeros((1, 4, 3))
        disp = np.zeros((1, 4), dtype=np.int64)
        assert np.array_equal(match_oracle.subpixel_refine(cv, disp), disp)
        disp2 = np.full((1, 4), 2, dtype=np.int64)
        assert np.array_equal(match_oracle.subpixel_refine(cv, disp2), disp2)


def noise_box(center, scale, frames=2, seed=0, frequency=1.0):
    mesh = make_cuboid()
    tex = Texture("noise", {"seed": seed, "frequency": frequency})
    return ObjectInstance(
        mesh=mesh, texture=tex,
        scale=np.asarray(scale, dtype=np.float64),
        trajectory=Trajectory.static(center, t0=1.0, t1=float(frames)),
    )


class TestRenderedSanity:
    def test_frontoparallel_plane_epe(self):
        # noise-textured plane at Z=14: integer GT disparity of 10 px
        spec = box_scene([noise_box((0, 0, 14.25), (8, 6, 0.5))])
        left = rasterize_frame(spec, 1, "left")
        right = rasterize_frame(spec, 1, "right")
        # 9x9 patches smooth out parabola pixel-locking on the smooth texture
        est, _ = match.estimate_disparity(left.rgb, right.rgb, max_disp=32,
                                          patch=9)
        gt = spec.rig.baseline * spec.rig.intrinsics.focal_px / left.depth
        both = left.valid & np.roll(right.valid, 10, axis=1)
        both[:, :10] = False
        err = np.abs(est - gt)
        assert (err[both] < 0.25).mean() >= 0.95

    def test_default_hypothesis_count(self):
        assert match.DEFAULT_MAX_DISPARITY == 160


def assert_matches_volume(left, right, max_disp, patch=3):
    """estimate_disparity equals the volume oracle byte for byte for band
    heights of 1 row, 7 rows, H - 1, H and H + 5 rows, on 1 and 2 CPUs."""
    ref = [x.tobytes()
           for x in oracle_estimate_disparity(left, right, max_disp, patch)]
    h = np.shape(left)[0]
    for rows in sorted({1, 7, max(h - 1, 1), h, h + 5}):
        for cpus in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_parallel, "BAND_ROWS", rows)
                set_cpus(mp, cpus)
                est, conf = match.estimate_disparity(
                    left, right, max_disp=max_disp, patch=patch)
            assert [est.tobytes(), conf.tobytes()] == ref, (rows, cpus)
    return est, conf


class TestStreamingMatchesVolume:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(6, 24), rng.integers(20, 60)
        left = textured_image(h, w, seed)
        shifted = np.roll(left, -int(rng.integers(1, 8)), axis=1)
        noisy = shifted + rng.normal(0.0, 20.0, shifted.shape)
        for right in (shifted, noisy, textured_image(h, w, seed + 100)):
            assert_matches_volume(left, right, max_disp=int(rng.integers(4, w)))

    def test_flat_images_all_ties(self):
        flat = np.full((7, 15), 42.0)
        est, conf = assert_matches_volume(flat, flat, max_disp=9)
        assert np.array_equal(est, np.zeros_like(est))
        assert np.array_equal(conf, np.zeros_like(conf))

    # B is the fold's block of disparities (match._BLOCK): B - 1 is one
    # short block, B + 1 and 2B + 1 end in a block of one disparity
    @pytest.mark.parametrize("patch", [3, 9])
    @pytest.mark.parametrize("max_disp",
                             [1, 2, 3, "W", "B-1", "B+1", "2B+1"])
    def test_disparity_range_and_patch(self, max_disp, patch):
        left = textured_image(10, 24, seed=11)
        right = np.roll(left, -2, axis=1)
        b = match._BLOCK
        n_d = {"W": 24, "B-1": b - 1, "B+1": b + 1, "2B+1": 2 * b + 1}
        assert_matches_volume(left, right, n_d.get(max_disp, max_disp), patch)

    def test_rendered_box_scene(self):
        spec = box_scene([noise_box((0, 0, 14.25), (8, 6, 0.5))])
        left = rasterize_frame(spec, 1, "left")
        right = rasterize_frame(spec, 1, "right")
        assert_matches_volume(left.rgb, right.rgb, max_disp=32, patch=9)

    # A band is one flat run of rows * W pixels, so the cost at d of a pixel
    # with x < d would read the right image's previous row; these pairs make
    # such a wrapped product win wherever it is not masked.
    @pytest.mark.parametrize("h, w", [(9, 5), (12, 16), (20, 3)])
    def test_max_disp_equal_to_width(self, h, w):
        left = textured_image(h, w, seed=w)
        assert_matches_volume(left, textured_image(h, w, seed=w + 1), w)
        assert_matches_volume(left, np.roll(left, -1, axis=1), w)

    def test_texture_across_the_row_seam(self):
        # the right image's last columns hold the left image's first
        # columns one row up: a wrapped cost at d = k matches them exactly,
        # while every valid cost there meets a flat right image
        h, w, k = 12, 40, 8
        left = np.full((h, w), 90.0)
        left[:, :k] = textured_image(h, k, seed=4)
        right = np.full((h, w), 90.0)
        right[:-1, w - k:] = left[1:, :k]
        est, _ = assert_matches_volume(left, right, max_disp=k + 4)
        assert (est[:, :k] < k - 0.5).all()

    def test_one_pixel_wide(self):
        left = textured_image(11, 1, seed=5)
        assert_matches_volume(left, textured_image(11, 1, seed=6), 1)
        assert_matches_volume(left, left, 1)

    def test_textureless_rows_between_textured_rows(self):
        # stripes of four rows: the flat stripes' costs are all 0, so any
        # wrapped cost from the textured stripe above would win there
        left = textured_image(24, 30, seed=7)
        for y in range(0, 24, 8):
            left[y:y + 4] = 50.0
        right = np.roll(left, -3, axis=1)
        est, conf = assert_matches_volume(left, right, max_disp=12)
        flat = [y for y in range(24) if y % 8 in (1, 2)]
        assert (est[flat] == 0).all() and (conf[flat] == 0).all()

    @pytest.mark.parametrize("h", [1, 2, 5])
    def test_images_shorter_than_one_band(self, h):
        assert h < _parallel.BAND_ROWS
        left = textured_image(h, 30, seed=h)
        assert_matches_volume(left, np.roll(left, -3, axis=1), max_disp=12)


@st.composite
def matcher_cases(draw):
    """A pair of 1-40 by 1-70 images, with flat stripes that make ties,
    a disparity range, a patch, a band height, a CPU count and a block
    size of the disparity fold."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.integers(0, 256, (h, w)).astype(np.float64)
    kind = draw(st.sampled_from(["shifted", "noisy", "independent"]))
    if kind == "independent":
        right = rng.integers(0, 256, (h, w)).astype(np.float64)
    else:
        right = np.roll(left, -draw(st.integers(0, w - 1)), axis=1)
        if kind == "noisy":
            right += rng.normal(0.0, 20.0, right.shape)
    for axis, size in ((0, h), (1, w)):
        for start in draw(st.lists(st.integers(0, size - 1), max_size=3)):
            stripe = slice(start, start + draw(st.integers(1, 6)))
            index = (stripe, slice(None)) if axis == 0 else (slice(None), stripe)
            left[index] = right[index] = draw(st.sampled_from([0.0, 77.0]))
    return (left, right, draw(st.integers(1, w)),
            draw(st.sampled_from([1, 3, 5])), draw(st.integers(1, h + 5)),
            draw(st.sampled_from([1, 2])), draw(st.integers(1, 6)))


@settings(max_examples=80, deadline=None)
@given(case=matcher_cases())
def test_fold_matches_volume(case):
    # d mod 8 and W mod 8 vary, so the cache-line offset of the scratch
    # slices does too; the flat stripes give ties and zero margins, and
    # the block size varies where the last block of disparities ends
    left, right, max_disp, patch, rows, cpus, block = case
    ref = [x.tobytes()
           for x in oracle_estimate_disparity(left, right, max_disp, patch)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_parallel, "BAND_ROWS", rows)
        mp.setattr(match, "_BLOCK", block)
        set_cpus(mp, cpus)
        out = match.estimate_disparity(left, right, max_disp, patch)
    assert [x.tobytes() for x in out] == ref


class TestParabolaNeighbours:
    """The costs at best - 1 and best + 1, computed after the fold."""

    def test_winner_at_zero(self):
        left = textured_image(12, 30, seed=21)
        est, _ = assert_matches_volume(left, left, max_disp=10)
        assert np.array_equal(est, np.zeros_like(est))

    def test_winner_at_last_disparity(self):
        # the true shift is the last hypothesis: off the interior, unrefined
        s = 6
        left = textured_image(12, 30, seed=22)
        est, _ = assert_matches_volume(left, np.roll(left, -s, axis=1), s + 1)
        assert (est[:, s + 1:-1] == s).all()

    def test_winner_at_x_stays_unrefined(self):
        # column s of the left image matches column 0 of the right one,
        # edge-clamped patch included, so the winner there is d = x and the
        # cost at x + 1 would read the row above: it is -inf, and the
        # winner keeps its integer disparity
        s, w = 5, 24
        left = textured_image(12, w, seed=23)
        left[:, s - 1] = left[:, s]
        est, _ = assert_matches_volume(left, np.roll(left, -s, axis=1), w)
        assert (est[:, s] == s).all()

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 100])
    def test_scratch_slices_start_cache_lines(self, n):
        buf = np.empty(n + 8)
        for d in range(min(n, 20)):
            view = match._aligned(buf, d, n)
            assert len(view) == n and np.shares_memory(view, buf)
            assert view[d:].ctypes.data % 64 == 0


class TestImageValues:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_finite_refused_without_warning(self, value, side):
        pair = {"left": textured_image(10, 30, seed=1),
                "right": textured_image(10, 30, seed=2)}
        pair[side][4, 7] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match=side):
                match.estimate_disparity(pair["left"], pair["right"], 8)

    def test_non_finite_rgb_refused(self):
        rgb = np.zeros((6, 12, 3))
        rgb[2, 3, 1] = np.nan
        with pytest.raises(ContractError):
            match.estimate_disparity(rgb, np.zeros((6, 12, 3)), 4)

    @pytest.mark.parametrize("patch", [1, 3, 5])
    def test_largest_values_match_volume(self, patch):
        # at the limit every feature and cost is finite and nothing warns;
        # one step beyond it the pair is refused
        limit = np.sqrt(np.finfo(np.float64).max) / (2 * patch + 1)
        rng = np.random.default_rng(patch)
        left = np.where(rng.random((12, 30)) < 0.5, limit, -limit)
        left[0] = limit
        right = np.roll(left, -2, axis=1)
        assert_matches_volume(left, right, max_disp=9, patch=patch)
        left[3, 4] = np.nextafter(-limit, -np.inf)
        with pytest.raises(ContractError, match="left"):
            match.estimate_disparity(left, right, 9, patch)


class TestBandThreads:
    @pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (64, 3)])
    def test_one_worker_per_cpu_capped_at_bands(self, monkeypatch, cpus,
                                                workers):
        # at most one band per usable CPU runs at once, and no more than
        # there are bands
        band = at_once(match._match_band)
        monkeypatch.setattr(match, "_match_band", band)
        set_cpus(monkeypatch, cpus)
        img = textured_image(3 * _parallel.BAND_ROWS - 1, 20)  # last band short
        match.estimate_disparity(img, img, max_disp=4)
        assert 1 <= band.most <= workers

    def test_two_cpus_run_two_bands_at_once(self, monkeypatch):
        monkeypatch.setattr(_parallel, "BAND_ROWS", 4)
        set_cpus(monkeypatch, 2)
        # every band waits until a second band has started alongside it
        barrier = threading.Barrier(2, timeout=30)
        threads = []
        band = match._match_band

        def paired_band(*args):
            threads.append(threading.get_ident())
            barrier.wait()
            band(*args)

        monkeypatch.setattr(match, "_match_band", paired_band)
        img = textured_image(16, 20)  # four bands
        match.estimate_disparity(img, img, max_disp=4)
        assert len(threads) == 4
        assert len(set(threads)) == 2
        assert threading.get_ident() not in threads

    def test_more_workers_than_cores(self, monkeypatch):
        # one-row bands on 8 threads, switching as often as possible: a
        # band that wrote outside its rows would show in the output bytes
        monkeypatch.setattr(_parallel, "BAND_ROWS", 1)
        set_cpus(monkeypatch, 8)
        left = textured_image(24, 40, seed=9)
        right = np.roll(left, -5, axis=1)
        ref = [x.tobytes() for x in oracle_estimate_disparity(left, right, 12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                out = match.estimate_disparity(left, right, max_disp=12)
                assert [x.tobytes() for x in out] == ref
        finally:
            sys.setswitchinterval(interval)


class TestMatcherMemory:
    H, W = 64, 256

    def traced_peak(self, max_disp):
        left = textured_image(self.H, self.W, seed=1)
        right = textured_image(self.H, self.W, seed=2)
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            match.estimate_disparity(left, right, max_disp=max_disp)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_peak_below_one_feature_map(self, monkeypatch, cpus):
        # bands of 8 of 64 rows: each band builds the features of its own
        # rows, so the bands in flight never hold one image's features
        monkeypatch.setattr(_parallel, "BAND_ROWS", 8)
        set_cpus(monkeypatch, cpus)
        assert self.traced_peak(16) < self.H * self.W * 9 * 8

    def test_peak_independent_of_disparity_range(self, monkeypatch):
        # one worker: on two, the peak depends on how the threads' bands
        # overlap, which another process on the CPUs changes
        set_cpus(monkeypatch, 1)
        small, large = self.traced_peak(16), self.traced_peak(128)
        assert large <= 1.1 * small
        # half of one float64 (H, W, 128) cost volume
        assert large < self.H * self.W * 128 * 8 / 2
