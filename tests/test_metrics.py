import numpy as np
import pytest

from sceneflowgen import metrics
from sceneflowgen.errors import ContractError
from sceneflowgen.metrics import MetricReport, aggregate, d1_all, epe_map, render_table


class TestEpe:
    def test_perfect_prediction(self):
        gt = np.random.default_rng(0).normal(size=(8, 8, 2))
        per_pixel, report = epe_map(gt.copy(), gt)
        assert report.mean_epe == 0.0
        assert np.all(per_pixel == 0.0)

    def test_three_four_five(self):
        gt = np.zeros((1, 1, 2))
        pred = np.array([[[3.0, 4.0]]])
        per_pixel, report = epe_map(pred, gt)
        assert per_pixel[0, 0] == 5.0
        assert report.mean_epe == 5.0

    def test_scalar_maps_absolute_error(self):
        gt = np.full((2, 2), 10.0)
        pred = np.array([[11.0, 9.0], [10.0, 14.0]])
        per_pixel, report = epe_map(pred, gt)
        assert np.array_equal(per_pixel, [[1.0, 1.0], [0.0, 4.0]])
        assert report.mean_epe == pytest.approx(1.5)

    def test_nan_gt_excluded(self):
        gt = np.full((2, 2), 1.0)
        gt[0, 0] = np.nan
        pred = np.full((2, 2), 2.0)
        per_pixel, report = epe_map(pred, gt)
        assert np.isnan(per_pixel[0, 0])
        assert report.valid_pixels == 3
        assert report.mean_epe == pytest.approx(1.0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            gt = rng.normal(size=(16, 16, 2))
            pred = rng.normal(size=(16, 16, 2))
            per_pixel, report = epe_map(pred, gt)
            total = 0.0
            for y in range(16):
                for x in range(16):
                    du = pred[y, x, 0] - gt[y, x, 0]
                    dv = pred[y, x, 1] - gt[y, x, 1]
                    e = np.sqrt(du * du + dv * dv)
                    assert per_pixel[y, x] == e
                    total += e
            assert report.mean_epe == pytest.approx(total / 256, rel=1e-12)

    def test_scaling_property(self):
        rng = np.random.default_rng(2)
        gt = rng.normal(size=(6, 6, 2))
        pred = rng.normal(size=(6, 6, 2))
        _, r1 = epe_map(pred, gt)
        _, r3 = epe_map(3.0 * pred, 3.0 * gt)
        assert r3.mean_epe == pytest.approx(3.0 * r1.mean_epe, rel=1e-12)

    def test_masked_garbage_invariance(self):
        rng = np.random.default_rng(3)
        gt = rng.normal(size=(8, 8, 2))
        pred = rng.normal(size=(8, 8, 2))
        mask = np.zeros((8, 8), dtype=bool)
        mask[:4] = True
        _, clean = epe_map(pred, gt, mask)
        garbage = pred.copy()
        garbage[~mask] = 1e12
        _, dirty = epe_map(garbage, gt, mask)
        assert clean.mean_epe == dirty.mean_epe
        assert clean.excluded_pixels == 32

    def test_contracts(self):
        with pytest.raises(ContractError):
            epe_map(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ContractError):
            epe_map(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ContractError):
            epe_map(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)))


class TestD1All:
    def case(self, gt_val, pred_val):
        gt = np.full((4, 4), float(gt_val))
        pred = np.full((4, 4), float(pred_val))
        frac, _ = d1_all(pred, gt)
        return frac

    def test_error_4_of_100_not_counted(self):
        assert self.case(100, 104) == 0.0  # 4 > 3 px but only 4%

    def test_error_6_of_100_counted(self):
        assert self.case(100, 106) == 1.0  # 6 > 3 px and 6% > 5%

    def test_error_under_3px_not_counted(self):
        assert self.case(10, 12.9) == 0.0  # 29% > 5% but 2.9 <= 3 px

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            gt = rng.uniform(0.5, 120.0, (16, 16))
            pred = gt + rng.normal(scale=5.0, size=(16, 16))
            frac, _ = d1_all(pred, gt)
            count = 0
            for y in range(16):
                for x in range(16):
                    e = abs(pred[y, x] - gt[y, x])
                    if e > 3.0 and e > 0.05 * abs(gt[y, x]):
                        count += 1
            assert frac == count / 256

    def test_nonpositive_gt_excluded(self):
        gt = np.full((2, 2), 50.0)
        gt[0, 0] = 0.0
        gt[0, 1] = -3.0
        pred = gt + 100.0
        frac, report = d1_all(pred, gt)
        assert frac == 1.0
        assert report.evaluated_pixels == 2

    def test_masked_garbage_invariance(self):
        rng = np.random.default_rng(5)
        gt = rng.uniform(1.0, 80.0, (8, 8))
        pred = gt + rng.normal(scale=4.0, size=(8, 8))
        mask = np.zeros((8, 8), dtype=bool)
        mask[::2] = True
        clean, _ = d1_all(pred, gt, mask)
        garbage = pred.copy()
        garbage[~mask] = -1e9
        dirty, _ = d1_all(garbage, gt, mask)
        assert clean == dirty


class TestNonFinitePrediction:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refused_where_evaluated(self, bad):
        gt = np.full((4, 4), 10.0)
        pred = gt.copy()
        pred[1, 2] = pred[3, 0] = bad
        for measure in (epe_map, d1_all):
            with pytest.raises(ContractError, match="at 2 evaluated pixel"):
                measure(pred, gt)
        flow = np.zeros((4, 4, 2))
        pred_flow = flow.copy()
        pred_flow[0, 0, 1] = bad
        with pytest.raises(ContractError, match="at 1 evaluated pixel"):
            epe_map(pred_flow, flow)

    def test_all_nan_is_no_inlier(self):
        # a NaN error compares false with both thresholds: it scored as
        # an inlier, D1-all 0%
        gt = np.full((4, 4), 10.0)
        with pytest.raises(ContractError, match="at 16 evaluated pixel"):
            d1_all(np.full((4, 4), np.nan), gt)

    def test_masked_out_nan_passes(self):
        gt = np.full((4, 4), 10.0)
        gt[0, 0] = np.nan  # invalid ground truth
        gt[0, 1] = -1.0  # non-positive: no D1-all pixel
        pred = gt + 2.0
        pred[:, :2] = np.nan
        mask = np.ones((4, 4), dtype=bool)
        mask[1:, :2] = False
        assert d1_all(pred, gt, mask)[0] == 0.0
        # EPE evaluates the non-positive pixel: it must be finite there
        with pytest.raises(ContractError, match="at 1 evaluated pixel"):
            epe_map(pred, gt, mask)
        pred[0, 1] = 1.0
        assert epe_map(pred, gt, mask)[1].mean_epe == 2.0


class TestFloat32Maps:
    @pytest.mark.parametrize("shape", [(12, 16), (12, 16, 2)])
    def test_same_report_as_widened_maps(self, shape):
        # float32 maps widen inside the measures' ufuncs: the per-pixel
        # errors and the reports of their float64 copies, to the bit
        rng = np.random.default_rng(len(shape))
        gt = rng.uniform(0.5, 120.0, shape).astype(np.float32)
        pred = (gt + rng.normal(0.0, 6.0, shape)).astype(np.float32)
        for x, value in enumerate([np.nan, np.inf, -np.inf]):
            gt[0, x] = pred[0, x] = value  # excluded
        gt[1, :2] = [0.0, -4.0]  # no D1-all verdict
        mask = rng.random(shape[:2]) < 0.8
        wide = pred.astype(np.float64), gt.astype(np.float64)
        for m in (None, mask):
            per_pixel, report = epe_map(pred, gt, m)
            want_map, want = epe_map(*wide, m)
            assert per_pixel.dtype == np.float64
            assert per_pixel.tobytes() == want_map.tobytes()
            assert report == want
            if len(shape) == 2:
                assert d1_all(pred, gt, m) == d1_all(*wide, m)


class TestAggregate:
    def test_single_report_identity(self):
        r = MetricReport(mean_epe=1.25, evaluated_pixels=10, valid_pixels=10)
        agg = aggregate([r])
        assert agg.mean_epe == 1.25
        assert agg.evaluated_pixels == 10

    def test_weighted_example(self):
        reports = [
            MetricReport(mean_epe=1.0, evaluated_pixels=100, valid_pixels=100),
            MetricReport(mean_epe=3.0, evaluated_pixels=300, valid_pixels=300),
        ]
        assert aggregate(reports, "per-pixel").mean_epe == pytest.approx(2.5)
        assert aggregate(reports, "per-frame").mean_epe == pytest.approx(2.0)

    def test_contracts(self):
        with pytest.raises(ContractError):
            aggregate([])
        with pytest.raises(ContractError):
            aggregate([MetricReport()], "per-scene")


class TestRenderTable:
    def test_formatting(self):
        cells = {
            ("matcher", "clean"): MetricReport(mean_epe=2.351),
            ("matcher", "final"): MetricReport(mean_epe=1.0, d1_all=0.0434),
        }
        table = render_table(cells)
        assert "2.35" in table
        assert "4.34%" in table

    def test_absent_cell_dashes(self):
        cells = {
            ("a", "x"): MetricReport(mean_epe=1.0),
            ("b", "y"): MetricReport(mean_epe=2.0),
        }
        table = render_table(cells)
        assert "---" in table

    def test_sorted_deterministic_layout(self):
        cells = {
            ("b", "y"): MetricReport(mean_epe=2.0),
            ("a", "x"): MetricReport(mean_epe=1.0),
        }
        lines = render_table(cells).splitlines()
        assert lines[0].split() == ["method", "x", "y"]
        assert lines[1].startswith("a")
        assert lines[2].startswith("b")

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            render_table({})
