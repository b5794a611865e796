"""Error measures and reporting: endpoint error, KITTI-style D1-all,
masked aggregation and text tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

__all__ = ["MetricReport", "epe_map", "d1_all", "aggregate", "render_table",
           "D1_ABS_THRESHOLD_PX", "D1_REL_THRESHOLD"]

D1_ABS_THRESHOLD_PX = 3.0
D1_REL_THRESHOLD = 0.05


@dataclass
class MetricReport:
    mean_epe: float | None = None
    d1_all: float | None = None
    valid_pixels: int = 0
    evaluated_pixels: int = 0
    excluded_pixels: int = 0

    def to_dict(self):
        return {
            "mean_epe": self.mean_epe,
            "d1_all": self.d1_all,
            "valid_pixels": self.valid_pixels,
            "evaluated_pixels": self.evaluated_pixels,
            "excluded_pixels": self.excluded_pixels,
        }


def _eval_mask(pred, gt, mask):
    if pred.shape != gt.shape:
        raise ContractError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    finite = np.isfinite(gt)
    if finite.ndim == 3:
        finite = finite.all(axis=-1)
    valid = finite
    if mask is not None and np.shape(mask) != valid.shape:
        raise ContractError(
            f"mask shape {np.shape(mask)} does not match maps {valid.shape}")
    evaluated = valid if mask is None else (valid & np.asarray(mask, dtype=bool))
    if not evaluated.any():
        raise ContractError("no pixels to evaluate under the given mask")
    return valid, evaluated


def _require_finite(pred, evaluated):
    """A NaN or infinite prediction has no error to score: it is neither
    an inlier nor an outlier, so it is refused where it is evaluated."""
    finite = np.isfinite(pred)
    if finite.ndim == 3:
        finite = finite.all(axis=-1)
    finite &= evaluated
    bad = int(np.count_nonzero(evaluated)) - int(np.count_nonzero(finite))
    if bad:
        raise ContractError(
            f"prediction is NaN or infinite at {bad} evaluated pixel(s)")


def epe_map(pred: np.ndarray, gt: np.ndarray, mask=None):
    """Per-pixel endpoint error plus its mean over evaluated pixels.

    Works for scalar maps (disparity, disparity change) and HxWx2 flow.
    NaN ground-truth pixels are excluded; a NaN or infinite prediction at
    an evaluated pixel is a ContractError. Returns (per_pixel, report).
    """
    if pred.ndim not in (2, 3) or (pred.ndim == 3 and pred.shape[-1] != 2):
        raise ContractError(f"expected HxW or HxWx2 maps, got shape {pred.shape}")
    valid, evaluated = _eval_mask(pred, gt, mask)
    _require_finite(pred, evaluated)
    # float32 maps widen inside the ufuncs, to the bytes of their float64
    # copies; excluded pixels may hold inf - inf or a signalling NaN
    with np.errstate(invalid="ignore"):
        per_pixel = np.subtract(pred, gt, dtype=np.float64)
        if per_pixel.ndim == 3:
            np.square(per_pixel, out=per_pixel)
            per_pixel = per_pixel.sum(axis=-1)
            np.sqrt(per_pixel, out=per_pixel)
        else:
            np.abs(per_pixel, out=per_pixel)
    np.copyto(per_pixel, np.nan, where=~valid)
    report = MetricReport(
        mean_epe=float(per_pixel[evaluated].mean()),
        valid_pixels=int(valid.sum()),
        evaluated_pixels=int(evaluated.sum()),
        excluded_pixels=int(valid.sum() - evaluated.sum()),
    )
    return per_pixel, report


def d1_all(pred_disp: np.ndarray, gt_disp: np.ndarray, mask=None):
    """Fraction of evaluated pixels whose disparity error exceeds both
    3 px and 5% of the ground-truth disparity. Non-positive ground truth
    is excluded as invalid; a NaN or infinite prediction at an evaluated
    pixel is a ContractError. Returns (fraction, report)."""
    if pred_disp.ndim != 2:
        raise ContractError(f"disparity maps must be HxW, got {pred_disp.shape}")
    valid, evaluated = _eval_mask(pred_disp, gt_disp, mask)
    valid = valid & (gt_disp > 0)
    evaluated = evaluated & valid
    if not evaluated.any():
        raise ContractError("no pixels to evaluate under the given mask")
    _require_finite(pred_disp, evaluated)
    # widened and guarded as in epe_map
    with np.errstate(invalid="ignore"):
        err = np.subtract(pred_disp, gt_disp, dtype=np.float64)
        np.abs(err, out=err)
        bad = err > D1_ABS_THRESHOLD_PX
        relative = np.abs(gt_disp, dtype=np.float64)
        relative *= D1_REL_THRESHOLD
        bad &= err > relative
    fraction = float(bad[evaluated].sum() / evaluated.sum())
    report = MetricReport(
        d1_all=fraction,
        valid_pixels=int(valid.sum()),
        evaluated_pixels=int(evaluated.sum()),
        excluded_pixels=int(valid.sum() - evaluated.sum()),
    )
    return fraction, report


def aggregate(reports, weighting="per-pixel") -> MetricReport:
    """Combine frame-level reports into one dataset-level report.

    per-pixel weights each frame mean by its evaluated pixel count;
    per-frame averages the frame means directly.
    """
    reports = list(reports)
    if not reports:
        raise ContractError("cannot aggregate an empty report list")
    if weighting not in ("per-pixel", "per-frame"):
        raise ContractError(f"unknown weighting {weighting!r}")
    out = MetricReport(
        valid_pixels=sum(r.valid_pixels for r in reports),
        evaluated_pixels=sum(r.evaluated_pixels for r in reports),
        excluded_pixels=sum(r.excluded_pixels for r in reports),
    )
    for attr in ("mean_epe", "d1_all"):
        vals = [(getattr(r, attr), r.evaluated_pixels) for r in reports
                if getattr(r, attr) is not None]
        if not vals:
            continue
        if weighting == "per-frame":
            setattr(out, attr, float(np.mean([v for v, _ in vals])))
        else:
            total = sum(n for _, n in vals)
            setattr(out, attr, float(sum(v * n for v, n in vals) / total))
    return out


def render_table(cells: dict) -> str:
    """Aligned text table from {(method, dataset): MetricReport}.

    Rows are methods, columns datasets, both in sorted order. EPE prints
    with 2 decimals, D1-all as a percentage with 2 decimals; absent cells
    print "---".
    """
    if not cells:
        raise ContractError("cannot render an empty table")
    methods = sorted({m for m, _ in cells})
    datasets = sorted({d for _, d in cells})

    def fmt(report):
        if report is None:
            return "---"
        parts = []
        if report.mean_epe is not None:
            parts.append(f"{report.mean_epe:.2f}")
        if report.d1_all is not None:
            parts.append(f"{report.d1_all * 100:.2f}%")
        return " / ".join(parts) if parts else "---"

    rows = [["method", *datasets]]
    for m in methods:
        rows.append([m, *(fmt(cells.get((m, d))) for d in datasets)])
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)
