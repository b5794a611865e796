"""Classical disparity estimation via horizontal 1D correlation: patch
features, one-sided correlation (displacements to the left only),
winner-take-all with parabola sub-pixel refinement.

`estimate_disparity` streams over disparities and keeps only per-pixel
state, so its memory is O(H*W*C) whatever the disparity range. It runs
the stream on bands of rows through `_map_ordered`, the one ordered map
over independent units that the rasterizer and the ground-truth
derivation use too: rows are independent and every step is an
element-wise numpy ufunc that releases the GIL, so a band's state stays
in cache and the bands scale across cores without changing a bit of the
result, whatever the worker count. `correlate_1d`,
`wta_disparity` and `subpixel_refine` build and consume the full
(H, W, D) cost volume; they are the reference the banded matcher is
bit-identical to.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ContractError

__all__ = [
    "extract_features", "correlate_1d", "wta_disparity", "subpixel_refine",
    "estimate_disparity", "DEFAULT_MAX_DISPARITY",
]

DEFAULT_MAX_DISPARITY = 160  # hypotheses at full resolution for 960-wide input
_BAND_ROWS = 32  # rows per band: (band, W) state stays in cache


def _to_gray(image):
    a = np.asarray(image, dtype=np.float64)
    if a.ndim == 3:
        a = a @ np.array([0.299, 0.587, 0.114])
    if a.ndim != 2:
        raise ContractError(f"expected HxW or HxWx3 image, got shape {a.shape}")
    return a


def extract_features(image, patch=3) -> np.ndarray:
    """Per-pixel grayscale patch vector (H, W, patch**2), mean-subtracted
    and L2-normalized, so the correlation of two patches is their cosine
    similarity and self-correlation is the strict maximum.

    Border pixels sample with edge clamping; textureless patches stay
    all-zero.
    """
    gray = _to_gray(image)
    r = patch // 2
    padded = np.pad(gray, r, mode="edge")
    h, w = gray.shape
    feats = np.empty((h, w, patch * patch), dtype=np.float64)
    c = 0
    for dy in range(patch):
        for dx in range(patch):
            feats[..., c] = padded[dy:dy + h, dx:dx + w]
            c += 1
    feats -= feats.mean(axis=-1, keepdims=True)
    norm = np.linalg.norm(feats, axis=-1, keepdims=True)
    feats /= np.where(norm > 0, norm, 1.0)
    return feats


def correlate_1d(a: np.ndarray, b: np.ndarray, max_disp: int) -> np.ndarray:
    """Cost volume (H, W, D): cost[y, x, d] = <a[y, x], b[y, x - d]>.

    Entries with x - d < 0 are NaN (explicitly invalid), never zero.
    """
    if a.shape != b.shape:
        raise ContractError(f"feature shapes differ: {a.shape} vs {b.shape}")
    if a.ndim != 3:
        raise ContractError(f"expected HxWxC features, got shape {a.shape}")
    h, w, _ = a.shape
    if not 1 <= max_disp <= w:
        raise ContractError(f"max_disp {max_disp} outside [1, {w}]")
    cv = np.full((h, w, max_disp), np.nan, dtype=np.float64)
    for d in range(max_disp):
        # channel-sequential accumulation: bit-identical to a scalar loop
        acc = np.zeros((h, w - d), dtype=np.float64)
        for c in range(a.shape[-1]):
            acc += a[:, d:, c] * b[:, :w - d, c]
        cv[:, d:, d] = acc
    return cv


def wta_disparity(cv: np.ndarray):
    """Per-pixel argmax over valid disparity hypotheses.

    Ties break toward the smaller disparity. Returns (disparity int map,
    confidence), where confidence is the margin between the best and
    second-best valid cost (0 where only one hypothesis is valid).
    """
    masked = np.nan_to_num(cv, nan=-np.inf)
    best = np.argmax(masked, axis=-1)  # np.argmax takes the first maximum
    h, w, n_d = cv.shape
    top = np.take_along_axis(masked, best[..., None], axis=-1)[..., 0]
    second = np.where(
        np.arange(n_d) == best[..., None], -np.inf, masked
    ).max(axis=-1)
    confidence = np.where(np.isfinite(second), top - second, 0.0)
    return best.astype(np.int64), confidence


def subpixel_refine(cv: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """Parabola fit through the three costs around each winner.

    The offset is clamped to (-0.5, 0.5); winners at the hypothesis range
    boundary (or next to an invalid entry) are returned unrefined.
    """
    n_d = cv.shape[-1]
    if n_d < 3:  # no winner has two neighbours
        return disp.astype(np.float64)
    di = np.clip(disp, 1, n_d - 2)
    c0 = np.take_along_axis(cv, (di - 1)[..., None], axis=-1)[..., 0]
    c1 = np.take_along_axis(cv, di[..., None], axis=-1)[..., 0]
    c2 = np.take_along_axis(cv, (di + 1)[..., None], axis=-1)[..., 0]
    return _parabola_refine(disp, c0, c1, c2, n_d)


def _parabola_refine(disp, c0, c1, c2, n_d):
    """disp + the clamped parabola vertex offset through (c0, c1, c2), the
    costs at disp - 1, disp and disp + 1; values off the interior are
    ignored."""
    interior = (disp >= 1) & (disp <= n_d - 2)
    denom = c0 - 2 * c1 + c2
    with np.errstate(invalid="ignore", divide="ignore"):
        offset = (c0 - c2) / (2 * denom)
    usable = interior & np.isfinite(offset)
    offset = np.where(usable, np.clip(offset, -0.4999999, 0.4999999), 0.0)
    return disp.astype(np.float64) + offset


def _channels_first(feats):
    return np.ascontiguousarray(np.moveaxis(feats, -1, 0))


def _usable_cpus():
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_ordered(fn, items):
    """[fn(item) for item in items] on min(usable CPUs, len(items)) threads.

    Results come back in item order; if items raise, the exception of the
    first of them in item order is re-raised and items not yet started are
    dropped. With one usable CPU this is the same map on one thread.
    Callers give it independent units (row bands, batches) whose results do
    not depend on which thread ran them, so output bytes do not depend on
    the worker count. It lives with the matcher, its first user; `render`
    and `groundtruth` call it too.
    """
    items = list(items)
    if not items:
        return []
    with ThreadPoolExecutor(min(_usable_cpus(), len(items))) as pool:
        return list(pool.map(fn, items))


def estimate_disparity(left_image, right_image,
                       max_disp=DEFAULT_MAX_DISPARITY, patch=3):
    """Full matcher pipeline on a rectified pair -> (disparity, confidence).

    Equal, bit for bit, to ``subpixel_refine(cv, disp)`` and the confidence
    of ``disp, confidence = wta_disparity(cv)`` with
    ``cv = correlate_1d(features(left), features(right), max_disp)``, but
    the cost volume is never built. The rows are cut into bands of
    ``_BAND_ROWS``; in each band one loop over d fills a (band, W) cost
    slice and folds it into the running winner, the second-best cost and
    the winner's two parabola neighbours. Rows never mix and every step
    is element-wise, so the bands are independent and the result does not
    depend on the band height or on how many bands run at once. Bands go
    through `_map_ordered`, one thread per usable CPU; numpy releases the
    GIL in each step.
    """
    # one (H, W, C) temporary at a time; channel planes are contiguous
    a = _channels_first(extract_features(left_image, patch))
    b = _channels_first(extract_features(right_image, patch))
    if a.shape != b.shape:
        raise ContractError(f"image sizes differ: {a.shape[1:]} vs {b.shape[1:]}")
    _, h, w = a.shape
    if not 1 <= max_disp <= w:
        raise ContractError(f"max_disp {max_disp} outside [1, {w}]")

    disparity = np.empty((h, w))
    confidence = np.empty((h, w))

    def run(y):
        rows = slice(y, y + _BAND_ROWS)
        _match_band(a[:, rows], b[:, rows], max_disp,
                    disparity[rows], confidence[rows])

    _map_ordered(run, range(0, h, _BAND_ROWS))
    return disparity, confidence


def _match_band(a, b, max_disp, disparity, confidence):
    """Fold all max_disp hypotheses into one band of rows: a and b are its
    (C, rows, W) features; disparity and confidence are its rows of the
    output maps, written once the loop is done."""
    n_c, h, w = a.shape
    best = np.zeros((h, w), dtype=np.int64)
    top = np.full((h, w), -np.inf)       # cost at best
    second = np.full((h, w), -np.inf)    # best cost at any other d
    below = np.full((h, w), np.nan)      # cost at best - 1
    above = np.full((h, w), np.nan)      # cost at best + 1
    cost = np.full((h, w), np.nan)       # cost at d; NaN where x < d
    prev = np.full((h, w), np.nan)       # cost at d - 1
    tmp = np.empty((h, w))
    for d in range(max_disp):
        prev, cost = cost, prev
        cost[:, :d] = np.nan
        c, t, p = cost[:, d:], tmp[:, d:], prev[:, d:]
        # channel-sequential accumulation, as in correlate_1d
        c.fill(0.0)
        for ch in range(n_c):
            np.multiply(a[ch, :, d:], b[ch, :, :w - d], out=t)
            c += t
        np.copyto(above, cost, where=best == d - 1)
        top_d, second_d = top[:, d:], second[:, d:]
        # a new best pushes the old best to second; a cost equal to the
        # best becomes the second best, so a tie gives a margin of 0
        np.maximum(second_d, np.minimum(c, top_d, out=t), out=second_d)
        won = c > top_d  # strict: ties keep the smaller d
        np.copyto(top_d, c, where=won)
        np.copyto(best[:, d:], d, where=won)
        np.copyto(below[:, d:], p, where=won)
    confidence[...] = np.where(np.isfinite(second), top - second, 0.0)
    disparity[...] = _parabola_refine(best, below, top, above, max_disp)
