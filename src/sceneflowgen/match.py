"""Classical disparity estimation via horizontal 1D correlation: patch
features, one-sided correlation (displacements to the left only),
winner-take-all with parabola sub-pixel refinement.

`estimate_disparity` streams over disparities and keeps only per-pixel
state, so its memory does not grow with the disparity range. It runs the
stream on bands of rows through `_map_ordered`, the one ordered map over
independent units that the rasterizer and the ground-truth derivation
use too. Each band builds the features of its own rows of both images
(`_features`, the one feature path, which `extract_features` runs on all
rows), so the features of a whole image never exist, and matches them as
one flat run of rows * W pixels: every step for a disparity d is a numpy
ufunc on contiguous 1-D slices, with the costs that wrap into the row
above masked before they are read. Rows are independent and every step
is element-wise and releases the GIL, so a band's state stays in cache
and the bands scale across cores without changing a bit of the result,
whatever the worker count. `correlate_1d`, `wta_disparity` and
`subpixel_refine` build and consume the full (H, W, D) cost volume; they
are the reference the banded matcher is bit-identical to.
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
# rows per band: a band's features and (band * W) state stay in cache, and
# the bands in flight hold far less than one frame's features
_BAND_ROWS = 32


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
    all-zero. This is `_features` on all rows; the channel axis is last,
    as a view of its channels-first result.
    """
    gray = _to_gray(image)
    h, w = gray.shape
    return np.moveaxis(_features(gray, 0, h, patch).reshape(-1, h, w), 0, -1)


def _features(gray, y, rows, patch):
    """Features of rows y .. y + rows - 1 of a gray image, channels first
    and flat: (patch**2, rows * W), channel dy * patch + dx holding the
    pixel at (+dy - patch // 2, +dx - patch // 2), edge-clamped.

    The mean and the norm over the channels add them in numpy's pairwise
    order (`_channel_sum`), so the values are those of ``feats.mean(-1)``
    and ``np.linalg.norm(feats, axis=-1)`` on the channels-last stack.
    """
    r = patch // 2
    h, w = gray.shape
    ys = np.arange(y - r, y + rows + r).clip(0, h - 1)
    xs = np.arange(-r, w + r).clip(0, w - 1)
    padded = gray[np.ix_(ys, xs)]
    n_c = patch * patch
    feats = np.empty((n_c, rows, w), dtype=np.float64)
    for c in range(n_c):
        dy, dx = divmod(c, patch)
        feats[c] = padded[dy:dy + rows, dx:dx + w]
    feats = feats.reshape(n_c, rows * w)
    feats -= _channel_sum(lambda c: feats[c], n_c) / n_c
    norm = np.sqrt(_channel_sum(lambda c: feats[c] * feats[c], n_c))
    feats /= np.where(norm > 0, norm, 1.0)
    return feats


def _channel_sum(plane, n):
    """plane(0) + ... + plane(n - 1), added as numpy adds n contiguous
    values in a sum over an axis: from +0.0, pairwise (`_pairwise_sum`)."""
    return _pairwise_sum(plane, 0, n) + 0.0  # a -0.0 total becomes +0.0


def _pairwise_sum(plane, lo, k):
    """plane(lo) + ... + plane(lo + k - 1) in numpy's pairwise order: below
    8 terms one by one; up to 128 in eight lanes j, j + 8, ... summed as a
    balanced tree, then the tail one by one; above 128 two halves cut at a
    multiple of 8. No term is written to, and at most four planes are
    live at once."""
    if k > 128:
        half = k // 2 - k // 2 % 8
        return (_pairwise_sum(plane, lo, half)
                + _pairwise_sum(plane, lo + half, k - half))
    if k < 8:
        total, tail = plane(lo), range(lo + 1, lo + k)
    else:
        whole = lo + k - k % 8
        total, tail = _lane_tree(plane, lo, whole, 0, 8), range(whole, lo + k)
    for c in tail:
        total = total + plane(c)
    return total


def _lane_tree(plane, lo, whole, j, m):
    """Lanes j .. j + m - 1 of the terms lo .. whole - 1, summed as a
    balanced tree; lane j is plane(lo + j) + plane(lo + j + 8) + ..."""
    if m > 1:
        return (_lane_tree(plane, lo, whole, j, m // 2)
                + _lane_tree(plane, lo, whole, j + m // 2, m // 2))
    total = plane(lo + j)
    for c in range(lo + j + 8, whole, 8):
        total = total + plane(c)
    return total


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
    neither the cost volume nor the features of a whole image are ever
    built. The rows are cut into bands of ``_BAND_ROWS``; each band builds
    the features of its rows of both images, then one loop over d fills a
    (band, W) cost slice and folds it into the running winner, the
    second-best cost and the winner's two parabola neighbours. Rows never
    mix and every step is element-wise, so the bands are independent and
    the result does not depend on the band height or on how many bands run
    at once. Bands go through `_map_ordered`, one thread per usable CPU;
    numpy releases the GIL in each step. Memory is the two gray images,
    the two output maps and, per running band, its features and state.
    """
    left, right = _to_gray(left_image), _to_gray(right_image)
    if left.shape != right.shape:
        raise ContractError(f"image sizes differ: {left.shape} vs {right.shape}")
    h, w = left.shape
    if not 1 <= max_disp <= w:
        raise ContractError(f"max_disp {max_disp} outside [1, {w}]")

    disparity = np.empty((h, w))
    confidence = np.empty((h, w))

    def run(y):
        rows = slice(y, y + _BAND_ROWS)
        _match_band(left, right, y, patch, max_disp,
                    disparity[rows], confidence[rows])

    _map_ordered(run, range(0, h, _BAND_ROWS))
    return disparity, confidence


def _match_band(left, right, y, patch, max_disp, disparity, confidence):
    """Fold all max_disp hypotheses into one band of rows: left and right
    are the gray images, the band starts at row y, and disparity and
    confidence are its rows of the output maps, written once the loop is
    done.

    The band is one flat run of rows * W pixels, so every step is a
    contiguous 1-D slice: the cost at d of flat pixel i correlates the
    left features at i with the right features at i - d. Where x < d that
    right pixel lies in the row above, so those costs are set to -inf
    before the fold reads them. -inf never wins and never becomes the
    second best; as the right neighbour of a winner at x = d - 1 it leaves
    the winner unrefined, as the NaN of the volume does.
    """
    rows, w = disparity.shape
    n = rows * w
    a = _features(left, y, rows, patch)
    b = _features(right, y, rows, patch)
    best = np.zeros(n, dtype=np.int32)  # winning d, below W
    top = np.full(n, -np.inf)       # cost at best
    second = np.full(n, -np.inf)    # best cost at any other d
    below = np.full(n, np.nan)      # cost at best - 1
    above = np.full(n, np.nan)      # cost at best + 1
    cost = np.full(n, -np.inf)      # cost at d
    prev = np.full(n, -np.inf)      # cost at d - 1
    tmp = np.empty(n)
    for d in range(max_disp):
        prev, cost = cost, prev
        c, t = cost[d:], tmp[d:]
        # channel-sequential accumulation from +0.0, as in correlate_1d
        c.fill(0.0)
        for ch in range(len(a)):
            np.multiply(a[ch, d:], b[ch, :n - d], out=t)
            c += t
        cost.reshape(rows, w)[:, :d] = -np.inf
        np.copyto(above, cost, where=best == d - 1)
        top_d, second_d = top[d:], second[d:]
        # a new best pushes the old best to second; a cost equal to the
        # best becomes the second best, so a tie gives a margin of 0
        np.maximum(second_d, np.minimum(c, top_d, out=t), out=second_d)
        won = c > top_d  # strict: ties keep the smaller d
        np.copyto(top_d, c, where=won)
        np.copyto(best[d:], d, where=won)
        np.copyto(below[d:], prev[d:], where=won)
    del a, b  # freed before the refinement's temporaries are made
    confidence[...] = np.where(np.isfinite(second), top - second,
                               0.0).reshape(rows, w)
    disparity[...] = _parabola_refine(best, below, top, above,
                                      max_disp).reshape(rows, w)
