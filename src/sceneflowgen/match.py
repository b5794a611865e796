"""Classical disparity estimation via horizontal 1D correlation: patch
features, one-sided correlation (displacements to the left only),
winner-take-all with parabola sub-pixel refinement.

`estimate_disparity` streams over disparities and keeps only per-pixel
state, so its memory does not grow with the disparity range. It runs the
stream on the row bands of `_parallel`, through its thread map. Each
band builds the features of its own rows of both images (`_features`),
so the features of a whole image never exist, and matches them as one
flat run of rows * W pixels: every step for a disparity d is a numpy
ufunc on contiguous 1-D slices, with the costs that wrap into the row
above masked before they are read. The disparities go in blocks of
`_BLOCK`, channel by channel: each channel's rows of the two feature
maps are read once per block, and the block's cost rows stay in cache.
The fold over d keeps only the winner, its cost and the second-best
cost; the costs at the winner's two parabola neighbours are computed
once per band after it. The whole (H, W, D) cost volume it stands for is
built only by the test oracle, `tests/match_oracle.py`.
"""

from __future__ import annotations

import numpy as np

from ._parallel import bands, map_ordered
from .errors import ContractError

__all__ = ["estimate_disparity", "DEFAULT_MAX_DISPARITY"]

DEFAULT_MAX_DISPARITY = 160  # hypotheses at full resolution for 960-wide input

# Disparities matched per pass over the channels. A 32-row band at 960
# wide holds 2 x 2.2 MB of features, more than a 2 MB L2, so a pass per
# disparity streams all of them in from L3; a block of 4 reads each
# channel's pair of rows (2 x 245 KB) once while its 4 cost rows stay in
# L2. 8 gains almost nothing more, and its 4 more cost rows per band lift
# TestMatcherMemory's two-CPU traced peak past its bound, one image's
# feature map.
_BLOCK = 4


_LUMA = np.array([0.299, 0.587, 0.114])


def _to_gray(image):
    """float64 (H, W) luminance, a signalling NaN widened to a quiet one.
    RGB converts one band of rows at a time, so no float64 copy of the
    whole (H, W, 3) image exists: each row is the whole image's product."""
    a = np.asarray(image)
    if a.ndim != 2 and a.shape[2:] != (3,):
        raise ContractError(f"expected HxW or HxWx3 image, got shape {a.shape}")
    with np.errstate(invalid="ignore"):
        if a.ndim == 2:
            return a.astype(np.float64, copy=False)
        gray = np.empty(a.shape[:2])
        for rows in bands(len(a)):
            np.matmul(a[rows].astype(np.float64), _LUMA, out=gray[rows])
    return gray


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


def estimate_disparity(left_image, right_image,
                       max_disp=DEFAULT_MAX_DISPARITY, patch=3):
    """Full matcher pipeline on a rectified pair -> (disparity, confidence).

    Equal, bit for bit, to the whole-volume matcher of
    `tests/match_oracle.py`: winner-take-all over the cost volume
    ``cost[y, x, d] = <features(left)[y, x], features(right)[y, x - d]>``
    with the parabola refinement, but neither the cost volume nor the
    features of a whole image are ever built. Each band of
    `_parallel.bands` builds the features of its rows of both images,
    then one loop over blocks of d fills a (band, W) cost slice per d and
    folds them, in increasing d, into the running winner, its cost and
    the second-best cost; the costs at the winner's two parabola
    neighbours follow once the loop is done. Rows never mix and every
    step is element-wise, so the bands are independent and the result
    does not depend on the band height or on how many bands run at once
    (see `_parallel`). Memory is the two gray images, the two output maps
    and, per running band, its features and state.

    Raises ContractError unless every gray value is finite and at most
    sqrt(float64 max) / (2 * patch + 1) in magnitude. Within that range a
    patch's sum of squares cannot overflow, so every feature and every
    cost is finite and no step warns.
    """
    left, right = _to_gray(left_image), _to_gray(right_image)
    if left.shape != right.shape:
        raise ContractError(f"image sizes differ: {left.shape} vs {right.shape}")
    h, w = left.shape
    if not 1 <= max_disp <= w:
        raise ContractError(f"max_disp {max_disp} outside [1, {w}]")
    if patch < 1:
        raise ContractError(f"patch {patch} is not a positive size")
    limit = np.sqrt(np.finfo(np.float64).max) / (2 * patch + 1)
    for name, gray in (("left", left), ("right", right)):
        # NaN fails every comparison
        if gray.size and not -limit <= gray.min() <= gray.max() <= limit:
            raise ContractError(
                f"{name} image holds a non-finite value or one beyond "
                f"{limit:.3g} in magnitude")

    disparity = np.empty((h, w))
    confidence = np.empty((h, w))

    def run(rows):
        _match_band(left, right, rows.start, patch, max_disp,
                    disparity[rows], confidence[rows])

    map_ordered(run, bands(h))
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
    second best.

    The disparities go in blocks of `_BLOCK`, each d with its own cost
    row. For each channel in order, the block's rows of that channel's
    left and right features are multiplied and added into every cost
    row of the block, so a channel's rows are read once per block, not
    once per d; each cost still sums its products in channel order from
    +0.0. Then the block's rows are folded in increasing d, as one d at a
    time would fold them, so the bytes do not depend on the block size.
    The fold keeps only the winner, its cost and the second best; the
    costs at the winner's two parabola neighbours are computed once after
    it (`_neighbour_cost`), into one kept cost row, the others freed
    first. The costs and products of each d are written to views of
    scratch buffers that start the slices at d on a 64-byte cache line
    (`_aligned`).
    """
    rows, w = disparity.shape
    n = rows * w
    a = _features(left, y, rows, patch)
    b = _features(right, y, rows, patch)
    best = np.zeros(n, dtype=np.int32)  # winning d, below W
    top = np.full(n, -np.inf)       # cost at best
    second = np.full(n, -np.inf)    # best cost at any other d
    won = np.empty(n, dtype=bool)
    tmp_buf = np.empty(n + 8)
    cost_bufs = [np.empty(n + 8) for _ in range(min(_BLOCK, max_disp))]
    for d0 in range(0, max_disp, _BLOCK):
        # each d of the block: its cost (at d from index d on) and the
        # scratch for its products, the last block short
        block = [(d, _aligned(buf, d, n), _aligned(tmp_buf, d, n)[d:])
                 for d, buf in zip(range(d0, max_disp), cost_bufs)]
        # channel-major; each cost sums its channels in order from +0.0,
        # as in the oracle
        for ch in range(len(a)):
            for d, cost, t in block:
                np.multiply(a[ch, d:], b[ch, :n - d], out=t)
                if ch == 0:
                    np.add(t, 0.0, out=cost[d:])
                else:
                    cost[d:] += t
        for d, cost, t in block:  # in increasing d
            c = cost[d:]
            cost.reshape(rows, w)[:, :d] = -np.inf
            top_d, second_d, won_d = top[d:], second[d:], won[d:]
            # a new best pushes the old best to second; a cost equal to
            # the best becomes the second best, so a tie gives a margin
            # of 0
            np.maximum(second_d, np.minimum(c, top_d, out=t), out=second_d)
            np.greater(c, top_d, out=won_d)  # strict: ties keep the smaller d
            # the costs are finite or -inf and never -0.0, so the maximum
            # is the winner's cost to the bit
            np.maximum(top_d, c, out=top_d)
            np.copyto(best[d:], d, where=won_d)
    # one cost row stays as the refinement's scratch, the others are freed
    cost_buf = cost_bufs[0]
    del cost_bufs, block, cost, c
    confidence[...] = np.where(np.isfinite(second), top - second,
                               0.0).reshape(rows, w)
    # second is free now: it holds the gathered right features
    below = _neighbour_cost(a, b, best, -1, w, cost_buf[:n], second, won)
    above = _neighbour_cost(a, b, best, 1, w, tmp_buf[:n], second, won)
    del a, b  # freed before the refinement's temporaries are made
    disparity[...] = _parabola_refine(best, below, top, above,
                                      max_disp).reshape(rows, w)


def _aligned(buf, d, n):
    """The n-element view of buf (n + 8 float64) whose element d starts a
    64-byte cache line, so that a store to its slice from d on is
    aligned."""
    o = -(buf.ctypes.data // 8 + d) % 8
    return buf[o:o + n]


def _neighbour_cost(a, b, best, k, w, out, gathered, mask):
    """The cost at best + k of every pixel of the band into out: the
    products of the left features at i and the right features at
    i - best - k, summed in channel order from +0.0 as the fold sums
    them, and -inf where best + k is no valid disparity (x < best + k or
    best + k < 0): as the right neighbour of a winner at x = best it
    leaves the winner unrefined, as the NaN of the volume does. gathered
    (float64) and mask (bool) are scratch of the band's length; the gather
    indices are clipped to the band, and the pixels they clip are among
    those set to -inf."""
    n = len(best)
    index = np.arange(-k, n - k, dtype=np.int32)
    index -= best
    for ch in range(len(a)):
        np.take(b[ch], index, out=gathered, mode="clip")
        gathered *= a[ch]
        if ch == 0:
            np.add(gathered, 0.0, out=out)
        else:
            out += gathered
    # x < best + k, i.e. best > x - k, on every row
    np.greater(best.reshape(-1, w), np.arange(-k, w - k, dtype=np.int32),
               out=mask.reshape(-1, w))
    if k < 0:
        mask |= best < -k
    np.copyto(out, -np.inf, where=mask)
    return out
