"""Reference matcher: the whole-volume path that `match.estimate_disparity`
streams, kept as the oracle its output must match byte for byte.

It shares no code with `sceneflowgen.match`. The gray image is one
matrix-vector product over the whole image, the features are numpy's own
mean and norm over a channels-last stack, the full (H, W, D) cost volume
is built, and the parabola fit is its own copy of the formula. The
streaming matcher computes each of these steps its own way (band by band,
with pairwise channel sums, on flat runs of rows), so a byte-equal result
checks every step.
"""

import numpy as np

LUMA = np.array([0.299, 0.587, 0.114])


def to_gray(image):
    """float64 (H, W) luminance of an (H, W) or (H, W, 3) image."""
    a = np.asarray(image, dtype=np.float64)
    return a if a.ndim == 2 else a @ LUMA


def extract_features(image, patch=3):
    """Per-pixel grayscale patch vector (H, W, patch**2), mean-subtracted
    and L2-normalized, so the correlation of two patches is their cosine
    similarity and self-correlation is the strict maximum.

    Channel dy * patch + dx holds the pixel at (+dy - patch // 2,
    +dx - patch // 2), edge-clamped; textureless patches stay all-zero.
    """
    gray = to_gray(image)
    h, w = gray.shape
    padded = np.pad(gray, patch // 2, mode="edge")
    feats = np.stack([padded[dy:dy + h, dx:dx + w]
                      for dy in range(patch) for dx in range(patch)], axis=-1)
    feats -= feats.mean(axis=-1, keepdims=True)
    norm = np.linalg.norm(feats, axis=-1, keepdims=True)
    feats /= np.where(norm > 0, norm, 1.0)
    return feats


def correlate_1d(a, b, max_disp):
    """Cost volume (H, W, D): cost[y, x, d] = <a[y, x], b[y, x - d]>.

    Entries with x - d < 0 are NaN (explicitly invalid), never zero.
    """
    h, w, _ = a.shape
    cv = np.full((h, w, max_disp), np.nan, dtype=np.float64)
    for d in range(max_disp):
        # channel-sequential accumulation: bit-identical to a scalar loop
        acc = np.zeros((h, w - d), dtype=np.float64)
        for c in range(a.shape[-1]):
            acc += a[:, d:, c] * b[:, :w - d, c]
        cv[:, d:, d] = acc
    return cv


def wta_disparity(cv):
    """Per-pixel argmax over valid disparity hypotheses.

    Ties break toward the smaller disparity. Returns (disparity int map,
    confidence), where confidence is the margin between the best and
    second-best valid cost (0 where only one hypothesis is valid).
    """
    masked = np.nan_to_num(cv, nan=-np.inf)
    best = np.argmax(masked, axis=-1)  # np.argmax takes the first maximum
    n_d = cv.shape[-1]
    top = np.take_along_axis(masked, best[..., None], axis=-1)[..., 0]
    second = np.where(
        np.arange(n_d) == best[..., None], -np.inf, masked
    ).max(axis=-1)
    confidence = np.where(np.isfinite(second), top - second, 0.0)
    return best.astype(np.int64), confidence


def subpixel_refine(cv, disp):
    """Parabola fit through the three costs around each winner.

    The offset is clamped to (-0.5, 0.5); winners at the hypothesis range
    boundary (or next to an invalid entry) are returned unrefined.
    """
    n_d = cv.shape[-1]
    if n_d < 3:  # no winner has two neighbours
        return disp.astype(np.float64)
    di = np.clip(disp, 1, n_d - 2)
    c0, c1, c2 = (np.take_along_axis(cv, (di + k)[..., None], axis=-1)[..., 0]
                  for k in (-1, 0, 1))
    interior = (disp >= 1) & (disp <= n_d - 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        offset = (c0 - c2) / (2 * (c0 - 2 * c1 + c2))
    usable = interior & np.isfinite(offset)
    offset = np.where(usable, np.clip(offset, -0.4999999, 0.4999999), 0.0)
    return disp.astype(np.float64) + offset


def oracle_estimate_disparity(left, right, max_disp, patch=3):
    """(disparity, confidence) of a rectified pair from the whole cost
    volume of its features."""
    cv = correlate_1d(extract_features(left, patch),
                      extract_features(right, patch), max_disp)
    disp, confidence = wta_disparity(cv)
    return subpixel_refine(cv, disp), confidence
