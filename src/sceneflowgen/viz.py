"""Color renderings of flow and disparity maps for quick inspection."""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError

__all__ = ["flow_to_rgb", "scalar_to_rgb", "color_wheel"]


def color_wheel() -> np.ndarray:
    """Middlebury-style hue wheel (N, 3) in [0, 1]; angle 0 is pure red."""
    ry, yg, gc, cb, bm, mr = 15, 6, 4, 11, 13, 6
    total = ry + yg + gc + cb + bm + mr
    wheel = np.zeros((total, 3))
    col = 0
    wheel[col:col + ry, 0] = 1.0
    wheel[col:col + ry, 1] = np.arange(ry) / ry
    col += ry
    wheel[col:col + yg, 0] = 1.0 - np.arange(yg) / yg
    wheel[col:col + yg, 1] = 1.0
    col += yg
    wheel[col:col + gc, 1] = 1.0
    wheel[col:col + gc, 2] = np.arange(gc) / gc
    col += gc
    wheel[col:col + cb, 1] = 1.0 - np.arange(cb) / cb
    wheel[col:col + cb, 2] = 1.0
    col += cb
    wheel[col:col + bm, 2] = 1.0
    wheel[col:col + bm, 0] = np.arange(bm) / bm
    col += bm
    wheel[col:col + mr, 2] = 1.0 - np.arange(mr) / mr
    wheel[col:col + mr, 0] = 1.0
    return wheel


def _check_scale(name, value):
    """A given scale must be finite and positive; None picks one."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise ContractError(f"{name} must be finite and > 0, got {value}")


def flow_to_rgb(flow: np.ndarray, max_flow=None) -> np.ndarray:
    """Flow map -> uint8 RGB: hue encodes direction, saturation encodes
    magnitude relative to max_flow. NaN pixels render black."""
    _check_scale("max_flow", max_flow)
    u = flow[..., 0]
    v = flow[..., 1]
    nan = ~np.isfinite(u) | ~np.isfinite(v)
    u = np.where(nan, 0.0, u)
    v = np.where(nan, 0.0, v)
    mag = np.sqrt(u * u + v * v)
    if max_flow is None:
        max_flow = max(float(mag.max()), 1e-9)
    sat = np.clip(mag / max_flow, 0.0, 1.0)

    wheel = color_wheel()
    n = len(wheel)
    angle = np.arctan2(-v, -u) / np.pi  # (-1, 1], Middlebury convention
    fk = (angle + 1.0) / 2.0 * (n - 1)
    k0 = np.floor(fk).astype(int) % n
    k1 = (k0 + 1) % n
    frac = (fk - np.floor(fk))[..., None]
    base = wheel[k0] * (1 - frac) + wheel[k1] * frac
    rgb = 1.0 - sat[..., None] * (1.0 - base)
    rgb[nan] = 0.0
    return np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)


def scalar_to_rgb(values: np.ndarray, max_value=None) -> np.ndarray:
    """Disparity / disparity-change map -> uint8 RGB.

    Monotone luminance ramp: larger values (nearer surfaces) are brighter,
    with a mild warm tint; NaN pixels render black.
    """
    _check_scale("max_value", max_value)
    nan = ~np.isfinite(values)
    vals = np.where(nan, 0.0, values)
    if max_value is None:
        span = float(np.abs(vals).max())
        max_value = span if span > 0 else 1.0
    t = np.clip(np.abs(vals) / max_value, 0.0, 1.0)
    rgb = np.stack([t, t ** 1.5, t ** 3], axis=-1)
    rgb[nan] = 0.0
    return np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)
