"""The package's one thread map and the row bands it runs over.

`render` (z-buffer shares and shading batches), `groundtruth`
(`derive_frame`'s bands) and `match` (`estimate_disparity`'s bands) cut
their work into independent units and run them through `map_ordered`:
one thread per usable CPU, capped at the number of units. numpy releases
the GIL in each step, so the units run side by side. Each unit writes
only its own part of the output, and results come back in unit order,
so output bytes do not depend on the worker count; with one usable CPU
the map runs the units one after another on one thread.

A band is `BAND_ROWS` rows: its temporaries stay in cache, and the bands
in flight hold far less than one frame's maps.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["BAND_ROWS", "bands", "map_ordered", "map_shares"]

BAND_ROWS = 32


def bands(h):
    """The row slices of an image h rows high: BAND_ROWS rows each, the
    last one short, covering rows 0 .. h - 1 once, in order."""
    return [slice(y, min(y + BAND_ROWS, h)) for y in range(0, h, BAND_ROWS)]


def _usable_cpus():
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_ordered(fn, items):
    """[fn(item) for item in items] on min(usable CPUs, len(items)) threads.

    Results come back in item order; if items raise, the exception of the
    first of them in item order is re-raised and items not yet started are
    dropped. No items start no pool.
    """
    items = list(items)
    if not items:
        return []
    with ThreadPoolExecutor(min(_usable_cpus(), len(items))) as pool:
        return list(pool.map(fn, items))


def map_shares(fn, items):
    """fn over one share of the items per worker: the items are dealt
    round-robin into n = max(1, min(usable CPUs, len(items))) lists, share
    k holding items k, k + n, ..., and the results come back in share
    order. With items, no share is empty."""
    items = list(items)
    n = max(1, min(_usable_cpus(), len(items)))
    return map_ordered(fn, [items[k::n] for k in range(n)])
