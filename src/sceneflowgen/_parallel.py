"""The package's one thread map and the row bands it runs over.

`render` (z-buffer shares and shading batches), `groundtruth`
(`derive_frame`'s bands and the motion-boundary mark pass over them),
`match` (`estimate_disparity`'s bands) and `pipeline` (the passes of one
(frame, view), decoded on load and encoded or copied and written on
save) cut their work into independent units and run them through
`map_ordered`: one thread per usable CPU, capped at the number of units.
numpy and file I/O release the GIL, so the units run side by side. Each
unit writes only its own part of the output, and results come back in
unit order, so output bytes do not depend on the worker count; with one
usable CPU the map runs the units one after another on one thread.

A band is `BAND_ROWS` rows: its temporaries stay in cache, and the bands
in flight hold far less than one frame's maps.

Under the CLI the threads of the map allocate from one heap. glibc would
give each thread its own malloc arena, each with its own high-water mark,
and would hand every freed per-view buffer above its mmap threshold back
to the kernel, only to fault it in again for the next view. `_one_heap`, which
the CLI calls once before any thread starts, sets one arena, an mmap
threshold above every per-view array and a trim threshold that keeps the
freed pages, so a page is faulted in once per process, not once per view.
Where the C library has no glibc `mallopt` it does nothing; library
callers keep their process's own policy.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["BAND_ROWS", "bands", "map_ordered", "map_shares"]

BAND_ROWS = 32

# glibc mallopt parameters and values: one arena; blocks up to 32 MiB (above
# the largest per-view array, a 12.4 MB float64 position pass at 960x540;
# mallopt(3) documents 32 MiB as the limit on 64-bit, and some glibc
# releases refuse more) come from the heap; up to 256 MiB free at its top
# stays mapped
_HEAP_POLICY = ((-8, 1),  # M_ARENA_MAX
                (-3, 32 << 20),  # M_MMAP_THRESHOLD
                (-1, 256 << 20))  # M_TRIM_THRESHOLD


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


def _one_heap():
    """Apply `_HEAP_POLICY` through the C library's `mallopt`, in order,
    stopping at the first value it refuses. Without a loadable C library
    or its `mallopt` (not glibc), nothing is set."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    for param, value in _HEAP_POLICY:
        if not mallopt(param, value):
            return


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
