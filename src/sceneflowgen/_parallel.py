"""The package's one thread pool, its map and the row bands it runs over.

`render` (z-buffer shares and shading batches), `groundtruth`
(`derive_frame`'s bands and the motion-boundary mark pass over them),
`match` (`estimate_disparity`'s bands) and `pipeline` (the passes of one
(frame, view), decoded on load and encoded or copied and written on
save) cut their work into independent units and run them through
`map_ordered`. The units run on one pool of threads per process: the
first map that needs more than one worker makes it, one thread per usable
CPU, and every later map reuses it, so a command starts its threads once.
A map whose usable CPU count differs from the pool's makes a new pool in
its place. At most min(usable CPUs, units) units of a map run at once.
numpy and file I/O release the GIL, so the units run side by side. Each
unit writes only its own part of the output, and results come back in
unit order, so output bytes do not depend on the worker count. With one
usable CPU or one unit, and in a map called from a unit, the units run
one after another on the caller's thread. A forked child starts without
the pool, whose threads it does not have.

A band is a run of rows: its temporaries stay in cache, and the bands in
flight hold far less than one frame's maps. The matcher's bands are
`BAND_ROWS` = 32 rows, the height `bands` cuts by default: its float64
disparity loop gains nothing from taller bands, and its peak memory rises
with them. Ground-truth bands are `GT_BAND_ROWS` = 64 rows, which
`groundtruth` gives `bands`: a band runs each of its steps as one numpy
call over its rows, and two threads overlap the fewer, longer calls of
64-row bands better than those of 32-row ones.

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
import threading
from concurrent.futures import ThreadPoolExecutor, wait

__all__ = ["BAND_ROWS", "GT_BAND_ROWS", "bands", "map_ordered", "map_shares"]

BAND_ROWS = 32  # the matcher's
GT_BAND_ROWS = 64  # groundtruth's

# glibc mallopt parameters and values: one arena; blocks up to 32 MiB (above
# the largest per-view array, a 12.4 MB float64 position pass at 960x540;
# mallopt(3) documents 32 MiB as the limit on 64-bit, and some glibc
# releases refuse more) come from the heap; up to 256 MiB free at its top
# stays mapped
_HEAP_POLICY = ((-8, 1),  # M_ARENA_MAX
                (-3, 32 << 20),  # M_MMAP_THRESHOLD
                (-1, 256 << 20))  # M_TRIM_THRESHOLD


# (usable CPUs, ThreadPoolExecutor) of the last map that needed a pool;
# made and replaced under _lock
_pool = None
_lock = threading.Lock()
_in_pool = threading.local()  # .thread is True on the pool's threads


def _mark_pool_thread():
    _in_pool.thread = True


def _pool_of(cpus):
    """The process's pool of cpus threads, made if it has none of that size.
    A pool it replaces is dropped, and its threads end once no map holds it."""
    global _pool
    with _lock:
        if _pool is None or _pool[0] != cpus:
            _pool = cpus, ThreadPoolExecutor(cpus,
                                             initializer=_mark_pool_thread)
        return _pool[1]


def _forget_pool():
    """In a forked child: the pool's threads and the lock's holder stayed
    in the parent."""
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def bands(h, rows=None):
    """The row slices of an image h rows high: rows rows each (BAND_ROWS,
    the matcher's, by default), the last one short, covering rows 0 .. h - 1
    once, in order."""
    rows = BAND_ROWS if rows is None else rows
    return [slice(y, min(y + rows, h)) for y in range(0, h, rows)]


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
    """[fn(item) for item in items], at most min(usable CPUs, len(items))
    at once on the process's pool, or on the caller's thread with one
    usable CPU or one item, or when called from an item of another map.

    Results come back in item order; if items raise, the exception of the
    first of them in item order is re-raised once the items not yet started
    are dropped and the started ones have finished. No items start no pool.
    """
    items = list(items)
    cpus = _usable_cpus()
    if cpus == 1 or len(items) <= 1 or getattr(_in_pool, "thread", False):
        return [fn(item) for item in items]
    pool = _pool_of(cpus)
    futures = []
    try:
        for item in items:
            futures.append(pool.submit(fn, item))
        return [future.result() for future in futures]
    except BaseException:
        for future in futures:
            future.cancel()
        wait(futures)
        raise


def map_shares(fn, items):
    """fn over one share of the items per worker: the items are dealt
    round-robin into n = max(1, min(usable CPUs, len(items))) lists, share
    k holding items k, k + n, ..., and the results come back in share
    order. With items, no share is empty."""
    items = list(items)
    n = max(1, min(_usable_cpus(), len(items)))
    return map_ordered(fn, [items[k::n] for k in range(n)])
