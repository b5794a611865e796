import ctypes
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import sceneflowgen
from sceneflowgen import _parallel, cli, pipeline

from conftest import at_once, set_cpus, small_params


def record_pools(monkeypatch):
    """Make the map record the worker count of each pool it starts."""
    sizes = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", Pool)
    return sizes


class TestMapOrdered:
    def test_results_in_item_order(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        # item 0 finishes only after item 1 has finished
        done = threading.Event()

        def fn(i):
            if i == 0:
                assert done.wait(timeout=30)
            elif i == 1:
                done.set()
            return i * i

        assert _parallel.map_ordered(fn, range(6)) == [0, 1, 4, 9, 16, 25]

    def test_first_failing_item_in_item_order_is_raised(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        # item 0 holds one worker until item 2 starts on the other, which
        # has recorded item 1's failure by then: item 1 fails first in time
        item_2_started = threading.Event()

        def fn(i):
            if i == 0:
                assert item_2_started.wait(timeout=30)
                raise KeyError("item 0")
            if i == 1:
                raise ValueError("item 1")
            item_2_started.set()

        with pytest.raises(KeyError, match="item 0"):
            _parallel.map_ordered(fn, range(3))
        assert item_2_started.is_set()

    @pytest.mark.parametrize("cpus, n_items, workers",
                             [(1, 5, 1), (2, 5, 2), (2, 1, 1), (64, 3, 3)])
    def test_one_worker_per_cpu_capped_at_items(self, monkeypatch, cpus,
                                                n_items, workers):
        # at most one item per usable CPU runs at once, and no more than
        # there are items
        fn = at_once(str)
        set_cpus(monkeypatch, cpus)
        assert _parallel.map_ordered(fn, range(n_items)) == [
            str(i) for i in range(n_items)]
        assert 1 <= fn.most <= workers

    def test_no_items_start_no_pool(self, monkeypatch):
        sizes = record_pools(monkeypatch)
        assert _parallel.map_ordered(str, iter(())) == []
        assert sizes == []

    def test_maps_in_a_row_run_on_the_same_threads(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        # each pair of items waits until both have started: two threads
        barrier = threading.Barrier(2, timeout=30)

        def thread(i):
            barrier.wait()
            # the Thread itself: a thread's ident may be reused by the next
            return threading.current_thread()

        first = set(_parallel.map_ordered(thread, range(4)))
        second = set(_parallel.map_ordered(thread, range(4)))
        assert len(first) == 2 and second == first
        assert threading.current_thread() not in first

    def test_one_pool_until_the_cpu_count_changes(self, monkeypatch):
        sizes = record_pools(monkeypatch)
        monkeypatch.setattr(_parallel, "_pool", None)  # no pool made yet
        for cpus in (2, 2, 1, 2, 3, 3):
            set_cpus(monkeypatch, cpus)
            assert _parallel.map_ordered(str, range(4)) == list("0123")
        assert sizes == [2, 3]

    def test_failure_waits_for_the_started_items(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        # item 0 fails once item 1 has started; item 1 is still running
        started, finished = threading.Event(), threading.Event()

        def fn(i):
            if i == 0:
                assert started.wait(timeout=30)
                raise ValueError("item 0")
            started.set()
            time.sleep(0.2)
            finished.set()

        with pytest.raises(ValueError, match="item 0"):
            _parallel.map_ordered(fn, range(2))
        assert finished.is_set()

    def test_map_within_an_item_runs_on_its_thread(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        # an item that waited for the pool's threads, all busy with items
        # that wait for it, would never run
        barrier = threading.Barrier(2, timeout=30)

        def outer(i):
            barrier.wait()
            inner = _parallel.map_ordered(
                lambda j: threading.get_ident(), range(3))
            return threading.get_ident(), inner

        results = _parallel.map_ordered(outer, range(2))
        assert len({thread for thread, _ in results}) == 2
        for thread, inner in results:
            assert thread != threading.get_ident()
            assert inner == [thread] * 3


def test_derive_starts_one_thread_per_cpu(monkeypatch, tmp_path):
    # a 3-frame derive on two CPUs: one pool of two threads for all its
    # maps, where a pool per map started 36
    spec = sceneflowgen.generate_flyingthings_scene(
        1, small_params(frames=3, width=64, height=48))
    pipeline.generate_dataset(spec, tmp_path / "ds")
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(_parallel, "_pool", None)  # no pool made yet
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    pipeline.derive_dataset(tmp_path / "ds", tmp_path / "out")
    assert 1 <= len(started) <= 2, started


@pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_an_affinity_mask(monkeypatch, count, usable):
    # the CPU count where the OS has no affinity mask, 1 if it is unknown
    monkeypatch.delattr(_parallel.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: count)
    assert _parallel._usable_cpus() == usable


class TestBands:
    @pytest.mark.parametrize(
        "h", [0, 1, _parallel.BAND_ROWS, _parallel.BAND_ROWS + 1])
    def test_cover_every_row_once(self, h):
        rows = _parallel.BAND_ROWS
        bands = _parallel.bands(h)
        assert [y for band in bands for y in range(h)[band]] == list(range(h))
        assert all(band.stop - band.start == rows for band in bands[:-1])
        assert all(0 < band.stop - band.start <= rows for band in bands)
        assert all(band.stop <= h for band in bands)

    def test_band_height_read_when_called(self, monkeypatch):
        monkeypatch.setattr(_parallel, "BAND_ROWS", 4)
        assert _parallel.bands(10) == [slice(0, 4), slice(4, 8), slice(8, 10)]


class TestMapShares:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    @pytest.mark.parametrize("n_items", [1, 2, 5, 8])
    def test_round_robin_no_share_empty(self, monkeypatch, cpus, n_items):
        fn = at_once(list)
        set_cpus(monkeypatch, cpus)
        items = [f"item {i}" for i in range(n_items)]
        shares = _parallel.map_shares(fn, items)
        n = min(cpus, n_items)
        assert shares == [items[k::n] for k in range(n)]
        assert all(shares)
        assert 1 <= fn.most <= n

    def test_no_items_one_empty_share(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        assert _parallel.map_shares(list, iter(())) == [[]]


def fake_libc(monkeypatch, returns=1, has_mallopt=True):
    """Make `ctypes.CDLL(None)` a C library whose mallopt records each
    (param, value) call and returns `returns`."""
    calls = []

    class Libc:
        if has_mallopt:
            def mallopt(self, param, value):
                calls.append((param, value))
                return returns

    def cdll(name):
        assert name is None
        return Libc()

    monkeypatch.setattr(_parallel.ctypes, "CDLL", cdll)
    return calls


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestOneHeap:
    def test_sets_one_arena_then_thresholds(self, monkeypatch):
        calls = fake_libc(monkeypatch)
        _parallel._one_heap()
        assert calls == [(-8, 1), (-3, 32 << 20), (-1, 256 << 20)]

    def test_no_mallopt_is_a_no_op(self, monkeypatch):
        fake_libc(monkeypatch, has_mallopt=False)
        assert _parallel._one_heap() is None

    @pytest.mark.parametrize("error", [OSError, TypeError])
    def test_no_c_library_is_a_no_op(self, monkeypatch, error):
        def cdll(name):
            raise error("no C library")

        monkeypatch.setattr(_parallel.ctypes, "CDLL", cdll)
        assert _parallel._one_heap() is None

    def test_refused_value_stops_the_policy(self, monkeypatch):
        calls = fake_libc(monkeypatch, returns=0)
        assert _parallel._one_heap() is None
        assert calls == [(-8, 1)]

    @pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt")
    def test_glibc_accepts_every_value(self, monkeypatch):
        # the real mallopt; a refused value would silently drop the rest
        libc = ctypes.CDLL(None)
        returned = []

        class Recording:
            def mallopt(self, param, value):
                returned.append((param, value, libc.mallopt(param, value)))
                return returned[-1][2]

        monkeypatch.setattr(_parallel.ctypes, "CDLL", lambda name: Recording())
        _parallel._one_heap()
        assert returned == [(p, v, 1) for p, v in _parallel._HEAP_POLICY]

    def test_cli_applies_it_before_the_command(self, monkeypatch):
        events = []
        monkeypatch.setattr(_parallel, "_one_heap",
                            lambda: events.append("heap"))
        monkeypatch.setattr(cli, "cmd_inspect",
                            lambda args: events.append("inspect"))
        assert cli.main(["inspect", "anything"]) == 0
        assert events == ["heap", "inspect"]

    @pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt")
    def test_derive_faults_do_not_grow_with_frames(self, tmp_path):
        # 9 frames at 480x270: with a heap per thread, or one that hands
        # freed views back to the kernel, each view faults its pages in
        # again, and 9 frames took 1.4-1.8x the faults of 6
        ds = tmp_path / "ds"
        assert cli.main(["generate", "--seed", "3", "--frames", "9",
                         "--size", "480x270", "--n-background", "40",
                         "--out", str(ds)]) == 0
        src = str(Path(sceneflowgen.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        usage = {}
        for n in (6, 9):
            # a dataset of the first n frames: its manifest, the same files
            manifest = json.loads((ds / "manifest.json").read_text())
            del manifest["frames"][n:]
            for view in manifest["frames"][-1]["files"].values():
                view.pop("pos3d_next", None)
            root = tmp_path / f"first-{n}"
            root.mkdir()
            (root / "manifest.json").write_text(json.dumps(manifest))
            (root / manifest["dataset"]).symlink_to(ds / manifest["dataset"])
            proc = subprocess.Popen(
                [sys.executable, "-c", _DERIVE_THEN_PEAK, "derive", str(root),
                 "--out", str(tmp_path / f"out-{n}")],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            with proc.stderr:
                err = proc.stderr.read()
            _, status, faults = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            assert proc.returncode == 0, err
            usage[n] = faults.ru_minflt, int(err)
        assert usage[9][0] <= 1.1 * usage[6][0], usage
        assert usage[9][1] - usage[6][1] <= 2 * 1024, usage


# `sfgen ARGS`, then its own peak RSS in KiB on stderr. A child's ru_maxrss
# would count the pages of the test process it was forked from; VmHWM counts
# only those of the program it runs.
_DERIVE_THEN_PEAK = """
import sys
from sceneflowgen.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status
               if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""
