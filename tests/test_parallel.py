import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from sceneflowgen import _parallel

from conftest import set_cpus


def record_pools(monkeypatch):
    """Make the map record the worker count of each pool it starts."""
    sizes = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

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
        sizes = record_pools(monkeypatch)
        set_cpus(monkeypatch, cpus)
        assert _parallel.map_ordered(str, range(n_items)) == [
            str(i) for i in range(n_items)]
        assert sizes == [workers]

    def test_no_items_start_no_pool(self, monkeypatch):
        sizes = record_pools(monkeypatch)
        assert _parallel.map_ordered(str, iter(())) == []
        assert sizes == []


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
        sizes = record_pools(monkeypatch)
        set_cpus(monkeypatch, cpus)
        items = [f"item {i}" for i in range(n_items)]
        shares = _parallel.map_shares(list, items)
        n = min(cpus, n_items)
        assert shares == [items[k::n] for k in range(n)]
        assert all(shares)
        assert sizes == [n]

    def test_no_items_one_empty_share(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        assert _parallel.map_shares(list, iter(())) == [[]]
