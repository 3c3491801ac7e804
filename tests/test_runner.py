"""Tests for deterministic substreams and the indexed parallel map."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from subsetcal import runner
from subsetcal.mismatch import ConfigError
from subsetcal.runner import parallel_indexed, sample_substream


def test_substream_replays_identically():
    a = sample_substream(7, 3).standard_normal(16)
    b = sample_substream(7, 3).standard_normal(16)
    assert np.array_equal(a, b)


def test_substreams_differ_across_indices():
    a = sample_substream(7, 0).standard_normal(16)
    b = sample_substream(7, 1).standard_normal(16)
    assert not np.array_equal(a, b)


def test_substreams_differ_across_master_seeds():
    a = sample_substream(1, 5).standard_normal(16)
    b = sample_substream(2, 5).standard_normal(16)
    assert not np.array_equal(a, b)


def test_substream_rejects_negative_index():
    with pytest.raises(ConfigError):
        sample_substream(1, -1)


def test_parallel_indexed_preserves_order():
    assert parallel_indexed(5, lambda i: i * i) == [0, 1, 4, 9, 16]


def test_parallel_indexed_thread_count_does_not_change_results():
    def draw(i):
        return float(sample_substream(3, i).standard_normal())

    assert parallel_indexed(40, draw, threads=1) == parallel_indexed(
        40, draw, threads=4
    )


@pytest.fixture
def recorded_pools(monkeypatch):
    """The max_workers of every pool parallel_indexed opens."""
    pools = []

    class RecordingExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(runner, "ThreadPoolExecutor", RecordingExecutor)
    return pools


def test_parallel_indexed_clamps_workers_to_tasks(monkeypatch, recorded_pools):
    monkeypatch.setattr(runner, "_usable_cores", lambda: 64)
    workers = set()
    lock = threading.Lock()

    def square(i):
        with lock:
            workers.add(threading.get_ident())
        return i * i

    assert parallel_indexed(3, square, threads=8) == [0, 1, 4]
    assert recorded_pools == [3]
    assert 1 <= len(workers) <= 3


def test_parallel_indexed_clamps_workers_to_usable_cores(monkeypatch, recorded_pools):
    monkeypatch.setattr(runner, "_usable_cores", lambda: 2)
    assert parallel_indexed(50, lambda i: i, threads=10**6) == list(range(50))
    assert recorded_pools == [2]
    # one usable core: the calls run inline, no pool
    monkeypatch.setattr(runner, "_usable_cores", lambda: 1)
    caller = threading.get_ident()
    assert parallel_indexed(4, lambda i: threading.get_ident(), threads=8) == [caller] * 4
    assert recorded_pools == [2]


def test_parallel_indexed_empty():
    assert parallel_indexed(0, lambda i: i) == []


def test_parallel_indexed_validates_arguments():
    with pytest.raises(ConfigError):
        parallel_indexed(-1, lambda i: i)
    with pytest.raises(ConfigError):
        parallel_indexed(3, lambda i: i, threads=0)
