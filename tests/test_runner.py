"""Tests for deterministic substreams and the indexed parallel map."""

from __future__ import annotations

import os

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


def assert_no_child_left():
    """Every worker was reaped: this process has no child, not even a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def four_cores(monkeypatch):
    """Workers fork as asked, whatever the cores of the machine running the test."""
    monkeypatch.setattr(runner, "_usable_cores", lambda: 4)


def test_parallel_indexed_clamps_workers_to_tasks(monkeypatch):
    monkeypatch.setattr(runner, "_usable_cores", lambda: 64)
    assert runner._chunk_bounds(3, 8) == [0, 1, 2, 3]
    assert runner._chunk_bounds(3, 10**6) == [0, 1, 2, 3]
    assert runner._chunk_bounds(0, 8) == [0, 0]
    # one row per worker: the caller computes row 0, two forked workers the rest
    rows = parallel_indexed(3, lambda i: (i * i, os.getpid()), threads=8)
    assert [square for square, _ in rows] == [0, 1, 4]
    pids = [pid for _, pid in rows]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert_no_child_left()


def test_parallel_indexed_clamps_workers_to_usable_cores(monkeypatch):
    monkeypatch.setattr(runner, "_usable_cores", lambda: 2)
    assert runner._chunk_bounds(50, 10**6) == [0, 25, 50]
    assert parallel_indexed(50, lambda i: i, threads=10**6) == list(range(50))
    assert_no_child_left()
    # one usable core: the calls run inline, in the caller
    monkeypatch.setattr(runner, "_usable_cores", lambda: 1)
    assert runner._chunk_bounds(50, 10**6) == [0, 50]
    caller = os.getpid()
    assert parallel_indexed(4, lambda i: os.getpid(), threads=8) == [caller] * 4


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_parallel_indexed_uneven_chunks_keep_order(four_cores, threads):
    bounds = runner._chunk_bounds(7, threads)
    sizes = np.diff(bounds)
    assert bounds[0] == 0 and bounds[-1] == 7 and len(sizes) == threads
    assert sizes.max() - sizes.min() <= 1

    def draw(i):
        return i, float(sample_substream(5, i).standard_normal())

    assert parallel_indexed(7, draw, threads=threads) == [draw(i) for i in range(7)]
    assert_no_child_left()


def test_worker_error_is_raised_with_its_type_and_message(four_cores):
    parent = os.getpid()

    def row(i):
        if i == 5:
            assert os.getpid() != parent
            raise ConfigError(f"row {i} is out of range")
        return i

    with pytest.raises(ConfigError, match=r"^row 5 is out of range$"):
        parallel_indexed(8, row, threads=2)
    assert_no_child_left()


def test_error_in_the_callers_chunk_reaps_the_workers(four_cores):
    parent = os.getpid()

    def row(i):
        if i == 1:
            assert os.getpid() == parent
            raise ConfigError("row 1 is out of range")
        return i

    with pytest.raises(ConfigError, match=r"^row 1 is out of range$"):
        parallel_indexed(8, row, threads=4)
    assert_no_child_left()


def test_the_lowest_failing_chunk_decides_the_error(four_cores):
    def row(i):
        if i >= 4:
            raise ConfigError(f"row {i} is out of range")
        return i

    with pytest.raises(ConfigError, match=r"^row 4 is out of range$"):
        parallel_indexed(8, row, threads=4)
    assert_no_child_left()


def test_worker_that_dies_without_a_result(four_cores):
    def row(i):
        if i == 6:
            os._exit(3)
        return i

    with pytest.raises(ChildProcessError, match=r"chunk 1 \(rows 4\.\.7\).*exit status 3"):
        parallel_indexed(8, row, threads=2)
    assert_no_child_left()


def test_parallel_indexed_empty():
    assert parallel_indexed(0, lambda i: i) == []


def test_parallel_indexed_validates_arguments():
    with pytest.raises(ConfigError):
        parallel_indexed(-1, lambda i: i)
    with pytest.raises(ConfigError):
        parallel_indexed(3, lambda i: i, threads=0)
