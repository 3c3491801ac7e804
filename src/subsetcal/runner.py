"""Deterministic fan-out of per-sample work.

Every Monte Carlo consumer derives one child generator per sample index from
a master seed, so results depend only on (master_seed, index) — never on
thread count, scheduling order, or how many samples ran before.  Aggregation
keeps canonical sample order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np

from .mismatch import ConfigError

__all__ = ["sample_substream", "parallel_indexed"]

T = TypeVar("T")


def sample_substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for one sample, keyed by (master_seed, index)."""
    if index < 0:
        raise ConfigError(f"sample index must be >= 0, got {index}")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_indexed(n: int, fn: Callable[[int], T], threads: int = 1) -> list[T]:
    """[fn(0), ..., fn(n-1)], optionally computed on a thread pool.

    Results come back ordered by index regardless of completion order, so the
    output is byte-for-byte independent of ``threads``.  The pool has
    min(threads, n, usable cores) workers; with one, the calls run inline.
    """
    if n < 0:
        raise ConfigError(f"sample count must be >= 0, got {n}")
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    workers = min(threads, n, _usable_cores())
    if workers <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))
