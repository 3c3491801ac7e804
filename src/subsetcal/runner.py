"""Deterministic fan-out of per-sample work.

Every Monte Carlo consumer derives one child generator per sample index from
a master seed, so results depend only on (master_seed, index) — never on
worker count, scheduling order, or how many samples ran before.  Aggregation
keeps canonical sample order.

``parallel_indexed`` splits the indices into contiguous chunks and runs all
but the first in forked worker processes, which inherit the row function
(only the rows, or an exception, are pickled), so per-sample flows bound by
the interpreter lock scale with the cores.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
from typing import BinaryIO, Callable, TypeVar

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


def _chunk_bounds(n: int, threads: int) -> list[int]:
    """Chunk j of range(n) is [bounds[j], bounds[j + 1]).

    One chunk per worker, min(threads, n, usable cores) of them (at least
    one), with sizes differing by at most one.
    """
    workers = max(1, min(threads, n, _usable_cores()))
    return [n * j // workers for j in range(workers + 1)]


def _fork_chunk(fn: Callable[[int], T], lo: int, hi: int) -> tuple[int, BinaryIO]:
    """Start a worker computing [fn(lo), ..., fn(hi-1)]; (pid, read end of its pipe).

    The worker writes ("ok", rows) or ("err", exception) with pickle and
    leaves through ``os._exit``, so it never returns into the caller, flushes
    the parent's stdio buffers or runs its exit handlers.  It exits non-zero
    without a complete result if even that cannot be written.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            try:
                result = ("ok", [fn(i) for i in range(lo, hi)])
                payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            except Exception as err:
                payload = pickle.dumps(("err", err), pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def parallel_indexed(n: int, fn: Callable[[int], T], threads: int = 1) -> list[T]:
    """[fn(0), ..., fn(n-1)], computed by up to ``threads`` workers.

    ``threads`` counts workers, the caller included: min(threads, n, usable
    cores) contiguous chunks, the first computed in this process and each
    other in a forked worker.  With one chunk, or where ``os.fork`` does not
    exist, every call runs inline.  Results come back in index order, so the
    output is byte-for-byte independent of ``threads``.

    Failures keep the serial semantics: the exception from the lowest failing
    chunk is raised with its type and message, after every worker has been
    reaped (the later ones are killed).  A worker that dies without a result
    raises ``ChildProcessError`` naming its chunk and exit status.
    """
    if n < 0:
        raise ConfigError(f"sample count must be >= 0, got {n}")
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    bounds = _chunk_bounds(n, threads)
    if len(bounds) == 2 or not hasattr(os, "fork"):
        return [fn(i) for i in range(n)]
    workers: dict[int, BinaryIO] = {}  # pid -> read end, until the pid is reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pid, pipe = _fork_chunk(fn, lo, hi)
            workers[pid] = pipe
        rows = [fn(i) for i in range(bounds[1])]
        for chunk, pid in enumerate(list(workers), start=1):
            with workers[pid] as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            if status != 0 or not data:
                raise ChildProcessError(
                    f"worker for chunk {chunk} (rows {bounds[chunk]}..{bounds[chunk + 1] - 1})"
                    f" ended with exit status {os.waitstatus_to_exitcode(status)}"
                    " without a result"
                )
            kind, value = pickle.loads(data)
            if kind == "err":
                raise value
            rows.extend(value)
        return rows
    finally:
        for pid, pipe in workers.items():
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
