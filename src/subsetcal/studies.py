"""Monte Carlo studies of subset-selection calibration: yield, resolution, range.

A study draws many independent element sets, aims each at a target window around
the nominal k-subset sum (optionally shifted by a fixed or Gaussian offset), and
counts how often *no* selection lands inside the window.  Window widths and
offsets are expressed in units of sigma_k — the subset-sum sigma — so results
are scale-free.

Calibration resolution is summarized by r_cal: the ratio of the total error
sigma to be corrected, sqrt(1 + sigma_T^2) * sigma_k, to the equivalent
quantization sigma of a uniform residual over the window, width / sqrt(12).

Determinism: sampling is partitioned into fixed blocks of ``BLOCK`` samples;
block b draws from ``runner.sample_substream(master_seed, b)`` the element
sets and then one standard normal per sample that every Gaussian offset
scales.  All widths of one study are evaluated on one population, and so are
the offsets that ``run_studies`` serves from one draw.  A block computes its
subset sums in row chunks of about 47 rows at C(12, 6), each into one reused
buffer, and every offset reduces a chunk to its nearest sums while the chunk
is in cache: a subtract, abs and row-min pass per offset, or, for offsets
that weigh ``_SORT_WEIGHT`` or more, one row sort per chunk and a bisection
per offset over spans of sorted chunks.  Both give the same bits from the
same sums.  A chunk that small keeps OpenBLAS on the calling thread.

The sums' last bits depend on the BLAS kernel and on a chunk's rows, so
``run_studies`` certifies every window decision against a fixed-order sum
(``_settle``): every failure count is the one that ``selected_sums``'
order of adding gives, whatever the kernel, the chunking or the threads.
A study command hands every block of all its studies to one
``runner.parallel_indexed`` call, so --threads workers share them; a block
returns only its integer failure counts and resamples, which are summed per
study in block order.
"""

from __future__ import annotations

import math
# unused here; kept because perfbench/tracing.py replaces
# studies.ThreadPoolExecutor when it traces
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .mismatch import (
    DRAW_REACH,
    MAX_ARRAY_BYTES,
    MAX_DRAW_SUM,
    Arithmetic,
    ConfigError,
    MismatchModel,
    check_array_bytes,
    check_nk,
    draw_realized,
    membership_matrix,
    nominal_sizes,
    selected_sums,
    sigma_k,
)
from .runner import parallel_indexed, sample_substream

__all__ = [
    "BLOCK",
    "FixedOffset",
    "GaussianOffset",
    "OffsetSpec",
    "StudyConfig",
    "WidthResult",
    "StudyResult",
    "FrontierEntry",
    "InfeasibleStudyError",
    "min_distances",
    "run_study",
    "run_studies",
    "r_cal",
    "rcal_frontier",
    "a_eses_sweep",
    "STUDY_CSV_COLUMNS",
    "study_csv_rows",
]

BLOCK = 4096  # samples per random-stream block; fixed, never thread-dependent


@dataclass(frozen=True)
class FixedOffset:
    """Deterministic target offset from the nominal subset sum, in sigma_k units."""

    value: float


@dataclass(frozen=True)
class GaussianOffset:
    """Per-sample Gaussian target offset ~ N(0, sigma_t^2), sigma_k units."""

    sigma_t: float

    def __post_init__(self) -> None:
        if self.sigma_t < 0:
            raise ConfigError(f"sigma_t must be >= 0, got {self.sigma_t}")


OffsetSpec = Union[FixedOffset, GaussianOffset]


@dataclass(frozen=True)
class StudyConfig:
    n: int
    k: int
    scheme: Arithmetic
    model: MismatchModel
    window_widths: tuple[float, ...]  # sigma_k units
    offset: OffsetSpec = FixedOffset(0.0)
    samples: int = 100_000
    master_seed: int = 1

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        check_array_bytes(
            "min_distances' distance array that caps every study's sample count",
            (self.samples,),
        )
        if not self.window_widths:
            raise ConfigError("window_widths must not be empty")
        if any(w < 0 for w in self.window_widths):
            raise ConfigError("window widths must be >= 0")
        check_nk(self.n, self.k)
        # a subset sum with every element DRAW_REACH sigma above the largest
        # nominal must stay finite, and so must the distances taken from it;
        # the sorted path's bisection relies on finite sums
        nominal = nominal_sizes(self.scheme, self.n)
        sigma = float(self.model.element_sigmas(nominal).max())
        reach = self.k * (float(nominal.max()) + DRAW_REACH * sigma)
        if not reach <= MAX_DRAW_SUM:
            raise ConfigError(
                f"a drawn study's subset sums could reach {reach:.3g},"
                f" above the {MAX_DRAW_SUM:.3g} they are kept below"
            )

    @property
    def sigma_k_abs(self) -> float:
        return sigma_k(self.model, self.scheme, self.k)


@dataclass(frozen=True)
class WidthResult:
    width: float  # sigma_k units
    samples: int
    failures: int

    @property
    def failure_rate(self) -> float:
        return self.failures / self.samples

    @property
    def stderr(self) -> float:
        """Binomial standard error of the failure rate estimate."""
        f = self.failure_rate
        return math.sqrt(f * (1.0 - f) / self.samples)


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    rows: tuple[WidthResult, ...]
    resamples: int  # non-positive redraws across the whole run (diagnostic)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


# multiply-adds per chunk of the subset-sum product, (rows, n) @ (n, C(n,k)):
# 47 rows at C(12, 6), whose 350 KB of sums and as much pass scratch stay in
# L2 while the passes or the row sort read them.  OpenBLAS's SkylakeX
# kernels keep a product of up to 10**6 on the calling thread (cpu/wall
# 1.00 at 90 rows); a larger one wakes a helper thread that spins after
# every call (cpu/wall about 2 at 128 rows)
_CHUNK_MULADDS = 2**19

# sorted sums per bisection, bytes: each bisection step makes a few numpy
# calls over every (row, offset) of its span, so one span of several
# product chunks (282 rows at C(12, 6)) spreads their fixed cost
_SPAN_BYTES = 2**21

# pass weight from which a block sorts its subset sums and bisects instead
# of running one pass per offset.  A fixed offset's pass subtracts a
# broadcast scalar and weighs 2; a Gaussian one's subtracts a column of
# centers and weighs 3.  Per 4096-row C(12, 6) block, a fixed pass took
# about 4.7 ms, a Gaussian one 7.2 ms and the sorted path about 30 ms, so
# four Gaussian offsets (12) tie and seven fixed ones (14) sort
_SORT_WEIGHT = 13

# bytes a block holds per (row, offset) beyond its sums and element draw:
# the distance, the center, and the bisection's index, probe and neighbour
# arrays or the certification's interval ends
_OFFSET_ROW_BYTES = 80


def _sorts(offsets: Sequence[OffsetSpec]) -> bool:
    """Whether a block serving ``offsets`` sorts its sums (``_SORT_WEIGHT``)."""
    weight = sum(3 if isinstance(offset, GaussianOffset) else 2 for offset in offsets)
    return weight >= _SORT_WEIGHT


def _chunking(n: int, k: int, rows: int, sort: bool) -> tuple[int, int, int]:
    """Rows per product chunk, rows per sums buffer and sums per fixed-order
    gather for a block of ``rows`` samples.  A passing block's buffer holds
    one chunk, a sorting block's a span of whole chunks for one bisection; a
    gather holds three (sums, k) arrays."""
    width = math.comb(n, k)
    step = min(rows, max(1, _CHUNK_MULADDS // (n * width)))
    span = min(rows, max(1, _SPAN_BYTES // (8 * width * step)) * step) if sort else step
    return step, span, max(1, _CHUNK_MULADDS // (n * k))


def _check_block_bytes(config: StudyConfig, offsets: Sequence[OffsetSpec]) -> None:
    """Reject a study whose blocks would hold more than ``MAX_ARRAY_BYTES``
    while serving ``offsets``: the sums buffer and the pass scratch (or the
    sorted span), the element draw and its two temporaries, a fixed-order
    gather and ``_OFFSET_ROW_BYTES`` per (row, offset)."""
    n, k = config.n, config.k
    rows = min(config.samples, BLOCK)
    sort = _sorts(offsets)
    step, span, gather = _chunking(n, k, rows, sort)
    width = math.comb(n, k)
    sums = 8 * width * (span if sort else 2 * step)
    gathered = 24 * k * min(gather, rows * width)
    need = sums + 24 * rows * n + gathered + _OFFSET_ROW_BYTES * rows * len(offsets)
    if need > MAX_ARRAY_BYTES:
        raise ConfigError(
            f"{len(offsets)} offsets on blocks of {rows} samples at n={n}, k={k} need"
            f" {need} bytes, above the {MAX_ARRAY_BYTES}-byte limit"
        )


def _subset_sums(realized: np.ndarray, members: np.ndarray, out: np.ndarray) -> None:
    """Every subset sum of the element sets ``realized`` into ``out``, added
    in whatever order the BLAS kernel takes; tests put other orders here."""
    np.matmul(realized, members, out=out)


def _block_distances(
    config: StudyConfig,
    offsets: Sequence[OffsetSpec],
    nominal: np.ndarray,
    sigmas: np.ndarray,
    block: int,
    out: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray], int]:
    """Min |subset sum - target center| for one block of samples and each of
    ``offsets``, absolute units, written into ``out`` (offsets, rows).
    Returns the block's element sets (rows, n), its centers, one (rows, 1)
    column per offset, and the draw's resamples.

    One loop over row chunks of at most ``_CHUNK_MULADDS`` product
    multiply-adds: a chunk's subset sums go into a reused buffer and, while
    they are in cache, each offset runs a subtract, abs and row-min pass over
    them, or (``_sorts``) their rows are sorted in place and
    ``_sorted_distances`` bisects each span of sorted chunks.  Both give the
    same bits from the same sums.  Those bits depend on the BLAS kernel and
    on the chunk's rows; ``_settle`` bounds what that can move.
    """
    size = out.shape[1]
    rng = sample_substream(config.master_seed, block)
    nom = np.broadcast_to(nominal, (size, config.n))
    realized, resamples = draw_realized(nom, sigmas, rng)
    # a Gaussian offset is drawn after the element block, in sigma_k units, as
    # one standard normal that every Gaussian offset scales -> absolute
    sk = config.sigma_k_abs
    nominal_sum = config.k * nominal.mean()
    if any(isinstance(offset, GaussianOffset) for offset in offsets):
        z = rng.standard_normal(size)
    # (size, 1) each; a fixed offset's is one value broadcast, which numpy
    # subtracts about three times faster than a column of distinct values
    centers = []
    for offset in offsets:
        if isinstance(offset, GaussianOffset):
            centers.append((nominal_sum + z * (offset.sigma_t * sk))[:, None])
        else:
            centers.append(np.broadcast_to(nominal_sum + offset.value * sk, (size, 1)))
    members = membership_matrix(config.n, config.k)
    sort = _sorts(offsets)
    step, span, _ = _chunking(config.n, config.k, size, sort)
    sums = np.empty((span, members.shape[1]))
    if sort:
        table = np.hstack(centers)
    else:
        scratch = np.empty_like(sums)
    for lo in range(0, size, step):
        at = lo % span  # where the chunk lands in the span
        chunk = sums[at : at + min(step, size - lo)]
        hi = lo + len(chunk)
        _subset_sums(realized[lo:hi], members, chunk)
        if sort:
            chunk.sort(axis=1)
            if at + len(chunk) == span or hi == size:  # a full span, or the block's last
                first = lo - at
                _sorted_distances(sums[: hi - first], table[first:hi], out[:, first:hi])
        else:
            work = scratch[: len(chunk)]
            for center, dist in zip(centers, out):
                np.subtract(chunk, center[lo:hi], out=work)
                np.abs(work, out=work)
                work.min(axis=1, out=dist[lo:hi])
    return realized, centers, resamples


def _sorted_distances(sums: np.ndarray, centers: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` (offsets, rows) each row's least |sum - center|
    from the row-sorted ``sums`` for the (rows, offsets) ``centers``.

    Rounding is monotone, so on either side of a center c the computed
    |fl(s - c)| does not fall as s moves away from c: the row minimum is
    the value at the last sum below c or at the first one above it, and
    those two are the only sums read.  The bisection needs sums that order:
    a NaN sum would break it where a row min carries it through.
    ``StudyConfig`` keeps every drawn sum below ``MAX_DRAW_SUM``, so the sums
    are finite.  A NaN center compares false everywhere and gives NaN, as
    the row min does.
    """
    rows, width = sums.shape
    flat = sums.ravel()
    first = np.arange(0, rows * width, width)[:, None]
    # per (row, offset): the flat index of the row's last sum below the
    # center, or of its first sum when none is; each step halves the run
    # that holds it, on every row and offset at once, and row-major centers
    # let one row's offsets probe the same cache lines
    at = np.repeat(first, centers.shape[1], axis=1)
    probe = np.empty(centers.shape)
    below = np.empty(centers.shape, dtype=bool)
    span = width
    while span > 1:
        half = span // 2
        # every index is in range; "clip" spares take a buffered copy of out
        np.take(flat[half:], at, out=probe, mode="clip")
        np.less(probe, centers, out=below)
        np.add(at, half, out=at, where=below)
        span -= half
    lower = np.abs(flat[at] - centers)
    upper = np.abs(flat[np.minimum(at + 1, first + (width - 1))] - centers)
    np.minimum(lower, upper, out=out.T)


def _settle(
    realized: np.ndarray,
    centers: Sequence[np.ndarray],
    k: int,
    limits: Sequence[float],
    out: np.ndarray,
) -> tuple[np.ndarray, int]:
    """The (offsets, limits) counts of ``out > limit`` over the distances
    ``out`` (offsets, rows), each the count that the fixed-order distances
    give, and how many distances were recomputed in that order.
    ``realized`` and ``centers`` are what ``_block_distances`` returned for
    ``out``.

    The fixed-order distance d' of a (row, offset) is min |fl(s - c)| over
    the row's sums s from ``selected_sums``, whose order no kernel, chunk
    shape or thread count moves.  Every element is > 0, so a k-term sum,
    added in any order, lies within gamma_(k-1) S of its exact value S, and
    S <= T = k * the block's largest element; each distance adds one
    rounding.  So a computed distance d and d' differ by at most
    eps (1 + eps) d + (k - 1) eps (1 + k eps) T, which m = (k + 2) eps
    (T + d), rounded, still exceeds: d' lies in [d - m, d + m].  A limit
    below that interval fails both d and d', one at or above it passes
    both, and a distance with a limit inside it is recomputed.  The ends
    are taken as d (1 -/+ (k + 2) eps) -/+ (k + 2) eps T, so that an
    infinite distance (an overflowing center) keeps an infinite interval.
    """
    scale = (k + 2) * np.finfo(float).eps
    top = scale * k * realized.max()
    lower = out * (1.0 - scale) - top
    upper = out * (1.0 + scale) + top
    counts = np.empty((len(out), len(limits)), dtype=np.int64)
    recomputed = 0
    for j, limit in enumerate(limits):
        counts[:, j] = np.count_nonzero(lower > limit, axis=1)
        if np.count_nonzero(upper > limit) == counts[:, j].sum():
            continue  # no interval holds the limit
        near = (lower <= limit) & (upper > limit)
        for o, center in enumerate(centers):
            rows = np.flatnonzero(near[o])
            exact = _fixed_order_distances(realized, rows, center[rows, 0], k)
            lower[o, rows] = upper[o, rows] = exact
            recomputed += len(rows)
        counts[:, j] = np.count_nonzero(lower > limit, axis=1)
    return counts, recomputed


def _fixed_order_distances(
    realized: np.ndarray, rows: np.ndarray, centers: np.ndarray, k: int
) -> np.ndarray:
    """min |fl(s - c)| over every k-subset sum s of the ``rows`` of
    ``realized``, added in ``selected_sums``' order, for their ``centers``.
    Each ``selected_sums`` call gathers at most ``_chunking``'s count of
    sums: whole rows, or a run of one row's combinations."""
    n = realized.shape[1]
    width = math.comb(n, k)
    _, _, gather = _chunking(n, k, 1, False)
    batch = max(1, gather // width)
    best = np.full(len(rows), math.inf)
    for lo in range(0, len(rows), batch):
        part = slice(lo, lo + batch)
        elements = realized[rows[part], None, :]
        for first in range(0, width, gather):
            sums = selected_sums(elements, np.arange(first, min(first + gather, width)), k)
            nearest = np.abs(sums - centers[part, None]).min(axis=1)
            np.minimum(best[part], nearest, out=best[part])
    return best


def min_distances(config: StudyConfig) -> tuple[np.ndarray, int]:
    """Per-sample distance from the best subset sum to the target, absolute units.

    Returns (distances, resample_count).  Every window width of the study is a
    simple threshold query against this one array, so all widths are evaluated
    on the same sample population by construction.  The distances are as the
    chunked product gives them, each within ``_settle``'s bound of its
    fixed-order value.
    """
    nominal = nominal_sizes(config.scheme, config.n)
    sigmas = config.model.element_sigmas(nominal)
    dist = np.empty(config.samples)
    resamples = 0
    for start in range(0, config.samples, BLOCK):  # each block fills its slice
        out = dist[None, start : start + BLOCK]
        _, _, drawn = _block_distances(
            config, (config.offset,), nominal, sigmas, start // BLOCK, out
        )
        resamples += drawn
    return dist, resamples


def run_studies(
    jobs: Sequence[tuple[StudyConfig, Sequence[OffsetSpec]]], threads: int = 1
) -> list[list[StudyResult]]:
    """Per job (config, offsets), one study per offset, all on the element
    sets that config draws; every block of every job shares one
    ``parallel_indexed`` call over ``threads`` workers.

    Each result carries its config with that offset and equals its own
    ``run_study``: a block makes the element draw, the Gaussian offsets'
    standard normal and the subset sums once for all its job's offsets, and
    returns only its (offsets, widths) failure counts and resamples.  Every
    job is checked before the first block runs.  The counts are the ones
    that ``_settle``'s fixed-order distances give, whatever BLAS kernel made
    the sums, and are summed per job in block order, so no count depends on
    ``threads``.
    """
    for config, offsets in jobs:
        _check_block_bytes(config, offsets)
    blocks = [  # (job, first sample), jobs in order
        (j, start) for j, (config, _) in enumerate(jobs)
        for start in range(0, config.samples, BLOCK)
    ]

    def run_block(index: int) -> tuple[np.ndarray, int]:
        j, start = blocks[index]
        config, offsets = jobs[j]
        nominal = nominal_sizes(config.scheme, config.n)
        sigmas = config.model.element_sigmas(nominal)
        limits = [(w * config.sigma_k_abs) / 2.0 for w in config.window_widths]
        out = np.empty((len(offsets), min(BLOCK, config.samples - start)))
        realized, centers, drawn = _block_distances(
            config, offsets, nominal, sigmas, start // BLOCK, out
        )
        return _settle(realized, centers, config.k, limits, out)[0], drawn

    failures = [np.zeros((len(offsets), len(config.window_widths)), dtype=np.int64)
                for config, offsets in jobs]
    resamples = [0] * len(jobs)
    for (j, _), (counts, drawn) in zip(blocks, parallel_indexed(len(blocks), run_block, threads)):
        failures[j] += counts
        resamples[j] += drawn
    return [
        [
            StudyResult(
                config=replace(config, offset=offset),
                rows=tuple(
                    WidthResult(width=w, samples=config.samples, failures=int(f))
                    for w, f in zip(config.window_widths, counts)
                ),
                resamples=drawn,
            )
            for offset, counts in zip(offsets, job_failures)
        ]
        for (config, offsets), job_failures, drawn in zip(jobs, failures, resamples)
    ]


def run_study(config: StudyConfig) -> StudyResult:
    """Failure rate of in-window calibration for every configured window width."""
    return run_studies([(config, (config.offset,))])[0][0]


# ---------------------------------------------------------------------------
# derived summaries
# ---------------------------------------------------------------------------


def r_cal(sigma_t: float, width: float) -> float:
    """Calibration resolution ratio sqrt(1 + sigma_t^2) / (width / sqrt(12)).

    Both arguments in sigma_k units: total error sigma (random mismatch plus a
    Gaussian target offset) over the rms of a uniform residual across the
    window.  Undefined for width 0.
    """
    if width <= 0:
        raise ConfigError(f"r_cal needs width > 0, got {width}")
    if sigma_t < 0:
        raise ConfigError(f"sigma_t must be >= 0, got {sigma_t}")
    return math.sqrt(1.0 + sigma_t * sigma_t) * math.sqrt(12.0) / width


@dataclass(frozen=True)
class FrontierEntry:
    sigma_t: float
    feasible: bool
    best_rcal: Optional[float] = None
    d_eses: Optional[float] = None  # sigma_k units
    width: Optional[float] = None  # sigma_k units


class InfeasibleStudyError(RuntimeError):
    """A study whose outcome is entirely infeasible (no config meets the floor)."""


def rcal_frontier(
    template: StudyConfig,
    sigma_t_list: Sequence[float],
    d_candidates: Sequence[float],
    width_grid: Sequence[float],
    yield_floor: float = 0.99,
    threads: int = 1,
) -> list[FrontierEntry]:
    """Best achievable r_cal versus offset spread, searching step and width.

    For each sigma_t, every candidate step d (sigma_k units, 0 = uniform sizing)
    is run once over the whole width grid; a (d, width) pair is feasible when
    its success rate is at least ``yield_floor``.  The winning pair maximizes
    r_cal — i.e. the smallest feasible width wins.  Entries with no feasible
    pair are marked infeasible rather than raising.  Every step's study is
    checked before the first runs, and all share one ``run_studies`` call.
    """
    if not (0.0 < yield_floor <= 1.0):
        raise ConfigError(f"yield_floor must be in (0, 1], got {yield_floor}")
    widths = tuple(sorted(set(float(w) for w in width_grid)))
    if any(w <= 0 for w in widths):
        raise ConfigError("frontier width grid must be strictly positive")
    center = template.scheme.mean
    sk = template.sigma_k_abs
    max_fail = 1.0 - yield_floor
    offsets = [GaussianOffset(float(st)) for st in sigma_t_list]
    jobs = [  # one shared study per d serves every sigma_t
        (replace(template, scheme=Arithmetic(center, float(d) * sk), window_widths=widths),
         offsets)
        for d in d_candidates
    ]
    # per sigma_t: (rcal, d, width), the d candidates taken in order
    best: list[Optional[tuple[float, float, float]]] = [None] * len(offsets)
    for d, results in zip(d_candidates, run_studies(jobs, threads)):
        for i, result in enumerate(results):
            st = result.config.offset.sigma_t
            for row in result.rows:  # widths ascend; first feasible is best
                if row.failure_rate <= max_fail:
                    rc = r_cal(st, row.width)
                    if best[i] is None or rc > best[i][0]:
                        best[i] = (rc, float(d), row.width)
                    break
    return [
        FrontierEntry(o.sigma_t, False) if b is None else FrontierEntry(o.sigma_t, True, *b)
        for o, b in zip(offsets, best)
    ]


def a_eses_sweep(
    a_values: Sequence[float],
    step_abs: float,
    widths: Sequence[float],
    offset: OffsetSpec,
    *,
    n: int,
    k: int,
    center_sigma: float,
    samples: int,
    master_seed: int,
    threads: int = 1,
) -> list[tuple[float, StudyResult]]:
    """Shrink the center size while holding the absolute step and center sigma.

    Each center size a gets its own mismatch model referenced at a, so the
    center element keeps the same absolute sigma while its *relative* sigma
    grows as a shrinks; the fixed absolute step then covers ever more sigma_k.
    Window widths stay in sigma_k units (the same absolute widths, since
    sigma_k is common to the whole sweep).  The center sizes share one
    ``run_studies`` call.
    """
    configs = [  # every center size is checked before the first study runs
        StudyConfig(
            n=n,
            k=k,
            scheme=Arithmetic(float(a), step_abs),
            model=MismatchModel(sigma_ref=center_sigma, size_ref=float(a)),
            window_widths=tuple(widths),
            offset=offset,
            samples=samples,
            master_seed=master_seed,
        )
        for a in a_values
    ]
    results = run_studies([(cfg, (offset,)) for cfg in configs], threads)
    return [(float(a), result) for a, (result,) in zip(a_values, results)]


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

STUDY_CSV_COLUMNS = (
    "method",
    "d_eses",
    "a_eses",
    "offset_kind",
    "sigma_T",
    "width_over_sigmak",
    "samples",
    "failures",
    "failure_rate",
    "stderr",
)


def study_csv_rows(result: StudyResult) -> list[tuple]:
    """Flatten one study into CSV rows (one per width).

    ``method`` is "eses" for graded sizing (a nonzero step), else "ses";
    ``d_eses`` is the step in sigma_k units; ``sigma_T`` carries the offset
    parameter (the fixed value or the Gaussian sigma, per ``offset_kind``).
    """
    cfg = result.config
    scheme = cfg.scheme
    sk = cfg.sigma_k_abs
    if scheme.step != 0.0:
        method, d_sigmak = "eses", scheme.step / sk
    else:
        method, d_sigmak = "ses", 0.0
    if isinstance(cfg.offset, GaussianOffset):
        kind, par = "gaussian", cfg.offset.sigma_t
    else:
        kind, par = "fixed", cfg.offset.value
    return [
        (
            method,
            d_sigmak,
            scheme.mean,
            kind,
            par,
            row.width,
            row.samples,
            row.failures,
            row.failure_rate,
            row.stderr,
        )
        for row in result.rows
    ]
