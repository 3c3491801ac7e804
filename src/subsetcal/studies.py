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
the offsets that ``run_studies`` serves from one draw: a block's subset sums
come from one matrix product, which every offset then reduces to its nearest
sum.  Measured on a 2-core Xeon for a 2048-row C(12, 6) block, the product
takes about 1 ms, and one Gaussian offset's subtract, abs and row min about
2.5 ms over row chunks of about 256 KB that stay in cache.  Sorting every
row in place takes about 8 ms, after which a bisection finds each offset's
nearest sum in about 0.3 ms.  So a block that serves ``_SORTED_OFFSETS``
offsets or more sorts its sums once and bisects; a block with fewer keeps
the chunked passes.  Both give the same bits.  Blocks run one after
another: the product runs on OpenBLAS's own threads, and a thread pool on
top of it measured slower and doubled the peak memory.
"""

from __future__ import annotations

import math
# unused here since blocks run in sequence; kept because perfbench/tracing.py
# replaces studies.ThreadPoolExecutor when it traces
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
    Explicit,
    MismatchModel,
    SizingScheme,
    Uniform,
    check_array_bytes,
    check_nk,
    draw_realized,
    membership_matrix,
    nominal_sizes,
    scheme_center,
    sigma_k,
)
from .runner import sample_substream

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
    scheme: SizingScheme
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
        # room for three (rows, C(n,k)) float64 arrays; a block holds one (its
        # subset sums) and a (rows,) center and distance row per offset.  A
        # block with fewer than _SORTED_OFFSETS offsets adds one chunk-sized
        # scratch array.  A block with more sorts its sums in place and holds
        # about 80 bytes per (row, offset) in all, with the bisection's index
        # and probe arrays (tracemalloc, 9 offsets on 4096 rows of C(12, 6)
        # peak at 1.13 times the sums).  So for up to about C(n,k) / 5
        # offsets the bound is conservative on either path
        rows = min(self.samples, BLOCK)
        need = 3 * 8 * rows * math.comb(self.n, self.k)
        if need > MAX_ARRAY_BYTES:
            raise ConfigError(
                f"n={self.n}, k={self.k} needs {need} bytes per block of {rows}"
                f" samples, above the {MAX_ARRAY_BYTES}-byte limit"
            )
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


# rows of subset sums per reduction chunk of the per-offset passes: about
# 256 KB, so a chunk stays in L2 while every offset subtracts, takes abs and
# takes the row min over it
_CHUNK_BYTES = 2**18

# offsets from which a block sorts its subset sums and bisects instead of
# running one chunked pass per offset.  Sorting the rows costs about three
# Gaussian offsets' passes, or six fixed ones' (a fixed offset subtracts a
# broadcast scalar, about twice as fast).  At 5 no configs/ study slows; a
# block of five fixed offsets alone takes about 15 % longer than its passes.
_SORTED_OFFSETS = 5


def _block_distances(
    config: StudyConfig,
    offsets: Sequence[OffsetSpec],
    nominal: np.ndarray,
    sigmas: np.ndarray,
    block: int,
    out: np.ndarray,
) -> int:
    """Min |subset sum - target center| for one block of samples and each of
    ``offsets``, absolute units, written into ``out`` (offsets, rows); returns
    the resamples.  The element draw and the subset sums are shared by every
    offset.

    With fewer than ``_SORTED_OFFSETS`` offsets, each offset runs one
    subtract, abs and row-min pass over cache-sized row chunks.  With more,
    the sums are sorted row by row in place and ``_sorted_distances`` reads
    each offset's two neighbouring sums.  Either way every distance is
    bit-equal to one subtract, abs and min pass over the whole block.
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
    # The product's bits depend on its row count and on the OpenBLAS kernel
    # (the same rows differ between a 63-row and a 4096-row product), so it
    # runs once over the whole block; only the passes below run in chunks or
    # on sorted rows.  A change that re-chunks the product must show that no
    # threshold count moves.
    sums = realized @ membership_matrix(config.n, config.k)
    if len(offsets) >= _SORTED_OFFSETS:
        _sorted_distances(sums, np.hstack(centers), out)
        return resamples
    step = max(1, _CHUNK_BYTES // (8 * sums.shape[1]))
    scratch = np.empty((min(step, size), sums.shape[1]))
    for lo in range(0, size, step):
        chunk = sums[lo : lo + step]
        work = scratch[: len(chunk)]
        for center, dist in zip(centers, out):
            np.subtract(chunk, center[lo : lo + step], out=work)
            np.abs(work, out=work)
            work.min(axis=1, out=dist[lo : lo + step])
    return resamples


def _sorted_distances(sums: np.ndarray, centers: np.ndarray, out: np.ndarray) -> None:
    """Sort each row of ``sums`` in place and write into ``out`` (offsets,
    rows) each row's least |sum - center| for the (rows, offsets)
    ``centers``.

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
    sums.sort(axis=1)
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


def min_distances(config: StudyConfig) -> tuple[np.ndarray, int]:
    """Per-sample distance from the best subset sum to the target, absolute units.

    Returns (distances, resample_count).  Every window width of the study is a
    simple threshold query against this one array, so all widths are evaluated
    on the same sample population by construction.
    """
    nominal = nominal_sizes(config.scheme, config.n)
    sigmas = config.model.element_sigmas(nominal)
    dist = np.empty(config.samples)
    resamples = 0
    for start in range(0, config.samples, BLOCK):  # each block fills its slice
        out = dist[None, start : start + BLOCK]
        resamples += _block_distances(
            config, (config.offset,), nominal, sigmas, start // BLOCK, out
        )
    return dist, resamples


def run_studies(config: StudyConfig, offsets: Sequence[OffsetSpec]) -> list[StudyResult]:
    """One study per offset, all on the element sets ``config`` draws.

    Each result carries ``config`` with that offset and equals its own
    ``run_study``: the element draw, the Gaussian offsets' standard normal and
    the subset sums are made once per block and shared, and each block's
    failures are counted before the next block reuses the distance buffer.
    """
    nominal = nominal_sizes(config.scheme, config.n)
    sigmas = config.model.element_sigmas(nominal)
    sk = config.sigma_k_abs
    limits = [(w * sk) / 2.0 for w in config.window_widths]
    failures = np.zeros((len(offsets), len(limits)), dtype=np.int64)
    dist = np.empty((len(offsets), min(config.samples, BLOCK)))
    resamples = 0
    for start in range(0, config.samples, BLOCK):
        out = dist[:, : min(BLOCK, config.samples - start)]
        resamples += _block_distances(config, offsets, nominal, sigmas, start // BLOCK, out)
        for j, limit in enumerate(limits):
            failures[:, j] += np.count_nonzero(out > limit, axis=1)
    return [
        StudyResult(
            config=replace(config, offset=offset),
            rows=tuple(
                WidthResult(width=w, samples=config.samples, failures=int(f))
                for w, f in zip(config.window_widths, counts)
            ),
            resamples=resamples,
        )
        for offset, counts in zip(offsets, failures)
    ]


def run_study(config: StudyConfig) -> StudyResult:
    """Failure rate of in-window calibration for every configured window width."""
    return run_studies(config, (config.offset,))[0]


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
) -> list[FrontierEntry]:
    """Best achievable r_cal versus offset spread, searching step and width.

    For each sigma_t, every candidate step d (sigma_k units, 0 = uniform sizing)
    is run once over the whole width grid; a (d, width) pair is feasible when
    its success rate is at least ``yield_floor``.  The winning pair maximizes
    r_cal — i.e. the smallest feasible width wins.  Entries with no feasible
    pair are marked infeasible rather than raising.
    """
    if not (0.0 < yield_floor <= 1.0):
        raise ConfigError(f"yield_floor must be in (0, 1], got {yield_floor}")
    widths = tuple(sorted(set(float(w) for w in width_grid)))
    if any(w <= 0 for w in widths):
        raise ConfigError("frontier width grid must be strictly positive")
    if isinstance(template.scheme, Explicit):
        raise ConfigError("frontier template needs a Uniform or Arithmetic scheme")
    center = scheme_center(template.scheme)
    sk = template.sigma_k_abs
    max_fail = 1.0 - yield_floor
    offsets = [GaussianOffset(float(st)) for st in sigma_t_list]
    # per sigma_t: (rcal, d, width), the d candidates taken in order
    best: list[Optional[tuple[float, float, float]]] = [None] * len(offsets)
    for d in d_candidates:  # one shared study per d serves every sigma_t
        scheme = Arithmetic(center, float(d) * sk) if d else Uniform(center)
        cfg = replace(template, scheme=scheme, window_widths=widths)
        for i, result in enumerate(run_studies(cfg, offsets)):
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
) -> list[tuple[float, StudyResult]]:
    """Shrink the center size while holding the absolute step and center sigma.

    Each center size a gets its own mismatch model referenced at a, so the
    center element keeps the same absolute sigma while its *relative* sigma
    grows as a shrinks; the fixed absolute step then covers ever more sigma_k.
    Window widths stay in sigma_k units (the same absolute widths, since
    sigma_k is common to the whole sweep).
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
    return [(float(a), run_study(cfg)) for a, cfg in zip(a_values, configs)]


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

    ``method`` is "eses" for arithmetic sizing with a nonzero step, else "ses";
    ``d_eses`` is the step in sigma_k units; ``sigma_T`` carries the offset
    parameter (the fixed value or the Gaussian sigma, per ``offset_kind``).
    """
    cfg = result.config
    scheme = cfg.scheme
    sk = cfg.sigma_k_abs
    if isinstance(scheme, Arithmetic) and scheme.step != 0.0:
        method, d_sigmak, a = "eses", scheme.step / sk, scheme.mean
    elif isinstance(scheme, Arithmetic):
        method, d_sigmak, a = "ses", 0.0, scheme.mean
    elif isinstance(scheme, Uniform):
        method, d_sigmak, a = "ses", 0.0, scheme.width
    else:
        method, d_sigmak, a = "explicit", 0.0, float(np.mean(scheme.sizes))
    if isinstance(cfg.offset, GaussianOffset):
        kind, par = "gaussian", cfg.offset.sigma_t
    else:
        kind, par = "fixed", cfg.offset.value
    return [
        (
            method,
            d_sigmak,
            a,
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
