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
block b draws from ``SeedSequence(master_seed, spawn_key=(b,))``, and all widths
of one study are evaluated on one population.  Blocks run one after another:
the subset-sum product that dominates a block already runs on OpenBLAS's own
threads, and a thread pool on top of it measured slower and doubled the peak
memory.
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
    MAX_ARRAY_BYTES,
    Arithmetic,
    ConfigError,
    Explicit,
    MismatchModel,
    SizingScheme,
    Uniform,
    draw_realized,
    membership_matrix,
    nominal_sizes,
    scheme_center,
    sigma_k,
)

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
        if not self.window_widths:
            raise ConfigError("window_widths must not be empty")
        if any(w < 0 for w in self.window_widths):
            raise ConfigError("window widths must be >= 0")
        if 1 <= self.k <= self.n:
            # room for three (rows, C(n,k)) float64 arrays; the block's subset
            # sums are offset and made absolute in place, so the bound is
            # conservative (one such array is live at a time)
            rows = min(self.samples, BLOCK)
            need = 3 * 8 * rows * math.comb(self.n, self.k)
            if need > MAX_ARRAY_BYTES:
                raise ConfigError(
                    f"n={self.n}, k={self.k} needs {need} bytes per block of {rows}"
                    f" samples, above the {MAX_ARRAY_BYTES}-byte limit"
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


def _block_distances(
    config: StudyConfig,
    nominal: np.ndarray,
    sigmas: np.ndarray,
    block: int,
    size: int,
) -> tuple[np.ndarray, int]:
    """Min |subset sum - target center| for one block of samples, absolute units."""
    ss = np.random.SeedSequence(entropy=config.master_seed, spawn_key=(block,))
    rng = np.random.default_rng(ss)
    nom = np.broadcast_to(nominal, (size, config.n))
    realized, resamples = draw_realized(nom, sigmas, rng)
    # offsets are drawn after the element block, in sigma_k units -> absolute
    sk = config.sigma_k_abs
    if isinstance(config.offset, GaussianOffset):
        t_abs = rng.standard_normal(size) * (config.offset.sigma_t * sk)
    else:
        t_abs = np.full(size, config.offset.value * sk)
    center = config.k * nominal.mean() + t_abs  # nominal k-subset sum + offset
    sums = realized @ membership_matrix(config.n, config.k)
    sums -= center[:, None]
    np.abs(sums, out=sums)
    dist = sums.min(axis=1)
    return dist, resamples


def min_distances(config: StudyConfig) -> tuple[np.ndarray, int]:
    """Per-sample distance from the best subset sum to the target, absolute units.

    Returns (distances, resample_count).  Every window width of the study is a
    simple threshold query against this one array, so all widths are evaluated
    on the same sample population by construction.
    """
    nominal = nominal_sizes(config.scheme, config.n)
    sigmas = config.model.element_sigmas(nominal)
    n_blocks = -(-config.samples // BLOCK)
    parts = [
        _block_distances(config, nominal, sigmas, b, min(BLOCK, config.samples - b * BLOCK))
        for b in range(n_blocks)
    ]
    dist = np.concatenate([p[0] for p in parts])
    resamples = sum(p[1] for p in parts)
    return dist, resamples


def run_study(config: StudyConfig) -> StudyResult:
    """Failure rate of in-window calibration for every configured window width."""
    dist, resamples = min_distances(config)
    sk = config.sigma_k_abs
    rows = []
    for w in config.window_widths:
        failures = int(np.count_nonzero(dist > (w * sk) / 2.0))
        rows.append(WidthResult(width=w, samples=config.samples, failures=failures))
    return StudyResult(config=config, rows=tuple(rows), resamples=resamples)


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
    out = []
    for st in sigma_t_list:
        best: Optional[tuple[float, float, float]] = None  # (rcal, d, width)
        for d in d_candidates:
            scheme = Arithmetic(center, float(d) * sk) if d else Uniform(center)
            cfg = replace(
                template,
                scheme=scheme,
                offset=GaussianOffset(float(st)),
                window_widths=widths,
            )
            result = run_study(cfg)
            for row in result.rows:  # widths ascend; first feasible is best
                if row.failure_rate <= max_fail:
                    rc = r_cal(float(st), row.width)
                    if best is None or rc > best[0]:
                        best = (rc, float(d), row.width)
                    break
        if best is None:
            out.append(FrontierEntry(sigma_t=float(st), feasible=False))
        else:
            out.append(
                FrontierEntry(
                    sigma_t=float(st),
                    feasible=True,
                    best_rcal=best[0],
                    d_eses=best[1],
                    width=best[2],
                )
            )
    return out


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
    out = []
    for a in a_values:
        cfg = StudyConfig(
            n=n,
            k=k,
            scheme=Arithmetic(float(a), step_abs),
            model=MismatchModel(sigma_ref=center_sigma, size_ref=float(a)),
            window_widths=tuple(widths),
            offset=offset,
            samples=samples,
            master_seed=master_seed,
        )
        out.append((float(a), run_study(cfg)))
    return out


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
