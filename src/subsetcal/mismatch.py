"""Element sets with size-dependent random mismatch, and subset-selection search.

The building block used everywhere else in this package: an array of n nominally
sized unit elements (transistor widths, unit currents, ...) of which exactly k are
switched on at a time.  Redundancy comes from the C(n, k) possible selections; a
calibration step picks the selection whose realized sum lands closest to a target
value.

Nominal sizes follow one scheme, ``Arithmetic(mean, step)``: step 0 is equal
sizing (statistical element selection, SES), a nonzero step grades the elements
(extended SES, ESES), and ``mean`` is the size whose element sigma references
sigma_k.

Element sets are (..., n) arrays of realized sizes and a selection is a row index
into ``combination_index_matrix(n, k)``; every module reads selections, and the
timing networks' inverse-width delay law, through this one.

Sizes are strictly positive throughout.  Element standard deviation follows the
usual area scaling law: sigma_i = sigma_ref * sqrt(nominal_i / size_ref).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations as _lex_combinations
from typing import Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "DegenerateConfigurationError",
    "MAX_ARRAY_BYTES",
    "check_array_bytes",
    "DRAW_REACH",
    "MAX_DRAW_SUM",
    "Arithmetic",
    "MismatchModel",
    "nominal_sizes",
    "draw_realized",
    "sigma_k",
    "combination_index_matrix",
    "membership_matrix",
    "all_subset_sums",
    "selected_sums",
    "find_best",
    "balanced_row",
    "BASE_DELAY",
    "COVERAGE_SIGMA",
    "RANGE_MARGIN",
    "inverse_width_step",
    "timing_network",
    "inverse_width_deviation",
    "subset_deviations",
]


class ConfigError(ValueError):
    """Raised for invalid configuration values (bad sizes, bad counts, ...)."""


class DegenerateConfigurationError(ValueError):
    """Raised when a sampled state cannot be analyzed (zero carrier, flat curve)."""


#: most memory one study block or one converter's array may take
MAX_ARRAY_BYTES = 1 << 30


# A normal draw from numpy's Generator lies within 14 sigma of its mean (the
# ziggurat's tail ends near 3.65 + 36.7 / 3.65); bounds on drawn sums take
# every element DRAW_REACH sigma out.  MAX_DRAW_SUM leaves a factor 64 for
# graded nominals, differences taken from the sums and the bound's rounding.
DRAW_REACH = 16.0
MAX_DRAW_SUM = sys.float_info.max / 64


def check_array_bytes(what: str, shape: tuple[int, ...], item_bytes: int = 8) -> None:
    """Reject ``shape`` items of ``item_bytes`` each (a float64 array by
    default) above ``MAX_ARRAY_BYTES`` before they exist."""
    need = item_bytes * math.prod(shape)
    if need > MAX_ARRAY_BYTES:
        if need.bit_length() > 64:  # may be too long to print: give its power of two
            raise ConfigError(
                f"{what} needs at least 2**{need.bit_length() - 1} bytes,"
                f" above the {MAX_ARRAY_BYTES}-byte limit"
            )
        raise ConfigError(
            f"{what} {shape} needs {need} bytes, above the {MAX_ARRAY_BYTES}-byte limit"
        )


# ---------------------------------------------------------------------------
# nominal sizing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arithmetic:
    """Nominal sizes form an arithmetic sequence centered on ``mean``.

    Element i (0-based) has nominal size  mean + (i - (n-1)/2) * step.
    ``step == 0`` is equal sizing (the SES design); a nonzero step grades the
    elements (ESES) and widens the reachable range of subset sums.  ``mean``
    is the size whose element sigma defines sigma_k.
    """

    mean: float
    step: float


def nominal_sizes(scheme: Arithmetic, n: int) -> np.ndarray:
    """Nominal size of each of the n elements, validated strictly positive.

    Raises ConfigError naming the first offending element index if any nominal
    size comes out <= 0 (e.g. a step so large the low end goes negative).
    """
    if n < 1:
        raise ConfigError(f"element count must be >= 1, got {n}")
    offsets = np.arange(n, dtype=float) - (n - 1) / 2.0
    sizes = float(scheme.mean) + offsets * float(scheme.step)
    bad = np.nonzero(sizes <= 0.0)[0]
    if bad.size:
        raise ConfigError(
            f"nominal size of element {bad[0]} is {float(sizes[bad[0]])!r}; "
            "all nominal sizes must be strictly positive"
        )
    return sizes


# ---------------------------------------------------------------------------
# mismatch model and element draws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MismatchModel:
    """Random mismatch law: sigma(size) = sigma_ref * sqrt(size / size_ref)."""

    sigma_ref: float
    size_ref: float

    def __post_init__(self) -> None:
        if self.sigma_ref < 0:
            raise ConfigError(f"sigma_ref must be >= 0, got {self.sigma_ref}")
        if self.size_ref <= 0:
            raise ConfigError(f"size_ref must be > 0, got {self.size_ref}")

    def element_sigmas(self, nominal: np.ndarray) -> np.ndarray:
        return self.sigma_ref * np.sqrt(np.asarray(nominal) / self.size_ref)


def draw_realized(
    nominal: np.ndarray, sigmas: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Draw realized = nominal + sigma * z elementwise, redrawing non-positive values.

    Works on arrays of any shape (nominal/sigmas broadcast against the draw
    shape).  Returns (realized, number_of_redraws).  The redraw loop touches only
    the offending entries, so the stream consumption — and therefore every other
    element's value — is independent of whether a redraw happened elsewhere.
    """
    nominal = np.asarray(nominal, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    realized = nominal + sigmas * rng.standard_normal(nominal.shape)
    resamples = 0
    while True:
        bad = np.nonzero(realized <= 0.0)
        count = bad[0].size
        if count == 0:
            break
        resamples += count
        nom_bad = np.broadcast_to(nominal, realized.shape)[bad]
        sig_bad = np.broadcast_to(sigmas, realized.shape)[bad]
        realized[bad] = nom_bad + sig_bad * rng.standard_normal(count)
    return realized, resamples


@lru_cache(maxsize=None)
def _set_columns(layout: tuple[tuple[int, bool], ...]) -> np.ndarray:
    """Which of a unit's columns ``layout`` puts in element sets."""
    mask = np.repeat([is_set for _, is_set in layout], [w for w, _ in layout])
    mask.setflags(write=False)
    return mask


def _draw_units(
    nominal: np.ndarray,
    sigmas: np.ndarray,
    layout: Sequence[tuple[int, bool]],
    rng: np.random.Generator,
) -> np.ndarray:
    """Realized ``nominal + sigmas * z`` over (units, columns) arrays.

    The one draw routine of the converters and the receiver.  ``layout``
    splits each unit's columns, in draw order, into runs of (width, is_set):
    an element set, whose sizes must stay > 0, or unconstrained draws such as
    extrinsic errors.  All units take one ``standard_normal`` call.  If a set
    size comes out <= 0, the generator rewinds and draws unit by unit, run by
    run, each set with ``draw_realized`` (which redraws only the offending
    elements): the stream a set-by-set draw consumes.
    """
    state = rng.bit_generator.state
    values = nominal + sigmas * rng.standard_normal(nominal.shape)
    if not (values[:, _set_columns(tuple(layout))] <= 0.0).any():
        return values
    rng.bit_generator.state = state
    stops = np.cumsum([w for w, _ in layout])
    runs = [(slice(stop - w, stop), is_set) for (w, is_set), stop in zip(layout, stops)]
    for u in range(values.shape[0]):
        for run, is_set in runs:
            if is_set:
                values[u, run] = draw_realized(nominal[u, run], sigmas[u, run], rng)[0]
            else:
                z = rng.standard_normal(run.stop - run.start)
                values[u, run] = nominal[u, run] + sigmas[u, run] * z
    return values


def sigma_k(model: MismatchModel, scheme: Arithmetic, k: int) -> float:
    """Standard deviation of a k-element subset sum, sqrt(k) * sigma(center size).

    The selection-independent yardstick used to normalize window widths and
    offsets: every k-subset sums k independent element errors whose sigma is
    (to first order, for small relative steps) the center-size sigma.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return math.sqrt(k) * float(model.element_sigmas(np.array([scheme.mean]))[0])


# ---------------------------------------------------------------------------
# combinations
# ---------------------------------------------------------------------------


def check_nk(n: int, k: int) -> None:
    if not (1 <= k <= n):
        raise ConfigError(f"need 1 <= k <= n, got n={n} k={k}")
    if n > 24:
        # C(24,12) ~ 2.7e6 is the most this exhaustive machinery is meant for.
        raise ConfigError(f"n={n} exceeds the supported exhaustive range (n <= 24)")


@lru_cache(maxsize=None)
def combination_index_matrix(n: int, k: int) -> np.ndarray:
    """(C(n,k), k) int array of all k-subsets of range(n) in lexicographic order."""
    check_nk(n, k)
    count = math.comb(n, k)
    out = np.fromiter(
        (i for combo in _lex_combinations(range(n), k) for i in combo),
        dtype=np.intp,
        count=count * k,
    ).reshape(count, k)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def membership_matrix(n: int, k: int) -> np.ndarray:
    """(n, C(n,k)) 0/1 float matrix; column c is the indicator of combination c.

    Lets a batch of realized vectors compute every subset sum as one matrix
    product: sums = realized @ membership_matrix(n, k).
    """
    idx = combination_index_matrix(n, k)
    out = np.zeros((n, idx.shape[0]))
    out[idx.T, np.arange(idx.shape[0])] = 1.0
    out.setflags(write=False)
    return out


def all_subset_sums(realized: np.ndarray, k: int) -> np.ndarray:
    """Subset sums of every k-combination, in lexicographic combination order.

    ``realized`` may be 1-D (n,) or batched (..., n); the combination axis is
    appended last.
    """
    realized = np.asarray(realized, dtype=float)
    n = realized.shape[-1]
    return realized @ membership_matrix(n, k)


def selected_sums(realized: np.ndarray, selection, k: int) -> np.ndarray:
    """Sum of the selected k-subset of every row of ``realized`` (..., n),
    given one selection row per row of ``realized`` or one for them all.

    The selected elements are gathered C-ordered and summed along the last
    axis, so each row adds as a 1-D ``sum`` of its selection does; a
    reduction down a strided axis would add k >= 8 values in another order.
    """
    n = realized.shape[-1]
    rows = combination_index_matrix(n, k).take(selection, axis=0)
    rows = rows + np.arange(0, realized.size, n).reshape(realized.shape[:-1] + (1,))
    return realized.ravel().take(rows).sum(axis=-1)


@lru_cache(maxsize=None)
def balanced_row(n: int, k: int) -> int:
    """Row in ``combination_index_matrix(n, k)`` of the symmetric k-subset
    pairing element i with its mirror n-1-i.

    For even k: indices {0, 2, ..., k-2} plus their mirrors, e.g. n=12, k=6 ->
    (0, 2, 4, 7, 9, 11).  Its nominal sum equals k * mean exactly for any
    arithmetic sizing, which makes it the natural pre-calibration default.
    """
    check_nk(n, k)
    if k % 2:
        raise ConfigError(f"balanced combination needs even k, got k={k}")
    low = np.arange(0, k, 2)
    high = n - 1 - low
    if low[-1] >= high[-1]:
        raise ConfigError(f"no balanced combination for n={n} k={k}")
    subset = np.concatenate((low, high[::-1]))
    rows = combination_index_matrix(n, k)
    return int(np.flatnonzero((rows == subset).all(axis=1))[0])


# ---------------------------------------------------------------------------
# the inverse-width timing law and the sizing of its networks
# ---------------------------------------------------------------------------

#: delay of a timing network less its drive at the design point, seconds
BASE_DELAY = 50e-12
#: tuning ranges must cover this many sigma of their stage's total spread,
COVERAGE_SIGMA = 6.0
#: and are sized with this margin above it
RANGE_MARGIN = 1.15


def inverse_width_step(drive: float, reach_seconds: float) -> float:
    """Smallest step d so delay = drive * W_nom/W_sel covers +/-reach_seconds.

    The compressive side (W_sel above nominal) is the binding one:
    drive * 3d/(1+3d) >= reach.
    """
    if reach_seconds == 0.0:
        return 0.0
    if reach_seconds >= drive:  # as reach / drive >= 1.0, and a drive of 0 too
        raise ConfigError(
            f"delay tuning range {drive:g}s cannot cover {reach_seconds:g}s"
        )
    x = reach_seconds / drive
    return x / (3.0 * (1.0 - x))


def timing_network(
    intrinsic_sigma: float, width_sigma: float, k: int, spread: float
) -> tuple[float, float]:
    """Drive and step of a k-of-n timing network whose width mismatch
    (relative sigma ``width_sigma`` per element) is worth ``intrinsic_sigma``
    of delay, and whose range covers COVERAGE_SIGMA * RANGE_MARGIN times
    ``spread``, seconds.  The drive is 0.0 when ``intrinsic_sigma`` is, so
    ``width_sigma`` may then be 0."""
    drive = 0.0 if intrinsic_sigma == 0.0 else intrinsic_sigma * math.sqrt(k) / width_sigma
    return drive, inverse_width_step(drive, COVERAGE_SIGMA * RANGE_MARGIN * spread)


def inverse_width_deviation(drive, half, selected, extrinsic):
    """Delay of selectable-width timing networks, ``BASE_DELAY + drive *
    (half / selected) + extrinsic``, less the design point BASE_DELAY +
    drive, seconds; ``half`` is k times the mean nominal width and
    ``selected`` the selected widths' sum.  Raises ConfigError if a delay is
    <= 0.  Scalars or broadcasting arrays."""
    delay = BASE_DELAY + drive * (half / selected) + extrinsic
    if np.any(delay <= 0.0):
        raise ConfigError("inverter delay must stay strictly positive")
    return delay - BASE_DELAY - drive


def subset_deviations(sums: np.ndarray, drive, half, extrinsic) -> np.ndarray:
    """Every subset's inverse-width deviation, ``drive * (half / sums - 1.0)
    + extrinsic``, in place over ``sums`` (temporaries cost more); with drive 0
    each equals the extrinsic error."""
    np.divide(half, sums, out=sums)
    sums -= 1.0
    sums *= drive
    sums += extrinsic
    return sums


# ---------------------------------------------------------------------------
# selection search
# ---------------------------------------------------------------------------


def find_best(realized: np.ndarray, k: int, target) -> np.ndarray:
    """Best-match selections of element sets ``realized`` (..., n): per set,
    the row of ``combination_index_matrix(n, k)`` minimizing |subset sum -
    target|, with ``target`` (...) one value per set or one for them all.

    One ``realized @ membership_matrix(n, k)`` product gives every subset
    sum; the target is subtracted and the absolute value taken in place.
    Ties on the absolute residual resolve to the earliest combination in
    lexicographic order (argmin semantics over the lexicographic enumeration).
    """
    distance = realized @ membership_matrix(realized.shape[-1], k)
    distance -= np.asarray(target)[..., None]
    return np.argmin(np.abs(distance, out=distance), axis=-1)
