"""Behavioral model of a 14-bit segmented current-steering DAC.

The converter splits into 63 thermometer-coded unary current cells (UCCs,
6 MSB bits) and an 8-bit binary LSB bank.  Every UCC carries redundancy in
three places, each calibrated by subset selection:

* amplitude — each UCC is built from n = 12 graded sub-currents of which
  k = 6 are enabled; selection against an on-chip reference current trims
  the cell's static weight;
* clock delay — one selectable-width buffer per cell, with the
  inverse-width delay law the mixer's timing networks share;
* duty cycle — two such buffers per cell (complementary edges); one is
  tuned, the other stays at its balanced selection, and the duty error is
  their delay difference.

A sampled converter holds every cell's elements, widths and selections as
arrays, so calibration and readout act on all cells at once.  On top of the
per-cell model sit the static-linearity analytics (endpoint-fit
INL/DNL), an exhaustive amplitude calibration, a randomized window-search
self-healing controller with backup cells and a top-level bias redraw, the
error-sensing demodulation model (in-phase / quadrature / double-frequency
square-wave readout), and Monte Carlo yield studies over all of it.

Currents are amperes, times are seconds throughout.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .mismatch import (
    BASE_DELAY,
    DRAW_REACH,
    MAX_ARRAY_BYTES,
    MAX_DRAW_SUM,
    Arithmetic,
    ConfigError,
    DegenerateConfigurationError,
    MismatchModel,
    _draw_units,
    _shifted_membership,
    balanced_row,
    check_array_bytes,
    combination_index_matrix,
    find_best,
    inverse_width_deviation,
    membership_matrix,
    nominal_sizes,
    selected_sums,
    subset_deviations,
    timing_network,
)
from .runner import parallel_indexed, sample_substream

__all__ = [
    "DEFAULT_SUB_SCHEME",
    "DacConfig",
    "DacSample",
    "sample_dac",
    "ucc_currents",
    "transfer_curve",
    "LinearityReport",
    "LinearityMaxima",
    "linearity",
    "linearity_from_curve",
    "calibrate_amplitude_eses",
    "uniform_comparison_config",
    "delay_errors",
    "duty_errors",
    "calibrate_timing",
    "SelfHealConfig",
    "SelfHealSample",
    "sample_selfheal",
    "SelfHealResult",
    "self_heal_ses",
    "healed_linearity",
    "SensingConfig",
    "SENSE_MODES",
    "sense_readings",
    "YieldResult",
    "YIELD_FLOWS",
    "yield_study",
]

# Timing-network sizing shared by the delay and duty buffers.  The selectable
# widths carry a fixed fraction of each stage's variance budget; the rest is
# an extrinsic Gaussian term the selection must cancel, so tuning ranges are
# sized to cover the stage's *total* spread with margin (``timing_network``).
_TIMING_REL_SIGMA = 0.01
_TIMING_INTRINSIC_FRACTION = 0.25

# A timing deviation is at most twice its buffer's delay, a duty error four
# times and its offset from the mean eight; squared, at most 2**6 times the
# squared delay.  Below this bound, sums of 2**74 such squares stay finite.
_MAX_TIMING_REACH = math.sqrt(sys.float_info.max) / 2**40

# Default graded sub-current nominals: mean 52 uA, common difference 0.76 uA.
DEFAULT_SUB_SCHEME = Arithmetic(52e-6, 0.76e-6)


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class _LsbBank:
    """The segmentation both converter configs share: 2**msb_bits - 1 unary
    cells and an LSB bank of unit current sources (bit b = 2**b units) whose
    per-unit sigma is the cell's unit-equivalent sigma divided by
    ``lsb_sigma_factor``, modeling deliberately upsized LSB devices.
    Subclasses provide ``ucc_nominal`` and ``ucc_sigma``.
    """

    msb_bits: int = 6
    lsb_bits: int = 8
    lsb_sigma_factor: float = 8.0

    def _check_lsb_bank(self) -> None:
        if self.msb_bits < 1 or self.lsb_bits < 1:
            raise ConfigError("msb_bits and lsb_bits must each be >= 1")
        for name, bits in (("msb_bits", self.msb_bits), ("lsb_bits", self.lsb_bits)):
            # from this width on 2**bits - 1 items pass the byte limit at any
            # item size, so the count is rejected before 2**bits is built
            # (at 10**9 bits that integer alone is 125 MB)
            if bits >= MAX_ARRAY_BYTES.bit_length():
                raise ConfigError(
                    f"{name} = {bits} needs arrays of 2**{name} items,"
                    f" above the {MAX_ARRAY_BYTES}-byte limit"
                )
        if self.lsb_sigma_factor <= 0.0:
            raise ConfigError("lsb_sigma_factor must be > 0")
        check_array_bytes("the LSB values", (self.lsb_levels,))

    def _check_derived_sigmas(self, gain: float = 1.0) -> None:
        """Finite inputs can derive an infinite UCC or LSB-unit sigma (a
        1e308 sigma times sqrt(k), a 5e-324 ``lsb_sigma_factor``), which the
        LSB bank's draw cannot sum.  Finite sigmas can still overflow a
        draw's subset and curve sums, so the full-scale current with every
        element ``DRAW_REACH`` sigma above its nominal, times ``gain`` (a
        bound on any factor the currents are scaled by), must stay below
        ``MAX_DRAW_SUM``."""
        for name in ("ucc_sigma", "lsb_unit_sigma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"the derived {name} is {value}, not a finite current")
        cells = self.n_ucc * (self.ucc_nominal + DRAW_REACH * self.k * self.sub_sigma)
        bank = self.lsb_levels * (self.lsb_unit_nominal + DRAW_REACH * self.lsb_unit_sigma)
        reach = (cells + bank) * gain
        if not reach <= MAX_DRAW_SUM:
            raise ConfigError(
                f"a drawn converter's full-scale current could reach {reach:.3g} A,"
                f" above the {MAX_DRAW_SUM:.3g} A its sums are kept below"
            )

    @property
    def n_ucc(self) -> int:
        return 2**self.msb_bits - 1

    @property
    def lsb_levels(self) -> int:
        return 2**self.lsb_bits

    @property
    def lsb_unit_nominal(self) -> float:
        return self.ucc_nominal / self.lsb_levels

    @property
    def lsb_unit_sigma(self) -> float:
        return (self.ucc_sigma / math.sqrt(self.lsb_levels)) / self.lsb_sigma_factor


@dataclass(frozen=True)
class DacConfig(_LsbBank):
    """Geometry and mismatch budgets of the converter.

    ``ucc_sub_scheme`` sets the nominal sizes of the n sub-currents inside
    each UCC; any k of them must nominally sum to ``ucc_nominal`` (the
    scheme's mean times k), because the decode assumes every enabled UCC
    weighs exactly 2**lsb_bits LSB units.
    """

    resolution: int = 14
    ucc_nominal: float = 312e-6
    ucc_sub_scheme: Arithmetic = DEFAULT_SUB_SCHEME
    sub_sigma: float = 1.1e-6
    delay_sigma: float = 1.3e-12
    duty_sigma: float = 1.8e-12
    n: int = 12
    k: int = 6

    def __post_init__(self) -> None:
        self._check_lsb_bank()
        if self.resolution != self.msb_bits + self.lsb_bits:
            raise ConfigError(
                f"resolution {self.resolution} != msb_bits {self.msb_bits}"
                f" + lsb_bits {self.lsb_bits}"
            )
        if self.ucc_nominal <= 0.0:
            raise ConfigError(f"ucc_nominal must be > 0, got {self.ucc_nominal}")
        if self.sub_sigma < 0.0 or self.delay_sigma < 0.0 or self.duty_sigma < 0.0:
            raise ConfigError("sigmas must be >= 0")
        if not 1 <= self.k <= self.n:
            raise ConfigError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        self._check_derived_sigmas()
        check_array_bytes("the cell draw", (self.n_ucc, 4 * self.n + 3))
        check_array_bytes("the timing product", (self.n_ucc, 2, math.comb(self.n, self.k)))
        nominal_sum = self.k * self.ucc_sub_scheme.mean
        if abs(nominal_sum - self.ucc_nominal) > 1e-9 * self.ucc_nominal:
            raise ConfigError(
                f"k-subset nominal sum {nominal_sum:g} A does not match"
                f" ucc_nominal {self.ucc_nominal:g} A"
            )
        # Force the range checks early: either raises here or never.
        self.delay_network
        self.duty_network
        self._check_timing_reach()

    def _check_timing_reach(self) -> None:
        """Buffer delays grow with the timing sigmas, and the timing columns
        square them twice: ``np.std`` over the cells, then the pooled root
        mean square over the samples.  So a buffer's delay with its widths
        and extrinsic error ``DRAW_REACH`` sigma out must stay below
        ``_MAX_TIMING_REACH``: BASE_DELAY + drive * half / S_low plus
        ``DRAW_REACH`` extrinsic sigmas, with S_low the sum of the k lowest
        lowered widths.  A lowered width can be negative (at n = 38, k = 2
        the lowest nominal duty width is 0.0128 and 16 of its sigmas 0.018),
        and a drawn sum near 0 has no bound, so S_low must stay above 0.  It
        does in every geometry the width steps allow for k up to 399; the
        least is 0.0023, at n = 25, k = 1."""
        n, k = self.n, self.k
        design = _cell_design(self)
        nominal = design.nominal[0, n:].reshape(3, n + 1)
        sigmas = design.sigmas[0, n:].reshape(3, n + 1)
        lowered = np.sort(nominal[:, :n] - DRAW_REACH * sigmas[:, :n], axis=1)
        for name, drive, half, low_sum, extrinsic in zip(
            ("delay_sigma", "duty_sigma"), design.drives.tolist(), design.halves.tolist(),
            lowered[:, :k].sum(axis=1).tolist(), sigmas[:, n].tolist(),
        ):
            if not low_sum > 0.0:
                raise ConfigError(
                    f"at n = {n}, k = {k} the {k} lowest timing widths,"
                    f" {DRAW_REACH:g} sigma low, sum to {low_sum:.3g}: a drawn"
                    " buffer's delay has no bound"
                )
            reach = BASE_DELAY + drive * half / low_sum + DRAW_REACH * extrinsic
            if not reach <= _MAX_TIMING_REACH:
                raise ConfigError(
                    f"a drawn buffer's delay could reach {reach:.3g} s at {name} ="
                    f" {getattr(self, name):g} s, above the {_MAX_TIMING_REACH:.3g} s"
                    " its squared sums are kept below"
                )

    @property
    def n_codes(self) -> int:
        return 2**self.resolution

    @property
    def ucc_sigma(self) -> float:
        """Sigma of an uncalibrated k-subset UCC current."""
        return math.sqrt(self.k) * self.sub_sigma

    @property
    def sub_model(self) -> MismatchModel:
        return MismatchModel(self.sub_sigma, self.ucc_sub_scheme.mean)

    # Timing-network sizing --------------------------------------------

    @property
    def delay_network(self) -> tuple[float, float]:
        """Drive and step of every delay buffer."""
        intrinsic = math.sqrt(_TIMING_INTRINSIC_FRACTION) * self.delay_sigma
        return timing_network(intrinsic, _TIMING_REL_SIGMA, self.k, self.delay_sigma)

    @property
    def delay_extrinsic_sigma(self) -> float:
        return math.sqrt(1.0 - _TIMING_INTRINSIC_FRACTION) * self.delay_sigma

    @property
    def duty_network_sigma(self) -> float:
        """Per-buffer delay sigma; the duty error is a two-buffer difference."""
        return self.duty_sigma / math.sqrt(2.0)

    @property
    def duty_network(self) -> tuple[float, float]:
        """Drive and step of every duty buffer.  The tuned buffer must reach
        the *difference* of two buffer errors, so its range covers the full
        duty budget, not just its own spread."""
        intrinsic = math.sqrt(_TIMING_INTRINSIC_FRACTION) * self.duty_network_sigma
        return timing_network(intrinsic, _TIMING_REL_SIGMA, self.k, self.duty_sigma)

    @property
    def duty_extrinsic_sigma(self) -> float:
        return math.sqrt(1.0 - _TIMING_INTRINSIC_FRACTION) * self.duty_network_sigma


# ---------------------------------------------------------------------------
# Sampled converter state


class _CellDesign(NamedTuple):
    """What every cell of a config shares: the nominal sizes and sigmas of one
    cell's draw (amplitude set, then per buffer its widths and extrinsic
    error), broadcast to (n_ucc, 4n + 3), and that draw's layout; per buffer
    the drive and k times the mean nominal width."""

    nominal: np.ndarray
    sigmas: np.ndarray
    layout: tuple[tuple[int, bool], ...]
    drives: np.ndarray
    halves: np.ndarray


@lru_cache(maxsize=16)
def _cell_design(cfg: DacConfig) -> _CellDesign:
    networks = (cfg.delay_network, cfg.duty_network, cfg.duty_network)
    widths = np.stack([nominal_sizes(Arithmetic(1.0, step), cfg.n) for _, step in networks])
    width_sigmas = MismatchModel(_TIMING_REL_SIGMA, 1.0).element_sigmas(widths)
    extrinsic_sigmas = [cfg.delay_extrinsic_sigma] + 2 * [cfg.duty_extrinsic_sigma]
    amplitude = nominal_sizes(cfg.ucc_sub_scheme, cfg.n)
    nominal = [amplitude] + [np.append(w, 0.0) for w in widths]
    sigmas = [cfg.sub_model.element_sigmas(amplitude)]
    sigmas += [np.append(w, s) for w, s in zip(width_sigmas, extrinsic_sigmas)]
    shape = (cfg.n_ucc, 4 * cfg.n + 3)
    arrays = (
        np.broadcast_to(np.concatenate(nominal), shape),
        np.broadcast_to(np.concatenate(sigmas), shape),
        np.array([drive for drive, _ in networks]),
        widths.mean(axis=1) * cfg.k,
    )
    for array in arrays:  # shared by every caller
        array.setflags(write=False)
    layout = ((cfg.n, True),) + 3 * ((cfg.n, True), (1, False))
    return _CellDesign(arrays[0], arrays[1], layout, arrays[2], arrays[3])


@dataclass(frozen=True, eq=False)
class DacSample:
    """One Monte Carlo converter instance, held as per-cell arrays.

    ``amplitude`` (n_ucc, n) holds every cell's realized sub-currents;
    ``widths`` (n_ucc, 3, n) and ``extrinsic`` (n_ucc, 3) the realized widths
    and extrinsic delay errors of its clock-delay, tuned-duty and fixed-duty
    buffers, in that order.  ``amplitude_selection``, ``delay_selection`` and
    ``duty_selection`` (n_ucc,) are the enabled k-subsets of the amplitude
    set, the delay buffer and the tuned-duty buffer, as row indices into
    ``combination_index_matrix(n, k)``; the fixed-duty buffer always keeps
    the balanced combination.  ``deviations`` (n_ucc, 3), derived when the
    sample is built and read-only, holds its ``_selected_deviations``.
    """

    config: DacConfig
    amplitude: np.ndarray
    widths: np.ndarray
    extrinsic: np.ndarray
    amplitude_selection: np.ndarray
    delay_selection: np.ndarray
    duty_selection: np.ndarray
    lsb_bit_currents: tuple[float, ...]
    reference_current: float
    deviations: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        cells, n, bits = self.config.n_ucc, self.config.n, self.config.lsb_bits
        shapes = tuple(np.shape(a) for a in (
            self.amplitude, self.widths, self.extrinsic, self.amplitude_selection,
            self.delay_selection, self.duty_selection, self.lsb_bit_currents,
        ))
        expected = ((cells, n), (cells, 3, n), (cells, 3)) + ((cells,),) * 3 + ((bits,),)
        if shapes != expected:
            raise ConfigError(f"array shapes {shapes} differ from {expected}")
        deviations = _check_cells(
            self.config, self.amplitude, self.widths, self.extrinsic,
            self.delay_selection, self.duty_selection,
        )
        deviations.setflags(write=False)
        object.__setattr__(self, "deviations", deviations)


def _check_cells(cfg: DacConfig, amplitude, widths, extrinsic, delay_selection, duty_selection):
    """``DacSample``'s value checks, on one converter's arrays or on
    converters stacked along leading axes: every realized size > 0, then
    every buffer delay at its selection > 0.  Returns the buffer deviations
    (``_selected_deviations``) that the second check computes."""
    if np.any(amplitude <= 0.0) or np.any(widths <= 0.0):
        raise ConfigError("realized sizes must be strictly positive")
    # raises if a buffer delay is <= 0
    return _selected_deviations(cfg, widths, extrinsic, delay_selection, duty_selection)


def sample_dac(config: DacConfig, rng=None) -> DacSample:
    """Draw one converter instance.

    Draw order is part of the determinism contract: per cell — amplitude
    elements, delay widths, delay extrinsic, tuned-duty widths and extrinsic,
    fixed-duty widths and extrinsic; then the LSB bank (``_draw_lsb_bank``).
    All selections start at the balanced combination.  The cells take one
    ``_draw_units`` call.
    """
    values, bits, reference = _draw_dac(config, np.random.default_rng(rng))
    amplitude, widths, extrinsic = _cell_arrays(values, config.n)
    selection = np.full(config.n_ucc, balanced_row(config.n, config.k))
    selection.setflags(write=False)
    return DacSample(
        config, amplitude, widths, extrinsic, selection, selection, selection, bits, reference
    )


def _draw_dac(
    cfg: DacConfig, rng: np.random.Generator
) -> tuple[np.ndarray, tuple[float, ...], float]:
    """One converter's draw in ``sample_dac``'s order: the (n_ucc, 4n + 3)
    cell values, then the LSB bank's bit currents and reference."""
    return (_draw_cells(cfg, rng), *_draw_lsb_bank(cfg, rng))


def _draw_cells(cfg: DacConfig, rng: np.random.Generator) -> np.ndarray:
    """The (n_ucc, 4n + 3) cell values of one converter, in one
    ``_draw_units`` call; the LSB bank follows them on the stream."""
    design = _cell_design(cfg)
    return _draw_units(design.nominal, design.sigmas, design.layout, rng)


def _cell_arrays(values: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Contiguous amplitude (..., cells, n), widths (..., cells, 3, n) and
    extrinsic (..., cells, 3) from drawn cell values (..., cells, 4n + 3)."""
    buffers = values[..., n:].reshape(values.shape[:-1] + (3, n + 1))
    parts = (values[..., :n], buffers[..., :n], buffers[..., n])
    return tuple(np.ascontiguousarray(part) for part in parts)


def _draw_lsb_bank(
    bank: _LsbBank, rng: np.random.Generator
) -> tuple[tuple[float, ...], float]:
    """Binary bit currents and the reference, from 2**lsb_bits unit draws.

    Bit b sums the next 2**b units; the reference sums the bit currents and
    the last unit.  Sums use ``math.fsum`` (correctly rounded), so
    zero-variance draws give bit currents of exactly 2**b units and a
    reference of exactly 2**lsb_bits units — the nominal UCC current to the
    last bit.
    """
    units = rng.normal(
        bank.lsb_unit_nominal, bank.lsb_unit_sigma, size=bank.lsb_levels
    ).tolist()
    bits = [math.fsum(units[2**b - 1 : 2 ** (b + 1) - 1]) for b in range(bank.lsb_bits)]
    reference = math.fsum(bits + [units[-1]])
    return tuple(bits), reference


def ucc_currents(sample: DacSample) -> np.ndarray:
    """Selected-subset current of every UCC, in cell order."""
    return selected_sums(sample.amplitude, sample.amplitude_selection, sample.config.k)


# ---------------------------------------------------------------------------
# Static transfer curve and linearity


def _lsb_values(lsb_bit_currents) -> np.ndarray:
    """LSB-bank current at every residue code: each code's set bits added to
    0.0 in ascending order.  Bit currents (..., bits) give (..., 2**bits)."""
    bits = np.asarray(lsb_bit_currents, dtype=float)
    values = np.zeros(bits.shape[:-1] + (2 ** bits.shape[-1],))
    for b in range(bits.shape[-1]):
        np.add(values[..., : 2**b], bits[..., b, None], out=values[..., 2**b : 2 ** (b + 1)])
    return values


def _curve_from_levels(
    segment_currents: Sequence[float], lsb_vals: np.ndarray
) -> np.ndarray:
    """Full transfer curve given per-UCC currents and the LSB-bank values."""
    msb_cum = np.concatenate(([0.0], np.cumsum(segment_currents)))
    return (msb_cum[:, None] + lsb_vals[None, :]).ravel()


def transfer_curve(sample: DacSample) -> np.ndarray:
    """Output current at every code, shape (2**resolution,)."""
    return _curve_from_levels(ucc_currents(sample), _lsb_values(sample.lsb_bit_currents))


@dataclass(frozen=True, eq=False)
class LinearityReport:
    """Endpoint-fit static linearity in LSB units."""

    inl: np.ndarray
    dnl: np.ndarray
    inl_max: float
    dnl_max: float


class LinearityMaxima(NamedTuple):
    """The two endpoint-fit maxima a yield row keeps, in LSB units."""

    inl_max: float
    dnl_max: float


def _check_span(span: float) -> None:
    if span <= 0.0:
        raise DegenerateConfigurationError(
            "transfer curve is non-increasing end to end; no LSB unit exists"
        )


def linearity_from_curve(curve: np.ndarray) -> LinearityReport:
    """Endpoint-fit INL/DNL of a transfer curve.

    The LSB unit is the endpoint slope (out[last] - out[0]) / (codes - 1),
    so inl[0] = inl[last] = 0 and the DNL deviations sum to zero by identity.
    dnl[0] is defined as 0 (no step below the first code).
    """
    curve = np.asarray(curve, dtype=float)
    if curve.ndim != 1 or curve.size < 2:
        raise ConfigError("transfer curve must be a 1-D array of >= 2 codes")
    span = curve[-1] - curve[0]
    _check_span(span)
    unit = span / (curve.size - 1)
    inl = (curve - curve[0]) / unit - np.arange(curve.size)
    dnl = np.zeros_like(curve)
    dnl[1:] = np.diff(curve) / unit - 1.0
    return LinearityReport(
        inl=inl,
        dnl=dnl,
        inl_max=float(np.max(np.abs(inl))),
        dnl_max=float(np.max(np.abs(dnl))),
    )


def linearity(sample: DacSample) -> LinearityReport:
    return linearity_from_curve(transfer_curve(sample))


# Half-width, relative to a curve whose levels span about n_codes LSB, of
# the band below the separable bound in which ``_segment_maxima_rows``
# evaluates codes exactly: 2e-9 LSB there, where the bound's rounding error
# stays below 1e-11 LSB.
_CANDIDATE_MARGIN = 2e-9
# More candidate codes than this (ties, a flat curve) read the full curve.
_MAX_CANDIDATES = 8192


def _segment_maxima_rows(
    segment_currents: np.ndarray, lsb_vals: np.ndarray
) -> list[LinearityMaxima]:
    """``linearity_from_curve`` maxima of the curves ``_curve_from_levels``
    builds from (rows, cells) currents and (rows, levels) LSB values, equal
    as floats, without building them.

    Code (m, l) reads msb_cum[m] + lsb_vals[l], so its INL is a[m] + b[l] up
    to rounding, with a = (msb_cum - first) / unit - m * levels and b =
    lsb_vals / unit - l; a DNL step inside a segment is the LSB-bank step,
    the same in every segment up to rounding.  These arrays bound both
    maxima, computed for all rows at once with exact reductions, so each
    row's floats are its own.  Per converter, only the codes within the
    margin of a bound and the segment-boundary steps are evaluated with the
    curve's own expressions (``_segment_candidates``)."""
    rows, levels = lsb_vals.shape
    msb_cum = np.zeros((rows, segment_currents.shape[1] + 1))
    np.cumsum(segment_currents, axis=1, out=msb_cum[:, 1:])
    n_codes = msb_cum.shape[1] * levels
    first = msb_cum[:, 0] + lsb_vals[:, 0]
    span = (msb_cum[:, -1] + lsb_vals[:, -1]) - first
    for value in span.tolist():
        _check_span(value)
    unit = span / (n_codes - 1)
    column = unit[:, None]
    a = (msb_cum - first[:, None]) / column - np.arange(0, n_codes, levels)
    b = lsb_vals / column - np.arange(levels)
    steps = np.abs((lsb_vals[:, 1:] - lsb_vals[:, :-1]) / column - 1.0)
    edges = (msb_cum[:, 1:] + lsb_vals[:, :1]) - (msb_cum[:, :-1] + lsb_vals[:, -1:])
    boundary = np.abs(edges / column - 1.0)
    extremes = (
        first, unit, a.max(axis=1), a.min(axis=1), b.max(axis=1), b.min(axis=1),
        boundary.max(axis=1), steps.max(axis=1),
    )
    return [
        _segment_candidates(msb_cum[r], lsb_vals[r], a[r], b[r], steps[r], values)
        for r, values in enumerate(zip(*(array.tolist() for array in extremes)))
    ]


def _segment_candidates(msb_cum, lsb_vals, a, b, steps, extremes) -> LinearityMaxima:
    """One converter's maxima from ``_segment_maxima_rows``' arrays and their
    ``extremes``: first, unit, the maximum and minimum of a and of b, and
    the largest boundary and inner DNL step.  Evaluates the candidate codes,
    or reads the full curve when ``scale`` is not finite or more than
    ``_MAX_CANDIDATES`` codes are candidates."""
    first, unit, a_max, a_min, b_max, b_min, boundary_max, step_max = extremes
    levels, segments = lsb_vals.size, msb_cum.size
    n_codes = segments * levels
    # every level / unit, first / unit and INL lies within `scale` LSB of 0
    scale = max(a_max, -a_min) + max(b_max, -b_min) + 2 * n_codes + abs(first / unit)
    if not math.isfinite(scale):
        return _curve_maxima(msb_cum, lsb_vals)
    margin = _CANDIDATE_MARGIN * scale / n_codes

    high, low = a_max + b_max, a_min + b_min
    bound = max(high, -low)
    blocks = []  # (segments, levels) whose every pairing is a candidate
    if high >= bound - margin:
        blocks.append((a >= a_max - margin, b >= b_max - margin))
    if -low >= bound - margin:
        blocks.append((a <= a_min + margin, b <= b_min + margin))
    blocks = [(ms.nonzero()[0], ls.nonzero()[0]) for ms, ls in blocks]
    inner = (steps >= max(step_max, boundary_max) - margin).nonzero()[0] + 1

    candidates = sum(ms.size * ls.size for ms, ls in blocks) + segments * inner.size
    if candidates > _MAX_CANDIDATES:
        return _curve_maxima(msb_cum, lsb_vals)
    inl_max = max(
        np.abs(
            ((msb_cum[ms, None] + lsb_vals[ls]) - first) / unit
            - (ms[:, None] * levels + ls)
        ).max()
        for ms, ls in blocks
    )
    dnl_max = boundary_max
    if inner.size:
        column = msb_cum[:, None]
        inner_steps = (column + lsb_vals[inner]) - (column + lsb_vals[inner - 1])
        dnl_max = max(dnl_max, np.abs(inner_steps / unit - 1.0).max())
    return LinearityMaxima(float(inl_max), float(dnl_max))


def _curve_maxima(msb_cum: np.ndarray, lsb_vals: np.ndarray) -> LinearityMaxima:
    report = linearity_from_curve((msb_cum[:, None] + lsb_vals[None, :]).ravel())
    return LinearityMaxima(report.inl_max, report.dnl_max)


# ---------------------------------------------------------------------------
# Amplitude calibration


def calibrate_amplitude_eses(amplitude: np.ndarray, references, k: int) -> np.ndarray:
    """Exhaustive per-UCC subset selection against the reference current:
    for amplitude sets (..., n_ucc, n) and references (...), the (..., n_ucc)
    rows whose k-subset sums land closest to their converter's reference.
    Being a global minimum over a set containing the incumbent, the residual
    never grows.  ``find_best`` runs once per converter: its (n_ucc, C(n, k))
    product stays in cache, and one over several converters' cells measured
    slower or changed the last bits of some sums on some CPU kernels.
    """
    converters = amplitude.reshape((-1,) + amplitude.shape[-2:])
    references = np.broadcast_to(references, amplitude.shape[:-2]).ravel().tolist()
    selections = [find_best(a, k, reference) for a, reference in zip(converters, references)]
    return np.stack(selections).reshape(amplitude.shape[:-1])


def uniform_comparison_config(config: DacConfig) -> DacConfig:
    """Same converter with equal-nominal sub-currents (comparison baseline).

    The step drops to 0 at the scheme's mean, so the mean and the
    mean-referenced sigma match the graded configuration.
    """
    return dataclasses.replace(
        config, ucc_sub_scheme=Arithmetic(config.ucc_sub_scheme.mean, 0.0)
    )


# ---------------------------------------------------------------------------
# Timing calibration


def _selected_deviations(cfg: DacConfig, widths, extrinsic, delay_selection, duty_selection):
    """(..., n_ucc, 3) delay of every timing buffer at its selection relative
    to the nominal design point (base + drive), seconds, for widths (...,
    n_ucc, 3, n), extrinsic errors (..., n_ucc, 3) and selections (n_ucc,)
    or (..., n_ucc); raises ConfigError if a delay is <= 0."""
    design = _cell_design(cfg)
    fixed = np.full(np.shape(delay_selection), balanced_row(cfg.n, cfg.k))
    selection = np.stack([delay_selection, duty_selection, fixed], axis=-1)
    selected = selected_sums(widths, selection, cfg.k)
    return inverse_width_deviation(design.drives, design.halves, selected, extrinsic)


def delay_errors(deviations: np.ndarray) -> np.ndarray:
    """Clock-delay deviation of every UCC, seconds, from the (..., n_ucc, 3)
    buffer deviations."""
    return deviations[..., 0]


def duty_errors(deviations: np.ndarray) -> np.ndarray:
    """Duty-cycle error (tuned minus fixed buffer delay) of every UCC,
    seconds, from the (..., n_ucc, 3) buffer deviations."""
    return deviations[..., 1] - deviations[..., 2]


def calibrate_timing(cfg: DacConfig, widths, extrinsic, deviations, current) -> np.ndarray:
    """Exhaustive timing calibration of every UCC: the (..., n_ucc, 2) delay
    and tuned-duty selections for widths (..., n_ucc, 3, n), extrinsic errors
    and buffer deviations (..., n_ucc, 3) at the ``current`` selections.

    Delay: pick the buffer subset minimizing |delay deviation| (the tunable
    inverse-width term must cancel the extrinsic error).  Duty: the fixed
    buffer keeps its balanced selection; the tuned buffer's subset minimizes
    |tuned deviation - fixed deviation|.  A buffer without drive has no
    tunable term and keeps its selection.  Ties go to the first subset in
    ``combination_index_matrix`` order.  ``_timing_selections`` makes the
    choice once per converter; one call over a block's cells ran slower.
    """
    current = np.broadcast_to(current, deviations.shape[:-1] + (2,))
    arrays = (widths, extrinsic, deviations, current)
    converters = zip(*(a.reshape((-1,) + a.shape[current.ndim - 2 :]) for a in arrays))
    selections = [_timing_selections(cfg, w, e, d[:, 2], c) for w, e, d, c in converters]
    return np.stack(selections).reshape(current.shape)


def _timing_selections(cfg: DacConfig, widths, extrinsic, fixed, current) -> np.ndarray:
    """The (cells, 2) delay and tuned-duty selections ``calibrate_timing``
    picks for widths (cells, 3, n), extrinsic errors (cells, 3) and the fixed
    duty buffer's deviations ``fixed`` (cells,); a buffer without drive keeps
    its ``current`` (cells, 2) selection.

    The calibration's objective over a subset sum S takes five passes,
    fl(fl(fl(fl(half / S) - 1) * drive) + e) - f, with f = 0 for the delay
    buffer.  Each pass is correctly rounded and monotone, so the objective
    does not increase with S.  Its real counterpart is drive * half *
    (1/S - 1/S*), zero at S* = half * drive / (drive - e + f): a sum at
    distance r from S* scores at least drive * half * r / (S* (S* + r)),
    and the nearest sum, at distance m, at most drive * half * m /
    (S* (S* - m)).  The first exceeds the second for r > m + 2 m**2 /
    (S* - 2m).  So one per-cell product gives S - S* for every subset, and
    its nearest subset is the choice when every other one lies outside that
    band plus a rounding allowance of (192 + 22 k) eps S*.

    The allowance is twice the budget below, in eps S*, which holds for
    |e| + |f| <= drive / 2 and m <= S* / 4; the test also asks both.  Then half / S* is
    in [1/2, 3/2], the band ends within 0.6 S* of S*, and half / S <= 3.75
    for the sums there.  Since the objective is monotone, farther sums
    score no better than the band's end.
      - S* itself: a product, two sums that |e| + |f| <= drive / 2 keep to
        a condition of 3, and a division: 3.
      - S - S* from the bracket's product: k + 1 nonzero terms (the zeros
        of the membership add exactly), so gamma_k (S + S*): 1.3 k.
      - S from the five passes' product: gamma_(k-1) S: 0.8 k.
      - The five passes, at most 7.5 eps drive for half / S <= 3.75.  The
        objective's slope is at least drive / (5.12 S*) there, so the two
        sums compared need a band wider by 2 * 5.12 * 7.5: 76.8.
      - The nearest sum's distance is known to within the first three
        terms, 3 + 2.1 k, and the band grows up to 4.1 times as fast as m
        (its slope S***2 / (S* - 2m)**2); the other sum's distance is known
        to the same: 5.1 (3 + 2.1 k) = 15.3 + 10.7 k.
      - The band's own arithmetic, with the computed S*: 3.5.
    In all 95.6 + 10.7 k.  A cell with a buffer that fails the test (a tie,
    equal widths, an error beyond the tuning range) runs the five passes
    over the plain per-cell product ``widths @ membership_matrix``.
    """
    n, k = cfg.n, cfg.k
    design = _cell_design(cfg)
    drive, half = design.drives[:2], design.halves[:2]
    errors = extrinsic[:, :2]
    offsets = np.stack([np.zeros_like(fixed), fixed], axis=1)
    shifted = np.empty((len(widths), 2, n + 1))  # per cell: (2, n + 1) @ (n + 1, C)
    shifted[..., :n] = widths[:, :2]
    # a buffer without drive can make the target NaN or inf; such rows fail the test
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        target = (half * drive) / ((drive - errors) + offsets)
        shifted[..., n] = -target
        distance = shifted @ _shifted_membership(n, k)
        np.abs(distance, out=distance)
        best = np.argmin(distance, axis=2)
        nearest = np.take_along_axis(distance, best[..., None], axis=2)[..., 0]
        np.put_along_axis(distance, best[..., None], np.inf, axis=2)
        band = nearest + 2.0 * nearest**2 / (target - 2.0 * nearest)
        band += (192.0 + 22.0 * k) * np.finfo(float).eps * target
        proven = (np.abs(errors) + np.abs(offsets) <= drive / 2.0) & (nearest <= target / 4.0)
        proven &= distance.min(axis=2) > band
    redo = np.flatnonzero((~proven & (drive > 0.0)).any(axis=1))
    if redo.size:
        five_pass = subset_deviations(
            widths[redo, :2] @ membership_matrix(n, k),
            drive[:, None], half[:, None], extrinsic[redo, :2, None],
        )
        five_pass[:, 1] -= fixed[redo, None]
        exact = np.argmin(np.abs(five_pass, out=five_pass), axis=2)
        best[redo] = np.where(proven[redo], best[redo], exact)
    return np.where(drive == 0.0, current, best)


# ---------------------------------------------------------------------------
# Self-healing controller


@dataclass(frozen=True)
class SelfHealConfig(_LsbBank):
    """Window-search self-healing geometry (16-choose-8 cells).

    ``i_tiny`` is the acceptance-window width above the reference current;
    by default a tenth of the cell sigma.

    The top-level bias is its own arithmetic subset-selection stage: element
    nominals are graded 1 +/- bias_step around unity (with ``bias_rel_sigma``
    relative mismatch on top), and the selected subset's mean rescales every
    cell current.  Redrawing the bias combination therefore dithers the
    common mode over about +/- (n/4)*bias_step — that dither is what lets
    restarts recover samples whose acceptance window falls outside some
    cell's own selection range.  The default step makes one redraw shift
    cell sums by roughly the window width ``i_tiny``: enough to pull a
    stranded window into reach without spoiling cells that already heal.
    """

    n: int = 16
    k: int = 8
    sub_nominal: float = 19.53e-6
    ucc_sigma: float = 0.53e-6
    i_tiny: Optional[float] = None
    cell_trial_limit: int = 200
    toplevel_trial_limit: int = 20
    backup_ucc_count: int = 4
    bias_step: float = 0.0005
    bias_rel_sigma: float = 0.0005

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ConfigError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.sub_nominal <= 0.0:
            raise ConfigError(f"sub_nominal must be > 0, got {self.sub_nominal}")
        if self.ucc_sigma < 0.0 or self.bias_rel_sigma < 0.0:
            raise ConfigError("sigmas must be >= 0")
        if self.bias_step < 0.0 or self.bias_step * (self.n - 1) >= 2.0:
            raise ConfigError(
                f"bias_step must be >= 0 and keep all nominals positive,"
                f" got {self.bias_step}"
            )
        if self.i_tiny is None:
            object.__setattr__(self, "i_tiny", self.ucc_sigma / 10.0)
        if self.i_tiny <= 0.0:
            raise ConfigError(f"i_tiny must be > 0, got {self.i_tiny}")
        if self.cell_trial_limit < 1 or self.toplevel_trial_limit < 1:
            raise ConfigError("trial limits must be >= 1")
        if self.backup_ucc_count < 0:
            raise ConfigError("backup_ucc_count must be >= 0")
        self._check_lsb_bank()
        # the bias scale: a mean of bias elements, each of nominal below 2 and
        # sigma below sqrt(2) * bias_rel_sigma
        self._check_derived_sigmas(2.0 + DRAW_REACH * math.sqrt(2.0) * self.bias_rel_sigma)
        sets = self.n_ucc + self.backup_ucc_count
        check_array_bytes("the element draw", (sets + 1, self.n))
        check_array_bytes("the pair-sum table", (sets, math.comb(self.n, 2) + self.n))
        check_array_bytes("the combination table", (math.comb(self.n, self.k), self.k))
        check_array_bytes("the cell trial draw", (self.n_ucc, self.cell_trial_limit))
        terms, window = self.k - _lead_pairs(self.k), min(_HEAL_WINDOW, self.n_ucc)
        # each term's index and value are held at once
        check_array_bytes("the cell trial gather", (terms, window, self.cell_trial_limit), 16)
        balanced_row(self.n, self.k)  # the first attempt's bias

    @property
    def sub_sigma(self) -> float:
        return self.ucc_sigma / math.sqrt(self.k)

    @property
    def ucc_nominal(self) -> float:
        return self.k * self.sub_nominal


@dataclass(frozen=True, eq=False)
class SelfHealSample:
    """One self-healing converter instance, held as realized-size arrays.

    ``cells`` (n_ucc, n) holds every cell's elements, ``backups``
    (backup_ucc_count, n) the pooled spare cells' and ``bias_elements`` (n,)
    the top-level bias stage's; then the LSB bank and the reference.
    ``lsb_values`` (2**lsb_bits,) is the LSB-bank current at every residue
    code, derived once for the pre- and post-heal linearity readings.
    """

    config: SelfHealConfig
    cells: np.ndarray
    backups: np.ndarray
    bias_elements: np.ndarray
    lsb_bit_currents: tuple[float, ...]
    reference_current: float
    lsb_values: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        cfg = self.config
        shapes = tuple(np.shape(a) for a in (
            self.cells, self.backups, self.bias_elements, self.lsb_bit_currents
        ))
        expected = (
            (cfg.n_ucc, cfg.n), (cfg.backup_ucc_count, cfg.n), (cfg.n,), (cfg.lsb_bits,)
        )
        if shapes != expected:
            raise ConfigError(f"array shapes {shapes} differ from {expected}")
        if any(np.any(a <= 0.0) for a in (self.cells, self.backups, self.bias_elements)):
            raise ConfigError("realized sizes must be strictly positive")
        values = _lsb_values(self.lsb_bit_currents)
        values.setflags(write=False)
        object.__setattr__(self, "lsb_values", values)


@lru_cache(maxsize=16)
def _heal_design(cfg: SelfHealConfig) -> tuple[np.ndarray, np.ndarray]:
    """(n_ucc + backup_ucc_count + 1, n) nominal sizes and sigmas: the cells,
    the backups, then the bias elements."""
    cell = nominal_sizes(Arithmetic(cfg.sub_nominal, 0.0), cfg.n)
    bias = nominal_sizes(Arithmetic(1.0, cfg.bias_step), cfg.n)
    cell_sigmas = MismatchModel(cfg.sub_sigma, cfg.sub_nominal).element_sigmas(cell)
    bias_sigmas = MismatchModel(cfg.bias_rel_sigma, 1.0).element_sigmas(bias)
    sets = cfg.n_ucc + cfg.backup_ucc_count
    nominal = np.vstack([np.broadcast_to(cell, (sets, cfg.n)), bias])
    sigmas = np.vstack([np.broadcast_to(cell_sigmas, (sets, cfg.n)), bias_sigmas])
    for array in (nominal, sigmas):  # shared by every caller
        array.setflags(write=False)
    return nominal, sigmas


def sample_selfheal(config: SelfHealConfig, rng=None) -> SelfHealSample:
    """Draw one self-healing converter instance.

    Draw order: the 63 cells, then the backup cells, then the bias elements
    (one ``_draw_units`` call, one element set per row), then the LSB bank.
    The reference accumulates via ``math.fsum`` so a zero-variance draw lands
    exactly on the nominal cell current (the window's closed lower edge).
    """
    cfg = config
    realized, bits, reference = _draw_heal(cfg, np.random.default_rng(rng))
    return SelfHealSample(
        cfg, realized[: cfg.n_ucc], realized[cfg.n_ucc : -1], realized[-1], bits, reference
    )


def _draw_heal(
    cfg: SelfHealConfig, rng: np.random.Generator
) -> tuple[np.ndarray, tuple[float, ...], float]:
    """One converter's draw in ``sample_selfheal``'s order: the
    (n_ucc + backup_ucc_count + 1, n) element sets, then the LSB bank's bit
    currents and reference."""
    nominal, sigmas = _heal_design(cfg)
    realized = _draw_units(nominal, sigmas, ((cfg.n, True),), rng)
    return (realized, *_draw_lsb_bank(cfg, rng))


class _HealAttempt(NamedTuple):
    """One pass over the cells, as much of it as the trace reports."""

    bias: np.ndarray  # (k,) element indices of the bias combination
    scale: float
    trials: list[int]  # per cell reached, in cell order
    backups_used: dict[int, list[int]]  # spares auditioned, for cells that needed any
    completed: bool


@dataclass(frozen=True, eq=False)
class SelfHealResult:
    """Outcome of one controller run.

    ``bias_selection`` and ``selections`` (n_ucc,) are row indices into
    ``combination_index_matrix(n, k)``.  ``sources[i]`` is the physical
    element set cell i ended up using: its own index, or n_ucc + b for pooled
    backup b.  ``cell_currents`` are the healed (bias-scaled) currents.
    ``restarts`` counts the top-level restarts; ``trace`` is a JSON-ready
    dict recording the full search (per-cell trial counts, backups used and
    every restart), built from ``attempts`` when first read.
    """

    healed: bool
    bias_selection: int
    scale: float
    selections: Optional[np.ndarray]
    sources: Optional[np.ndarray]
    cell_currents: Optional[np.ndarray]
    seed: Optional[int]
    attempts: tuple[_HealAttempt, ...] = dataclasses.field(repr=False)

    @property
    def restarts(self) -> int:
        return len(self.attempts) - 1

    @cached_property
    def trace(self) -> dict:
        attempts = []
        for attempt in self.attempts:
            last = len(attempt.trials) - 1
            cells = [
                {
                    "cell": ci,
                    "trials": trials,
                    "backups_used": list(attempt.backups_used.get(ci, ())),
                    "healed": attempt.completed or ci < last,
                }
                for ci, trials in enumerate(attempt.trials)
            ]
            attempts.append(
                {
                    "bias_selection": attempt.bias.tolist(),
                    "scale": attempt.scale,
                    "cells": cells,
                    "completed": attempt.completed,
                }
            )
        return {
            "seed": self.seed,
            "outcome": "healed" if self.healed else "failed",
            "toplevel_restarts": self.restarts,
            "attempts": attempts,
        }


# Auditions scored together, on the guess that none of them misses.
_HEAL_WINDOW = 16


def _lead_pairs(k: int) -> int:
    """Element pairs that numpy's add-reduce of 2 <= k < 16 terms adds
    first: x0 + x1 alone below 8 terms, else the four pairs of its 8-lane
    block as (p01 + p23) + (p45 + p67); the other terms follow one at a time."""
    return 4 if k >= 8 else 1


def _pair_table(elements: np.ndarray) -> np.ndarray:
    """(sets, C(n,2) + n) table of every element pair's sum x_a + x_b, a < b
    (the rows of ``combination_index_matrix(n, 2)``), then the elements."""
    a, b = combination_index_matrix(elements.shape[1], 2).T
    return np.concatenate([elements[:, a] + elements[:, b], elements], axis=1)


@lru_cache(maxsize=16)
def _pair_plan(n: int, k: int) -> np.ndarray:
    """(terms, C(n,k)) ids into a ``_pair_table`` row of each combination
    row's terms: the sums of its ``_lead_pairs(k)`` leading pairs, then its
    other elements.  SelfHealConfig admits k <= 12 (balanced_row needs even
    k <= n/2 + 1, and n <= 24); from 16 terms numpy adds in another order."""
    rows = combination_index_matrix(n, k)
    pairs = math.comb(n, 2)
    pair_ids = np.zeros((n, n), dtype=np.intp)
    pair_ids[tuple(combination_index_matrix(n, 2).T)] = np.arange(pairs)
    lead = 2 * _lead_pairs(k)
    plan = np.concatenate(
        [pair_ids[rows[:, 0:lead:2], rows[:, 1:lead:2]], pairs + rows[:, lead:]], axis=1
    ).T.copy()
    plan.setflags(write=False)
    return plan


def _first_hits(
    table: np.ndarray,
    offsets: np.ndarray,
    blocks: np.ndarray,
    plan: np.ndarray,
    k: int,
    scale: float,
    window: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Each block's first candidate whose scaled subset sum lands in the
    closed window, or -1, and that candidate's current (any value on a miss).

    Row r of ``blocks`` (rows, limit) draws combination rows for the element
    set whose ``_pair_table`` row starts at ``table[offsets[r]]``.  All
    candidates are scored in one pass: each adds its ``_pair_plan(n, k)``
    terms in numpy's add-reduce order for k terms, then is multiplied by
    ``scale``, so its current is bit for bit ``selected_sums`` of its row
    times ``scale``.
    """
    gather = plan.take(blocks, axis=1)  # (terms, rows, limit)
    gather += offsets[:, None]
    terms = table.take(gather)
    sums, rest = terms[0], terms[1:]
    if _lead_pairs(k) == 4:
        sums, rest = (terms[0] + terms[1]) + (terms[2] + terms[3]), terms[4:]
    for term in rest:
        sums += term
    sums *= scale
    low, high = window
    in_window = (sums >= low) & (sums <= high)
    first = in_window.argmax(axis=1)
    rows = np.arange(len(blocks))
    return np.where(in_window[rows, first], first, -1), sums[rows, first]


def self_heal_ses(sample: SelfHealSample, rng=0) -> SelfHealResult:
    """Randomized window-search self-healing over all cells.

    For each cell, draw up to ``cell_trial_limit`` random k-subsets and accept
    the first whose bias-scaled sum lands in the closed window
    [reference, reference + i_tiny].  A cell that misses auditions the pooled
    backup sets in order, each with a fresh draw budget; a backup is consumed
    only when it heals (the position commits to it) — an audition that also
    misses leaves the spare on the shelf for later cells.  When a cell fails
    its own search and every available spare, the controller redraws the
    top-level bias combination (rescaling every cell sum by
    selected-bias-mean / nominal) and restarts the whole pass with the
    original cells and a restored pool, up to ``toplevel_trial_limit``
    attempts; only then does it report failure.

    The first attempt uses the balanced bias combination; restarts draw
    random ones.  Passing an int seed records it in the trace, making the
    run replayable bit for bit.

    Every audition draws one block of ``cell_trial_limit`` combination rows,
    in audition order.  Blocks are drawn in bulk, one row per cell still to
    heal, since one ``integers`` call of (R, L) draws the same stream as R
    calls of L.  One loop scores the current cell's next audition (its own
    elements, or after m misses spare ``pool[m-1]``) with the next cells'
    own, on the guess that none of them misses, and accepts them up to the
    first miss.  Each pass scores every candidate of its blocks from the
    converter's pair-sum table, built once before the first attempt, with
    sums bit for bit those of the k elements.  An attempt that fails with
    blocks left unread rewinds the generator and draws only the blocks it
    read, so the next bias draw sees the stream of one draw per audition.
    """
    cfg = sample.config
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    gen = np.random.default_rng(rng)
    indices = combination_index_matrix(cfg.n, cfg.k)
    plan = _pair_plan(cfg.n, cfg.k)
    n_combos = indices.shape[0]
    n_cells, limit = cfg.n_ucc, cfg.cell_trial_limit
    window = (sample.reference_current, sample.reference_current + cfg.i_tiny)
    table = _pair_table(np.concatenate([sample.cells, sample.backups]))  # by source
    width = table.shape[1]

    attempts: list[_HealAttempt] = []
    bias = balanced_row(cfg.n, cfg.k)
    for attempt in range(cfg.toplevel_trial_limit):
        if attempt > 0:
            bias = int(gen.integers(0, n_combos))
        scale = float(selected_sums(sample.bias_elements, bias, cfg.k)) / float(cfg.k)
        state = gen.bit_generator.state
        blocks = np.empty((0, limit), dtype=np.int64)  # drawn, read up to `head`
        head = drawn = 0
        pool = list(range(cfg.backup_ucc_count))
        selections = np.empty(n_cells, dtype=np.intp)
        sources = np.arange(n_cells)
        currents = np.empty(n_cells)
        trials: list[int] = []
        backups_used: dict[int, list[int]] = {}
        ci = misses = 0  # misses: auditions cell ci has failed in this attempt
        while ci < n_cells:
            if head == len(blocks):  # each cell left reads one block at least
                blocks, head = gen.integers(0, n_combos, size=(n_cells - ci, limit)), 0
                drawn += len(blocks)
            scored = blocks[head : head + _HEAL_WINDOW]
            offsets = np.arange(ci, ci + len(scored)) * width
            if misses:  # cell ci auditions its next spare
                offsets[0] = (n_cells + pool[misses - 1]) * width
            hits, found = _first_hits(table, offsets, scored, plan, cfg.k, scale, window)
            missed = (hits < 0).nonzero()[0]
            healed = int(missed[0]) if missed.size else len(scored)
            selections[ci : ci + healed] = scored[np.arange(healed), hits[:healed]]
            currents[ci : ci + healed] = found[:healed]
            trials += (hits[:healed] + 1).tolist()
            if healed and misses:  # a spare healed cell ci
                trials[ci] += misses * limit
                backups_used[ci] = pool[:misses]
                sources[ci] = n_cells + pool.pop(misses - 1)
                misses = 0
            head += healed
            ci += healed
            if healed < len(scored):  # cell ci missed: one block spent
                head += 1
                misses += 1
                if misses > len(pool):
                    trials.append(misses * limit)
                    backups_used[ci] = pool
                    break
        completed = ci == n_cells
        attempts.append(
            _HealAttempt(indices[bias], scale, trials, backups_used, completed)
        )
        if completed:
            return SelfHealResult(
                True, bias, scale, selections, sources, currents, seed, tuple(attempts)
            )
        unread = len(blocks) - head
        if unread:
            gen.bit_generator.state = state
            gen.integers(0, n_combos, size=(drawn - unread, limit))
    return SelfHealResult(False, bias, scale, None, None, None, seed, tuple(attempts))


def healed_linearity(samples, results) -> list[LinearityMaxima]:
    """Static linearity maxima of each healed converter of ``samples`` and
    their ``self_heal_ses`` ``results``, all read in one
    ``_segment_maxima_rows`` call; NaN maxima where a run failed."""
    maxima = [LinearityMaxima(math.nan, math.nan)] * len(results)
    healed = [r for r, result in enumerate(results) if result.healed]
    if healed:
        currents = np.stack([results[r].cell_currents for r in healed])
        lsb_vals = np.stack([samples[r].lsb_values for r in healed])
        for r, value in zip(healed, _segment_maxima_rows(currents, lsb_vals)):
            maxima[r] = value
    return maxima


# ---------------------------------------------------------------------------
# Error sensing


SENSE_MODES = ("amplitude", "delay", "duty")


@dataclass(frozen=True)
class SensingConfig:
    """Demodulation settings: toggle frequency and output scale (V per A)."""

    f_meas: float = 400e6
    sensing_gain: float = 1.0

    def __post_init__(self) -> None:
        if self.f_meas <= 0.0:
            raise ConfigError(f"f_meas must be > 0, got {self.f_meas}")


def _levels_after(times: np.ndarray, levels: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Levels of periodic edge lists (..., E) right after each cut (..., C):
    that of the last edge at or before the cut.  Edges at one time must
    carry one level."""
    order = np.argsort(times, axis=-1)
    passed = (np.take_along_axis(times, order, -1)[..., None, :] <= cuts[..., None]).sum(-1)
    last = (passed - 1) % order.shape[-1]  # -1, no edge passed, wraps to the last
    return np.take_along_axis(np.take_along_axis(levels, order, -1), last, -1)


def sense_readings(amplitude, delay, duty, cfg: SensingConfig = SensingConfig()) -> np.ndarray:
    """Readings (..., 3), in ``SENSE_MODES`` order, of cell pairs whose
    amplitude (A), delay and duty (s) have shape (..., 2): a cell, then its
    reference.  A cell is a 0/A square high from f*(delay - duty/2) to 0.5 +
    f*(delay + duty/2) of the period, f = ``cfg.f_meas``.  A reading is the
    gain times the period average of the pair's difference times the mode's
    +/-1 modulation: the in-phase square, the quadrature square (a quarter
    period later) or the square at twice the rate with +1 pulses centered
    on the edges, all at the pair-mean timing, so each mode reads its own
    error while the other two cancel.  A cell times a modulation is constant
    between their sorted edges, and the segments' terms are added left to
    right, so no reading depends on the CPU kernel.
    """
    amplitude, delay, duty = (
        np.asarray(value, dtype=float) for value in np.broadcast_arrays(amplitude, delay, duty)
    )
    bad = amplitude[~(np.isfinite(amplitude) & (amplitude >= 0.0))]
    if bad.size:
        raise ConfigError(f"amplitude must be finite and >= 0, got {bad[0]}")
    if not (np.isfinite(delay).all() and np.isfinite(duty).all()):
        raise ConfigError("delay and duty must be finite")
    f = cfg.f_meas
    with np.errstate(over="ignore"):  # a product that overflows fails the guard
        if (np.abs(f * delay) + np.abs(f * duty) / 2.0 >= 0.125).any():
            raise ConfigError("timing errors must stay well below an eighth of the toggle period")

    def square(d, u):  # rise and fall of a 50% square delayed by d and widened by u
        return np.mod(np.stack([f * (d - u / 2.0), 0.5 + f * (d + u / 2.0)], axis=-1), 1.0)

    cell = square(delay, duty)
    if (cell[..., 0] == cell[..., 1]).any():
        raise ConfigError("a cell needs distinct rise and fall times")
    mean_delay = 0.5 * (delay[..., 0] + delay[..., 1])
    in_phase = square(mean_delay, 0.5 * (duty[..., 0] + duty[..., 1]))
    # four edges each, (..., 2 cells, 1, 4) against (..., 1, 3 modes, 4): the
    # two-edge squares list theirs twice, which only adds zero-width segments
    cell_times = np.tile(cell, 2)[..., None, :]
    cell_levels = np.tile(np.stack([amplitude, np.zeros_like(amplitude)], axis=-1), 2)
    mod_times = np.stack([
        np.tile(in_phase, 2),
        np.tile(np.mod(in_phase + 0.25, 1.0), 2),
        np.mod((f * mean_delay)[..., None] + [-0.125, 0.125, 0.375, 0.625], 1.0),
    ], axis=-2)[..., None, :, :]
    mod_levels = np.broadcast_to([1.0, -1.0, 1.0, -1.0], mod_times.shape)
    cuts = np.sort(np.concatenate(np.broadcast_arrays(cell_times, mod_times), axis=-1), axis=-1)
    terms = _levels_after(cell_times, cell_levels[..., None, :], cuts)
    terms *= _levels_after(mod_times, mod_levels, cuts)
    terms *= np.concatenate(
        (np.diff(cuts, axis=-1), 1.0 - cuts[..., -1:] + cuts[..., :1]), axis=-1
    )
    average = np.zeros(cuts.shape[:-1])
    for segment in np.moveaxis(terms, -1, 0):
        average += segment
    with np.errstate(over="ignore"):  # a reading that overflows is rejected below
        readings = cfg.sensing_gain * (average[..., 0, :] - average[..., 1, :])
    if not np.isfinite(readings).all():
        raise ConfigError(f"a sense reading overflows a float at gain {cfg.sensing_gain:g}")
    return readings


# ---------------------------------------------------------------------------
# Yield studies


YIELD_FLOWS = ("eses", "ses", "self-heal", "timing")

_LINEARITY_COLUMNS = ("pre_inl_max", "post_inl_max", "pre_dnl_max", "post_dnl_max")
_TIMING_COLUMNS = ("pre_delay_sigma", "post_delay_sigma", "pre_duty_sigma", "post_duty_sigma")
_FLOW_COLUMNS = {
    "eses": ("sample_id", *_LINEARITY_COLUMNS),
    "ses": ("sample_id", *_LINEARITY_COLUMNS),
    "self-heal": ("sample_id", "healed", "restarts", *_LINEARITY_COLUMNS),
    "timing": ("sample_id", *_TIMING_COLUMNS),
}


@dataclass(frozen=True, eq=False)
class YieldResult:
    """Monte Carlo yield study: per-sample rows plus distribution summaries.

    Each row is a tuple of the values of ``columns``, in that order.
    ``percentiles[column]`` holds the 50th/95th/99th percentile of that
    column over samples with a finite value; ``histograms[column]`` is the
    (counts, bin_edges) pair from ``np.histogram``.  ``summary`` carries
    flow-specific aggregates (heal success rate, pooled timing sigmas).
    """

    flow: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    percentiles: dict
    histograms: dict
    summary: dict


#: converters one block of a yield study stacks (no output depends on it):
#: its arrays stay near 1 MB, and 100 samples split evenly over two workers
_YIELD_BLOCK = 16


def _rerun_failing_blocks(block_rows):
    """``block_rows(config, master_seed, lo, hi)``, which runs a block that
    fails (ConfigError, DegenerateConfigurationError) again one converter at
    a time, so it raises the error of its lowest failing sample, as a loop
    over the rows does."""

    @wraps(block_rows)
    def rows(config, master_seed: int, lo: int, hi: int) -> list[tuple]:
        try:
            return block_rows(config, master_seed, lo, hi)
        except (ConfigError, DegenerateConfigurationError):
            if hi - lo == 1:
                raise
            return [row for i in range(lo, hi) for row in block_rows(config, master_seed, i, i + 1)]

    return rows


@_rerun_failing_blocks
def _amplitude_rows(config: DacConfig, master_seed: int, lo: int, hi: int) -> list[tuple]:
    """Yield rows lo, ..., hi - 1 of an amplitude flow on ``config``, each
    equal as floats to ``linearity_from_curve`` of sample i's balanced and
    ``calibrate_amplitude_eses`` currents, on ``sample_dac`` of its stream.

    Each converter is drawn from its own stream.  The block then runs
    ``DacSample``'s checks, the calibration, the cell currents, the LSB
    values and the segment bounds on stacked arrays; the candidate codes
    run per converter.
    """
    n, k = config.n, config.k
    draws = [_draw_dac(config, sample_substream(master_seed, i)) for i in range(lo, hi)]
    amplitude, widths, extrinsic = _cell_arrays(np.stack([d[0] for d in draws]), n)
    balanced = np.full(config.n_ucc, balanced_row(n, k))
    _check_cells(config, amplitude, widths, extrinsic, balanced, balanced)
    lsb_vals = _lsb_values([d[1] for d in draws])
    pre = _segment_maxima_rows(selected_sums(amplitude, balanced, k), lsb_vals)
    selection = calibrate_amplitude_eses(amplitude, [d[2] for d in draws], k)
    post = _segment_maxima_rows(selected_sums(amplitude, selection, k), lsb_vals)
    return [
        (i, before.inl_max, after.inl_max, before.dnl_max, after.dnl_max)
        for i, before, after in zip(range(lo, hi), pre, post)
    ]


@_rerun_failing_blocks
def _timing_rows(config: DacConfig, master_seed: int, lo: int, hi: int) -> list[tuple]:
    """Yield rows lo, ..., hi - 1 of the timing flow: the standard deviations
    of ``delay_errors`` and ``duty_errors`` of sample i's buffer deviations
    before and after ``calibrate_timing``, each equal as floats to those of
    ``sample_dac`` on sample i's stream.

    Each converter's cells are drawn from its own stream; the LSB bank that
    follows them there is not drawn, since no timing column reads it.  The
    block runs ``DacSample``'s checks, the deviations before and after, the
    calibration and the standard deviations on stacked arrays.
    """
    n, k = config.n, config.k
    cells = [_draw_cells(config, sample_substream(master_seed, i)) for i in range(lo, hi)]
    amplitude, widths, extrinsic = _cell_arrays(np.stack(cells), n)
    balanced = np.full(config.n_ucc, balanced_row(n, k))
    pre = _check_cells(config, amplitude, widths, extrinsic, balanced, balanced)
    current = np.stack([balanced, balanced], axis=1)
    selection = calibrate_timing(config, widths, extrinsic, pre, current)
    post = _selected_deviations(config, widths, extrinsic, selection[..., 0], selection[..., 1])
    errors = (delay_errors(pre), delay_errors(post), duty_errors(pre), duty_errors(post))
    return list(zip(range(lo, hi), *(np.std(e, axis=1).tolist() for e in errors)))


@_rerun_failing_blocks
def _selfheal_rows(config: SelfHealConfig, master_seed: int, lo: int, hi: int) -> list[tuple]:
    """Yield rows lo, ..., hi - 1 of the self-heal flow: ``sample_selfheal``
    and ``self_heal_ses`` on sample i's own stream, with the linearity maxima
    of the balanced, bias-scaled cell currents before and of
    ``healed_linearity`` after.

    Each converter is drawn by ``sample_selfheal`` from its own stream, and
    the controller runs per converter on that generator.  The block reads
    each linearity, before and after, in one call on stacked arrays.
    """
    n, k = config.n, config.k
    rngs = [sample_substream(master_seed, i) for i in range(lo, hi)]
    samples = [sample_selfheal(config, rng) for rng in rngs]
    lsb_vals = np.stack([s.lsb_values for s in samples])
    balanced = balanced_row(n, k)
    scale = selected_sums(np.stack([s.bias_elements for s in samples]), balanced, k) / float(k)
    currents = selected_sums(np.stack([s.cells for s in samples]), balanced, k) * scale[:, None]
    pre = _segment_maxima_rows(currents, lsb_vals)
    results = [self_heal_ses(sample, rng) for sample, rng in zip(samples, rngs)]
    post = healed_linearity(samples, results)
    return [
        (
            i, 1.0 if result.healed else 0.0, float(result.restarts),
            before.inl_max, after.inl_max, before.dnl_max, after.dnl_max,
        )
        for i, before, after, result in zip(range(lo, hi), pre, post, results)
    ]


#: bytes one yield row may take: a tuple of 5 to 7 numbers.  tracemalloc
#: (CPython 3.11, 1 000 to 6 000 rows) saw a study's peak grow by 239 B a row
#: for eses, 249 B for timing and 315 B for self-heal rows (216 to 258 B of
#: it kept); the figure is that upper bound and about a quarter more, which
#: also covers the pickled rows a forked worker hands back
_YIELD_ROW_BYTES = 400


def yield_study(
    config: Union[DacConfig, SelfHealConfig],
    n_samples: int,
    flow: str,
    master_seed: int = 1,
    threads: int = 1,
    bins: int = 60,
) -> YieldResult:
    """Monte Carlo study over independent converter samples.

    Flows: ``eses`` (graded amplitude calibration), ``ses`` (the same flow on
    the uniform-sizing comparison converter derived from ``config``),
    ``self-heal`` (window-search controller; needs a SelfHealConfig), and
    ``timing`` (delay/duty calibration sigmas).  Sample i always runs on the
    generator spawned from (master_seed, i), so results are deterministic and
    independent of ``threads``.  ``runner.parallel_indexed`` hands out the
    rows of every flow in blocks of ``_YIELD_BLOCK`` converters
    (``_amplitude_rows``, ``_timing_rows``, ``_selfheal_rows``), in sample
    order.  A block calibrates through the public layer functions:
    ``calibrate_amplitude_eses``; ``calibrate_timing``, ``delay_errors`` and
    ``duty_errors``; or ``self_heal_ses`` and ``healed_linearity``.
    """
    if flow not in YIELD_FLOWS:
        raise ConfigError(f"flow must be one of {YIELD_FLOWS}, got {flow!r}")
    if n_samples < 100:
        raise ConfigError(f"yield studies need n_samples >= 100, got {n_samples}")
    check_array_bytes("the yield rows", (n_samples,), _YIELD_ROW_BYTES)
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    check_array_bytes("the histogram edges", (bins + 1,))
    if flow == "self-heal":
        if not isinstance(config, SelfHealConfig):
            raise ConfigError("the self-heal flow needs a SelfHealConfig")
        block_rows = _selfheal_rows
    elif not isinstance(config, DacConfig):
        raise ConfigError(f"the {flow} flow needs a DacConfig")
    else:
        block_rows = _timing_rows if flow == "timing" else _amplitude_rows
    run_config = uniform_comparison_config(config) if flow == "ses" else config
    size = _YIELD_BLOCK
    block_fn = lambda j: block_rows(
        run_config, master_seed, j * size, min(n_samples, (j + 1) * size)
    )
    blocks = parallel_indexed(-(-n_samples // size), block_fn, threads)
    rows = tuple(row for block in blocks for row in block)
    columns = _FLOW_COLUMNS[flow]

    percentiles: dict = {}
    histograms: dict = {}
    for j, column in enumerate(columns[1:], 1):  # after sample_id
        values = np.array([row[j] for row in rows], dtype=float)
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            continue
        percentiles[column] = {
            "p50": float(np.percentile(finite, 50)),
            "p95": float(np.percentile(finite, 95)),
            "p99": float(np.percentile(finite, 99)),
        }
        counts, edges = np.histogram(finite, bins=bins)
        histograms[column] = (counts, edges)

    summary: dict = {}
    if flow == "self-heal":
        at = columns.index("healed")
        healed = np.array([row[at] for row in rows])
        summary["heal_success_rate"] = float(np.mean(healed))
    elif flow == "timing":
        for j, column in enumerate(_TIMING_COLUMNS, 1):  # after sample_id
            variances = np.array([row[j] ** 2 for row in rows])
            summary[column + "_pooled"] = float(math.sqrt(np.mean(variances)))
    return YieldResult(
        flow=flow,
        columns=columns,
        rows=rows,
        percentiles=percentiles,
        histograms=histograms,
        summary=summary,
    )
