"""Eight-phase harmonic-rejection receiver with subset-selection tuning.

The receiver model: a divide-by-8 ring supplies eight 50%-duty LO phases 45
degrees apart.  Each mixing branch commutates through one differential phase
pair (p, p+4); three branches per path are recombined with weights
approximating 1:sqrt(2):1, which cancels the 3rd and 5th LO harmonics when
branch gains and phase spacing are exact.  Everything downstream analyzes the
*effective LO* — the weighted sum of the differential phase waveforms — via
the exact Fourier series of a piecewise-constant periodic signal, so every
spectral number is closed-form for a given sample state.

Mismatch enters three ways, each with a tunable subset-selection knob sized to
cover six sigma of the total variation:

* branch gain:   K-of-N tail current elements, gain = (I_sel/I_nom)^alpha
* pair delay:    one clock inverter per differential pair (common to its four
                 edges), delay = base + drive * W_nom/W_sel
* edge timing:   per-phase pull-up (rise) and pull-down (fall) buffer
                 networks with the same inverse-width delay law

The model's fixed constants are not config fields: alpha and the three
intrinsic variance shares are constants here (``HrConfig`` names them), and
``BASE_DELAY``, ``COVERAGE_SIGMA`` and ``RANGE_MARGIN`` live in ``mismatch``.

A sampled receiver holds its 24 knobs as arrays: a (24, n) element draw, a
(24,) extrinsic error per knob and a (24,) selection of row indices into the
k-of-n combination table, drawn with the converters' draw routine and read
through ``mismatch``'s selected sum and inverse-width delay law, which the
converter's timing buffers share.  A calibration step changes one selection
row.

Timing deviations are fixed in seconds; their harmonic impact scales with the
operating frequency, so calibration runs at the top frequency and sweeps down.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .mismatch import (
    COVERAGE_SIGMA,
    DRAW_REACH,
    RANGE_MARGIN,
    Arithmetic,
    ConfigError,
    DegenerateConfigurationError,
    MismatchModel,
    _draw_units,
    all_subset_sums,
    balanced_row,
    combination_index_matrix,
    inverse_width_deviation,
    nominal_sizes,
    selected_sums,
    subset_deviations,
    timing_network,
)
from .waveform import EdgeWaveform, edge_fourier, moved_edge_fourier

__all__ = [
    "HrConfig",
    "HrReceiverSample",
    "CalStep",
    "CalReport",
    "HrrPoint",
    "PATH_BRANCHES",
    "HRR_DB_CAP",
    "MAX_ITERATIONS",
    "sample_receiver",
    "effective_lo",
    "measure_harmonic_power",
    "calibrate_even_order",
    "calibrate_odd_order",
    "sweep_hrr",
]

N_PHASES = 8
#: branch indices (== differential pair indices) composing each output path
PATH_BRANCHES = {"I": (0, 1, 2), "Q": (1, 2, 3)}
#: |c_n| below this fraction of |c_1| is reported as perfect rejection
HRR_INF_REL = 1e-15
#: serialized stand-in for an infinite rejection ratio
HRR_DB_CAP = 300.0
#: cap on knob-cycle repeats within one calibration stage
_MAX_STAGE_PASSES = 8
#: most odd-order iterations one calibration may run; the second is already
#: quiescent at the default frequencies, so more only repeat idle steps
MAX_ITERATIONS = 100
#: branch gain is (selected / nominal tail current) ** GAIN_ALPHA
GAIN_ALPHA = 0.5
#: shares of the gain, clock-delay and differential-phase variance that the
#: tail elements, the pair clock inverters and the rise/fall buffer networks
#: carry (``HrConfig``)
GAIN_INTRINSIC_FRACTION = 0.08
CLOCK_INTRINSIC_FRACTION = 0.25
DIFF_INTRINSIC_FRACTION = 0.45


# ---------------------------------------------------------------------------
# range sizing
# ---------------------------------------------------------------------------


def _power_law_step(reach: float) -> float:
    """Smallest arithmetic step d such that (K-subset sums of sizes a(1 +/- 3d))
    pushed through x -> x**GAIN_ALPHA cover a relative gain deviation of
    +/-reach."""
    if reach == 0.0:
        return 0.0
    if reach >= 1.0:
        raise ConfigError(f"gain tuning cannot cover a relative reach of {reach}")
    up = ((1.0 + reach) ** (1.0 / GAIN_ALPHA) - 1.0) / 3.0
    down = (1.0 - (1.0 - reach) ** (1.0 / GAIN_ALPHA)) / 3.0
    return max(up, down)


@dataclasses.dataclass(frozen=True)
class HrConfig:
    """Receiver statistics and derived tuning-network sizing: one field per
    ``hr.*`` key.

    Variance budgets follow the split between what the selection networks can
    reach (intrinsic fraction) and what they must correct (extrinsic rest).
    The fixed model constants live in this module: ``GAIN_INTRINSIC_FRACTION``
    (8 %) of gain variance is intrinsic to the tail elements, whose gain
    follows (I_sel/I_nom)**``GAIN_ALPHA``, ``CLOCK_INTRINSIC_FRACTION`` (25 %)
    of clock-delay variance to the pair clock inverters, and
    ``DIFF_INTRINSIC_FRACTION`` (45 %) of differential-phase variance to the
    per-phase rise/fall buffer networks (split equally between the two
    networks of a phase).  The base delay, the coverage sigma and the range
    margin that size every timing network live in ``mismatch``.

    ``f_low`` is the gain-measurement frequency.  Timing errors are fixed in
    seconds, so their phase contribution scales with frequency; the default
    sits at f0/50 where that contribution falls below the gain-selection
    resolution.  Gain and delay corrections then settle independently and the
    odd-order loop converges within two rounds.
    """

    f0: float = 750e6
    f_low: float = 15e6
    n_elements: int = 12
    k_selected: int = 6
    element_rel_sigma: float = 0.01
    gain_sigma: float = 0.01
    clock_delay_sigma: float = 3.7e-12
    diff_phase_sigma: float = 2.0e-12
    weights: tuple[float, float, float] = (12.0, 17.0, 12.0)

    def __post_init__(self) -> None:
        if not (0 < self.k_selected < self.n_elements):
            raise ConfigError(
                f"need 0 < k < n, got n={self.n_elements} k={self.k_selected}"
            )
        for name in ("f0", "f_low"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.f_low >= self.f0:
            raise ConfigError(f"f_low {self.f_low:g} must be below f0 {self.f0:g}")
        for name in (
            "element_rel_sigma",
            "gain_sigma",
            "clock_delay_sigma",
            "diff_phase_sigma",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if len(self.weights) != 3 or any(w <= 0 for w in self.weights):
            raise ConfigError(f"weights must be three positive values: {self.weights}")
        self._check_coverage()
        self._check_weight_scale()

    # -- derived sizing ----------------------------------------------------

    @property
    def tail_element_sigma(self) -> float:
        """Element sigma that puts GAIN_INTRINSIC_FRACTION of gain variance
        into the selected tail sum: sigma_gain ~= alpha * sigma_el * sqrt(k)/k."""
        return (
            math.sqrt(self.k_selected)
            * math.sqrt(GAIN_INTRINSIC_FRACTION)
            * self.gain_sigma
            / GAIN_ALPHA
        )

    @property
    def tail_extrinsic_sigma(self) -> float:
        return math.sqrt(1.0 - GAIN_INTRINSIC_FRACTION) * self.gain_sigma

    @property
    def tail_step(self) -> float:
        return _power_law_step(COVERAGE_SIGMA * RANGE_MARGIN * self.gain_sigma)

    @property
    def clock_extrinsic_sigma(self) -> float:
        return math.sqrt(1.0 - CLOCK_INTRINSIC_FRACTION) * self.clock_delay_sigma

    @property
    def clock_network(self) -> tuple[float, float]:
        """Drive and step of every pair clock inverter."""
        intrinsic = math.sqrt(CLOCK_INTRINSIC_FRACTION) * self.clock_delay_sigma
        return timing_network(
            intrinsic, self.element_rel_sigma, self.k_selected, self.clock_delay_sigma
        )

    @property
    def buffer_extrinsic_sigma(self) -> float:
        return math.sqrt((1.0 - DIFF_INTRINSIC_FRACTION) / 2.0) * self.diff_phase_sigma

    @property
    def buffer_network(self) -> tuple[float, float]:
        """Drive and step of every rise or fall buffer network (the intrinsic
        differential-phase variance splits between the two)."""
        intrinsic = math.sqrt(DIFF_INTRINSIC_FRACTION / 2.0) * self.diff_phase_sigma
        return timing_network(
            intrinsic, self.element_rel_sigma, self.k_selected, self.diff_phase_sigma
        )

    def _check_coverage(self) -> None:
        """Every step covers its reach by construction (``_power_law_step``
        and ``inverse_width_step`` raise when no step can).  Checked here:
        a set variance has element mismatch to select from, and the element
        sizes and the gain range's low end stay positive."""
        if self.element_rel_sigma == 0.0 and (
            self.gain_sigma or self.clock_delay_sigma or self.diff_phase_sigma
        ):
            raise ConfigError("element_rel_sigma must be > 0 when variances are set")
        for name, (drive, _) in (("clock", self.clock_network), ("buffer", self.buffer_network)):
            if not math.isfinite(drive):
                raise ConfigError(
                    f"the {name} drive is {drive} s at element_rel_sigma ="
                    f" {self.element_rel_sigma:g}, not a finite delay"
                )
        if self.gain_sigma > 0.0:
            d = self.tail_step
            if 3.0 * d >= 1.0:  # (1 - 3d)**alpha below would be complex
                raise ConfigError(
                    f"tail_step {d:g} puts the gain range's low end at or below zero"
                )
        for name, step in (
            ("tail_step", self.tail_step),
            ("clock_step", self.clock_network[1]),
            ("buffer_step", self.buffer_network[1]),
        ):
            if step * (self.n_elements - 1) >= 2.0:
                raise ConfigError(f"{name} {step:g} drives element sizes non-positive")

    def _check_weight_scale(self) -> None:
        """The weights set the LO's scale, which no rejection ratio sees but
        the floats do.  Their sum W must keep every LO level and |c_n|, and
        their squares, finite, and |c_1| * HRR_INF_REL a nonzero float.

        High end: a branch gain is (S / half)**GAIN_ALPHA * (1 + e), half is k
        times the tail's mean nominal size, 1, and S at most k times its
        largest realized size.  With every element and extrinsic error at
        most DRAW_REACH sigma high, the gain stays below ``high``.  A path sums
        six square waves of amplitude gain * weight, each with one edge up
        and one down, so every level, edge step and |c_n| (at most the sum
        of |step| over 2 pi n) of a path or of a knob candidate is at most
        2 * high * W.  high * W <= 2**256 keeps their squares below 2**514, far
        below the float maximum of about 2**1024.

        Low end: a path's three branch fundamentals lie 45 degrees apart, each
        turned less than 22.5 degrees by edge errors below 1/16 period
        (``_check_edge_errors``), so all lie within 135 degrees and none
        cancels another: |c_1| >= cos(67.5 deg) * 4 cos(22.5 deg) / (2 pi) *
        g * W > g * W / 5, with g the least branch gain.  W >= 2**-256 keeps
        |c_1|**2 a normal float, and |c_1| * HRR_INF_REL nonzero, for every
        gain above 2**-252; a receiver whose |c_1| is 0 raises
        DegenerateConfigurationError.  The default weights sum to 41.
        """
        top = 1.0 + self.tail_step * (self.n_elements - 1) / 2.0
        high = (top + DRAW_REACH * self.tail_element_sigma * math.sqrt(top)) ** GAIN_ALPHA * (
            1.0 + DRAW_REACH * self.tail_extrinsic_sigma
        )
        total = sum(self.weights)
        if not (2.0**-256 <= total and high * total <= 2.0**256):
            raise ConfigError(
                f"weights sum to {total:g}: with branch gains up to {high:.3g},"
                " the LO's scale must stay within 2**-256 and 2**256"
            )


# ---------------------------------------------------------------------------
# sampled state
# ---------------------------------------------------------------------------

#: every knob, by the name the trace and the selection snapshot use; a
#: receiver's knob arrays hold their rows in this order
_KNOB_NAMES = tuple(
    f"{kind}{i}"
    for kind, count in (("tail", 4), ("clock", 4), ("rise", N_PHASES), ("fall", N_PHASES))
    for i in range(count)
)
_KNOB_ROWS = {name: row for row, name in enumerate(_KNOB_NAMES)}
#: knob rows in draw order: the tails, the clocks, then rise p and fall p
#: of each phase p in turn
_DRAW_ORDER = np.concatenate(
    [np.arange(8), np.stack([np.arange(8, 16), np.arange(16, 24)], axis=1).ravel()]
)


class _KnobDesign(NamedTuple):
    """What every receiver of a config shares: per knob row, in draw order,
    the nominal sizes and sigmas of its n elements and then of its extrinsic
    error; in knob order, k times each row's mean nominal size (the design
    value of any k-selection) and the drive of the 20 inverter rows."""

    nominal: np.ndarray
    sigmas: np.ndarray
    halves: np.ndarray
    drives: np.ndarray


@lru_cache(maxsize=16)
def _knob_design(cfg: HrConfig) -> _KnobDesign:
    n, k = cfg.n_elements, cfg.k_selected
    rows = []  # (nominal sizes, element sigma, extrinsic sigma) in knob order
    tail = nominal_sizes(Arithmetic(1.0, cfg.tail_step), n)
    tail_sigmas = MismatchModel(cfg.tail_element_sigma, 1.0).element_sigmas(tail)
    rows += 4 * [(tail, tail_sigmas, cfg.tail_extrinsic_sigma)]
    width_model = MismatchModel(cfg.element_rel_sigma, 1.0)
    (clock_drive, clock_step), (buffer_drive, buffer_step) = cfg.clock_network, cfg.buffer_network
    for step, count, extrinsic_sigma in (
        (clock_step, 4, cfg.clock_extrinsic_sigma),
        (buffer_step, 2 * N_PHASES, cfg.buffer_extrinsic_sigma),
    ):
        widths = nominal_sizes(Arithmetic(1.0, step), n)
        rows += count * [(widths, width_model.element_sigmas(widths), extrinsic_sigma)]
    nominal = np.array([np.append(row[0], 0.0) for row in rows])[_DRAW_ORDER]
    sigmas = np.array([np.append(row[1], row[2]) for row in rows])[_DRAW_ORDER]
    # one 1-D mean per row, as each row's own set would take it
    halves = np.array([float(row[0].mean()) * k for row in rows])
    drives = np.repeat([clock_drive, buffer_drive], [4, 2 * N_PHASES])
    for array in (nominal, sigmas, halves, drives):  # shared by every caller
        array.setflags(write=False)
    return _KnobDesign(nominal, sigmas, halves, drives)


@dataclasses.dataclass(frozen=True, eq=False)
class HrReceiverSample:
    """One Monte Carlo receiver instance, held as per-knob arrays.

    ``elements`` (24, n) holds every knob's realized element sizes and
    ``extrinsic`` (24,) the part of its spread the selection cannot see,
    rows in ``_KNOB_NAMES`` order: the four tail-current sets (branch m
    mixes with differential pair (m, m + 4); its extrinsic term is a
    relative gain error), the four pair clock inverters, then the eight rise
    and the eight fall buffer networks (extrinsic terms in seconds).
    ``selection`` (24,) holds each knob's enabled k-subset as a row index
    into ``combination_index_matrix(n, k)``.

    Derived once, when the sample is built, from each row's selected sum,
    all read-only: ``tail_ratios`` (4,), selected over nominal tail current;
    ``deviations`` (20,), each inverter's delay less its design point base +
    drive; and the (8,) ``rise_errors`` and ``fall_errors``: phase p's edge
    error is its pair clock's deviation (clock p % 4) plus its own rise or
    fall network's.
    """

    config: HrConfig
    elements: np.ndarray
    extrinsic: np.ndarray
    selection: np.ndarray
    tail_ratios: np.ndarray = dataclasses.field(init=False, repr=False)
    deviations: np.ndarray = dataclasses.field(init=False, repr=False)
    rise_errors: np.ndarray = dataclasses.field(init=False, repr=False)
    fall_errors: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        cfg = self.config
        rows = len(_KNOB_NAMES)
        shapes = tuple(np.shape(a) for a in (self.elements, self.extrinsic, self.selection))
        expected = ((rows, cfg.n_elements), (rows,), (rows,))
        if shapes != expected:
            raise ConfigError(f"array shapes {shapes} differ from {expected}")
        if self.elements.min() <= 0.0:
            raise ConfigError("realized sizes must be strictly positive")
        selected = selected_sums(self.elements, self.selection, cfg.k_selected)
        design = _knob_design(cfg)
        deviations = inverse_width_deviation(
            design.drives, design.halves[4:], selected[4:], self.extrinsic[4:]
        )
        # rise then fall networks in rows of four phases: phase p adds clock p % 4
        edges = (deviations[4:].reshape(4, 4) + deviations[:4]).reshape(2, N_PHASES)
        derived = {
            "tail_ratios": selected[:4] / design.halves[:4],
            "deviations": deviations,
            "rise_errors": edges[0],
            "fall_errors": edges[1],
        }
        for name, array in derived.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)


def sample_receiver(
    config: HrConfig, rng: Union[np.random.Generator, int, None]
) -> HrReceiverSample:
    """Draw one receiver.  Draw order is fixed: per branch its tail elements
    then extrinsic gain error, per pair its clock widths then extrinsic
    delay, then per phase the rise widths and extrinsic, then the fall
    widths and extrinsic (one ``_draw_units`` call).  Every knob starts at
    the balanced combination."""
    rng = np.random.default_rng(rng)
    design = _knob_design(config)
    n = config.n_elements
    drawn = _draw_units(design.nominal, design.sigmas, ((n, True), (1, False)), rng)
    values = np.empty_like(drawn)
    values[_DRAW_ORDER] = drawn
    selection = np.full(len(_KNOB_NAMES), balanced_row(n, config.k_selected))
    return HrReceiverSample(
        config, np.ascontiguousarray(values[:, :n]), values[:, n].copy(), selection
    )


def _branch_gain(sample: HrReceiverSample, m: int) -> float:
    """Gain of branch m: (selected / nominal tail current)**alpha times its
    extrinsic (1 + error)."""
    ratio = float(sample.tail_ratios[m])
    return ratio**GAIN_ALPHA * (1.0 + float(sample.extrinsic[m]))


# ---------------------------------------------------------------------------
# effective LO and spectra
# ---------------------------------------------------------------------------


def _check_edge_errors(sample: HrReceiverSample, f: float) -> None:
    worst = float(np.abs((sample.rise_errors, sample.fall_errors)).max())
    if worst * f >= 1.0 / 16.0:
        raise ConfigError(
            f"edge timing error {worst:g}s exceeds 1/16 of the {1.0 / f:g}s period"
        )


def _lo_edges(
    sample: HrReceiverSample, path: str, f: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """The path's effective LO at frequency f as arrays: the times where its
    level changes, the level after each, and the constant level when there
    is none (``EdgeWaveform``'s ``times``, ``levels`` and ``dc``).

    The LO is the sum of six square waves, high from rise to fall
    (cyclically): phase p with amplitude +amp and phase p + 4 with -amp for
    each branch p of the path, amp = gain * positional weight.  Timing errors
    are fixed in seconds, so their fractional (phase) impact scales with f.
    The twelve edges are Python floats, each reduced modulo 1 twice as the
    square wave and its caller reduce it (float ``%`` and ``np.mod`` round
    alike).  Levels are read on the sorted set of the edges, each starting
    at 0.0 and adding amp * (1.0 or 0.0) wave by wave, the order
    ``tests/oracles.combine`` adds them in, so every value, the sign of a
    zero included, equals the square-wave sum's bit for bit.
    """
    if path not in PATH_BRANCHES:
        raise ConfigError(f"path must be 'I' or 'Q', got {path!r}")
    if f <= 0:
        raise ConfigError(f"frequency must be > 0, got {f}")
    _check_edge_errors(sample, f)
    if not math.isfinite(f):
        raise ConfigError(f"frequency must be finite, got {f}")
    rise_errors, fall_errors = sample.rise_errors.tolist(), sample.fall_errors.tolist()
    waves = []  # (amplitude, rise, fall) of each square wave
    for bi, weight in zip(PATH_BRANCHES[path], sample.config.weights):
        amp = _branch_gain(sample, bi) * weight
        for p, sign in ((bi, 1.0), (bi + 4, -1.0)):
            rise = ((p / 8.0 + f * rise_errors[p]) % 1.0) % 1.0
            fall = ((p / 8.0 + 0.5 + f * fall_errors[p]) % 1.0) % 1.0
            if rise == fall:
                raise ConfigError("an LO phase needs distinct rise and fall times")
            waves.append((sign * amp, rise, fall))
    times = sorted({edge for _, rise, fall in waves for edge in (rise, fall)})
    levels = []
    for t in times:
        level = 0.0
        for amp, rise, fall in waves:
            high = rise <= t < fall if rise < fall else (rise <= t or t < fall)
            level += amp * (1.0 if high else 0.0)
        levels.append(level)
    # an edge is kept where its level differs from the one before it, cyclically
    kept = [i for i, level in enumerate(levels) if level != levels[i - 1]]
    if not kept:  # the LO is constant
        return np.empty(0), np.empty(0), levels[0]
    return np.array([times[i] for i in kept]), np.array([levels[i] for i in kept]), 0.0


def effective_lo(sample: HrReceiverSample, path: str, f: float) -> EdgeWaveform:
    """Weighted sum of the path's three differential LO waveforms at frequency f."""
    times, levels, dc = _lo_edges(sample, path, f)
    return EdgeWaveform(1.0 / f, times, levels, dc)


def _lo_fundamental(
    sample: HrReceiverSample, path: str, f: float
) -> tuple[np.ndarray, np.ndarray, complex]:
    """The path's LO edge times and level steps at frequency f, and its c1."""
    times, levels, _ = _lo_edges(sample, path, f)
    deltas = levels - np.concatenate((levels[-1:], levels[:-1]))
    c1 = complex(edge_fourier(times, deltas, 1))
    if abs(c1) == 0.0:
        raise DegenerateConfigurationError(
            "effective LO has no fundamental component (all branch gains zero?)"
        )
    return times, deltas, c1


def _check_harmonic(n: int) -> None:
    if n < 2:
        raise ConfigError(f"harmonic index must be >= 2, got {n}")


def _first_and_nth(sample: HrReceiverSample, path: str, n: int, f: float) -> tuple[complex, complex]:
    _check_harmonic(n)
    times, deltas, c1 = _lo_fundamental(sample, path, f)
    return c1, complex(edge_fourier(times, deltas, n))


def _hrr_db(c1: complex, cn: complex) -> float:
    if abs(cn) < HRR_INF_REL * abs(c1):
        return math.inf
    return 20.0 * math.log10(abs(c1) / abs(cn))


def measure_harmonic_power(sample: HrReceiverSample, path: str, n: int, f: float) -> float:
    """Calibration objective |c_n/c_1|^2 — the emulated tone-power measurement."""
    c1, cn = _first_and_nth(sample, path, n, f)
    return (abs(cn) / abs(c1)) ** 2


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CalStep:
    """One committed search step and the objective it was scored against."""

    stage: str  # "even" | "gain" | "phase"
    iteration: int  # odd order: the iteration, from 1; even order: the pass, from 0
    target: str
    objective_before: float
    objective_after: float


@dataclasses.dataclass(frozen=True)
class CalReport:
    steps: tuple[CalStep, ...]
    selections: dict[str, tuple[int, ...]]

    def to_json_dict(self) -> dict:
        return {
            "selections": {k: list(v) for k, v in sorted(self.selections.items())},
            "trace": [  # no deep copy, as dataclasses.asdict makes of every field
                {"stage": s.stage, "iteration": s.iteration, "target": s.target,
                 "objective_before": s.objective_before, "objective_after": s.objective_after}
                for s in self.steps
            ],
        }


def _with_knob(sample: HrReceiverSample, name: str, best: int) -> HrReceiverSample:
    """``sample`` with knob ``name`` switched to selection row ``best``."""
    selection = sample.selection.copy()
    selection[_KNOB_ROWS[name]] = best
    return dataclasses.replace(sample, selection=selection)


def _selection_snapshot(sample: HrReceiverSample) -> dict[str, tuple[int, ...]]:
    combos = combination_index_matrix(sample.config.n_elements, sample.config.k_selected)
    return {
        name: tuple(int(i) for i in combos[row])
        for name, row in zip(_KNOB_NAMES, sample.selection)
    }


def _branch_edges(sample: HrReceiverSample, bi: int, f: float) -> tuple[np.ndarray, np.ndarray]:
    """Edge times (period fractions) and level deltas of branch bi's
    differential waveform w_p - w_{p+4} (p = bi), at unit amplitude."""
    p = bi
    times = np.array(
        [
            p / 8.0 + f * sample.rise_errors[p],
            p / 8.0 + 0.5 + f * sample.fall_errors[p],
            p / 8.0 + 0.5 + f * sample.rise_errors[p + 4],
            p / 8.0 + f * sample.fall_errors[p + 4],
        ]
    )
    deltas = np.array([1.0, -1.0, -1.0, 1.0])
    return times, deltas


def _branch_objective(sample: HrReceiverSample, bi: int, n: int, f: float) -> float:
    """|c_n/c_1|^2 of branch bi measured alone (the even-order cal objective)."""
    times, deltas = _branch_edges(sample, bi, f)
    c1 = edge_fourier(times, deltas, 1)
    cn = edge_fourier(times, deltas, n)
    if abs(c1) == 0.0:
        raise DegenerateConfigurationError("branch waveform has no fundamental")
    return float(abs(cn) ** 2 / abs(c1) ** 2)


def _knob_candidates(
    sample: HrReceiverSample, row: int, tables: dict[int, np.ndarray]
) -> np.ndarray:
    """Knob ``row``'s value under every selection row: the branch gain of a
    tail, the deviation of an inverter.

    The values depend only on the row's elements and extrinsic error, which
    no calibration step changes, so ``tables`` keeps each row's array from
    its first visit for every receiver one calibration derives from the
    same draw.  The sums come from one 1-D ``all_subset_sums`` per row.
    """
    values = tables.get(row)
    if values is None:
        cfg = sample.config
        design = _knob_design(cfg)
        sums = all_subset_sums(sample.elements[row], cfg.k_selected)
        half, extrinsic = design.halves[row], sample.extrinsic[row]
        if row < 4:
            values = (sums / half) ** GAIN_ALPHA * (1.0 + extrinsic)
        else:
            values = subset_deviations(sums, design.drives[row - 4], half, extrinsic)
        tables[row] = values
    return values


def _knob_objectives(
    sample: HrReceiverSample,
    name: str,
    path: Optional[str],
    n: int,
    f: float,
    tables: dict[int, np.ndarray],
) -> np.ndarray:
    """|c_n/c_1|^2 under every selection row of knob ``name``, scored in
    closed form over every k-subset of the knob's elements.

    Each candidate's coefficient is c_h = rest_h + amp * u_h: ``rest_h`` sums
    the other measured branches, ``amp`` is the knob's branch amplitude
    (gain * weight) and ``u_h`` its unit-amplitude coefficient.  A tail
    candidate changes amp, a clock candidate shifts all four edges of its pair
    and so rotates u_h by exp(-2 pi i h f shift), and a buffer candidate moves
    one edge of u_h: only that edge's phase is evaluated per candidate
    (``moved_edge_fourier``), and the four edges are summed in the order a
    full evaluation sums them.  The candidates' gains or deviations come
    from ``tables`` (``_knob_candidates``).  With ``path`` None the knob's
    branch is measured alone: rest is 0 and amp is 1.
    """
    cfg = sample.config
    kind, index = name[:-1], int(name[-1])
    row = _KNOB_ROWS[name]
    bi = index % 4  # the branch whose tail, clock or edge the knob sets
    members = PATH_BRANCHES[path] if path else (bi,)
    harmonics = (1, n)
    rest: dict[int, complex] = {h: 0 for h in harmonics}
    for pos, other in enumerate(members):
        if other != bi:
            times, deltas = _branch_edges(sample, other, f)
            other_amp = _branch_gain(sample, other) * cfg.weights[pos]
            rest = {
                h: rest[h] + other_amp * complex(edge_fourier(times, deltas, h))
                for h in harmonics
            }
    own = members.index(bi)
    amp = _branch_gain(sample, bi) * cfg.weights[own] if path else 1.0
    times, deltas = _branch_edges(sample, bi, f)
    values = _knob_candidates(sample, row, tables)
    if kind == "tail":
        amp = values * cfg.weights[own]
        unit = {h: edge_fourier(times, deltas, h) for h in harmonics}
    elif kind == "clock":
        shift = values - sample.deviations[row - 4]
        unit = {
            h: edge_fourier(times, deltas, h) * np.exp(-2j * np.pi * h * f * shift)
            for h in harmonics
        }
    else:  # edges are ordered rise p, fall p, rise p+4, fall p+4
        edge = 2 * (index // 4) + (kind == "fall")
        moved = times[edge] + f * (values - sample.deviations[row - 4])
        unit = {h: moved_edge_fourier(times, deltas, h, edge, moved) for h in harmonics}
    c1, cn = (rest[h] + amp * unit[h] for h in harmonics)
    return np.abs(cn) ** 2 / np.abs(c1) ** 2


def _best_selection(
    sample: HrReceiverSample,
    name: str,
    path: Optional[str],
    n: int,
    f: float,
    tables: dict[int, np.ndarray],
) -> int:
    """The selection row of knob ``name`` that minimizes the closed-form
    |c_n/c_1|^2 (``_knob_objectives``); ties go to the first row in
    lexicographic order."""
    return int(np.argmin(_knob_objectives(sample, name, path, n, f, tables)))


def _calibrate_stage(
    sample: HrReceiverSample,
    steps: list[CalStep],
    stage: str,
    iteration: Optional[int],
    knobs: Sequence[str],
    path: Optional[str],
    n: int,
    f: float,
    tables: dict[int, np.ndarray],
) -> HrReceiverSample:
    """Cycle over ``knobs`` until a full pass commits no change, at most
    ``_MAX_STAGE_PASSES`` times, appending one CalStep per knob visit.

    Each step takes the knob's closed-form best selection and keeps it only
    if the exact objective — ``measure_harmonic_power`` of ``path``, or the
    knobs' branch measured alone when ``path`` is None — does not get worse.
    The objective is measured once at stage start and once per step that
    builds a trial: a step's "before" is the previous step's "after", so it
    is always the measure of the current receiver.  A step whose best
    selection is the one already set builds no trial and measures nothing;
    its "after" is its "before", the value that trial would measure.  Steps
    carry ``iteration``, or their pass index when it is None.  ``tables``
    holds the knobs' candidate values (``_knob_candidates``).

    Path, harmonic, frequency and ``tables`` are fixed within one call, and
    every value a search reads derives from the selections, so a knob
    searched again at the same selection vector has the same best row.
    ``searched`` keeps each (knob, selection vector) pair's best row for the
    call, and a repeated pair (a stage's last pass mostly confirms the one
    before) skips only the search.  A repeat whose best row is not the one
    set follows a rejected trial, and builds and measures that trial again.
    """

    def measure(s: HrReceiverSample) -> float:
        if path is None:
            return _branch_objective(s, int(knobs[0][-1]) % 4, n, f)
        return measure_harmonic_power(s, path, n, f)

    searched: dict[tuple[str, bytes], int] = {}
    before = measure(sample)
    for pass_index in range(_MAX_STAGE_PASSES):
        changed = False
        for name in knobs:
            key = (name, sample.selection.tobytes())
            best = searched.get(key)
            if best is None:
                best = searched[key] = _best_selection(sample, name, path, n, f, tables)
            after = before
            if best != sample.selection[_KNOB_ROWS[name]]:
                trial = _with_knob(sample, name, best)
                measured = measure(trial)
                # a worse trial is a closed-form/pipeline rounding
                # disagreement: keep the current receiver
                if measured <= before:
                    sample, after = trial, measured
                    changed = changed or after < before
            label = pass_index if iteration is None else iteration
            steps.append(CalStep(stage, label, name, before, after))
            before = after
        if not changed:
            break
    return sample


def calibrate_even_order(sample: HrReceiverSample) -> tuple[HrReceiverSample, CalReport]:
    """Null each branch's own 2nd harmonic by tuning its four buffer networks.

    Branches are measured alone (the other three off).  For each of the four
    networks of the pair (rise/fall of phase p, then of phase p+4) the search
    is exhaustive over all C(n,k) selections; the cycle over the four networks
    repeats until a full pass commits no change.  A committed step never
    regresses the measured objective, so post-cal HRR2 >= pre-cal HRR2 per
    sample.  The same edge-alignment condition governs the 4th and 6th
    harmonics, so they improve alongside.
    """
    f = sample.config.f0
    steps: list[CalStep] = []
    tables: dict[int, np.ndarray] = {}
    for m in range(4):
        knobs = (f"rise{m}", f"fall{m}", f"rise{m + 4}", f"fall{m + 4}")
        sample = _calibrate_stage(sample, steps, "even", None, knobs, None, 2, f, tables)
    return sample, CalReport(steps=tuple(steps), selections=_selection_snapshot(sample))


def calibrate_odd_order(
    sample: HrReceiverSample, iterations: int = 2
) -> tuple[HrReceiverSample, CalReport]:
    """Gain-then-phase odd-harmonic calibration at the receiver's own f_low
    and f0.

    Per iteration: (1) at f_low — where fixed timing errors have negligible
    phase impact — each path's tail currents are tuned against its own
    3rd-harmonic power (I path: branches 0,1,2; Q path: branch 3, reusing the
    shared 45/90-degree results); (2) at f0 the pair clock inverters are
    tuned the same way (I path: clocks 0-2; Q path: clock 3).  Exhaustive
    searches, candidates scored in closed form, commits never regress the
    measured objective.  Each stage cycles over its knobs until a full pass
    commits no change, so one iteration leaves the stage at its search floor;
    with f_low well below f0 the second iteration is already quiescent.
    ``iterations`` runs from 1 to ``MAX_ITERATIONS``.
    """
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    if iterations > MAX_ITERATIONS:
        raise ConfigError(f"iterations must be <= {MAX_ITERATIONS}, got {iterations}")
    cfg = sample.config
    steps: list[CalStep] = []
    tables: dict[int, np.ndarray] = {}
    for it in range(1, iterations + 1):
        for stage, kind, f in (("gain", "tail", cfg.f_low), ("phase", "clock", cfg.f0)):
            for path, tuned in (("I", (0, 1, 2)), ("Q", (3,))):
                knobs = tuple(f"{kind}{m}" for m in tuned)
                sample = _calibrate_stage(sample, steps, stage, it, knobs, path, 3, f, tables)
    return sample, CalReport(steps=tuple(steps), selections=_selection_snapshot(sample))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class HrrPoint:
    f_hz: float
    n: int
    hrr_db: float


def sweep_hrr(
    sample: HrReceiverSample,
    f_list: Sequence[float],
    n_list: Sequence[int],
    path: str = "I",
) -> list[HrrPoint]:
    """HRR table over frequency with the sample's fixed selections.

    Timing errors are fixed in seconds, so the fractional phase errors — and
    with them the residual harmonics — shrink as f drops below the calibration
    frequency.  Perfect rejection is reported as the HRR_DB_CAP stand-in so
    the table stays finite."""
    out = []
    for f in f_list:
        lo = None  # built at the first harmonic, so errors come in hrr's order
        for n in n_list:
            _check_harmonic(n)
            if lo is None:
                lo = _lo_fundamental(sample, path, f)
            times, deltas, c1 = lo
            cn = complex(edge_fourier(times, deltas, n))
            value = min(_hrr_db(c1, cn), HRR_DB_CAP)
            out.append(HrrPoint(f_hz=float(f), n=int(n), hrr_db=value))
    return out
