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

Timing deviations are fixed in seconds; their harmonic impact scales with the
operating frequency, so calibration runs at the top frequency and sweeps down.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence, Union

import numpy as np

from .mismatch import (
    Arithmetic,
    Combination,
    ConfigError,
    DegenerateConfigurationError,
    ElementSet,
    MismatchModel,
    all_subset_sums,
    balanced_combination,
    combination_index_matrix,
    sample_element_set,
    subset_value,
)
from .waveform import EdgeWaveform, combine, edge_fourier, fourier_coeff, square_wave

__all__ = [
    "HrConfig",
    "TunableInverter",
    "LoPhaseSet",
    "HrBranch",
    "HrReceiverSample",
    "CalStep",
    "CalReport",
    "HrrPoint",
    "PATH_BRANCHES",
    "HRR_DB_CAP",
    "sample_receiver",
    "zero_variance_receiver",
    "effective_lo",
    "hrr",
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


# ---------------------------------------------------------------------------
# range sizing
# ---------------------------------------------------------------------------


def _power_law_step(alpha: float, reach: float) -> float:
    """Smallest arithmetic step d such that (K-subset sums of sizes a(1 +/- 3d))
    pushed through x -> x**alpha cover a relative gain deviation of +/-reach."""
    if reach == 0.0:
        return 0.0
    if reach >= 1.0:
        raise ConfigError(f"gain tuning cannot cover a relative reach of {reach}")
    up = ((1.0 + reach) ** (1.0 / alpha) - 1.0) / 3.0
    down = (1.0 - (1.0 - reach) ** (1.0 / alpha)) / 3.0
    return max(up, down)


def _inverse_width_step(drive: float, reach_seconds: float) -> float:
    """Smallest step d so delay = drive * W_nom/W_sel covers +/-reach_seconds.

    The compressive side (W_sel above nominal) is the binding one:
    drive * 3d/(1+3d) >= reach.
    """
    if reach_seconds == 0.0:
        return 0.0
    x = reach_seconds / drive
    if x >= 1.0:
        raise ConfigError(
            f"delay tuning range {drive:g}s cannot cover {reach_seconds:g}s"
        )
    return x / (3.0 * (1.0 - x))


@dataclasses.dataclass(frozen=True)
class HrConfig:
    """Receiver statistics and derived tuning-network sizing.

    Variance budgets follow the split between what the selection networks can
    reach (intrinsic fraction) and what they must correct (extrinsic rest):
    8% of gain variance is intrinsic to the tail elements, 25% of clock-delay
    variance to the pair clock inverters, and 45% of differential-phase
    variance to the per-phase rise/fall buffer networks (split equally between
    the two networks of a phase).

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
    gain_intrinsic_fraction: float = 0.08
    gain_alpha: float = 0.5
    clock_delay_sigma: float = 3.7e-12
    clock_intrinsic_fraction: float = 0.25
    diff_phase_sigma: float = 2.0e-12
    diff_intrinsic_fraction: float = 0.45
    weights: tuple[float, float, float] = (12.0, 17.0, 12.0)
    base_delay: float = 50e-12
    coverage_sigma: float = 6.0
    range_margin: float = 1.15

    def __post_init__(self) -> None:
        if not (0 < self.k_selected < self.n_elements):
            raise ConfigError(
                f"need 0 < k < n, got n={self.n_elements} k={self.k_selected}"
            )
        if self.f_low >= self.f0:
            raise ConfigError(f"f_low {self.f_low:g} must be below f0 {self.f0:g}")
        for name in ("f0", "f_low", "gain_alpha", "coverage_sigma"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        for name in (
            "element_rel_sigma",
            "gain_sigma",
            "clock_delay_sigma",
            "diff_phase_sigma",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in (
            "gain_intrinsic_fraction",
            "clock_intrinsic_fraction",
            "diff_intrinsic_fraction",
        ):
            frac = getattr(self, name)
            if not 0.0 < frac <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {frac}")
        if self.range_margin < 1.0:
            raise ConfigError("range_margin must be >= 1")
        if len(self.weights) != 3 or any(w <= 0 for w in self.weights):
            raise ConfigError(f"weights must be three positive values: {self.weights}")
        self._check_coverage()

    # -- derived sizing ----------------------------------------------------

    @property
    def _reach_factor(self) -> float:
        return self.coverage_sigma * self.range_margin

    @property
    def tail_element_sigma(self) -> float:
        """Element sigma that puts gain_intrinsic_fraction of gain variance
        into the selected tail sum: sigma_gain ~= alpha * sigma_el * sqrt(k)/k."""
        return (
            math.sqrt(self.k_selected)
            * math.sqrt(self.gain_intrinsic_fraction)
            * self.gain_sigma
            / self.gain_alpha
        )

    @property
    def tail_extrinsic_sigma(self) -> float:
        return math.sqrt(1.0 - self.gain_intrinsic_fraction) * self.gain_sigma

    @property
    def tail_step(self) -> float:
        return _power_law_step(self.gain_alpha, self._reach_factor * self.gain_sigma)

    @property
    def clock_intrinsic_sigma(self) -> float:
        return math.sqrt(self.clock_intrinsic_fraction) * self.clock_delay_sigma

    @property
    def clock_extrinsic_sigma(self) -> float:
        return math.sqrt(1.0 - self.clock_intrinsic_fraction) * self.clock_delay_sigma

    @property
    def clock_drive(self) -> float:
        """Drive coefficient making the inverter's own width mismatch worth
        exactly the intrinsic clock-delay sigma."""
        if self.clock_delay_sigma == 0.0:
            return 0.0
        return (
            self.clock_intrinsic_sigma
            * math.sqrt(self.k_selected)
            / self.element_rel_sigma
        )

    @property
    def clock_step(self) -> float:
        if self.clock_delay_sigma == 0.0:
            return 0.0
        return _inverse_width_step(
            self.clock_drive, self._reach_factor * self.clock_delay_sigma
        )

    @property
    def buffer_network_sigma(self) -> float:
        """Intrinsic delay sigma of one rise or fall buffer network (the
        intrinsic differential-phase variance splits between the two)."""
        return math.sqrt(self.diff_intrinsic_fraction / 2.0) * self.diff_phase_sigma

    @property
    def buffer_extrinsic_sigma(self) -> float:
        return math.sqrt((1.0 - self.diff_intrinsic_fraction) / 2.0) * self.diff_phase_sigma

    @property
    def buffer_drive(self) -> float:
        if self.diff_phase_sigma == 0.0:
            return 0.0
        return (
            self.buffer_network_sigma
            * math.sqrt(self.k_selected)
            / self.element_rel_sigma
        )

    @property
    def buffer_step(self) -> float:
        if self.diff_phase_sigma == 0.0:
            return 0.0
        return _inverse_width_step(
            self.buffer_drive, self._reach_factor * self.diff_phase_sigma
        )

    def _check_coverage(self) -> None:
        """Tuning ranges must cover coverage_sigma of the total variation."""
        if self.element_rel_sigma == 0.0 and (
            self.gain_sigma or self.clock_delay_sigma or self.diff_phase_sigma
        ):
            raise ConfigError("element_rel_sigma must be > 0 when variances are set")
        for name, step, drive, total in (
            ("clock", self.clock_step, self.clock_drive, self.clock_delay_sigma),
            ("buffer", self.buffer_step, self.buffer_drive, self.diff_phase_sigma),
        ):
            if total == 0.0:
                continue
            down_reach = drive * 3.0 * step / (1.0 + 3.0 * step)
            if down_reach + 1e-18 < self.coverage_sigma * total:
                raise ConfigError(
                    f"{name} tuning range covers only {down_reach:g}s of the "
                    f"required {self.coverage_sigma * total:g}s"
                )
        if self.gain_sigma > 0.0:
            d = self.tail_step
            up = (1.0 + 3.0 * d) ** self.gain_alpha - 1.0
            down = 1.0 - (1.0 - 3.0 * d) ** self.gain_alpha
            need = self.coverage_sigma * self.gain_sigma
            if min(up, down) + 1e-15 < need:
                raise ConfigError(
                    f"gain tuning range covers only {min(up, down):g} of the "
                    f"required {need:g} relative deviation"
                )
        for name, step in (
            ("tail_step", self.tail_step),
            ("clock_step", self.clock_step),
            ("buffer_step", self.buffer_step),
        ):
            if step * (self.n_elements - 1) >= 2.0:
                raise ConfigError(f"{name} {step:g} drives element sizes non-positive")

    # -- element populations -------------------------------------------------

    def tail_scheme(self) -> Arithmetic:
        return Arithmetic(mean=1.0, step=self.tail_step)

    def tail_model(self) -> MismatchModel:
        return MismatchModel(sigma_ref=max(self.tail_element_sigma, 0.0), size_ref=1.0)

    def width_scheme(self, step: float) -> Arithmetic:
        return Arithmetic(mean=1.0, step=step)

    def width_model(self) -> MismatchModel:
        return MismatchModel(sigma_ref=self.element_rel_sigma, size_ref=1.0)


# ---------------------------------------------------------------------------
# sampled state
# ---------------------------------------------------------------------------


def _nominal_half(elements: ElementSet, k: int) -> float:
    """Nominal sum of k elements: the design value of any k-selection."""
    return float(elements.nominal.mean()) * k


@dataclasses.dataclass(frozen=True, eq=False)
class TunableInverter:
    """One selectable-width network: delay = base + drive * W_nominal_half/W_selected.

    ``extrinsic_error`` is the part of the stage's delay spread the selection
    cannot see (wiring, loading, everything outside the selected widths).
    ``delay`` and ``deviation`` (from the design point base + drive) are
    derived once, when the inverter is built.
    """

    elements: ElementSet
    selection: Combination
    base_delay: float
    drive_coefficient: float
    extrinsic_error: float = 0.0
    delay: float = dataclasses.field(init=False)
    deviation: float = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        delay = self.base_delay
        if self.drive_coefficient != 0.0:
            w_nominal_half = _nominal_half(self.elements, self.selection.k)
            w_selected = subset_value(self.elements, self.selection)
            delay += self.drive_coefficient * (w_nominal_half / w_selected)
        delay += self.extrinsic_error
        if delay <= 0.0:
            raise ConfigError("inverter delay must stay strictly positive")
        object.__setattr__(self, "delay", delay)
        deviation = delay - self.base_delay - self.drive_coefficient
        object.__setattr__(self, "deviation", deviation)

    def with_selection(self, selection: Combination) -> "TunableInverter":
        return dataclasses.replace(self, selection=selection)


@dataclasses.dataclass(frozen=True, eq=False)
class LoPhaseSet:
    """Eight LO phases and the inverters that set their edge timing.

    Phase p's rise edge error = clock_networks[p % 4] deviation (common to the
    whole differential pair) + rise_networks[p] deviation; fall edges likewise
    through fall_networks[p].  All errors are seconds, held in the (8,)
    ``rise_errors`` and ``fall_errors`` arrays built with the set.
    """

    clock_networks: tuple[TunableInverter, ...]
    rise_networks: tuple[TunableInverter, ...]
    fall_networks: tuple[TunableInverter, ...]
    rise_errors: np.ndarray = dataclasses.field(init=False)
    fall_errors: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        if len(self.clock_networks) != N_PHASES // 2:
            raise ConfigError("need one clock inverter per differential pair")
        if len(self.rise_networks) != N_PHASES or len(self.fall_networks) != N_PHASES:
            raise ConfigError("need one rise and one fall network per phase")
        clock = np.tile([c.deviation for c in self.clock_networks], 2)
        for name, nets in (("rise", self.rise_networks), ("fall", self.fall_networks)):
            errors = clock + np.array([net.deviation for net in nets])
            errors.setflags(write=False)
            object.__setattr__(self, f"{name}_errors", errors)


@dataclasses.dataclass(frozen=True, eq=False)
class HrBranch:
    """One mixing branch: differential phase pair + selectable tail current;
    ``ratio`` (selected over nominal tail current) is derived when built."""

    lo_phase_index: int
    elements: ElementSet
    selection: Combination
    extrinsic_error: float = 0.0
    ratio: float = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.lo_phase_index < N_PHASES // 2:
            raise ConfigError(f"lo_phase_index out of range: {self.lo_phase_index}")
        i_selected = subset_value(self.elements, self.selection)
        ratio = i_selected / _nominal_half(self.elements, self.selection.k)
        object.__setattr__(self, "ratio", ratio)

    def gain(self, alpha: float) -> float:
        return self.ratio**alpha * (1.0 + self.extrinsic_error)

    def with_selection(self, selection: Combination) -> "HrBranch":
        return dataclasses.replace(self, selection=selection)


@dataclasses.dataclass(frozen=True, eq=False)
class HrReceiverSample:
    """One Monte Carlo receiver instance: four branches sharing an LO phase set."""

    config: HrConfig
    phases: LoPhaseSet
    branches: tuple[HrBranch, ...]

    def __post_init__(self) -> None:
        if len(self.branches) != 4:
            raise ConfigError("need exactly four branches (phase families 0..3)")


def sample_receiver(
    config: HrConfig, rng: Union[np.random.Generator, int, None]
) -> HrReceiverSample:
    """Draw one receiver.  Draw order is fixed: per-branch tail elements then
    extrinsic gain error, per-pair clock network then extrinsic delay, then per
    phase the rise network + extrinsic and fall network + extrinsic."""
    rng = np.random.default_rng(rng)
    n, k = config.n_elements, config.k_selected
    start = balanced_combination(n, k)

    branches = []
    for m in range(4):
        es = sample_element_set(config.tail_scheme(), config.tail_model(), n, rng)
        ext = float(rng.normal(0.0, config.tail_extrinsic_sigma))
        branches.append(
            HrBranch(
                lo_phase_index=m,
                elements=es,
                selection=start,
                extrinsic_error=ext,
            )
        )

    def draw_inverter(step: float, drive: float, ext_sigma: float) -> TunableInverter:
        es = sample_element_set(config.width_scheme(step), config.width_model(), n, rng)
        ext = float(rng.normal(0.0, ext_sigma))
        return TunableInverter(
            elements=es,
            selection=start,
            base_delay=config.base_delay,
            drive_coefficient=drive,
            extrinsic_error=ext,
        )

    clocks = tuple(
        draw_inverter(config.clock_step, config.clock_drive, config.clock_extrinsic_sigma)
        for _ in range(4)
    )
    rises, falls = [], []
    for _ in range(N_PHASES):
        rises.append(
            draw_inverter(
                config.buffer_step, config.buffer_drive, config.buffer_extrinsic_sigma
            )
        )
        falls.append(
            draw_inverter(
                config.buffer_step, config.buffer_drive, config.buffer_extrinsic_sigma
            )
        )

    phases = LoPhaseSet(
        clock_networks=clocks,
        rise_networks=tuple(rises),
        fall_networks=tuple(falls),
    )
    return HrReceiverSample(config=config, phases=phases, branches=tuple(branches))


def zero_variance_receiver(config: Optional[HrConfig] = None) -> HrReceiverSample:
    """Receiver with every mismatch source switched off, weights kept.

    Branch gains are exactly the configured recombination weights and all
    edges land on their nominal grid, so the spectrum equals the closed-form
    prediction for those weights.
    """
    base = config if config is not None else HrConfig()
    cfg = dataclasses.replace(
        base,
        element_rel_sigma=0.0,
        gain_sigma=0.0,
        clock_delay_sigma=0.0,
        diff_phase_sigma=0.0,
    )
    return sample_receiver(cfg, rng=0)


# ---------------------------------------------------------------------------
# effective LO and spectra
# ---------------------------------------------------------------------------


def _check_edge_errors(sample: HrReceiverSample, f: float) -> None:
    worst = float(np.abs((sample.phases.rise_errors, sample.phases.fall_errors)).max())
    if worst * f >= 1.0 / 16.0:
        raise ConfigError(
            f"edge timing error {worst:g}s exceeds 1/16 of the {1.0 / f:g}s period"
        )


def effective_lo(sample: HrReceiverSample, path: str, f: float) -> EdgeWaveform:
    """Weighted sum of the path's three differential LO waveforms at frequency f.

    Timing errors are fixed in seconds, so their fractional (phase) impact
    scales with f.  Branch amplitudes are gain * positional weight.
    """
    if path not in PATH_BRANCHES:
        raise ConfigError(f"path must be 'I' or 'Q', got {path!r}")
    if f <= 0:
        raise ConfigError(f"frequency must be > 0, got {f}")
    _check_edge_errors(sample, f)
    cfg = sample.config
    period = 1.0 / f
    waves: list[EdgeWaveform] = []
    amps: list[float] = []
    for pos, bi in enumerate(PATH_BRANCHES[path]):
        branch = sample.branches[bi]
        amp = branch.gain(cfg.gain_alpha) * cfg.weights[pos]
        for phase, sign in ((branch.lo_phase_index, 1.0), (branch.lo_phase_index + 4, -1.0)):
            rise = (phase / 8.0 + f * sample.phases.rise_errors[phase]) % 1.0
            fall = (phase / 8.0 + 0.5 + f * sample.phases.fall_errors[phase]) % 1.0
            waves.append(square_wave(period, rise, fall))
            amps.append(sign * amp)
    return combine(waves, amps)


def _first_and_nth(sample: HrReceiverSample, path: str, n: int, f: float) -> tuple[complex, complex]:
    if n < 2:
        raise ConfigError(f"harmonic index must be >= 2, got {n}")
    lo = effective_lo(sample, path, f)
    c1 = fourier_coeff(lo, 1)
    cn = fourier_coeff(lo, n)
    if abs(c1) == 0.0:
        raise DegenerateConfigurationError(
            "effective LO has no fundamental component (all branch gains zero?)"
        )
    return c1, cn


def hrr(sample: HrReceiverSample, path: str, n: int, f: float) -> float:
    """Harmonic rejection ratio 20*log10(|c1|/|cn|) in dB; inf below 1e-15."""
    c1, cn = _first_and_nth(sample, path, n, f)
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
            "trace": [dataclasses.asdict(s) for s in self.steps],
        }


#: every knob, by the name the trace and the selection snapshot use
_KNOB_NAMES = tuple(
    f"{kind}{i}"
    for kind, count in (("tail", 4), ("clock", 4), ("rise", N_PHASES), ("fall", N_PHASES))
    for i in range(count)
)


def _knob(sample: HrReceiverSample, name: str) -> Union[HrBranch, TunableInverter]:
    """The branch (``tail<m>``) or inverter (``clock<m>``, ``rise<p>``,
    ``fall<p>``) that knob ``name`` tunes."""
    kind, index = name[:-1], int(name[-1])
    if kind == "tail":
        return sample.branches[index]
    return getattr(sample.phases, f"{kind}_networks")[index]


def _with_knob(sample: HrReceiverSample, name: str, combo: Combination) -> HrReceiverSample:
    """``sample`` with knob ``name`` switched to selection ``combo``."""
    kind, index = name[:-1], int(name[-1])
    if kind == "tail":
        branches = list(sample.branches)
        branches[index] = branches[index].with_selection(combo)
        return dataclasses.replace(sample, branches=tuple(branches))
    field = f"{kind}_networks"
    nets = list(getattr(sample.phases, field))
    nets[index] = nets[index].with_selection(combo)
    return dataclasses.replace(
        sample, phases=dataclasses.replace(sample.phases, **{field: tuple(nets)})
    )


def _selection_snapshot(sample: HrReceiverSample) -> dict[str, tuple[int, ...]]:
    return {name: _knob(sample, name).selection.indices for name in _KNOB_NAMES}


def _branch_edges(sample: HrReceiverSample, bi: int, f: float) -> tuple[np.ndarray, np.ndarray]:
    """Edge times (period fractions) and level deltas of branch bi's
    differential waveform w_p - w_{p+4}, at unit amplitude."""
    p = sample.branches[bi].lo_phase_index
    ph = sample.phases
    times = np.array(
        [
            p / 8.0 + f * ph.rise_errors[p],
            p / 8.0 + 0.5 + f * ph.fall_errors[p],
            p / 8.0 + 0.5 + f * ph.rise_errors[p + 4],
            p / 8.0 + f * ph.fall_errors[p + 4],
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


def _best_selection(
    sample: HrReceiverSample, name: str, path: Optional[str], n: int, f: float
) -> Combination:
    """The selection of knob ``name`` that minimizes |c_n/c_1|^2, found by
    scoring every k-subset of the knob's elements in closed form.

    Each candidate's coefficient is c_h = rest_h + amp * u_h: ``rest_h`` sums
    the other measured branches, ``amp`` is the knob's branch amplitude
    (gain * weight) and ``u_h`` its unit-amplitude coefficient.  A tail
    candidate changes amp, a clock candidate shifts all four edges of its pair
    and so rotates u_h by exp(-2 pi i h f shift), and a buffer candidate moves
    one edge of u_h.  With ``path`` None the knob's branch is measured alone:
    rest is 0 and amp is 1.  Ties go to the first candidate in lexicographic
    order.
    """
    cfg = sample.config
    kind, index = name[:-1], int(name[-1])
    knob = _knob(sample, name)
    bi = index % 4  # the branch whose tail, clock or edge the knob sets
    members = PATH_BRANCHES[path] if path else (bi,)
    harmonics = (1, n)
    rest: dict[int, complex] = {h: 0 for h in harmonics}
    for pos, other in enumerate(members):
        if other != bi:
            times, deltas = _branch_edges(sample, other, f)
            other_amp = sample.branches[other].gain(cfg.gain_alpha) * cfg.weights[pos]
            rest = {
                h: rest[h] + other_amp * complex(edge_fourier(times, deltas, h))
                for h in harmonics
            }
    own = members.index(bi)
    amp = sample.branches[bi].gain(cfg.gain_alpha) * cfg.weights[own] if path else 1.0
    times, deltas = _branch_edges(sample, bi, f)

    sums = all_subset_sums(knob.elements.realized, cfg.k_selected)
    nominal_half = _nominal_half(knob.elements, cfg.k_selected)
    if kind == "tail":
        gains = (sums / nominal_half) ** cfg.gain_alpha * (1.0 + knob.extrinsic_error)
        amp = gains * cfg.weights[own]
    else:
        if knob.drive_coefficient == 0.0:
            devs = np.full(sums.shape, knob.extrinsic_error)
        else:
            devs = (
                knob.drive_coefficient * (nominal_half / sums - 1.0)
                + knob.extrinsic_error
            )
        shift = devs - knob.deviation
        if kind != "clock":  # edges are ordered rise p, fall p, rise p+4, fall p+4
            times = np.broadcast_to(times, (shift.size, 4)).copy()
            times[:, 2 * (index // 4) + (kind == "fall")] += f * shift
    unit = {h: edge_fourier(times, deltas, h) for h in harmonics}
    if kind == "clock":
        unit = {h: unit[h] * np.exp(-2j * np.pi * h * f * shift) for h in harmonics}
    c1, cn = (rest[h] + amp * unit[h] for h in harmonics)
    best = int(np.argmin(np.abs(cn) ** 2 / np.abs(c1) ** 2))
    index_matrix = combination_index_matrix(knob.elements.n, cfg.k_selected)
    return Combination(tuple(int(i) for i in index_matrix[best]))


def _calibrate_stage(
    sample: HrReceiverSample,
    steps: list[CalStep],
    stage: str,
    iteration: Optional[int],
    knobs: Sequence[str],
    path: Optional[str],
    n: int,
    f: float,
) -> HrReceiverSample:
    """Cycle over ``knobs`` until a full pass commits no change, at most
    ``_MAX_STAGE_PASSES`` times, appending one CalStep per knob visit.

    Each step takes the knob's closed-form best selection and keeps it only
    if the exact objective — ``measure_harmonic_power`` of ``path``, or the
    knobs' branch measured alone when ``path`` is None — does not get worse.
    The objective is measured once at stage start and once per step: a step's
    "before" is the previous step's "after".  Steps carry ``iteration``, or
    their pass index when it is None.
    """

    def measure(s: HrReceiverSample) -> float:
        if path is None:
            return _branch_objective(s, int(knobs[0][-1]) % 4, n, f)
        return measure_harmonic_power(s, path, n, f)

    before = measure(sample)
    for pass_index in range(_MAX_STAGE_PASSES):
        changed = False
        for name in knobs:
            trial = _with_knob(sample, name, _best_selection(sample, name, path, n, f))
            after = measure(trial)
            if after <= before:
                sample = trial
                changed = changed or after < before
            else:  # closed-form/pipeline rounding disagreement: keep current
                after = before
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
    for m in range(4):
        knobs = (f"rise{m}", f"fall{m}", f"rise{m + 4}", f"fall{m + 4}")
        sample = _calibrate_stage(sample, steps, "even", None, knobs, None, 2, f)
    return sample, CalReport(steps=tuple(steps), selections=_selection_snapshot(sample))


def calibrate_odd_order(
    sample: HrReceiverSample, f_0: float, f_low: float, iterations: int = 2
) -> tuple[HrReceiverSample, CalReport]:
    """Gain-then-phase odd-harmonic calibration.

    Per iteration: (1) at f_low — where fixed timing errors have negligible
    phase impact — each path's tail currents are tuned against its own
    3rd-harmonic power (I path: branches 0,1,2; Q path: branch 3, reusing the
    shared 45/90-degree results); (2) at f_0 the pair clock inverters are
    tuned the same way (I path: clocks 0-2; Q path: clock 3).  Exhaustive
    searches, candidates scored in closed form, commits never regress the
    measured objective.  Each stage cycles over its knobs until a full pass
    commits no change, so one iteration leaves the stage at its search floor;
    with f_low well below f_0 the second iteration is already quiescent.
    """
    if f_low >= f_0:
        raise ConfigError(f"f_low {f_low:g} must be below f_0 {f_0:g}")
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    steps: list[CalStep] = []
    for it in range(1, iterations + 1):
        for stage, kind, f in (("gain", "tail", f_low), ("phase", "clock", f_0)):
            for path, tuned in (("I", (0, 1, 2)), ("Q", (3,))):
                knobs = tuple(f"{kind}{m}" for m in tuned)
                sample = _calibrate_stage(sample, steps, stage, it, knobs, path, 3, f)
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
        for n in n_list:
            value = min(hrr(sample, path, n, f), HRR_DB_CAP)
            out.append(HrrPoint(f_hz=float(f), n=int(n), hrr_db=value))
    return out
