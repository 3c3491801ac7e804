"""Reference implementations that only the tests call.

The sequential DAC decode, the per-cell amplitude residuals, a converter
with the selections the package's array calibrations pick, one set's
best-match residual, the linearity maxima of a full transfer curve, one
converter's amplitude yield row, the five-pass timing calibration, one
converter's timing and self-heal yield rows with the pre-heal linearity, the
per-reading sensing path built from waveform objects (square waves, cyclic
shifts, level lookup and the exact product average), the zero-variance
receiver and the textbook ideal receiver built on it, the HRR of one point,
a waveform's edge count, a scalar failure-rate query, a study's distances
from subset sums added in a fixed order, a subset-sum product that adds in
a random order or in row order, the resolution frontier as one study per (sigma_t,
d) pair, a waveform scaled by a gain, the weighted sum of waveforms and the
receiver's effective LO built from it, one square wave per phase, the
set-by-set element draw with its subset sum, the scalar inverse-width delay
law that the receiver's and the converter's timing networks are checked
against, one network or one subset at a time, the mixer's knob scorer with
all four edges of every candidate evaluated, the mixer's calibration stage
with a search at every step, and the self-heal controller as one audition at
a time with an index tuple per healed cell: the tests check the package's
fast paths against them, and no program code needs them.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from subsetcal import csdac, hrmixer
from subsetcal.csdac import (
    SENSE_MODES,
    DacConfig,
    DacSample,
    LinearityMaxima,
    SelfHealConfig,
    SelfHealSample,
    SensingConfig,
    calibrate_amplitude_eses,
    linearity_from_curve,
    sample_dac,
    sample_selfheal,
    self_heal_ses,
    ucc_currents,
)
from subsetcal.hrmixer import (
    _KNOB_ROWS,
    GAIN_ALPHA,
    PATH_BRANCHES,
    HrConfig,
    HrReceiverSample,
    _branch_edges,
    _branch_gain,
    _check_edge_errors,
    _first_and_nth,
    _hrr_db,
    _knob_design,
    sample_receiver,
)
from subsetcal.mismatch import (
    Arithmetic,
    ConfigError,
    MismatchModel,
    all_subset_sums,
    balanced_row,
    combination_index_matrix,
    draw_realized,
    find_best,
    membership_matrix,
    nominal_sizes,
    selected_sums,
    subset_deviations,
)
from subsetcal.runner import sample_substream
from subsetcal.studies import (
    BLOCK,
    FrontierEntry,
    GaussianOffset,
    StudyConfig,
    r_cal,
    run_study,
)
from subsetcal.waveform import EdgeWaveform, edge_fourier


def dac_output(sample: DacSample, code: int) -> float:
    """Output current for one code: thermometer MSB decode + binary LSB part.

    Kept as a plain sequential sum — the readable reference semantics the
    vectorized ``transfer_curve`` must agree with.
    """
    if not isinstance(code, (int, np.integer)):
        raise ConfigError(f"code must be an integer, got {type(code).__name__}")
    if not 0 <= code < sample.config.n_codes:
        raise ConfigError(
            f"code must be in [0, {sample.config.n_codes - 1}], got {code}"
        )
    segments = int(code) >> sample.config.lsb_bits
    residue = int(code) & (sample.config.lsb_levels - 1)
    combos = combination_index_matrix(sample.config.n, sample.config.k)
    total = 0.0
    for cell in range(segments):
        selected = combos[sample.amplitude_selection[cell]]
        total += float(sample.amplitude[cell, selected].sum())
    for b, bit_current in enumerate(sample.lsb_bit_currents):
        if residue >> b & 1:
            total += bit_current
    return total


def amplitude_residuals(sample: DacSample) -> np.ndarray:
    """Per-UCC current minus the sample's realized reference current."""
    return ucc_currents(sample) - sample.reference_current


def amplitude_calibrated(sample: DacSample) -> DacSample:
    """``sample`` with the amplitude selections ``calibrate_amplitude_eses``
    picks.  Sizes and buffer delays do not change, so they are not checked
    again."""
    cfg = sample.config
    selection = calibrate_amplitude_eses(sample.amplitude, sample.reference_current, cfg.k)
    calibrated = copy.copy(sample)
    object.__setattr__(calibrated, "amplitude_selection", selection)
    return calibrated


def timing_calibrated(sample: DacSample) -> DacSample:
    """``sample`` with the delay and tuned-duty selections
    ``csdac.calibrate_timing`` picks from its buffer deviations."""
    current = np.stack([sample.delay_selection, sample.duty_selection], axis=1)
    best = csdac.calibrate_timing(
        sample.config, sample.widths, sample.extrinsic, sample.deviations, current
    )
    return dataclasses.replace(sample, delay_selection=best[:, 0], duty_selection=best[:, 1])


def find_best_residual(realized: np.ndarray, k: int, target: float) -> tuple[int, float]:
    """``find_best``'s row for one (n,) set, and that subset's sum less the
    target, read from ``all_subset_sums``."""
    row = int(find_best(realized, k, target))
    return row, float(all_subset_sums(realized, k)[row] - target)


def curve_maxima(currents, lsb_vals: np.ndarray) -> LinearityMaxima:
    """INL and DNL maxima of the full transfer curve of cell ``currents``
    over the LSB values ``lsb_vals``, read by ``linearity_from_curve``."""
    report = linearity_from_curve(csdac._curve_from_levels(currents, lsb_vals))
    return LinearityMaxima(report.inl_max, report.dnl_max)


def amplitude_row(config: DacConfig, master_seed: int, i: int) -> tuple:
    """One converter's amplitude yield row, as one converter at a time
    composes it: ``sample_dac`` on sample i's stream, then the full-curve
    linearity maxima of its balanced and its ``calibrate_amplitude_eses``
    cell currents."""
    sample = sample_dac(config, sample_substream(master_seed, i))
    lsb_vals = csdac._lsb_values(sample.lsb_bit_currents)
    pre = curve_maxima(ucc_currents(sample), lsb_vals)
    post = curve_maxima(ucc_currents(amplitude_calibrated(sample)), lsb_vals)
    return i, pre.inl_max, post.inl_max, pre.dnl_max, post.dnl_max


def calibrate_timing(sample: DacSample) -> DacSample:
    """Exhaustive timing calibration of every UCC, as five passes over every
    subset of the delay and tuned-duty buffers: the subset deviations from
    today's per-cell product, less the fixed buffer's deviation for duty,
    then the first index of the least absolute value.  A buffer without
    drive keeps its selection."""
    cfg = sample.config
    design = csdac._cell_design(cfg)
    fixed = sample.deviations[:, 2]
    distance = subset_deviations(  # delay and tuned-duty buffers, every subset
        sample.widths[:, :2] @ membership_matrix(cfg.n, cfg.k),
        design.drives[:2, None],
        design.halves[:2, None],
        sample.extrinsic[:, :2, None],
    )
    distance[:, 1] -= fixed[:, None]
    best = np.argmin(np.abs(distance, out=distance), axis=2)
    current = np.stack([sample.delay_selection, sample.duty_selection], axis=1)
    best = np.where(design.drives[:2] == 0.0, current, best)
    return dataclasses.replace(
        sample, delay_selection=best[:, 0], duty_selection=best[:, 1]
    )


def timing_row(config: DacConfig, master_seed: int, i: int) -> tuple:
    """One converter's timing yield row, as one converter at a time composes
    it: ``sample_dac`` on sample i's stream, then the standard deviations of
    its delay and duty errors before and after the five-pass
    ``calibrate_timing``."""
    sample = sample_dac(config, sample_substream(master_seed, i))
    pre = sample.deviations
    post = calibrate_timing(sample).deviations
    return (
        i, float(np.std(pre[:, 0])), float(np.std(post[:, 0])),
        float(np.std(pre[:, 1] - pre[:, 2])), float(np.std(post[:, 1] - post[:, 2])),
    )


def selfheal_pre_linearity(sample: SelfHealSample) -> LinearityMaxima:
    """Full-curve linearity maxima before healing: balanced selections,
    balanced bias."""
    cfg = sample.config
    balanced = balanced_row(cfg.n, cfg.k)
    scale = float(selected_sums(sample.bias_elements, balanced, cfg.k)) / float(cfg.k)
    currents = selected_sums(sample.cells, balanced, cfg.k) * scale
    return curve_maxima(currents, sample.lsb_values)


def selfheal_row(config: SelfHealConfig, master_seed: int, i: int) -> tuple:
    """One converter's self-heal yield row, as one converter at a time
    composes it: ``sample_selfheal`` and ``self_heal_ses`` on sample i's
    stream, with the linearity before and after healing (NaN after a failed
    run)."""
    rng = sample_substream(master_seed, i)
    sample = sample_selfheal(config, rng)
    pre = selfheal_pre_linearity(sample)
    result = self_heal_ses(sample, rng)
    if result.healed:
        post = curve_maxima(result.cell_currents, sample.lsb_values)
        post_inl, post_dnl = post.inl_max, post.dnl_max
    else:
        post_inl = post_dnl = math.nan
    healed = 1.0 if result.healed else 0.0
    return i, healed, float(result.restarts), pre.inl_max, post_inl, pre.dnl_max, post_dnl


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


def hrr(sample: HrReceiverSample, path: str, n: int, f: float) -> float:
    """Harmonic rejection ratio 20*log10(|c1|/|cn|) in dB; inf below 1e-15."""
    return _hrr_db(*_first_and_nth(sample, path, n, f))


def n_edges(wave: EdgeWaveform) -> int:
    """Number of level transitions in one period of ``wave``."""
    return int(wave.times.size)


def ideal_receiver(config: Optional[HrConfig] = None) -> HrReceiverSample:
    """Zero-variance receiver with exact 1:sqrt(2):1 recombination weights.

    Every harmonic-cancellation condition holds exactly, so HRR3 = HRR5 = inf;
    useful as the textbook reference point and as a calibration no-op check.
    """
    base = config if config is not None else HrConfig()
    return zero_variance_receiver(
        dataclasses.replace(base, weights=(1.0, math.sqrt(2.0), 1.0))
    )


def failure_rate(config: StudyConfig, width: Optional[float] = None) -> float:
    """Scalar query: the study's failure rate at one window width."""
    if width is not None:
        config = dataclasses.replace(config, window_widths=(width,))
    elif len(config.window_widths) != 1:
        raise ConfigError("failure_rate without width needs a single-width config")
    return run_study(config).rows[0].failure_rate


def fixed_order_distances(
    config: StudyConfig, offsets: Sequence
) -> tuple[np.ndarray, int, np.ndarray]:
    """Per-sample distances (offsets, samples) of each of ``offsets`` on the
    element sets ``config`` draws, from every subset sum added in
    ``selected_sums``' order, which no BLAS kernel, chunk shape or thread
    count moves; returns (distances, resamples, each sample's largest
    element)."""
    nominal = nominal_sizes(config.scheme, config.n)
    sigmas = config.model.element_sigmas(nominal)
    sk = config.sigma_k_abs
    nominal_sum = config.k * nominal.mean()
    every = np.arange(math.comb(config.n, config.k))
    rows_per_gather = max(1, 2**19 // (every.size * config.k))
    dist = np.empty((len(offsets), config.samples))
    largest = np.empty(config.samples)
    resamples = 0
    for start in range(0, config.samples, BLOCK):
        size = min(BLOCK, config.samples - start)
        rng = sample_substream(config.master_seed, start // BLOCK)
        realized, redraws = draw_realized(np.broadcast_to(nominal, (size, config.n)), sigmas, rng)
        resamples += redraws
        if any(isinstance(offset, GaussianOffset) for offset in offsets):
            z = rng.standard_normal(size)
        centers = [
            nominal_sum + z * (offset.sigma_t * sk)
            if isinstance(offset, GaussianOffset)
            else np.full(size, nominal_sum + offset.value * sk)
            for offset in offsets
        ]
        for lo in range(0, size, rows_per_gather):
            rows = slice(lo, lo + rows_per_gather)
            sums = selected_sums(realized[rows, None, :], every, config.k)
            for row, center in zip(dist, centers):
                row[start + lo : start + lo + len(sums)] = (
                    np.abs(sums - center[rows, None]).min(axis=1)
                )
        largest[start : start + size] = realized.max(axis=1)
    return dist, resamples, largest


def shuffled_subset_sums(rng: Optional[np.random.Generator]):
    """A stand-in for ``studies._subset_sums`` that adds each product entry's
    terms, the entries of ``realized`` whose ``members`` row is 1, left to
    right in an order drawn anew for every entry: a BLAS kernel as hostile
    to the sums' last bits as any can be.  A plain product adds k terms, a
    folded one k + 1, its -c at a random place among them.  With ``rng``
    None the terms go in row order, the folded -c last: for k < 8, the
    order of ``selected_sums`` followed by the subtract."""

    def subset_sums(realized: np.ndarray, members: np.ndarray, out: np.ndarray) -> None:
        columns = np.nonzero(members.T)[1].reshape(members.shape[1], -1)
        terms = realized[:, columns]
        if rng is not None:
            terms = rng.permuted(terms, axis=-1)
        out[...] = terms[..., 0]
        for j in range(1, terms.shape[-1]):
            out += terms[..., j]

    return subset_sums


def rcal_frontier_oracle(
    template: StudyConfig,
    sigma_t_list: Sequence[float],
    d_candidates: Sequence[float],
    width_grid: Sequence[float],
    yield_floor: float = 0.99,
) -> list[FrontierEntry]:
    """The resolution frontier with one study per (sigma_t, d) pair, sigma_t
    outer and the d candidates in order, a later pair winning only on a
    strictly larger r_cal."""
    widths = tuple(sorted(set(float(w) for w in width_grid)))
    center = template.scheme.mean
    sk = template.sigma_k_abs
    out = []
    for st in sigma_t_list:
        best = None  # (rcal, d, width)
        for d in d_candidates:
            scheme = Arithmetic(center, float(d) * sk)
            cfg = dataclasses.replace(
                template, scheme=scheme, offset=GaussianOffset(float(st)), window_widths=widths
            )
            for row in run_study(cfg).rows:
                if row.failure_rate <= 1.0 - yield_floor:
                    rc = r_cal(float(st), row.width)
                    if best is None or rc > best[0]:
                        best = (rc, float(d), row.width)
                    break
        if best is None:
            out.append(FrontierEntry(sigma_t=float(st), feasible=False))
        else:
            out.append(FrontierEntry(float(st), True, best[0], best[1], best[2]))
    return out


def value(wave: EdgeWaveform, t_frac) -> np.ndarray:
    """Waveform level at time fraction(s) t (taken modulo 1)."""
    t = np.mod(np.asarray(t_frac, dtype=float), 1.0)
    if wave.times.size == 0:
        return np.full_like(t, wave.dc)
    idx = np.searchsorted(wave.times, t, side="right") - 1
    return wave.levels[idx]  # idx == -1 wraps to the last level


def shifted(wave: EdgeWaveform, dt_frac: float) -> EdgeWaveform:
    """Cyclic time shift by dt (fraction of a period)."""
    if wave.times.size == 0:
        return wave
    t = np.mod(wave.times + dt_frac, 1.0)
    order = np.argsort(t, kind="stable")
    return EdgeWaveform(wave.period, t[order], wave.levels[order], wave.dc)


def square_wave(
    period: float, rise_frac: float, fall_frac: float, low: float = 0.0, high: float = 1.0
) -> EdgeWaveform:
    """Rectangular wave: ``high`` from rise to fall (cyclically), ``low`` elsewhere.

    rise and fall are period fractions (any reals; reduced modulo 1).  Equal
    rise/fall (mod 1) would be a zero-width pulse and is rejected.
    """
    r, f = float(np.mod(rise_frac, 1.0)), float(np.mod(fall_frac, 1.0))
    if r == f:
        raise ConfigError("square_wave needs distinct rise/fall times")
    if r < f:
        times, levels = np.array([r, f]), np.array([high, low])
    else:
        times, levels = np.array([f, r]), np.array([low, high])
    return EdgeWaveform(period, times, levels)


def product_average(a: EdgeWaveform, b: EdgeWaveform) -> float:
    """Exact period-average of the product a(t) * b(t).

    Both waveforms are evaluated on the union of their transition times; the
    product is constant on every resulting segment, so the average is an exact
    finite sum (no quadrature).
    """
    if a.period != b.period:
        raise ConfigError("product_average requires a common period")
    cuts = np.unique(np.concatenate([a.times, b.times]))
    if cuts.size == 0:
        return a.dc * b.dc
    la, lb = value(a, cuts), value(b, cuts)
    durations = np.empty_like(cuts)
    durations[:-1] = np.diff(cuts)
    durations[-1] = 1.0 - cuts[-1] + cuts[0]
    return float(np.dot(la * lb, durations))


@dataclasses.dataclass(frozen=True)
class SensedCell:
    """Square-wave cell output: amplitude (A) plus timing errors (s).

    ``delay`` shifts both edges; ``duty`` widens the high phase symmetrically
    (rise earlier by duty/2, fall later by duty/2).  Nominal is a 50% square.
    """

    amplitude: float
    delay: float = 0.0
    duty: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.amplitude) or self.amplitude < 0.0:
            raise ConfigError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not (math.isfinite(self.delay) and math.isfinite(self.duty)):
            raise ConfigError("delay and duty must be finite")


def cell_wave(cell: SensedCell, f: float) -> EdgeWaveform:
    rise = f * (cell.delay - cell.duty / 2.0)
    fall = 0.5 + f * (cell.delay + cell.duty / 2.0)
    if abs(f * cell.delay) + abs(f * cell.duty) / 2.0 >= 0.125:
        raise ConfigError(
            "timing errors must stay well below an eighth of the toggle period"
        )
    return square_wave(1.0 / f, rise, fall, low=0.0, high=cell.amplitude)


def double_frequency_square(period: float, center_frac: float) -> EdgeWaveform:
    """+/-1 square at twice the toggle rate, +1 pulses centered on the edges."""
    edges = sorted(
        (
            (math.fmod(center_frac - 0.125, 1.0) % 1.0, 1.0),
            (math.fmod(center_frac + 0.125, 1.0) % 1.0, -1.0),
            (math.fmod(center_frac + 0.375, 1.0) % 1.0, 1.0),
            (math.fmod(center_frac + 0.625, 1.0) % 1.0, -1.0),
        )
    )
    times = np.array([t for t, _ in edges])
    levels = np.array([v for _, v in edges])
    return EdgeWaveform(period, times, levels)


def sense_error(
    cell_a: SensedCell,
    cell_ref: SensedCell,
    mode: str,
    cfg: SensingConfig = SensingConfig(),
) -> float:
    """One reading of ``csdac.sense_readings`` built from waveform objects:
    both cells' square waves, the mode's modulation (the in-phase square,
    its quarter-period shift, or the double-rate square centered on the
    pair-mean edges) and their exact product averages, summed by
    ``np.dot``."""
    if mode not in SENSE_MODES:
        raise ConfigError(f"mode must be one of {SENSE_MODES}, got {mode!r}")
    f = cfg.f_meas
    wave_a = cell_wave(cell_a, f)
    wave_ref = cell_wave(cell_ref, f)
    mean_delay = 0.5 * (cell_a.delay + cell_ref.delay)
    mean_duty = 0.5 * (cell_a.duty + cell_ref.duty)
    in_phase = square_wave(
        1.0 / f,
        f * (mean_delay - mean_duty / 2.0),
        0.5 + f * (mean_delay + mean_duty / 2.0),
        low=-1.0,
        high=1.0,
    )
    if mode == "amplitude":
        modulation = in_phase
    elif mode == "delay":
        modulation = shifted(in_phase, 0.25)
    else:
        modulation = double_frequency_square(1.0 / f, f * mean_delay)
    return cfg.sensing_gain * (
        product_average(wave_a, modulation) - product_average(wave_ref, modulation)
    )


def scaled(wave: EdgeWaveform, gain: float) -> EdgeWaveform:
    """``wave`` with every level and its DC term multiplied by ``gain``."""
    return EdgeWaveform(wave.period, wave.times, wave.levels * gain, wave.dc * gain)


def combine(waveforms: Sequence[EdgeWaveform], weights: Sequence[float]) -> EdgeWaveform:
    """Weighted sum of waveforms sharing one period, as an exact edge list.

    Levels are evaluated on the union of transition times; edges where the
    combined level does not change are dropped.
    """
    if not waveforms:
        raise ConfigError("combine needs at least one waveform")
    period = waveforms[0].period
    for w in waveforms[1:]:
        if w.period != period:
            raise ConfigError("combine requires a common period")
    all_times = np.unique(
        np.concatenate([w.times for w in waveforms if w.times.size] or [np.empty(0)])
    )
    if all_times.size == 0:
        dc = float(sum(g * w.dc for g, w in zip(weights, waveforms)))
        return EdgeWaveform(period, np.empty(0), np.empty(0), dc)
    levels = np.zeros_like(all_times)
    for g, w in zip(weights, waveforms):
        levels += g * value(w, all_times)
    keep = levels != np.roll(levels, 1)
    if not np.any(keep):  # combination is constant
        return EdgeWaveform(period, np.empty(0), np.empty(0), float(levels[0]))
    return EdgeWaveform(period, all_times[keep], levels[keep])


def square_wave_lo(sample: HrReceiverSample, path: str, f: float) -> EdgeWaveform:
    """The path's effective LO at frequency f as ``combine`` of six
    ``square_wave`` objects: phase p high from its rise to its fall, with
    amplitude +gain * weight, and phase p + 4 with the negated amplitude, for
    each branch p of the path.  The same checks as ``hrmixer.effective_lo``
    come first."""
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
        amp = _branch_gain(sample, bi) * cfg.weights[pos]
        for phase, sign in ((bi, 1.0), (bi + 4, -1.0)):
            rise = (phase / 8.0 + f * sample.rise_errors[phase]) % 1.0
            fall = (phase / 8.0 + 0.5 + f * sample.fall_errors[phase]) % 1.0
            waves.append(square_wave(period, rise, fall))
            amps.append(sign * amp)
    return combine(waves, amps)


def sample_element_set(
    scheme: Arithmetic, model: MismatchModel, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, int]:
    """One element set with its own draw: nominal sizes plus Gaussian
    mismatch per element, non-positive sizes redrawn (the stream a
    set-by-set draw consumes).  Returns (nominal, realized, redraws)."""
    nominal = nominal_sizes(scheme, n)
    realized, resamples = draw_realized(nominal, model.element_sigmas(nominal), rng)
    return nominal, realized, resamples


def subset_value(realized: np.ndarray, indices: Sequence[int]) -> float:
    """Sum of the realized values of the selected elements of one (n,) set,
    added by a 1-D ``sum``."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and idx[-1] >= realized.shape[0]:
        raise ConfigError(
            f"combination index {idx[-1]} out of range for n={realized.shape[0]}"
        )
    return float(realized[idx].sum())


def inverter_deviation(
    nominal: np.ndarray,
    realized: np.ndarray,
    indices: Sequence[int],
    drive: float,
    extrinsic: float,
    base: float = 50e-12,
) -> float:
    """One selectable-width network's delay less its design point base +
    drive, in scalars: delay = base + drive * W_nominal_half / W_selected +
    extrinsic, where W_nominal_half is k times the mean nominal width and a
    network without drive leaves the width term out."""
    delay = base
    if drive != 0.0:
        w_nominal_half = float(nominal.mean()) * len(indices)
        delay += drive * (w_nominal_half / subset_value(realized, indices))
    delay += extrinsic
    return delay - base - drive


def subset_deviation(drive: float, half: float, subset_sum: float, extrinsic: float) -> float:
    """One subset's inverse-width deviation in scalars, as the all-subset
    tables take it: drive * (half / sum - 1.0) + extrinsic, and the extrinsic
    error alone for a network without drive."""
    if drive == 0.0:
        return extrinsic
    return drive * (half / subset_sum - 1.0) + extrinsic


def receiver_state(
    sample: HrReceiverSample,
) -> tuple[list[float], list[float], list[float], list[float]]:
    """A receiver's tail ratios (4), inverter deviations (20: clocks, rises,
    falls) and rise and fall edge errors (8 each), knob by knob: every knob
    read from its nominal sizes, its realized row and the index tuple of its
    selection.  Phase p's edge error is clock p % 4's deviation plus its own
    network's."""
    cfg = sample.config
    combos = combination_index_matrix(cfg.n_elements, cfg.k_selected)

    def knob(row: int, step: float) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        nominal = nominal_sizes(Arithmetic(1.0, step), cfg.n_elements)
        indices = tuple(int(i) for i in combos[sample.selection[row]])
        return nominal, sample.elements[row].copy(), indices

    ratios = []
    for m in range(4):
        nominal, realized, indices = knob(m, cfg.tail_step)
        i_nominal_half = float(nominal.mean()) * len(indices)
        ratios.append(subset_value(realized, indices) / i_nominal_half)
    deviations = []
    for row in range(4, 24):
        drive, step = cfg.clock_network if row < 8 else cfg.buffer_network
        nominal, realized, indices = knob(row, step)
        extrinsic = float(sample.extrinsic[row])
        deviations.append(inverter_deviation(nominal, realized, indices, drive, extrinsic))
    rise = [deviations[p % 4] + deviations[4 + p] for p in range(8)]
    fall = [deviations[p % 4] + deviations[12 + p] for p in range(8)]
    return ratios, deviations, rise, fall


def receiver_gain(sample: HrReceiverSample, m: int) -> float:
    """Branch m's gain, (selected / nominal tail current)**alpha * (1 + its
    extrinsic error), from ``receiver_state``."""
    ratio = receiver_state(sample)[0][m]
    return ratio**GAIN_ALPHA * (1.0 + float(sample.extrinsic[m]))


def knob_objectives(
    sample: HrReceiverSample, name: str, path: Optional[str], n: int, f: float
) -> np.ndarray:
    """|c_n/c_1|^2 of every selection row of knob ``name``, scored in closed
    form over every k-subset of the knob's elements; the knob's best row is
    the first minimum.

    Each candidate's coefficient is c_h = rest_h + amp * u_h: ``rest_h`` sums
    the other measured branches, ``amp`` is the knob's branch amplitude
    (gain * weight) and ``u_h`` its unit-amplitude coefficient.  A tail
    candidate changes amp, a clock candidate shifts all four edges of its pair
    and so rotates u_h by exp(-2 pi i h f shift), and a buffer candidate moves
    one edge of u_h; all four edges of every buffer candidate are evaluated.
    With ``path`` None the knob's branch is measured alone: rest is 0 and amp
    is 1.
    """
    cfg = sample.config
    design = _knob_design(cfg)
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

    sums = all_subset_sums(sample.elements[row], cfg.k_selected)
    half, extrinsic = design.halves[row], sample.extrinsic[row]
    if kind == "tail":
        gains = (sums / half) ** GAIN_ALPHA * (1.0 + extrinsic)
        amp = gains * cfg.weights[own]
    else:
        drive = design.drives[row - 4]
        if drive == 0.0:
            devs = np.full(sums.shape, extrinsic)
        else:
            devs = drive * (half / sums - 1.0) + extrinsic
        shift = devs - sample.deviations[row - 4]
        if kind != "clock":  # edges are ordered rise p, fall p, rise p+4, fall p+4
            times = np.broadcast_to(times, (shift.size, 4)).copy()
            times[:, 2 * (index // 4) + (kind == "fall")] += f * shift
    unit = {h: edge_fourier(times, deltas, h) for h in harmonics}
    if kind == "clock":
        unit = {h: unit[h] * np.exp(-2j * np.pi * h * f * shift) for h in harmonics}
    c1, cn = (rest[h] + amp * unit[h] for h in harmonics)
    return np.abs(cn) ** 2 / np.abs(c1) ** 2


def calibrate_stage(
    sample: HrReceiverSample,
    steps: list,
    stage: str,
    iteration: Optional[int],
    knobs: Sequence[str],
    path: Optional[str],
    n: int,
    f: float,
    tables: dict,
) -> HrReceiverSample:
    """``hrmixer._calibrate_stage`` with a closed-form search at every step,
    also where the stage has already searched the knob at the same
    selections.  The searches, trials and measures go through the
    ``hrmixer`` module, so a test that patches them there patches both."""

    def measure(s: HrReceiverSample) -> float:
        if path is None:
            return hrmixer._branch_objective(s, int(knobs[0][-1]) % 4, n, f)
        return hrmixer.measure_harmonic_power(s, path, n, f)

    before = measure(sample)
    for pass_index in range(hrmixer._MAX_STAGE_PASSES):
        changed = False
        for name in knobs:
            best = hrmixer._best_selection(sample, name, path, n, f, tables)
            after = before
            if best != sample.selection[_KNOB_ROWS[name]]:
                trial = hrmixer._with_knob(sample, name, best)
                measured = measure(trial)
                if measured <= before:
                    sample, after = trial, measured
                    changed = changed or after < before
            label = pass_index if iteration is None else iteration
            steps.append(hrmixer.CalStep(stage, label, name, before, after))
            before = after
        if not changed:
            break
    return sample


@dataclasses.dataclass(frozen=True, eq=False)
class SelfHealOracleResult:
    """``self_heal_oracle``'s outcome: selections as element index tuples,
    per-cell tuples and the full trace dict, built as the search runs."""

    healed: bool
    bias_selection: tuple[int, ...]
    scale: float
    selections: Optional[tuple[tuple[int, ...], ...]]
    sources: Optional[tuple[int, ...]]
    cell_currents: Optional[tuple[float, ...]]
    trace: dict


def self_heal_oracle(sample: SelfHealSample, rng=0) -> SelfHealOracleResult:
    """The self-heal controller one audition at a time: one
    ``gen.integers(0, C(n,k), cell_trial_limit)`` call and one scored block
    per audition, cells in order, each cell's own block, then the pooled
    backups in pool order; a failed cell redraws the bias and restarts."""
    cfg = sample.config
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    gen = np.random.default_rng(rng)
    indices = combination_index_matrix(cfg.n, cfg.k)
    n_combos = indices.shape[0]
    window_low = sample.reference_current
    window_high = window_low + cfg.i_tiny

    attempts_log: list[dict] = []
    bias = tuple(int(i) for i in indices[balanced_row(cfg.n, cfg.k)])
    scale = 1.0
    for attempt in range(cfg.toplevel_trial_limit):
        if attempt > 0:
            bias = tuple(int(i) for i in indices[int(gen.integers(0, n_combos))])
        scale = subset_value(sample.bias_elements, bias) / float(cfg.k)
        backup_pool = list(range(len(sample.backups)))
        selections: list[tuple[int, ...]] = []
        sources: list[int] = []
        currents: list[float] = []
        cell_logs: list[dict] = []
        completed = True
        for ci, own_elements in enumerate(sample.cells):
            backups_used: list[int] = []
            trials = 0
            found: Optional[tuple[int, ...]] = None
            current = math.nan
            source = ci
            candidates = [(ci, -1, own_elements)]
            candidates += [
                (len(sample.cells) + b, b, sample.backups[b]) for b in backup_pool
            ]
            for cand_source, b, elements in candidates:
                if b >= 0:
                    backups_used.append(b)
                draws = gen.integers(0, n_combos, size=cfg.cell_trial_limit)
                sums = elements[indices[draws]].sum(axis=1) * scale
                in_window = (sums >= window_low) & (sums <= window_high)
                if in_window.any():
                    hit = int(np.argmax(in_window))
                    trials += hit + 1
                    found = tuple(int(i) for i in indices[draws[hit]])
                    current = float(sums[hit])
                    source = cand_source
                    if b >= 0:
                        backup_pool.remove(b)
                    break
                trials += cfg.cell_trial_limit
            cell_logs.append(
                {
                    "cell": ci,
                    "trials": trials,
                    "backups_used": backups_used,
                    "healed": found is not None,
                }
            )
            if found is None:
                completed = False
                break
            selections.append(found)
            sources.append(source)
            currents.append(current)
        attempts_log.append(
            {
                "bias_selection": list(bias),
                "scale": float(scale),
                "cells": cell_logs,
                "completed": completed,
            }
        )
        if completed:
            trace = {
                "seed": seed,
                "outcome": "healed",
                "toplevel_restarts": attempt,
                "attempts": attempts_log,
            }
            return SelfHealOracleResult(
                healed=True,
                bias_selection=bias,
                scale=scale,
                selections=tuple(selections),
                sources=tuple(sources),
                cell_currents=tuple(currents),
                trace=trace,
            )
    trace = {
        "seed": seed,
        "outcome": "failed",
        "toplevel_restarts": cfg.toplevel_trial_limit - 1,
        "attempts": attempts_log,
    }
    return SelfHealOracleResult(
        healed=False,
        bias_selection=bias,
        scale=scale,
        selections=None,
        sources=None,
        cell_currents=None,
        trace=trace,
    )
