"""Tests for the segmented-converter model.

Derived quantities are checked against independent oracles: a pure-Python
code-by-code re-summation for the transfer curve, a from-definition
endpoint fit for INL/DNL, closed-form demodulator readings derived from the
square-wave overlap geometry plus a dense midpoint-grid integrator that
rebuilds the waveforms from scratch, and re-derived sizing identities for
the timing networks.  Monte Carlo layers run on fixed substreams.
"""

from __future__ import annotations

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsetcal import csdac
from subsetcal.csdac import (
    DEFAULT_SUB_SCHEME,
    DacConfig,
    SENSE_MODES,
    SelfHealConfig,
    SensedCell,
    SensingConfig,
    calibrate_amplitude_eses,
    calibrate_timing,
    delay_errors,
    duty_errors,
    healed_linearity,
    linearity,
    linearity_from_curve,
    sample_dac,
    sample_selfheal,
    self_heal_ses,
    sense_error,
    transfer_curve,
    ucc_currents,
    uniform_comparison_config,
    yield_study,
)
from subsetcal.hrmixer import TunableInverter
from subsetcal.mismatch import (
    Arithmetic,
    Combination,
    ConfigError,
    DegenerateConfigurationError,
    ElementSet,
    MismatchModel,
    Uniform,
    balanced_combination,
    combination_index_matrix,
    draw_realized,
    find_best,
    nominal_sizes,
    sample_element_set,
    scheme_center,
    subset_value,
)
from subsetcal.runner import sample_substream

from oracles import amplitude_residuals, dac_output

BALANCED_12_6 = balanced_combination(12, 6)
COMBOS_12_6 = combination_index_matrix(12, 6)


def combination(row):
    """The Combination a selection row index stands for."""
    return Combination(tuple(int(i) for i in COMBOS_12_6[row]))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_output(sample, code):
    """Code-by-code re-summation from the raw element sets (fsum, no decode
    helpers shared with the implementation)."""
    segments, residue = divmod(code, 2 ** sample.config.lsb_bits)
    parts = []
    for cell in range(segments):
        indices = combination(sample.amplitude_selection[cell]).indices
        parts.extend(float(sample.amplitude[cell, i]) for i in indices)
    for b, bit_current in enumerate(sample.lsb_bit_currents):
        if residue // 2**b % 2:
            parts.append(bit_current)
    return math.fsum(parts)


def oracle_deviation(sample, cell, buffer, selection):
    """The deviation of hrmixer's TunableInverter built from one timing
    buffer of the sample (0 delay, 1 tuned duty, 2 fixed duty; base delay
    50 ps) at the given Combination."""
    cfg = sample.config
    step, drive = (
        (cfg.delay_step, cfg.delay_drive) if buffer == 0 else (cfg.duty_step, cfg.duty_drive)
    )
    elements = ElementSet(
        nominal_sizes(Arithmetic(1.0, step), cfg.n), sample.widths[cell, buffer]
    )
    extrinsic = float(sample.extrinsic[cell, buffer])
    return TunableInverter(elements, selection, 50e-12, drive, extrinsic).deviation


def oracle_timing_errors(sample):
    """Delay and duty (tuned minus fixed, the fixed buffer at the balanced
    combination) errors of every cell from the inverter oracle."""
    delay, duty = [], []
    for c in range(sample.config.n_ucc):
        delay.append(oracle_deviation(sample, c, 0, combination(sample.delay_selection[c])))
        duty.append(
            oracle_deviation(sample, c, 1, combination(sample.duty_selection[c]))
            - oracle_deviation(sample, c, 2, BALANCED_12_6)
        )
    return np.array(delay), np.array(duty)


def oracle_sample_draws(cfg, rng):
    """The converter's draws set by set, in the documented order: per cell
    the amplitude set, then each timing buffer's widths (``draw_realized``,
    which redraws non-positive elements) and extrinsic error; then the LSB
    bank.  Returns (amplitude, widths, extrinsic, bits, reference, redraws)."""
    width_model = MismatchModel(0.01, 1.0)
    amplitude_nominal = nominal_sizes(cfg.ucc_sub_scheme, cfg.n)
    buffers = [
        (nominal_sizes(Arithmetic(1.0, step), cfg.n), extrinsic_sigma)
        for step, extrinsic_sigma in (
            (cfg.delay_step, cfg.delay_extrinsic_sigma),
            (cfg.duty_step, cfg.duty_extrinsic_sigma),
            (cfg.duty_step, cfg.duty_extrinsic_sigma),
        )
    ]
    amplitude = np.empty((cfg.n_ucc, cfg.n))
    widths = np.empty((cfg.n_ucc, 3, cfg.n))
    extrinsic = np.empty((cfg.n_ucc, 3))
    redraws = 0
    for c in range(cfg.n_ucc):
        amplitude[c], count = draw_realized(
            amplitude_nominal, cfg.sub_model.element_sigmas(amplitude_nominal), rng
        )
        redraws += count
        for b, (nominal, extrinsic_sigma) in enumerate(buffers):
            widths[c, b], count = draw_realized(
                nominal, width_model.element_sigmas(nominal), rng
            )
            redraws += count
            extrinsic[c, b] = float(rng.normal(0.0, extrinsic_sigma))
    bits = [
        math.fsum(rng.normal(cfg.lsb_unit_nominal, cfg.lsb_unit_sigma, size=2**b))
        for b in range(cfg.lsb_bits)
    ]
    extra = float(rng.normal(cfg.lsb_unit_nominal, cfg.lsb_unit_sigma))
    return amplitude, widths, extrinsic, tuple(bits), math.fsum(bits + [extra]), redraws


def oracle_selfheal_draws(cfg, rng):
    """The self-healing converter's draws set by set: each cell, then each
    backup, then the bias stage with ``sample_element_set``; then the LSB
    bank bit by bit.  Returns (cells, backups, bias, bits, reference,
    redraws) with the element sets as ``ElementSet``s."""
    scheme, model = Uniform(cfg.sub_nominal), MismatchModel(cfg.sub_sigma, cfg.sub_nominal)
    sets = [
        sample_element_set(scheme, model, cfg.n, rng)
        for _ in range(cfg.n_ucc + cfg.backup_ucc_count)
    ]
    bias = sample_element_set(
        Arithmetic(1.0, cfg.bias_step), MismatchModel(cfg.bias_rel_sigma, 1.0), cfg.n, rng
    )
    bits = [
        math.fsum(rng.normal(cfg.lsb_unit_nominal, cfg.lsb_unit_sigma, size=2**b))
        for b in range(cfg.lsb_bits)
    ]
    extra = float(rng.normal(cfg.lsb_unit_nominal, cfg.lsb_unit_sigma))
    redraws = sum(s.resamples for s in sets) + bias.resamples
    return (
        sets[: cfg.n_ucc], sets[cfg.n_ucc :], bias, tuple(bits),
        math.fsum(bits + [extra]), redraws,
    )


def oracle_lsb_values(bits):
    """Every residue code's LSB current, accumulated bit by bit over code masks."""
    codes = np.arange(2 ** len(bits))
    values = np.zeros(codes.size)
    for b, bit_current in enumerate(bits):
        values[(codes >> b) & 1 == 1] += bit_current
    return values


def curve_maxima(currents, bits):
    """inl_max and dnl_max of the full curve, read by ``linearity_from_curve``."""
    curve = csdac._curve_from_levels(currents, oracle_lsb_values(bits))
    report = linearity_from_curve(curve)
    return report.inl_max, report.dnl_max


def oracle_linearity(curve):
    """Endpoint-fit INL/DNL straight from the definition, python loops."""
    unit = (curve[-1] - curve[0]) / (len(curve) - 1)
    inl = [(curve[i] - curve[0]) / unit - i for i in range(len(curve))]
    dnl = [0.0] + [(curve[i] - curve[i - 1]) / unit - 1.0 for i in range(1, len(curve))]
    return np.array(inl), np.array(dnl)


def square_high(t, rise, fall):
    """True where the cyclic square (high on [rise, fall) mod 1) is high."""
    return np.mod(t - rise, 1.0) < np.mod(fall - rise, 1.0)


def oracle_sense(cell_a, cell_ref, mode, cfg, n_grid=2**20):
    """Midpoint-grid demodulator rebuilt from scratch.

    Each cell is a 0/A square high on [f*(d - u/2), 0.5 + f*(d + u/2)) of the
    period; the modulation is the +/-1 in-phase square at the pair-mean
    timing, its quarter-period-delayed copy, or the double-rate square whose
    +1 pulses are centered on the pair-mean edges.
    """
    f = cfg.f_meas
    t = (np.arange(n_grid) + 0.5) / n_grid

    def cell_values(cell):
        rise = f * (cell.delay - cell.duty / 2.0)
        fall = 0.5 + f * (cell.delay + cell.duty / 2.0)
        return np.where(square_high(t, rise, fall), cell.amplitude, 0.0)

    mean_d = 0.5 * (cell_a.delay + cell_ref.delay)
    mean_u = 0.5 * (cell_a.duty + cell_ref.duty)
    rise = f * (mean_d - mean_u / 2.0)
    fall = 0.5 + f * (mean_d + mean_u / 2.0)
    if mode == "amplitude":
        mod = np.where(square_high(t, rise, fall), 1.0, -1.0)
    elif mode == "delay":
        mod = np.where(square_high(t - 0.25, rise, fall), 1.0, -1.0)
    else:
        in_pulse = np.mod(t - (f * mean_d - 0.125), 0.5) < 0.25
        mod = np.where(in_pulse, 1.0, -1.0)
    diff = cell_values(cell_a) - cell_values(cell_ref)
    return cfg.sensing_gain * float(np.mean(diff * mod))


def zero_variance_config():
    return DacConfig(sub_sigma=0.0, delay_sigma=0.0, duty_sigma=0.0)


# ---------------------------------------------------------------------------
# configuration and sizing
# ---------------------------------------------------------------------------


def test_default_sub_scheme_is_graded_around_52ua():
    sizes = np.asarray(DEFAULT_SUB_SCHEME.sizes)
    assert sizes.size == 12
    assert np.allclose(np.diff(sizes), 0.76e-6, rtol=1e-12)
    assert math.isclose(scheme_center(DEFAULT_SUB_SCHEME), 52e-6, rel_tol=1e-12)
    assert math.isclose(sizes.min(), 47.82e-6, rel_tol=1e-9)
    assert math.isclose(sizes.max(), 56.18e-6, rel_tol=1e-9)


def test_default_geometry():
    cfg = DacConfig()
    assert cfg.n_ucc == 63
    assert cfg.n_codes == 16384
    assert cfg.lsb_levels == 256
    assert math.isclose(cfg.lsb_unit_nominal, 312e-6 / 256, rel_tol=1e-12)
    assert math.isclose(6 * scheme_center(cfg.ucc_sub_scheme), cfg.ucc_nominal,
                        rel_tol=1e-9)


def test_ucc_sigma_model():
    cfg = DacConfig()
    assert math.isclose(cfg.ucc_sigma, math.sqrt(6) * 1.1e-6, rel_tol=1e-12)
    assert abs(cfg.ucc_sigma - 2.8e-6) <= 0.10 * 2.8e-6
    assert math.isclose(
        cfg.lsb_unit_sigma, cfg.ucc_sigma / 16.0 / 8.0, rel_tol=1e-12
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        DacConfig(resolution=15)
    with pytest.raises(ConfigError):
        DacConfig(msb_bits=0, resolution=8)
    with pytest.raises(ConfigError):
        DacConfig(sub_sigma=-1e-6)
    with pytest.raises(ConfigError):
        DacConfig(lsb_sigma_factor=0.0)
    with pytest.raises(ConfigError):
        DacConfig(k=7)  # 7-subset nominal sum != ucc_nominal
    with pytest.raises(ConfigError):
        DacConfig(ucc_sub_scheme=Uniform(50e-6))


def test_timing_step_covers_budget_on_the_short_side():
    # The tunable term is drive * (W_nom/W_sel - 1); for graded widths of
    # common difference s the extreme 6-subsets give reaches
    #   +drive*3s/(1-3s)  and  -drive*3s/(1+3s),
    # so solving the smaller (negative) side for the coverage budget
    # 6 * 1.15 * sigma reproduces the configured step exactly.
    cfg = DacConfig()
    for step, drive, budget in (
        (cfg.delay_step, cfg.delay_drive, 6 * 1.15 * cfg.delay_sigma),
        (cfg.duty_step, cfg.duty_drive, 6 * 1.15 * cfg.duty_sigma),
    ):
        short_reach = drive * 3 * step / (1 + 3 * step)
        long_reach = drive * 3 * step / (1 - 3 * step)
        assert math.isclose(short_reach, budget, rel_tol=1e-12)
        assert long_reach > budget


def test_timing_variance_split():
    cfg = DacConfig()
    assert math.isclose(
        cfg.delay_drive, math.sqrt(0.25) * 1.3e-12 * math.sqrt(6) / 0.01,
        rel_tol=1e-12,
    )
    assert math.isclose(
        cfg.delay_extrinsic_sigma, math.sqrt(0.75) * 1.3e-12, rel_tol=1e-12
    )
    assert math.isclose(cfg.duty_network_sigma, 1.8e-12 / math.sqrt(2), rel_tol=1e-12)
    # intrinsic + extrinsic variance recombine to the stage budget
    intrinsic = cfg.delay_drive * 0.01 / math.sqrt(6)
    assert math.isclose(
        math.hypot(intrinsic, cfg.delay_extrinsic_sigma), 1.3e-12, rel_tol=1e-12
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_structure_and_initial_selections():
    sample = sample_dac(DacConfig(), sample_substream(5, 0))
    assert sample.amplitude.shape == (63, 12)
    assert sample.widths.shape == (63, 3, 12)
    assert sample.extrinsic.shape == (63, 3)
    assert len(sample.lsb_bit_currents) == 8
    assert sample.reference_current > 0
    for selection in (
        sample.amplitude_selection, sample.delay_selection, sample.duty_selection
    ):
        assert selection.shape == (63,)
        assert all(combination(row) == BALANCED_12_6 for row in selection)
    assert np.all(ucc_currents(sample) > 0)


@pytest.mark.parametrize("sub_sigma", [1.1e-6, 20e-6])
def test_sample_matches_set_by_set_draws(sub_sigma):
    """One bulk draw per converter reproduces the set-by-set stream; at
    sub_sigma = 20 uA (about 2.6 sigma below zero) elements come out <= 0,
    and the redraw path gives exactly what per-set redraws give."""
    cfg = DacConfig(sub_sigma=sub_sigma)
    total_redraws = 0
    for i in range(3):
        sample = sample_dac(cfg, sample_substream(71, i))
        amplitude, widths, extrinsic, bits, reference, redraws = oracle_sample_draws(
            cfg, sample_substream(71, i)
        )
        total_redraws += redraws
        assert np.array_equal(sample.amplitude, amplitude)
        assert np.array_equal(sample.widths, widths)
        assert np.array_equal(sample.extrinsic, extrinsic)
        assert sample.lsb_bit_currents == bits
        assert sample.reference_current == reference
    assert (total_redraws > 0) == (sub_sigma > 5e-6)


def test_sample_replays_identically():
    a = sample_dac(DacConfig(), sample_substream(5, 1))
    b = sample_dac(DacConfig(), sample_substream(5, 1))
    assert np.array_equal(ucc_currents(a), ucc_currents(b))
    assert a.lsb_bit_currents == b.lsb_bit_currents
    assert a.reference_current == b.reference_current


def test_empirical_ucc_sigma_matches_model():
    cfg = DacConfig()
    currents = np.concatenate(
        [ucc_currents(sample_dac(cfg, sample_substream(21, i))) for i in range(160)]
    )
    sigma_hat = currents.std()
    se = cfg.ucc_sigma / math.sqrt(2 * currents.size)
    assert abs(sigma_hat - cfg.ucc_sigma) < 4 * se
    assert abs(currents.mean() - 312e-6) < 4 * cfg.ucc_sigma / math.sqrt(currents.size)


def test_lsb_bank_weights():
    cfg = DacConfig()
    sample = sample_dac(cfg, sample_substream(5, 2))
    for b, bit_current in enumerate(sample.lsb_bit_currents):
        nominal = 2**b * cfg.lsb_unit_nominal
        tolerance = 6 * math.sqrt(2**b) * cfg.lsb_unit_sigma
        assert abs(bit_current - nominal) < tolerance


def test_sample_rejects_wrong_shapes():
    sample = sample_dac(DacConfig(), sample_substream(5, 3))
    for field, value in (
        ("amplitude", sample.amplitude[:-1]),
        ("widths", sample.widths[:, :2]),
        ("extrinsic", sample.extrinsic[:-1]),
        ("amplitude_selection", sample.amplitude_selection[:-1]),
        ("delay_selection", sample.delay_selection[:-1]),
        ("duty_selection", sample.duty_selection[:-1]),
        ("lsb_bit_currents", sample.lsb_bit_currents[:-1]),
    ):
        with pytest.raises(ConfigError):
            dataclasses.replace(sample, **{field: value})


def test_sample_rejects_non_positive_sizes_and_delays():
    sample = sample_dac(DacConfig(), sample_substream(5, 3))
    amplitude = sample.amplitude.copy()
    amplitude[4, 7] = 0.0
    widths = sample.widths.copy()
    widths[9, 2, 3] = -0.5
    for field, value in (("amplitude", amplitude), ("widths", widths)):
        with pytest.raises(ConfigError, match="strictly positive"):
            dataclasses.replace(sample, **{field: value})
    for buffer in range(3):
        extrinsic = sample.extrinsic.copy()
        extrinsic[5, buffer] = -1e-9  # pulls the delay of 200 ps below zero
        with pytest.raises(ConfigError, match="delay must stay strictly positive"):
            dataclasses.replace(sample, extrinsic=extrinsic)
        with pytest.raises(ConfigError, match="delay must stay strictly positive"):
            dataclasses.replace(calibrate_timing(sample), extrinsic=extrinsic)


def test_delays_are_validated_where_timing_can_change(monkeypatch):
    """Building a sample (``sample_dac``, ``calibrate_timing``) checks every
    buffer delay; amplitude calibration moves no delay and checks none."""
    sample = sample_dac(DacConfig(), sample_substream(5, 4))
    checked = []
    buffer_delays = csdac._buffer_delays

    def recording(checked_sample):
        checked.append(checked_sample)
        return buffer_delays(checked_sample)

    monkeypatch.setattr(csdac, "_buffer_delays", recording)
    calibrated = calibrate_amplitude_eses(sample)
    assert checked == []
    assert calibrated.widths is sample.widths
    assert calibrated.extrinsic is sample.extrinsic
    timed = calibrate_timing(sample)
    assert checked[-1] is timed
    drawn = sample_dac(DacConfig(), sample_substream(5, 4))
    assert checked[-1] is drawn

    # every delay below zero: both builders raise, amplitude calibration
    # (which cannot move a delay) does not look
    monkeypatch.setattr(csdac, "_BASE_DELAY", -1.0)
    with pytest.raises(ConfigError, match="delay must stay strictly positive"):
        sample_dac(DacConfig(), sample_substream(5, 4))
    with pytest.raises(ConfigError, match="delay must stay strictly positive"):
        calibrate_timing(sample)
    calibrate_amplitude_eses(sample)


# ---------------------------------------------------------------------------
# zero-variance converter
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ideal_sample():
    return sample_dac(zero_variance_config(), sample_substream(1, 0))


def test_ideal_cells_and_reference(ideal_sample):
    assert np.allclose(ucc_currents(ideal_sample), 312e-6, rtol=1e-12)
    assert ideal_sample.reference_current == 312e-6  # fsum makes this exact


def test_ideal_outputs(ideal_sample):
    assert dac_output(ideal_sample, 0) == 0.0
    assert dac_output(ideal_sample, 256) == ucc_currents(ideal_sample)[0]
    unit = 312e-6 / 256
    assert math.isclose(dac_output(ideal_sample, 255), 255 * unit, rel_tol=1e-12)
    assert math.isclose(dac_output(ideal_sample, 16383), 16383 * unit, rel_tol=1e-12)


def test_ideal_linearity_is_flat(ideal_sample):
    report = linearity(ideal_sample)
    assert report.inl_max < 1e-9
    assert report.dnl_max < 1e-9


def test_ideal_amplitude_calibration_is_a_fixed_point(ideal_sample):
    pre = amplitude_residuals(ideal_sample)
    post = amplitude_residuals(calibrate_amplitude_eses(ideal_sample))
    assert np.all(np.abs(post) <= np.abs(pre) + 1e-18)
    assert np.max(np.abs(post)) < 1e-15


def test_ideal_timing_is_exact_and_calibration_a_noop(ideal_sample):
    assert np.all(delay_errors(ideal_sample) == 0.0)
    assert np.all(duty_errors(ideal_sample) == 0.0)
    calibrated = calibrate_timing(ideal_sample)
    assert np.array_equal(calibrated.delay_selection, ideal_sample.delay_selection)
    assert np.array_equal(calibrated.duty_selection, ideal_sample.duty_selection)


# ---------------------------------------------------------------------------
# transfer curve and linearity
# ---------------------------------------------------------------------------

PROBE_CODES = (0, 1, 255, 256, 257, 4095, 4096, 8191, 8192, 16382, 16383)


def test_transfer_curve_matches_resummation_oracle():
    rng = np.random.default_rng(33)
    for i in range(3):
        sample = sample_dac(DacConfig(), sample_substream(33, i))
        curve = transfer_curve(sample)
        assert curve.shape == (16384,)
        codes = list(PROBE_CODES) + rng.integers(0, 16384, size=40).tolist()
        for code in codes:
            expected = oracle_output(sample, int(code))
            assert math.isclose(curve[code], expected, rel_tol=1e-12, abs_tol=1e-18)
            assert math.isclose(
                dac_output(sample, int(code)), expected, rel_tol=1e-12, abs_tol=1e-18
            )


def test_transfer_curve_matches_sequential_output_after_calibration():
    rng = np.random.default_rng(35)
    for i in range(3):
        sample = calibrate_amplitude_eses(sample_dac(DacConfig(), sample_substream(35, i)))
        curve = transfer_curve(sample)
        for code in rng.integers(0, 16384, size=200).tolist():
            assert math.isclose(
                curve[code], dac_output(sample, code), rel_tol=1e-12, abs_tol=1e-18
            )
        # whole-segment codes sum the same currents in the same order
        for code in range(0, 16384, 256):
            assert curve[code] == dac_output(sample, code)


def test_dac_output_validates_codes():
    sample = sample_dac(DacConfig(), sample_substream(5, 4))
    with pytest.raises(ConfigError):
        dac_output(sample, -1)
    with pytest.raises(ConfigError):
        dac_output(sample, 16384)
    with pytest.raises(ConfigError):
        dac_output(sample, 3.5)
    assert dac_output(sample, np.int64(5)) == dac_output(sample, 5)


def test_linearity_matches_definition_oracle():
    rng = np.random.default_rng(7)
    curve = np.cumsum(rng.uniform(0.5, 1.5, size=500))
    report = linearity_from_curve(curve)
    inl, dnl = oracle_linearity(curve)
    assert np.allclose(report.inl, inl, atol=1e-9)
    assert np.allclose(report.dnl, dnl, atol=1e-9)
    assert report.inl_max == pytest.approx(np.max(np.abs(inl)))
    assert report.dnl_max == pytest.approx(np.max(np.abs(dnl)))


def test_endpoint_identities_on_sampled_converters():
    for i in range(4):
        report = linearity(sample_dac(DacConfig(), sample_substream(11, i)))
        assert report.inl[0] == 0.0
        assert abs(report.inl[-1]) < 1e-9
        assert report.dnl[0] == 0.0
        assert abs(report.dnl.sum()) < 1e-9


def test_monotonicity_iff_dnl_above_minus_one():
    rng = np.random.default_rng(17)
    monotone = np.cumsum(rng.uniform(0.5, 1.5, size=300))
    assert np.all(linearity_from_curve(monotone).dnl > -1.0)

    dipped = monotone.copy()
    dipped[150] = dipped[151] + 0.3  # one decreasing step
    report = linearity_from_curve(dipped)
    assert report.dnl.min() < -1.0
    assert not np.all(np.diff(dipped) >= 0)

    for i in range(4):
        sample = sample_dac(DacConfig(), sample_substream(13, i))
        curve = transfer_curve(sample)
        report = linearity_from_curve(curve)
        assert np.all(np.diff(curve) > 0) == bool(np.all(report.dnl > -1.0))


def test_linearity_rejects_degenerate_curves():
    with pytest.raises(DegenerateConfigurationError):
        linearity_from_curve(np.ones(10))
    with pytest.raises(DegenerateConfigurationError):
        linearity_from_curve(np.array([1.0, 2.0, 0.5]))
    with pytest.raises(ConfigError):
        linearity_from_curve(np.array([1.0]))
    with pytest.raises(ConfigError):
        linearity_from_curve(np.ones((4, 4)))


def test_lsb_values_match_mask_accumulation():
    for bits in (
        sample_dac(DacConfig(), sample_substream(5, 6)).lsb_bit_currents,
        (1.0, 2.0, 4.0),
        (0.3, 0.1, 0.7, 1e-9, 5.0),
    ):
        assert np.array_equal(csdac._lsb_values(bits), oracle_lsb_values(bits))


def test_segment_maxima_equal_the_full_curve_on_real_converters():
    """2 000 readings, each compared with == against ``linearity_from_curve``
    on the full curve: graded and uniform converters before and after
    amplitude calibration (seed 5), and self-healing converters before
    healing (currents from ``subset_value``, as the set-by-set model summed
    them) and after (seed 6)."""
    readings = 0
    for cfg in (DacConfig(), uniform_comparison_config(DacConfig())):
        for i in range(400):
            sample = sample_dac(cfg, sample_substream(5, i))
            lsb_vals = csdac._lsb_values(sample.lsb_bit_currents)
            for converter in (sample, calibrate_amplitude_eses(sample)):
                currents = ucc_currents(converter)
                expected = curve_maxima(currents, sample.lsb_bit_currents)
                assert csdac._segment_maxima(currents, lsb_vals) == expected
                readings += 1
    cfg = SelfHealConfig()
    balanced = balanced_combination(cfg.n, cfg.k)
    cell_nominal = np.full(cfg.n, cfg.sub_nominal)
    bias_nominal = nominal_sizes(Arithmetic(1.0, cfg.bias_step), cfg.n)
    for i in range(200):
        rng = sample_substream(6, i)
        sample = sample_selfheal(cfg, rng)
        bias = ElementSet(bias_nominal, sample.bias_elements.copy())
        scale = subset_value(bias, balanced) / float(cfg.k)
        currents = [
            subset_value(ElementSet(cell_nominal, cell.copy()), balanced) * scale
            for cell in sample.cells
        ]
        expected = curve_maxima(currents, sample.lsb_bit_currents)
        assert csdac._selfheal_pre_linearity(sample) == expected
        result = self_heal_ses(sample, rng)
        assert result.healed
        expected = curve_maxima(result.cell_currents, sample.lsb_bit_currents)
        assert healed_linearity(sample, result) == expected
        readings += 2
    assert readings == 2000


PROPERTY_SETTINGS = settings(
    derandomize=True, max_examples=60, deadline=None, database=None
)
GEOMETRY = st.tuples(st.integers(1, 63), st.integers(1, 8))


def assert_segment_maxima_match(currents, bits):
    lsb_vals = csdac._lsb_values(bits)
    assert csdac._segment_maxima(currents, lsb_vals) == curve_maxima(currents, bits)


@PROPERTY_SETTINGS
@given(
    geometry=GEOMETRY,
    levels=st.lists(st.sampled_from([0.5, 1.0, 1.0, 1.5]), min_size=63, max_size=63),
    bit_gains=st.lists(st.sampled_from([0.75, 1.0, 1.25]), min_size=8, max_size=8),
)
def test_segment_maxima_property_ties(geometry, levels, bit_gains):
    """Cells and bits from a few exact values: INL bounds and DNL steps tie."""
    cells, lsb_bits = geometry
    bits = [gain * 2**b / 2**lsb_bits for b, gain in enumerate(bit_gains[:lsb_bits])]
    assert_segment_maxima_match(levels[:cells], bits)


@PROPERTY_SETTINGS
@given(current=st.floats(1e-6, 1e-3), cells=st.integers(1, 63), lsb_bits=st.integers(1, 8))
@example(current=312e-6, cells=63, lsb_bits=8)  # the default converter's geometry
def test_segment_maxima_property_equal_cells(current, cells, lsb_bits):
    """Equal cells over an ideal bank: the INL is flat up to rounding, so
    every code is a candidate and a converter with more codes than
    ``_MAX_CANDIDATES`` reads the full curve."""
    bits = [current * 2**b / 2**lsb_bits for b in range(lsb_bits)]
    with mock.patch.object(csdac, "_curve_maxima", wraps=csdac._curve_maxima) as full_curve:
        assert_segment_maxima_match([current] * cells, bits)
    if (cells + 1) * 2**lsb_bits > csdac._MAX_CANDIDATES:
        full_curve.assert_called_once()


@PROPERTY_SETTINGS
@given(
    geometry=GEOMETRY,
    seed=st.integers(0, 2**32 - 1),
    cell=st.integers(0, 62),
    jump=st.floats(-0.9, 5.0),
)
def test_segment_maxima_property_dominant_step(geometry, seed, cell, jump):
    """Near-ideal cells and bits, one cell off by ``jump`` of its weight: one
    boundary DNL step dominates."""
    cells, lsb_bits = geometry
    rng = np.random.default_rng(seed)
    currents = 1.0 + 1e-3 * rng.standard_normal(cells)
    currents[cell % cells] *= 1.0 + jump
    bits = (1.0 + 1e-3 * rng.standard_normal(lsb_bits)) * 2.0 ** np.arange(lsb_bits)
    assert_segment_maxima_match(currents, bits / 2**lsb_bits)


@PROPERTY_SETTINGS
@given(
    geometry=GEOMETRY,
    seed=st.integers(0, 2**32 - 1),
    cell=st.integers(0, 62),
    drop=st.floats(1.01, 3.0),
)
def test_segment_maxima_property_non_monotone_segment(geometry, seed, cell, drop):
    """One negative cell current: the curve steps down at that boundary while
    the end-to-end span stays positive (or the reader raises like the curve)."""
    cells, lsb_bits = geometry
    rng = np.random.default_rng(seed)
    currents = 1.0 + 0.05 * rng.standard_normal(cells)
    currents[cell % cells] = 1.0 - drop
    bits = (1.0 + 0.05 * rng.standard_normal(lsb_bits)) * 2.0 ** np.arange(lsb_bits)
    bits = bits / 2**lsb_bits
    try:
        expected = curve_maxima(currents, bits)
    except DegenerateConfigurationError:
        with pytest.raises(DegenerateConfigurationError):
            csdac._segment_maxima(currents, csdac._lsb_values(bits))
        return
    assert csdac._segment_maxima(currents, csdac._lsb_values(bits)) == expected


def test_segment_maxima_reject_a_degenerate_span():
    bits = csdac._lsb_values([0.25, 0.5])
    for currents in ([1.0, -2.0], [-1.0], [0.0, 0.0, -1.0]):
        with pytest.raises(DegenerateConfigurationError, match="non-increasing"):
            csdac._segment_maxima(currents, bits)
        with pytest.raises(DegenerateConfigurationError, match="non-increasing"):
            linearity_from_curve(csdac._curve_from_levels(currents, bits))


def test_single_cell_error_lands_at_its_switch_in_code(ideal_sample):
    cfg = ideal_sample.config
    unit = cfg.lsb_unit_nominal
    error = 6.3 * unit
    target = 17
    bumped = ideal_sample.amplitude.copy()
    for i in combination(ideal_sample.amplitude_selection[target]).indices:
        bumped[target, i] += error / cfg.k
    sample = dataclasses.replace(ideal_sample, amplitude=bumped)

    report = linearity(sample)
    switch_code = (target + 1) * 256
    assert int(np.argmax(np.abs(report.dnl))) == switch_code
    # endpoint fit inflates the unit by (16383 + 6.3) / 16383
    expected_dnl = 7.3 * 16383 / (16383 + 6.3) - 1.0
    assert report.dnl[switch_code] == pytest.approx(expected_dnl, rel=1e-9)

    inl, dnl = oracle_linearity(transfer_curve(sample))
    assert np.allclose(report.inl, inl, atol=1e-9)
    assert report.inl_max == pytest.approx(np.max(np.abs(inl)), rel=1e-9)


# ---------------------------------------------------------------------------
# amplitude calibration
# ---------------------------------------------------------------------------


def test_calibration_never_worsens_any_residual():
    for i in range(6):
        sample = sample_dac(DacConfig(), sample_substream(41, i))
        pre = np.abs(amplitude_residuals(sample))
        post = np.abs(amplitude_residuals(calibrate_amplitude_eses(sample)))
        assert np.all(post <= pre + 1e-18)


def test_calibration_improves_linearity():
    pre_maxima, post_maxima = [], []
    for i in range(20):
        sample = sample_dac(DacConfig(), sample_substream(43, i))
        pre_maxima.append(linearity(sample).inl_max)
        post_maxima.append(linearity(calibrate_amplitude_eses(sample)).inl_max)
    pre_maxima, post_maxima = np.array(pre_maxima), np.array(post_maxima)
    assert np.all(post_maxima < pre_maxima)
    assert np.median(post_maxima) < 0.6
    assert post_maxima.max() < 1.2


def test_calibrated_selections_match_find_best():
    for cfg in (DacConfig(), uniform_comparison_config(DacConfig())):
        nominal = nominal_sizes(cfg.ucc_sub_scheme, cfg.n)
        for i in range(3):
            sample = sample_dac(cfg, sample_substream(45, i))
            calibrated = calibrate_amplitude_eses(sample)
            for c in range(cfg.n_ucc):
                best, _ = find_best(
                    ElementSet(nominal, sample.amplitude[c]), cfg.k,
                    sample.reference_current,
                )
                assert combination(calibrated.amplitude_selection[c]) == best


def test_calibration_touches_only_selections():
    sample = sample_dac(DacConfig(), sample_substream(41, 7))
    calibrated = calibrate_amplitude_eses(sample)
    assert calibrated.lsb_bit_currents == sample.lsb_bit_currents
    assert calibrated.reference_current == sample.reference_current
    assert np.array_equal(delay_errors(calibrated), delay_errors(sample))
    assert np.array_equal(duty_errors(calibrated), duty_errors(sample))
    assert calibrated.amplitude is sample.amplitude
    assert calibrated.widths is sample.widths
    assert calibrated.extrinsic is sample.extrinsic
    assert calibrated.delay_selection is sample.delay_selection
    assert calibrated.duty_selection is sample.duty_selection
    assert calibrated.amplitude_selection.shape == (63,)
    assert np.all((calibrated.amplitude_selection >= 0)
                  & (calibrated.amplitude_selection < COMBOS_12_6.shape[0]))


def test_uniform_comparison_config_keeps_center():
    cfg = DacConfig()
    uniform = uniform_comparison_config(cfg)
    assert isinstance(uniform.ucc_sub_scheme, Uniform)
    assert math.isclose(uniform.ucc_sub_scheme.width, 52e-6, rel_tol=1e-12)
    assert uniform.ucc_nominal == cfg.ucc_nominal
    assert uniform.sub_sigma == cfg.sub_sigma


def test_graded_sizing_beats_uniform_sizing():
    cfg = DacConfig()
    uniform = uniform_comparison_config(cfg)
    graded_rms, uniform_rms = [], []
    for i in range(30):
        graded_post = calibrate_amplitude_eses(
            sample_dac(cfg, sample_substream(47, i))
        )
        uniform_post = calibrate_amplitude_eses(
            sample_dac(uniform, sample_substream(47, i))
        )
        graded_rms.append(np.sqrt(np.mean(amplitude_residuals(graded_post) ** 2)))
        uniform_rms.append(np.sqrt(np.mean(amplitude_residuals(uniform_post) ** 2)))
    assert np.mean(uniform_rms) > 2.0 * np.mean(graded_rms)


# ---------------------------------------------------------------------------
# timing calibration
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def timing_population():
    cfg = DacConfig()
    samples = [sample_dac(cfg, sample_substream(53, i)) for i in range(60)]
    calibrated = [calibrate_timing(s) for s in samples]
    return samples, calibrated


def test_uncalibrated_timing_sigmas_match_budgets(timing_population):
    samples, _ = timing_population
    delays = np.concatenate([delay_errors(s) for s in samples])
    duties = np.concatenate([duty_errors(s) for s in samples])
    assert abs(delays.std() - 1.3e-12) < 0.07e-12
    assert abs(duties.std() - 1.8e-12) < 0.10e-12
    assert abs(delays.mean()) < 0.1e-12
    assert abs(duties.mean()) < 0.1e-12


def test_calibrated_timing_residuals(timing_population):
    _, calibrated = timing_population
    delays = np.concatenate([delay_errors(s) for s in calibrated])
    duties = np.concatenate([duty_errors(s) for s in calibrated])
    assert np.sqrt(np.mean(delays**2)) < 0.02e-12
    assert np.sqrt(np.mean(duties**2)) < 0.025e-12


def test_timing_calibration_leaves_fixed_buffer_alone(timing_population):
    samples, calibrated = timing_population
    changed = 0
    for before, after in zip(samples[:10], calibrated[:10]):
        assert after.amplitude is before.amplitude
        assert after.widths is before.widths
        assert after.extrinsic is before.extrinsic
        assert after.amplitude_selection is before.amplitude_selection
        # the fixed buffer reads as balanced in the inverter oracle
        assert np.array_equal(duty_errors(after), oracle_timing_errors(after)[1])
        changed += np.count_nonzero(after.delay_selection != before.delay_selection)
    assert changed > 0


def test_timing_errors_match_inverter_oracle(timing_population):
    samples, calibrated = timing_population
    for sample in samples[:3] + calibrated[:3]:
        delay, duty = oracle_timing_errors(sample)
        assert np.array_equal(delay_errors(sample), delay)
        assert np.array_equal(duty_errors(sample), duty)


def test_timing_selections_match_inverter_search(timing_population):
    """Each calibrated selection minimizes the inverter oracle's |delay
    deviation| (delay buffer) or |tuned - fixed| (duty) over all subsets."""
    samples, calibrated = timing_population
    before, after = samples[0], calibrated[0]
    candidates = [combination(row) for row in range(COMBOS_12_6.shape[0])]
    for c in range(0, 63, 9):
        fixed = oracle_deviation(before, c, 2, BALANCED_12_6)
        delay = [abs(oracle_deviation(before, c, 0, sel)) for sel in candidates]
        duty = [abs(oracle_deviation(before, c, 1, sel) - fixed) for sel in candidates]
        assert after.delay_selection[c] == int(np.argmin(delay))
        assert after.duty_selection[c] == int(np.argmin(duty))


# ---------------------------------------------------------------------------
# self-healing
# ---------------------------------------------------------------------------


def test_selfheal_config_defaults_and_derived_values():
    cfg = SelfHealConfig()
    assert cfg.n == 16 and cfg.k == 8
    assert cfg.n_ucc == 63
    assert math.isclose(cfg.ucc_nominal, 156.24e-6, rel_tol=1e-12)
    assert math.isclose(cfg.sub_sigma, 0.53e-6 / math.sqrt(8), rel_tol=1e-12)
    assert math.isclose(cfg.i_tiny, 0.053e-6, rel_tol=1e-12)
    assert math.isclose(cfg.lsb_unit_nominal, 156.24e-6 / 256, rel_tol=1e-12)
    assert cfg.cell_trial_limit == 200
    assert cfg.toplevel_trial_limit == 20
    assert cfg.backup_ucc_count == 4


def test_selfheal_config_validation():
    with pytest.raises(ConfigError):
        SelfHealConfig(k=17)
    with pytest.raises(ConfigError):
        SelfHealConfig(i_tiny=0.0)
    with pytest.raises(ConfigError):
        SelfHealConfig(bias_step=-0.001)
    with pytest.raises(ConfigError):
        SelfHealConfig(bias_step=0.2)  # nominals would cross zero
    with pytest.raises(ConfigError):
        SelfHealConfig(cell_trial_limit=0)
    with pytest.raises(ConfigError):
        SelfHealConfig(toplevel_trial_limit=0)
    with pytest.raises(ConfigError):
        SelfHealConfig(backup_ucc_count=-1)


def test_selfheal_sample_structure():
    cfg = SelfHealConfig()
    sample = sample_selfheal(cfg, sample_substream(61, 0))
    assert sample.cells.shape == (63, 16)
    assert sample.backups.shape == (4, 16)
    assert sample.bias_elements.shape == (16,)
    assert len(sample.lsb_bit_currents) == 8
    assert sample.lsb_values.shape == (256,)
    assert not sample.lsb_values.flags.writeable
    assert abs(sample.reference_current - 156.24e-6) < 6 * cfg.ucc_sigma


@pytest.mark.parametrize("ucc_sigma", [0.53e-6, 20e-6])
def test_selfheal_sample_matches_set_by_set_draws(ucc_sigma):
    """One bulk draw reproduces the set-by-set stream; at ucc_sigma = 20 uA
    (sub sigma 7.1 uA against 19.5 uA) elements come out <= 0 and the
    rewind gives exactly what per-set redraws give."""
    cfg = SelfHealConfig(ucc_sigma=ucc_sigma)
    total_redraws = 0
    for i in range(3):
        sample = sample_selfheal(cfg, sample_substream(73, i))
        cells, backups, bias, bits, reference, redraws = oracle_selfheal_draws(
            cfg, sample_substream(73, i)
        )
        total_redraws += redraws
        assert np.array_equal(sample.cells, [s.realized for s in cells])
        assert np.array_equal(sample.backups, [s.realized for s in backups])
        assert np.array_equal(sample.bias_elements, bias.realized)
        assert sample.lsb_bit_currents == bits
        assert sample.reference_current == reference
        assert np.array_equal(sample.lsb_values, oracle_lsb_values(bits))
    assert (total_redraws > 0) == (ucc_sigma > 5e-6)


def test_selfheal_sample_rejects_wrong_shapes_and_sizes():
    sample = sample_selfheal(SelfHealConfig(), sample_substream(73, 5))
    for field, value in (
        ("cells", sample.cells[:-1]),
        ("backups", sample.backups[:, :-1]),
        ("bias_elements", sample.bias_elements[:-1]),
        ("lsb_bit_currents", sample.lsb_bit_currents[:-1]),
    ):
        with pytest.raises(ConfigError, match="shapes"):
            dataclasses.replace(sample, **{field: value})
    cells = sample.cells.copy()
    cells[3, 4] = 0.0
    with pytest.raises(ConfigError, match="strictly positive"):
        dataclasses.replace(sample, cells=cells)


def test_zero_variance_heal_hits_every_first_draw():
    cfg = SelfHealConfig(
        ucc_sigma=0.0, bias_rel_sigma=0.0, bias_step=0.0, i_tiny=1e-9
    )
    sample = sample_selfheal(cfg, sample_substream(61, 1))
    result = self_heal_ses(sample, rng=5)
    assert result.healed
    assert result.trace["toplevel_restarts"] == 0
    assert result.scale == 1.0
    # the nominal sum sits exactly on the closed lower window edge
    assert all(current == sample.reference_current for current in result.cell_currents)
    for cell_log in result.trace["attempts"][0]["cells"]:
        assert cell_log["trials"] == 1
        assert cell_log["backups_used"] == []


def test_heal_result_satisfies_the_window_and_accounting():
    cfg = SelfHealConfig()
    for i in range(5):
        sample = sample_selfheal(cfg, sample_substream(67, i))
        result = self_heal_ses(sample, rng=100 + i)
        assert result.healed
        low = sample.reference_current
        high = low + cfg.i_tiny
        used_backups = [s - 63 for s in result.sources if s >= 63]
        assert len(used_backups) == len(set(used_backups))  # consumed once
        for ci in range(63):
            source = result.sources[ci]
            elements = (
                sample.cells[source] if source < 63 else sample.backups[source - 63]
            )
            selection = result.selections[ci]
            recomputed = float(elements[list(selection.indices)].sum()) * result.scale
            assert math.isclose(
                recomputed, result.cell_currents[ci], rel_tol=1e-12
            )
            assert low <= result.cell_currents[ci] <= high


def test_heal_replays_bit_identically():
    sample = sample_selfheal(SelfHealConfig(), sample_substream(67, 9))
    a = self_heal_ses(sample, rng=4242)
    b = self_heal_ses(sample, rng=4242)
    assert a.trace == b.trace
    assert a.selections == b.selections
    assert a.cell_currents == b.cell_currents
    assert a.trace["seed"] == 4242
    other = self_heal_ses(sample, rng=4243)
    assert other.trace != a.trace


def test_heal_trace_is_json_ready():
    sample = sample_selfheal(SelfHealConfig(), sample_substream(67, 10))
    result = self_heal_ses(sample, rng=8)
    trace = json.loads(json.dumps(result.trace))
    assert trace["outcome"] == "healed"
    assert len(trace["attempts"]) == trace["toplevel_restarts"] + 1
    assert trace["attempts"][-1]["completed"] is True
    for cell_log in trace["attempts"][-1]["cells"]:
        assert set(cell_log) == {"cell", "trials", "backups_used", "healed"}


def test_heal_success_rate_and_linearity():
    cfg = SelfHealConfig()
    healed = 0
    inl_maxima = []
    for i in range(250):
        sample = sample_selfheal(cfg, sample_substream(71, i))
        result = self_heal_ses(sample, rng=500 + i)
        healed += result.healed
        if result.healed and len(inl_maxima) < 60:
            inl_maxima.append(healed_linearity(sample, result).inl_max)
    assert healed / 250 >= 0.97
    assert np.median(inl_maxima) <= 1.0


def test_starved_heal_fails_honestly():
    cfg = SelfHealConfig(cell_trial_limit=1, toplevel_trial_limit=2, i_tiny=1e-13)
    sample = sample_selfheal(cfg, sample_substream(61, 2))
    result = self_heal_ses(sample, rng=3)
    assert not result.healed
    assert result.selections is None
    assert result.sources is None
    assert result.cell_currents is None
    assert result.trace["outcome"] == "failed"
    assert len(result.trace["attempts"]) == 2
    assert not result.trace["attempts"][-1]["completed"]
    with pytest.raises(ConfigError):
        healed_linearity(sample, result)


# ---------------------------------------------------------------------------
# error sensing
# ---------------------------------------------------------------------------

F_MEAS = 400e6
PERIOD = 1.0 / F_MEAS


def test_sense_pure_amplitude_reads_the_difference_times_high_width():
    # equal timing on both cells leaves the modulation perfectly aligned, so
    # the reading is exactly gain * dA * (0.5 + f*duty) — the high-phase
    # width — which is gain * dA / 2 for nominal 50% squares
    a = SensedCell(1.05e-3)
    ref = SensedCell(0.95e-3)
    for gain in (1.0, 0.5, 3.0):
        cfg = SensingConfig(F_MEAS, gain)
        reading = sense_error(a, ref, "amplitude", cfg)
        assert reading == pytest.approx(gain * 0.10e-3 / 2, rel=1e-12)
    assert sense_error(ref, a, "amplitude", SensingConfig(F_MEAS)) == pytest.approx(
        -0.10e-3 / 2, rel=1e-12
    )

    common = dict(delay=0.3e-12, duty=-0.2e-12)
    skewed = sense_error(
        SensedCell(1.05e-3, **common), SensedCell(0.95e-3, **common),
        "amplitude", SensingConfig(F_MEAS),
    )
    high_width = 0.5 + F_MEAS * common["duty"]
    assert skewed == pytest.approx(0.10e-3 * high_width, rel=1e-12)


def test_sense_pure_delay_reads_two_f_a_dd():
    amplitude = 1e-3
    for delta in (PERIOD / 1000, -PERIOD / 2000, PERIOD / 300):
        a = SensedCell(amplitude, delay=0.8e-12 + delta / 2, duty=0.4e-12)
        ref = SensedCell(amplitude, delay=0.8e-12 - delta / 2, duty=0.4e-12)
        reading = sense_error(a, ref, "delay", SensingConfig(F_MEAS))
        assert reading == pytest.approx(2 * F_MEAS * amplitude * delta, rel=1e-12)


def test_sense_pure_duty_reads_f_a_du():
    amplitude = 1e-3
    for delta in (PERIOD / 1000, -PERIOD / 1500, PERIOD / 400):
        a = SensedCell(amplitude, delay=0.5e-12, duty=delta / 2)
        ref = SensedCell(amplitude, delay=0.5e-12, duty=-delta / 2)
        reading = sense_error(a, ref, "duty", SensingConfig(F_MEAS))
        assert reading == pytest.approx(F_MEAS * amplitude * delta, rel=1e-12)


def test_sense_identical_cells_read_exactly_zero():
    cell = SensedCell(1.2e-3, delay=0.6e-12, duty=-0.3e-12)
    twin = SensedCell(1.2e-3, delay=0.6e-12, duty=-0.3e-12)
    for mode in SENSE_MODES:
        assert sense_error(cell, twin, mode, SensingConfig(F_MEAS)) == 0.0


def test_sense_orthogonality():
    # each pure error must leak < 1% of its matching-mode reading into the
    # other two modes; the alignment argument makes the leak essentially zero
    amplitude = 1e-3
    cfg = SensingConfig(F_MEAS)
    pure = {
        "amplitude": (SensedCell(1.01e-3), SensedCell(0.99e-3)),
        "delay": (
            SensedCell(amplitude, delay=PERIOD / 2000),
            SensedCell(amplitude, delay=-PERIOD / 2000),
        ),
        "duty": (
            SensedCell(amplitude, duty=PERIOD / 2000),
            SensedCell(amplitude, duty=-PERIOD / 2000),
        ),
    }
    for source_mode, (a, ref) in pure.items():
        matching = abs(sense_error(a, ref, source_mode, cfg))
        assert matching > 0
        for other_mode in SENSE_MODES:
            if other_mode == source_mode:
                continue
            leak = abs(sense_error(a, ref, other_mode, cfg))
            assert leak <= 0.01 * matching
            assert leak < 1e-12 * matching + 1e-18


def test_sense_linearity_over_ten_point_sweeps():
    cfg = SensingConfig(F_MEAS)
    sweep = np.linspace(-PERIOD / 1000, PERIOD / 1000, 10)
    for mode in ("delay", "duty"):
        readings = []
        for delta in sweep:
            kwargs = {mode: float(delta)}
            a = SensedCell(1e-3, **kwargs)
            readings.append(sense_error(a, SensedCell(1e-3), mode, cfg))
        slope, intercept = np.polyfit(sweep, readings, 1)
        predicted = slope * sweep + intercept
        ss_res = np.sum((np.array(readings) - predicted) ** 2)
        ss_tot = np.sum((readings - np.mean(readings)) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.999999


def test_sense_matches_grid_oracle_on_mixed_errors():
    rng = np.random.default_rng(73)
    cfg = SensingConfig(F_MEAS)
    for _ in range(4):
        a = SensedCell(
            float(rng.uniform(0.8e-3, 1.2e-3)),
            delay=float(rng.uniform(-1, 1) * PERIOD / 500),
            duty=float(rng.uniform(-1, 1) * PERIOD / 500),
        )
        ref = SensedCell(
            float(rng.uniform(0.8e-3, 1.2e-3)),
            delay=float(rng.uniform(-1, 1) * PERIOD / 500),
            duty=float(rng.uniform(-1, 1) * PERIOD / 500),
        )
        for mode in SENSE_MODES:
            exact = sense_error(a, ref, mode, cfg)
            approx = oracle_sense(a, ref, mode, cfg)
            assert exact == pytest.approx(approx, abs=3e-8)


def test_sense_validation():
    with pytest.raises(ConfigError):
        SensedCell(-1e-3)
    with pytest.raises(ConfigError):
        SensedCell(1e-3, delay=math.inf)
    with pytest.raises(ConfigError):
        SensingConfig(f_meas=0.0)
    with pytest.raises(ConfigError):
        sense_error(SensedCell(1e-3), SensedCell(1e-3), "phase")
    with pytest.raises(ConfigError):
        # timing error too close to the modulation pulse width
        sense_error(
            SensedCell(1e-3, delay=0.2 * PERIOD), SensedCell(1e-3), "delay",
            SensingConfig(F_MEAS),
        )


# ---------------------------------------------------------------------------
# yield studies
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def eses_yield():
    return yield_study(DacConfig(), 100, "eses", master_seed=11, threads=1)


def test_yield_rows_and_columns(eses_yield):
    assert eses_yield.flow == "eses"
    assert eses_yield.columns == (
        "sample_id", "pre_inl_max", "post_inl_max", "pre_dnl_max", "post_dnl_max",
    )
    assert len(eses_yield.rows) == 100
    assert [row["sample_id"] for row in eses_yield.rows] == list(range(100))
    for row in eses_yield.rows[:5]:
        assert set(row) == set(eses_yield.columns)
        assert row["post_inl_max"] < row["pre_inl_max"]


def test_yield_percentiles_and_histograms(eses_yield):
    for column in eses_yield.columns[1:]:
        pct = eses_yield.percentiles[column]
        assert set(pct) == {"p50", "p95", "p99"}
        assert pct["p50"] <= pct["p95"] <= pct["p99"]
        counts, edges = eses_yield.histograms[column]
        assert counts.sum() == 100
        assert len(edges) == len(counts) + 1


def test_yield_is_thread_invariant(eses_yield):
    threaded = yield_study(DacConfig(), 100, "eses", master_seed=11, threads=4)
    assert threaded.rows == eses_yield.rows
    assert threaded.percentiles == eses_yield.percentiles


def test_yield_validation():
    with pytest.raises(ConfigError):
        yield_study(DacConfig(), 99, "eses")
    with pytest.raises(ConfigError):
        yield_study(DacConfig(), 100, "amplitude")
    with pytest.raises(ConfigError):
        yield_study(DacConfig(), 100, "eses", bins=0)
    with pytest.raises(ConfigError):
        yield_study(DacConfig(), 100, "self-heal")
    with pytest.raises(ConfigError):
        yield_study(SelfHealConfig(), 100, "eses")


def test_yield_selfheal_flow():
    result = yield_study(SelfHealConfig(), 100, "self-heal", master_seed=19)
    assert result.summary["heal_success_rate"] >= 0.9
    for row in result.rows:
        assert row["healed"] in (0.0, 1.0)
        assert (row["healed"] == 0.0) == math.isnan(row["post_inl_max"])
        if row["healed"]:
            assert row["post_inl_max"] < row["pre_inl_max"]


def test_yield_timing_flow():
    result = yield_study(DacConfig(), 100, "timing", master_seed=23)
    summary = result.summary
    assert set(summary) == {
        "pre_delay_sigma_pooled", "post_delay_sigma_pooled",
        "pre_duty_sigma_pooled", "post_duty_sigma_pooled",
    }
    assert summary["post_delay_sigma_pooled"] < summary["pre_delay_sigma_pooled"] / 10
    assert summary["post_duty_sigma_pooled"] < summary["pre_duty_sigma_pooled"] / 10
    assert abs(summary["pre_delay_sigma_pooled"] - 1.3e-12) < 0.1e-12
    assert abs(summary["pre_duty_sigma_pooled"] - 1.8e-12) < 0.15e-12


def test_yield_zero_variance_converter_is_perfect():
    result = yield_study(zero_variance_config(), 100, "eses", master_seed=29)
    for column in ("pre_inl_max", "post_inl_max"):
        assert result.percentiles[column]["p99"] < 1e-9
