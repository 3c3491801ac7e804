"""Tests for the harmonic-rejection receiver model.

Two independent oracles anchor the waveform pipeline: the textbook rejection
formula for a mismatch-free receiver with arbitrary recombination weights
(HRR_n = 20*log10(n*(1+rho)/|1-rho|), rho = b/(a*sqrt(2))), and a dense
midpoint-Riemann demodulation of the composite LO built from boolean phase
masks rather than edge algebra.  Calibration behavior is asserted as
properties: per-step objectives never regress, repeated iterations agree,
and population statistics land in the documented bands.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from subsetcal.waveform import fourier_coeff
from subsetcal.hrmixer import (
    HRR_DB_CAP,
    PATH_BRANCHES,
    ConfigError,
    DegenerateConfigurationError,
    HrConfig,
    HrReceiverSample,
    TunableInverter,
    calibrate_even_order,
    calibrate_odd_order,
    effective_lo,
    hrr,
    measure_harmonic_power,
    sample_receiver,
    sweep_hrr,
    zero_variance_receiver,
)

from oracles import ideal_receiver


def closed_form_hrr(weights: tuple[float, float, float], n: int) -> float:
    """Rejection of harmonic n for exact weights a:b:a on an 8-phase LO."""
    a, b, _ = weights
    rho = b / (a * math.sqrt(2.0))
    return 20.0 * math.log10(n * (1.0 + rho) / abs(1.0 - rho))


def riemann_path_coeff(
    sample: HrReceiverSample, path: str, n: int, f: float, grid: int = 1 << 20
) -> complex:
    """Fourier coefficient by brute-force sampling of the composite LO.

    Each phase clock is rebuilt as a boolean mask over a dense midpoint grid,
    so this route shares no waveform algebra with the implementation.  The
    midpoint-Riemann error is bounded by (sum of |level jumps|)/grid.
    """
    cfg = sample.config
    t = (np.arange(grid) + 0.5) / grid
    val = np.zeros(grid)
    for pos, bi in enumerate(PATH_BRANCHES[path]):
        branch = sample.branches[bi]
        amp = branch.gain(cfg.gain_alpha) * cfg.weights[pos]
        p = branch.lo_phase_index
        for phase, sign in ((p, 1.0), (p + 4, -1.0)):
            rise = (phase / 8.0 + f * sample.phases.rise_errors[phase]) % 1.0
            fall = (phase / 8.0 + 0.5 + f * sample.phases.fall_errors[phase]) % 1.0
            if rise <= fall:
                mask = (t >= rise) & (t < fall)
            else:
                mask = (t >= rise) | (t < fall)
            val += amp * sign * mask
    return complex((val * np.exp(-2j * np.pi * n * t)).mean())


def seeded_sample(i: int, config: HrConfig | None = None) -> HrReceiverSample:
    cfg = config or HrConfig()
    rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(i,)))
    return sample_receiver(cfg, rng)


@pytest.fixture(scope="module")
def default_config() -> HrConfig:
    return HrConfig()


@pytest.fixture(scope="module")
def calibrated_population(default_config):
    """40 receivers through even + odd calibration at 2 and 3 iterations."""
    cfg = default_config
    rows = []
    for i in range(40):
        s0 = seeded_sample(i, cfg)
        pre2 = hrr(s0, "I", 2, cfg.f0)
        even, even_report = calibrate_even_order(s0)
        two, report2 = calibrate_odd_order(even, cfg.f0, cfg.f_low, iterations=2)
        three, _ = calibrate_odd_order(even, cfg.f0, cfg.f_low, iterations=3)
        rows.append(
            dict(
                pre=s0,
                pre_hrr2=pre2,
                even=even,
                even_report=even_report,
                two=two,
                report2=report2,
                three=three,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# configuration and sizing
# ---------------------------------------------------------------------------


def test_config_validation_rejects_bad_fields():
    with pytest.raises(ConfigError):
        HrConfig(f_low=800e6)  # above f0
    with pytest.raises(ConfigError):
        HrConfig(k_selected=12)
    with pytest.raises(ConfigError):
        HrConfig(gain_alpha=0.0)
    with pytest.raises(ConfigError):
        HrConfig(weights=(12.0, 17.0))
    with pytest.raises(ConfigError):
        HrConfig(range_margin=0.9)


def test_coverage_check_rejects_underdriven_networks():
    # Nearly no intrinsic clock variance leaves the selection network too weak
    # to span 6 sigma of the extrinsic delay error.
    with pytest.raises(ConfigError):
        HrConfig(clock_intrinsic_fraction=1e-6)
    with pytest.raises(ConfigError):
        HrConfig(diff_intrinsic_fraction=1e-6)
    # gain range is sized from the total budget, so the failure mode there is
    # a budget too large for any feasible arithmetic spread
    with pytest.raises(ConfigError):
        HrConfig(gain_sigma=0.2)


def test_step_sizes_cover_six_sigma():
    cfg = HrConfig()
    # the widest reachable pull-down deviation must cover 6 sigma of the total
    for drive, step, total in (
        (cfg.clock_drive, cfg.clock_step, cfg.clock_delay_sigma),
        (cfg.buffer_drive, cfg.buffer_step, math.sqrt(0.5) * cfg.diff_phase_sigma),
    ):
        down_reach = drive * 3.0 * step / (1.0 + 3.0 * step)
        assert down_reach >= cfg.coverage_sigma * total
    # gain: (1 +/- 3*step)^alpha must cover 6 sigma of relative gain error
    up = (1.0 + 3.0 * cfg.tail_step) ** cfg.gain_alpha - 1.0
    down = 1.0 - (1.0 - 3.0 * cfg.tail_step) ** cfg.gain_alpha
    assert min(up, down) >= cfg.coverage_sigma * cfg.gain_sigma


def test_inverter_delay_model():
    inv = TunableInverter(
        elements=_unit_elements(),
        selection=_first_six(),
        base_delay=50e-12,
        drive_coefficient=4.5e-10,
        extrinsic_error=1e-12,
    )
    # nominal selection of a uniform set leaves only the extrinsic part
    assert inv.deviation == pytest.approx(1e-12, abs=1e-24)
    assert inv.delay == pytest.approx(50e-12 + 4.5e-10 + 1e-12, rel=1e-12)


def _unit_elements():
    from subsetcal.mismatch import ElementSet

    nominal = np.ones(12)
    return ElementSet(nominal=nominal, realized=nominal.copy())


def _first_six():
    from subsetcal.mismatch import Combination

    return Combination(tuple(range(6)))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_receiver_deterministic():
    a = seeded_sample(3)
    b = seeded_sample(3)
    for inv_a, inv_b in zip(a.phases.rise_networks, b.phases.rise_networks):
        np.testing.assert_array_equal(
            inv_a.elements.realized, inv_b.elements.realized
        )
        assert inv_a.extrinsic_error == inv_b.extrinsic_error
    for br_a, br_b in zip(a.branches, b.branches):
        np.testing.assert_array_equal(
            br_a.elements.realized, br_b.elements.realized
        )
    assert seeded_sample(4).phases.clock_networks[0].extrinsic_error != (
        a.phases.clock_networks[0].extrinsic_error
    )


def test_sample_receiver_starts_balanced():
    s = seeded_sample(0)
    k = s.config.k_selected
    for inv in s.phases.clock_networks + s.phases.rise_networks:
        assert inv.selection.k == k
    for br in s.branches:
        assert br.selection.k == k


def test_duty_error_budget():
    # per-phase duty error (rise vs fall deviation difference) has the full
    # differential-phase sigma; measured over many receivers
    cfg = HrConfig()
    vals = []
    for i in range(400):
        s = seeded_sample(i, cfg)
        for p in range(8):
            vals.append(s.phases.rise_errors[p] - s.phases.fall_errors[p])
    # rise/fall share the clock term, so the difference isolates the two
    # buffer networks: variance = 2 * (diff_phase_sigma^2 / 2)
    assert np.std(vals) == pytest.approx(cfg.diff_phase_sigma, rel=0.05)


# ---------------------------------------------------------------------------
# spectra against the independent oracles
# ---------------------------------------------------------------------------


def test_zero_variance_matches_closed_form():
    for weights in ((29.0, 41.0, 29.0), (12.0, 17.0, 12.0), (1.0, 1.5, 1.0)):
        cfg = dataclasses.replace(HrConfig(), weights=weights)
        s = zero_variance_receiver(cfg)
        for n in (3, 5):
            assert hrr(s, "I", n, cfg.f0) == pytest.approx(
                closed_form_hrr(weights, n), abs=1e-9
            )


def test_ideal_receiver_rejects_everything():
    s = ideal_receiver()
    lo = effective_lo(s, "I", 750e6)
    c1 = fourier_coeff(lo, 1)
    for n in (2, 3, 4, 5, 6):
        assert hrr(s, "I", n, 750e6) == math.inf
        assert abs(fourier_coeff(lo, n)) < 1e-12 * abs(c1)
    assert hrr(s, "Q", 3, 750e6) == math.inf


def test_pipeline_matches_riemann_demodulation():
    cfg = HrConfig()
    for i in (0, 1):
        s = seeded_sample(i, cfg)
        lo = effective_lo(s, "I", cfg.f0)
        for n in (1, 2, 3, 5):
            pipe = fourier_coeff(lo, n)
            brute = riemann_path_coeff(s, "I", n, cfg.f0)
            assert abs(pipe - brute) < 2e-3


def test_effective_lo_is_sum_of_branch_contributions():
    cfg = HrConfig()
    s = seeded_sample(5, cfg)
    lo = effective_lo(s, "I", cfg.f0)
    for n in (1, 3):
        total = 0j
        for pos, bi in enumerate(PATH_BRANCHES["I"]):
            solo = dataclasses.replace(
                s,
                branches=tuple(
                    dataclasses.replace(
                        br, extrinsic_error=(br.extrinsic_error if j == bi else -1.0)
                    )
                    for j, br in enumerate(s.branches)
                ),
            )
            total += fourier_coeff(effective_lo(solo, "I", cfg.f0), n)
        assert abs(total - fourier_coeff(lo, n)) < 1e-12 * abs(fourier_coeff(lo, 1))


def test_hrr_invariances():
    cfg = HrConfig()
    s = seeded_sample(7, cfg)
    base3 = hrr(s, "I", 3, cfg.f0)
    # common gain scale: double every recombination weight
    scaled_cfg = dataclasses.replace(cfg, weights=tuple(2 * w for w in cfg.weights))
    scaled = dataclasses.replace(s, config=scaled_cfg)
    assert hrr(scaled, "I", 3, cfg.f0) == pytest.approx(base3, abs=1e-9)
    # common time shift applied to every phase edge
    delta = 3e-12
    shifted = dataclasses.replace(
        s,
        phases=dataclasses.replace(
            s.phases,
            rise_networks=tuple(
                dataclasses.replace(inv, extrinsic_error=inv.extrinsic_error + delta)
                for inv in s.phases.rise_networks
            ),
            fall_networks=tuple(
                dataclasses.replace(inv, extrinsic_error=inv.extrinsic_error + delta)
                for inv in s.phases.fall_networks
            ),
        ),
    )
    assert hrr(shifted, "I", 3, cfg.f0) == pytest.approx(base3, abs=1e-9)


def test_hrr_power_identity():
    cfg = HrConfig()
    s = seeded_sample(9, cfg)
    for n in (2, 3, 5):
        power = measure_harmonic_power(s, "I", n, cfg.f0)
        assert hrr(s, "I", n, cfg.f0) == pytest.approx(
            -10.0 * math.log10(power), abs=1e-9
        )


def test_degenerate_receiver_raises():
    s = seeded_sample(0)
    dead = dataclasses.replace(
        s,
        branches=tuple(
            dataclasses.replace(br, extrinsic_error=-1.0) for br in s.branches
        ),
    )
    with pytest.raises(DegenerateConfigurationError):
        hrr(dead, "I", 3, s.config.f0)


def test_edge_error_guard():
    s = seeded_sample(0)
    slow = dataclasses.replace(
        s,
        phases=dataclasses.replace(
            s.phases,
            rise_networks=(
                dataclasses.replace(
                    s.phases.rise_networks[0],
                    extrinsic_error=s.phases.rise_networks[0].extrinsic_error + 1e-10,
                ),
            )
            + s.phases.rise_networks[1:],
        ),
    )
    with pytest.raises(ConfigError):
        effective_lo(slow, "I", 750e6)  # |f * error| >= 1/16
    effective_lo(slow, "I", 150e6)  # fine at a lower frequency


def test_invalid_path_and_harmonic():
    s = seeded_sample(0)
    with pytest.raises(ConfigError):
        effective_lo(s, "X", 750e6)
    with pytest.raises(ConfigError):
        hrr(s, "I", 1, 750e6)
    with pytest.raises(ConfigError):
        hrr(s, "I", 3, 0.0)


def test_precal_hrr3_band(default_config):
    cfg = default_config
    med = np.median(
        [hrr(seeded_sample(i, cfg), "I", 3, cfg.f0) for i in range(1000)]
    )
    assert 30.0 < med < 45.0


# ---------------------------------------------------------------------------
# even-order calibration
# ---------------------------------------------------------------------------


def test_even_cal_is_noop_on_ideal_receiver():
    s = ideal_receiver()
    out, report = calibrate_even_order(s)
    assert hrr(out, "I", 2, out.config.f0) == math.inf
    for inv in out.phases.rise_networks + out.phases.fall_networks:
        assert inv.deviation == 0.0


def test_even_cal_properties(calibrated_population, default_config):
    cfg = default_config
    gains = []
    for row in calibrated_population:
        report = row["even_report"]
        assert all(
            st.objective_after <= st.objective_before for st in report.steps
        )
        post = hrr(row["even"], "I", 2, cfg.f0)
        assert post >= row["pre_hrr2"]
        gains.append(post - row["pre_hrr2"])
    assert np.median(gains) >= 25.0


def test_even_cal_helps_higher_even_harmonics(calibrated_population, default_config):
    cfg = default_config
    for n in (4, 6):
        deltas = [
            hrr(row["even"], "I", n, cfg.f0) - hrr(row["pre"], "I", n, cfg.f0)
            for row in calibrated_population[:10]
        ]
        assert np.median(deltas) > 10.0


# ---------------------------------------------------------------------------
# odd-order calibration
# ---------------------------------------------------------------------------


def test_odd_cal_validation():
    s = ideal_receiver()
    with pytest.raises(ConfigError):
        calibrate_odd_order(s, 750e6, 750e6)
    with pytest.raises(ConfigError):
        calibrate_odd_order(s, 750e6, 15e6, iterations=0)


def test_odd_cal_is_noop_on_ideal_receiver():
    s = ideal_receiver()
    out, report = calibrate_odd_order(s, 750e6, 15e6)
    assert hrr(out, "I", 3, 750e6) == math.inf
    assert hrr(out, "I", 5, 750e6) == math.inf
    for inv in out.phases.clock_networks:
        assert inv.deviation == 0.0
    for br in out.branches:
        assert br.gain(out.config.gain_alpha) == pytest.approx(1.0, abs=1e-15)


def test_odd_cal_trace_never_regresses(calibrated_population):
    for row in calibrated_population:
        assert all(
            st.objective_after <= st.objective_before
            for st in row["report2"].steps
        )


def test_odd_cal_reaches_rejection_band(calibrated_population, default_config):
    cfg = default_config
    h3 = np.array([hrr(r["two"], "I", 3, cfg.f0) for r in calibrated_population])
    h5 = np.array([hrr(r["two"], "I", 5, cfg.f0) for r in calibrated_population])
    assert np.mean((h3 >= 70.0) & (h5 >= 70.0)) >= 0.85
    assert np.median(h3) >= 85.0


def test_two_iterations_suffice(calibrated_population, default_config):
    cfg = default_config
    for n in (3, 5):
        med2 = np.median([hrr(r["two"], "I", n, cfg.f0) for r in calibrated_population])
        med3 = np.median(
            [hrr(r["three"], "I", n, cfg.f0) for r in calibrated_population]
        )
        assert abs(med2 - med3) < 1.0


def test_q_path_also_improves(calibrated_population, default_config):
    cfg = default_config
    pre = [hrr(r["pre"], "Q", 3, cfg.f0) for r in calibrated_population[:10]]
    post = [hrr(r["two"], "Q", 3, cfg.f0) for r in calibrated_population[:10]]
    assert np.median(np.array(post) - np.array(pre)) > 10.0


def test_report_serialization(calibrated_population):
    report = calibrated_population[0]["report2"]
    blob = report.to_json_dict()
    text = json.dumps(blob)  # must be JSON-ready as-is
    parsed = json.loads(text)
    names = set(parsed["selections"])
    assert {f"tail{i}" for i in range(4)} <= names
    assert {f"clock{i}" for i in range(4)} <= names
    assert {f"rise{i}" for i in range(8)} <= names
    assert {f"fall{i}" for i in range(8)} <= names
    first = parsed["trace"][0]
    assert set(first) == {
        "stage",
        "iteration",
        "target",
        "objective_before",
        "objective_after",
    }


# ---------------------------------------------------------------------------
# frequency sweep
# ---------------------------------------------------------------------------


def test_sweep_shape_and_retention(calibrated_population, default_config):
    cfg = default_config
    sample = calibrated_population[0]["two"]
    f_list = np.linspace(150e6, 750e6, 5)
    n_list = (2, 3, 4, 5, 6)
    points = sweep_hrr(sample, f_list, n_list)
    assert len(points) == len(f_list) * len(n_list)
    assert all(p.hrr_db == hrr(sample, "I", p.n, p.f_hz) for p in points)
    assert np.median([p.hrr_db for p in points]) >= 70.0


def test_sweep_caps_infinite_values():
    s = ideal_receiver()
    points = sweep_hrr(s, [750e6], [3])
    assert points[0].hrr_db == HRR_DB_CAP


# ---------------------------------------------------------------------------
# derived state: stored values against a from-scratch recomputation
# ---------------------------------------------------------------------------


def scratch_delay(inv: TunableInverter) -> float:
    """delay = base + drive * W_nominal_half/W_selected + extrinsic, from the
    inverter's elements and selection alone."""
    if inv.drive_coefficient == 0.0:
        return inv.base_delay + inv.extrinsic_error
    w_nominal_half = float(inv.elements.nominal.mean()) * inv.selection.k
    w_selected = float(inv.elements.realized[list(inv.selection.indices)].sum())
    delay = inv.base_delay + inv.drive_coefficient * (w_nominal_half / w_selected)
    return delay + inv.extrinsic_error


def scratch_gain(branch, alpha: float) -> float:
    i_nominal_half = float(branch.elements.nominal.mean()) * branch.selection.k
    i_selected = float(branch.elements.realized[list(branch.selection.indices)].sum())
    return (i_selected / i_nominal_half) ** alpha * (1.0 + branch.extrinsic_error)


def assert_state_matches_scratch(sample: HrReceiverSample) -> None:
    ph = sample.phases
    deviations = {}
    for inv in ph.clock_networks + ph.rise_networks + ph.fall_networks:
        delay = scratch_delay(inv)
        assert inv.delay == delay
        assert inv.deviation == delay - inv.base_delay - inv.drive_coefficient
        deviations[id(inv)] = inv.deviation
    for p in range(8):
        clock = deviations[id(ph.clock_networks[p % 4])]
        assert ph.rise_errors[p] == clock + deviations[id(ph.rise_networks[p])]
        assert ph.fall_errors[p] == clock + deviations[id(ph.fall_networks[p])]
    for br in sample.branches:
        assert br.gain(sample.config.gain_alpha) == scratch_gain(br, sample.config.gain_alpha)


def test_derived_state_is_fresh_after_every_calibration_step(monkeypatch):
    # every step measures its trial receiver, so checking each measured
    # receiver covers every trial and every committed state
    from subsetcal import hrmixer

    checked = []

    def checking(original):
        def measure(sample, *args):
            assert_state_matches_scratch(sample)
            checked.append(sample)
            return original(sample, *args)

        return measure

    for name in ("measure_harmonic_power", "_branch_objective"):
        monkeypatch.setattr(hrmixer, name, checking(getattr(hrmixer, name)))
    steps = 0
    for i in range(4):
        s = seeded_sample(i)
        assert_state_matches_scratch(s)
        s, even = calibrate_even_order(s)
        s, odd = calibrate_odd_order(s, s.config.f0, s.config.f_low)
        assert_state_matches_scratch(s)
        assert any(st.objective_after < st.objective_before for st in even.steps + odd.steps)
        steps += len(even.steps) + len(odd.steps)
    assert len(checked) > steps > 4 * 50


def test_with_selection_rebuilds_derived_values():
    from subsetcal.mismatch import Combination

    s = seeded_sample(5)
    other = Combination((0, 1, 2, 3, 4, 5))
    inv = s.phases.rise_networks[2]
    moved = inv.with_selection(other)
    assert moved.selection == other
    assert moved.delay == scratch_delay(moved) != inv.delay
    assert moved.deviation == moved.delay - moved.base_delay - moved.drive_coefficient
    assert moved.deviation != inv.deviation
    branch = s.branches[1]
    alpha = s.config.gain_alpha
    retuned = branch.with_selection(other)
    assert retuned.gain(alpha) == scratch_gain(retuned, alpha) != branch.gain(alpha)
    with pytest.raises(ValueError):
        s.phases.rise_errors[0] = 0.0  # stored errors are read-only
