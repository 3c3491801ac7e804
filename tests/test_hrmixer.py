"""Tests for the harmonic-rejection receiver model.

Two independent oracles anchor the waveform pipeline: the textbook rejection
formula for a mismatch-free receiver with arbitrary recombination weights
(HRR_n = 20*log10(n*(1+rho)/|1-rho|), rho = b/(a*sqrt(2))), and a dense
midpoint-Riemann demodulation of the composite LO built from boolean phase
masks rather than edge algebra.  The array receiver's draw and derived state
are checked bit for bit against set-by-set draws and the scalar
inverse-width delay law in ``oracles``, its array-form effective LO
against the sum of six square-wave objects there, its knob search
against the scorer there that evaluates all four edges of every candidate,
and its calibration stages against the stage loop there that searches at
every step.
Calibration behavior is asserted as properties: per-step objectives never
regress, repeated iterations agree, and population statistics land in the
documented bands; one hash pins every step and HRR of 24 receivers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from subsetcal import hrmixer
from subsetcal.waveform import fourier_coeff
from subsetcal.hrmixer import (
    HRR_DB_CAP,
    PATH_BRANCHES,
    ConfigError,
    DegenerateConfigurationError,
    HrConfig,
    HrReceiverSample,
    calibrate_even_order,
    calibrate_odd_order,
    effective_lo,
    measure_harmonic_power,
    sample_receiver,
    sweep_hrr,
)

from subsetcal.mismatch import (
    BASE_DELAY,
    COVERAGE_SIGMA,
    Arithmetic,
    MismatchModel,
    all_subset_sums,
    combination_index_matrix,
    inverse_width_deviation,
)
from subsetcal.runner import sample_substream

from oracles import (
    calibrate_stage as oracle_calibrate_stage,
    hrr,
    ideal_receiver,
    inverter_deviation,
    knob_objectives,
    n_edges,
    receiver_gain,
    receiver_state,
    sample_element_set,
    square_wave_lo,
    zero_variance_receiver,
)


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
    _, _, rise_errors, fall_errors = receiver_state(sample)
    t = (np.arange(grid) + 0.5) / grid
    val = np.zeros(grid)
    for pos, p in enumerate(PATH_BRANCHES[path]):
        amp = receiver_gain(sample, p) * cfg.weights[pos]
        for phase, sign in ((p, 1.0), (p + 4, -1.0)):
            rise = (phase / 8.0 + f * rise_errors[phase]) % 1.0
            fall = (phase / 8.0 + 0.5 + f * fall_errors[phase]) % 1.0
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


def with_extrinsic(sample: HrReceiverSample, rows, value=None, shift=0.0) -> HrReceiverSample:
    """``sample`` with the extrinsic error of knob ``rows`` set to ``value``
    or moved by ``shift``."""
    extrinsic = sample.extrinsic.copy()
    extrinsic[rows] = extrinsic[rows] + shift if value is None else value
    return dataclasses.replace(sample, extrinsic=extrinsic)


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
        two, report2 = calibrate_odd_order(even, iterations=2)
        three, _ = calibrate_odd_order(even, iterations=3)
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
        HrConfig(weights=(12.0, 17.0))


def test_coverage_check_rejects_underdriven_networks():
    # Wide element mismatch leaves each width worth little delay: the
    # selection network is too weak to span 6 sigma of the stage's spread.
    with pytest.raises(ConfigError, match="cannot cover 2.553e-11s"):
        HrConfig(element_rel_sigma=0.2)  # the clock inverters
    with pytest.raises(ConfigError, match="cannot cover 1.38e-11s"):
        HrConfig(element_rel_sigma=0.2, clock_delay_sigma=0.0)  # the buffers
    # a spread so small that its intrinsic share rounds to 0: no drive at all
    with pytest.raises(ConfigError, match="range 0s cannot cover"):
        HrConfig(diff_phase_sigma=5e-324)
    # gain range is sized from the total budget, so the failure mode there is
    # a budget too large for any feasible arithmetic spread
    with pytest.raises(ConfigError):
        HrConfig(gain_sigma=0.2)
    # a budget whose step puts the range's low end, 1 - 3 * tail_step, below
    # zero; with 4 elements the element sizes themselves stay positive
    for geometry in ({}, {"n_elements": 4, "k_selected": 2}):
        with pytest.raises(ConfigError, match="tail_step"):
            HrConfig(gain_sigma=0.08, **geometry)


def test_step_sizes_cover_six_sigma():
    cfg = HrConfig()
    # the widest reachable pull-down deviation must cover 6 sigma of the total
    for (drive, step), total in (
        (cfg.clock_network, cfg.clock_delay_sigma),
        (cfg.buffer_network, math.sqrt(0.5) * cfg.diff_phase_sigma),
    ):
        down_reach = drive * 3.0 * step / (1.0 + 3.0 * step)
        assert down_reach >= COVERAGE_SIGMA * total
    # gain: (1 +/- 3*step)^alpha must cover 6 sigma of relative gain error
    # over the budgets a config accepts; no config check repeats this
    for gain_sigma in (1e-12, 1e-6, 1e-3, cfg.gain_sigma, 0.03):
        step = HrConfig(gain_sigma=gain_sigma).tail_step
        up = (1.0 + 3.0 * step) ** hrmixer.GAIN_ALPHA - 1.0
        down = 1.0 - (1.0 - 3.0 * step) ** hrmixer.GAIN_ALPHA
        assert min(up, down) >= COVERAGE_SIGMA * gain_sigma


def test_inverter_delay_model():
    # nominal selection of a uniform set leaves only the extrinsic part
    deviation = inverse_width_deviation(4.5e-10, 6.0, 6.0, 1e-12)
    nominal = np.ones(12)
    oracle = inverter_deviation(nominal, nominal.copy(), tuple(range(6)), 4.5e-10, 1e-12)
    assert oracle == deviation == pytest.approx(1e-12, abs=1e-24)
    # without drive the width term drops out: base + extrinsic exactly
    assert inverse_width_deviation(0.0, 6.0, 5.5, 1e-12) == (BASE_DELAY + 1e-12) - BASE_DELAY


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_receiver_deterministic():
    a = seeded_sample(3)
    b = seeded_sample(3)
    np.testing.assert_array_equal(a.elements, b.elements)
    np.testing.assert_array_equal(a.extrinsic, b.extrinsic)
    assert seeded_sample(4).extrinsic[4] != a.extrinsic[4]  # clock 0


def test_sample_receiver_starts_balanced():
    s = seeded_sample(0)
    n, k = s.config.n_elements, s.config.k_selected
    combos = combination_index_matrix(n, k)
    for row in s.selection:
        assert tuple(combos[row]) == (0, 2, 4, 7, 9, 11)


def set_by_set_draw(cfg: HrConfig, rng) -> tuple[np.ndarray, np.ndarray, int]:
    """The receiver's draws one set at a time, in the documented order: per
    branch its tail set then extrinsic gain error, per pair its clock widths
    then extrinsic delay, per phase rise then fall widths, each followed by
    its extrinsic.  Returns (elements, extrinsic, redraws) in knob order."""
    n = cfg.n_elements
    tail = (Arithmetic(1.0, cfg.tail_step), MismatchModel(cfg.tail_element_sigma, 1.0))
    width = MismatchModel(cfg.element_rel_sigma, 1.0)
    clock, buffer = Arithmetic(1.0, cfg.clock_network[1]), Arithmetic(1.0, cfg.buffer_network[1])
    plan = 4 * [(tail, cfg.tail_extrinsic_sigma, "tail")]
    plan += 4 * [((clock, width), cfg.clock_extrinsic_sigma, "clock")]
    for _ in range(8):
        plan += [((buffer, width), cfg.buffer_extrinsic_sigma, kind) for kind in ("rise", "fall")]
    drawn = {"tail": [], "clock": [], "rise": [], "fall": []}
    redraws = 0
    for (scheme, model), sigma, kind in plan:
        _, realized, resamples = sample_element_set(scheme, model, n, rng)
        redraws += resamples
        drawn[kind].append((realized, float(rng.normal(0.0, sigma))))
    rows = drawn["tail"] + drawn["clock"] + drawn["rise"] + drawn["fall"]
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows]), redraws


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"n_elements": 16, "k_selected": 8},
        {"element_rel_sigma": 0.5, "clock_delay_sigma": 0.0, "diff_phase_sigma": 0.0},
    ],
    ids=["default", "n16-k8", "rewind"],
)
def test_sample_receiver_matches_set_by_set_draws(overrides):
    cfg = HrConfig(**overrides)
    redraws = 0
    for i in range(30):
        s = sample_receiver(cfg, sample_substream(1, i))
        elements, extrinsic, count = set_by_set_draw(cfg, sample_substream(1, i))
        assert np.array_equal(s.elements, elements)
        assert np.array_equal(s.extrinsic, extrinsic)
        redraws += count
    assert (redraws > 0) == ("element_rel_sigma" in overrides)


def test_duty_error_budget():
    # per-phase duty error (rise vs fall deviation difference) has the full
    # differential-phase sigma; measured over many receivers
    cfg = HrConfig()
    vals = []
    for i in range(400):
        s = seeded_sample(i, cfg)
        for p in range(8):
            vals.append(s.rise_errors[p] - s.fall_errors[p])
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
            solo = with_extrinsic(s, [m for m in range(4) if m != bi], -1.0)
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
    shifted = with_extrinsic(s, slice(8, 24), shift=delta)  # every rise and fall
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
    dead = with_extrinsic(s, slice(0, 4), -1.0)  # every tail
    f0 = s.config.f0
    oracle = square_wave_lo(dead, "I", f0)
    assert n_edges(oracle) == 0 and fourier_coeff(oracle, 1) == 0
    lo = effective_lo(dead, "I", f0)
    assert n_edges(lo) == 0 and lo.dc.hex() == oracle.dc.hex() == "0x0.0p+0"  # not -0.0
    message = "effective LO has no fundamental component"
    with pytest.raises(DegenerateConfigurationError, match=message):
        hrr(dead, "I", 3, f0)
    with pytest.raises(DegenerateConfigurationError, match=message):
        measure_harmonic_power(dead, "I", 2, f0)
    with pytest.raises(DegenerateConfigurationError, match=message):
        sweep_hrr(dead, [f0], [3, 5])


def test_edge_error_guard():
    s = seeded_sample(0)
    slow = with_extrinsic(s, 8, shift=1e-10)  # rise 0
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
    # a sweep checks each point in hrr's order: the harmonic, then the LO
    with pytest.raises(ConfigError, match="harmonic index must be >= 2"):
        sweep_hrr(s, [750e6], [1, 3], "X")
    with pytest.raises(ConfigError, match="path must be 'I' or 'Q'"):
        sweep_hrr(s, [750e6], [3, 1], "X")
    assert sweep_hrr(s, [750e6], [], "X") == []


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
    assert np.all(out.deviations[4:] == 0.0)  # every rise and fall network


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
        calibrate_odd_order(s, iterations=0)
    with pytest.raises(ConfigError, match="iterations must be <= 100, got 101"):
        calibrate_odd_order(s, iterations=hrmixer.MAX_ITERATIONS + 1)


def test_odd_cal_is_noop_on_ideal_receiver():
    s = ideal_receiver()
    out, report = calibrate_odd_order(s)
    assert hrr(out, "I", 3, 750e6) == math.inf
    assert hrr(out, "I", 5, 750e6) == math.inf
    assert np.all(out.deviations[:4] == 0.0)  # every clock
    for m in range(4):
        assert hrmixer._branch_gain(out, m) == pytest.approx(1.0, abs=1e-15)


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


def assert_state_matches_scratch(sample: HrReceiverSample) -> None:
    """Stored ratios, deviations and edge errors equal, bit for bit, the
    knob-by-knob scalar recomputation of ``oracles.receiver_state``."""
    ratios, deviations, rise, fall = receiver_state(sample)
    assert sample.tail_ratios.tolist() == ratios
    assert sample.deviations.tolist() == deviations
    assert sample.rise_errors.tolist() == rise
    assert sample.fall_errors.tolist() == fall
    for m in range(4):
        assert hrmixer._branch_gain(sample, m) == receiver_gain(sample, m)


class StepLog(list):
    """A stage's step list that logs each step into ``events`` as it comes."""

    def __init__(self, events: list):
        super().__init__()
        self.events = events

    def append(self, step) -> None:
        self.events.append(("step", step))
        super().append(step)


def test_derived_state_is_fresh_after_every_calibration_step(monkeypatch):
    # every receiver a step builds and every receiver a measure reads is
    # checked.  A step searches unless its stage has already searched the
    # knob at the same selections (a repeat), and it builds a trial unless
    # its best row is the one already selected, when its objective stays
    # exactly where it was
    measured, trials, choices, events, keys = [], [], [], [], []

    def checking(original):
        def measure(sample, *args):
            assert_state_matches_scratch(sample)
            measured.append(sample)
            return original(sample, *args)

        return measure

    def with_knob(sample, name, best):
        moved = original_with_knob(sample, name, best)
        assert_state_matches_scratch(moved)
        trials.append(moved)
        events.append(("trial", name))
        return moved

    def best_selection(sample, name, *args):
        best = original_best(sample, name, *args)
        choices.append(best != sample.selection[hrmixer._KNOB_ROWS[name]])
        events.append(("search", choices[-1]))
        keys[-1].append((name, sample.selection.tobytes()))
        return best

    def calibrate_stage(sample, steps, *args):
        keys.append([])
        logged = StepLog(events)
        sample = original_stage(sample, logged, *args)
        steps += logged
        return sample

    original_with_knob, original_best = hrmixer._with_knob, hrmixer._best_selection
    original_stage = hrmixer._calibrate_stage
    for name in ("measure_harmonic_power", "_branch_objective"):
        monkeypatch.setattr(hrmixer, name, checking(getattr(hrmixer, name)))
    monkeypatch.setattr(hrmixer, "_with_knob", with_knob)
    monkeypatch.setattr(hrmixer, "_best_selection", best_selection)
    monkeypatch.setattr(hrmixer, "_calibrate_stage", calibrate_stage)
    steps = []
    for i in range(4):
        s = seeded_sample(i)
        assert_state_matches_scratch(s)
        s, even = calibrate_even_order(s)
        s, odd = calibrate_odd_order(s)
        assert_state_matches_scratch(s)
        assert any(st.objective_after < st.objective_before for st in even.steps + odd.steps)
        steps += even.steps + odd.steps
    records = []  # per step: the step, its search's choice (None: a repeat), a trial built
    search, trial = None, False
    for kind, value in events:
        if kind == "step":
            records.append((value, search, trial))
            search, trial = None, False
        elif kind == "search":
            assert search is None and not trial  # one search at most, before any trial
            search = value
        else:
            assert not trial
            trial = True
    assert [step for step, _, _ in records] == steps
    repeats = [record for record in records if record[1] is None]
    assert len(steps) == len(choices) + len(repeats) > 4 * 50
    assert repeats  # some steps repeat a search their stage has made
    for step, choice, built in records:
        assert choice is None or built == choice
        assert built or step.objective_after == step.objective_before
    assert len(trials) == sum(built for _, _, built in records) >= sum(choices) > 0
    assert sum(choices) < len(steps)  # some steps choose the row already set
    for stage_keys in keys:  # no stage searches a knob twice at one selection
        assert len(set(stage_keys)) == len(stage_keys)
    # each of the 4 + 8 stages of a receiver measures at its start, and each
    # trial once
    assert len(measured) == len(trials) + 4 * (4 + 8)


def knob_values(sample: HrReceiverSample) -> np.ndarray:
    """The value each knob row feeds, in row order: tail ratios, then deviations."""
    return np.concatenate((sample.tail_ratios, sample.deviations))


def test_with_selection_rebuilds_derived_values():
    s = seeded_sample(5)
    first = 0  # combination (0, 1, 2, 3, 4, 5)
    for name, row in (("rise2", 10), ("tail1", 1), ("clock3", 7)):
        moved = hrmixer._with_knob(s, name, first)
        assert moved.selection[row] == first
        assert np.array_equal(np.delete(moved.selection, row), np.delete(s.selection, row))
        assert_state_matches_scratch(moved)
        assert knob_values(moved)[row] != knob_values(s)[row]
    assert hrmixer._with_knob(s, "rise2", first).rise_errors[2] != s.rise_errors[2]
    assert hrmixer._with_knob(s, "tail1", first).tail_ratios[1] != s.tail_ratios[1]
    assert s.selection[10] != first  # the source sample is left as it was
    with pytest.raises(ValueError):
        s.rise_errors[0] = 0.0  # stored errors are read-only


@pytest.mark.parametrize("name", ["clock1", "rise5", "fall2"])
def test_with_knob_rejects_a_non_positive_delay(name):
    """A move to a row whose inverter delay is <= 0 raises, as a receiver
    built with that selection does: the extrinsic error puts the balanced
    row's delay above zero and the widest row's below."""
    s = seeded_sample(2)
    row = hrmixer._KNOB_ROWS[name]
    design = hrmixer._knob_design(s.config)
    sums = all_subset_sums(s.elements[row], s.config.k_selected)
    delays = BASE_DELAY + design.drives[row - 4] * (design.halves[row] / sums)
    widest = int(np.argmin(delays))
    s = with_extrinsic(s, row, -(delays[s.selection[row]] + delays[widest]) / 2)
    with pytest.raises(ConfigError, match="inverter delay must stay strictly positive"):
        hrmixer._with_knob(s, name, widest)
    selection = s.selection.copy()
    selection[row] = widest
    with pytest.raises(ConfigError, match="inverter delay must stay strictly positive"):
        dataclasses.replace(s, selection=selection)


@st.composite
def receiver_geometry(draw):
    """n elements and an even k with a balanced combination: 2k <= n + 2."""
    n = draw(st.integers(3, 16))
    return n, 2 * draw(st.integers(1, (n + 2) // 4))


@given(
    geometry=receiver_geometry(),
    seed=st.integers(0, 2**32 - 1),
    rewind=st.booleans(),
    moves=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 2**16)), max_size=4),
)
@example(geometry=(16, 8), seed=1, rewind=False, moves=[(9, 12345), (2, 7)])
@example(geometry=(12, 6), seed=2, rewind=True, moves=[])
def test_array_state_equals_the_scalar_oracle(geometry, seed, rewind, moves):
    """Drawn receivers, then a few selection changes, against the scalar
    inverse-width oracle; ``rewind`` draws widths wide enough to be redrawn."""
    n, k = geometry
    overrides = {"element_rel_sigma": 0.5, "clock_delay_sigma": 0.0,
                 "diff_phase_sigma": 0.0} if rewind else {}
    sample = sample_receiver(HrConfig(n_elements=n, k_selected=k, **overrides), seed)
    assert_state_matches_scratch(sample)
    count = len(combination_index_matrix(n, k))
    for row, choice in moves:
        sample = hrmixer._with_knob(sample, hrmixer._KNOB_NAMES[row], choice % count)
        assert_state_matches_scratch(sample)


# ---------------------------------------------------------------------------
# the effective LO from arrays against the square-wave oracle
# ---------------------------------------------------------------------------

#: the default receiver, the golden hr-calibrate-k8 and hr-calibrate-rewind
#: geometries, and a receiver without timing spread
LO_CONFIGS = {
    "default": HrConfig(),
    "k8": HrConfig(n_elements=16, k_selected=8),
    "rewind": HrConfig(element_rel_sigma=0.5, clock_delay_sigma=0.0, diff_phase_sigma=0.0),
    "zero-timing": HrConfig(clock_delay_sigma=0.0, diff_phase_sigma=0.0),
}
#: at 1 nHz an edge error shifts its edge by less than half an ulp, so the
#: rise of phase p and the fall of phase p + 4 coincide on a drawn receiver
LO_FREQUENCIES = {
    "f_low": lambda c: c.f_low, "f0": lambda c: c.f0, "1.3 f0": lambda c: 1.3 * c.f0,
    "1 nHz": lambda c: 1e-9,
}


def hex_parts(c: complex) -> tuple[str, str]:
    return c.real.hex(), c.imag.hex()


def oracle_hrr(sample: HrReceiverSample, path: str, n: int, f: float) -> float:
    lo = square_wave_lo(sample, path, f)
    c1, cn = fourier_coeff(lo, 1), fourier_coeff(lo, n)
    if abs(cn) < hrmixer.HRR_INF_REL * abs(c1):
        return math.inf
    return 20.0 * math.log10(abs(c1) / abs(cn))


def moved_receiver(config: str, seed: int, moves) -> HrReceiverSample:
    """A drawn receiver with a few selections changed, as calibration does."""
    cfg = LO_CONFIGS[config]
    sample = sample_receiver(cfg, seed)
    count = len(combination_index_matrix(cfg.n_elements, cfg.k_selected))
    for row, choice in moves:
        sample = hrmixer._with_knob(sample, hrmixer._KNOB_NAMES[row], choice % count)
    return sample


@given(
    config=st.sampled_from(sorted(LO_CONFIGS)),
    seed=st.integers(0, 2**32 - 1),
    moves=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 2**16)), max_size=3),
    path=st.sampled_from(("I", "Q")),
    n=st.integers(2, 7),
    frequency=st.sampled_from(sorted(LO_FREQUENCIES)),
)
@example(config="k8", seed=1, moves=[], path="I", n=3, frequency="f0")
@example(config="rewind", seed=2, moves=[(9, 5)], path="Q", n=2, frequency="1.3 f0")
@example(config="zero-timing", seed=1, moves=[], path="I", n=5, frequency="f_low")
@example(config="default", seed=3, moves=[(12, 9)], path="Q", n=3, frequency="1 nHz")
def test_array_lo_equals_the_square_wave_oracle(config, seed, moves, path, n, frequency):
    """c1, cn and the edge list equal, bit for bit, ``combine`` of six
    ``square_wave`` objects."""
    sample = moved_receiver(config, seed, moves)
    f = LO_FREQUENCIES[frequency](sample.config)
    if frequency == "1 nHz":  # the rise of phase 2 is the fall of phase 6
        assert (0.25 + f * sample.rise_errors[2]) % 1.0 == (1.25 + f * sample.fall_errors[6]) % 1.0
    oracle = square_wave_lo(sample, path, f)
    c1, cn = hrmixer._first_and_nth(sample, path, n, f)
    assert hex_parts(c1) == hex_parts(fourier_coeff(oracle, 1))
    assert hex_parts(cn) == hex_parts(fourier_coeff(oracle, n))
    lo = effective_lo(sample, path, f)
    assert lo.period == oracle.period and lo.dc.hex() == oracle.dc.hex()
    assert lo.times.tobytes() == oracle.times.tobytes()
    assert lo.levels.tobytes() == oracle.levels.tobytes()


#: every knob with each way it can be measured: its branch alone, or on a
#: path that mixes its branch
SCORED_KNOBS = [
    (name, path)
    for name in hrmixer._KNOB_NAMES
    for path in (None, "I", "Q")
    if path is None or int(name[-1]) % 4 in PATH_BRANCHES[path]
]


@given(
    config=st.sampled_from(sorted(LO_CONFIGS)),
    seed=st.integers(0, 2**32 - 1),
    moves=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 2**16)), max_size=3),
    knob=st.sampled_from(SCORED_KNOBS),
    n=st.sampled_from((2, 3)),
    frequency=st.sampled_from(("f_low", "f0")),
)
@example(config="default", seed=3, moves=[(10, 7)], knob=("rise2", None), n=2, frequency="f0")
@example(config="default", seed=4, moves=[], knob=("fall5", "Q"), n=3, frequency="f0")
@example(config="k8", seed=1, moves=[(20, 99)], knob=("fall4", None), n=2, frequency="f0")
@example(config="default", seed=5, moves=[(1, 3)], knob=("tail1", "I"), n=3, frequency="f_low")
@example(config="rewind", seed=2, moves=[(5, 9)], knob=("clock3", "Q"), n=3, frequency="f0")
@example(config="zero-timing", seed=1, moves=[], knob=("rise6", None), n=2, frequency="f0")
@example(config="zero-timing", seed=2, moves=[(6, 40)], knob=("clock2", "I"), n=3, frequency="f0")
def test_knob_search_equals_the_full_edge_oracle(config, seed, moves, knob, n, frequency):
    """Every candidate's objective equals, bit for bit, the oracle's that
    evaluates all four edges of each candidate and sums every row's subsets
    at each visit, and the chosen row is the oracle's first minimum: with no
    timing spread every clock and buffer candidate ties exactly."""
    sample = moved_receiver(config, seed, moves)
    f = LO_FREQUENCIES[frequency](sample.config)
    name, path = knob
    expect = knob_objectives(sample, name, path, n, f)
    tables: dict = {}
    for _ in range(2):  # the row's table is built, then read
        got = hrmixer._knob_objectives(sample, name, path, n, f, tables)
        assert got.tobytes() == expect.tobytes()
        assert hrmixer._best_selection(sample, name, path, n, f, tables) == np.argmin(expect)
    assert list(tables) == [hrmixer._KNOB_ROWS[name]]


@given(
    config=st.sampled_from(sorted(LO_CONFIGS)),
    seed=st.integers(0, 2**32 - 1),
    moves=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 2**16)), max_size=3),
    path=st.sampled_from(("I", "Q")),
)
def test_sweep_hrr_equals_per_point_oracle_hrr(config, seed, moves, path):
    sample = moved_receiver(config, seed, moves)
    f_list = [get(sample.config) for get in LO_FREQUENCIES.values()]
    n_list = range(2, 8)
    got = [(p.f_hz, p.n, p.hrr_db.hex()) for p in sweep_hrr(sample, f_list, n_list, path)]
    expect = [
        (f, n, min(oracle_hrr(sample, path, n, f), HRR_DB_CAP).hex())
        for f in f_list
        for n in n_list
    ]
    assert got == expect


# ---------------------------------------------------------------------------
# a stage's repeated steps against the loop that searches every step
# ---------------------------------------------------------------------------


def calibrate_configs(configs) -> list[tuple]:
    """(even report, odd report, calibrated receiver) of seeds 1 to count
    of each ``LO_CONFIGS`` entry in ``configs``."""
    out = []
    for config, count in configs:
        for seed in range(1, count + 1):
            sample, even = calibrate_even_order(sample_receiver(LO_CONFIGS[config], seed))
            sample, odd = calibrate_odd_order(sample)
            out.append((even, odd, sample))
    return out


RECEIVER_ARRAYS = (
    "elements", "extrinsic", "selection", "tail_ratios", "deviations",
    "rise_errors", "fall_errors",
)


def test_calibration_equals_the_stage_loop_that_searches_every_step(monkeypatch):
    """24 receivers over ``LO_CONFIGS`` calibrate to equal steps, selections
    and receiver arrays when every step searches (``oracles.calibrate_stage``)
    as when a stage reuses its search of a repeated knob and selection."""
    searches = []

    def best_selection(*args):
        searches[-1] += 1
        return original_best(*args)

    original_best = hrmixer._best_selection
    monkeypatch.setattr(hrmixer, "_best_selection", best_selection)
    configs = [(config, 6) for config in sorted(LO_CONFIGS)]
    searches.append(0)
    fast = calibrate_configs(configs)
    monkeypatch.setattr(hrmixer, "_calibrate_stage", oracle_calibrate_stage)
    searches.append(0)
    expect = calibrate_configs(configs)
    assert len(fast) == len(expect) == 24
    for (even, odd, sample), (even_o, odd_o, sample_o) in zip(fast, expect):
        assert even.steps == even_o.steps and odd.steps == odd_o.steps  # floats by ==
        assert even.selections == even_o.selections and odd.selections == odd_o.selections
        for name in RECEIVER_ARRAYS:
            assert getattr(sample, name).tobytes() == getattr(sample_o, name).tobytes()
    assert 0 < searches[0] < searches[1]


def test_a_repeat_after_a_rejected_trial_builds_and_measures_it_again(monkeypatch):
    """A tail1 trial that always measures worse is rejected in pass 0.  Pass
    1 repeats tail1 at the same selections, so it takes the first search's
    best row, which is not the one set, and builds and measures that trial
    again, as the loop that searches every step does."""
    sample = seeded_sample(0)
    row = hrmixer._KNOB_ROWS["tail1"]
    start = sample.selection[row]
    searched, built = [], []

    def measure(s, *args):  # any move of tail1 measures twice as bad
        return original_measure(s, *args) * (1.0 if s.selection[row] == start else 2.0)

    def best_selection(s, name, *args):
        searched.append(name)
        return original_best(s, name, *args)

    def with_knob(s, name, best):
        built.append(name)
        return original_with_knob(s, name, best)

    original_measure = hrmixer.measure_harmonic_power
    original_best, original_with_knob = hrmixer._best_selection, hrmixer._with_knob
    monkeypatch.setattr(hrmixer, "measure_harmonic_power", measure)
    monkeypatch.setattr(hrmixer, "_best_selection", best_selection)
    monkeypatch.setattr(hrmixer, "_with_knob", with_knob)
    args = ("gain", 1, ("tail0", "tail1"), "I", 3, sample.config.f_low)
    steps, expect = [], []
    out = hrmixer._calibrate_stage(sample, steps, *args, {})
    assert searched == ["tail0", "tail1", "tail0"] and built == ["tail0", "tail1", "tail1"]
    oracle_out = oracle_calibrate_stage(sample, expect, *args, {})
    assert steps == expect and out.selection.tobytes() == oracle_out.selection.tobytes()
    # pass 0 commits tail0 and rejects tail1; pass 1 changes nothing
    assert [st.target for st in steps] == ["tail0", "tail1", "tail0", "tail1"]
    assert steps[0].objective_after < steps[0].objective_before
    assert all(st.objective_after == st.objective_before for st in steps[1:])
    assert out.selection[row] == start


# ---------------------------------------------------------------------------
# calibration trace: every step and every HRR of a receiver population
# ---------------------------------------------------------------------------

#: SHA-256 of ``calibration_trace_records``, recorded from the mixer whose
#: knob search scored all four edges of every candidate and rebuilt the
#: whole receiver for each step's trial
CALIBRATION_TRACE_SHA256 = "9503f027c62dbc8c6bffd2fa554ac816068c629f43053cb4b341e7c176311c36"


def hexed(value):
    """``value`` with every float, however deeply nested, as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value


def hrr_table(sample: HrReceiverSample) -> list[tuple[float, int, float]]:
    """``sweep_hrr`` of both paths at f_low, f0 / 2 and f0, n = 2 to 7."""
    cfg = sample.config
    f_list = [cfg.f_low, cfg.f0 / 2, cfg.f0]
    return [
        (point.f_hz, point.n, point.hrr_db)
        for path in ("I", "Q")
        for point in sweep_hrr(sample, f_list, range(2, 8), path)
    ]


def calibration_trace_records():
    """Per receiver, in order: its pre-calibration HRR table, both stages'
    ``CalReport.to_json_dict()`` and the post-calibration table, for 24
    receivers over the default, k8, rewind and zero-timing configs."""
    for config, count in (("default", 9), ("k8", 5), ("rewind", 5), ("zero-timing", 5)):
        cfg = LO_CONFIGS[config]
        for seed in range(1, count + 1):
            sample = sample_receiver(cfg, seed)
            pre = hrr_table(sample)
            sample, even = calibrate_even_order(sample)
            sample, odd = calibrate_odd_order(sample)
            yield {
                "config": config, "seed": seed, "pre": pre, "even": even.to_json_dict(),
                "odd": odd.to_json_dict(), "post": hrr_table(sample),
            }


def test_calibration_trace_hash_is_unchanged():
    """Every objective, selection and HRR of the population, each float as
    hex, hashes to the recorded value: a search or step rebuild that moves
    any bit of any output fails here."""
    digest = hashlib.sha256()
    for record in calibration_trace_records():
        digest.update(json.dumps(hexed(record), sort_keys=True).encode())
    assert digest.hexdigest() == CALIBRATION_TRACE_SHA256
