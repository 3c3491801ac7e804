"""Tests for the Monte Carlo study engine.

Failure probabilities for tiny (n, k) have closed forms under the Gaussian
mismatch model; those serve as analytic oracles.  The engine's counting is also
cross-checked against the public per-sample search API on a reproduced block.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from subsetcal.mismatch import (
    Arithmetic,
    ConfigError,
    ElementSet,
    MismatchModel,
    find_best,
)
from subsetcal.reporting import FigureDataset, emit_figure
from subsetcal.studies import (
    BLOCK,
    FixedOffset,
    FrontierEntry,
    GaussianOffset,
    STUDY_CSV_COLUMNS,
    StudyConfig,
    a_eses_sweep,
    min_distances,
    r_cal,
    rcal_frontier,
    run_study,
    study_csv_rows,
)

from oracles import failure_rate


def phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def cfg(**kw) -> StudyConfig:
    base = dict(
        n=12,
        k=6,
        scheme=Arithmetic(1.0, 0.0),
        model=MismatchModel(0.01, 1.0),
        window_widths=(0.1,),
        offset=FixedOffset(0.0),
        samples=20_000,
        master_seed=7,
    )
    base.update(kw)
    return StudyConfig(**base)


# ---------------------------------------------------------------------------
# r_cal and scalar helpers
# ---------------------------------------------------------------------------


def test_rcal_reference_values():
    assert r_cal(1.0, 0.05) == pytest.approx(97.9796, abs=1e-3)
    assert r_cal(2.0, 0.07) == pytest.approx(110.6567, abs=1e-3)
    assert r_cal(0.0, 1.0) == pytest.approx(math.sqrt(12.0))


def test_rcal_rejects_zero_width():
    with pytest.raises(ConfigError):
        r_cal(1.0, 0.0)


def test_memory_bound_counts_the_block_working_set():
    cfg(n=12, k=6, samples=10 * BLOCK)  # the configs/ catalog: n = 12, k = 6
    cfg(n=15, k=7, samples=BLOCK)  # 3 * 8 * 4096 * 6435 bytes, under 1 GiB
    cfg(n=20, k=10, samples=50)  # a short study needs only a short block
    with pytest.raises(ConfigError, match=r"n=16, k=8 needs 1265172480 bytes"):
        cfg(n=16, k=8, samples=BLOCK)  # 3 * 8 * 4096 * 12870 bytes


# ---------------------------------------------------------------------------
# analytic failure-rate oracles (tiny n, k)
# ---------------------------------------------------------------------------


def analytic_failure_single(width: float, sigma_t: float = 0.0) -> float:
    """n=1, k=1: distance is |N(0, sigma_k * sqrt(1 + sigma_t^2))|."""
    scale = math.sqrt(1.0 + sigma_t * sigma_t)
    return 2.0 * (1.0 - phi(width / 2.0 / scale))


def test_engine_matches_analytic_single_element():
    for width in (0.5, 1.0, 3.0):
        c = cfg(n=1, k=1, window_widths=(width,), samples=100_000)
        f = failure_rate(c)
        expect = analytic_failure_single(width)
        se = math.sqrt(expect * (1 - expect) / c.samples)
        assert abs(f - expect) < 4 * se + 1e-12


def test_engine_matches_analytic_two_choose_one():
    # failure iff both elements miss independently
    width = 1.2
    c = cfg(n=2, k=1, window_widths=(width,), samples=100_000)
    f = failure_rate(c)
    p_miss = 2.0 * (1.0 - phi(width / 2.0))
    expect = p_miss * p_miss
    se = math.sqrt(expect * (1 - expect) / c.samples)
    assert abs(f - expect) < 4 * se + 1e-12


def test_gaussian_offset_widens_effective_sigma():
    width, st = 1.0, 2.0
    c = cfg(
        n=1, k=1, window_widths=(width,), offset=GaussianOffset(st), samples=100_000
    )
    f = failure_rate(c)
    expect = analytic_failure_single(width, st)
    se = math.sqrt(expect * (1 - expect) / c.samples)
    assert abs(f - expect) < 4 * se


def test_fixed_offset_shifts_center():
    # n=1, k=1, fixed offset t: distance is |N(0,1) - t| in sigma_k units
    width, t = 1.0, 1.5
    c = cfg(n=1, k=1, window_widths=(width,), offset=FixedOffset(t), samples=100_000)
    f = failure_rate(c)
    expect = 1.0 - (phi(t + width / 2) - phi(t - width / 2))
    se = math.sqrt(expect * (1 - expect) / c.samples)
    assert abs(f - expect) < 4 * se


# ---------------------------------------------------------------------------
# engine vs the public per-sample API
# ---------------------------------------------------------------------------


def test_block_distances_match_find_best_residuals():
    c = cfg(samples=300, scheme=Arithmetic(1.0, 0.005), master_seed=42)
    dist, _ = min_distances(c)
    assert dist.shape == (300,)
    # reproduce the block's draws the same way the engine derives them
    from subsetcal.mismatch import draw_realized, nominal_sizes

    nominal = nominal_sizes(c.scheme, c.n)
    sigmas = c.model.element_sigmas(nominal)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=42, spawn_key=(0,)))
    realized, _ = draw_realized(np.broadcast_to(nominal, (300, c.n)), sigmas, rng)
    target = c.k * nominal.mean()  # nominal k-subset sum
    for i in range(0, 300, 17):
        es = ElementSet(nominal=nominal, realized=realized[i])
        _, residual = find_best(es, c.k, target)
        assert abs(residual) == pytest.approx(dist[i], rel=1e-9, abs=1e-15)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_all_widths_share_one_population_and_are_monotone():
    widths = (0.02, 0.05, 0.1, 0.3, 1.0)
    res = run_study(cfg(window_widths=widths, samples=30_000))
    failures = [row.failures for row in res.rows]
    assert failures == sorted(failures, reverse=True)
    assert all(row.samples == 30_000 for row in res.rows)


def test_blocks_are_independent_substreams():
    # block b depends only on (master_seed, b): a longer study repeats a
    # shorter one's whole blocks bit for bit, and the first block of a study
    # is the whole of a one-block study
    c = cfg(samples=3 * BLOCK + 123, window_widths=(0.05, 0.2))
    d, r = min_distances(c)
    d2, r2 = min_distances(cfg(samples=2 * BLOCK, window_widths=(0.05, 0.2)))
    d1, _ = min_distances(cfg(samples=BLOCK, window_widths=(0.05, 0.2)))
    assert np.array_equal(d[: 2 * BLOCK], d2)
    assert np.array_equal(d[:BLOCK], d1)
    assert d.shape == (3 * BLOCK + 123,)
    assert r >= r2


def test_determinism_per_seed_and_sensitivity():
    c = cfg(samples=5000)
    assert failure_rate(c) == failure_rate(c)
    assert failure_rate(c) != failure_rate(cfg(samples=5000, master_seed=8))


def test_partial_block_sample_counts():
    for samples in (1, 100, BLOCK, BLOCK + 1, 2 * BLOCK - 1):
        d, _ = min_distances(cfg(samples=samples))
        assert d.shape == (samples,)


def test_stderr_formula():
    res = run_study(cfg(samples=2000, window_widths=(0.3,)))
    row = res.rows[0]
    f = row.failures / 2000
    assert row.failure_rate == f
    assert row.stderr == pytest.approx(math.sqrt(f * (1 - f) / 2000))


# ---------------------------------------------------------------------------
# method comparisons (seeded statistical checks)
# ---------------------------------------------------------------------------


def test_ses_beats_eses_at_tiny_width_zero_offset():
    # with no offset to absorb, equal sizing concentrates subset sums densely
    # around the target, so the smallest windows favor it
    sk = math.sqrt(6) * 0.01
    ses = run_study(cfg(window_widths=(0.01,), samples=50_000))
    eses = run_study(
        cfg(scheme=Arithmetic(1.0, sk / 4), window_widths=(0.01,), samples=50_000)
    )
    assert ses.rows[0].failure_rate <= eses.rows[0].failure_rate


def test_ses_failure_regime_at_three_sigma_offset():
    # with the window centered at the absolute nominal k-sum, the sample's
    # common-mode term occasionally carries the whole sum cluster out to a
    # 3-sigma_k offset, so SES failure saturates near ~0.9 (not 1.0); frozen
    # from a brute-force cross-check of the same definition
    res = run_study(cfg(offset=FixedOffset(3.0), window_widths=(0.2,), samples=50_000))
    assert 0.88 < res.rows[0].failure_rate < 0.93


def test_eses_absorbs_fixed_offset_where_ses_cannot():
    sk = math.sqrt(6) * 0.01
    off = FixedOffset(3.0)
    widths = (0.2,)
    ses = run_study(cfg(offset=off, window_widths=widths, samples=20_000))
    eses = run_study(
        cfg(
            scheme=Arithmetic(1.0, sk / 2),
            offset=off,
            window_widths=widths,
            samples=20_000,
        )
    )
    assert eses.rows[0].failure_rate < 0.10
    assert eses.rows[0].failure_rate <= ses.rows[0].failure_rate


# ---------------------------------------------------------------------------
# frontier and sweep
# ---------------------------------------------------------------------------


def test_frontier_trivial_wide_width():
    # a single 20-sigma_k-wide window is feasible for any small sigma_t, so the
    # frontier value is just r_cal(sigma_t, 20)
    t = cfg(samples=4000, window_widths=(20.0,))
    entries = rcal_frontier(t, [0.0, 1.0], [0.0, 0.5], [20.0], yield_floor=0.99)
    for e, st in zip(entries, [0.0, 1.0]):
        assert e.feasible and e.width == 20.0
        assert e.best_rcal == pytest.approx(r_cal(st, 20.0))


def test_frontier_infeasible_marked_not_raised():
    t = cfg(samples=2000, window_widths=(1e-6,))
    entries = rcal_frontier(t, [10.0], [0.0], [1e-6], yield_floor=0.999)
    assert entries == [FrontierEntry(sigma_t=10.0, feasible=False)]


def test_frontier_prefers_smallest_feasible_width():
    t = cfg(samples=4000)
    entries = rcal_frontier(
        t, [0.5], [0.25, 1.0], [0.5, 2.0, 8.0], yield_floor=0.99
    )
    (e,) = entries
    assert e.feasible
    # whichever width won, r_cal must equal the ratio formula for it
    assert e.best_rcal == pytest.approx(r_cal(0.5, e.width))
    assert e.width in (0.5, 2.0, 8.0)


def test_a_sweep_center_sigma_held_absolute():
    step = math.sqrt(6) * 0.01 / 4
    out = a_eses_sweep(
        [1.0, 0.0625],
        step,
        widths=(0.1, 0.5),
        offset=FixedOffset(0.0),
        n=12,
        k=6,
        center_sigma=0.01,
        samples=4000,
        master_seed=3,
    )
    for a, res in out:
        assert res.config.sigma_k_abs == pytest.approx(math.sqrt(6) * 0.01)
        assert res.config.model.element_sigmas(np.array([a]))[0] == pytest.approx(
            0.01
        )


def test_a_sweep_curves_close_across_scale():
    # the normalized failure curves barely move as the center size shrinks 16x
    step = math.sqrt(6) * 0.01 / 4
    out = a_eses_sweep(
        [1.0, 0.0625],
        step,
        widths=(0.05, 0.2),
        offset=GaussianOffset(0.25),
        n=12,
        k=6,
        center_sigma=0.01,
        samples=30_000,
        master_seed=11,
    )
    (a1, r1), (a2, r2) = out
    for row1, row2 in zip(r1.rows, r2.rows):
        tol = 3 * (row1.stderr + row2.stderr) + 1e-9
        assert abs(row1.failure_rate - row2.failure_rate) < tol


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_shape_and_stability(tmp_path):
    res = run_study(cfg(samples=1000, window_widths=(0.1, 0.5)))
    rows = study_csv_rows(res)
    assert len(rows) == 2
    assert rows[0][0] == "ses" and rows[0][3] == "fixed"
    dataset = FigureDataset("study", STUDY_CSV_COLUMNS, tuple(rows))
    first, second = (
        emit_figure(dataset, str(tmp_path / name))[0] for name in ("a", "b")
    )
    with open(first, "rb") as a, open(second, "rb") as b:
        text = a.read()
        assert text == b.read()
    header = text.decode("utf-8").splitlines()[0]
    assert header == (
        "method,d_eses,a_eses,offset_kind,sigma_T,width_over_sigmak,"
        "samples,failures,failure_rate,stderr"
    )


def test_csv_eses_step_in_sigmak_units():
    sk = math.sqrt(6) * 0.01
    res = run_study(
        cfg(scheme=Arithmetic(1.0, sk / 4), samples=500, window_widths=(0.5,))
    )
    rows = study_csv_rows(res)
    assert rows[0][0] == "eses"
    assert rows[0][1] == pytest.approx(0.25)
