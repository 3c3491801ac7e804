"""Tests for the Monte Carlo study engine.

Failure probabilities for tiny (n, k) have closed forms under the Gaussian
mismatch model; those serve as analytic oracles.  The engine's counting is also
cross-checked against the public per-sample search API on a reproduced block.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings
from typing import Optional

import numpy as np
import pytest

from subsetcal.mismatch import (
    Arithmetic,
    ConfigError,
    MismatchModel,
    nominal_sizes,
)
from subsetcal import studies
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
    run_studies,
    run_study,
    study_csv_rows,
)

from oracles import (
    failure_rate,
    find_best_residual,
    fixed_order_distances,
    rcal_frontier_oracle,
    shuffled_subset_sums,
)

EPS = np.finfo(float).eps


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
    # a block holds row chunks of its sums, never all of them: 4096 rows of
    # C(16, 8) and C(24, 12) sums (422 MB and 89 GB) run two rows and one
    # row at a time
    for n, k in ((16, 8), (24, 12)):
        studies._check_block_bytes(cfg(n=n, k=k, samples=BLOCK), [GaussianOffset(1.0)])
    # each (row, offset) holds 80 bytes; with 282 rows of sorted sums
    # (2 084 544 bytes), the element draw (1 179 648) and a fixed-order
    # gather of 7281 sums (1 048 464), 3263 offsets fit in 1 GiB and 3264 do not
    c = cfg(samples=BLOCK)
    studies._check_block_bytes(c, [FixedOffset(0.0)] * 3263)
    with pytest.raises(ConfigError, match=r"^3264 offsets on blocks of 4096 samples at"
                       r" n=12, k=6 need 1073860176 bytes"):
        run_studies([(c, [FixedOffset(0.0)] * 3264)])


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
        _, residual = find_best_residual(realized[i], c.k, target)
        assert abs(residual) == pytest.approx(dist[i], rel=1e-9, abs=1e-15)


# ---------------------------------------------------------------------------
# offsets sharing a block: chunked passes, sorted rows, certified counts
# ---------------------------------------------------------------------------


def oracle_counts(c: StudyConfig, offsets) -> tuple[list[list[int]], int]:
    """Failures per offset and width of ``c`` from the fixed-order
    distances, and the resamples."""
    dist, resamples, _ = fixed_order_distances(c, offsets)
    limits = [(w * c.sigma_k_abs) / 2.0 for w in c.window_widths]
    return [[int(np.count_nonzero(row > limit)) for limit in limits] for row in dist], resamples


def assert_within_the_settle_bound(c: StudyConfig, offsets, dist: np.ndarray) -> None:
    """``dist`` (offsets, samples) from the product differs from the
    fixed-order distances by no more than ``_settle`` proves: eps (1 + eps)
    d + (k - 1) eps (1 + k eps) T, T = k * the row's largest element."""
    expect, _, largest = fixed_order_distances(c, offsets)
    k = c.k
    bound = EPS * (1 + EPS) * dist + (k - 1) * EPS * (1 + k * EPS) * (k * largest)
    assert np.all(np.abs(dist - expect) <= bound)


@pytest.mark.parametrize("samples", [1, BLOCK + 1, 3 * BLOCK + 123])
@pytest.mark.parametrize(
    "offsets",
    [
        (FixedOffset(0.0), FixedOffset(1.0), FixedOffset(3.0)),
        (GaussianOffset(0.25), GaussianOffset(0.0), GaussianOffset(2.0)),
        (FixedOffset(2.0), GaussianOffset(1.0), FixedOffset(0.0)),
        tuple(GaussianOffset(0.5 * j) if j % 2 else FixedOffset(0.5 * j - 1.0) for j in range(7)),
    ],
    ids=["fixed", "gaussian", "mixed", "sorted"],
)
def test_shared_offsets_equal_their_own_studies(samples, offsets):
    assert studies._sorts(offsets) == (len(offsets) == 7)
    # a 0.4 relative sigma makes the draw redraw non-positive elements, so
    # the shared resample count is checked as well
    c = cfg(
        samples=samples, scheme=Arithmetic(1.0, 0.05), model=MismatchModel(0.4, 1.0),
        window_widths=(0.02, 0.1, 0.5, 2.0),
    )
    shared = run_studies([(c, offsets)])[0]
    assert shared == [run_study(dataclasses.replace(c, offset=o)) for o in offsets]
    counts, resamples = oracle_counts(c, offsets)
    for offset, result, expect in zip(offsets, shared, counts):
        assert result.config == dataclasses.replace(c, offset=offset)
        assert result.resamples == resamples
        assert [row.failures for row in result.rows] == expect
    if samples > BLOCK:
        assert shared[0].resamples > 0


def test_frontier_equals_the_per_offset_oracle():
    t = cfg(samples=3000)
    grid = (0.035, 0.05, 0.0911, 0.2078, 0.369, 0.7, 1.0414)
    args = (t, [0.0, 1.0, 3.0, 7.0], [0.0, 0.25, 0.5, 1.0, 2.65], grid)
    entries = rcal_frontier(*args, yield_floor=0.95)
    assert entries == rcal_frontier_oracle(*args, yield_floor=0.95)
    assert len({e.d_eses for e in entries}) > 1  # the winning step moves with sigma_t


def test_frontier_tie_keeps_the_first_step():
    # only the 20-sigma_k width is feasible, so every step ties at one r_cal
    # and the first candidate keeps the entry, as in the per-offset loop
    t = cfg(samples=2000)
    args = (t, [0.0, 2.0], [0.5, 0.0, 0.25], [1e-4, 20.0])
    entries = rcal_frontier(*args)
    assert entries == rcal_frontier_oracle(*args)
    assert [(e.d_eses, e.width) for e in entries] == [(0.5, 20.0), (0.5, 20.0)]
    for st in (0.0, 2.0):
        for scheme in (Arithmetic(1.0, 0.0), Arithmetic(1.0, 0.25 * t.sigma_k_abs)):  # d = 0, 0.25
            late = dataclasses.replace(
                t, scheme=scheme, offset=GaussianOffset(st), window_widths=(1e-4, 20.0)
            )
            rows = run_study(late).rows
            assert rows[0].failure_rate > 0.01 and rows[1].failures == 0  # a tie


@pytest.mark.parametrize(
    "n, k, samples",
    [(12, 6, 2 * BLOCK + 50), (10, 3, BLOCK + 7), (18, 9, 7)],
    ids=["924-sums", "120-sums", "one-row-chunks"],
)
def test_chunk_boundaries_are_invisible(n, k, samples):
    step = studies._chunking(n, k, BLOCK, False)[0]
    # a chunk ends inside the full block and inside the last one
    assert step == 1 or (BLOCK % step and samples % BLOCK % step)
    for offset in (FixedOffset(0.5), GaussianOffset(1.5)):
        c = cfg(
            n=n, k=k, samples=samples, offset=offset, scheme=Arithmetic(1.0, 0.002),
            window_widths=(0.02, 0.1, 0.5),
        )
        dist, resamples = studies.min_distances(c)
        assert_within_the_settle_bound(c, [offset], dist[None])
        (counts,), expect_resamples = oracle_counts(c, [offset])
        assert [row.failures for row in run_study(c).rows] == counts
        assert resamples == expect_resamples


def block_distances(c: StudyConfig, offsets) -> np.ndarray:
    """(offsets, samples) distances, every block through ``_block_distances``
    into its slice of one array."""
    nominal = nominal_sizes(c.scheme, c.n)
    sigmas = c.model.element_sigmas(nominal)
    dist = np.empty((len(offsets), c.samples))
    for start in range(0, c.samples, BLOCK):
        out = dist[:, start : start + BLOCK]
        studies._block_distances(c, offsets, nominal, sigmas, start // BLOCK, out)
    return dist


def offsets_of(kinds: str, count: int, scale: float) -> list:
    """``count`` offsets ascending about the nominal sum, fixed, Gaussian
    or alternating."""
    offsets = []
    for j in range(count):
        value = scale * (j - (count - 1) / 2.0) / 2.0
        gaussian = kinds == "gaussian" or (kinds == "mixed" and j % 2 == 1)
        offsets.append(GaussianOffset(abs(value)) if gaussian else FixedOffset(value))
    return offsets


@pytest.mark.parametrize("path", ["passes", "sorted"])
@pytest.mark.parametrize(
    "kinds, scale",
    [
        ("fixed", 1.0),
        ("gaussian", 1.0),
        ("mixed", 1.0),
        # centers below the smallest and above the largest subset sum
        ("fixed", 1e4),
        ("mixed", 1e4),
    ],
    ids=["fixed", "gaussian", "mixed", "fixed-outside", "mixed-outside"],
)
def test_sorted_path_equals_one_pass_distances(path, kinds, scale):
    # the fewest offsets of these kinds that sort, or one fewer
    count = next(m for m in range(1, 20) if studies._sorts(offsets_of(kinds, m, scale)))
    offsets = offsets_of(kinds, count - (path == "passes"), scale)
    c = cfg(samples=BLOCK + 123, scheme=Arithmetic(1.0, 0.005))  # a partial last block
    dist = block_distances(c, offsets)
    assert_within_the_settle_bound(c, offsets, dist)
    for offset, row in zip(offsets, dist):
        # one offset alone takes the passes over the same product chunks
        assert np.array_equal(row, block_distances(c, [offset])[0])
    if scale > 1.0:  # the lowest fixed center lies below every sum, the highest above
        fixed = [j for j, o in enumerate(offsets) if isinstance(o, FixedOffset)]
        assert offsets[fixed[0]].value < 0 < offsets[fixed[-1]].value
        assert dist[fixed[0]].min() > c.k and dist[fixed[-1]].min() > c.k


@pytest.mark.parametrize(
    "n, k, scheme",
    [
        (12, 6, Arithmetic(1.0, 0.0)),  # every sum and every center is 6.0
        # sums at 5 +- 0.0625 * (odd) around a center of 5.0: the nearest
        # lie in tied groups 0.0625 below and 0.0625 above it
        (12, 5, Arithmetic(1.0, 0.125)),
        (6, 6, Arithmetic(1.0, 0.01)),  # n = k: one subset
    ],
    ids=["one-tied-value", "tied-on-both-sides", "one-subset"],
)
def test_sorted_path_on_ties_and_a_single_subset(n, k, scheme):
    offsets = [GaussianOffset(1.0), FixedOffset(0.0), FixedOffset(-2.0)] * 2
    assert studies._sorts(offsets)
    c = cfg(n=n, k=k, scheme=scheme, model=MismatchModel(0.0, 1.0), samples=300)
    dist = block_distances(c, offsets)
    expect, _, _ = fixed_order_distances(c, offsets)
    assert np.array_equal(dist, expect)  # sums of multiples of 1/16 add exactly
    if n > k:  # zero sigma: every center is the nominal sum, exact or 0.0625 away
        assert np.all(dist == (0.0 if scheme.step == 0.0 else 0.0625))


def test_sorted_block_peak_stays_within_the_block_bound():
    # a block holds one span of sorted sums, its element draw and 80 bytes
    # per (row, offset), never the whole block's sums
    offsets = [GaussianOffset(float(j)) for j in range(9)]
    assert studies._sorts(offsets)
    c = cfg(samples=BLOCK)
    width = math.comb(c.n, c.k)
    _, span, gather = studies._chunking(c.n, c.k, BLOCK, True)
    bound = 8 * span * width + 24 * BLOCK * c.n + 24 * c.k * gather + 80 * BLOCK * 9
    sums_bytes = 8 * BLOCK * width
    tracemalloc.start()
    try:
        results = run_studies([(c, offsets)])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == 9
    assert peak <= bound
    assert peak < 1.25 * sums_bytes


# ---------------------------------------------------------------------------
# jobs sharing one fan-out: a flat (job, block) index over --threads
# ---------------------------------------------------------------------------


def uneven_jobs() -> list:
    """Three jobs of 2, 1 and 3 blocks, each ending in a short block: flat
    blocks 0-1, 2 and 3-5."""
    return [
        (cfg(samples=BLOCK + 5, window_widths=(0.02, 0.1)),
         (FixedOffset(0.0), GaussianOffset(1.0))),
        (cfg(samples=300, scheme=Arithmetic(1.0, 0.005), master_seed=3), (GaussianOffset(2.0),)),
        (cfg(n=10, k=4, samples=2 * BLOCK + 77, window_widths=(0.05, 0.5)),
         tuple(GaussianOffset(0.5 * j) for j in range(5))),  # sorts
    ]


@pytest.mark.parametrize("threads", [1, 2])
def test_jobs_of_uneven_sizes_equal_their_own_studies(threads):
    jobs = uneven_jobs()
    expect = [[run_study(dataclasses.replace(c, offset=o)) for o in offsets] for c, offsets in jobs]
    assert run_studies(jobs, threads) == expect


@pytest.mark.parametrize(
    "failing, first", [((3, 5), 3), ((2, 5), 2)], ids=["both-forked", "inline-and-forked"]
)
def test_a_failing_block_raises_the_serial_error(monkeypatch, failing, first):
    # at two workers flat blocks 0-2 run inline and 3-5 in a forked worker;
    # the error of the lowest failing block surfaces, as it would in series
    jobs = uneven_jobs()
    flat = [(c.samples, b) for c, _ in jobs for b in range(-(-c.samples // BLOCK))]
    block_distances = studies._block_distances

    def failing_block(config, offsets, nominal, sigmas, block, out):
        index = flat.index((config.samples, block))
        if index in failing:
            raise ValueError(f"flat block {index}")
        return block_distances(config, offsets, nominal, sigmas, block, out)

    monkeypatch.setattr(studies, "_block_distances", failing_block)
    with pytest.raises(ValueError, match=rf"^flat block {first}$"):
        run_studies(jobs, threads=2)


# ---------------------------------------------------------------------------
# certified counts: the product's rounding moves no count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "offsets",
    [
        (FixedOffset(0.0), GaussianOffset(1.0)),
        tuple(GaussianOffset(float(j)) for j in range(5)),
    ],
    ids=["passes", "sorted"],
)
def test_counts_hold_on_a_hostile_product(monkeypatch, offsets):
    monkeypatch.setattr(studies, "_subset_sums", shuffled_subset_sums(np.random.default_rng(5)))
    c = cfg(samples=BLOCK + 300, scheme=Arithmetic(1.0, 0.005),
            window_widths=(0.0025, 0.01, 0.05, 0.2))
    counts, _ = oracle_counts(c, offsets)
    results = run_studies([(c, offsets)])[0]
    assert [[row.failures for row in result.rows] for result in results] == counts


@pytest.mark.parametrize("n, k", [(12, 6), (18, 9)], ids=["rows-per-gather", "gathers-per-row"])
def test_fixed_order_recompute_equals_the_oracle(n, k):
    # C(12, 6) gathers several whole rows at once, C(18, 9) one row in runs
    # of its combinations
    width = math.comb(n, k)
    gather = studies._chunking(n, k, 1, False)[2]
    assert (gather // width > 1) == (n == 12)
    offsets = [GaussianOffset(1.0)]
    c = cfg(n=n, k=k, samples=20, scheme=Arithmetic(1.0, 0.005))
    nominal = nominal_sizes(c.scheme, c.n)
    realized, centers, _ = studies._block_distances(
        c, offsets, nominal, c.model.element_sigmas(nominal), 0, np.empty((1, 20))
    )
    rows = np.arange(20)[::-1]
    exact = studies._fixed_order_distances(realized, rows, centers[0][rows, 0], k)
    expect, _, _ = fixed_order_distances(c, offsets)
    assert np.array_equal(exact, expect[0, rows])


@pytest.mark.parametrize("count", [1, 5], ids=["passes", "sorted"])
def test_an_infinite_center_fails_every_window(count):
    # 1e308 sigma_k of 2.45 overflows: that center, and so every distance
    # to it, is infinite and lies outside every window
    offsets = [FixedOffset(1e308)] + [GaussianOffset(1.0)] * (count - 1)
    assert studies._sorts(offsets) == (count == 5)
    c = cfg(scheme=Arithmetic(100.0, 0.0), model=MismatchModel(1.0, 100.0), samples=500,
            window_widths=(0.1, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = run_studies([(c, offsets)])[0]
    assert [row.failures for row in results[0].rows] == [500, 500]


def width_on(distance: float, sk: float) -> Optional[float]:
    """A window width whose limit ``(width * sk) / 2`` is ``distance`` exactly."""
    width = 2.0 * distance / sk
    for _ in range(8):
        limit = (width * sk) / 2.0
        if limit == distance:
            return width
        width = float(np.nextafter(width, math.inf if limit < distance else -math.inf))
    return None


@pytest.mark.parametrize("product", ["blas", "shuffled"])
@pytest.mark.parametrize(
    "offsets",
    [
        # a fixed center 10**4 sigma_k above every sum: its distances' own
        # rounding outweighs the sums'
        (GaussianOffset(0.5), FixedOffset(1e4)),
        (GaussianOffset(0.0), GaussianOffset(0.5), GaussianOffset(1.0), GaussianOffset(1.5),
         FixedOffset(1e4)),
    ],
    ids=["passes", "sorted"],
)
def test_a_limit_on_a_computed_distance_is_recomputed(monkeypatch, product, offsets):
    if product == "shuffled":
        monkeypatch.setattr(
            studies, "_subset_sums", shuffled_subset_sums(np.random.default_rng(9))
        )
    settled = []

    def counting_settle(*args):
        counts, recomputed = studies_settle(*args)
        settled.append(recomputed)
        return counts, recomputed

    studies_settle = studies._settle
    monkeypatch.setattr(studies, "_settle", counting_settle)
    assert studies._sorts(offsets) == (len(offsets) == 5)
    c = cfg(samples=700, scheme=Arithmetic(1.0, 0.005))
    # limits on fixed-order distances of both kinds, and one float below them
    expect, _, _ = fixed_order_distances(c, offsets)
    targets = [d for row in expect[[0, -1]] for d in row[::100]]
    targets += [float(np.nextafter(d, 0.0)) for d in targets]
    widths = [w for w in (width_on(d, c.sigma_k_abs) for d in targets) if w is not None]
    assert len(widths) >= 20
    c = dataclasses.replace(c, window_widths=tuple(widths))
    results = run_studies([(c, offsets)])[0]
    assert sum(settled) >= len(widths) / 2  # each limit's own row, or its neighbour's
    counts, _ = oracle_counts(c, offsets)
    assert [[row.failures for row in result.rows] for result in results] == counts


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


def test_min_distances_peak_stays_near_its_result():
    # blocks land in one preallocated array: holding every block and then
    # concatenating them would peak at twice the result
    c = cfg(n=6, k=3, samples=1_000_000)
    tracemalloc.start()
    try:
        d, _ = min_distances(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.shape == (1_000_000,)
    assert peak < 1.5 * d.nbytes


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
