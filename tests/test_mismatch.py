"""Tests for element sets, sizing schemes and subset-selection search.

Every vectorized search result is checked against a brute-force pure-Python
oracle (itertools scan) on randomized inputs with fixed seeds.
"""

from __future__ import annotations

import math
import re
from itertools import combinations as iter_combos

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from subsetcal.mismatch import (
    Arithmetic,
    ConfigError,
    MismatchModel,
    all_subset_sums,
    balanced_row,
    combination_index_matrix,
    inverse_width_step,
    draw_realized,
    find_best,
    nominal_sizes,
    selected_sums,
    sigma_k,
    subset_deviations,
)

from oracles import find_best_residual, sample_element_set, subset_deviation, subset_value


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_best(values, k, target):
    """Brute-force best selection: first lexicographic argmin of |sum - target|."""
    best_combo, best_err = None, None
    for combo in iter_combos(range(len(values)), k):
        err = abs(sum(values[i] for i in combo) - target)
        if best_err is None or err < best_err:
            best_combo, best_err = combo, err
    return best_combo, best_err


def make_set(values):
    return np.asarray(values, dtype=float)


def indices(row, n, k):
    """The element indices a selection row stands for."""
    return tuple(int(i) for i in combination_index_matrix(n, k)[row])


# ---------------------------------------------------------------------------
# nominal sizes and schemes
# ---------------------------------------------------------------------------


def test_uniform_sizes():
    assert np.array_equal(nominal_sizes(Arithmetic(2.5, 0.0), 4), [2.5, 2.5, 2.5, 2.5])


def test_arithmetic_sizes_center_1_step_002():
    sizes = nominal_sizes(Arithmetic(1.0, 0.02), 12)
    expect = [0.89, 0.91, 0.93, 0.95, 0.97, 0.99, 1.01, 1.03, 1.05, 1.07, 1.09, 1.11]
    assert np.allclose(sizes, expect, rtol=0, atol=1e-12)
    assert sizes.sum() == pytest.approx(12.0)


def test_arithmetic_small_center_quarter_sigma_step():
    # step = sigma of a 6-element subset sum over 4, with 1% element sigma
    step = math.sqrt(6) * 0.01 / 4
    sizes = nominal_sizes(Arithmetic(0.0625, step), 12)
    assert sizes[0] == pytest.approx(0.0288, abs=5e-5)
    assert sizes[-1] == pytest.approx(0.0962, abs=5e-5)


def test_arithmetic_zero_step_is_uniform():
    # mean + offset * 0.0 adds a signed zero: equal sizing, bit for bit
    for mean in (5e-324, 1e-300, 1.0, 1e308):
        for n in range(1, 25):
            sizes = nominal_sizes(Arithmetic(mean, 0.0), n)
            assert sizes.tobytes() == np.full(n, mean).tobytes()


def test_arithmetic_sizes_equal_the_listed_sequence():
    # every size equals c + (i - (n - 1) / 2) * s added term by term, bit for bit
    for center in (52e-6, 0.0625, 1.0, 3.7, 1e5):
        for rel_step in (0.0, 0.76 / 52, 0.9 / 52, 0.02, 0.125 / 1.5, 0.08):
            step = center * rel_step
            for n in range(1, 25):
                listed = [center + (i - (n - 1) / 2.0) * step for i in range(n)]
                sizes = nominal_sizes(Arithmetic(center, step), n)
                assert sizes.tobytes() == np.array(listed).tobytes(), (center, step, n)


def test_nonpositive_size_names_offending_index():
    with pytest.raises(ConfigError, match="element 0"):
        nominal_sizes(Arithmetic(0.05, 0.02), 12)  # low end goes negative
    with pytest.raises(ConfigError, match="element 10"):
        nominal_sizes(Arithmetic(1.0, -0.25), 12)  # a falling step: the high end
    with pytest.raises(ConfigError) as caught:
        nominal_sizes(Arithmetic(1.0, 0.5), 12)
    # the size as a plain float, not numpy's np.float64(...) repr
    assert str(caught.value) == (
        "nominal size of element 0 is -1.75; all nominal sizes must be strictly positive"
    )


def test_scheme_center():
    # the mean is the size sigma_k references, whatever the step
    for mean, step in ((3.0, 0.0), (1.5, 0.1), (52e-6, 0.9e-6)):
        scheme = Arithmetic(mean, step)
        assert sigma_k(MismatchModel(0.01, mean), scheme, 4) == 0.02


# ---------------------------------------------------------------------------
# mismatch model and sampling
# ---------------------------------------------------------------------------


def test_sigma_scales_with_sqrt_size():
    model = MismatchModel(sigma_ref=0.01, size_ref=1.0)
    sig = model.element_sigmas(np.array([1.0, 4.0, 0.25]))
    assert np.allclose(sig, [0.01, 0.02, 0.005])


def test_sigma_k_example():
    model = MismatchModel(sigma_ref=0.187, size_ref=1.0)
    assert sigma_k(model, Arithmetic(1.0, 0.0), 8) == pytest.approx(0.5289, abs=5e-5)


def test_sigma_k_uses_center_size():
    model = MismatchModel(sigma_ref=0.01, size_ref=1.0)
    # center of the arithmetic scheme is its mean, so sigma_k is sqrt(k)*0.01
    assert sigma_k(model, Arithmetic(1.0, 0.02), 6) == pytest.approx(
        math.sqrt(6) * 0.01
    )


def test_sampling_deterministic_per_seed():
    scheme, model = Arithmetic(1.0, 0.02), MismatchModel(0.01, 1.0)
    a_nominal, a_realized, _ = sample_element_set(scheme, model, 12, np.random.default_rng(777))
    b_nominal, b_realized, _ = sample_element_set(scheme, model, 12, np.random.default_rng(777))
    assert np.array_equal(a_realized, b_realized)
    assert np.array_equal(a_nominal, b_nominal)


def test_sampling_statistics():
    # empirical mean/sigma of realized sizes over many draws
    scheme, model = Arithmetic(1.0, 0.0), MismatchModel(0.02, 1.0)
    rng = np.random.default_rng(2024)
    draws = np.array(
        [sample_element_set(scheme, model, 8, rng)[1] for _ in range(4000)]
    )
    assert draws.mean() == pytest.approx(1.0, abs=3e-3)
    assert draws.std() == pytest.approx(0.02, rel=0.03)


def test_subset_sum_sigma_is_sqrt_k():
    scheme, model = Arithmetic(1.0, 0.0), MismatchModel(0.01, 1.0)
    rng = np.random.default_rng(99)
    combo = (0, 2, 3, 5, 8, 9)
    sums = []
    for _ in range(4000):
        _, realized, _ = sample_element_set(scheme, model, 12, rng)
        sums.append(subset_value(realized, combo))
    sums = np.asarray(sums)
    assert sums.std() == pytest.approx(sigma_k(model, scheme, 6), rel=0.05)


def test_resample_counter_and_positivity():
    # absurdly large sigma forces redraws; result stays strictly positive
    nominal = np.full(64, 0.1)
    sigmas = np.full(64, 1.0)
    realized, resamples = draw_realized(nominal, sigmas, np.random.default_rng(5))
    assert np.all(realized > 0)
    assert resamples > 0


def test_resampling_is_elementwise_local():
    # an element that never goes negative gets the same value whether or not
    # another element needed redraws... not guaranteed elementwise in general,
    # but the first draw call consumes a fixed-shape block, so the initial
    # values match between two models differing only in a later redraw path.
    nominal = np.array([10.0, 0.01])
    rng1 = np.random.default_rng(42)
    first_block = 10.0 + 1e-6 * np.random.default_rng(42).standard_normal(2)
    realized, _ = draw_realized(nominal, np.array([1e-6, 1e-6]), rng1)
    assert realized[0] == pytest.approx(first_block[0] - 0.0, abs=0)


# ---------------------------------------------------------------------------
# combinations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(4, 2), (12, 6), (16, 8), (10, 3), (5, 5)])
def test_combination_counts(n, k):
    assert combination_index_matrix(n, k).shape == (math.comb(n, k), k)


def test_enumeration_order_4_choose_2():
    assert combination_index_matrix(4, 2).tolist() == [
        [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3],
    ]


def test_enumeration_matches_itertools():
    got = [tuple(row) for row in combination_index_matrix(7, 3).tolist()]
    assert got == list(iter_combos(range(7), 3))


def test_membership_matrix_sums():
    values = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
    sums = all_subset_sums(values, 2)
    expect = [sum(values[list(c)]) for c in iter_combos(range(5), 2)]
    assert np.allclose(sums, expect)


def test_all_subset_sums_batched():
    rng = np.random.default_rng(8)
    batch = rng.normal(1.0, 0.1, size=(5, 6))
    sums = all_subset_sums(batch, 3)
    assert sums.shape == (5, math.comb(6, 3))
    one = all_subset_sums(batch[2], 3)
    # batched (gemm) and single-vector (gemv) BLAS paths may differ in the
    # last ulp; they must agree to full double precision
    assert np.allclose(sums[2], one, rtol=1e-14, atol=0)


def test_balanced_combination():
    assert indices(balanced_row(12, 6), 12, 6) == (0, 2, 4, 7, 9, 11)
    assert indices(balanced_row(16, 8), 16, 8) == (0, 2, 4, 6, 9, 11, 13, 15)
    # nominal sum of the balanced pick equals k * mean exactly
    sizes = nominal_sizes(Arithmetic(1.0, 0.02), 12)
    idx = list(indices(balanced_row(12, 6), 12, 6))
    assert sizes[idx].sum() == pytest.approx(6.0, abs=1e-12)
    for n, k in ((4, 2), (10, 4), (12, 6), (16, 8)):
        low = list(range(0, k, 2))
        assert indices(balanced_row(n, k), n, k) == tuple(low + [n - 1 - i for i in low[::-1]])


def oracle_balanced_row(n, k):
    """``balanced_row`` as the list scan it replaced: the mirrored subset
    built from Python lists and found with ``list.index``, its errors raised
    in the same order."""
    if not 1 <= k <= n:
        raise ConfigError(f"need 1 <= k <= n, got n={n} k={k}")
    if k % 2:
        raise ConfigError(f"balanced combination needs even k, got k={k}")
    low = [2 * i for i in range(k // 2)]
    high = [n - 1 - i for i in low]
    if low[-1] >= min(high):
        raise ConfigError(f"no balanced combination for n={n} k={k}")
    return list(iter_combos(range(n), k)).index(tuple(sorted(low + high)))


@given(n=st.integers(1, 14), k=st.integers(1, 14))
def test_balanced_row_equals_the_list_scan(n, k):
    """Equal rows, and equal errors, for every geometry up to n = 14."""
    try:
        expected = oracle_balanced_row(n, k)
    except ConfigError as error:
        with pytest.raises(ConfigError, match=re.escape(str(error))):
            balanced_row(n, k)
    else:
        assert balanced_row(n, k) == expected


@given(drive=st.floats(1e-13, 1e-9), fraction=st.floats(0.0, 0.999))
def test_inverse_width_step_covers_its_reach(drive, fraction):
    """The compressive side of the step's range, drive * 3d / (1 + 3d),
    reaches the requested deviation to rounding; a reach at or past the
    drive has no step."""
    reach = fraction * drive
    d = inverse_width_step(drive, reach)
    assert drive * 3.0 * d / (1.0 + 3.0 * d) == pytest.approx(reach, rel=1e-9, abs=1e-30)
    with pytest.raises(ConfigError, match="cannot cover"):
        inverse_width_step(drive, drive * (1.0 + fraction))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@given(
    k=st.sampled_from([6, 8, 9, 12]),
    shape=st.sampled_from([(), (24,), (63, 3)]),
    extra=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_selected_sums_equal_per_row_sums(k, shape, extra, seed):
    """Bit for bit, every row's selected sum is the 1-D ``sum`` of its
    selected elements, for a selection per row and for one scalar selection.
    Sizes span six decades, so any other addition order would show."""
    n = k + extra
    rng = np.random.default_rng(seed)
    realized = np.exp(rng.uniform(-7.0, 7.0, shape + (n,)))
    combos = combination_index_matrix(n, k)
    selection = rng.integers(0, combos.shape[0], shape)
    scalar = int(rng.integers(0, combos.shape[0]))
    per_row = np.array([realized[i][combos[selection[i]]].sum() for i in np.ndindex(shape)])
    one_row = np.array([realized[i][combos[scalar]].sum() for i in np.ndindex(shape)])
    assert np.array_equal(_bits(selected_sums(realized, selection, k)).ravel(), _bits(per_row))
    assert np.array_equal(_bits(selected_sums(realized, scalar, k)).ravel(), _bits(one_row))


# a drawn extrinsic error is nominal 0.0 plus sigma * z, never -0.0
_EXTRINSIC = st.floats(-1e-11, 1e-11).filter(lambda x: math.copysign(1.0, x) > 0 or x != 0)


@given(
    rows=st.integers(1, 3),
    n=st.integers(2, 10),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_subset_deviations_equal_the_scalar_law(rows, n, data, seed):
    """In place over a (rows, C(n,k)) block, each row with its own drive
    (0 included), design width and extrinsic error, every value is the
    scalar law's bit for bit."""
    k = data.draw(st.integers(1, n))
    drives = data.draw(st.lists(st.sampled_from([0.0, 4.5e-10]) | st.floats(1e-12, 1e-9),
                                min_size=rows, max_size=rows))
    extrinsic = data.draw(st.lists(_EXTRINSIC, min_size=rows, max_size=rows))
    widths = np.random.default_rng(seed).normal(1.0, 0.05, (rows, n))
    halves = widths.mean(axis=1) * k
    sums = all_subset_sums(widths, k)
    expected = [
        [subset_deviation(drives[r], float(halves[r]), float(s), extrinsic[r]) for s in sums[r]]
        for r in range(rows)
    ]
    column = lambda values: np.array(values)[:, None]
    got = subset_deviations(sums.copy(), column(drives), column(halves), column(extrinsic))
    assert np.array_equal(_bits(got), _bits(expected))
    one = subset_deviations(sums[0].copy(), drives[0], halves[0], extrinsic[0])
    assert np.array_equal(_bits(one), _bits(expected[0]))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_find_best_two_element_example():
    es = make_set([1.0, 1.4])
    row, residual = find_best_residual(es, 1, 1.1)
    assert indices(row, 2, 1) == (0,)
    assert residual == pytest.approx(-0.1)


def test_find_best_matches_oracle_randomized():
    rng = np.random.default_rng(314)
    for _ in range(40):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, n))
        values = rng.normal(1.0, 0.05, size=n)
        target = k * (1.0 + float(rng.normal(0, 0.05)))
        es = make_set(values)
        row, residual = find_best_residual(es, k, target)
        o_combo, o_err = oracle_best(list(values), k, target)
        assert indices(row, n, k) == o_combo
        assert abs(residual) == pytest.approx(o_err)


@st.composite
def sets_and_targets(draw, exact: bool):
    """n <= 10 values, k and a target near k values' sum.  ``exact`` draws
    multiples of 1/64 below 64, whose subset sums float adds without
    rounding, so ties are exact and common."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, n))
    if exact:
        values = [draw(st.integers(1, 4096)) / 64 for _ in range(n)]
        target = draw(st.integers(0, 4096 * k)) / 64
    else:
        values = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
        target = draw(st.floats(0.0, 2.0 * k))
    return values, k, target


@given(case=sets_and_targets(exact=True))
def test_find_best_equals_brute_force_on_exact_sums(case):
    """With exact sums the selection, tie-break included, and the residual
    are the brute-force scan's."""
    values, k, target = case
    row, residual = find_best_residual(make_set(values), k, target)
    o_combo, o_err = oracle_best(values, k, target)
    assert indices(row, len(values), k) == o_combo
    assert residual == sum(values[i] for i in o_combo) - target
    assert abs(residual) == o_err


@given(case=sets_and_targets(exact=False))
def test_find_best_equals_brute_force(case):
    """On any floats the residual matches the brute-force minimum to
    rounding, and belongs to the selection returned."""
    values, k, target = case
    row, residual = find_best_residual(make_set(values), k, target)
    _, o_err = oracle_best(values, k, target)
    assert abs(residual) == pytest.approx(o_err, rel=1e-12, abs=1e-12)
    combo = indices(row, len(values), k)
    assert residual == pytest.approx(sum(values[i] for i in combo) - target, abs=1e-12)


def test_find_best_tie_breaks_lexicographic():
    # two selections with identical |residual| (symmetric values)
    es = make_set([1.0, 2.0, 3.0, 4.0])
    row, residual = find_best_residual(es, 1, 2.5)
    assert indices(row, 4, 1) == (1,)  # 2.0 and 3.0 tie; (1,) precedes (2,)
    assert residual == pytest.approx(-0.5)


def test_find_best_reads_a_batch_with_one_target_per_set():
    """A (sets, n) batch with a (sets,) target, or one target for every
    set, picks each set's own 1-D row."""
    rng = np.random.default_rng(12)
    batch = rng.normal(1.0, 0.05, size=(9, 8))
    targets = 4.0 + rng.normal(0.0, 0.05, size=9)
    rows = find_best(batch, 4, targets)
    assert rows.shape == (9,)
    assert rows.tolist() == [find_best(s, 4, t) for s, t in zip(batch, targets)]
    shared = find_best(batch, 4, 4.0)
    assert shared.tolist() == [find_best(s, 4, 4.0) for s in batch]


def test_permutation_invariance():
    rng = np.random.default_rng(11)
    values = rng.normal(1.0, 0.04, size=10)
    target = 5.1
    _, res = find_best_residual(make_set(values), 5, target)
    for _ in range(6):
        perm = rng.permutation(10)
        _, res_p = find_best_residual(make_set(values[perm]), 5, target)
        assert abs(res_p) == pytest.approx(abs(res))


def test_subset_value_validates_range():
    es = make_set([1.0, 2.0, 3.0])
    with pytest.raises(ConfigError):
        subset_value(es, (0, 3))
