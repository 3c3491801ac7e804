"""Tests for the periodic piecewise-constant waveform algebra.

The independent oracle integrates level * exp(-j 2 pi n t) segment by segment
with Gauss-Legendre quadrature (the integrand is smooth within a segment), so
it never touches the edge-delta formula used by the implementation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from subsetcal.mismatch import ConfigError
from subsetcal.waveform import EdgeWaveform, edge_fourier, fourier_coeff, moved_edge_fourier

from oracles import combine, n_edges, product_average, scaled, shifted, square_wave, value

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def oracle_coeff(w: EdgeWaveform, n: int) -> complex:
    """Quadrature Fourier coefficient: per-segment Gauss-Legendre integration."""
    if w.times.size == 0:
        return complex(w.dc) if n == 0 else 0j
    # segment boundaries across one period starting at times[0]
    starts = w.times
    ends = np.append(w.times[1:], w.times[0] + 1.0)
    total = 0j
    for a, b, level in zip(starts, ends, w.levels):
        # map GL nodes to [a, b]
        t = 0.5 * (b - a) * GL_NODES + 0.5 * (a + b)
        f = level * np.exp(-2j * np.pi * n * t)
        total += 0.5 * (b - a) * np.dot(GL_WEIGHTS, f)
    return complex(total)


def rand_waveform(rng, n_edges: int, period: float = 1e-9) -> EdgeWaveform:
    times = np.sort(rng.uniform(0, 1, size=n_edges))
    while np.any(np.diff(times) <= 0):
        times = np.sort(rng.uniform(0, 1, size=n_edges))
    levels = rng.normal(0, 1, size=n_edges)
    return EdgeWaveform(period, times, levels)


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------


def test_validation():
    with pytest.raises(ConfigError):
        EdgeWaveform(0.0, np.array([0.1]), np.array([1.0]))
    with pytest.raises(ConfigError):
        EdgeWaveform(1.0, np.array([0.2, 0.1]), np.array([1.0, 0.0]))
    with pytest.raises(ConfigError):
        EdgeWaveform(1.0, np.array([1.0]), np.array([1.0]))


def test_value_and_wrap():
    w = square_wave(1e-6, 0.25, 0.75, low=-1.0, high=1.0)
    assert value(w, 0.5) == 1.0
    assert value(w, 0.0) == -1.0  # before the first edge -> last level wraps
    assert value(w, 0.75) == -1.0  # level AFTER the fall edge
    assert np.array_equal(value(w, [0.3, 0.8, 1.3]), [1.0, -1.0, 1.0])


def test_square_wave_wrapped_interval():
    w = square_wave(1.0, 0.8, 0.3)  # high across the wrap
    assert value(w, 0.9) == 1.0 and value(w, 0.1) == 1.0 and value(w, 0.5) == 0.0
    assert w.mean() == pytest.approx(0.5)


def test_mean_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        w = rand_waveform(rng, int(rng.integers(1, 12)))
        assert w.mean() == pytest.approx(oracle_coeff(w, 0).real, abs=1e-12)


# ---------------------------------------------------------------------------
# Fourier coefficients
# ---------------------------------------------------------------------------


def test_symmetric_square_spectrum():
    # +/-1 square: |c_n| = 2/(pi n) for odd n, exactly 0 for even n
    w = square_wave(1.0, 0.0, 0.5, low=-1.0, high=1.0)
    assert abs(fourier_coeff(w, 1)) == pytest.approx(2 / math.pi, rel=1e-14)
    assert abs(fourier_coeff(w, 3)) == pytest.approx(2 / (3 * math.pi), rel=1e-14)
    assert abs(fourier_coeff(w, 5)) == pytest.approx(2 / (5 * math.pi), rel=1e-14)
    assert abs(fourier_coeff(w, 2)) < 1e-15
    assert abs(fourier_coeff(w, 4)) < 1e-15


def test_quadrature_oracle_randomized():
    rng = np.random.default_rng(17)
    for _ in range(20):
        w = rand_waveform(rng, int(rng.integers(1, 64)))
        for n in (1, 2, 3, 7):
            got = fourier_coeff(w, n)
            expect = oracle_coeff(w, n)
            assert got == pytest.approx(expect, abs=1e-10)


def test_gain_scale_invariance():
    rng = np.random.default_rng(3)
    w = rand_waveform(rng, 8)
    for n in (1, 2, 5):
        assert fourier_coeff(scaled(w, 2.5), n) == pytest.approx(
            2.5 * fourier_coeff(w, n), rel=1e-13
        )


def test_time_shift_rotates_phase_only():
    rng = np.random.default_rng(6)
    w = rand_waveform(rng, 10)
    shift = 0.2031
    ws = shifted(w, shift)
    for n in (1, 2, 3):
        a, b = fourier_coeff(w, n), fourier_coeff(ws, n)
        assert abs(b) == pytest.approx(abs(a), rel=1e-12)
        assert b == pytest.approx(a * np.exp(-2j * np.pi * n * shift), abs=1e-13)


def test_edge_fourier_matches_waveform_route():
    rng = np.random.default_rng(12)
    w = rand_waveform(rng, 6)
    deltas = w.levels - np.roll(w.levels, 1)
    for n in (1, 4):
        assert edge_fourier(w.times, deltas, n) == pytest.approx(
            fourier_coeff(w, n), rel=1e-13
        )


def test_edge_fourier_batched():
    rng = np.random.default_rng(13)
    times = rng.uniform(0, 1, size=(5, 4))
    deltas = rng.normal(size=(5, 4))
    batch = edge_fourier(times, deltas, 3)
    for i in range(5):
        assert batch[i] == pytest.approx(edge_fourier(times[i], deltas[i], 3))


@given(
    seed=st.integers(0, 2**32 - 1),
    edges=st.just(4),
    batch=st.integers(1, 300),
    n=st.integers(1, 7),
    spread=st.sampled_from((1e-9, 1e-3, 0.5, 3.0)),
)
def test_moved_edge_fourier_equals_the_explicit_batch(seed, edges, batch, n, spread):
    """Moving one edge of a fixed list gives, bit for bit, the coefficients
    ``edge_fourier`` takes on the batch with that edge written out."""
    rng = np.random.default_rng(seed)
    times, deltas = rng.random(edges), rng.normal(size=edges)
    edge = int(rng.integers(edges))
    moved = times[edge] + spread * rng.normal(size=batch)
    explicit = np.broadcast_to(times, (batch, edges)).copy()
    explicit[:, edge] = moved
    got = moved_edge_fourier(times, deltas, n, edge, moved)
    assert got.tobytes() == edge_fourier(explicit, deltas, n).tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_moved_edge_fourier_sums_a_zero_row_as_the_batch_does(n):
    """Rows of signed zeros (every delta -0.0) at harmonic n: numpy's
    reduction adds each row to +0.0, and the coefficients keep the signs of
    the zeros it gives."""
    times, deltas = np.linspace(0.0, 0.5, 4), np.full(4, -0.0)
    moved = np.array([0.0, 0.25, 0.75])
    explicit = np.broadcast_to(times, (moved.size, 4)).copy()
    explicit[:, n % 4] = moved
    got = moved_edge_fourier(times, deltas, n, n % 4, moved)
    assert got.tobytes() == edge_fourier(explicit, deltas, n).tobytes()


def test_moved_edge_fourier_rejects_any_count_but_four_edges():
    rng = np.random.default_rng(5)
    for edges in (0, 1, 3, 5, 8, 64, 65):
        times, deltas, moved = rng.random(edges), rng.normal(size=edges), rng.random(10)
        with pytest.raises(ConfigError, match=f"takes 4 edges, got {edges}"):
            moved_edge_fourier(times, deltas, 2, 0, moved)


def test_rejects_negative_harmonic():
    with pytest.raises(ConfigError):
        fourier_coeff(square_wave(1.0, 0.0, 0.5), -1)


def test_constant_waveform_coeffs():
    w = EdgeWaveform(1.0, np.empty(0), np.empty(0), dc=0.7)
    assert fourier_coeff(w, 0) == 0.7
    assert fourier_coeff(w, 3) == 0


# ---------------------------------------------------------------------------
# combine
# ---------------------------------------------------------------------------


def test_combine_linearity_of_coefficients():
    rng = np.random.default_rng(8)
    parts = [rand_waveform(rng, int(rng.integers(2, 8))) for _ in range(3)]
    gains = [1.0, -0.34, 2.2]
    total = combine(parts, gains)
    for n in (1, 2, 3, 6):
        expect = sum(g * fourier_coeff(p, n) for g, p in zip(gains, parts))
        assert fourier_coeff(total, n) == pytest.approx(expect, abs=1e-12)


def test_combine_pointwise():
    rng = np.random.default_rng(9)
    parts = [rand_waveform(rng, 5) for _ in range(2)]
    total = combine(parts, [2.0, -1.0])
    probes = rng.uniform(0, 1, 50)
    expect = 2.0 * value(parts[0], probes) - value(parts[1], probes)
    assert np.allclose(value(total, probes), expect)


def test_combine_cancellation_gives_constant():
    w = square_wave(1.0, 0.1, 0.6)
    total = combine([w, w], [1.0, -1.0])
    assert n_edges(total) == 0 and total.mean() == 0.0


def test_combine_rejects_period_mismatch():
    with pytest.raises(ConfigError):
        combine([square_wave(1.0, 0.0, 0.5), square_wave(2.0, 0.0, 0.5)], [1, 1])


# ---------------------------------------------------------------------------
# product average
# ---------------------------------------------------------------------------


def test_product_average_autocorrelation_triangle():
    # <s(t) s(t+d)> for a +/-1 50% square is the triangle 1 - 4|d|/T
    s = square_wave(1.0, 0.0, 0.5, low=-1.0, high=1.0)
    for d in (0.0, 0.05, 0.125, 0.25, 0.375, 0.5):
        expect = 1.0 - 4.0 * min(d, 1.0 - d)
        assert product_average(s, shifted(s, d)) == pytest.approx(expect, abs=1e-12)


def test_product_average_quadrature_square_is_zero():
    s = square_wave(1.0, 0.0, 0.5, low=-1.0, high=1.0)
    assert product_average(s, shifted(s, 0.25)) == pytest.approx(0.0, abs=1e-15)


def test_product_average_matches_sampled_estimate():
    rng = np.random.default_rng(21)
    a, b = rand_waveform(rng, 7), rand_waveform(rng, 9)
    exact = product_average(a, b)
    # Riemann check on a fine uniform grid (midpoint rule)
    t = (np.arange(200_000) + 0.5) / 200_000
    approx = float(np.mean(value(a, t) * value(b, t)))
    assert exact == pytest.approx(approx, abs=2e-4)
    assert product_average(a, b) == product_average(b, a)
