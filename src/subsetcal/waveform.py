"""Exact algebra for periodic piecewise-constant waveforms.

A waveform is a list of transitions (time as a fraction of the period, new
level) with cyclic wrap-around: the last level holds from the last transition
through the end of the period and on to the first transition.  The mixer's LO
spectra and harmonic-rejection ratios reduce to exact Fourier coefficients of
these edge lists; no time-domain sampling grids anywhere.

Fourier convention: x(t) = sum_n c_n exp(+j 2 pi n t / T), so for n != 0

    c_n = (1 / (j 2 pi n)) * sum_edges dlevel_e * exp(-j 2 pi n t_e)

with t_e in period fractions and dlevel_e the level step at the edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mismatch import ConfigError

__all__ = [
    "EdgeWaveform",
    "fourier_coeff",
    "edge_fourier",
    "moved_edge_fourier",
]


@dataclass(frozen=True, eq=False)
class EdgeWaveform:
    """Periodic piecewise-constant waveform given by its transitions.

    ``times`` are strictly increasing fractions in [0, 1); ``levels[i]`` is the
    value right after ``times[i]``.  With no transitions the waveform is the
    constant ``dc``.
    """

    period: float
    times: np.ndarray
    levels: np.ndarray
    dc: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigError(f"period must be > 0, got {self.period}")
        t, l = np.asarray(self.times, float), np.asarray(self.levels, float)
        if t.shape != l.shape or t.ndim != 1:
            raise ConfigError("times and levels must be 1-D arrays of equal length")
        if t.size:
            if np.any(t < 0.0) or np.any(t >= 1.0):
                raise ConfigError("transition times must lie in [0, 1)")
            if np.any(np.diff(t) <= 0.0):
                raise ConfigError("transition times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "levels", l)

    def mean(self) -> float:
        """Exact DC value (the n=0 Fourier coefficient)."""
        if self.times.size == 0:
            return float(self.dc)
        t, l = self.times, self.levels
        durations = np.empty_like(t)
        durations[:-1] = np.diff(t)
        durations[-1] = 1.0 - t[-1] + t[0]
        return float(np.dot(l, durations))


def edge_fourier(times, deltas, n) -> np.ndarray:
    """Fourier coefficients of edge lists: (1/(j 2 pi n)) * sum d * exp(-j 2 pi n t).

    ``times``/``deltas`` may be batched with shape (..., E); ``n`` is a positive
    integer (scalar).  The mixer reads one branch's or one LO path's edge
    list at a time through it; a knob's candidates rotate that list or move
    one of its edges (``moved_edge_fourier``), so no caller builds a batch
    of candidate edge lists.
    """
    times = np.asarray(times, dtype=float)
    phase = np.exp((-2j * np.pi * n) * times)
    return (phase * deltas).sum(axis=-1) / (2j * np.pi * n)


def moved_edge_fourier(times, deltas, n, edge, moved) -> np.ndarray:
    """``edge_fourier`` of the batch of edge lists equal to the four-edge 1-D
    ``times`` but for edge ``edge``, which takes each value of ``moved`` in
    turn.

    The four fixed terms d * exp(-j 2 pi n t) are evaluated once and the
    moved edge's term once per list; no (len(moved), 4) array is built.  The
    terms are added in the order numpy's add reduction sums a row of four
    complex values, 0 + ((t0 + t1) + (t2 + t3)).  With the products and the
    division ``edge_fourier`` takes, every coefficient equals its
    coefficient of the explicit batch bit for bit.  Any other edge count is
    a ``ConfigError``.
    """
    times = np.asarray(times, dtype=float)
    if times.size != 4:
        raise ConfigError(f"moved_edge_fourier takes 4 edges, got {times.size}")
    w = -2j * np.pi * n
    terms = (np.exp(w * times) * deltas).tolist()
    terms[edge] = np.exp(w * np.asarray(moved, dtype=float)) * deltas[edge]
    t0, t1, t2, t3 = terms
    return (0.0 + ((t0 + t1) + (t2 + t3))) / (2j * np.pi * n)


def fourier_coeff(waveform: EdgeWaveform, n: int) -> complex:
    """Exact complex Fourier coefficient c_n (n >= 0) of the waveform."""
    if n < 0:
        raise ConfigError("n must be >= 0 (c_{-n} is the conjugate of c_n)")
    if n == 0:
        return complex(waveform.mean())
    if waveform.times.size == 0:
        return 0j
    deltas = waveform.levels - np.roll(waveform.levels, 1)
    return complex(edge_fourier(waveform.times, deltas, n))
