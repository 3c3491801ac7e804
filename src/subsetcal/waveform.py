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
    integer (scalar).  This is the hot path used by calibration searches, which
    evaluate thousands of candidate edge lists at once.
    """
    times = np.asarray(times, dtype=float)
    phase = np.exp((-2j * np.pi * n) * times)
    return (phase * deltas).sum(axis=-1) / (2j * np.pi * n)


#: most edges whose row sum ``moved_edge_fourier`` reproduces: up to 64
#: complex values numpy's add reduction sums in one unrolled block; longer
#: rows it splits pairwise
_MAX_MOVED_EDGES = 64


def moved_edge_fourier(times, deltas, n, edge, moved) -> np.ndarray:
    """``edge_fourier`` of the batch of edge lists equal to the 1-D ``times``
    but for edge ``edge``, which takes each value of ``moved`` in turn.

    The E fixed terms d * exp(-j 2 pi n t) are evaluated once and the moved
    edge's term once per list; no (len(moved), E) array is built.  The terms
    are added in the order numpy's add reduction sums a row of E <= 64
    complex values: four lanes t0..t3, each adding every fourth term after
    it, then (lane0 + lane1) + (lane2 + lane3), then the E % 4 last terms
    one by one, all added to 0.  For E = 4 that is 0 + ((t0 + t1) + (t2 +
    t3)).  With the products and the division ``edge_fourier`` takes, every
    coefficient equals its coefficient of the explicit batch bit for bit.
    """
    times = np.asarray(times, dtype=float)
    count = times.size
    if count > _MAX_MOVED_EDGES:
        raise ConfigError(f"moved_edge_fourier takes at most {_MAX_MOVED_EDGES} edges")
    w = -2j * np.pi * n
    terms = (np.exp(w * times) * deltas).tolist()
    terms[edge] = np.exp(w * np.asarray(moved, dtype=float)) * deltas[edge]
    if count < 4:
        total = terms[0]
        for term in terms[1:]:
            total = total + term
    else:
        tail = count - count % 4
        lanes = terms[:4]
        for start in range(4, tail, 4):
            lanes = [lane + term for lane, term in zip(lanes, terms[start : start + 4])]
        total = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
        for term in terms[tail:]:
            total = total + term
    return (0.0 + total) / (2j * np.pi * n)


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
